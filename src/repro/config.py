"""Simulation configuration.

:class:`SimulationConfig` names every value a run reads, with the paper's
§V-C defaults: payoffs ``f[R,S,T,P] = [3,0,4,1]``, 200 rounds per
generation, pairwise-comparison rate 0.1 and mutation rate μ = 0.05.  The
§V-C agents-per-SSet rule (as many agents as SSets, so each agent handles
one opponent per generation) changes no fitness — an SSet's fitness is the
sum over its opponents however they are dealt to agents — so it lives
where it is computed: :func:`~repro.parallel.decomposition.agents_per_processor` and
:class:`~repro.perf.workload.WorkloadSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from repro.errors import ConfigError
from repro.game.engine import DEFAULT_ROUNDS
from repro.game.noise import NoiseModel
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import MAX_MEMORY, StateSpace

__all__ = ["SimulationConfig"]

PCRule = Literal["paper", "fermi"]
StrategyKind = Literal["pure", "mixed"]
FitnessMode = Literal["auto", "sampled", "expected"]
MutationDistribution = Literal["uniform", "ushaped"]


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one evolutionary-game-dynamics simulation.

    Parameters
    ----------
    memory:
        Memory depth *n* of the strategies (1..6 in the paper).
    n_ssets:
        Number of Strategy Sets in the population.
    generations:
        Number of generations to evolve.
    rounds:
        IPD rounds per game (paper: 200).
    pc_rate:
        Per-generation probability that the Nature Agent runs a pairwise
        comparison (paper: 0.1 for science runs, 0.01 for scaling runs).
    mutation_rate:
        Per-generation probability of a random mutation (paper: μ = 0.05).
    mutation_distribution:
        How mixed-strategy mutants are drawn: ``"uniform"`` takes each
        per-state probability iid uniform on [0, 1]; ``"ushaped"`` draws
        from Beta(0.1, 0.1), concentrating mass near the deterministic
        corners as in Nowak & Sigmund's WSLS study [11] — near-pure mutants
        are what lets WSLS take over the population.  Ignored for pure
        populations.
    beta:
        Selection intensity in the Fermi function (Eq. 1).
    payoff:
        Payoff matrix (defaults to the paper's Table I values).
    noise:
        Execution-error model for game play.
    strategy_kind:
        ``"pure"`` for deterministic tables, ``"mixed"`` for probabilistic
        ones (the paper's validation study uses mixed memory-one).
    pc_rule:
        ``"paper"`` gates adoption on the teacher's fitness being strictly
        higher, then applies the Fermi probability (the paper's pseudocode);
        ``"fermi"`` applies the Fermi probability unconditionally (the
        Traulsen et al. convention the paper cites).
    include_self_play:
        Whether an SSet's agents also play their own strategy.  The paper
        plays "all other strategies", so the default is False.
    fitness_mode:
        How SSet fitness is evaluated.  ``"auto"`` plays deterministically
        for pure noiseless populations and samples otherwise (the paper's
        behaviour); ``"sampled"`` always plays the games with live
        randomness; ``"expected"`` uses the exact Markov-chain expectation
        (:mod:`repro.game.markov`) — deterministic even for mixed/noisy
        play, at Θ(rounds x 4^memory) per pair.
    seed:
        Root seed for every random stream in the run.
    """

    memory: int = 1
    n_ssets: int = 64
    generations: int = 1000
    rounds: int = DEFAULT_ROUNDS
    pc_rate: float = 0.1
    mutation_rate: float = 0.05
    mutation_distribution: MutationDistribution = "uniform"
    beta: float = 1.0
    payoff: PayoffMatrix = field(default_factory=lambda: PAPER_PAYOFFS)
    noise: NoiseModel = field(default_factory=NoiseModel)
    strategy_kind: StrategyKind = "pure"
    pc_rule: PCRule = "paper"
    include_self_play: bool = False
    fitness_mode: FitnessMode = "auto"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.memory <= MAX_MEMORY:
            raise ConfigError(f"memory must be in [1, {MAX_MEMORY}], got {self.memory}")
        if self.n_ssets < 2:
            raise ConfigError(f"need at least 2 SSets for pairwise comparison, got {self.n_ssets}")
        if self.generations < 0:
            raise ConfigError(f"generations must be non-negative, got {self.generations}")
        if self.rounds <= 0:
            raise ConfigError(f"rounds must be positive, got {self.rounds}")
        if not 0.0 <= self.pc_rate <= 1.0:
            raise ConfigError(f"pc_rate must lie in [0, 1], got {self.pc_rate}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(f"mutation_rate must lie in [0, 1], got {self.mutation_rate}")
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ConfigError(f"beta must be finite and non-negative, got {self.beta}")
        if self.strategy_kind not in ("pure", "mixed"):
            raise ConfigError(f"strategy_kind must be 'pure' or 'mixed', got {self.strategy_kind}")
        if self.pc_rule not in ("paper", "fermi"):
            raise ConfigError(f"pc_rule must be 'paper' or 'fermi', got {self.pc_rule}")
        if self.mutation_distribution not in ("uniform", "ushaped"):
            raise ConfigError(
                "mutation_distribution must be 'uniform' or 'ushaped',"
                f" got {self.mutation_distribution}"
            )
        if self.fitness_mode not in ("auto", "sampled", "expected"):
            raise ConfigError(
                f"fitness_mode must be 'auto', 'sampled' or 'expected', got {self.fitness_mode}"
            )
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigError(f"seed must be an int, got {type(self.seed).__name__}")
        if not isinstance(self.payoff, PayoffMatrix):
            raise ConfigError(f"payoff must be a PayoffMatrix, got {type(self.payoff).__name__}")
        if not isinstance(self.noise, NoiseModel):
            raise ConfigError(f"noise must be a NoiseModel, got {type(self.noise).__name__}")

    # -- derived quantities ------------------------------------------------

    @property
    def space(self) -> StateSpace:
        """The memory-*n* state space of this configuration."""
        return StateSpace(self.memory)

    @property
    def opponents_per_sset(self) -> int:
        """Opponent strategies each SSet faces per generation."""
        return self.n_ssets if self.include_self_play else self.n_ssets - 1

    @property
    def deterministic_games(self) -> bool:
        """True when game outcomes are pure functions of the strategy pair."""
        return self.strategy_kind == "pure" and self.noise.is_noiseless

    @property
    def resolved_fitness_mode(self) -> str:
        """The fitness mode after resolving ``"auto"``.

        Returns one of ``"deterministic"`` (pure noiseless play, memoisable),
        ``"expected"`` (exact Markov expectation) or ``"sampled"`` (live
        random play).
        """
        if self.fitness_mode == "expected":
            return "expected"
        if self.fitness_mode == "sampled":
            return "sampled"
        return "deterministic" if self.deterministic_games else "sampled"

    def with_updates(self, **changes: object) -> "SimulationConfig":
        """Return a copy with the given fields replaced (validated anew)."""
        return replace(self, **changes)  # type: ignore[arg-type]
