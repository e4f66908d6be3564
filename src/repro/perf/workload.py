"""Workload descriptions for the performance model.

A :class:`WorkloadSpec` is the performance model's view of one simulation:
how many SSets, how many games each plays per generation, at what memory
depth, for how many generations — plus the population-dynamics rates that
set the communication volume.  Class methods build the exact workloads of
the paper's studies (Tables VI and VII, Figures 3-7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PerfModelError
from repro.game.states import MAX_MEMORY, StateSpace

__all__ = ["WorkloadSpec"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One simulation, as the performance model sees it.

    Parameters
    ----------
    n_ssets:
        Strategy Sets in the population.
    games_per_sset:
        Directed games each SSet's agents play per generation.  The paper's
        §V-C default (one agent per opponent SSet) makes this
        ``n_ssets - 1``; the large-scale weak-scaling runs hold it fixed.
    memory:
        Strategy memory depth (1..6).
    rounds:
        IPD rounds per game (200 in the paper).
    generations:
        Generations simulated.
    pc_rate, mutation_rate:
        Population-dynamics event rates (communication volume drivers).
    adoption_probability:
        Expected probability that a PC event actually changes a strategy
        (sets how often the post-PC update broadcast carries a table).
    """

    n_ssets: int
    games_per_sset: int
    memory: int
    rounds: int = 200
    generations: int = 1000
    pc_rate: float = 0.01
    mutation_rate: float = 0.05
    adoption_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.n_ssets < 1:
            raise PerfModelError(f"n_ssets must be >= 1, got {self.n_ssets}")
        if self.games_per_sset < 0:
            raise PerfModelError(f"games_per_sset must be >= 0, got {self.games_per_sset}")
        if not 1 <= self.memory <= MAX_MEMORY:
            raise PerfModelError(f"memory must be in [1, {MAX_MEMORY}], got {self.memory}")
        if self.rounds < 1 or self.generations < 1:
            raise PerfModelError("rounds and generations must be positive")
        for name in ("pc_rate", "mutation_rate", "adoption_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PerfModelError(f"{name} must lie in [0, 1], got {v}")

    # -- derived -------------------------------------------------------------

    @property
    def total_games_per_generation(self) -> int:
        """Directed games across the population per generation."""
        return self.n_ssets * self.games_per_sset

    @property
    def strategy_nbytes(self) -> int:
        """Wire size of one strategy table (one byte per state, as in C)."""
        return StateSpace(self.memory).n_states

    # -- the paper's workloads -----------------------------------------------------

    @classmethod
    def paper_memory_study(cls, memory: int) -> "WorkloadSpec":
        """Table VI / Figures 3-4: 1,024 SSets, 1,000 generations, PC 0.01."""
        return cls(
            n_ssets=1024,
            games_per_sset=1023,
            memory=memory,
            rounds=200,
            generations=1000,
            pc_rate=0.01,
            mutation_rate=0.05,
        )

    @classmethod
    def paper_population_study(cls, n_ssets: int) -> "WorkloadSpec":
        """Table VII / Figure 5: SSet count swept 1,024..32,768, memory-one.

        Games grow with the square of the SSet count ("the agents belonging
        to each SSet must model the interaction with all strategies assigned
        to all other SSets").
        """
        return cls(
            n_ssets=n_ssets,
            games_per_sset=n_ssets - 1,
            memory=1,
            rounds=200,
            generations=1000,
            pc_rate=0.01,
            mutation_rate=0.05,
        )

    @classmethod
    def paper_weak_scaling(cls, n_ranks: int, ssets_per_rank: int = 4096) -> "WorkloadSpec":
        """Figure 6: 4,096 SSets per processor, constant work per rank.

        The paper's flat weak-scaling curve implies constant per-rank game
        work, so each SSet plays a fixed number of games per generation
        (one per agent, with a constant agent count per SSet) rather than
        one per opponent; see EXPERIMENTS.md for the discussion.
        """
        return cls(
            n_ssets=n_ranks * ssets_per_rank,
            games_per_sset=10,
            memory=6,
            rounds=200,
            generations=100,
            pc_rate=0.01,
            mutation_rate=0.05,
        )

    @classmethod
    def paper_strong_scaling_large(cls) -> "WorkloadSpec":
        """Figure 7: fixed large problem for 1,024..262,144 processors.

        The paper does not state Fig. 7's exact problem size; it attributes
        the 262,144-processor efficiency drop to "the low ratio of SSets to
        processors".  We use 262,144 SSets (exactly one SSet per rank at the
        full machine) with 10 games per SSet per generation, which puts the
        per-rank-work to per-generation-overhead ratio where the published
        curve sits: 99% efficiency through 16,384 ranks, 82% at 262,144.
        """
        return cls(
            n_ssets=262144,
            games_per_sset=10,
            memory=6,
            rounds=200,
            generations=100,
            pc_rate=0.01,
            mutation_rate=0.05,
        )
