"""Axelrod-style round-robin tournaments (paper §III-B).

The paper motivates its framework with Axelrod's tournaments: every entrant
plays every other (and itself), scores are tallied, and robust cooperators
rise.  This module is the first-class API behind
``examples/tournament_axelrod.py``: build a roster of strategies (named
classics, ZD variants, random, or custom), play the full round robin —
optionally repeated, optionally noisy — and get a ranked scoreboard.

All entrants must share one memory depth; mixed strategies and execution
errors are supported through the vectorised engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import render_table
from repro.errors import GameError
from repro.game.engine import DEFAULT_ROUNDS
from repro.game.noise import NO_NOISE, NoiseModel
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.strategy import Strategy
from repro.game.vector_engine import VectorEngine

__all__ = ["TournamentResult", "Tournament"]


@dataclass(frozen=True)
class TournamentResult:
    """Scoreboard of one tournament.

    Attributes
    ----------
    names:
        Entrant labels, in roster order.
    totals:
        Average total fitness per entrant (over repeats), roster order.
    pairwise:
        (n, n) matrix; entry [i, j] is entrant i's average fitness against
        entrant j (diagonal = self-play).
    repeats:
        Independent repetitions averaged over.
    """

    names: tuple[str, ...]
    totals: np.ndarray
    pairwise: np.ndarray
    repeats: int

    def ranking(self) -> list[tuple[str, float]]:
        """(name, average total fitness), best first; ties broken by name."""
        order = sorted(range(len(self.names)), key=lambda i: (-self.totals[i], self.names[i]))
        return [(self.names[i], float(self.totals[i])) for i in order]

    def score_of(self, name: str) -> float:
        """Average total fitness of one entrant."""
        try:
            return float(self.totals[self.names.index(name)])
        except ValueError:
            raise GameError(f"no entrant named {name!r}") from None

    def render(self, title: str | None = None) -> str:
        """Scoreboard as a text table."""
        rows = [(name, f"{score:.1f}") for name, score in self.ranking()]
        return render_table(["strategy", "avg total fitness"], rows, title=title)


class Tournament:
    """A round-robin tournament over a fixed roster.

    Parameters
    ----------
    entrants:
        ``(name, Strategy)`` pairs; names must be unique, strategies must
        share one memory depth.
    payoff, rounds, noise:
        Game parameters (paper defaults).
    include_self:
        Whether entrants also play themselves (Axelrod's tournaments did).
    """

    def __init__(
        self,
        entrants: list[tuple[str, Strategy]],
        payoff: PayoffMatrix = PAPER_PAYOFFS,
        rounds: int = DEFAULT_ROUNDS,
        noise: NoiseModel = NO_NOISE,
        include_self: bool = True,
    ) -> None:
        if len(entrants) < 2:
            raise GameError(f"need at least 2 entrants, got {len(entrants)}")
        names = [name for name, _ in entrants]
        if len(set(names)) != len(names):
            raise GameError(f"entrant names must be unique, got {names}")
        spaces = {strategy.space for _, strategy in entrants}
        if len(spaces) != 1:
            raise GameError("all entrants must share one memory depth")
        self.names = tuple(names)
        self.space = next(iter(spaces))
        tables = np.vstack([np.asarray(s.table, dtype=np.float64) for _, s in entrants])
        if np.all((tables == 0.0) | (tables == 1.0)):
            tables = tables.astype(np.uint8)  # all-pure roster plays deterministically
        self.tables = tables
        self.engine = VectorEngine(self.space, payoff=payoff, rounds=rounds, noise=noise)
        self.include_self = include_self

    @property
    def stochastic(self) -> bool:
        """Whether games need randomness (mixed entrants or noise)."""
        return self.tables.dtype != np.uint8 or not self.engine.noise.is_noiseless

    def play(self, repeats: int = 1, seed: int = 0) -> TournamentResult:
        """Run the round robin ``repeats`` times and average the scores."""
        if repeats < 1:
            raise GameError(f"repeats must be >= 1, got {repeats}")
        n = len(self.names)
        ia, ib = self.engine.round_robin_pairs(n, include_self=self.include_self)
        rng = np.random.default_rng(seed) if self.stochastic else None
        pairwise = np.zeros((n, n))
        for _ in range(repeats):
            res = self.engine.play(self.tables, ia, ib, rng=rng)
            np.add.at(pairwise, (ia, ib), res.fitness_a)
            np.add.at(pairwise, (ib, ia), res.fitness_b)
        pairwise /= repeats
        # Self-play accumulated both halves onto the diagonal; one agent's
        # score is the meaningful per-matchup quantity.
        if self.include_self:
            pairwise[np.diag_indices(n)] /= 2.0
        totals = pairwise.sum(axis=1)
        if not self.include_self:
            np.fill_diagonal(pairwise, np.nan)
        return TournamentResult(
            names=self.names, totals=totals, pairwise=pairwise, repeats=repeats
        )

    def __repr__(self) -> str:
        return (
            f"Tournament({len(self.names)} entrants, memory={self.space.memory},"
            f" rounds={self.engine.rounds}, noise={self.engine.noise.rate})"
        )
