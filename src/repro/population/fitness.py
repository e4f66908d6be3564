"""SSet fitness evaluation (paper §IV-A, §IV-D).

An SSet's *relative fitness* is the total payoff its agents collect against
all opponent strategies in the population.  This module evaluates it in the
three modes resolved by
:attr:`repro.config.SimulationConfig.resolved_fitness_mode`:

``deterministic``
    Pure, noiseless play: the outcome of a matchup is a function of the two
    strategy tables, so per-*unique*-pair payoffs are memoised against the
    population's deduplicated slots and an SSet's fitness is a weighted sum
    over unique opponents.  This is what makes 10^7-generation runs cheap.

``expected``
    Exact Markov-chain expectation (:mod:`repro.game.markov`) — also a pure
    function of the pair, memoised the same way.  Available for mixed and
    noisy play.

``sampled``
    Faithful to the paper: fitness is the payoff of games actually played,
    on streams keyed by ``(generation, sset)`` so serial and parallel runs
    sample identical games.

The memo is the only pair cache a run has — the serial driver, every rank
of the star and the service build one evaluator each.  It is one
``(capacity, capacity)`` float64 array over the population's slots, NaN
where a pair is unplayed, beside the stamp each slot's row and column were
filled under: a query first wipes the row and column of every slot whose
stamp moved (the slot was reused for another strategy), then plays, each
pair once, the whole row of every slot interned since the last query and
the NaN columns of the rows it asks for, at most two rows' lanes per engine
call — so a pairwise comparison, a new strategy's row included, is one call
unless more than two of those rows are cold — and writes and sums row by
row, new rows first, then in the order asked.
A new strategy costs its whole row once, and no later query misses its
column.  The array is allocated by the first memoised query, so sampled
runs hold none; its size is fixed at
``(n_ssets + 1)**2`` float64s — 200 MB at 5 000 SSets — however many
pairs a run plays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.game.batch_engine import BatchEngine
from repro.game.markov import expected_pair_payoffs
from repro.population.population import Population
from repro.population.schedule import opponent_rows
from repro.rng import StreamFactory

__all__ = ["FitnessEvaluator"]


class FitnessEvaluator:
    """Evaluates per-SSet relative fitness for one population.

    Parameters
    ----------
    config:
        The simulation configuration (payoffs, rounds, noise, mode).
    population:
        The population whose fitness is queried; the evaluator tracks its
        slot stamps so memoised pair payoffs invalidate precisely when a
        slot is reused for a new strategy.
    streams:
        Stream factory for sampled play.  Only needed in sampled mode.
    """

    def __init__(
        self,
        config: SimulationConfig,
        population: Population,
        streams: StreamFactory | None = None,
    ) -> None:
        if population.config is not config:
            # Allow equal-but-distinct configs (e.g. reconstructed); require equality.
            if population.config != config:
                raise PopulationError("population was built for a different configuration")
        self.config = config
        self.population = population
        self.streams = streams
        self.mode = config.resolved_fitness_mode
        if self.mode == "sampled" and streams is None:
            raise PopulationError("sampled fitness mode needs a StreamFactory")
        # Pure matrices run the engine's own loops, mixed ones the dense path
        # it inherits; all are fitness-bit-identical (docs/kernels.md).
        self.engine = BatchEngine(
            config.space, payoff=config.payoff, rounds=config.rounds, noise=config.noise
        )
        # Pair memo: payoff of row slot vs column slot, NaN where unplayed,
        # and the stamp each slot was filled under (both allocated lazily).
        self._memo: np.ndarray | None = None
        self._filled: np.ndarray | None = None
        # Read-only views that follow the population: no copy per query.
        self._stamps = population.slot_stamps()
        self._counts = population.counts()
        self.pairs_computed = 0
        self.pair_lookups = 0

    # -- public API -------------------------------------------------------------

    def fitness(self, ssets: Sequence[int], generation: int) -> np.ndarray:
        """Relative fitness of each requested SSet at ``generation``.

        In memoised modes the generation is irrelevant (fitness is a pure
        function of the current population); in sampled mode it keys the
        random streams, so asking twice for the same generation of the same
        population returns the same sample: :meth:`play_slates` plays it.
        """
        if self.mode != "sampled":
            return self._memoised_fitness(ssets)
        return self.play_slates(ssets, generation)

    def all_fitness(self, generation: int) -> np.ndarray:
        """Fitness of every SSet (used by observers; costly in sampled mode)."""
        return self.fitness(range(self.population.n_ssets), generation)

    # -- memoised modes ----------------------------------------------------------

    def _memoised_fitness(self, ssets: Sequence[int]) -> np.ndarray:
        """Each SSet's weighted row sum, the new rows and its unplayed pairs filled together.

        Rows are scheduled in order — first every slot interned since the
        last query, whole, then the asked rows: a row's NaN columns are
        marked played (0.0) in both its row and their own, so a later row
        skips a pair an earlier one plays, and a repeated slot skips its
        whole row.  Up to two rows' lanes (``2 * capacity``) are played in
        one engine call, so a pairwise comparison and one new strategy's
        row are one call unless more than two of those rows are cold.
        """
        pop, stamps = self.population, self._stamps
        slots = [pop.slot_of(int(s)) for s in ssets]  # an unknown SSet raises before any write
        if self._memo is None:
            self._memo = np.full((stamps.size, stamps.size), np.nan)
            self._filled = stamps.copy()
        memo, fresh = self._memo, ()
        moved = np.flatnonzero(self._filled != stamps)
        if moved.size:
            memo[moved] = np.nan
            memo[:, moved] = np.nan
            self._filled[moved] = stamps[moved]
            fresh = moved[stamps[moved] != 0]  # reused, not just freed: a new strategy's row
        live = np.flatnonzero(self._counts)
        counts = self._counts[live].astype(np.float64)
        schedule = [(int(f), False) for f in fresh] + [(s, True) for s in slots]
        answers, rows, lanes = [], [], 0
        try:
            for slot, asked in schedule:
                missing = live[np.isnan(memo[slot, live])]
                if asked:
                    self.pair_lookups += live.size - missing.size
                if lanes + missing.size > 2 * stamps.size:
                    answers += self._fill_rows(rows, lanes, live, counts)
                    rows, lanes = [], 0
                if missing.size:
                    memo[slot, missing] = memo[missing, slot] = 0.0
                rows.append((slot, missing, asked))
                lanes += missing.size
            if rows:
                answers += self._fill_rows(rows, lanes, live, counts)
        except BaseException:
            self._memo = None  # scheduled pairs may still read 0.0: start afresh
            raise
        return np.array(answers)

    def _fill_rows(self, rows: list, lanes: int, live: np.ndarray, counts: np.ndarray) -> list:
        """Play the rows' ``lanes`` scheduled pairs in one call; write row by row, sum the asked."""
        if lanes:
            ia = np.repeat([slot for slot, _, _ in rows], [m.size for _, m, _ in rows])
            fa, fb = self._compute_pairs(ia, np.concatenate([m for _, m, _ in rows]))
            self.pairs_computed += lanes
        memo, answers, lo = self._memo, [], 0
        for slot, missing, asked in rows:
            hi = lo + missing.size
            if hi > lo:
                memo[slot, missing] = fa[lo:hi]
            if asked:
                total = float(memo[slot, live] @ counts)
                if not self.config.include_self_play:
                    total -= float(memo[slot, slot])
                answers.append(total)
            # The mirrored payoff fills the opponents' rows after the answer is
            # read, so a self-pair's entry ends as its mirror; the answer keeps ``fa``.
            if hi > lo:
                memo[missing, slot] = fb[lo:hi]
            lo = hi
        return answers

    def _compute_pairs(self, ia: np.ndarray, ib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tables = self.population.tables_view()
        if self.mode == "expected":
            cfg = self.config
            return expected_pair_payoffs(
                cfg.space, tables, ia, ib, payoff=cfg.payoff, rounds=cfg.rounds, noise=cfg.noise
            )
        res = self.engine.play(tables, ia, ib)
        return res.fitness_a, res.fitness_b

    # -- live play -------------------------------------------------------------------

    def play_slates(self, ssets: Sequence[int], generation: int) -> np.ndarray:
        """Play each listed SSet's full opponent slate, all in one kernel call.

        Slate ``s`` draws from ``streams.fresh("fitness", generation, s)``
        and from nothing else, so its games are the ones a call for ``s``
        alone would play and the batch size changes no number.  Returns each
        SSet's summed fitness, in the order asked.
        """
        pop = self.population
        ssets = [int(s) for s in ssets]
        opponents = opponent_rows(pop.n_ssets, ssets, self.config.include_self_play)
        n_slates, per_slate = opponents.shape
        assign = pop.assignment()
        rngs = None
        if not self.config.deterministic_games:
            rngs = [self.streams.fresh("fitness", generation, s) for s in ssets]
        res = self.engine.play_segments(
            pop.tables_view(), np.repeat(assign[ssets], per_slate), assign[opponents].ravel(),
            [per_slate] * n_slates, rngs,
        )
        # Summed slate by slate: the 1-D pairwise sum a lone call would take.
        slates = res.fitness_a.reshape(n_slates, per_slate)
        return np.array([float(slate.sum()) for slate in slates])

    def __repr__(self) -> str:
        return (
            f"FitnessEvaluator(mode={self.mode},"
            f" pairs_computed={self.pairs_computed}, lookups={self.pair_lookups})"
        )
