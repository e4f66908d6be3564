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
stamp moved (the slot was reused for another strategy), then plays the NaN
columns of its row in a single engine call.  The array is allocated by the
first memoised query, so sampled runs hold none; its size is fixed at
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
        # Pure matrices run the packed kernel, mixed ones the dense path the
        # engine inherits; both are fitness-bit-identical (docs/kernels.md).
        self.engine = BatchEngine(
            config.space, payoff=config.payoff, rounds=config.rounds, noise=config.noise
        )
        # Pair memo: payoff of row slot vs column slot, NaN where unplayed,
        # and the stamp each slot was filled under (both allocated lazily).
        self._memo: np.ndarray | None = None
        self._filled: np.ndarray | None = None
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
            return np.array([self._memoised_fitness(int(s)) for s in ssets])
        return self.play_slates(ssets, generation)

    def all_fitness(self, generation: int) -> np.ndarray:
        """Fitness of every SSet (used by observers; costly in sampled mode)."""
        return self.fitness(range(self.population.n_ssets), generation)

    # -- memoised modes ----------------------------------------------------------

    def _memoised_fitness(self, sset: int) -> float:
        pop = self.population
        slot = pop.slot_of(sset)
        live = pop.live_slots()
        row = self._row_payoffs(slot, live)
        counts = pop.counts()[live].astype(np.float64)
        total = float(row @ counts)
        if not self.config.include_self_play:
            self_idx = int(np.searchsorted(live, slot))
            total -= float(row[self_idx])
        return total

    def _row_payoffs(self, slot: int, cols: np.ndarray) -> np.ndarray:
        """Payoff of ``slot``'s strategy against each column slot (memoised)."""
        stamps = self.population.slot_stamps()
        if self._memo is None:
            self._memo = np.full((stamps.size, stamps.size), np.nan)
            self._filled = stamps.copy()
        memo = self._memo
        moved = np.flatnonzero(self._filled != stamps)
        if moved.size:
            memo[moved] = np.nan
            memo[:, moved] = np.nan
            self._filled[moved] = stamps[moved]
        row = memo[slot, cols]
        unplayed = np.isnan(row)
        missing = cols[unplayed]
        self.pair_lookups += cols.size - missing.size
        if missing.size:
            fa, fb = self._compute_pairs(slot, missing)
            row[unplayed] = fa
            memo[slot, missing] = fa
            # The mirrored payoff fills the opponents' rows too, so a
            # self-pair's entry ends as its mirror; this answer keeps ``fa``.
            memo[missing, slot] = fb
            self.pairs_computed += missing.size
        return row

    def _compute_pairs(self, slot: int, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tables = self.population.tables_view()
        ia = np.full(cols.size, slot, dtype=np.intp)
        if self.mode == "expected":
            return expected_pair_payoffs(
                self.config.space,
                tables,
                ia,
                cols,
                payoff=self.config.payoff,
                rounds=self.config.rounds,
                noise=self.config.noise,
            )
        res = self.engine.play(tables, ia, cols)
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
