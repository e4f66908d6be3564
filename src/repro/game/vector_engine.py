"""Vectorised tournament engine: many IPD games advanced in lock-step.

The paper's inner loop — every agent of every SSet playing a 200-round IPD
against its assigned opponent strategies — is embarrassingly parallel across
games.  On Blue Gene that parallelism maps to nodes; in NumPy it maps to
array lanes: this engine advances *all* games of a batch one round at a
time, so each of the 200 rounds costs a handful of fused array operations
instead of a Python-level loop per game.

Given a strategy *matrix* (one row per strategy) and two index vectors
``ia``, ``ib`` naming the players of each game, :meth:`VectorEngine.play`
returns both players' total fitness per game.  Results are identical to the
scalar reference engine (:mod:`repro.game.engine`); the tests assert
equality game-by-game for pure strategies and statistically for mixed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.errors import GameError
from repro.game.engine import DEFAULT_ROUNDS
from repro.game.noise import _DRAW_DOUBLES, NO_NOISE, NoiseModel, _segment_flips
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.obs.tracer import get_tracer

__all__ = ["VectorEngine", "BatchResult", "as_table_matrix"]


@dataclass(frozen=True)
class BatchResult:
    """Per-game outcomes of one vectorised batch.

    Attributes
    ----------
    fitness_a, fitness_b:
        Total payoffs, one entry per game.
    rounds:
        Rounds played (same for every game in a batch).
    cooperations_a, cooperations_b:
        Per-game count of cooperative moves, when recording was requested;
        otherwise empty arrays.
    """

    fitness_a: np.ndarray
    fitness_b: np.ndarray
    rounds: int
    cooperations_a: np.ndarray
    cooperations_b: np.ndarray

    @property
    def n_games(self) -> int:
        """Number of games in the batch."""
        return int(self.fitness_a.size)

    def cooperation_rate(self) -> float:
        """Overall fraction of cooperative moves across the whole batch."""
        if self.cooperations_a.size == 0:
            raise GameError("cooperation was not recorded; pass record_cooperation=True")
        total_moves = 2 * self.n_games * self.rounds
        return float((self.cooperations_a.sum() + self.cooperations_b.sum()) / total_moves)


def as_table_matrix(space: StateSpace, tables: np.ndarray) -> np.ndarray:
    """Validate a strategy matrix: shape (n_strategies, n_states), 2-D.

    Integer 0/1 matrices describe pure strategies, float matrices in [0, 1]
    describe mixed ones (probability of defecting, as everywhere in this
    package).
    """
    arr = np.asarray(tables)
    if arr.ndim != 2 or arr.shape[1] != space.n_states:
        raise GameError(
            f"strategy matrix must be (n_strategies, {space.n_states}), got {arr.shape}"
        )
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        out = arr.astype(np.uint8, copy=False)
        if out.size and (out.max() > 1):
            raise GameError("pure strategy matrix entries must be 0 or 1")
        return out
    if np.issubdtype(arr.dtype, np.floating):
        if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0 or arr.max() > 1):
            raise GameError("mixed strategy matrix entries must lie in [0, 1]")
        return arr.astype(np.float64, copy=False)
    raise GameError(f"unsupported strategy matrix dtype {arr.dtype}")


#: A round loop draws its randomness ahead, a block of rounds at a time: at
#: most ``_BLOCK_BYTES`` of pre-drawn values (float uniforms for mixed moves,
#: a byte flip mask for execution errors) filled ``_DRAW_DOUBLES`` fresh
#: doubles at a time — so the scratch stays flat however many lanes a call
#: advances, and the doubles stay small enough for the allocator to reuse.
_BLOCK_BYTES = 1 << 20

#: A noise-free integer-payoff call of ``lanes`` pure games is played by path
#: doubling over ``lanes * 4**n`` joint-state cells when that is at most
#: ``_DOUBLING_CELLS``, and by the packed round loop when wider: the measured
#: crossover (``docs/kernels.md``, "Path doubling").
_DOUBLING_CELLS = 1 << 15


def rounds_per_block(round_bytes: int) -> int:
    """Rounds drawn ahead at once, when one round's values take ``round_bytes``."""
    return max(1, _BLOCK_BYTES // max(1, round_bytes))


def segment_uniforms(
    rngs: Sequence[np.random.Generator], bounds: Sequence[int], n_rounds: int
) -> np.ndarray:
    """Every game's next ``n_rounds`` pairs of mixed-move uniforms, a stream per segment.

    Segment ``s`` holds games ``bounds[s]:bounds[s + 1]`` and draws from
    ``rngs[s]`` alone.  ``out[r, seat, lo:hi]`` is exactly what the
    ``seat``-th of two successive ``rng.random(hi - lo)`` calls in round ``r``
    would have returned: ``rng.random((rounds, 2, k))`` fills in that order,
    so drawing rounds ahead moves no game's randomness.
    """
    out = np.empty((n_rounds, 2, bounds[-1]))
    for rng, lo, hi in zip(rngs, bounds[:-1], bounds[1:]):
        if hi > lo:
            step = max(1, _DRAW_DOUBLES // (2 * (hi - lo)))
            for r in range(0, n_rounds, step):
                out[r : r + step, :, lo:hi] = rng.random((min(step, n_rounds - r), 2, hi - lo))
    return out


class VectorEngine:
    """Plays batches of IPD games over a shared strategy matrix.

    Parameters
    ----------
    space:
        Memory-*n* state space shared by all strategies.
    payoff:
        Payoff matrix (defaults to the paper's values).
    rounds:
        Rounds per game (the paper's 200).
    noise:
        Execution-error model applied to every move of every game.
    """

    def __init__(
        self,
        space: StateSpace,
        payoff: PayoffMatrix = PAPER_PAYOFFS,
        rounds: int = DEFAULT_ROUNDS,
        noise: NoiseModel = NO_NOISE,
    ) -> None:
        if rounds <= 0:
            raise GameError(f"rounds must be positive, got {rounds}")
        self.space = space
        self.payoff = payoff
        self.rounds = int(rounds)
        self.noise = noise
        # Flattened payoff lookup: index (my_move * 2 + opp_move).
        self._pay_mine = payoff.table.reshape(-1).copy()
        self._pay_theirs = payoff.table.T.reshape(-1).copy()
        # Running tally of work done, for perf-model calibration.
        self.games_played = 0
        self.rounds_played = 0

    # -- main entry ---------------------------------------------------------

    def play(
        self,
        tables: np.ndarray,
        ia: np.ndarray,
        ib: np.ndarray,
        rng: np.random.Generator | None = None,
        record_cooperation: bool = False,
    ) -> BatchResult:
        """Play ``len(ia)`` games; game ``g`` is ``tables[ia[g]]`` vs ``tables[ib[g]]``.

        ``rng`` is required when the matrix is mixed (float) or noise is
        active.  It draws every game's execution errors first (as gaps between
        flips), then, if mixed, per round one uniform block for A's moves and
        one for B's — a fixed order, so a given generator state always
        reproduces the same batch.  This is :meth:`play_segments` with one segment.
        """
        ia = np.asarray(ia, dtype=np.intp)
        return self.play_segments(tables, ia, ib, (ia.size,), (rng,), record_cooperation)

    def play_segments(
        self,
        tables: np.ndarray,
        ia: np.ndarray,
        ib: np.ndarray,
        sizes: Sequence[int],
        rngs: Sequence[np.random.Generator | None] | None = None,
        record_cooperation: bool = False,
    ) -> BatchResult:
        """Play several batches as one: segment ``s`` is the next ``sizes[s]`` games.

        All games advance together, but segment ``s`` takes its randomness
        from ``rngs[s]`` alone, in the order :meth:`play` would draw it — so
        every game sees the flips, and every generator ends in the state, of
        one ``play(..., rng=rngs[s])`` per segment, at one call's overhead.
        The result lists the games in the order given.
        """
        mat = as_table_matrix(self.space, tables)
        ia = np.asarray(ia, dtype=np.intp)
        ib = np.asarray(ib, dtype=np.intp)
        if ia.shape != ib.shape or ia.ndim != 1:
            raise GameError(f"ia/ib must be equal-length 1-D arrays, got {ia.shape}, {ib.shape}")
        n_games = ia.size
        # Viewed unsigned, a negative index is larger than any row count.
        if n_games and max(ia.view(np.uintp).max(), ib.view(np.uintp).max()) >= mat.shape[0]:
            raise GameError("pair indices out of range of the strategy matrix")
        bounds = [0, *accumulate(int(size) for size in sizes)]
        if bounds[-1] != n_games or sorted(bounds) != bounds:
            raise GameError(f"segment sizes {list(sizes)} do not partition {n_games} games")
        stochastic = mat.dtype != np.uint8 or not self.noise.is_noiseless
        if stochastic and (
            rngs is None or len(rngs) != len(bounds) - 1 or any(rng is None for rng in rngs)
        ):
            raise GameError("mixed strategies or noise require an rng (one per segment)")
        if n_games == 0:
            empty = np.empty(0, dtype=np.float64)
            zero = np.empty(0, dtype=np.int64)
            return BatchResult(empty, empty.copy(), self.rounds, zero, zero.copy())
        tracer = get_tracer()
        trace_t0 = tracer.now() if tracer.enabled else 0.0

        span, run = self._kernel(mat)
        fit_a, fit_b, coop_a, coop_b = run(mat, ia, ib, bounds, rngs, record_cooperation)

        self.games_played += n_games
        self.rounds_played += n_games * self.rounds
        if tracer.enabled:
            tracer.complete(
                span, cat="game", ts=trace_t0,
                dur=tracer.now() - trace_t0,
                args={"games": int(n_games), "rounds": self.rounds},
            )
        empty = np.empty(0, dtype=np.int64)
        return BatchResult(
            fitness_a=fit_a,
            fitness_b=fit_b,
            rounds=self.rounds,
            cooperations_a=coop_a if record_cooperation else empty,
            cooperations_b=coop_b if record_cooperation else empty,
        )

    def _kernel(self, mat: np.ndarray):
        """The round loop that plays ``mat`` and the span name it reports under."""
        return "vector_engine.play", self._run_dense

    def _run_dense(self, mat, ia, ib, bounds, rngs, record_cooperation):
        """Dense round loop: one byte (or probability) gathered per player per round."""
        n_games = ia.size
        # Per-game tables gathered once: rows_a[g] is player A's full table.
        rows_a = mat[ia]
        rows_b = mat[ib]

        state_a = np.zeros(n_games, dtype=np.int64)
        state_b = np.zeros(n_games, dtype=np.int64)
        fit_a = np.zeros(n_games, dtype=np.float64)
        fit_b = np.zeros(n_games, dtype=np.float64)
        coop_a = np.zeros(n_games, dtype=np.int64) if record_cooperation else None
        coop_b = np.zeros(n_games, dtype=np.int64) if record_cooperation else None

        gidx = np.arange(n_games)
        pure = mat.dtype == np.uint8
        noisy = not self.noise.is_noiseless
        # A round's pre-drawn bytes per game: two flip bytes, and two doubles if mixed.
        block = rounds_per_block((2 + 16 * (not pure)) * n_games)
        if noisy:
            flips = _segment_flips(rngs, bounds, self.rounds, self.noise.rate, block)
            if not pure:  # a segment draws all its flips before any move uniform
                flips = iter(list(flips))
        for r in range(self.rounds):
            if r % block == 0:
                if not pure:
                    u = segment_uniforms(rngs, bounds, min(block, self.rounds - r))
                if noisy:
                    flip = next(flips)
            cell_a = rows_a[gidx, state_a]
            cell_b = rows_b[gidx, state_b]
            if pure:
                move_a = cell_a.astype(np.int64)
                move_b = cell_b.astype(np.int64)
            else:
                move_a = (u[r % block, 0] < cell_a).astype(np.int64)
                move_b = (u[r % block, 1] < cell_b).astype(np.int64)
            if noisy:
                move_a ^= flip[r % block, 0]
                move_b ^= flip[r % block, 1]

            joint = (move_a << 1) | move_b
            fit_a += self._pay_mine[joint]
            fit_b += self._pay_theirs[joint]
            if record_cooperation:
                coop_a += 1 - move_a  # type: ignore[operator]
                coop_b += 1 - move_b  # type: ignore[operator]

            # Advance both perspectives in place.
            self.space.push_array(state_a, move_a, move_b, out=state_a)
            self.space.push_array(state_b, move_b, move_a, out=state_b)
        return fit_a, fit_b, coop_a, coop_b

    # -- conveniences ---------------------------------------------------------

    def round_robin_pairs(self, n_strategies: int, include_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Index vectors for every unordered pair ``i < j`` (optionally plus ``i == i``).

        The paper's schedule plays every SSet against "all other strategies"
        — each unordered matchup once, both fitnesses taken from the same
        game.  With ``include_self=True`` the diagonal is added too.
        """
        if n_strategies < 0:
            raise GameError(f"n_strategies must be non-negative, got {n_strategies}")
        iu, ju = np.triu_indices(n_strategies, k=0 if include_self else 1)
        return iu.astype(np.intp), ju.astype(np.intp)

    def tournament(
        self,
        tables: np.ndarray,
        include_self: bool = False,
        rng: np.random.Generator | None = None,
        record_cooperation: bool = False,
    ) -> np.ndarray:
        """Full round-robin: return the per-strategy total fitness vector.

        Every unordered pair plays once; both players' payoffs from that
        single game are credited.  This matches the paper's accounting where
        the matchup (i, j) contributes to both SSet i's and SSet j's
        relative fitness.  A self-matchup (``include_self=True``) has one
        strategy on both sides of the board, so it is credited the *average*
        of the two seats' payoffs — one agent's score, the same accounting
        as :meth:`repro.game.tournament.Tournament.play`'s halved diagonal
        (for deterministic play the two seats tie and the average is exact).
        """
        mat = as_table_matrix(self.space, tables)
        n = mat.shape[0]
        ia, ib = self.round_robin_pairs(n, include_self=include_self)
        tracer = get_tracer()
        trace_t0 = tracer.now() if tracer.enabled else 0.0
        res = self.play(mat, ia, ib, rng=rng, record_cooperation=record_cooperation)
        fitness = np.zeros(n, dtype=np.float64)
        np.add.at(fitness, ia, res.fitness_a)
        np.add.at(fitness, ib, res.fitness_b)
        if include_self:
            self_games = ia == ib
            if np.any(self_games):
                np.add.at(
                    fitness,
                    ia[self_games],
                    -(res.fitness_a[self_games] + res.fitness_b[self_games]) / 2.0,
                )
        if tracer.enabled:
            tracer.complete(
                "vector_engine.tournament", cat="game", ts=trace_t0,
                dur=tracer.now() - trace_t0,
                args={"strategies": int(n), "games": int(ia.size)},
            )
        return fitness

    def __repr__(self) -> str:
        return (
            f"VectorEngine(memory={self.space.memory}, rounds={self.rounds},"
            f" noise={self.noise.rate}, games_played={self.games_played})"
        )
