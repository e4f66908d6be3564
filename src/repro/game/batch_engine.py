"""Batched generation kernel: a whole round-robin per call.

The paper's observation is that a generation of evolutionary IPD is pure
table arithmetic: memory-*n* strategies are ``4**n`` lookup tables, so every
matchup advances by the same O(1) state recurrence and a generation is
nothing but gathers and index arithmetic.  :class:`BatchEngine` plays a pure
call with integer payoffs (the paper's ``[3, 0, 4, 1]`` are) as exact
integer move counts — defections, opponent defections, mutual defections —
and applies the payoff matrix once at the end, on one of three paths:

* **Path doubling**, a noise-free call of ``lanes * 4**n`` at most
  ``_DOUBLING_CELLS``: each lane's one-round successor and counter tables
  are squared ``log2(rounds)`` times, and the walk from state 0 takes one
  jump per set bit of ``rounds``.
* **The packed loop**, a wider noise-free call: strategy tables bit-packed
  with :mod:`repro.game.bitpack`, one game per uint64 lane (for memory <= 3
  the whole table fits in it, and a move read is a register shift), each
  lane stopped at its first repeated joint state and its counters multiplied.
* **The byte loop**, a noisy call: both seats of every game are one lane
  array that gathers one byte per seat per round out of the unpacked matrix
  and XORs in the round's flips; the moves are counted off the joint state
  once every ``memory`` rounds.

Identity contract, enforced by the parity suite
(``tests/game/test_engine_parity.py``): the kernel returns exactly the
payoffs of the scalar reference engine and of ``VectorEngine``, with and
without noise, for memory one through six, and leaves every generator in
the same state.  Mixed (float) strategy matrices and non-integer payoffs
take the inherited dense loop, which draws in the identical order.

See ``docs/kernels.md`` for the encodings, the exactness arguments, and the
``game.*`` rows of ``python3 -m bench probe game``, which time the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GameError
from repro.game.bitpack import words_needed
from repro.game.engine import DEFAULT_ROUNDS
from repro.game.noise import NO_NOISE, NoiseModel, _segment_flips
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.game.vector_engine import (
    _DOUBLING_CELLS,
    VectorEngine,
    as_table_matrix,
    rounds_per_block,
)

__all__ = [
    "BatchEngine",
    "pack_matrix",
    "make_engine",
]


def pack_matrix(space: StateSpace, tables: np.ndarray) -> np.ndarray:
    """Bit-pack a pure strategy matrix, one row per strategy.

    Row ``i`` of the result is exactly ``bitpack.pack_table(tables[i])``:
    table entry ``s`` lives in bit ``s % 64`` of word ``s // 64``
    (little-endian bit order), bits beyond ``n_states`` are zero.

    Returns a ``(n_strategies, words_needed(n_states))`` uint64 array.
    """
    mat = as_table_matrix(space, tables)
    if mat.dtype != np.uint8:
        raise GameError("only pure (0/1) strategy matrices can be bit-packed")
    nwords = words_needed(space.n_states)
    packed_bytes = np.packbits(mat, axis=1, bitorder="little")
    if packed_bytes.shape[1] != 8 * nwords:
        padded = np.zeros((mat.shape[0], 8 * nwords), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        packed_bytes = padded
    return np.ascontiguousarray(packed_bytes).view("<u8")


class BatchEngine(VectorEngine):
    """Plays batches of IPD games over one strategy matrix, packed or not.

    Drop-in replacement for :class:`~repro.game.vector_engine.VectorEngine`
    — same constructor, same :meth:`play`/:meth:`tournament` signatures and
    semantics, bit-identical fitness, identical RNG consumption (every
    engine draws its flips from :mod:`repro.game.noise`'s one schedule).

    Parameters
    ----------
    space, payoff, rounds, noise:
        As for :class:`~repro.game.vector_engine.VectorEngine`.

    Notes
    -----
    When every payoff-matrix entry is an integer, per-game fitness is
    accumulated as three integer move counters and resolved through the
    payoff matrix once at the end.  All partial sums are then exactly
    representable integers, so the result is *bit-identical* to the
    reference engines' round-by-round float accumulation while keeping
    floats out of the inner loops entirely.  Non-integer payoff matrices
    take the inherited dense loop, in the reference engines' exact order.
    """

    def __init__(
        self,
        space: StateSpace,
        payoff: PayoffMatrix = PAPER_PAYOFFS,
        rounds: int = DEFAULT_ROUNDS,
        noise: NoiseModel = NO_NOISE,
    ) -> None:
        super().__init__(space, payoff=payoff, rounds=rounds, noise=noise)
        pay = np.asarray(payoff.table, dtype=np.float64)
        # Integer payoffs allow exact count-based accumulation: every partial
        # sum stays an exactly-representable integer, so summation order
        # cannot change the result (the exactness argument in docs/kernels.md).
        self._int_payoffs = bool(
            np.all(np.isfinite(pay))
            and np.array_equal(pay, np.rint(pay))
            and float(np.max(np.abs(pay))) * self.rounds < 2**52
        )
        if self._int_payoffs:
            p00, p01 = int(pay[0, 0]), int(pay[0, 1])
            p10, p11 = int(pay[1, 0]), int(pay[1, 1])
            cross = p11 - p10 - p01 + p00
            # pay[a, b] == c0 + ca*a + cb*b + cab*a*b for a, b in {0, 1}: a seat's
            # payoff is c0 * rounds plus its row of _lin times (Σa, Σb, Σab).
            self._lin = np.array([[p10 - p00, p01 - p00, cross], [p01 - p00, p10 - p00, cross]])
            self._base = np.array([[p00 * self.rounds]] * 2)
        # Every pure loop reads both moves off A's view of the joint state (B's
        # through ``_mirror``, B's view of each state); path doubling and the
        # byte loop count them packed ``Σa | Σb << w | Σab << 2w`` in one int64,
        # with per-engine constants built once: each state shifted a round on,
        # the counters each joint move adds, and those of a state's `memory` moves.
        width = self.rounds.bit_length()
        self._counts_pack = self._int_payoffs and 3 * width < 64 and space.memory > 0
        states = np.arange(space.n_states)
        self._mirror = space.opponent_view_array(states)
        if self._counts_pack:
            self._fields = np.array([[0], [width], [2 * width]]), np.int64((1 << width) - 1)
            self._shifted = (states << 2) & space.mask
            self._adds = np.array([0, 1 << width, 1, 1 + (1 << width) + (1 << 2 * width)])
            self._counts = sum(self._adds[states >> 2 * k & 3] for k in range(space.memory))

    # Constant: the frozen bench/meta.py reads it into its machine record;
    # a later `benchmark` issue removes the attribute together with that read.
    kernel = "numpy"

    # -- kernel -------------------------------------------------------------

    def _kernel(self, mat: np.ndarray):
        """Pure integer-payoff calls: the packed loop without noise, the byte loop with.

        The rest take the inherited dense loop: a mixed strategy's per-state
        probability is not a bit, non-integer payoffs are summed round by
        round, and a noisy call whose counters do not pack (memory 0, or
        ``2**21`` rounds and more) has no count table.  Results and draws
        are identical on every path.
        """
        if mat.dtype == np.uint8 and self._int_payoffs and not self.noise.rate:
            return "batch_engine.play", self._run_packed
        if mat.dtype == np.uint8 and self._counts_pack:
            return "batch_engine.play", self._run_bytes
        return super()._kernel(mat)

    def _run_packed(self, mat, ia, ib, bounds, rngs, record_cooperation):
        """Noise-free bit-packed round loop: each lane stops at its first repeated state.

        A narrow call is walked by path doubling instead, when its three
        counters pack into one int64.
        """
        if self._counts_pack and ia.size * self.space.n_states <= _DOUBLING_CELLS:
            return self._counted_packed(self._walk_doubled(mat, ia, ib))
        # B's rows with their columns mirrored: B's move is read at A's view of the state.
        packed = pack_matrix(self.space, np.concatenate((mat, mat[:, self._mirror])))
        n_games, n_strategies, n_words = ia.size, mat.shape[0], packed.shape[1]
        # 0-d arrays, made once: a NumPy scalar operand is converted on every call.
        one, two, six, low6, mask = (
            np.array(v, dtype=np.uint64) for v in (1, 2, 6, 63, self.space.mask)
        )

        state_a = np.zeros(n_games, dtype=np.uint64)
        move_a = np.empty(n_games, dtype=np.uint64)
        move_b = np.empty(n_games, dtype=np.uint64)
        # Defections of A, of B and mutual ones: row views of one array.
        counts = np.zeros((3, n_games), dtype=np.uint64)
        da, db, dab = counts
        live = np.ones(n_games, dtype=np.uint64)  # a move's low-bit mask; 0 freezes the lane
        # A lane walks deterministically over joint states (A's view) into a
        # cycle: find it Brent-style, snapshots at rounds 1, 2, 4, ..., and
        # multiply what remains (docs/kernels.md, "Closing the cycle").
        seen_state, seen_counts, seen_at = state_a.copy(), counts.copy(), 0
        closed = np.uint64(2**64 - 1)  # a closed lane's seen_state; no joint state equals it
        spans_left = np.zeros(n_games, dtype=np.uint64)  # spans credited at closure
        stops: dict[int, list[np.ndarray]] = {}  # round -> lanes whose counts end there
        n_open = n_games

        single = n_words == 1
        if single:
            # The whole table fits in the matchup's one uint64 lane: gather
            # it once, and every later move read is a register shift.
            lane_a = packed[ia, 0]
            lane_b = packed[ib + n_strategies, 0]
        else:
            flat = packed.ravel()
            base_a = (ia * n_words).astype(np.intp)
            base_b = ((ib + n_strategies) * n_words).astype(np.intp)

        for r in range(self.rounds):
            if single:
                np.right_shift(lane_a, state_a, out=move_a)
                np.right_shift(lane_b, state_a, out=move_b)
            else:
                word = (state_a >> six).astype(np.intp)
                bit = state_a & low6
                np.right_shift(flat[base_a + word], bit, out=move_a)
                np.right_shift(flat[base_b + word], bit, out=move_b)
            move_a &= live
            move_b &= live
            da += move_a
            db += move_b
            dab += move_a & move_b

            # state' = ((state << 2) | (my << 1) | opp) & mask, A's view.
            np.left_shift(state_a, two, out=state_a)
            state_a |= move_a << one
            state_a |= move_b
            state_a &= mask

            played = r + 1
            whole, rest = divmod(self.rounds - played, played - seen_at)
            if whole and np.count_nonzero(back := state_a == seen_state):
                # These lanes are where they were at `seen_at`, so each later
                # span of that length adds what this one did: keep that in
                # seen_counts, credit `whole` spans, play `rest` rounds, freeze.
                lanes = np.flatnonzero(back)
                np.subtract(counts, seen_counts, out=seen_counts, where=back)
                spans_left[lanes] = whole
                seen_state[lanes] = closed
                stops.setdefault(played + rest, []).append(lanes)
            for lanes in stops.pop(played, ()):
                live[lanes] = 0
                n_open -= lanes.size
            if not n_open:
                break
            if played & (played - 1) == 0:
                still = seen_state != closed
                np.copyto(seen_state, state_a, where=still)
                np.copyto(seen_counts, counts, where=still)
                seen_at = played

        counts += spans_left * seen_counts
        return self._counted(counts.astype(np.int64))

    def _run_bytes(self, mat, ia, ib, bounds, rngs, record_cooperation):
        """Noisy round loop: one byte gathered per seat per round, both seats at once.

        Seat A's ``n`` lanes and seat B's are one ``(2, n)`` array reading
        one table at A's view of the joint state: B's rows have their
        columns mirrored, and A's moves (and A's flips) are stored doubled,
        so the two halves OR into the joint move ``(my << 1) | opp``.  Every
        ``memory`` rounds the state holds every move since the last count,
        and one lookup adds them (docs/kernels.md, "Noisy play").
        """
        n_games, n_strategies, memory = ia.size, mat.shape[0], self.space.memory
        table = np.empty((2 * n_strategies, self.space.n_states), dtype=np.uint8)
        np.left_shift(mat, 1, out=table[:n_strategies])
        np.take(mat, self._mirror, axis=1, out=table[n_strategies:])
        base = np.stack((ia, ib + n_strategies)) * self.space.n_states
        index = np.empty_like(base)
        moves = np.empty(base.shape, dtype=np.uint8)
        state = np.zeros(n_games, dtype=np.intp)
        total = np.zeros(n_games, dtype=np.int64)
        mask = np.array(self.space.mask, dtype=np.intp)  # converted once, not every round
        block = rounds_per_block(2 * n_games)
        blocks = _segment_flips(rngs, bounds, self.rounds, self.noise.rate, block)
        for r in range(self.rounds):
            if r % block == 0:
                flips = next(blocks)
                flips[:, 0] <<= 1
            np.add(base, state, out=index)
            # In range by construction; mode="raise" would buffer `out`.
            table.take(index, out=moves, mode="wrap")
            moves ^= flips[r % block]
            moves[0] |= moves[1]  # the joint move (my << 1) | opp
            state <<= 2
            state &= mask
            state |= moves[0]
            if (r + 1) % memory == 0:
                total += self._counts.take(state)
        if rest := self.rounds % memory:
            total += self._counts.take(state & ((1 << 2 * rest) - 1))
        return self._counted_packed(total)

    def _walk_doubled(self, mat, ia, ib):
        """Each lane's packed ``Σa, Σb, Σab`` over ``rounds`` noise-free rounds: path doubling.

        Lane ``l``'s cell ``l * 4**n + s`` stands for joint state ``s`` (A's
        view): ``nxt`` is the cell one round on, ``cnt`` the counters that
        round adds, packed ``Σa | Σb << w | Σab << 2w`` with ``w`` wide enough
        for ``rounds``.  Squaring both tables doubles the span they cover, and
        the walk from state 0 takes one span per set bit of ``rounds``
        (docs/kernels.md, "Path doubling").
        """
        n_states = self.space.n_states
        # The round's joint move (my << 1) | opp, B's read from B's seat.
        joint = (mat[ia] << 1) | mat[ib][:, self._mirror]
        lane0 = np.arange(0, ia.size * n_states, n_states)
        nxt = (lane0[:, None] + self._shifted + joint).ravel()
        cnt = self._adds[joint].ravel()
        total, pos, steps = np.zeros(ia.size, dtype=np.int64), lane0, self.rounds
        while True:
            if steps & 1:
                total += cnt.take(pos)
                pos = nxt.take(pos)
            steps >>= 1
            if not steps:
                break
            cnt = cnt + cnt.take(nxt)
            nxt = nxt.take(nxt)
        return total

    def _counted_packed(self, total):
        """:meth:`_counted` of counters packed ``Σa | Σb << w | Σab << 2w``."""
        shifts, field = self._fields
        return self._counted((total >> shifts) & field)

    def _counted(self, counts):
        """Both seats' payoffs and cooperations from the ``(3, games)`` int64 ``Σa, Σb, Σab``.

        Integer arithmetic throughout, then one conversion: exact.
        """
        fit = (self._lin @ counts + self._base).astype(np.float64)
        coop = self.rounds - counts[:2]
        return fit[0], fit[1], coop[0], coop[1]

    def __repr__(self) -> str:
        return (
            f"BatchEngine(memory={self.space.memory}, rounds={self.rounds},"
            f" noise={self.noise.rate}, games_played={self.games_played})"
        )


# Kept for the frozen bench/probes.py and the parity suite, which build the
# dense baseline through it; a later `benchmark` issue removes it with them.
def make_engine(
    space: StateSpace,
    payoff: PayoffMatrix = PAPER_PAYOFFS,
    rounds: int = DEFAULT_ROUNDS,
    noise: NoiseModel = NO_NOISE,
    kind: str = "vector",
) -> VectorEngine:
    """Build a tournament engine of the requested ``kind``.

    ``kind="vector"`` returns the dense
    :class:`~repro.game.vector_engine.VectorEngine`; ``kind="batch"`` the
    bit-packed :class:`BatchEngine`.  Both satisfy the same
    play/tournament contract.
    """
    if kind == "vector":
        return VectorEngine(space, payoff=payoff, rounds=rounds, noise=noise)
    if kind == "batch":
        return BatchEngine(space, payoff=payoff, rounds=rounds, noise=noise)
    raise GameError(f"engine kind must be 'vector' or 'batch', got {kind!r}")
