"""Batched bit-packed generation kernel: a whole round-robin per call.

The paper's observation is that a generation of evolutionary IPD is pure
table arithmetic: memory-*n* strategies are ``4**n`` lookup tables, so every
matchup advances by the same O(1) state recurrence and a generation is
nothing but gathers and index arithmetic.  :class:`BatchEngine` exploits
that all the way down: strategy tables are bit-packed with
:mod:`repro.game.bitpack` (one *move* per bit, 64 per machine word), each
matchup occupies a uint64 *lane*, and all games of a batch advance together
one round per fused array operation.

Compared to :class:`~repro.game.vector_engine.VectorEngine` (which gathers
one **byte** per player per round out of a densely materialised
``(n_games, 4**n)`` row matrix), the batch kernel

* keeps the whole strategy matrix packed — 8x less memory traffic, and for
  memory <= 3 an entire table fits in the game's single lane word, so the
  per-round move read is a register shift with **no gather at all**;
* accumulates integer-payoff fitness as exact integer move counts
  (defections, opponent defections, mutual defections) and applies the
  payoff matrix once at the end — the inner loop never touches a float.

Identity contract, enforced by the parity suite
(``tests/game/test_engine_parity.py``): the kernel returns exactly the
payoffs of the scalar reference engine and of ``VectorEngine``, with and
without noise, for memory one through six.

Mixed (float) strategy matrices have a per-state *probability*, not a bit,
so they cannot be packed; :meth:`BatchEngine.play` plays them through the
inherited dense vector path, drawing randomness in the identical order.

A noise-free pure game with integer payoffs is a fixed walk over the
``4**n`` joint states.  A narrow call (``lanes * 4**n`` at most
``_DOUBLING_CELLS``) is summed by path doubling: each lane's one-round
successor and counter tables are squared ``log2(rounds)`` times, and the
walk from state 0 takes one jump per set bit of ``rounds``.  A wider call
runs the round loop, which stops each lane at its first repeated joint
state and multiplies the integer counters.

See ``docs/kernels.md`` for the encoding, the exactness arguments, and the
``game.*`` rows of ``python3 -m bench probe game``, which time the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GameError
from repro.game.bitpack import words_needed
from repro.game.engine import DEFAULT_ROUNDS
from repro.game.noise import NO_NOISE, NoiseModel
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.game.vector_engine import (
    _DOUBLING_CELLS,
    VectorEngine,
    as_table_matrix,
    rounds_per_block,
    segment_uniforms,
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
    """Plays batches of IPD games over a bit-packed strategy matrix.

    Drop-in replacement for :class:`~repro.game.vector_engine.VectorEngine`
    — same constructor, same :meth:`play`/:meth:`tournament` signatures and
    semantics, bit-identical fitness, identical RNG consumption (per round:
    one flip block per player when noise is active, in A-then-B order).

    Parameters
    ----------
    space, payoff, rounds, noise:
        As for :class:`~repro.game.vector_engine.VectorEngine`.

    Notes
    -----
    When every payoff-matrix entry is an integer (the paper's
    ``[3, 0, 4, 1]`` is), per-game fitness is accumulated as three integer
    move counters and resolved through the payoff matrix once at the end.
    All partial sums on either path are then exactly representable
    integers, so the result is *bit-identical* to the reference engines'
    round-by-round float accumulation while keeping floats out of the
    inner loop entirely.  Non-integer payoff matrices take a
    round-by-round float path in the reference engines' exact order.
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
            # pay[a, b] == c0 + ca*a + cb*b + cab*a*b for a, b in {0, 1}.
            self._lin_mine = (p00, p10 - p00, p01 - p00, cross)
            self._lin_theirs = (p00, p01 - p00, p10 - p00, cross)
        # Path doubling's per-engine constants (_walk_doubled), built once:
        # B's view of each joint state, each state shifted a round on, and
        # the packed counters each joint move adds.
        width = self.rounds.bit_length()
        self._doubling = self._int_payoffs and 3 * width < 64
        if self._doubling:
            states = np.arange(space.n_states)
            self._mirror = space.opponent_view_array(states)
            self._shifted = (states << 2) & space.mask
            self._adds = np.array([0, 1 << width, 1, 1 + (1 << width) + (1 << 2 * width)])

    # Constant: the frozen bench/meta.py reads it into its machine record;
    # a later `benchmark` issue removes the attribute together with that read.
    kernel = "numpy"

    # -- kernel -------------------------------------------------------------

    def _kernel(self, mat: np.ndarray):
        """Packed loop for pure matrices; mixed ones take the inherited dense loop.

        Mixed strategies store a per-state probability, not a bit: nothing
        to pack.  Results and RNG consumption are identical either way.
        """
        if mat.dtype != np.uint8:
            return super()._kernel(mat)
        return "batch_engine.play", self._run_packed

    def _run_packed(self, mat, ia, ib, bounds, rngs, record_cooperation):
        """Bit-packed round loop: all games advance together per round.

        A narrow noise-free call with integer payoffs is walked by path doubling
        instead, when its three counters pack into one int64.
        """
        narrow = ia.size * self.space.n_states <= _DOUBLING_CELLS
        if self._doubling and not self.noise.rate and narrow:
            return self._counted(*self._walk_doubled(mat, ia, ib))
        packed = pack_matrix(self.space, mat)
        n_games = ia.size
        n_words = packed.shape[1]
        # 0-d arrays, made once: a NumPy scalar operand is converted on every call.
        one, two, six, low6, mask = (
            np.array(v, dtype=np.uint64) for v in (1, 2, 6, 63, self.space.mask)
        )
        rate = self.noise.rate
        int_path = self._int_payoffs

        state_a = np.zeros(n_games, dtype=np.uint64)
        state_b = np.zeros(n_games, dtype=np.uint64)
        move_a = np.empty(n_games, dtype=np.uint64)
        move_b = np.empty(n_games, dtype=np.uint64)
        # Defections of A, of B and mutual ones: row views of one array.
        counts = np.zeros((3, n_games), dtype=np.uint64)
        da, db, dab = counts
        live = np.ones(n_games, dtype=np.uint64)  # a move's low-bit mask; 0 freezes the lane
        # With no noise a lane walks deterministically over joint states (state_a;
        # state_b mirrors it) into a cycle: find it Brent-style, snapshots at rounds
        # 1, 2, 4, ..., and multiply what remains (docs/kernels.md, "Closing the cycle").
        closing = int_path and not rate
        if closing:
            seen_state, seen_counts, seen_at = state_a.copy(), counts.copy(), 0
            closed = np.uint64(2**64 - 1)  # a closed lane's seen_state; no joint state equals it
            spans_left = np.zeros(n_games, dtype=np.uint64)  # spans credited at closure
            stops: dict[int, list[np.ndarray]] = {}  # round -> lanes whose counts end there
            n_open = n_games
        fit_a = fit_b = None
        if not int_path:
            fit_a = np.zeros(n_games, dtype=np.float64)
            fit_b = np.zeros(n_games, dtype=np.float64)

        single = n_words == 1
        if single:
            # The whole table fits in the matchup's one uint64 lane: gather
            # it once, and every later move read is a register shift.
            lane_a = packed[ia, 0]
            lane_b = packed[ib, 0]
        else:
            flat = packed.ravel()
            base_a = (ia * n_words).astype(np.intp)
            base_b = (ib * n_words).astype(np.intp)

        block = rounds_per_block(2 * n_games)
        for r in range(self.rounds):
            if single:
                np.right_shift(lane_a, state_a, out=move_a)
                np.right_shift(lane_b, state_b, out=move_b)
            else:
                wa = flat[base_a + (state_a >> six).astype(np.intp)]
                wb = flat[base_b + (state_b >> six).astype(np.intp)]
                np.right_shift(wa, state_a & low6, out=move_a)
                np.right_shift(wb, state_b & low6, out=move_b)
            move_a &= live
            move_b &= live
            if rate:
                # Same draw order as VectorEngine: A's flip block, then B's.
                # Kept as a bool mask; a round's row widens as it is applied.
                if r % block == 0:
                    flips = segment_uniforms(rngs, bounds, min(block, self.rounds - r), 2, rate)
                move_a ^= flips[r % block, 0]
                move_b ^= flips[r % block, 1]

            da += move_a
            db += move_b
            if int_path:
                dab += move_a & move_b
            else:
                joint = ((move_a << one) | move_b).astype(np.intp)
                fit_a += self._pay_mine[joint]
                fit_b += self._pay_theirs[joint]

            # state' = ((state << 2) | (my << 1) | opp) & mask, both views.
            np.left_shift(state_a, two, out=state_a)
            state_a |= move_a << one
            state_a |= move_b
            state_a &= mask
            np.left_shift(state_b, two, out=state_b)
            state_b |= move_b << one
            state_b |= move_a
            state_b &= mask

            if closing:
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

        if closing:
            counts += spans_left * seen_counts
        da, db, dab = counts.astype(np.int64)
        if int_path:
            return self._counted(da, db, dab)
        return fit_a, fit_b, self.rounds - da, self.rounds - db

    def _walk_doubled(self, mat, ia, ib):
        """Each lane's ``Σa, Σb, Σab`` over ``rounds`` noise-free rounds, by path doubling.

        Lane ``l``'s cell ``l * 4**n + s`` stands for joint state ``s`` (A's
        view): ``nxt`` is the cell one round on, ``cnt`` the counters that
        round adds, packed ``Σa | Σb << w | Σab << 2w`` with ``w`` wide enough
        for ``rounds``.  Squaring both tables doubles the span they cover, and
        the walk from state 0 takes one span per set bit of ``rounds``
        (docs/kernels.md, "Path doubling").
        """
        n_states = self.space.n_states
        width = self.rounds.bit_length()
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
        field = (1 << width) - 1
        return total & field, (total >> width) & field, total >> 2 * width

    def _counted(self, da, db, dab):
        """Both seats' payoffs and cooperations from the three int64 move counters."""
        rounds = np.int64(self.rounds)
        c0, ca, cb, cab = self._lin_mine
        fit_a = (c0 * rounds + ca * da + cb * db + cab * dab).astype(np.float64)
        c0, ca, cb, cab = self._lin_theirs
        fit_b = (c0 * rounds + ca * da + cb * db + cab * dab).astype(np.float64)
        return fit_a, fit_b, rounds - da, rounds - db

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
