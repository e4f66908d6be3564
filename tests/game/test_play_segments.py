"""Segment play == one ``play`` per slate, game for game and draw for draw.

``play_segments`` advances the games of several slates as one batch while
each slate keeps its own generator.  The reference here is a hand-written
round loop, run once per slate on its own generator: it first draws every
execution error of the slate as gaps between flips, over positions ordered
``(round, seat, game)`` and in chunks of uniforms sized by the slate alone,
then per round one fresh ``rng.random(k)`` block for A's mixed move and one
for B's.  The segment call must reproduce its per-game fitness and
cooperations, leave every generator in the same state, and tally the same
work, whatever the memory, noise, strategy kind, payoff path, segment sizes
(empty ones included), pre-draw block and chunk sizes, and length (a
noise-free pure game closes its cycle early; a noisy one never).

Run with ``make test-engine`` (marker: ``engine``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GameError
from repro.game import noise, vector_engine
from repro.game.batch_engine import BatchEngine
from repro.game.noise import NoiseModel
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.game.vector_engine import VectorEngine

pytestmark = pytest.mark.engine

N_STRATEGIES = 5
FIELDS = ("fitness_a", "fitness_b", "cooperations_a", "cooperations_b")
FRACTIONAL_PAYOFFS = PayoffMatrix(reward=3.1, sucker=0.2, temptation=4.7, punishment=1.3)


def _reference_flips(rng, k, rounds, rate, draw):
    """A slate's flips, ``(rounds, 2, k)``: one gap per flip, uniforms ``chunk`` at a time."""
    n = 2 * rounds * k
    flips = np.zeros((rounds, 2, k), dtype=np.int64)
    if rate == 1:
        flips[:] = 1
        return flips
    chunk = min(n, draw, int(n * rate + 4 * np.sqrt(n * rate)) + 8)
    gaps, pos = [], -1
    while pos < n - 1:
        if not gaps:
            gaps = list(np.floor(np.log(1.0 - rng.random(chunk)) / np.log1p(-rate)))
        pos += 1 + int(min(gaps.pop(0), n))
        if pos < n:
            flips.flat[pos] = 1
    return flips


def _reference_play(space, payoff, rounds, rate, mat, ia, ib, rng, draw):
    """One slate: its flips first, then each round's mixed-move blocks when it needs them."""
    k = ia.size
    mixed = mat.dtype != np.uint8
    flips = _reference_flips(rng, k, rounds, rate, draw) if rate else np.zeros((rounds, 2, k), int)
    state_a = np.zeros(k, dtype=np.int64)
    state_b = np.zeros(k, dtype=np.int64)
    fit_a, fit_b = np.zeros(k), np.zeros(k)
    coop_a, coop_b = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    for r in range(rounds):
        move_a = mat[ia, state_a]
        move_b = mat[ib, state_b]
        if mixed:
            move_a = rng.random(k) < move_a
            move_b = rng.random(k) < move_b
        move_a = move_a.astype(np.int64) ^ flips[r, 0]
        move_b = move_b.astype(np.int64) ^ flips[r, 1]
        fit_a += payoff.table[move_a, move_b]
        fit_b += payoff.table[move_b, move_a]
        coop_a += 1 - move_a
        coop_b += 1 - move_b
        space.push_array(state_a, move_a, move_b, out=state_a)
        space.push_array(state_b, move_b, move_a, out=state_b)
    return fit_a, fit_b, coop_a, coop_b


@settings(max_examples=120, deadline=None)
@given(
    memory=st.integers(1, 6),
    rate=st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]),
    mixed=st.booleans(),
    fractional=st.booleans(),
    sizes=st.lists(st.integers(0, 7), min_size=0, max_size=5),
    rounds=st.integers(1, 24) | st.sampled_from([100, 200, 300]),
    block=st.sampled_from([1, 100, 1 << 20]),
    draw=st.sampled_from([1, 30, 1 << 13]),
    engine_cls=st.sampled_from([BatchEngine, VectorEngine]),
    seed=st.integers(0, 2**32 - 1),
)
def test_segments_equal_one_play_per_slate(
    memory, rate, mixed, fractional, sizes, rounds, block, draw, engine_cls, seed
):
    space = StateSpace(memory)
    payoff = FRACTIONAL_PAYOFFS if fractional else PAPER_PAYOFFS
    setup = np.random.default_rng(seed)
    if mixed:
        mat = setup.random((N_STRATEGIES, space.n_states))
    else:
        mat = setup.integers(0, 2, size=(N_STRATEGIES, space.n_states), dtype=np.uint8)
    n_games = sum(sizes)
    # Random pairs: self-play games (ia == ib) turn up among them.
    ia = setup.integers(0, N_STRATEGIES, size=n_games).astype(np.intp)
    ib = setup.integers(0, N_STRATEGIES, size=n_games).astype(np.intp)
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))

    expected = [[np.empty(0, dtype=dtype)] for dtype in (float, float, np.int64, np.int64)]
    expected_states = []
    for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        rng = np.random.default_rng([seed, s])
        slate = _reference_play(space, payoff, rounds, rate, mat, ia[lo:hi], ib[lo:hi], rng, draw)
        for column, values in zip(expected, slate):
            column.append(values)
        expected_states.append(rng.bit_generator.state)

    engine = engine_cls(space, payoff=payoff, rounds=rounds, noise=NoiseModel(rate))
    rngs = [np.random.default_rng([seed, s]) for s in range(len(sizes))]
    with mock.patch.multiple(vector_engine, _BLOCK_BYTES=block, _DRAW_DOUBLES=draw), \
            mock.patch.object(noise, "_DRAW_DOUBLES", draw):
        res = engine.play_segments(mat, ia, ib, sizes, rngs, record_cooperation=True)

    for field, column in zip(FIELDS, expected):
        assert np.array_equal(getattr(res, field), np.concatenate(column)), field
    assert [rng.bit_generator.state for rng in rngs] == expected_states
    assert engine.games_played == n_games
    assert engine.rounds_played == n_games * rounds


def test_one_workers_noisy_call_equals_the_dense_loop():
    """The production shape: 32 slates x 63 games at memory 6, noise 0.01.

    The flip block is cut to 7 rounds, so blocks end mid-game and off the
    byte loop's every-6-rounds count.
    """
    space = StateSpace(6)
    setup = np.random.default_rng(41)
    mat = setup.integers(0, 2, size=(64, space.n_states), dtype=np.uint8)
    sizes = [63] * 32
    ia = np.repeat(np.arange(32), 63)
    ib = np.concatenate([np.delete(np.arange(64), s) for s in range(32)])
    results, states = [], []
    for engine_cls in (BatchEngine, VectorEngine):
        engine = engine_cls(space, noise=NoiseModel(0.01))
        rngs = [np.random.default_rng([41, s]) for s in range(32)]
        with mock.patch.object(vector_engine, "_BLOCK_BYTES", 7 * 2 * ia.size):
            results.append(engine.play_segments(mat, ia, ib, sizes, rngs, True))
        states.append([rng.bit_generator.state for rng in rngs])
    for field in FIELDS:
        assert np.array_equal(getattr(results[0], field), getattr(results[1], field)), field
    assert states[0] == states[1]


def test_play_is_the_one_segment_case():
    space = StateSpace(3)
    mat = np.random.default_rng(0).integers(0, 2, size=(6, space.n_states), dtype=np.uint8)
    ia, ib = np.array([0, 1, 2, 3]), np.array([5, 4, 3, 3])
    engine = BatchEngine(space, rounds=30, noise=NoiseModel(0.05))
    one = engine.play(mat, ia, ib, rng=np.random.default_rng(9), record_cooperation=True)
    seg = engine.play_segments(
        mat, ia, ib, [4], [np.random.default_rng(9)], record_cooperation=True
    )
    for field in FIELDS:
        assert np.array_equal(getattr(one, field), getattr(seg, field))


@pytest.mark.parametrize(
    "sizes, rngs",
    [
        ([2, 1], [np.random.default_rng(0), np.random.default_rng(1)]),  # 3 games != 4
        ([5, -1], [np.random.default_rng(0), np.random.default_rng(1)]),
        ([2, 2], [np.random.default_rng(0)]),  # a segment without a generator
        ([2, 2], [np.random.default_rng(0), None]),
        ([2, 2], None),
    ],
)
def test_bad_segments_are_rejected(sizes, rngs):
    space = StateSpace(1)
    mat = np.zeros((2, space.n_states), dtype=np.uint8)
    engine = BatchEngine(space, rounds=5, noise=NoiseModel(0.1))
    with pytest.raises(GameError):
        engine.play_segments(mat, np.zeros(4, dtype=int), np.ones(4, dtype=int), sizes, rngs)
