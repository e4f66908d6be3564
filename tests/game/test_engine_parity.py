"""Engine-parity suite: every engine yields *bit-identical* fitness.

The bit-packed batch kernel (its round loop and its path doubling), the
dense vector engine, the scalar reference engine and the paper-faithful
lookup engine must agree exactly — not approximately — on every game's
payoff, for memory one through six, with and without execution noise.
Exactness is what lets the pair memo of
:class:`~repro.population.fitness.FitnessEvaluator` store a payoff once,
whichever kernel played it, and reuse it for the rest of a run without
perturbing its trajectory.

Run with ``make test-engine`` (marker: ``engine``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.game.batch_engine import BatchEngine
from repro.game.engine import play_ipd
from repro.game.lookup_engine import play_ipd_lookup
from repro.game.noise import NoiseModel
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.game.strategy import Strategy
from repro.game.vector_engine import _DOUBLING_CELLS, VectorEngine

pytestmark = pytest.mark.engine

ROUNDS = 100
N_STRATEGIES = 6


def _population(space, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(N_STRATEGIES, space.n_states)).astype(np.uint8)


@pytest.mark.parametrize("memory", range(1, 7), ids=lambda m: f"numpy-{m}")
def test_batch_matches_vector_noiseless(memory):
    space = StateSpace(memory)
    mat = _population(space, memory)
    vec = VectorEngine(space, rounds=ROUNDS)
    bat = BatchEngine(space, rounds=ROUNDS)
    ia, ib = vec.round_robin_pairs(N_STRATEGIES, include_self=True)
    rv = vec.play(mat, ia, ib, record_cooperation=True)
    rb = bat.play(mat, ia, ib, record_cooperation=True)
    assert np.array_equal(rv.fitness_a, rb.fitness_a)
    assert np.array_equal(rv.fitness_b, rb.fitness_b)
    assert np.array_equal(rv.cooperations_a, rb.cooperations_a)
    assert np.array_equal(rv.cooperations_b, rb.cooperations_b)


@pytest.mark.parametrize("memory", range(1, 7), ids=lambda m: f"numpy-{m}")
def test_batch_matches_vector_with_noise(memory):
    # Identical seeds must give identical flips, hence identical payoffs:
    # both engines draw their flips from the one schedule in repro.game.noise.
    space = StateSpace(memory)
    mat = _population(space, 100 + memory)
    noise = NoiseModel(0.05)
    vec = VectorEngine(space, rounds=ROUNDS, noise=noise)
    bat = BatchEngine(space, rounds=ROUNDS, noise=noise)
    ia, ib = vec.round_robin_pairs(N_STRATEGIES)
    rv = vec.play(mat, ia, ib, rng=np.random.default_rng(7), record_cooperation=True)
    rb = bat.play(mat, ia, ib, rng=np.random.default_rng(7), record_cooperation=True)
    assert np.array_equal(rv.fitness_a, rb.fitness_a)
    assert np.array_equal(rv.fitness_b, rb.fitness_b)
    assert np.array_equal(rv.cooperations_a, rb.cooperations_a)
    assert np.array_equal(rv.cooperations_b, rb.cooperations_b)


@pytest.mark.parametrize("memory", range(1, 7))
def test_batch_matches_scalar_reference(memory):
    space = StateSpace(memory)
    mat = _population(space, 200 + memory)
    strategies = [Strategy(space, mat[i]) for i in range(N_STRATEGIES)]
    bat = BatchEngine(space, rounds=ROUNDS)
    ia, ib = bat.round_robin_pairs(N_STRATEGIES)
    res = bat.play(mat, ia, ib)
    for g in range(ia.size):
        ref = play_ipd(strategies[ia[g]], strategies[ib[g]], rounds=ROUNDS)
        assert res.fitness_a[g] == ref.fitness_a
        assert res.fitness_b[g] == ref.fitness_b


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_batch_matches_paper_lookup_engine(memory):
    # The lookup engine is Θ(4^n) per round; keep it to small memories.
    space = StateSpace(memory)
    mat = _population(space, 300 + memory)
    strategies = [Strategy(space, mat[i]) for i in range(N_STRATEGIES)]
    bat = BatchEngine(space, rounds=ROUNDS)
    ia, ib = bat.round_robin_pairs(N_STRATEGIES)
    res = bat.play(mat, ia, ib)
    for g in range(ia.size):
        ref = play_ipd_lookup(strategies[ia[g]], strategies[ib[g]], rounds=ROUNDS)
        assert res.fitness_a[g] == ref.fitness_a
        assert res.fitness_b[g] == ref.fitness_b


@pytest.mark.parametrize("memory", [1, 2])
def test_mixed_strategies_with_noise_identical_streams(memory):
    # Mixed matrices take the delegated dense path; with noise on top, the
    # whole stream (every flip first, then per round A's move draws, B's) must line up.
    space = StateSpace(memory)
    mat = np.random.default_rng(400 + memory).random((N_STRATEGIES, space.n_states))
    noise = NoiseModel(0.03)
    vec = VectorEngine(space, rounds=ROUNDS, noise=noise)
    bat = BatchEngine(space, rounds=ROUNDS, noise=noise)
    ia, ib = vec.round_robin_pairs(N_STRATEGIES)
    rv = vec.play(mat, ia, ib, rng=np.random.default_rng(21))
    rb = bat.play(mat, ia, ib, rng=np.random.default_rng(21))
    assert np.array_equal(rv.fitness_a, rb.fitness_a)
    assert np.array_equal(rv.fitness_b, rb.fitness_b)


@pytest.mark.parametrize("memory", range(1, 7))
def test_tournament_vector_batch_identical(memory):
    space = StateSpace(memory)
    mat = _population(space, 500 + memory)
    vec = VectorEngine(space, rounds=ROUNDS)
    bat = BatchEngine(space, rounds=ROUNDS)
    assert np.array_equal(
        vec.tournament(mat, include_self=True), bat.tournament(mat, include_self=True)
    )
    assert np.array_equal(vec.tournament(mat), bat.tournament(mat))


# -- closing the cycle and path doubling (docs/kernels.md §2) -------------------

FRACTIONAL_PAYOFFS = PayoffMatrix(reward=3.1, sucker=0.2, temptation=4.7, punishment=1.3)


def _assert_equals_scalar_and_vector(space, payoff, rounds, mat, ia, ib, sizes):
    bat = BatchEngine(space, payoff=payoff, rounds=rounds)
    vec = VectorEngine(space, payoff=payoff, rounds=rounds)
    rb = bat.play_segments(mat, ia, ib, sizes, record_cooperation=True)
    rv = vec.play_segments(mat, ia, ib, sizes, record_cooperation=True)
    for field in ("fitness_a", "fitness_b", "cooperations_a", "cooperations_b"):
        assert np.array_equal(getattr(rb, field), getattr(rv, field)), field
        assert getattr(rb, field).dtype == getattr(rv, field).dtype, field
    strategies = [Strategy(space, row) for row in mat]
    refs = {}  # a tiled call repeats its pairs: each distinct one is played once
    for g in range(len(ia)):
        pair = (int(ia[g]), int(ib[g]))
        if pair not in refs:
            refs[pair] = play_ipd(
                strategies[pair[0]], strategies[pair[1]],
                payoff=payoff, rounds=rounds, record_moves=True,
            )
        ref = refs[pair]
        assert (rb.fitness_a[g], rb.fitness_b[g]) == (ref.fitness_a, ref.fitness_b)
        assert rb.cooperations_a[g] == rounds - int(ref.moves_a.sum())
        assert rb.cooperations_b[g] == rounds - int(ref.moves_b.sum())
    assert (bat.games_played, bat.rounds_played) == (len(ia), len(ia) * rounds)


# Memory-1..3 walks close within a few rounds, so lengths below mu, at mu,
# mu + lambda, mu + k*lambda +- 1 and far beyond all turn up.
@settings(max_examples=150, deadline=None)
@given(
    memory=st.integers(1, 6),
    rounds=st.integers(1, 300),
    fractional=st.booleans(),
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_noise_free_pure_games_equal_scalar_and_vector(memory, rounds, fractional, sizes, seed):
    space = StateSpace(memory)
    setup = np.random.default_rng(seed)
    mat = setup.integers(0, 2, size=(N_STRATEGIES, space.n_states), dtype=np.uint8)
    ia, ib = setup.integers(0, N_STRATEGIES, size=(2, sum(sizes))).astype(np.intp)
    payoff = FRACTIONAL_PAYOFFS if fractional else PAPER_PAYOFFS
    _assert_equals_scalar_and_vector(space, payoff, rounds, mat, ia, ib, sizes)


def _transient_and_cycle(space, table_a, table_b):
    """(mu, lambda) of a pair's joint-state walk from the all-cooperate start."""
    first_seen = {}
    state_a = state_b = space.initial_state
    while state_a not in first_seen:
        first_seen[state_a] = len(first_seen)
        move_a, move_b = int(table_a[state_a]), int(table_b[state_b])
        state_a = space.push(state_a, move_a, move_b)
        state_b = space.push(state_b, move_b, move_a)
    return first_seen[state_a], len(first_seen) - first_seen[state_a]


@pytest.mark.parametrize(
    "memory, tables, mu, lam",
    [
        (1, [[0, 0, 0, 0], [1, 1, 1, 1]], 1, 1),  # ALLC vs ALLD
        (1, [[0, 1, 0, 1], [1, 0, 1, 0]], 0, 4),  # TFT vs anti-TFT
        # Seed found by search: the walk does not close within 200 rounds.
        (6, np.random.default_rng(10).integers(0, 2, size=(2, 4**6), dtype=np.uint8), 209, 19),
    ],
    ids=["allc-alld", "tft-antitft", "memory6-long-walk"],
)
def test_known_transient_and_cycle(memory, tables, mu, lam):
    space = StateSpace(memory)
    mat = np.asarray(tables, dtype=np.uint8)
    assert _transient_and_cycle(space, mat[0], mat[1]) == (mu, lam)
    ia, ib = np.array([0, 1, 0]), np.array([1, 0, 0])
    # The pairs tiled to the widest call path doubling takes, and one lane wider:
    # the round loop's.
    widest = _DOUBLING_CELLS // space.n_states
    lengths = {1, mu, mu + 1, mu + lam, mu + lam + 1, mu + 3 * lam - 1, mu + 3 * lam + 1, 200}
    for rounds in sorted(lengths - {0}):
        for lanes, doubled in ((3, True), (widest, True), (widest + 1, False)):
            with mock.patch.object(
                BatchEngine, "_walk_doubled", autospec=True, side_effect=BatchEngine._walk_doubled
            ) as walk:
                _assert_equals_scalar_and_vector(
                    space, PAPER_PAYOFFS, rounds, mat,
                    np.resize(ia, lanes), np.resize(ib, lanes), [lanes - 1, 1],
                )
            assert walk.called == doubled, (rounds, lanes)


# Counters too wide to pack three to an int64 take the round loop: 2**20 + 7
# rounds is the widest count path doubling packs, 2**21 + 5 and 2**40 + 3 are not.
@pytest.mark.parametrize("rounds", [2**20 + 7, 2**21 + 5, 2**40 + 3])
def test_counts_past_a_packed_field_stay_exact(rounds):
    space = StateSpace(1)
    allc, alld, tft, anti_tft = ([0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1], [1, 0, 1, 0])
    mat = np.array([allc, alld, tft, anti_tft], dtype=np.uint8)
    res = BatchEngine(space, rounds=rounds).play(mat, np.array([0, 2]), np.array([1, 3]))
    sucker, temptation = PAPER_PAYOFFS.sucker, PAPER_PAYOFFS.temptation
    assert (res.fitness_a[0], res.fitness_b[0]) == (rounds * sucker, rounds * temptation)
    # TFT vs anti-TFT is a four-round cycle from the first round on.
    tft_pair = [Strategy(space, row) for row in mat[2:]]

    def p(k):
        ref = play_ipd(*tft_pair, rounds=k)
        return np.array([ref.fitness_a, ref.fitness_b])

    expected = (rounds // 4) * p(4) + p(rounds % 4)
    assert (res.fitness_a[1], res.fitness_b[1]) == tuple(expected)


def test_noisy_counts_past_a_narrow_counter_stay_exact():
    # 70 000 rounds: past any 16-bit counter, and ~11 700 byte-loop counts.
    space = StateSpace(1)
    mat = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]], dtype=np.uint8)
    ia, ib = np.array([0, 2, 3, 2]), np.array([1, 3, 3, 0])
    results, states = [], []
    for engine_cls in (BatchEngine, VectorEngine):
        rng = np.random.default_rng(70_000)
        engine = engine_cls(space, rounds=70_000, noise=NoiseModel(0.01))
        results.append(engine.play(mat, ia, ib, rng=rng, record_cooperation=True))
        states.append(rng.bit_generator.state)
    for field in ("fitness_a", "fitness_b", "cooperations_a", "cooperations_b"):
        assert np.array_equal(getattr(results[0], field), getattr(results[1], field)), field
    assert states[0] == states[1]
