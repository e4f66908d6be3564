"""Engine-parity suite: every engine yields *bit-identical* fitness.

This is the tentpole's parity gate (ISSUE 7 / ROADMAP item 2): the
bit-packed batch kernel, the dense vector engine, the scalar reference
engine and the paper-faithful lookup engine must agree exactly — not
approximately — on every game's payoff, for memory one through six, with
and without execution noise.  Exactness is what lets
:class:`~repro.game.fitness_cache.FitnessCache` treat all engines as
interchangeable and lets a run switch engines between checkpoints without
perturbing its trajectory.

Run with ``make test-engine`` (marker: ``engine``).
"""

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
from repro.game.vector_engine import VectorEngine

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
    # the batch kernel consumes the random stream in the vector engine's
    # exact order (per round: A's flip block, then B's).
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
    # whole stream (move draws then flip draws, A then B) must line up.
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


# -- closing the cycle (docs/kernels.md §2) ------------------------------------

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
    for g in range(len(ia)):
        ref = play_ipd(
            strategies[ia[g]], strategies[ib[g]], payoff=payoff, rounds=rounds, record_moves=True
        )
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
    lengths = {1, mu, mu + 1, mu + lam, mu + lam + 1, mu + 3 * lam - 1, mu + 3 * lam + 1, 200}
    for rounds in sorted(lengths - {0}):
        _assert_equals_scalar_and_vector(space, PAPER_PAYOFFS, rounds, mat, ia, ib, [2, 1])
