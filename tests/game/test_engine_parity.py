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

from repro.game.batch_engine import BatchEngine
from repro.game.engine import play_ipd
from repro.game.lookup_engine import play_ipd_lookup
from repro.game.noise import NoiseModel
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
