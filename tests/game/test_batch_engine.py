"""Unit tests for the bit-packed batch engine and its factory."""

from unittest import mock

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import GameError
from repro.game.batch_engine import (
    BatchEngine,
    make_engine,
    pack_matrix,
)
from repro.game.bitpack import pack_table
from repro.game.noise import NoiseModel
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.game.vector_engine import VectorEngine


@pytest.fixture
def space6():
    return StateSpace(6)


class TestPackMatrix:
    @pytest.mark.parametrize("memory", [1, 3, 4, 6])
    def test_rows_match_pack_table(self, memory):
        space = StateSpace(memory)
        rng = np.random.default_rng(memory)
        mat = rng.integers(0, 2, size=(9, space.n_states)).astype(np.uint8)
        packed = pack_matrix(space, mat)
        assert packed.dtype == np.uint64
        assert packed.shape == (9, (space.n_states + 63) // 64)
        for i in range(mat.shape[0]):
            assert np.array_equal(packed[i], pack_table(mat[i]))

    def test_rejects_mixed_matrix(self, space):
        mat = np.full((3, space.n_states), 0.5)
        with pytest.raises(GameError, match="bit-packed"):
            pack_matrix(space, mat)

    def test_rejects_bad_shape(self, space):
        with pytest.raises(GameError, match="strategy matrix"):
            pack_matrix(space, np.zeros((2, space.n_states + 1), dtype=np.uint8))

    def test_empty_matrix(self, space):
        packed = pack_matrix(space, np.zeros((0, space.n_states), dtype=np.uint8))
        assert packed.shape[0] == 0


class TestKernel:
    def test_all_cooperate_vs_all_defect(self, space6):
        # AllC vs AllD: the defector takes T=4 every round, the cooperator S=0.
        mat = np.vstack([
            np.zeros(space6.n_states, dtype=np.uint8),
            np.ones(space6.n_states, dtype=np.uint8),
        ])
        eng = BatchEngine(space6, rounds=200)
        res = eng.play(mat, np.array([0]), np.array([1]), record_cooperation=True)
        assert res.fitness_a[0] == 0.0
        assert res.fitness_b[0] == 200 * 4.0
        assert res.cooperations_a[0] == 200
        assert res.cooperations_b[0] == 0

    def test_single_word_lane_and_multiword_agree_with_vector(self):
        # Memory 3 is the last single-word layout, memory 4 the first
        # multi-word one; both must match the dense engine exactly.
        for memory in (3, 4):
            space = StateSpace(memory)
            rng = np.random.default_rng(5 + memory)
            mat = rng.integers(0, 2, size=(8, space.n_states)).astype(np.uint8)
            vec = VectorEngine(space, rounds=120)
            bat = BatchEngine(space, rounds=120)
            ia, ib = vec.round_robin_pairs(8, include_self=True)
            rv = vec.play(mat, ia, ib, record_cooperation=True)
            rb = bat.play(mat, ia, ib, record_cooperation=True)
            assert np.array_equal(rv.fitness_a, rb.fitness_a)
            assert np.array_equal(rv.fitness_b, rb.fitness_b)
            assert np.array_equal(rv.cooperations_a, rb.cooperations_a)
            assert np.array_equal(rv.cooperations_b, rb.cooperations_b)

    def test_non_integer_payoffs_take_float_path(self, space):
        payoff = PayoffMatrix(reward=3.5, sucker=0.25, temptation=4.125, punishment=1.0)
        rng = np.random.default_rng(3)
        mat = rng.integers(0, 2, size=(6, space.n_states)).astype(np.uint8)
        for rate in (0.0, 0.1):  # noise-free, then noisy on one generator per engine
            vec = VectorEngine(space, payoff=payoff, rounds=90, noise=NoiseModel(rate))
            bat = BatchEngine(space, payoff=payoff, rounds=90, noise=NoiseModel(rate))
            assert not bat._int_payoffs
            ia, ib = vec.round_robin_pairs(6)
            rng_v, rng_b = np.random.default_rng(8), np.random.default_rng(8)
            rv = vec.play(mat, ia, ib, rng=rng_v, record_cooperation=True)
            rb = bat.play(mat, ia, ib, rng=rng_b, record_cooperation=True)
            for field in ("fitness_a", "fitness_b", "cooperations_a", "cooperations_b"):
                assert np.array_equal(getattr(rv, field), getattr(rb, field)), (rate, field)
            assert rng_v.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("payoff, loop", [
        (PAPER_PAYOFFS, "_run_bytes"),
        (PayoffMatrix(reward=3.5, sucker=0.25, temptation=4.125, punishment=1.0), "_run_dense"),
    ], ids=["integer", "non-integer"])
    def test_noisy_pure_calls_take_one_loop(self, space6, payoff, loop):
        bat = BatchEngine(space6, payoff=payoff, rounds=30, noise=NoiseModel(0.05))
        mat = np.random.default_rng(4).integers(0, 2, size=(4, space6.n_states), dtype=np.uint8)
        with mock.patch.object(BatchEngine, loop, autospec=True,
                               side_effect=getattr(BatchEngine, loop)) as run:
            bat.play(mat, np.array([0, 1, 2]), np.array([3, 3, 0]), rng=np.random.default_rng(0))
        assert run.call_count == 1

    @pytest.mark.parametrize("rate", [0.0, 0.2], ids=["noise-free", "noisy"])
    def test_memory_zero_agrees_with_vector(self, rate):
        # One state: a strategy is a single move, and the state holds no round.
        space = StateSpace(0)
        mat = np.array([[0], [1], [1]], dtype=np.uint8)
        ia, ib = np.array([0, 1, 2, 0]), np.array([1, 2, 0, 0])
        vec = VectorEngine(space, rounds=40, noise=NoiseModel(rate))
        bat = BatchEngine(space, rounds=40, noise=NoiseModel(rate))
        rv = vec.play(mat, ia, ib, rng=np.random.default_rng(2), record_cooperation=True)
        rb = bat.play(mat, ia, ib, rng=np.random.default_rng(2), record_cooperation=True)
        for field in ("fitness_a", "fitness_b", "cooperations_a", "cooperations_b"):
            assert np.array_equal(getattr(rv, field), getattr(rb, field)), field

    def test_mixed_matrix_delegates_to_dense_path(self, space):
        mat = np.random.default_rng(1).random((5, space.n_states))
        vec = VectorEngine(space, rounds=60)
        bat = BatchEngine(space, rounds=60)
        ia, ib = vec.round_robin_pairs(5)
        rv = vec.play(mat, ia, ib, rng=np.random.default_rng(42))
        rb = bat.play(mat, ia, ib, rng=np.random.default_rng(42))
        assert np.array_equal(rv.fitness_a, rb.fitness_a)
        assert np.array_equal(rv.fitness_b, rb.fitness_b)

    def test_noise_requires_rng(self, space):
        bat = BatchEngine(space, noise=NoiseModel(0.1))
        mat = np.zeros((2, space.n_states), dtype=np.uint8)
        with pytest.raises(GameError, match="rng"):
            bat.play(mat, np.array([0]), np.array([1]))

    def test_empty_batch(self, space):
        bat = BatchEngine(space)
        mat = np.zeros((2, space.n_states), dtype=np.uint8)
        res = bat.play(mat, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        assert res.n_games == 0

    def test_out_of_range_pairs_rejected(self, space):
        bat = BatchEngine(space)
        mat = np.zeros((2, space.n_states), dtype=np.uint8)
        with pytest.raises(GameError, match="out of range"):
            bat.play(mat, np.array([0]), np.array([2]))

    def test_work_counters_advance(self, space):
        bat = BatchEngine(space, rounds=50)
        mat = np.zeros((3, space.n_states), dtype=np.uint8)
        ia, ib = bat.round_robin_pairs(3)
        bat.play(mat, ia, ib)
        assert bat.games_played == ia.size
        assert bat.rounds_played == ia.size * 50


class TestMakeEngine:
    def test_kinds(self, space):
        assert type(make_engine(space, kind="vector")) is VectorEngine
        assert type(make_engine(space, kind="batch")) is BatchEngine
        with pytest.raises(GameError, match="engine kind"):
            make_engine(space, kind="scalar")

    def test_engine_knobs_are_gone(self, space):
        # No deprecation shim: the removed options are plain TypeErrors.
        with pytest.raises(TypeError):
            SimulationConfig(engine="batch")
        with pytest.raises(TypeError):
            SimulationConfig(engine_jit="off")
        with pytest.raises(TypeError):
            BatchEngine(space, jit="off")
        with pytest.raises(TypeError):
            make_engine(space, kind="batch", jit="off")

    def test_config_fields_no_run_read_are_gone(self):
        with pytest.raises(TypeError):
            SimulationConfig(use_fitness_cache=False)
        with pytest.raises(TypeError):
            SimulationConfig(agents_per_sset=4)
