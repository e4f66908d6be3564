"""Tests for the deduplicated population store."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import PopulationError, StrategyError
from repro.game.strategy import named_strategy
from repro.population.population import Population, strategy_row_digest
from repro.rng import StreamFactory


@pytest.fixture
def config():
    return SimulationConfig(memory=1, n_ssets=10, generations=1, seed=0)


@pytest.fixture
def pop(config):
    return Population.random(config, StreamFactory(0).fresh("init"))


class TestDigest:
    def test_equal_rows_equal_digest(self):
        a = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert strategy_row_digest(a) == strategy_row_digest(a.copy())

    def test_different_rows_differ(self):
        a = np.array([0, 1, 1, 0], dtype=np.uint8)
        b = np.array([0, 1, 1, 1], dtype=np.uint8)
        assert strategy_row_digest(a) != strategy_row_digest(b)

    def test_dtype_distinguished(self):
        a = np.array([0, 1, 1, 0], dtype=np.uint8)
        b = a.astype(np.float64)
        assert strategy_row_digest(a) != strategy_row_digest(b)


class TestConstruction:
    def test_random_matches_config_shape(self, pop, config):
        assert pop.matrix().shape == (config.n_ssets, 4)

    def test_random_reproducible(self, config):
        a = Population.random(config, StreamFactory(3).fresh("init"))
        b = Population.random(config, StreamFactory(3).fresh("init"))
        assert np.array_equal(a.matrix(), b.matrix())

    def test_uniform(self, config):
        pop = Population.uniform(config, named_strategy("WSLS"))
        assert pop.n_unique == 1
        assert np.array_equal(pop.matrix()[0], named_strategy("WSLS").table)

    def test_uniform_memory_mismatch(self, config):
        with pytest.raises(PopulationError):
            Population.uniform(config, named_strategy("WSLS", 2))

    def test_explicit_matrix_validated(self, config):
        with pytest.raises(PopulationError):
            Population(config, np.zeros((3, 4), dtype=np.uint8))  # wrong row count

    def test_pure_rejects_floats(self, config):
        with pytest.raises(PopulationError):
            Population(config, np.full((10, 4), 0.5))

    def test_pure_rejects_bad_values(self, config):
        with pytest.raises(PopulationError):
            Population(config, np.full((10, 4), 2, dtype=np.int64))

    def test_mixed_rejects_out_of_range(self):
        cfg = SimulationConfig(memory=1, n_ssets=4, strategy_kind="mixed", seed=0)
        with pytest.raises(PopulationError):
            Population(cfg, np.full((4, 4), 1.5))

    def test_mixed_population_dtype(self):
        cfg = SimulationConfig(memory=1, n_ssets=4, strategy_kind="mixed", seed=0)
        pop = Population.random(cfg, StreamFactory(0).fresh("init"))
        assert pop.matrix().dtype == np.float64


class TestDedup:
    def test_duplicate_rows_share_slot(self, config):
        row = np.array([0, 1, 1, 0], dtype=np.uint8)
        matrix = np.vstack([row] * 10)
        pop = Population(config, matrix)
        assert pop.n_unique == 1
        assert pop.slot_count(pop.slot_of(0)) == 10

    def test_adopt_merges_slots(self, pop):
        s_teacher = pop.slot_of(0)
        differed = s_teacher != pop.slot_of(1)
        changed = pop.adopt(learner=1, teacher=0)
        assert pop.slot_of(1) == s_teacher
        assert changed == differed
        pop.check_invariants()

    def test_adopt_same_strategy_noop(self, config):
        pop = Population.uniform(config, named_strategy("TFT"))
        version = pop.version
        assert pop.adopt(1, 0) is False
        assert pop.version == version

    def test_set_strategy_dedups_against_existing(self, pop):
        table = pop.table_of(3).copy()
        slot = pop.set_strategy(7, table)
        assert slot == pop.slot_of(3)
        pop.check_invariants()

    def test_set_strategy_same_as_current_noop(self, pop):
        version = pop.version
        pop.set_strategy(2, pop.table_of(2).copy())
        assert pop.version == version
        pop.check_invariants()

    def test_released_slot_reused(self, config):
        pop = Population.uniform(config, named_strategy("ALLC"))
        # Give SSet 0 a new unique strategy, then overwrite it again.
        pop.set_strategy(0, np.array([1, 1, 1, 1], dtype=np.uint8))
        stamp1 = pop.slot_stamps()[pop.slot_of(0)]
        pop.set_strategy(0, np.array([0, 1, 1, 0], dtype=np.uint8))
        stamp2 = pop.slot_stamps()[pop.slot_of(0)]
        assert stamp1 != stamp2  # reuse is detectable by stamp
        assert pop.n_unique == 2
        pop.check_invariants()

    def test_capacity_grows(self):
        cfg = SimulationConfig(memory=2, n_ssets=4, seed=0)
        pop = Population.uniform(cfg, named_strategy("ALLC", 2))
        rng = np.random.default_rng(0)
        for _ in range(50):
            pop.set_strategy(int(rng.integers(4)), rng.integers(0, 2, 16, dtype=np.uint8))
            pop.check_invariants()
        assert pop.capacity >= pop.n_unique
        assert pop.capacity == cfg.n_ssets + 1


class TestQueries:
    def test_table_of_readonly(self, pop):
        with pytest.raises(ValueError):
            pop.table_of(0)[0] = 1

    def test_strategy_of_returns_strategy(self, pop):
        s = pop.strategy_of(0)
        assert np.array_equal(s.table, pop.table_of(0))

    def test_counts_match_assignment(self, pop):
        counts = pop.counts()
        assign = pop.assignment()
        for slot in pop.live_slots():
            assert counts[slot] == (assign == slot).sum()

    def test_bad_sset_index(self, pop):
        with pytest.raises(PopulationError):
            pop.slot_of(10)
        with pytest.raises(PopulationError):
            pop.adopt(0, -1)

    def test_free_slot_queries_fail(self, pop):
        free = [s for s in range(pop.capacity) if pop.slot_count(s) == 0]
        if free:
            with pytest.raises(PopulationError):
                pop.slot_table(free[0])
            with pytest.raises(PopulationError):
                pop.digest_of_slot(free[0])

    def test_set_strategy_bad_shape(self, pop):
        with pytest.raises(StrategyError):
            pop.set_strategy(0, np.zeros(3, dtype=np.uint8))

    def test_set_strategy_bad_values(self, pop):
        with pytest.raises(StrategyError):
            pop.set_strategy(0, np.array([0, 1, 2, 0], dtype=np.uint8))

    def test_repr(self, pop):
        text = repr(pop)
        assert "n_ssets=10" in text


class TestRandomStrategyTable:
    def test_pure_draw(self, pop, rng):
        t = pop.random_strategy_table(rng)
        assert t.dtype == np.uint8 and set(np.unique(t)) <= {0, 1}

    def test_mixed_uniform_draw(self, rng):
        cfg = SimulationConfig(memory=1, n_ssets=4, strategy_kind="mixed", seed=0)
        pop = Population.random(cfg, StreamFactory(0).fresh("init"))
        t = pop.random_strategy_table(rng)
        assert t.dtype == np.float64 and 0 <= t.min() and t.max() <= 1

    def test_mixed_ushaped_concentrates_at_corners(self, rng):
        cfg = SimulationConfig(
            memory=1, n_ssets=4, strategy_kind="mixed",
            mutation_distribution="ushaped", seed=0,
        )
        pop = Population.random(cfg, StreamFactory(0).fresh("init"))
        draws = np.concatenate([pop.random_strategy_table(rng) for _ in range(500)])
        corner_mass = np.mean((draws < 0.1) | (draws > 0.9))
        assert corner_mass > 0.6  # Beta(0.1, 0.1) piles up at 0 and 1
