"""Repeatability under threading: the virtual runtime must not leak
scheduling nondeterminism into results."""

import numpy as np

from repro.config import SimulationConfig
from repro.parallel.runner import ParallelSimulation


class TestRepeatability:
    def test_same_run_twice_is_identical(self):
        cfg = SimulationConfig(memory=1, n_ssets=10, generations=120, seed=31, rounds=20)
        a = ParallelSimulation(cfg, n_ranks=5, eager_games=True).run()
        b = ParallelSimulation(cfg, n_ranks=5, eager_games=True).run()
        assert np.array_equal(a.matrix, b.matrix)
        assert a.n_pc_events == b.n_pc_events

    def test_traffic_counters_repeatable(self):
        """Message counts are a deterministic function of the trajectory."""
        cfg = SimulationConfig(memory=1, n_ssets=8, generations=80, seed=9, rounds=10)
        a = ParallelSimulation(cfg, n_ranks=4, eager_games=True).run()
        b = ParallelSimulation(cfg, n_ranks=4, eager_games=True).run()
        for op in ("heartbeat", "reliable_send"):
            assert a.counters[op].calls == b.counters[op].calls

    def test_rank_count_does_not_change_traffic_semantics(self):
        """Windows depend on generations/PC events only, so two rank counts
        with the same trajectory heartbeat each worker as often."""
        cfg = SimulationConfig(memory=1, n_ssets=8, generations=60, seed=9, rounds=10)
        small = ParallelSimulation(cfg, n_ranks=3, eager_games=True).run()
        large = ParallelSimulation(cfg, n_ranks=7, eager_games=True).run()
        assert small.counters["heartbeat"].calls // 2 == large.counters["heartbeat"].calls // 6
        assert np.array_equal(small.matrix, large.matrix)
