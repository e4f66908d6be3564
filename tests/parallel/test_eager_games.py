"""Tests for eager (paper-faithful) game execution in the parallel runner."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.parallel.decomposition import SSetDecomposition
from repro.parallel.runner import ParallelSimulation

# Gated by the engine job too: the eager path's game accounting and the
# kernel's parity change together (the slate is one kernel call per rank).
pytestmark = pytest.mark.engine


@pytest.fixture(scope="module")
def runs():
    cfg = SimulationConfig(memory=1, n_ssets=12, generations=60, seed=19, rounds=20)
    lazy = ParallelSimulation(cfg, n_ranks=4).run()
    eager = ParallelSimulation(cfg, n_ranks=4, eager_games=True).run()
    return cfg, lazy, eager


class TestTrajectoryUnchanged:
    def test_same_final_population(self, runs):
        _, lazy, eager = runs
        assert np.array_equal(lazy.matrix, eager.matrix)

    def test_same_nature_counters(self, runs):
        _, lazy, eager = runs
        assert lazy.n_pc_events == eager.n_pc_events
        assert lazy.n_adoptions == eager.n_adoptions


class TestWorkAccounting:
    def test_lazy_plays_nothing_eagerly(self, runs):
        _, lazy, _ = runs
        assert all(g == 0 for g in lazy.games_played_per_rank)

    def test_eager_counts_match_decomposition(self, runs):
        """Each rank plays exactly owned_ssets x (n_ssets - 1) games/gen —
        the quantity the performance model's compute term is built from."""
        cfg, _, eager = runs
        decomp = SSetDecomposition(cfg.n_ssets, 4)
        for rank, games in enumerate(eager.games_played_per_rank):
            owned = decomp.ssets_of_rank(rank).size
            assert games == owned * (cfg.n_ssets - 1) * cfg.generations

    def test_nature_rank_plays_no_games(self, runs):
        _, _, eager = runs
        assert eager.games_played_per_rank[0] == 0

    def test_total_matches_workload_spec(self, runs):
        """The real execution's total game count equals the WorkloadSpec
        arithmetic that drives the analytic model."""
        from repro.perf.workload import WorkloadSpec

        cfg, _, eager = runs
        workload = WorkloadSpec(
            n_ssets=cfg.n_ssets,
            games_per_sset=cfg.n_ssets - 1,
            memory=cfg.memory,
            rounds=cfg.rounds,
            generations=cfg.generations,
        )
        assert sum(eager.games_played_per_rank) == (
            workload.total_games_per_generation * cfg.generations
        )


class TestEagerStochastic:
    def test_mixed_population_trajectory_still_matches_lazy(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=8, generations=40, seed=3, rounds=10,
            strategy_kind="mixed",
        )
        lazy = ParallelSimulation(cfg, n_ranks=3).run()
        eager = ParallelSimulation(cfg, n_ranks=3, eager_games=True).run()
        assert np.array_equal(lazy.matrix, eager.matrix)
