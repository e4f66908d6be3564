"""Tests for workload specifications."""

import pytest

from repro.errors import PerfModelError
from repro.perf.workload import WorkloadSpec


class TestDerived:
    def test_total_games(self):
        w = WorkloadSpec(n_ssets=10, games_per_sset=9, memory=1)
        assert w.total_games_per_generation == 90

    def test_strategy_nbytes_by_memory(self):
        assert WorkloadSpec(n_ssets=2, games_per_sset=1, memory=1).strategy_nbytes == 4
        assert WorkloadSpec(n_ssets=2, games_per_sset=1, memory=6).strategy_nbytes == 4096


class TestPaperWorkloads:
    def test_memory_study_parameters(self):
        w = WorkloadSpec.paper_memory_study(3)
        # §VI-B-1: 1,024 SSets, 1,000 generations, PC rate 0.01.
        assert (w.n_ssets, w.generations, w.pc_rate) == (1024, 1000, 0.01)
        assert w.memory == 3

    def test_population_study_games_square(self):
        w = WorkloadSpec.paper_population_study(2048)
        assert w.total_games_per_generation == 2048 * 2047

    def test_weak_scaling_work_per_rank_constant(self):
        w1 = WorkloadSpec.paper_weak_scaling(1024)
        w2 = WorkloadSpec.paper_weak_scaling(262144)
        assert w1.total_games_per_generation / 1024 == pytest.approx(
            w2.total_games_per_generation / 262144
        )
        assert w1.n_ssets == 1024 * 4096

    def test_large_strong_scaling_one_sset_per_rank_at_full_machine(self):
        w = WorkloadSpec.paper_strong_scaling_large()
        assert w.n_ssets == 262144
        assert w.memory == 6


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_ssets=0, games_per_sset=1, memory=1),
            dict(n_ssets=2, games_per_sset=-1, memory=1),
            dict(n_ssets=2, games_per_sset=1, memory=7),
            dict(n_ssets=2, games_per_sset=1, memory=1, rounds=0),
            dict(n_ssets=2, games_per_sset=1, memory=1, generations=0),
            dict(n_ssets=2, games_per_sset=1, memory=1, pc_rate=1.5),
            dict(n_ssets=2, games_per_sset=1, memory=1, adoption_probability=-0.1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(PerfModelError):
            WorkloadSpec(**kwargs)
