"""Tests for pricing real traffic on the machine model."""

import pytest

from repro.config import SimulationConfig
from repro.errors import PerfModelError
from repro.machine.bluegene import bluegene_l
from repro.mpi.counters import OpCount
from repro.parallel.runner import ParallelSimulation
from repro.perf.pricing import price_counters


class TestPricing:
    def test_empty_counters_cost_nothing(self):
        priced = price_counters({}, bluegene_l(), 64)
        assert priced.total_seconds == 0.0

    def test_bcast_priced_per_call(self):
        machine = bluegene_l()
        counters = {"bcast": OpCount(calls=10, messages=0, bytes=160)}
        priced = price_counters(counters, machine, 128)
        expected = 10 * machine.tree.bcast_time(64, 16)
        assert priced.collective_seconds == pytest.approx(expected)

    def test_residual_p2p_priced_on_torus(self):
        machine = bluegene_l()
        counters = {"send": OpCount(calls=5, messages=5, bytes=40)}
        priced = price_counters(counters, machine, 128)
        assert priced.point_to_point_seconds == pytest.approx(
            5 * machine.torus(128).average_message_time(0, 8)
        )

    def test_collective_internal_sends_not_double_charged(self):
        machine = bluegene_l()
        # One bcast over 64 nodes = 63 internal sends; all accounted.
        counters = {
            "bcast": OpCount(calls=1, messages=0, bytes=16),
            "send": OpCount(calls=63, messages=63, bytes=63 * 16),
        }
        priced = price_counters(counters, machine, 128)
        assert priced.point_to_point_seconds == 0.0
        assert priced.collective_seconds > 0

    def test_validation(self):
        with pytest.raises(PerfModelError):
            price_counters({}, bluegene_l(), 0)


class TestRealRunPricing:
    def test_parallel_run_traffic_prices_to_sane_magnitude(self):
        """Price an actual run's counters: the communication of each worker's
        frame and report on BG/L's torus must land between a microsecond and
        a millisecond (a run sends nothing per generation)."""
        cfg = SimulationConfig(memory=1, n_ssets=12, generations=100, seed=2, rounds=10)
        result = ParallelSimulation(cfg, n_ranks=4, eager_games=True).run()
        priced = price_counters(result.counters, bluegene_l(), 4)
        per_frame = priced.total_seconds / result.counters["heartbeat"].calls
        assert 1e-6 < per_frame < 1e-3

    def test_more_pc_events_cost_more(self):
        base = SimulationConfig(
            memory=1, n_ssets=8, generations=80, seed=2, rounds=10, pc_rate=0.0
        )
        busy = base.with_updates(pc_rate=1.0)
        quiet_run = ParallelSimulation(base, n_ranks=4, eager_games=True).run()
        busy_run = ParallelSimulation(busy, n_ranks=4, eager_games=True).run()
        machine = bluegene_l()
        assert (
            price_counters(busy_run.counters, machine, 4).total_seconds
            > price_counters(quiet_run.counters, machine, 4).total_seconds
        )
