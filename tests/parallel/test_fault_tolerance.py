"""Chaos tests: the fault-tolerant parallel runner under injected faults.

The acceptance bar for the fault-tolerance work:

* a chaos run that crashes one worker mid-run completes on the survivors,
  reports the degradation in :class:`ParallelRunResult`, and — with the
  same fault seed — reproduces the identical fault schedule;
* a killed run restarts from its latest checkpoint and matches the
  fault-free final strategy digest (deterministic, no-drop case).

Crash/hang faults are keyed by ``(rank, generation)``, so their schedules
are bit-reproducible regardless of thread timing; that is what the
schedule-identity assertions rely on.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.io.checkpoints import latest_valid_parallel_checkpoint, load_parallel_checkpoint
from repro.mpi.faults import FaultEvent, FaultPlan
from repro.parallel.runner import ParallelRunResult, ParallelSimulation
from repro.population.dynamics import EvolutionDriver

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def config() -> SimulationConfig:
    return SimulationConfig(n_ssets=8, generations=60, seed=11)


@pytest.fixture(scope="module")
def serial_matrix(config) -> np.ndarray:
    driver = EvolutionDriver(config)
    driver.run()
    return driver.population.matrix()


class TestFaultTolerantProtocol:
    def test_no_faults_matches_serial(self, config, serial_matrix):
        """The FT star protocol preserves the serial trajectory bit-exactly."""
        result = ParallelSimulation(config, n_ranks=4, eager_games=True).run(timeout=300)
        assert np.array_equal(result.matrix, serial_matrix)
        assert result.failed_ranks == ()
        assert result.degradations == ()
        assert result.counters.get("heartbeat").calls > 0

    def test_worker_crash_degrades_and_matches_serial(self, config, serial_matrix):
        """The acceptance chaos run: one worker dies, survivors finish."""
        plan = FaultPlan(seed=5, events=(FaultEvent(kind="crash", rank=2, generation=20),))
        result = ParallelSimulation(
            config, n_ranks=4, eager_games=True, fault_plan=plan, heartbeat_timeout=2.0
        ).run(timeout=300)
        assert isinstance(result, ParallelRunResult)
        assert result.generation == config.generations
        assert result.failed_ranks == (2,)
        assert len(result.degradations) == 1
        degradation = result.degradations[0]
        assert degradation.rank == 2
        assert degradation.generation == 60  # the end of the window holding generation 20
        assert degradation.reassigned_ssets  # its SSets went somewhere
        # Crash-only chaos cannot perturb the trajectory: fitness is a
        # deterministic function of the (replicated) population.
        assert np.array_equal(result.matrix, serial_matrix)

    def test_same_fault_seed_reproduces_schedule(self, config):
        plan = FaultPlan(seed=5, events=(FaultEvent(kind="crash", rank=2, generation=20),))
        runs = [
            ParallelSimulation(
                config, n_ranks=4, eager_games=True, fault_plan=plan, heartbeat_timeout=2.0
            ).run(timeout=300)
            for _ in range(2)
        ]
        assert runs[0].fault_events == runs[1].fault_events
        assert runs[0].fault_events[0].kind == "crash"
        assert runs[0].failed_ranks == runs[1].failed_ranks
        assert np.array_equal(runs[0].matrix, runs[1].matrix)

    def test_hung_worker_detected_by_heartbeat(self, config, serial_matrix):
        plan = FaultPlan(seed=2, events=(FaultEvent(kind="hang", rank=3, generation=12),))
        # The deadline is per generation of the window; the run is one window.
        result = ParallelSimulation(
            config, n_ranks=4, eager_games=True, fault_plan=plan,
            heartbeat_timeout=1.5 / config.generations,
        ).run(timeout=300)
        assert result.failed_ranks == (3,)
        assert "no heartbeat" in result.degradations[0].reason
        assert np.array_equal(result.matrix, serial_matrix)

    def test_message_drops_survived_by_reliable_channel(self, config, serial_matrix):
        plan = FaultPlan(seed=7, drop_p=0.03)
        result = ParallelSimulation(
            config, n_ranks=4, eager_games=True, fault_plan=plan, heartbeat_timeout=5.0
        ).run(timeout=500)
        assert np.array_equal(result.matrix, serial_matrix)
        assert result.counters.get("fault_drop").calls > 0
        assert result.counters.get("reliable_retry").calls > 0

    def test_two_workers_crash(self, config, serial_matrix):
        plan = FaultPlan(
            seed=5,
            events=(
                FaultEvent(kind="crash", rank=1, generation=15),
                FaultEvent(kind="crash", rank=3, generation=35),
            ),
        )
        result = ParallelSimulation(
            config, n_ranks=4, eager_games=True, fault_plan=plan, heartbeat_timeout=2.0
        ).run(timeout=300)
        assert result.failed_ranks == (1, 3)
        assert len(result.degradations) == 2
        assert np.array_equal(result.matrix, serial_matrix)


class TestCheckpointRestart:
    def test_killed_run_restarts_from_latest_checkpoint(
        self, config, serial_matrix, tmp_path
    ):
        """The acceptance restart run: kill Nature, resume, match fault-free."""
        plan = FaultPlan(
            seed=1,
            immune_ranks=(),
            events=(FaultEvent(kind="crash", rank=0, generation=35),),
        )
        first = ParallelSimulation(
            config,
            n_ranks=4,
            fault_plan=plan,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            heartbeat_timeout=2.0,
        )
        with pytest.raises(Exception):
            first.run(timeout=300)
        latest = latest_valid_parallel_checkpoint(tmp_path)
        assert latest is not None
        assert load_parallel_checkpoint(latest).generation == 30

        resumed = ParallelSimulation.resume(tmp_path, n_ranks=4).run(timeout=300)
        assert resumed.generation == config.generations
        assert np.array_equal(resumed.matrix, serial_matrix)

    def test_resume_at_different_rank_count(self, config, serial_matrix, tmp_path):
        """Checkpoint state is rank-count independent (only Nature's cursor)."""
        mid = ParallelSimulation(
            config, n_ranks=4, checkpoint_dir=tmp_path, checkpoint_every=30
        )
        result = mid.run(timeout=300)
        assert result.checkpoints  # wrote at least gen 30
        # Resume the *mid-run* checkpoint (gen 30) on a smaller world.
        resumed = ParallelSimulation.resume(result.checkpoints[0], n_ranks=3).run(timeout=300)
        assert np.array_equal(resumed.matrix, serial_matrix)

    def test_checkpoints_recorded_in_result(self, config, tmp_path):
        result = ParallelSimulation(
            config, n_ranks=3, checkpoint_dir=tmp_path, checkpoint_every=20
        ).run(timeout=300)
        assert len(result.checkpoints) == 3  # generations 20, 40, 60
        for path in result.checkpoints:
            assert load_parallel_checkpoint(path).generation in (20, 40, 60)
