"""Backend parity: thread and process SPMD backends give the same science.

All randomness in a ``ParallelSimulation`` comes from seed-keyed streams
(:mod:`repro.rng.streams`), never from scheduling, so switching the rank
substrate from threads to OS processes must not move a single bit of the
trajectory.  These runs fork real processes per rank — world sizes stay
small and generation counts short.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.mpi.faults import FaultEvent, FaultPlan
from repro.parallel.runner import ParallelSimulation

pytestmark = pytest.mark.procexec


@pytest.fixture(scope="module")
def config() -> SimulationConfig:
    return SimulationConfig(memory=1, n_ssets=8, generations=40, seed=13, rounds=10)


class TestTrajectoryParity:
    def test_plain_run_traffic_matches(self, config):
        """A default run's windows, hence heartbeats, do not depend on the
        substrate.  A host process may ship its counters before its FTFinal's
        ack is counted: up to P-1 fewer confirmed sends."""
        threaded = ParallelSimulation(
            config, n_ranks=3, eager_games=True, backend="thread"
        ).run(timeout=300)
        processed = ParallelSimulation(
            config, n_ranks=3, eager_games=True, backend="process"
        ).run(timeout=300)
        assert threaded.counters["heartbeat"].calls == processed.counters["heartbeat"].calls
        sends = threaded.counters["reliable_send"].calls
        assert sends - 2 <= processed.counters["reliable_send"].calls <= sends

    def test_fault_tolerant_protocol_bit_identical(self, config):
        threaded = ParallelSimulation(
            config, n_ranks=3, eager_games=True, backend="thread"
        ).run(timeout=300)
        processed = ParallelSimulation(
            config, n_ranks=3, eager_games=True, backend="process"
        ).run(timeout=300)
        assert np.array_equal(threaded.matrix, processed.matrix)
        assert threaded.n_pc_events == processed.n_pc_events
        assert threaded.failed_ranks == processed.failed_ranks == ()

    def test_memory3_run_bit_identical(self):
        cfg = SimulationConfig(memory=3, n_ssets=6, generations=40, seed=13, rounds=10)
        threaded = ParallelSimulation(
            cfg, n_ranks=3, eager_games=True, backend="thread"
        ).run(timeout=300)
        processed = ParallelSimulation(
            cfg, n_ranks=3, eager_games=True, backend="process"
        ).run(timeout=300)
        assert np.array_equal(threaded.matrix, processed.matrix)
        assert threaded.n_pc_events == processed.n_pc_events
        assert threaded.n_mutations == processed.n_mutations


class TestZeroSSetWorkers:
    """More workers than SSets: surplus workers idle but must not wedge.

    Regression for the fitness-return step with ``n_ssets=3, n_ranks=8``
    (7 workers for 3 SSets): a PC always finds a live owner, a zero-block
    worker still heartbeats, and the trajectory matches a minimal world bit
    for bit on both backends.
    """

    @pytest.fixture(scope="class")
    def small_world(self) -> SimulationConfig:
        return SimulationConfig(memory=1, n_ssets=3, generations=40, seed=13, rounds=10)

    def test_fault_tolerant_protocol_completes_and_matches(self, small_world):
        reference = ParallelSimulation(
            small_world, n_ranks=2, eager_games=True, backend="thread"
        ).run(timeout=300)
        threaded = ParallelSimulation(
            small_world, n_ranks=8, eager_games=True, backend="thread"
        ).run(timeout=300)
        processed = ParallelSimulation(
            small_world, n_ranks=8, eager_games=True, backend="process"
        ).run(timeout=300)
        assert np.array_equal(reference.matrix, threaded.matrix)
        assert np.array_equal(reference.matrix, processed.matrix)
        assert reference.n_pc_events == threaded.n_pc_events == processed.n_pc_events
        assert threaded.failed_ranks == processed.failed_ranks == ()


@pytest.mark.chaos
class TestProcessCrashChaos:
    def test_worker_process_death_degrades_and_matches(self, config):
        """An injected crash kills a real OS process; survivors finish the
        run and — crash-only chaos being trajectory-neutral — reproduce the
        fault-free matrix bit-exactly."""
        plan = FaultPlan(seed=1, events=(FaultEvent(kind="crash", rank=2, generation=20),))
        baseline = ParallelSimulation(
            config, n_ranks=4, eager_games=True, backend="process"
        ).run(timeout=300)
        result = ParallelSimulation(
            config, n_ranks=4, eager_games=True, fault_plan=plan, heartbeat_timeout=2.0,
            backend="process",
        ).run(timeout=300)
        assert result.failed_ranks == (2,)
        assert len(result.degradations) == 1
        assert result.degradations[0].generation == 40  # the end of the window holding 20
        assert np.array_equal(result.matrix, baseline.matrix)

    def test_same_fault_seed_same_schedule_across_backends(self, config):
        """Fault schedules are pure functions of (seed, kind, key), so the
        same plan fires identically whether ranks are threads or processes."""
        plan = FaultPlan(seed=1, events=(FaultEvent(kind="crash", rank=2, generation=20),))
        runs = [
            ParallelSimulation(
                config, n_ranks=4, eager_games=True, fault_plan=plan, heartbeat_timeout=2.0,
                backend=backend,
            ).run(timeout=300)
            for backend in ("thread", "process")
        ]
        assert runs[0].failed_ranks == runs[1].failed_ranks == (2,)
        assert np.array_equal(runs[0].matrix, runs[1].matrix)

    def test_message_chaos_parity_across_backends(self, config):
        """Message chaos (corrupt/drop/duplicate) is rejected and repaired by
        the reliable layer the same way over queues as over mailboxes —
        trajectories stay bit-identical."""
        plan = FaultPlan(seed=9, corrupt_p=0.03, drop_p=0.03, duplicate_p=0.03)
        threaded = ParallelSimulation(
            config, n_ranks=3, eager_games=True, fault_plan=plan, backend="thread"
        ).run(timeout=300)
        processed = ParallelSimulation(
            config, n_ranks=3, eager_games=True, fault_plan=plan, backend="process"
        ).run(timeout=300)
        assert np.array_equal(threaded.matrix, processed.matrix)
        assert threaded.failed_ranks == processed.failed_ranks == ()
