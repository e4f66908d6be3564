"""Tests for the SPMD executor."""

import threading

import numpy as np
import pytest

from repro.errors import CommAbortError, MPIError
from repro.mpi.executor import MAX_THREAD_RANKS, run_spmd
from repro.mpi.faults import FaultEvent, FaultInjector, FaultPlan
from repro.mpi.hostexec import _Host
from repro.obs.tracer import Tracer


class TestBasics:
    def test_returns_indexed_by_rank(self):
        res = run_spmd(6, lambda comm: comm.rank * 3, timeout=30)
        assert res.returns == [0, 3, 6, 9, 12, 15]

    def test_extra_args_passed(self):
        res = run_spmd(3, lambda comm, a, b: (comm.rank, a, b), args=("x", 7), timeout=30)
        assert res.returns[2] == (2, "x", 7)

    def test_single_rank(self):
        res = run_spmd(1, lambda comm: comm.size, timeout=30)
        assert res.returns == [1]

    def test_world_exposed(self):
        res = run_spmd(2, lambda comm: None, timeout=30)
        assert res.world.size == 2


class TestErrors:
    def test_first_failure_reraised(self):
        def prog(comm):
            if comm.rank == 1:
                raise KeyError("rank1")
            if comm.rank == 3:
                raise ValueError("rank3")
            comm.recv(source=0, timeout=10)  # never satisfied; must be unblocked

        with pytest.raises((KeyError, ValueError)):
            run_spmd(4, prog, timeout=30)

    def test_size_bounds(self):
        with pytest.raises(MPIError):
            run_spmd(0, lambda comm: None)
        with pytest.raises(MPIError):
            run_spmd(MAX_THREAD_RANKS + 1, lambda comm: None)

    def test_timeout_aborts(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1, timeout=None)  # blocks forever

        with pytest.raises(MPIError, match="timed out"):
            run_spmd(2, prog, timeout=0.5)


class TestScale:
    def test_moderate_world(self):
        def prog(comm):
            return comm.allreduce(1)

        res = run_spmd(64, prog, timeout=120)
        assert all(v == 64 for v in res.returns)


# -- the launcher's contract, identical on every backend ------------------------
#    (module-level rank programs: process and tcp hosts are OS processes)


def _ring_then_crash(comm):
    comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=1)
    got = comm.recv(source=(comm.rank - 1) % comm.size, tag=1, timeout=30)
    comm.barrier()  # nothing is in flight when the fault fires
    for gen in range(5):
        comm.fault_point(gen)
    return got


def _hang_until_shutdown(comm):
    if comm.rank == 1:
        comm.fault_point(1)  # never returns until shutdown
        return "unreachable"
    comm.world.shutdown()
    return "done"


def _abort_on_rank_one(comm):
    if comm.rank == 1:
        comm.abort("enough")
    comm.recv(source=1, tag=9, timeout=None)  # never sent; must be unblocked


def _block_forever(comm):
    if comm.rank == 0:
        comm.recv(source=1, timeout=None)  # never satisfied


def _two_ranks_fail(comm):
    if comm.rank == 1:
        raise KeyError("rank1")
    if comm.rank == 3:
        raise ValueError("rank3")
    comm.recv(source=3, tag=9, timeout=None)  # never sent; must be unblocked


@pytest.mark.parametrize("backend", ["thread", "process", "tcp"])
class TestLauncherContract:
    """One launcher serves all three backends: the same program leaves the
    same ``SPMDResult`` — returns, world record, traffic — on each."""

    def test_injected_crash_under_continue(self, backend):
        plan = FaultPlan(events=(FaultEvent(kind="crash", rank=2, generation=3),))
        res = run_spmd(
            3, _ring_then_crash, backend=backend, timeout=120,
            fault_injector=FaultInjector(plan), on_rank_failure="continue",
        )
        assert res.returns == [2, 0, None]
        assert res.failed_ranks == (2,) and res.respawns == ()
        assert res.world.failed_ranks == {2}
        assert "injected crash at generation 3" in res.world.failure_reasons[2]
        assert res.world.counters.get("send").messages == 3 + 4  # ring + barrier
        assert res.world.counters.get("fault_crash").calls == 1

    def test_injected_hang_released_by_shutdown(self, backend):
        plan = FaultPlan(events=(FaultEvent(kind="hang", rank=1, generation=1),))
        res = run_spmd(
            2, _hang_until_shutdown, backend=backend, timeout=120,
            fault_injector=FaultInjector(plan), on_rank_failure="continue",
        )
        assert res.returns == ["done", None]
        assert res.failed_ranks == (1,)
        assert "injected hang at generation 1" in res.world.failure_reasons[1]
        assert res.world.stop_event.is_set() and not res.world.abort_event.is_set()

    def test_deliberate_abort_surfaces(self, backend):
        with pytest.raises(CommAbortError, match="rank 1: enough"):
            run_spmd(3, _abort_on_rank_one, backend=backend, timeout=120)

    def test_timeout_aborts(self, backend):
        with pytest.raises(MPIError, match="timed out after 1.0 s"):
            run_spmd(2, _block_forever, backend=backend, timeout=1.0)

    def test_first_failure_is_the_lowest_rank(self, backend):
        with pytest.raises(KeyError, match="rank1"):
            run_spmd(4, _two_ranks_fail, backend=backend, timeout=120)


def test_stale_mark_broadcast_does_not_undo_a_later_local_mark():
    """Regression: Nature's host marks a rejoining rank alive while the
    broadcast of an earlier mark_failed is still in flight; applying that
    broadcast on arrival failed the rank again mid-handshake."""
    told = []
    host = _Host(0, 2, 4, lambda comm: None, (), "abort", None, None)  # host 0: ranks 0, 2
    host.tell = told.append
    host.mark_failed(2, "no heartbeat")
    host._on_ctrl(("apply", "mark_failed", 2, "crashed", 1))  # host 1's, ordered first
    host.mark_alive(2)
    host._on_ctrl(("apply", *told[0][1:]))  # our mark_failed comes back ...
    assert not host.is_failed(2)  # ... and is not applied twice
    host._on_ctrl(("apply", *told[1][1:]))
    # Once ours are all back, a mark from elsewhere applies again.
    host._on_ctrl(("apply", "mark_failed", 2, "partitioned", 1))
    assert host.is_failed(2)


class TestThreadWorldPicklesNothing:
    """Pickling is a property of the links a backend chooses, and a thread
    world has none: everything passes by reference."""

    def test_payload_passes_by_reference(self):
        sent = np.arange(8)

        def prog(comm):
            if comm.rank == 0:
                comm.send(sent, dest=1)
                return None
            return comm.recv(source=0, timeout=30) is sent

        assert run_spmd(2, prog, timeout=30).returns[1] is True

    def test_lambda_program_and_unpicklable_return(self):
        lock = threading.Lock()
        res = run_spmd(2, lambda comm: lock, timeout=30)
        assert res.returns[0] is lock and res.returns[1] is lock

    def test_reraised_exception_is_the_rank_s_own_object(self):
        boom = RuntimeError("boom")

        def prog(comm):
            if comm.rank == 1:
                raise boom
            comm.recv(source=1, timeout=None)

        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(2, prog, timeout=30)
        assert excinfo.value is boom

    def test_callers_injector_and_tracer_are_used_live(self):
        injector = FaultInjector(FaultPlan(events=(FaultEvent(kind="drop", rank=0, op_index=0),)))
        tracer = Tracer()

        def prog(comm):
            if comm.rank == 0:
                comm.send("lost", dest=1)
                # Seen from inside the run: no merge step stands in between.
                return (len(injector.log), len(tracer))
            return None

        res = run_spmd(2, prog, timeout=30, fault_injector=injector, tracer=tracer)
        seen_faults, seen_events = res.returns[0]
        assert seen_faults == 1 and seen_events >= 1
        assert res.world.injector is injector and res.world.tracer is tracer
        assert [rec.kind for rec in injector.log] == ["drop"]
