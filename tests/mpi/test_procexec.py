"""Tests for the process-based SPMD backend.

Every rank is a real OS process here, so rank programs must be module-level
functions (picklable under any multiprocessing start method) and world
sizes stay small — each rank costs a fork, not a thread.
"""

import os

import pytest

from repro.errors import MPIError
from repro.mpi.executor import run_spmd
from repro.mpi.faults import FaultEvent, FaultInjector, FaultPlan
from repro.mpi.hostexec import MAX_PROCESS_RANKS
from repro.obs.tracer import Tracer

pytestmark = pytest.mark.procexec


# -- rank programs (module-level: picklable) ----------------------------------


def _triple_rank(comm):
    return comm.rank * 3


def _echo_args(comm, a, b):
    return (comm.rank, a, b)


def _pid_of_rank(comm):
    return os.getpid()


def _collective_medley(comm):
    """One pass through every collective; the return value fingerprints all."""
    word = comm.bcast("hello" if comm.rank == 0 else None, root=0)
    total = comm.allreduce(comm.rank)
    rows = comm.gather(comm.rank * 10, root=1)
    parts = comm.bcast([f"part-{i}" for i in range(comm.size)] if comm.rank == 0 else None)
    piece = parts[comm.rank]
    everyone = comm.bcast(comm.gather(comm.rank**2, root=0), root=0)
    comm.barrier()
    return (word, total, rows, piece, everyone)


def _ring_exchange(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send({"from": comm.rank}, dest=right, tag=7)
    got = comm.recv(source=left, tag=7, timeout=30)
    return got["from"]


def _reliable_pair(comm):
    if comm.rank == 0:
        return comm.send_reliable("payload", dest=1)
    return comm.recv_reliable(source=0, timeout=30)


def _block_forever(comm):
    if comm.rank == 0:
        comm.recv(source=1, timeout=None)  # never satisfied


def _fail_on_rank_one(comm):
    if comm.rank == 1:
        raise ValueError("boom on rank 1")
    return comm.rank


def _unpicklable_send(comm):
    if comm.rank == 0:
        comm.send(lambda: None, dest=1)  # lambdas do not pickle
    else:
        comm.recv(source=0, timeout=10)


def _crash_at_generation(comm):
    for gen in range(5):
        comm.fault_point(gen)
    return comm.rank


def _traced_pingpong(comm):
    if comm.rank == 0:
        comm.send("ping", dest=1, tag=1)
        return comm.recv(source=1, tag=2, timeout=30)
    ping = comm.recv(source=0, tag=1, timeout=30)
    comm.send(ping + "-pong", dest=0, tag=2)
    return ping


def _respawn_probe(comm):
    """Original incarnation of rank 2 dies at generation 3; others just run."""
    inc = comm.incarnation
    if comm.rank == 2 and inc == 0:
        for gen in range(5):
            comm.fault_point(gen)
    return (comm.rank, inc)


# -- tests --------------------------------------------------------------------


class TestBasics:
    def test_returns_indexed_by_rank(self):
        res = run_spmd(3, _triple_rank, timeout=60, backend="process")
        assert res.returns == [0, 3, 6]

    def test_extra_args_passed(self):
        res = run_spmd(3, _echo_args, args=("x", 7), timeout=60, backend="process")
        assert res.returns[2] == (2, "x", 7)

    def test_single_rank(self):
        res = run_spmd(1, _triple_rank, timeout=60, backend="process")
        assert res.returns == [0]

    def test_ranks_are_distinct_processes(self):
        res = run_spmd(3, _pid_of_rank, timeout=60, backend="process")
        pids = set(res.returns)
        assert len(pids) == 3
        assert os.getpid() not in pids

    def test_size_bounds(self):
        with pytest.raises(MPIError):
            run_spmd(0, _triple_rank, backend="process")
        with pytest.raises(MPIError):
            run_spmd(MAX_PROCESS_RANKS + 1, _triple_rank, backend="process")

    def test_unknown_backend_rejected(self):
        with pytest.raises(MPIError, match="backend"):
            run_spmd(2, _triple_rank, backend="fiber")


class TestParityWithThreads:
    """The same rank program gives the same answers under either backend."""

    def test_collectives_match(self):
        threaded = run_spmd(4, _collective_medley, timeout=60, backend="thread")
        processed = run_spmd(4, _collective_medley, timeout=120, backend="process")
        assert threaded.returns == processed.returns

    def test_p2p_ring_matches(self):
        threaded = run_spmd(4, _ring_exchange, timeout=60, backend="thread")
        processed = run_spmd(4, _ring_exchange, timeout=120, backend="process")
        assert threaded.returns == processed.returns

    def test_send_counters_match(self):
        threaded = run_spmd(4, _ring_exchange, timeout=60, backend="thread")
        processed = run_spmd(4, _ring_exchange, timeout=120, backend="process")
        assert (
            threaded.world.counters.get("send").messages
            == processed.world.counters.get("send").messages
        )


class TestReliable:
    def test_survives_dropped_data_frame(self):
        plan = FaultPlan(events=(FaultEvent(kind="drop", rank=0, op_index=0),))
        res = run_spmd(
            2, _reliable_pair, timeout=120, fault_injector=FaultInjector(plan),
            backend="process",
        )
        assert res.returns[0] == 2  # one retry
        assert res.returns[1] == "payload"
        assert res.world.counters.get("reliable_retry").calls == 1

    def test_fault_log_merged_to_parent(self):
        plan = FaultPlan(events=(FaultEvent(kind="drop", rank=0, op_index=0),))
        injector = FaultInjector(plan)
        run_spmd(2, _reliable_pair, timeout=120, fault_injector=injector, backend="process")
        assert any(rec.kind == "drop" for rec in injector.log)


class TestErrors:
    def test_rank_exception_reraised(self):
        with pytest.raises(ValueError, match="boom on rank 1"):
            run_spmd(3, _fail_on_rank_one, timeout=120, backend="process")

    def test_timeout_aborts(self):
        with pytest.raises(MPIError, match="timed out"):
            run_spmd(2, _block_forever, timeout=2.0, backend="process")

    @pytest.mark.parametrize("backend", ["process", "tcp"])
    def test_unpicklable_payload_raises_at_sender(self, backend):
        with pytest.raises(MPIError, match="pickl"):
            run_spmd(2, _unpicklable_send, timeout=60, backend=backend)


class TestProcessDeath:
    def test_injected_crash_kills_the_process(self):
        """A crash fault is a real exit under continue, and the job survives."""
        plan = FaultPlan(seed=1, events=(FaultEvent(kind="crash", rank=2, generation=3),))
        res = run_spmd(
            3,
            _crash_at_generation,
            timeout=120,
            fault_injector=FaultInjector(plan),
            on_rank_failure="continue",
            backend="process",
        )
        assert res.failed_ranks == (2,)
        assert res.returns[2] is None
        assert res.returns[0] == 0 and res.returns[1] == 1


class TestRespawn:
    def test_dead_rank_is_replaced_by_fresh_incarnation(self):
        """Under respawn, a crashed rank's slot is refilled by incarnation 1."""
        plan = FaultPlan(seed=1, events=(FaultEvent(kind="crash", rank=2, generation=3),))
        res = run_spmd(
            3,
            _respawn_probe,
            timeout=120,
            fault_injector=FaultInjector(plan),
            on_rank_failure="respawn",
            backend="process",
        )
        assert res.failed_ranks == ()
        assert [r.rank for r in res.respawns] == [2]
        assert res.respawns[0].incarnation == 1
        # The slot holds the *replacement's* return value.
        assert res.returns[2] == (2, 1)
        assert res.returns[0] == (0, 0) and res.returns[1] == (1, 0)

    def test_exhausted_budget_leaves_rank_degraded(self):
        plan = FaultPlan(seed=1, events=(FaultEvent(kind="crash", rank=2, generation=3),))
        res = run_spmd(
            3,
            _respawn_probe,
            timeout=120,
            fault_injector=FaultInjector(plan),
            on_rank_failure="respawn",
            max_respawns=0,
            backend="process",
        )
        assert res.failed_ranks == (2,)
        assert res.respawns == ()
        assert res.returns[2] is None

    def test_thread_backend_rejects_respawn(self):
        with pytest.raises(MPIError, match="process"):
            run_spmd(2, _triple_rank, on_rank_failure="respawn", backend="thread")


class TestTracerMerge:
    def test_per_rank_tracks_survive_the_merge(self):
        tracer = Tracer()
        run_spmd(2, _traced_pingpong, timeout=120, tracer=tracer, backend="process")
        ranks = {e.rank for e in tracer.events()}
        assert {0, 1} <= ranks
        names = {e.name for e in tracer.events()}
        assert "send" in names and "recv" in names

    def test_flow_arrows_join_across_processes(self):
        tracer = Tracer()
        run_spmd(2, _traced_pingpong, timeout=120, tracer=tracer, backend="process")
        flows: dict[int, set[str]] = {}
        for e in tracer.events():
            if e.flow_id:
                flows.setdefault(e.flow_id, set()).add(e.ph)
        # At least one send->recv pair shares a flow id with both ends.
        assert any({"s", "f"} <= phases for phases in flows.values())

    def test_flow_stripes_unique_across_successive_runs(self):
        """Regression: a second run on the same tracer must draw fresh flow
        stripes.  Stripes used to be a pure function of rank, so a restarted
        rank's buffer reused a surviving (earlier) rank's flow-id range and
        the merged Perfetto export bound unrelated arrows together."""
        tracer = Tracer()
        run_spmd(2, _traced_pingpong, timeout=120, tracer=tracer, backend="process")
        first = {e.flow_id for e in tracer.events() if e.flow_id}
        assert first, "expected flow arrows from the first run"
        run_spmd(2, _traced_pingpong, timeout=120, tracer=tracer, backend="process")
        second = {e.flow_id for e in tracer.events() if e.flow_id} - first
        assert second, "expected fresh flow ids from the second run"
        assert not (first & second)
        # Parent-side ids live in stripe 0, below every rank stripe.
        assert tracer.new_flow_id() < min(first | second)
