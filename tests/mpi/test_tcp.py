"""Multi-host TCP transport: framing, session resumption, the launcher.

The socket layer (:mod:`repro.mpi.tcp`) is exercised directly — framing
round-trips, exactly-once delivery across an injected connection reset —
and through ``run_spmd(..., backend="tcp")``, which deals ranks
across OS-process "hosts" on loopback.  Network chaos must be a pure
function of the fault plan's seed, so the schedule determinism is asserted
here too.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.mpi.comm import World
from repro.mpi.executor import run_spmd
from repro.mpi.faults import FaultEvent, FaultInjector, FaultPlan
from repro.errors import MPIError
from repro.mpi.hostexec import (
    _ABORT_DRAIN_GRACE,
    MAX_TCP_HOSTS,
    MAX_TCP_RANKS,
)
from repro.mpi.tcp import (
    HostChannel,
    TcpNode,
    TcpOptions,
    recv_frame,
    send_frame,
)

pytestmark = pytest.mark.tcp


# -- framing -------------------------------------------------------------------


def test_frame_roundtrip():
    a, b = socket.socketpair()
    try:
        for blob in (b"", b"x", b"hello world" * 1000):
            send_frame(a, blob)
            assert recv_frame(b) == blob
    finally:
        a.close()
        b.close()


def test_frame_eof_is_none():
    a, b = socket.socketpair()
    a.close()
    try:
        assert recv_frame(b) is None
    finally:
        b.close()


# -- channel + node: delivery and session resumption ---------------------------


def _drain(received, n, deadline=10.0):
    end = time.monotonic() + deadline
    while len(received) < n and time.monotonic() < end:
        time.sleep(0.01)
    return received


def test_channel_delivers_in_order():
    received = []
    node = TcpNode(1, lambda *frame: received.append(frame))
    chan = HostChannel(0, 1, lambda h: node.addr, TcpOptions())
    try:
        for i in range(10):
            chan.send(0, 3, tag=5, payload={"i": i}, nbytes=64)
        _drain(received, 10)
        assert [frame[3]["i"] for frame in received] == list(range(10))
        assert received[0][:3] == (0, 3, 5)
    finally:
        chan.close()
        node.close()


def test_conn_reset_heals_exactly_once():
    # A connection reset mid-stream must be invisible to the application:
    # every frame arrives, none twice, order preserved — the resend window
    # plus the receiver's delivered watermark at work.
    received = []
    counters = None
    node = TcpNode(1, lambda *frame: received.append(frame))
    opts = TcpOptions(heartbeat_timeout=2.0)
    chan = HostChannel(0, 1, lambda h: node.addr, opts)
    counters = chan.counters
    try:
        for i in range(20):
            fault = ("conn_reset", 0.0) if i == 5 else None
            chan.send(0, 3, tag=9, payload=i, nbytes=8, fault=fault)
        _drain(received, 20)
        assert [frame[3] for frame in received] == list(range(20))
        assert counters.snapshot()["net.reconnect"].calls >= 1
    finally:
        chan.close()
        node.close()


def test_unreachable_after_grace():
    # A channel pointed at nothing: down_for() grows, and past the grace
    # the peer becomes locally unreachable.
    dead = socket.create_server(("127.0.0.1", 0))
    addr = dead.getsockname()
    dead.close()  # nobody listens here any more
    opts = TcpOptions(connect_timeout=0.2, reconnect_cap=0.05, unreachable_grace=0.4)
    chan = HostChannel(0, 1, lambda h: addr, opts)
    try:
        assert not chan.is_unreachable()
        time.sleep(0.6)
        assert chan.down_for() >= 0.4
        assert chan.is_unreachable()
    finally:
        chan.close()


# -- deterministic network chaos -----------------------------------------------


def test_link_fault_schedule_is_pure():
    plan = FaultPlan(seed=99, conn_reset_p=0.1, partition_p=0.05, slow_link_p=0.1)
    a, b = FaultInjector(plan), FaultInjector(plan)
    schedule = [
        (src, dst, idx, a.link_fault(src, dst, idx))
        for src in range(3)
        for dst in range(3)
        if src != dst
        for idx in range(50)
    ]
    replay = [
        (src, dst, idx, b.link_fault(src, dst, idx))
        for src in range(3)
        for dst in range(3)
        if src != dst
        for idx in range(50)
    ]
    assert schedule == replay
    fired = [s for s in schedule if s[3] is not None]
    assert fired, "plan with p=0.1 over 300 frames should fire"
    kinds = {s[3] for s in fired}
    assert kinds <= {"partition", "slow_link", "conn_reset"}


# -- the multi-host launcher ---------------------------------------------------
#    (rank programs are module-level: hosts are spawned OS processes)


def _ring_and_allreduce(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send({"from": comm.rank}, dest=right, tag=7)
    got = comm.recv(source=left, tag=7, timeout=30)
    total = comm.allreduce(comm.rank)
    return (got["from"], total)


def _respawn_probe(comm):
    if comm.incarnation > 0:
        return f"respawned-{comm.rank}"
    for gen in range(1, 6):
        comm.fault_point(gen)
    return f"original-{comm.rank}"


def test_ring_across_hosts():
    result = run_spmd(5, _ring_and_allreduce, backend="tcp", n_hosts=2, timeout=120.0)
    assert result.returns == [((r - 1) % 5, 10) for r in range(5)]
    snap = result.world.counters.snapshot()
    assert snap["net.frames"].calls > 0
    assert snap["net.connect"].calls >= 2


def test_ring_through_run_spmd_dispatch():
    result = run_spmd(4, _ring_and_allreduce, backend="tcp", n_hosts=2, timeout=120.0)
    assert result.returns == [((r - 1) % 4, 6) for r in range(4)]


@pytest.mark.parametrize("backend", ["process", "tcp"])
def test_runs_leave_no_thread_behind(backend):
    # Regression: every tcp run left its rendezvous accept thread alive in
    # the caller, so a supervised run that restarted N times held N listeners.
    def live():
        return sorted(t.name for t in threading.enumerate())

    before = live()
    for _ in range(2):
        run_spmd(3, _ring_and_allreduce, backend=backend, timeout=120.0)
    # Per-connection reader threads are not joined; they exit on socket close.
    deadline = time.monotonic() + 10.0
    while live() != before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live() == before


def _kill_host_of_rank_one(comm):
    pids = comm.gather(os.getpid(), root=0)
    if comm.rank == 0:
        os.kill(pids[1], signal.SIGKILL)
    comm.recv(source=(comm.rank + 1) % comm.size, tag=9, timeout=None)  # never sent


@pytest.mark.parametrize("backend", ["process", "tcp"])
def test_killed_host_aborts_the_world_promptly(backend):
    # Regression: the dead host's ranks stayed pending, so the launcher sat
    # out the whole drain grace waiting for parting words that cannot come.
    start = time.monotonic()
    with pytest.raises(MPIError, match="host 1"):
        run_spmd(3, _kill_host_of_rank_one, backend=backend, n_hosts=2, timeout=120.0)
    assert time.monotonic() - start < _ABORT_DRAIN_GRACE / 2


def test_injected_crash_respawns_across_hosts():
    plan = FaultPlan(seed=5, events=(FaultEvent(kind="crash", rank=2, generation=3),))
    result = run_spmd(
        4,
        _respawn_probe,
        backend="tcp",
        n_hosts=2,
        fault_injector=FaultInjector(plan),
        on_rank_failure="respawn",
        timeout=120.0,
    )
    assert result.returns[2] == "respawned-2"
    assert result.failed_ranks == ()
    assert [(r.rank, r.incarnation) for r in result.respawns] == [(2, 1)]


def test_launcher_validation():
    from repro.errors import MPIError

    with pytest.raises(MPIError):
        run_spmd(0, _ring_and_allreduce, backend="tcp")
    with pytest.raises(MPIError):
        run_spmd(MAX_TCP_RANKS + 1, _ring_and_allreduce, backend="tcp")
    with pytest.raises(MPIError):
        run_spmd(4, _ring_and_allreduce, backend="tcp", n_hosts=MAX_TCP_HOSTS + 1)
    with pytest.raises(MPIError):
        run_spmd(4, _ring_and_allreduce, backend="tcp", on_rank_failure="bogus")


def test_base_world_is_never_unreachable():
    assert World(3).is_unreachable(1) is False
