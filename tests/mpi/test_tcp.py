"""Multi-host TCP transport: framing, the channel, the launcher.

The socket layer (:mod:`repro.mpi.tcp`) is exercised directly — framing
round-trips, at-most-once delivery across an injected connection reset,
heartbeat liveness under a long stream — and through
``run_spmd(..., backend="tcp")``, which deals ranks across OS-process
"hosts" on loopback; there the reliable layer turns a reset into
exactly-once delivery.  Network chaos must be a pure
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
from repro.mpi import tcp
from repro.mpi.tcp import (
    HostChannel,
    TcpNode,
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


# -- channel + node: at-most-once delivery and liveness -------------------------


def _drain(received, n, deadline=10.0):
    end = time.monotonic() + deadline
    while len(received) < n and time.monotonic() < end:
        time.sleep(0.01)
    return received


def test_channel_delivers_in_order():
    received = []
    node = TcpNode(1, lambda *frame: received.append(frame))
    chan = HostChannel(0, 1, lambda h: node.addr)
    try:
        for i in range(10):
            chan.send(0, 3, tag=5, payload={"i": i}, nbytes=64)
        _drain(received, 10)
        assert [frame[3]["i"] for frame in received] == list(range(10))
        assert received[0][:3] == (0, 3, 5)
    finally:
        chan.close()
        node.close()


def test_conn_reset_is_at_most_once(monkeypatch):
    # The channel writes each frame at most once: frames in flight when the
    # reset hits may be lost (the reliable layer resends them), but none
    # arrives twice or out of order, and the frame the reset fell on waits
    # for the reconnect with everything queued behind it.  A slow receiver
    # leaves frames unread on the old socket when the reset hits, so they
    # would overtake the new connection's if the node let them.
    received = []

    def deliver(*frame):
        received.append(frame)
        time.sleep(0.01)

    node = TcpNode(1, deliver)
    monkeypatch.setattr(tcp, "_HEARTBEAT_TIMEOUT", 2.0)
    chan = HostChannel(0, 1, lambda h: node.addr)
    try:
        for i in range(20):
            fault = ("conn_reset", 0.0) if i == 5 else None
            chan.send(0, 3, tag=9, payload=i, nbytes=8, fault=fault)
        end = time.monotonic() + 10.0
        while (not received or received[-1][3] != 19) and time.monotonic() < end:
            time.sleep(0.01)
        got = [frame[3] for frame in received]
        assert got == sorted(set(got))
        assert set(range(5, 20)) <= set(got)
        assert chan.counters.snapshot()["net.reconnect"].calls >= 1
    finally:
        chan.close()
        node.close()


def test_a_long_stream_keeps_a_healthy_link(monkeypatch):
    # Liveness rests on pings alone: a stream longer than heartbeat_timeout
    # followed by an idle spell must not read as a silent peer.
    received = []
    node = TcpNode(1, lambda *frame: received.append(frame))
    monkeypatch.setattr(tcp, "_HEARTBEAT_TIMEOUT", 2.0)
    chan = HostChannel(0, 1, lambda h: node.addr)
    try:
        sent = 0
        end = time.monotonic() + 3.0
        while time.monotonic() < end:
            chan.send(0, 3, tag=1, payload=sent, nbytes=8)
            sent += 1
            time.sleep(0.005)
        time.sleep(1.0)
        chan.send(0, 3, tag=1, payload=sent, nbytes=8)
        sent += 1
        _drain(received, sent)
        assert [frame[3] for frame in received] == list(range(sent))
        snap = chan.counters.snapshot()
        assert "net.reconnect" not in snap
        assert snap["net.heartbeat"].calls >= 4  # pings flow during the stream
    finally:
        chan.close()
        node.close()


def test_unreachable_after_grace(monkeypatch):
    # A channel pointed at nothing: down_for() grows, and past the grace
    # the peer becomes locally unreachable.
    dead = socket.create_server(("127.0.0.1", 0))
    addr = dead.getsockname()
    dead.close()  # nobody listens here any more
    monkeypatch.setattr(tcp, "_CONNECT_TIMEOUT", 0.2)
    monkeypatch.setattr(tcp, "_RECONNECT_CAP", 0.05)
    monkeypatch.setattr(tcp, "_UNREACHABLE_GRACE", 0.4)
    chan = HostChannel(0, 1, lambda h: addr)
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


def _reliable_stream(comm):
    if comm.rank == 0:
        for i in range(40):
            comm.send_reliable(i, dest=1, tag=3)
        return None
    return [comm.recv_reliable(source=0, tag=3, timeout=30) for _ in range(40)]


def test_reliable_sends_survive_conn_resets_exactly_once():
    # Exactly-once is the reliable layer's promise on every backend: socket
    # resets under rank 0's frames to rank 1 (the first, a middle and a late
    # one) change nothing the receiver sees.
    plan = FaultPlan(
        seed=3,
        events=tuple(
            FaultEvent(kind="conn_reset", rank=0, dest=1, op_index=k) for k in (0, 7, 23)
        ),
    )
    result = run_spmd(
        2, _reliable_stream, backend="tcp", n_hosts=2,
        fault_injector=FaultInjector(plan), timeout=120.0,
    )
    assert result.returns[1] == list(range(40))
    assert result.world.counters.snapshot()["net.conn_reset"].calls >= 1


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
