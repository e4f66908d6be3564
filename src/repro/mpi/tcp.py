"""Multi-host TCP transport: framed sockets under the unchanged ``Comm`` API.

The paper's 262,144-rank runs cross a real network, where RSTs, partitions
and congested links are routine.  This module is the socket substrate that
lets our virtual MPI face them: hosts (OS processes, each carrying one rank
thread under the process backend or several under tcp — see
:mod:`repro.mpi.hostexec`) exchange **length-prefixed, pickled frames** over
loopback-or-real TCP, with the robustness machinery the in-process thread
backend never needs:

* a **rendezvous/bootstrap listener** (:class:`Rendezvous`): hosts dial in,
  present an incarnation-tagged :class:`NetHello`, and — once every
  expected host has registered — receive a :class:`NetWelcome` carrying the
  membership view (host data addresses, the rank→host map, world size).
  The registration connection stays open as the run's control plane.
* **per-peer connection supervisors** (:class:`HostChannel`): one outbound
  channel per (local host, peer host) pair, reconnecting after any socket
  death with capped + jittered exponential backoff
  (:func:`repro.mpi.comm.backoff_wait`) and pinging its peer every
  heartbeat interval, whatever the data traffic, to tell a live link from
  a dead one.  The channel is a plain pipe, at most once and in order: it
  writes each frame once, so a frame the socket lost on a reset is gone.
  Exactly-once delivery is :meth:`~repro.mpi.comm.Comm.post_reliable`'s
  job, on this backend as on the others: its retransmission heals a socket
  fault the way it heals an injected ``drop``.
* **partition detection that degrades gracefully**: a link down longer than
  ``_UNREACHABLE_GRACE`` seconds makes the peer's ranks *locally*
  unreachable — sends and receives raise
  :class:`~repro.errors.PeerUnreachableError` (a
  :class:`~repro.errors.RankFailedError`), feeding the existing degradation
  paths: Nature redistributes the victim's SSets, or the victim rejoins via
  FTHello/FTRejoin across hosts once the partition heals.
* **deterministic network chaos**: the injector's
  :meth:`~repro.mpi.faults.FaultInjector.link_fault` is consulted once per
  data frame, keyed by the directed rank pair's frame ordinal, so
  ``partition`` / ``slow_link`` / ``conn_reset`` schedules are pure
  functions of the plan seed (bit-reproducible), while the *healing* —
  reconnect, resend, rejoin — runs on real wall-clock sockets.

Traffic lands on the shared :class:`~repro.mpi.counters.CommCounters`
under ``net.*`` ops (see :mod:`repro.mpi.counters`) and reconnect /
partition events become tracer instants, so ``python -m repro.obs.report``
shows the socket layer next to the MPI layer.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import MPIError, PeerUnreachableError
from repro.logging_util import get_logger
from repro.mpi.comm import backoff_wait
from repro.mpi.counters import CommCounters
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "NetHello",
    "NetWelcome",
    "Rendezvous",
    "ControlClient",
    "HostChannel",
    "TcpNode",
    "send_frame",
    "recv_frame",
]

_LOG = get_logger("mpi.tcp")

_LEN = struct.Struct(">I")
_MAX_FRAME = 1 << 30


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def send_frame(sock: socket.socket, blob: bytes) -> None:
    """Write one length-prefixed frame (4-byte big-endian length + body)."""
    if len(blob) > _MAX_FRAME:
        raise MPIError(f"frame of {len(blob)} bytes exceeds the {_MAX_FRAME} B limit")
    sock.sendall(_LEN.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks: list[bytes] = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes | None:
    """Read one length-prefixed frame; ``None`` on orderly EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > _MAX_FRAME:
        raise MPIError(f"peer announced a {length} B frame (limit {_MAX_FRAME} B)")
    return _recv_exact(sock, length)


#: Seconds between liveness pings on a connected link, whatever its traffic.
_HEARTBEAT_INTERVAL = 0.5
#: Seconds a ping may go unanswered before a connected link is declared
#: down and torn up for reconnection.
_HEARTBEAT_TIMEOUT = 5.0
#: Seconds one TCP connect may take.
_CONNECT_TIMEOUT = 5.0
#: First wait, growth factor, jitter and cap of the backoff between
#: reconnect attempts (:func:`repro.mpi.comm.backoff_wait`).
_RECONNECT_BASE = 0.02
_RECONNECT_FACTOR = 2.0
_RECONNECT_JITTER = 0.5
_RECONNECT_CAP = 0.5
#: Seconds a link may stay down before the peer host's ranks become locally
#: unreachable (:class:`~repro.errors.PeerUnreachableError`).
_UNREACHABLE_GRACE = 10.0

_PING = _dumps(("ping",))
_PONG = _dumps(("pong",))


@dataclass(frozen=True)
class NetHello:
    """A host's dial-in: who it is, which incarnation, where its data lives.

    ``incarnation`` counts registrations of this host id with the
    rendezvous (0 for the original, increasing across respawn-style
    rejoins), so the rendezvous can tell a fresh arrival from a stale one.
    """

    host: int
    incarnation: int
    data_addr: tuple[str, int]
    ranks: tuple[int, ...] = ()


@dataclass(frozen=True)
class NetWelcome:
    """The membership view a registered host receives back.

    ``hosts`` maps host id → data-plane address; ``rank_hosts`` maps rank →
    owning host; ``world_size`` is the rank count, fixed for the run.
    """

    hosts: dict[int, tuple[str, int]]
    rank_hosts: dict[int, int]
    world_size: int


class Rendezvous:
    """The bootstrap listener + control hub (runs inside the launcher).

    Hosts connect, send ``("hello", NetHello)`` and block until all
    ``n_hosts`` peers have registered; then each receives
    ``("welcome", NetWelcome)`` and the connection becomes a persistent
    control channel: every later inbound frame is handed to ``handler(host,
    msg)`` on the connection's reader thread, and the launcher answers via
    :meth:`send` / :meth:`broadcast`.  Sends are serialised per connection,
    so control messages from different launcher threads never interleave.
    """

    def __init__(
        self,
        n_hosts: int,
        rank_hosts: dict[int, int],
        handler: Callable[[int, Any], None],
        host: str = "127.0.0.1",
    ) -> None:
        if n_hosts < 1:
            raise MPIError(f"n_hosts must be >= 1, got {n_hosts}")
        self.n_hosts = n_hosts
        self.rank_hosts = dict(rank_hosts)
        self._handler = handler
        self._lock = threading.Lock()
        self._hellos: dict[int, NetHello] = {}
        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._welcomed = False
        self._closed = False
        self.ready = threading.Event()
        self._listener = socket.create_server((host, 0))
        self.addr: tuple[str, int] = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tcp-rendezvous", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(sock,), name="tcp-rendezvous-conn", daemon=True
            ).start()

    def _serve(self, sock: socket.socket) -> None:
        host_id = -1
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            blob = recv_frame(sock)
            if blob is None:
                sock.close()
                return
            op, hello = pickle.loads(blob)
            if op != "hello" or not isinstance(hello, NetHello):
                sock.close()
                return
            host_id = hello.host
            with self._lock:
                self._hellos[host_id] = hello
                self._conns[host_id] = sock
                self._send_locks.setdefault(host_id, threading.Lock())
                complete = len(self._hellos) >= self.n_hosts and not self._welcomed
                if complete:
                    self._welcomed = True
            if complete:
                self._send_welcomes()
            while not self._closed:
                blob = recv_frame(sock)
                if blob is None:
                    break
                msg = pickle.loads(blob)
                try:
                    self._handler(host_id, msg)
                except Exception:  # noqa: BLE001 - one bad op must not cut the control plane
                    _LOG.exception("control handler failed for host %d", host_id)
        except (OSError, EOFError, pickle.UnpicklingError):
            pass
        finally:
            if host_id >= 0 and not self._closed:
                self._handler(host_id, ("ctrl_lost",))

    def _send_welcomes(self) -> None:
        with self._lock:
            hosts = {hid: h.data_addr for hid, h in self._hellos.items()}
            targets = dict(self._conns)
        welcome = NetWelcome(
            hosts=hosts, rank_hosts=dict(self.rank_hosts), world_size=len(self.rank_hosts)
        )
        for hid in sorted(targets):
            self.send(hid, ("welcome", welcome))
        self.ready.set()

    def send(self, host_id: int, msg: Any) -> None:
        """Ship one control message to ``host_id`` (serialised per host)."""
        with self._lock:
            sock = self._conns.get(host_id)
            slock = self._send_locks.setdefault(host_id, threading.Lock())
        if sock is None:
            raise MPIError(f"no control connection to host {host_id}")
        with slock:
            send_frame(sock, _dumps(msg))

    def broadcast(self, msg: Any) -> None:
        """Ship one control message to every registered host; best-effort."""
        with self._lock:
            targets = sorted(self._conns)
        for hid in targets:
            try:
                self.send(hid, msg)
            except OSError:  # a dead host's ctrl socket; its ranks will fail
                _LOG.debug("control broadcast to host %d failed", hid)

    def close(self) -> None:
        self._closed = True
        try:
            # close() alone does not wake a thread blocked in accept() on Linux.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass


class ControlClient:
    """A host's persistent connection to the :class:`Rendezvous`.

    Construction dials in, sends the :class:`NetHello` and blocks until the
    :class:`NetWelcome` arrives (i.e. until every host registered).  A
    reader thread then hands each control frame to ``handler(msg)``; a dead
    control link is surfaced as a final ``("ctrl_lost",)`` message.
    """

    def __init__(
        self,
        addr: tuple[str, int],
        hello: NetHello,
        handler: Callable[[Any], None],
        connect_timeout: float = 30.0,
    ) -> None:
        self._handler = handler
        self._send_lock = threading.Lock()
        self._closed = False
        self._sock = socket.create_connection(addr, timeout=connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(self._sock, _dumps(("hello", hello)))
        blob = recv_frame(self._sock)
        if blob is None:
            raise MPIError("rendezvous closed the connection before the welcome")
        op, welcome = pickle.loads(blob)
        if op != "welcome" or not isinstance(welcome, NetWelcome):
            raise MPIError(f"expected a welcome from the rendezvous, got {op!r}")
        self.welcome: NetWelcome = welcome
        self._sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._read_loop, name="tcp-ctrl-client", daemon=True
        )
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while not self._closed:
                blob = recv_frame(self._sock)
                if blob is None:
                    break
                msg = pickle.loads(blob)
                try:
                    self._handler(msg)
                except Exception:  # noqa: BLE001 - one bad op must not cut the control plane
                    _LOG.exception("control handler failed")
        except (OSError, EOFError, pickle.UnpicklingError):
            pass
        finally:
            if not self._closed:
                self._handler(("ctrl_lost",))

    def send(self, msg: Any) -> None:
        with self._send_lock:
            send_frame(self._sock, _dumps(msg))

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


@dataclass
class _LinkState:
    """Mutable connection bookkeeping shared by a channel's threads."""

    sock: socket.socket | None = None
    epoch: int = 0
    connects: int = 0
    down_since: float | None = None
    blocked_until: float = 0.0
    last_ping: float = 0.0
    #: send times of this connection's pings still awaiting their pong
    pings: deque[float] = field(default_factory=deque)


class HostChannel:
    """Outbound supervisor for one directed host link.

    Rank threads call :meth:`send`; a writer thread owns the socket —
    (re)dialing with capped+jittered backoff, injecting scheduled network
    faults, and pinging every ``_HEARTBEAT_INTERVAL``.  A per-connection
    reader thread consumes the pongs; a ping unanswered for
    ``_HEARTBEAT_TIMEOUT`` tears the link down.

    Each frame is written at most once.  A frame queued while the link is
    down waits at the head of the queue for the reconnect; one whose write
    raised, or that was in flight when the socket died, is lost, and the
    app-level reliable layer resends it.
    """

    def __init__(
        self,
        local_host: int,
        peer_host: int,
        addr_fn: Callable[[int], tuple[str, int] | None],
        counters: CommCounters | None = None,
        tracer: Tracer | None = None,
        trace_rank: int = 0,
    ) -> None:
        self.local_host = local_host
        self.peer_host = peer_host
        self._addr_fn = addr_fn
        self.counters = counters if counters is not None else CommCounters()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_rank = trace_rank
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._state = _LinkState(down_since=time.monotonic())
        #: frames awaiting transmission: (blob, fault_effect | None)
        self._outq: deque[tuple[bytes, tuple[str, float] | None]] = deque()
        self._closed = False
        self._writer = threading.Thread(
            target=self._run,
            name=f"tcp-chan-{local_host}to{peer_host}",
            daemon=True,
        )
        self._writer.start()

    # -- public API (rank threads) -------------------------------------------------

    def send(
        self,
        src_rank: int,
        dst_rank: int,
        tag: int,
        payload: Any,
        nbytes: int,
        msg_id: int = 0,
        fault: tuple[str, float] | None = None,
    ) -> None:
        """Enqueue one data frame.

        A peer whose link has been down past ``_UNREACHABLE_GRACE`` raises
        :class:`~repro.errors.PeerUnreachableError`.  Pickling happens here,
        in the caller's thread, so an unpicklable payload raises
        :class:`~repro.errors.MPIError` at the send site (error locality)
        and the writer thread stays cheap.  ``fault`` is an injected
        network-fault effect ``(kind, seconds)`` decided by the caller's
        injector.
        """
        if self.is_unreachable():
            self.counters.record("net.peer_unreachable")
            raise PeerUnreachableError(
                f"rank {dst_rank} on host {self.peer_host} has been unreachable"
                f" for {self.down_for():.1f}s (grace {_UNREACHABLE_GRACE}s)",
                rank=dst_rank,
                deadline=_UNREACHABLE_GRACE,
            )
        try:
            blob = _dumps(("data", src_rank, dst_rank, tag, payload, nbytes, msg_id))
        except Exception as exc:  # noqa: BLE001 - pickling fails in many ways
            raise MPIError(
                f"payload for tag={tag} is not picklable, which a host"
                f" boundary requires: {exc!r}"
            ) from exc
        with self._cond:
            if self._closed:
                raise MPIError(
                    f"channel {self.local_host}->{self.peer_host} is closed"
                )
            self._outq.append((blob, fault))
            self._cond.notify_all()

    def down_for(self) -> float:
        """Seconds the link has been continuously down (0.0 when up)."""
        with self._lock:
            down = self._state.down_since
        return 0.0 if down is None else max(0.0, time.monotonic() - down)

    def is_unreachable(self) -> bool:
        """Whether the link outage has crossed ``_UNREACHABLE_GRACE``."""
        return self.down_for() > _UNREACHABLE_GRACE

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._teardown(rst=False)

    # -- writer-side machinery -----------------------------------------------------

    def _teardown(self, rst: bool) -> None:
        """Close the current socket (optionally as a hard RST) and mark down."""
        with self._lock:
            sock = self._state.sock
            self._state.sock = None
            self._state.epoch += 1
            if self._state.down_since is None:
                self._state.down_since = time.monotonic()
        if sock is not None:
            try:
                if rst:
                    # SO_LINGER(on, 0) turns close() into an abortive RST —
                    # the genuine mid-stream reset the fault plan asked for.
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                sock.close()
            except OSError:
                pass

    def _connect_once(self) -> bool:
        """One dial attempt; True when the link is up after it."""
        addr = self._addr_fn(self.peer_host)
        if addr is None:
            return False
        sock = socket.create_connection(addr, timeout=_CONNECT_TIMEOUT)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
        except OSError:
            sock.close()
            raise
        with self._lock:
            was_down = self._state.connects > 0
            self._state.sock = sock
            self._state.epoch += 1
            epoch = self._state.epoch
            self._state.connects += 1
            self._state.down_since = None
            self._state.last_ping = time.monotonic()
            self._state.pings.clear()
        event = "net.reconnect" if was_down else "net.connect"
        self.counters.record(event)
        if self.tracer.enabled:
            self.tracer.instant(
                event, cat="net", rank=self.trace_rank, args={"peer_host": self.peer_host}
            )
        threading.Thread(
            target=self._read_loop,
            args=(sock, epoch),
            name=f"tcp-chan-rd-{self.local_host}to{self.peer_host}",
            daemon=True,
        ).start()
        return True

    def _ensure_connected(self) -> bool:
        """Dial until connected (with backoff) or closed/blocked; True if up."""
        attempt = 0
        while not self._closed:
            with self._lock:
                if self._state.sock is not None:
                    return True
                blocked = self._state.blocked_until - time.monotonic()
            if blocked > 0:
                # An injected partition: connection attempts are refused
                # until the partition heals.
                time.sleep(min(blocked, 0.05))
                continue
            try:
                if self._connect_once():
                    return True
            except OSError as exc:
                _LOG.debug(
                    "channel %d->%d dial failed (attempt %d): %r",
                    self.local_host, self.peer_host, attempt, exc,
                )
            wait = backoff_wait(
                _RECONNECT_BASE,
                attempt,
                factor=_RECONNECT_FACTOR,
                cap=_RECONNECT_CAP,
                jitter=_RECONNECT_JITTER,
                key=("tcp-reconnect", self.local_host, self.peer_host),
            )
            attempt += 1
            deadline = time.monotonic() + wait
            while not self._closed and time.monotonic() < deadline:
                time.sleep(0.01)
        return False

    def _read_loop(self, sock: socket.socket, epoch: int) -> None:
        # The node sends nothing back but pongs, in the order of the pings.
        try:
            while recv_frame(sock) is not None:
                with self._lock:
                    if self._state.epoch != epoch:
                        break
                    if self._state.pings:
                        self._state.pings.popleft()
        except OSError:
            pass
        with self._lock:
            stale = self._state.epoch != epoch
        if not stale:
            self._teardown(rst=False)

    def _heartbeat(self) -> None:
        """Ping every interval; drop a link whose oldest ping went unanswered."""
        now = time.monotonic()
        with self._lock:
            state = self._state
            sock = state.sock
            if sock is None:
                return
            silent = now - state.pings[0] if state.pings else 0.0
            if silent <= _HEARTBEAT_TIMEOUT:
                if now - state.last_ping < _HEARTBEAT_INTERVAL:
                    return
                state.last_ping = now
                state.pings.append(now)
        if silent > _HEARTBEAT_TIMEOUT:
            _LOG.debug(
                "channel %d->%d heartbeat timeout (ping unanswered for %.2fs)",
                self.local_host, self.peer_host, silent,
            )
            self._teardown(rst=False)
            return
        try:
            send_frame(sock, _PING)
            self.counters.record("net.heartbeat")
        except OSError:
            self._teardown(rst=False)

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._outq and not self._closed:
                    self._cond.wait(timeout=0.05)
                if self._closed and not self._outq:
                    return
                item = self._outq.popleft() if self._outq else None
            self._heartbeat()
            if item is None:
                continue
            blob, fault = item
            if fault is not None:
                kind, seconds = fault
                if kind == "slow_link":
                    # The frame — and everything queued behind it — waits:
                    # a congested link delays the whole stream.
                    time.sleep(seconds)
                else:  # conn_reset or partition
                    self._teardown(rst=True)
                    if kind == "partition":
                        with self._lock:
                            self._state.blocked_until = time.monotonic() + seconds
                    if self.tracer.enabled:
                        self.tracer.instant(
                            f"net.{kind}", cat="net", rank=self.trace_rank,
                            args={"peer_host": self.peer_host},
                        )
            with self._lock:
                sock = self._state.sock
            if sock is None:
                # Not yet written: the frame waits at the head of the queue
                # for the reconnect.
                with self._cond:
                    self._outq.appendleft((blob, None))
                if not self._ensure_connected():
                    return  # closed while dialing
                continue
            try:
                send_frame(sock, blob)
            except OSError:
                # Written at most once: the reliable layer resends a lost frame.
                self._teardown(rst=False)
                continue
            self.counters.record("net.frames", nbytes=len(blob))


class TcpNode:
    """A host's data-plane listener: accepts channels, delivers frames.

    Each inbound connection streams data frames, handed in arrival order to
    ``deliver(src_rank, dst_rank, tag, payload, nbytes, msg_id)``, and
    pings, each answered with a pong on the same socket.  A reconnect is a
    new connection, accepted after the one it replaces; frames the old one
    still holds would overtake the new one's, so they are dropped instead
    (the channel is at most once, in order).
    """

    def __init__(
        self,
        host_id: int,
        deliver: Callable[[int, int, int, Any, int, int], None],
        bind_host: str = "127.0.0.1",
    ) -> None:
        self.host_id = host_id
        self._deliver = deliver
        self._lock = threading.Lock()
        self._conns: list[socket.socket] = []
        #: (src_rank, dst_rank) → accept number of the newest connection carrying it
        self._newest: dict[tuple[int, int], int] = {}
        self._closed = False
        self._listener = socket.create_server((bind_host, 0))
        self.addr: tuple[str, int] = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"tcp-node-{host_id}", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        accepted = 0
        while not self._closed:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self._conns.append(sock)
            threading.Thread(
                target=self._serve, args=(sock, accepted),
                name=f"tcp-node-conn-{self.host_id}", daemon=True,
            ).start()
            accepted += 1

    def _serve(self, sock: socket.socket, number: int) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while (blob := recv_frame(sock)) is not None:
                msg = pickle.loads(blob)
                if msg[0] == "ping":
                    send_frame(sock, _PONG)
                    continue
                _op, src_rank, dst_rank, tag, payload, nbytes, msg_id = msg
                with self._lock:
                    if self._newest.setdefault((src_rank, dst_rank), number) > number:
                        continue
                    self._newest[src_rank, dst_rank] = number
                    try:
                        self._deliver(src_rank, dst_rank, tag, payload, nbytes, msg_id)
                    except Exception:  # noqa: BLE001 - a bad frame must not kill the link
                        _LOG.exception("delivery (rank %d->%d) failed", src_rank, dst_rank)
        except (OSError, EOFError, pickle.UnpicklingError):
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass
            with self._lock:
                if sock in self._conns:
                    self._conns.remove(sock)

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass
