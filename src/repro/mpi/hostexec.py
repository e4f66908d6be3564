"""The launcher for every world made of OS processes: ranks as threads on hosts.

This is the ``mpiexec --hostfile`` stand-in behind both process-level
backends of :func:`~repro.mpi.executor.run_spmd`.  It deals ``n_ranks``
virtual ranks round-robin across ``n_hosts`` OS-process "hosts" (rank *r*
lives on host ``r % n_hosts``), boots a :class:`~repro.mpi.tcp.Rendezvous`
for them to dial into, and joins the whole world — same ``Comm`` API, same
:class:`~repro.mpi.executor.SPMDResult` as the thread backend.
``backend="tcp"`` (:func:`run_spmd_tcp`) spreads the ranks over a few hosts
whose data plane is framed TCP (loopback in CI; nothing in the protocol
assumes that); ``backend="process"`` is the same launcher with one host per
rank — every rank its own interpreter and GIL — and a
:class:`multiprocessing.Queue` per host as the data plane, which is cheaper
than a socket between processes of one machine.  Payloads cross a process
boundary by value either way, so they must be picklable.

Architecture
------------
Each host process runs:

* a data-plane wire — :class:`_TcpWire` (a :class:`~repro.mpi.tcp.TcpNode`
  listener plus one supervised :class:`~repro.mpi.tcp.HostChannel` per peer
  host it sends to: host-level links, so a rank respawn never churns
  sockets) or :class:`_QueueWire` (frames pickled by the sender onto the
  destination host's queue, one pump thread draining the host's own);
* a :class:`~repro.mpi.tcp.ControlClient` back to the launcher's
  rendezvous — the control plane that gives failure marks, aborts,
  shutdowns and membership changes a single total order (every host
  applies the launcher's ``apply`` broadcasts; latency-sensitive marks are
  additionally applied locally first, all idempotently);
* one thread per local rank, each holding a :class:`_RankView` — a
  :class:`~repro.mpi.comm.World` duck-type that routes same-host traffic
  straight into the destination's mailbox and cross-host traffic through
  the wire.

Fault handling: an injected ``crash`` kills the rank *thread* — its host
process stays up and reports — which is marked failed world-wide and, under
``on_rank_failure="respawn"``, replaced by a fresh incarnation *on the
same host* after a centrally granted budget check; the replacement rejoins
via the rank program's own recovery protocol (FTHello/FTRejoin).  A host
process that dies unreported (SIGKILL, OOM) is not replaced: the launcher
aborts the world naming the host, and the supervisor layer resumes from the
latest checkpoint.  Injected ``partition``/``conn_reset``/``slow_link``
faults live a layer below, inside the tcp channels (see
:mod:`repro.mpi.tcp`), and heal by reconnect + session resumption without
the simulation noticing; only a partition outlasting
``TcpOptions.unreachable_grace`` escalates into
:class:`~repro.errors.PeerUnreachableError` and the failed-rank machinery.

Elastic membership: ``World.grow(n)`` on any rank asks the launcher for
fresh rank ids; the launcher assigns hosts (same round-robin), broadcasts
the membership change, and the owning hosts spawn joiner threads whose
rank programs rejoin exactly like respawned ranks.  ``World.shrink(ranks)``
records retirements world-wide; ownership exclusions travel in the rank
program's own headers (see ``owner_map_with_failures``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as stdlib_queue
import threading
import time
from typing import Any, Callable, Sequence

from repro.errors import (
    CommAbortError,
    MPIError,
    PeerUnreachableError,
    RankCrashError,
)
from repro.logging_util import get_logger
from repro.mpi.comm import Comm, _Mailbox
from repro.mpi.comm import World
from repro.mpi.counters import CommCounters
from repro.mpi.executor import RespawnRecord, SPMDResult
from repro.mpi.faults import FaultInjector, FaultPlan
from repro.mpi.tcp import ControlClient, NetHello, Rendezvous, TcpNode, TcpOptions, HostChannel
from repro.obs.tracer import NULL_TRACER, Tracer, activate

__all__ = ["run_spmd_tcp", "MAX_PROCESS_RANKS", "MAX_TCP_RANKS", "MAX_TCP_HOSTS"]

_LOG = get_logger("mpi.hostexec")

#: OS processes are far heavier than threads; virtual worlds beyond this
#: belong to the thread backend or the performance model.
MAX_PROCESS_RANKS = MAX_TCP_RANKS = 256
MAX_TCP_HOSTS = 16

#: Seconds a control request (grow/respawn grant) may wait for its reply.
_REQ_TIMEOUT = 60.0
#: Seconds a failed-but-alive (hung) rank keeps its thread before a
#: replacement incarnation is started next to it.
_RESPAWN_HANG_GRACE = 1.0
#: Seconds the launcher lets an aborted world drain results before
#: collecting what it has.
_ABORT_DRAIN_GRACE = 10.0
#: Seconds a host waits for the launcher's exit token after reporting done.
_EXIT_GRACE = 60.0


def _pickle_exc(exc: BaseException) -> bytes:
    """Exception as a pickle blob, degraded to ``MPIError(repr)`` if needed."""
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(
            MPIError(f"unpicklable rank exception: {exc!r}"),
            protocol=pickle.HIGHEST_PROTOCOL,
        )


def _pick_context(start_method: str | None):
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    # fork keeps closures and non-module functions working and starts far
    # faster; spawn is the portable fallback.
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _host_of(rank: int, n_hosts: int) -> int:
    """The host owning ``rank`` — same rule at bootstrap and after grow."""
    return rank % n_hosts


class _RemoteMailbox:
    """Deliver-only mailbox stand-in for a rank on another host."""

    __slots__ = ("_rt", "dest")

    def __init__(self, runtime: "_HostRuntime", dest: int) -> None:
        self._rt = runtime
        self.dest = dest

    def deliver(
        self, source: int, tag: int, payload: Any, nbytes: int, msg_id: int = 0
    ) -> None:
        rt = self._rt
        rt.wire.send(source, self.dest, rt.host_of(self.dest), tag, payload, nbytes, msg_id)


class _MailboxDirectory:
    """Per-rank ``world.mailboxes`` stand-in resolving routes at use time.

    Same-host destinations resolve to the *current* :class:`_Mailbox`
    (respawns swap mailboxes; late resolution reroutes automatically);
    cross-host destinations resolve to a cached deliver-only proxy.
    """

    __slots__ = ("_rt", "_remote")

    def __init__(self, runtime: "_HostRuntime") -> None:
        self._rt = runtime
        self._remote: dict[int, _RemoteMailbox] = {}

    def __getitem__(self, dest: int) -> Any:
        rt = self._rt
        if rt.host_of(dest) == rt.host_id:
            return rt.mailbox(dest)
        box = self._remote.get(dest)
        if box is None:
            box = self._remote[dest] = _RemoteMailbox(rt, dest)
        return box


class _RankView:
    """One rank thread's window onto the multi-host world.

    Duck-types :class:`~repro.mpi.comm.World` for :class:`Comm` and the
    rank programs: shared per-host counters/tracer/injector and
    abort/stop events, per-rank incarnation, live membership via the
    runtime.
    """

    def __init__(self, runtime: "_HostRuntime", rank: int, incarnation: int) -> None:
        self._rt = runtime
        self.rank = rank
        self.incarnation = incarnation
        self.mailboxes = _MailboxDirectory(runtime)
        self.counters = runtime.counters
        self.tracer = runtime.tracer if runtime.tracer is not None else NULL_TRACER
        self.injector = runtime.injector
        self.abort_event = runtime.abort_event
        self.stop_event = runtime.stop_event

    @property
    def size(self) -> int:
        return self._rt.size

    @property
    def abort_reason(self) -> str | None:
        return self._rt.abort_reason

    @property
    def joiner_ranks(self) -> set[int]:
        return self._rt.joiner_ranks()

    @property
    def retired_ranks(self) -> set[int]:
        return self._rt.retired_ranks()

    def is_failed(self, rank: int) -> bool:
        return self._rt.is_failed(rank)

    def is_unreachable(self, rank: int) -> bool:
        return self._rt.is_unreachable(rank)

    def mark_failed(self, rank: int, reason: str = "") -> None:
        self._rt.mark_failed(rank, reason)

    def mark_alive(self, rank: int) -> None:
        self._rt.mark_alive(rank)

    def abort(self, reason: str) -> None:
        self._rt.abort(reason)

    def shutdown(self) -> None:
        self._rt.shutdown()

    def grow(self, n: int) -> tuple[int, ...]:
        return self._rt.grow(n)

    def shrink(self, ranks: Sequence[int]) -> tuple[int, ...]:
        return self._rt.shrink(ranks)


class _TcpWire:
    """Socket data plane: a listener plus one supervised channel per peer host.

    The plan's ``partition``/``slow_link``/``conn_reset`` faults are decided
    here, once per outgoing frame, and carried out inside the channel.
    """

    def __init__(self, runtime: "_HostRuntime", trace_rank: int) -> None:
        self._rt = runtime
        self._trace_rank = trace_rank
        self._lock = threading.Lock()
        self._channels: dict[int, HostChannel] = {}
        self._frame_counts: dict[tuple[int, int], int] = {}
        self._node = TcpNode(
            runtime.host_id,
            runtime._deliver_local,
            options=runtime.options,
            counters=runtime.counters,
        )
        self.addr: tuple[str, int] | None = self._node.addr

    def _channel(self, peer_host: int) -> HostChannel:
        rt = self._rt
        with self._lock:
            channel = self._channels.get(peer_host)
            if channel is None:
                channel = HostChannel(
                    rt.host_id,
                    peer_host,
                    rt._host_addrs.get,
                    rt.options,
                    counters=rt.counters,
                    tracer=rt.tracer if rt.tracer is not None else NULL_TRACER,
                    trace_rank=self._trace_rank,
                )
                self._channels[peer_host] = channel
            return channel

    def send(
        self, source: int, dest: int, dest_host: int, tag: int, payload: Any,
        nbytes: int, msg_id: int,
    ) -> None:
        """Route one message to a rank on another host (rank-thread path)."""
        rt = self._rt
        fault: tuple[str, float] | None = None
        if rt.injector is not None:
            with self._lock:
                frame_index = self._frame_counts.get((source, dest), 0)
                self._frame_counts[(source, dest)] = frame_index + 1
            kind = rt.injector.link_fault(source, dest, frame_index)
            if kind is not None:
                plan = rt.injector.plan
                seconds = (
                    plan.partition_seconds
                    if kind == "partition"
                    else plan.slow_link_seconds if kind == "slow_link" else 0.0
                )
                fault = (kind, seconds)
                rt.counters.record(f"net.{kind}")
                tracer = rt.tracer
                if tracer is not None and tracer.enabled:
                    tracer.instant(
                        f"net.{kind}", cat="net", rank=source,
                        args={"dest": dest, "frame_index": frame_index},
                    )
        channel = self._channel(dest_host)
        if channel.is_unreachable():
            rt.counters.record("net.peer_unreachable")
            raise PeerUnreachableError(
                f"rank {dest} on host {dest_host} has been unreachable for"
                f" {channel.down_for():.1f}s (grace"
                f" {rt.options.unreachable_grace}s)",
                rank=dest,
                deadline=rt.options.unreachable_grace,
            )
        channel.send(source, dest, tag, payload, nbytes, msg_id, fault=fault)

    def is_unreachable(self, host: int) -> bool:
        with self._lock:
            channel = self._channels.get(host)
        return channel is not None and channel.is_unreachable()

    def close(self) -> None:
        with self._lock:
            channels = list(self._channels.values())
        for channel in channels:
            channel.close()
        self._node.close()


class _QueueWire:
    """Same-machine data plane: one :class:`multiprocessing.Queue` per host.

    Frames are pickled *in the sending thread*, so an unpicklable payload
    raises in the sender (where the bug is) instead of killing the queue's
    feeder thread asynchronously; a pump thread drains this host's queue
    into the local mailboxes.  Queues between processes of one machine
    never partition, and the plan's link faults are a socket-layer notion.
    """

    addr = None  # nothing for peers to dial

    def __init__(self, runtime: "_HostRuntime", queues: Sequence[Any]) -> None:
        self._queues = queues
        threading.Thread(
            target=self._pump,
            args=(queues[runtime.host_id], runtime._deliver_local),
            name=f"vmpi-pump-{runtime.host_id}",
            daemon=True,
        ).start()

    @staticmethod
    def _pump(inbox: Any, deliver: Callable[..., None]) -> None:
        while True:
            deliver(*pickle.loads(inbox.get()))

    def send(
        self, source: int, dest: int, dest_host: int, tag: int, payload: Any,
        nbytes: int, msg_id: int,
    ) -> None:
        try:
            frame = pickle.dumps(
                (source, dest, tag, payload, nbytes, msg_id),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception as exc:
            raise MPIError(
                f"payload for tag={tag} is not picklable, which the process"
                f" backend requires: {exc!r}"
            ) from exc
        self._queues[dest_host].put(frame)

    def is_unreachable(self, host: int) -> bool:
        return False

    def close(self) -> None:
        # Frames still buffered for a peer that died must not block exit.
        for queue in self._queues:
            queue.cancel_join_thread()


class _HostRuntime:
    """Everything one host process shares between its rank threads."""

    def __init__(
        self,
        host_id: int,
        n_hosts: int,
        ranks: tuple[int, ...],
        controller_addr: tuple[str, int],
        fn: Callable[..., Any],
        args: tuple,
        fault_plan: FaultPlan | None,
        on_rank_failure: str,
        trace_epoch: float | None,
        rank_names: dict[int, str],
        flow_start: int,
        options: TcpOptions,
        queues: Sequence[Any] | None,
    ) -> None:
        self.host_id = host_id
        self.n_hosts = n_hosts
        self.fn = fn
        self.args = args
        self.on_rank_failure = on_rank_failure
        self.options = options
        self.rank_names = rank_names
        self.counters = CommCounters()
        self.injector = FaultInjector(fault_plan) if fault_plan is not None else None
        self.tracer = (
            Tracer(epoch=trace_epoch, flow_start=flow_start)
            if trace_epoch is not None
            else None
        )
        self.abort_event = threading.Event()
        self.stop_event = threading.Event()
        self.exit_event = threading.Event()
        self.drain_event = threading.Event()
        self.abort_reason: str | None = None
        self._lock = threading.Lock()
        self._failed: set[int] = set()
        self._joiners: set[int] = set()
        self._retired: set[int] = set()
        self._mailboxes: dict[int, _Mailbox] = {r: _Mailbox() for r in ranks}
        self._all_mailboxes: list[_Mailbox] = list(self._mailboxes.values())
        self._incarnations: dict[int, int] = {r: 0 for r in ranks}
        self._threads: list[threading.Thread] = []
        self._respawning: set[int] = set()
        self._req_lock = threading.Lock()
        self._req_seq = 0
        self._req_waits: dict[int, tuple[threading.Event, list]] = {}

        # Membership state must exist before the control reader starts: a
        # grow broadcast can race this constructor on a non-requesting host.
        self._host_addrs: dict[int, tuple[str, int]] = {}
        self._rank_hosts: dict[int, int] = {}
        self._size = 0

        self.wire = (
            _TcpWire(self, trace_rank=ranks[0])
            if queues is None
            else _QueueWire(self, queues)
        )
        self.ctrl = ControlClient(
            controller_addr,
            NetHello(
                host=host_id, incarnation=0, data_addr=self.wire.addr, ranks=ranks
            ),
            self._on_ctrl,
        )
        welcome = self.ctrl.welcome
        with self._lock:
            self._host_addrs.update(welcome.hosts)
            for rank, host in welcome.rank_hosts.items():
                self._rank_hosts.setdefault(rank, host)
            self._size = max(self._size, welcome.world_size)

    # -- membership views ----------------------------------------------------------

    @property
    def size(self) -> int:
        with self._lock:
            return self._size

    def host_of(self, rank: int) -> int:
        with self._lock:
            host = self._rank_hosts.get(rank)
        if host is None:
            # A rank the membership view has not caught up with yet; the
            # assignment rule is deterministic, so compute it.
            host = _host_of(rank, self.n_hosts)
        return host

    def mailbox(self, rank: int) -> _Mailbox:
        with self._lock:
            box = self._mailboxes.get(rank)
        if box is None:
            raise MPIError(f"rank {rank} has no mailbox on host {self.host_id}")
        return box

    def joiner_ranks(self) -> set[int]:
        with self._lock:
            return set(self._joiners)

    def retired_ranks(self) -> set[int]:
        with self._lock:
            return set(self._retired)

    def is_failed(self, rank: int) -> bool:
        with self._lock:
            return rank in self._failed

    def is_unreachable(self, rank: int) -> bool:
        host = self.host_of(rank)
        return host != self.host_id and self.wire.is_unreachable(host)

    # -- control plane -------------------------------------------------------------

    def _on_ctrl(self, msg: Any) -> None:
        """Apply one launcher broadcast (runs on the control reader thread)."""
        op = msg[0]
        if op == "apply":
            what = msg[1]
            if what == "mark_failed":
                self._apply_mark_failed(msg[2], msg[3])
            elif what == "mark_alive":
                self._apply_mark_alive(msg[2])
            elif what == "abort":
                self._apply_abort(msg[2])
            elif what == "shutdown":
                self.stop_event.set()
                self._wake_all()
            elif what == "grow":
                self._apply_grow(msg[2])
            elif what == "retire":
                with self._lock:
                    self._retired.update(msg[2])
                self._wake_all()
        elif op == "rep":
            with self._req_lock:
                waiter = self._req_waits.pop(msg[1], None)
            if waiter is not None:
                event, slot = waiter
                slot.append(msg[2])
                event.set()
        elif op == "drain":
            self.drain_event.set()
        elif op == "exit":
            self.exit_event.set()
            self.drain_event.set()
        elif op == "ctrl_lost":
            if not self.exit_event.is_set():
                self._apply_abort("control link to the launcher was lost")
                self.exit_event.set()
                self.drain_event.set()

    def _request(self, *req: Any) -> Any:
        """Round-trip one request to the launcher; None on timeout."""
        event = threading.Event()
        slot: list = []
        with self._req_lock:
            self._req_seq += 1
            req_id = self._req_seq
            self._req_waits[req_id] = (event, slot)
        try:
            self.ctrl.send(("req", req_id, *req))
        except OSError:
            with self._req_lock:
                self._req_waits.pop(req_id, None)
            return None
        if not event.wait(timeout=_REQ_TIMEOUT):
            with self._req_lock:
                self._req_waits.pop(req_id, None)
            return None
        return slot[0] if slot else None

    def _apply_mark_failed(self, rank: int, reason: str) -> None:
        with self._lock:
            fresh = rank not in self._failed
            self._failed.add(rank)
            local = self._rank_hosts.get(rank) == self.host_id
            incarnation = self._incarnations.get(rank)
        self._wake_all()
        if (
            fresh
            and local
            and self.on_rank_failure == "respawn"
            and rank != 0
            and incarnation is not None
        ):
            # Possibly a hang (thread alive but declared dead by the
            # protocol layer): give a heal a grace window, then respawn a
            # fresh incarnation next to the silent thread.  The timer
            # no-ops when the crash path already respawned (incarnation
            # moved on) or the mark was stale (flag cleared by a heal).
            timer = threading.Timer(
                _RESPAWN_HANG_GRACE, self._hang_respawn_check, args=(rank, incarnation, reason)
            )
            timer.daemon = True
            timer.start()

    def _hang_respawn_check(self, rank: int, incarnation: int, reason: str) -> None:
        with self._lock:
            still_failed = rank in self._failed
            current = self._incarnations.get(rank)
        if still_failed and current == incarnation:
            self.maybe_respawn(rank, reason or "declared failed while silent", incarnation)

    def _apply_mark_alive(self, rank: int) -> None:
        with self._lock:
            self._failed.discard(rank)
            self._joiners.discard(rank)
        self._wake_all()

    def _apply_abort(self, reason: str) -> None:
        if self.abort_reason is None:
            self.abort_reason = reason
        self.abort_event.set()
        self._wake_all()

    def _apply_grow(self, assignments: tuple[tuple[int, int], ...]) -> None:
        mine: list[int] = []
        with self._lock:
            for rank, host in assignments:
                self._rank_hosts[rank] = host
                self._size = max(self._size, rank + 1)
                self._joiners.add(rank)
                if host == self.host_id and rank not in self._mailboxes:
                    box = _Mailbox()
                    self._mailboxes[rank] = box
                    self._all_mailboxes.append(box)
                    self._incarnations[rank] = 0
                    mine.append(rank)
        for rank in mine:
            self.start_rank(rank, 0)
        self._wake_all()

    def mark_failed(self, rank: int, reason: str = "") -> None:
        self._apply_mark_failed(rank, reason)
        try:
            self.ctrl.send(("ctrl", "mark_failed", rank, reason))
        except OSError:
            pass

    def mark_alive(self, rank: int) -> None:
        self._apply_mark_alive(rank)
        try:
            self.ctrl.send(("ctrl", "mark_alive", rank))
        except OSError:
            pass

    def abort(self, reason: str) -> None:
        self._apply_abort(reason)
        try:
            self.ctrl.send(("ctrl", "abort", reason))
        except OSError:
            pass

    def shutdown(self) -> None:
        self.stop_event.set()
        self._wake_all()
        try:
            self.ctrl.send(("ctrl", "shutdown"))
        except OSError:
            pass

    def grow(self, n: int) -> tuple[int, ...]:
        if n < 1:
            raise MPIError(f"grow() needs n >= 1, got {n}")
        new_ranks = self._request("grow", int(n))
        if new_ranks is None:
            raise MPIError("grow() request to the launcher failed or timed out")
        return tuple(new_ranks)

    def shrink(self, ranks: Sequence[int]) -> tuple[int, ...]:
        retired = tuple(sorted({int(r) for r in ranks}))
        size = self.size
        for rank in retired:
            if not 0 < rank < size:
                raise MPIError(f"cannot shrink rank {rank}: out of range (1, {size})")
        with self._lock:
            if any(r in self._retired for r in retired):
                raise MPIError("cannot shrink: some ranks are already retired")
            self._retired.update(retired)
        try:
            self.ctrl.send(("ctrl", "retire", retired))
        except OSError:
            pass
        self._wake_all()
        return retired

    def _wake_all(self) -> None:
        with self._lock:
            boxes = list(self._all_mailboxes)
        for box in boxes:
            with box.lock:
                box.ready.notify_all()

    # -- data plane ----------------------------------------------------------------

    def _deliver_local(
        self, src_rank: int, dst_rank: int, tag: int, payload: Any, nbytes: int, msg_id: int
    ) -> None:
        """Inbound frame from the wire: hand it to the local mailbox."""
        with self._lock:
            box = self._mailboxes.get(dst_rank)
        if box is None:
            _LOG.debug(
                "host %d dropping frame for non-local rank %d", self.host_id, dst_rank
            )
            return
        box.deliver(src_rank, tag, payload, nbytes, msg_id)

    # -- rank threads --------------------------------------------------------------

    def ship_result(self, message: tuple) -> None:
        try:
            self.ctrl.send(("result", message))
        except OSError:  # pragma: no cover - control link died at the wire
            _LOG.exception("host %d could not ship a rank result", self.host_id)

    def start_rank(self, rank: int, incarnation: int) -> None:
        name = f"vmpi-rank-{rank}" if incarnation == 0 else f"vmpi-rank-{rank}.{incarnation}"
        thread = threading.Thread(
            target=self._run_rank, args=(rank, incarnation), name=name, daemon=True
        )
        with self._lock:
            self._threads.append(thread)
        thread.start()

    def maybe_respawn(self, rank: int, reason: str, dead_incarnation: int) -> bool:
        """Replace a dead/hung local rank with a fresh incarnation.

        Budget lives with the launcher; the grant (the new incarnation
        number) is requested over the control plane.  Returns True when a
        replacement was started.
        """
        with self._lock:
            if self._incarnations.get(rank) != dead_incarnation or rank in self._respawning:
                return False
            self._respawning.add(rank)
        try:
            grant = self._request("respawn", rank, reason)
            if grant is None:
                _LOG.debug("host %d: no respawn grant for rank %d", self.host_id, rank)
                return False
            with self._lock:
                self._incarnations[rank] = grant
                box = _Mailbox()
                self._mailboxes[rank] = box
                self._all_mailboxes.append(box)
            self.counters.record("respawn", messages=0)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.instant(
                    "respawn", cat="mpi.fault", rank=rank,
                    args={"incarnation": grant, "reason": reason},
                )
            self.start_rank(rank, grant)
            return True
        finally:
            with self._lock:
                self._respawning.discard(rank)

    def _run_rank(self, rank: int, incarnation: int) -> None:
        view = _RankView(self, rank, incarnation)
        comm = Comm(view, rank)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.set_rank(rank)
            name = self.rank_names.get(rank)
            if name:
                tracer.name_rank(rank, name)
        try:
            value = self.fn(comm, *self.args)
        except CommAbortError:
            # Secondary casualty of another rank's failure; keep quiet.
            self.ship_result(("quiet", rank, incarnation, None))
        except PeerUnreachableError as exc:
            # Cut off by a partition this rank could not degrade around
            # (e.g. a worker that lost Nature).  Die like a crash: marked
            # failed, maybe respawned — the replacement rejoins once the
            # partition heals.
            self._die_to_fault(rank, incarnation, f"unreachable peer: {exc}")
        except RankCrashError as exc:
            self._die_to_fault(rank, incarnation, str(exc))
        except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
            _LOG.debug("rank %d failed: %r", rank, exc)
            self.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
            self.ship_result(("err", rank, incarnation, _pickle_exc(exc)))
        else:
            try:
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                err = MPIError(f"rank {rank} returned an unpicklable value: {exc!r}")
                self.abort(str(err))
                self.ship_result(("err", rank, incarnation, _pickle_exc(err)))
            else:
                self.ship_result(("done", rank, incarnation, value))

    def _die_to_fault(self, rank: int, incarnation: int, reason: str) -> None:
        if self.on_rank_failure in ("continue", "respawn"):
            _LOG.debug("rank %d dying: %s", rank, reason)
            self.mark_failed(rank, reason)
            self.ship_result(("selfdead", rank, incarnation, reason))
            if self.on_rank_failure == "respawn" and rank != 0:
                self.maybe_respawn(rank, reason, incarnation)
        else:
            self.abort(f"rank {rank} died: {reason}")
            self.ship_result(
                ("err", rank, incarnation, _pickle_exc(RankCrashError(reason)))
            )

    # -- lifecycle -----------------------------------------------------------------

    def threads(self) -> list[threading.Thread]:
        with self._lock:
            return list(self._threads)

    def epilogue(self) -> tuple[dict, list, list]:
        counters = self.counters.snapshot()
        fault_log = list(self.injector.log) if self.injector is not None else []
        events = self.tracer.events() if self.tracer is not None else []
        return counters, fault_log, events

    def close(self) -> None:
        self.wire.close()
        self.ctrl.close()


def _host_main(
    host_id: int,
    n_hosts: int,
    ranks: tuple[int, ...],
    controller_addr: tuple[str, int],
    fn: Callable[..., Any],
    args: tuple,
    fault_plan: FaultPlan | None,
    on_rank_failure: str,
    trace_epoch: float | None,
    rank_names: dict[int, str],
    flow_start: int,
    options: TcpOptions,
    queues: Sequence[Any] | None,
) -> None:
    """Entry point of one host process (module-level for spawn support)."""
    runtime = _HostRuntime(
        host_id, n_hosts, ranks, controller_addr, fn, tuple(args), fault_plan,
        on_rank_failure, trace_epoch, rank_names, flow_start, options, queues,
    )
    scope = activate(runtime.tracer) if runtime.tracer is not None else None
    if scope is not None:
        scope.__enter__()
    try:
        for rank in ranks:
            runtime.start_rank(rank, 0)
        # Serve until the launcher calls for the drain: rank threads come
        # and go (respawns, joiners), the node and channels stay up.
        runtime.drain_event.wait()
        for thread in runtime.threads():
            thread.join(timeout=5.0)
        counters, fault_log, events = runtime.epilogue()
        try:
            runtime.ctrl.send(("host_done", host_id, counters, fault_log, events))
        except OSError:  # pragma: no cover - launcher died; nothing to report to
            pass
        runtime.exit_event.wait(timeout=_EXIT_GRACE)
    finally:
        if scope is not None:
            scope.__exit__(None, None, None)
        runtime.close()


def run_spmd_tcp(
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    timeout: float | None = 300.0,
    fault_injector: FaultInjector | None = None,
    on_rank_failure: str = "abort",
    tracer: Tracer | None = None,
    n_hosts: int = 2,
    tcp_options: TcpOptions | None = None,
    max_respawns: int = 8,
    start_method: str | None = None,
) -> SPMDResult:
    """Run ``fn(comm, *args)`` on ``n_ranks`` ranks across ``n_hosts`` hosts.

    The TCP twin of :func:`repro.mpi.executor.run_spmd`: same parameters,
    same :class:`~repro.mpi.executor.SPMDResult`, same abort / timeout /
    ``on_rank_failure`` semantics — with ranks dealt round-robin across
    ``n_hosts`` OS-process hosts talking framed TCP (loopback here; the
    protocol carries no same-machine assumption).  See the module
    docstring for the robustness machinery; ``tcp_options`` tunes it.

    ``on_rank_failure="respawn"`` replaces a dead non-zero rank with a
    fresh incarnation *thread* on its host (budgeted by ``max_respawns``);
    the replacement's rejoin handshake crosses real sockets.
    """
    return _launch(
        "tcp", n_ranks, fn, args, timeout, fault_injector, on_rank_failure,
        tracer, n_hosts, tcp_options, max_respawns, start_method,
    )


def _launch(
    backend: str,
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any],
    timeout: float | None,
    fault_injector: FaultInjector | None,
    on_rank_failure: str,
    tracer: Tracer | None,
    n_hosts: int,
    tcp_options: TcpOptions | None,
    max_respawns: int,
    start_method: str | None = None,
) -> SPMDResult:
    """Launch and join one world of host processes.

    ``backend="tcp"`` deals the ranks across ``n_hosts`` hosts over
    sockets; ``backend="process"`` gives every rank a host of its own and
    wires the hosts with queues.
    """
    if not 1 <= n_ranks <= MAX_TCP_RANKS:
        raise MPIError(f"n_ranks must be in [1, {MAX_TCP_RANKS}], got {n_ranks}")
    if backend == "process":
        n_hosts = n_ranks
    elif not 1 <= n_hosts <= MAX_TCP_HOSTS:
        raise MPIError(f"n_hosts must be in [1, {MAX_TCP_HOSTS}], got {n_hosts}")
    if on_rank_failure not in ("abort", "continue", "respawn"):
        raise MPIError(
            "on_rank_failure must be 'abort', 'continue' or 'respawn',"
            f" got {on_rank_failure!r}"
        )
    if max_respawns < 0:
        raise MPIError(f"max_respawns must be >= 0, got {max_respawns}")
    n_hosts = min(n_hosts, n_ranks)
    options = tcp_options if tcp_options is not None else TcpOptions()
    respawning = on_rank_failure == "respawn"
    ctx = _pick_context(start_method)
    tracing = tracer is not None and tracer.enabled
    if tracing:
        named = tracer.rank_names()
        for rank in range(n_ranks):
            if rank not in named:
                tracer.name_rank(rank, f"rank {rank}")
    rank_names = tracer.rank_names() if tracing else {}

    host_ranks: dict[int, tuple[int, ...]] = {
        h: tuple(r for r in range(n_ranks) if _host_of(r, n_hosts) == h)
        for h in range(n_hosts)
    }
    rank_hosts = {r: _host_of(r, n_hosts) for r in range(n_ranks)}

    # Launcher-side state, mutated by the rendezvous reader threads and the
    # main wait loop below; every event funnels through one queue.
    events: stdlib_queue.Queue = stdlib_queue.Queue()
    state_lock = threading.Lock()
    world_size = n_ranks
    incarnations: dict[int, int] = {r: 0 for r in range(n_ranks)}
    failed_flags: dict[int, str] = {}
    respawn_log: list[RespawnRecord] = []
    respawn_budget = max_respawns if respawning else 0
    hosts_done: dict[int, tuple] = {}
    aborted: list[str] = []

    def _abort_world(reason: str) -> None:
        with state_lock:
            if aborted:
                return  # every host has been told already
            aborted.append(reason)
        rendezvous.broadcast(("apply", "abort", reason))
        events.put(("aborted",))

    def _handle(host_id: int, msg: Any) -> None:
        nonlocal world_size, respawn_budget
        op = msg[0]
        if op == "ctrl":
            what = msg[1]
            if what == "mark_failed":
                with state_lock:
                    failed_flags.setdefault(msg[2], msg[3])
                rendezvous.broadcast(("apply", "mark_failed", msg[2], msg[3]))
            elif what == "mark_alive":
                with state_lock:
                    failed_flags.pop(msg[2], None)
                rendezvous.broadcast(("apply", "mark_alive", msg[2]))
            elif what == "abort":
                _abort_world(msg[2])
            elif what == "shutdown":
                rendezvous.broadcast(("apply", "shutdown"))
            elif what == "retire":
                rendezvous.broadcast(("apply", "retire", msg[2]))
                events.put(("retired", msg[2]))
        elif op == "req":
            req_id, what = msg[1], msg[2]
            if what == "grow":
                n = msg[3]
                with state_lock:
                    first = world_size
                    new_ranks = tuple(range(first, first + n))
                    world_size = first + n
                    assignments = tuple(
                        (rank, _host_of(rank, n_hosts)) for rank in new_ranks
                    )
                    for rank in new_ranks:
                        incarnations[rank] = 0
                # Order matters: every host learns the membership before
                # the requester's grow() returns and traffic starts.
                rendezvous.broadcast(("apply", "grow", assignments))
                rendezvous.send(host_id, ("rep", req_id, new_ranks))
                events.put(("grew", new_ranks))
            elif what == "respawn":
                rank, reason = msg[3], msg[4]
                with state_lock:
                    granted = rank != 0 and respawn_budget > 0
                    if granted:
                        respawn_budget -= 1
                        incarnations[rank] += 1
                        grant = incarnations[rank]
                        respawn_log.append(
                            RespawnRecord(rank=rank, incarnation=grant, reason=reason)
                        )
                rendezvous.send(host_id, ("rep", req_id, grant if granted else None))
                events.put(("respawn", rank) if granted else ("respawn_denied", rank))
        elif op == "result":
            events.put(("result", msg[1]))
        elif op == "host_done":
            with state_lock:
                hosts_done[host_id] = (msg[2], msg[3], msg[4])
            events.put(("host_done", host_id))
        elif op == "ctrl_lost":
            events.put(("ctrl_lost", host_id))

    rendezvous = Rendezvous(n_hosts, rank_hosts, _handle)
    fault_plan = fault_injector.plan if fault_injector is not None else None
    queues = [ctx.Queue() for _ in range(n_hosts)] if backend == "process" else None
    processes = []
    for host_id in range(n_hosts):
        proc = ctx.Process(
            target=_host_main,
            args=(
                host_id, n_hosts, host_ranks[host_id], rendezvous.addr, fn,
                tuple(args), fault_plan, on_rank_failure,
                tracer.epoch if tracing else None,
                rank_names,
                tracer.reserve_flow_stripe() if tracing else 0,
                options,
                queues,
            ),
            name=f"vmpi-host-{host_id}",
            daemon=True,
        )
        proc.start()
        processes.append(proc)

    returns: dict[int, Any] = {}
    failures: list[tuple[int, BaseException]] = []
    pending = set(range(n_ranks))
    deadline = None if timeout is None else time.monotonic() + timeout
    timed_out = False
    abort_seen_at: float | None = None

    def _consume_result(message: tuple) -> None:
        kind, rank, incarnation = message[0], message[1], message[2]
        with state_lock:
            current = incarnations.get(rank, 0)
        if incarnation != current:
            return  # a stale incarnation's parting words
        if kind == "done":
            returns[rank] = message[3]
            if incarnation > 0:
                with state_lock:
                    failed_flags.pop(rank, None)
            pending.discard(rank)
        elif kind == "quiet":
            pending.discard(rank)
        elif kind == "err":
            failures.append((rank, pickle.loads(message[3])))
            pending.discard(rank)
        elif kind == "selfdead":
            with state_lock:
                failed_flags.setdefault(rank, message[3])
            if respawning and rank != 0:
                return  # stay pending: the replacement will report
            if respawning and rank == 0:
                failures.append(
                    (0, MPIError(
                        "the Nature rank (0) died and cannot be respawned:"
                        f" {message[3]}"
                    ))
                )
                _abort_world("rank 0 died")
            pending.discard(rank)

    while pending:
        try:
            event = events.get(timeout=0.05)
        except stdlib_queue.Empty:
            event = None
        now = time.monotonic()
        if event is not None:
            kind = event[0]
            if kind == "result":
                _consume_result(event[1])
            elif kind == "grew":
                pending.update(event[1])
            elif kind == "respawn_denied":
                pending.discard(event[1])
            elif kind == "aborted":
                abort_seen_at = abort_seen_at or now
            elif kind == "ctrl_lost":
                host_id = event[1]
                with state_lock:
                    already_done = host_id in hosts_done
                if not already_done:
                    _abort_world(f"host {host_id} lost its control link")
            continue
        if abort_seen_at is not None and now - abort_seen_at > _ABORT_DRAIN_GRACE:
            break  # aborted ranks that never managed a parting word
        for host_id, proc in enumerate(processes):
            if proc.exitcode not in (0, None):
                with state_lock:
                    already_done = host_id in hosts_done
                if not already_done:
                    _abort_world(
                        f"host {host_id} process died with exit code {proc.exitcode}"
                    )
                    # Its ranks died with it: no parting words to wait for.
                    pending -= {r for r in pending if _host_of(r, n_hosts) == host_id}
        if deadline is not None and now >= deadline:
            timed_out = True
            _abort_world("executor timeout")
            break

    # Drain: ask every host for its epilogue (counters, fault log, trace),
    # then release them.
    rendezvous.broadcast(("drain",))
    drain_deadline = time.monotonic() + 30.0
    while time.monotonic() < drain_deadline:
        with state_lock:
            done = set(hosts_done)
        if all(
            h in done or not processes[h].is_alive() for h in range(n_hosts)
        ):
            break
        try:
            event = events.get(timeout=0.05)
        except stdlib_queue.Empty:
            continue
        if event[0] == "result":
            _consume_result(event[1])
    rendezvous.broadcast(("exit",))
    for proc in processes:
        proc.join(timeout=10.0)
        if proc.is_alive():  # pragma: no cover - last-resort cleanup
            proc.terminate()
            proc.join(timeout=5.0)
    rendezvous.close()

    merged_counters = CommCounters()
    merged_faults: list = []
    merged_events: list = []
    with state_lock:
        epilogues = [hosts_done[h] for h in sorted(hosts_done)]
        final_size = world_size
        final_failed = dict(failed_flags)
        abort_reason = aborted[0] if aborted else None
    for counters, fault_log, trace_events in epilogues:
        merged_counters.absorb(counters)
        merged_faults.extend(fault_log)
        merged_events.extend(trace_events)
    if fault_injector is not None and merged_faults:
        with fault_injector._lock:
            fault_injector.log.extend(merged_faults)
    if tracing and merged_events:
        tracer.absorb_events(merged_events)

    world = World(final_size, injector=fault_injector, tracer=tracer)
    world.counters.absorb(merged_counters.snapshot())
    for rank in sorted(final_failed):
        world.failed_ranks.add(rank)
        world.failure_reasons.setdefault(rank, final_failed[rank])
    if abort_reason is not None:
        world.abort_event.set()
        world.abort_reason = abort_reason

    if timed_out:
        raise MPIError(f"SPMD program timed out after {timeout} s")
    if failures:
        failures.sort(key=lambda item: item[0])
        _rank, exc = failures[0]
        raise exc
    if world.abort_event.is_set():
        raise CommAbortError(world.abort_reason or "world aborted")
    return SPMDResult(
        returns=[returns.get(rank) for rank in range(final_size)],
        world=world,
        failed_ranks=tuple(sorted(final_failed)),
        respawns=tuple(respawn_log),
    )
