"""The one launcher behind every backend: ranks as threads on hosts.

This is the ``mpiexec --hostfile`` stand-in behind
:func:`~repro.mpi.executor.run_spmd`.  It deals ``n_ranks`` virtual ranks
round-robin across ``n_hosts`` hosts (rank *r* lives on host
``r % n_hosts``), joins the whole world, and returns the
:class:`~repro.mpi.comm.World` it kept as the job's authoritative record in
the :class:`~repro.mpi.executor.SPMDResult`.  There are two kinds of host,
and the backends differ only in which kind and how many:

* ``backend="thread"``: one host, in the calling process.  No fork, no
  socket and no wire (every rank is local); the control link is a direct
  call in both directions.  Nothing is pickled: payloads, return values and
  the re-raised exception are the caller's own objects, and the caller's
  :class:`~repro.mpi.faults.FaultInjector` and tracer are used live.
* ``backend="process"`` and ``backend="tcp"``: OS-process hosts joined by
  framed TCP (loopback in CI; nothing in the protocol assumes that) — one
  host per rank under ``"process"``, so every rank has its own interpreter
  and GIL, and ``n_hosts`` hosts under ``"tcp"``.

OS-process hosts dial into the launcher's
:class:`~repro.mpi.tcp.Rendezvous`, which then carries the control link;
what crosses a process boundary — payloads between hosts, results and
exceptions to the launcher — travels by value and must be picklable.

Architecture
------------
Each host is a :class:`_Host`: a :class:`~repro.mpi.comm.World` holding the
mailboxes of the ranks that live there, plus

* a data-plane wire, :class:`_TcpWire`: a :class:`~repro.mpi.tcp.TcpNode`
  listener plus one supervised :class:`~repro.mpi.tcp.HostChannel` per peer
  host it sends to (host-level links, so a rank respawn never churns
  sockets).  ``deliver`` puts a same-host message straight into the
  destination's mailbox and hands a cross-host one to the wire;
* a control link to the launcher — the control plane that gives failure
  marks, aborts and shutdowns a single total order
  (every host applies the launcher's ``apply`` broadcasts; latency-sensitive
  marks are additionally applied locally first, so a host skips the
  broadcast of its own mark and of any mark the launcher ordered before it);
* one thread per local rank, each holding a :class:`~repro.mpi.comm.Comm`
  on the host.

Fault handling: an injected ``crash`` kills the rank *thread* — its host
stays up and reports — which is marked failed world-wide and, under
``on_rank_failure="respawn"``, replaced by a fresh incarnation *on the
same host* after a centrally granted budget check; the replacement rejoins
via the rank program's own recovery protocol (FTHello/FTRejoin).  A host
process that dies unreported (SIGKILL, OOM) is not replaced: the launcher
aborts the world naming the host, and the supervisor layer resumes from the
latest checkpoint.  Injected ``partition``/``conn_reset``/``slow_link``
faults live a layer below, inside the tcp channels of every OS-process
world (see :mod:`repro.mpi.tcp`): the channel reconnects, and the frames
the socket lost are resent by the rank program's reliable layer
(:meth:`~repro.mpi.comm.Comm.post_reliable`), as after an injected
``drop``.  Only a partition outlasting the channel's unreachable grace
escalates into :class:`~repro.errors.PeerUnreachableError` and the
failed-rank machinery.

The world's size is fixed at launch, as ``MPI_COMM_WORLD``'s is: a rank
enters a running world only as a respawned incarnation of itself, and
leaves it only by failing or at shutdown.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as stdlib_queue
import threading
import time
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Any, Callable, Iterator

from repro.errors import (
    CommAbortError,
    MPIError,
    PeerUnreachableError,
    RankCrashError,
)
from repro.logging_util import get_logger
from repro.mpi.comm import Comm, World, _Mailbox
from repro.mpi.faults import FaultInjector, FaultPlan
from repro.mpi.tcp import ControlClient, HostChannel, NetHello, Rendezvous, TcpNode
from repro.obs.tracer import NULL_TRACER, Tracer, activate

__all__ = ["MAX_PROCESS_RANKS", "MAX_TCP_RANKS", "MAX_TCP_HOSTS"]

_LOG = get_logger("mpi.hostexec")

#: OS processes are far heavier than threads; virtual worlds beyond this
#: belong to the thread backend or the performance model.
MAX_PROCESS_RANKS = MAX_TCP_RANKS = 256
MAX_TCP_HOSTS = 16

#: Seconds a control request (a respawn grant) may wait for its reply.
_REQ_TIMEOUT = 60.0
#: Seconds a failed-but-alive (hung) rank keeps its thread before a
#: replacement incarnation is started next to it.
_RESPAWN_HANG_GRACE = 1.0
#: Seconds the launcher lets an aborted world drain results before
#: collecting what it has.
_ABORT_DRAIN_GRACE = 10.0
#: Seconds a host waits for the launcher's exit token after reporting done.
_EXIT_GRACE = 60.0


def _pick_context():
    methods = multiprocessing.get_all_start_methods()
    # fork keeps closures and non-module functions working and starts far
    # faster; spawn is the portable fallback.
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _TcpWire:
    """Socket data plane: a listener plus one supervised channel per peer host.

    The plan's ``partition``/``slow_link``/``conn_reset`` faults are decided
    here, once per outgoing frame, and carried out inside the channel.
    """

    def __init__(self, host: "_Host") -> None:
        self._host = host
        self._lock = threading.Lock()
        self._channels: dict[int, HostChannel] = {}
        self._frame_counts: dict[tuple[int, int], int] = {}
        #: host id → data-plane address to dial, from the rendezvous welcome.
        self.peers: dict[int, tuple[str, int]] = {}
        self._node = TcpNode(host.host_id, host.deliver_local)
        self.addr: tuple[str, int] = self._node.addr

    def _channel(self, peer_host: int) -> HostChannel:
        host = self._host
        with self._lock:
            channel = self._channels.get(peer_host)
            if channel is None:
                channel = HostChannel(
                    host.host_id,
                    peer_host,
                    self.peers.get,
                    counters=host.counters,
                    tracer=host.tracer,
                    trace_rank=min(host.mailboxes),
                )
                self._channels[peer_host] = channel
            return channel

    def send(
        self, source: int, dest: int, dest_host: int, tag: int, payload: Any,
        nbytes: int, msg_id: int,
    ) -> None:
        """Route one message to a rank on another host (rank-thread path)."""
        host = self._host
        fault: tuple[str, float] | None = None
        if host.injector is not None:
            with self._lock:
                frame_index = self._frame_counts.get((source, dest), 0)
                self._frame_counts[(source, dest)] = frame_index + 1
            kind = host.injector.link_fault(source, dest, frame_index)
            if kind is not None:
                plan = host.injector.plan
                seconds = (
                    plan.partition_seconds
                    if kind == "partition"
                    else plan.slow_link_seconds if kind == "slow_link" else 0.0
                )
                fault = (kind, seconds)
                host.counters.record(f"net.{kind}")
                if host.tracer.enabled:
                    host.tracer.instant(
                        f"net.{kind}", cat="net", rank=source,
                        args={"dest": dest, "frame_index": frame_index},
                    )
        self._channel(dest_host).send(source, dest, tag, payload, nbytes, msg_id, fault=fault)

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


class _Host(World):
    """One host's replica of the world: a :class:`World` plus a wire and a
    control link.

    It holds the mailboxes of the ranks that live here and runs a thread for
    each.  A world verb applies to this replica first — local receivers
    react at once — and is then told to the launcher, which records it and
    has every replica apply it (idempotently).  ``wire`` (the
    data plane to the other hosts; a one-host world has none) and ``tell``
    (one message up the control link) are set by whoever builds the host,
    before :meth:`serving`.
    """

    def __init__(
        self,
        host_id: int,
        n_hosts: int,
        size: int,
        fn: Callable[..., Any],
        args: tuple,
        on_rank_failure: str,
        injector: FaultInjector | None,
        tracer: Tracer | None,
    ) -> None:
        self.host_id = host_id
        self.n_hosts = n_hosts
        super().__init__(size, injector=injector, tracer=tracer)
        self.fn = fn
        self.args = args
        self.on_rank_failure = on_rank_failure
        self.wire: Any = None
        self.tell: Callable[[tuple], None] | None = None
        self.exit_event = threading.Event()
        self.drain_event = threading.Event()
        self._incarnations: dict[int, int] = {}  # local ranks respawned so far
        self._threads: list[threading.Thread] = []
        self._respawning: set[int] = set()
        # Liveness marks made here whose launcher broadcast has not come
        # back yet, by rank.  Reentrant: in a thread world the broadcast
        # comes back inside the tell.
        self._unechoed: dict[int, int] = {}
        self._marks_lock = threading.RLock()
        self._req_lock = threading.Lock()
        self._req_seq = 0
        self._req_waits: dict[int, tuple[threading.Event, list]] = {}

    def _hosts(self, rank: int) -> bool:
        # The same rule on every host and in the launcher, so nobody needs
        # a table.
        return rank % self.n_hosts == self.host_id

    # -- data plane ----------------------------------------------------------------

    def deliver(
        self, source: int, dest: int, tag: int, payload: Any, nbytes: int, msg_id: int = 0
    ) -> None:
        """Route one message: a local rank's mailbox, else the wire."""
        box = self.mailboxes.get(dest)
        if box is None:
            self.wire.send(source, dest, dest % self.n_hosts, tag, payload, nbytes, msg_id)
            return
        box.deliver(source, tag, payload, nbytes, msg_id)

    def deliver_local(
        self, source: int, dest: int, tag: int, payload: Any, nbytes: int, msg_id: int
    ) -> None:
        """Inbound frame from the wire: hand it to the local mailbox."""
        box = self.mailboxes.get(dest)
        if box is None:
            _LOG.debug("host %d dropping frame for non-local rank %d", self.host_id, dest)
            return
        box.deliver(source, tag, payload, nbytes, msg_id)

    def is_unreachable(self, rank: int) -> bool:
        host = rank % self.n_hosts
        return host != self.host_id and self.wire.is_unreachable(host)

    # -- control plane -------------------------------------------------------------

    def _on_ctrl(self, msg: Any) -> None:
        """Apply one message from the launcher (in a host process this runs
        on the control reader thread)."""
        op = msg[0]
        if op == "apply":
            what = msg[1]
            if what in ("mark_failed", "mark_alive"):
                rank, origin = msg[2], msg[-1]
                with self._marks_lock:
                    if origin == self.host_id:
                        # Our own mark: applied when it was made.
                        self._unechoed[rank] -= 1
                        return
                    if self._unechoed.get(rank):
                        # Ordered before a mark of ours still on its way
                        # back, which supersedes it: applying it now would
                        # undo that later mark (Nature's mark_alive of a
                        # rejoining rank, say).
                        return
                    if what == "mark_failed":
                        self._apply_mark_failed(rank, msg[3])
                    else:
                        super().mark_alive(rank)
            elif what == "abort":
                super().abort(msg[2])
            elif what == "shutdown":
                super().shutdown()
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
                super().abort("control link to the launcher was lost")
                self.exit_event.set()
                self.drain_event.set()

    def _tell(self, *msg: Any) -> None:
        """One message up the control link.  A link that has died is not the
        caller's error: the launcher aborts the world on its own when a host
        goes silent."""
        try:
            self.tell(msg)
        except OSError:
            _LOG.debug("host %d: control link down, %s not sent", self.host_id, msg[0])

    def _request(self, *req: Any) -> Any:
        """Round-trip one request to the launcher; None on timeout."""
        event = threading.Event()
        slot: list = []
        with self._req_lock:
            self._req_seq += 1
            req_id = self._req_seq
            self._req_waits[req_id] = (event, slot)
        try:
            self.tell(("req", req_id, *req))
        except OSError:
            with self._req_lock:
                self._req_waits.pop(req_id, None)
            return None
        if not event.wait(timeout=_REQ_TIMEOUT):
            with self._req_lock:
                self._req_waits.pop(req_id, None)
            return None
        return slot[0] if slot else None

    def _apply_mark_failed(self, rank: int, reason: str) -> bool:
        fresh = super().mark_failed(rank, reason)
        if (
            fresh
            and self.on_rank_failure == "respawn"
            and rank != 0
            and rank in self.mailboxes
        ):
            # Possibly a hang (thread alive but declared dead by the
            # protocol layer): give a heal a grace window, then respawn a
            # fresh incarnation next to the silent thread.  The timer
            # no-ops when the crash path already respawned (incarnation
            # moved on) or the mark was stale (flag cleared by a heal).
            timer = threading.Timer(
                _RESPAWN_HANG_GRACE,
                self._hang_respawn_check,
                args=(rank, self._incarnations.get(rank, 0), reason),
            )
            timer.daemon = True
            timer.start()
        return fresh

    def _hang_respawn_check(self, rank: int, incarnation: int, reason: str) -> None:
        if self.is_failed(rank) and self._incarnations.get(rank, 0) == incarnation:
            self.maybe_respawn(rank, reason or "declared failed while silent", incarnation)

    def mark_failed(self, rank: int, reason: str = "") -> bool:
        with self._marks_lock:
            self._unechoed[rank] = self._unechoed.get(rank, 0) + 1
            fresh = self._apply_mark_failed(rank, reason)
            self._tell("ctrl", "mark_failed", rank, reason, self.host_id)
        return fresh

    def mark_alive(self, rank: int) -> None:
        with self._marks_lock:
            self._unechoed[rank] = self._unechoed.get(rank, 0) + 1
            super().mark_alive(rank)
            self._tell("ctrl", "mark_alive", rank, self.host_id)

    def abort(self, reason: str) -> None:
        super().abort(reason)
        self._tell("ctrl", "abort", reason)

    def shutdown(self) -> None:
        super().shutdown()
        self._tell("ctrl", "shutdown")

    # -- rank threads --------------------------------------------------------------

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
            if (
                self._incarnations.get(rank, 0) != dead_incarnation
                or rank in self._respawning
            ):
                return False
            self._respawning.add(rank)
        try:
            grant = self._request("respawn", rank, reason)
            if grant is None:
                _LOG.debug("host %d: no respawn grant for rank %d", self.host_id, rank)
                return False
            with self._lock:
                self._incarnations[rank] = grant
                self.mailboxes[rank] = _Mailbox()
            self.counters.record("respawn", messages=0)
            if self.tracer.enabled:
                self.tracer.instant(
                    "respawn", cat="mpi.fault", rank=rank,
                    args={"incarnation": grant, "reason": reason},
                )
            self.start_rank(rank, grant)
            return True
        finally:
            with self._lock:
                self._respawning.discard(rank)

    def _run_rank(self, rank: int, incarnation: int) -> None:
        comm = Comm(self, rank, incarnation)
        if self.tracer.enabled:
            self.tracer.set_rank(rank)
        try:
            value = self.fn(comm, *self.args)
        except CommAbortError:
            # Secondary casualty of another rank's failure; keep quiet.
            self._tell("result", ("quiet", rank, incarnation, None))
        except PeerUnreachableError as exc:
            # Cut off by a partition this rank could not degrade around
            # (e.g. a worker that lost Nature).  Die like a crash: marked
            # failed, maybe respawned — the replacement rejoins once the
            # partition heals.
            self._die_to_fault(
                rank, incarnation, RankCrashError(f"unreachable peer: {exc}")
            )
        except RankCrashError as exc:
            self._die_to_fault(rank, incarnation, exc)
        except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
            _LOG.debug("rank %d failed: %r", rank, exc)
            self.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
            self._tell("result", ("err", rank, incarnation, exc))
        else:
            self._tell("result", ("done", rank, incarnation, value))

    def _die_to_fault(self, rank: int, incarnation: int, exc: RankCrashError) -> None:
        reason = str(exc)
        if self.on_rank_failure == "abort":
            self.abort(f"rank {rank} died: {reason}")
            self._tell("result", ("err", rank, incarnation, exc))
            return
        # Injected death: this rank is gone, the job survives.
        _LOG.debug("rank %d dying: %s", rank, reason)
        self.mark_failed(rank, reason)
        self._tell("result", ("selfdead", rank, incarnation, reason))
        if self.on_rank_failure == "respawn" and rank != 0:
            self.maybe_respawn(rank, reason, incarnation)

    @contextmanager
    def serving(self) -> Iterator[None]:
        """Run this host's ranks: one thread per local rank on entry; on exit
        every thread started since (respawns too) is joined.

        Meanwhile the host's tracer is also the process-active one, so
        rank-agnostic instrumentation (the game engines) reaches it.
        """
        with activate(self.tracer) if self.tracer is not NULL_TRACER else nullcontext():
            for rank in tuple(self.mailboxes):
                self.start_rank(rank, 0)
            try:
                yield
            finally:
                with self._lock:
                    threads = list(self._threads)
                for thread in threads:
                    thread.join(timeout=5.0)


class _DirectHub:
    """The launcher's end of the control plane when the world's one host
    lives in the launcher's process: the :class:`~repro.mpi.tcp.Rendezvous`
    surface as plain calls into the host.  Nothing is pickled, and a message
    has been applied by the time ``send`` returns."""

    def __init__(self, host: _Host) -> None:
        self._on_ctrl = host._on_ctrl

    def send(self, host_id: int, msg: Any) -> None:
        self._on_ctrl(msg)

    def broadcast(self, msg: Any) -> None:
        self._on_ctrl(msg)

    def close(self) -> None:
        # Break the host -> tell -> handler -> hub -> host cycle, so a finished
        # world's mailboxes and arguments are freed at once, not at the next GC.
        self._on_ctrl = None


def _send_pickled(ctrl: ControlClient, msg: tuple) -> None:
    """``tell`` over a link that pickles (the host is a process of its own).

    A rank's return value or exception that cannot cross it is replaced by
    an error that can, raised in the caller in its place.
    """
    if msg[0] == "result":
        kind, rank, incarnation, body = msg[1]
        try:
            pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - pickling fails in many ways
            what = (
                f"rank {rank} returned an unpicklable value: {exc!r}"
                if kind == "done"
                else f"unpicklable rank exception: {body!r}"
            )
            msg = ("result", ("err", rank, incarnation, MPIError(what)))
    ctrl.send(msg)


def _host_main(
    host_id: int,
    n_hosts: int,
    n_ranks: int,
    controller_addr: tuple[str, int],
    fn: Callable[..., Any],
    args: tuple,
    fault_plan: FaultPlan | None,
    on_rank_failure: str,
    trace_epoch: float | None,
    flow_start: int,
) -> None:
    """Entry point of one host process (module-level for spawn support).

    The injector and tracer are this process's own copies, so what they
    gathered is shipped to the launcher with the counters once the ranks
    are done.
    """
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    tracer = (
        Tracer(epoch=trace_epoch, flow_start=flow_start)
        if trace_epoch is not None
        else None
    )
    host = _Host(host_id, n_hosts, n_ranks, fn, args, on_rank_failure, injector, tracer)
    host.wire = wire = _TcpWire(host)
    # The control reader starts inside ControlClient, before the host can be
    # given the link: it holds its first message until the host is whole (a
    # broadcast from another host's ranks can race this function).
    wired = threading.Event()

    def on_ctrl(msg: Any) -> None:
        wired.wait()
        host._on_ctrl(msg)

    ctrl = ControlClient(
        controller_addr,
        NetHello(
            host=host_id, incarnation=0, data_addr=wire.addr, ranks=tuple(host.mailboxes)
        ),
        on_ctrl,
    )
    host.tell = partial(_send_pickled, ctrl)
    wire.peers.update(ctrl.welcome.hosts)
    wired.set()
    try:
        with host.serving():
            # Serve until the launcher calls for the drain: rank threads
            # come and go (respawns), the wire stays up.
            host.drain_event.wait()
        try:
            ctrl.send((
                "host_done", host_id, host.counters.snapshot(),
                list(injector.log) if injector is not None else [],
                tracer.events() if tracer is not None else [],
            ))
        except OSError:  # pragma: no cover - launcher died; nothing to report to
            pass
        host.exit_event.wait(timeout=_EXIT_GRACE)
    finally:
        wire.close()
        ctrl.close()


def _launch(
    backend: str,
    n_ranks: int,
    fn: Callable[..., Any],
    args: tuple,
    timeout: float | None,
    fault_injector: FaultInjector | None,
    on_rank_failure: str,
    tracer: Tracer | None,
    n_hosts: int,
    max_respawns: int,
) -> Any:
    """Launch and join one world; ``run_spmd`` has validated the arguments.

    The backend chooses where the hosts live and how many there are (see
    the module docstring); the control handler, result collection, wait
    loop and epilogue below are the same for all three.
    """
    # The result types live with the public entry point, which imports this module.
    from repro.mpi.executor import RespawnRecord, SPMDResult

    respawning = on_rank_failure == "respawn"
    tracing = tracer is not None and tracer.enabled

    if tracing:
        named = tracer.rank_names()
        for rank in range(n_ranks):
            if rank not in named:
                tracer.name_rank(rank, f"rank {rank}")

    # The launcher's own World is the job's authoritative record — size,
    # marks, abort, counters — and what the caller gets back.  Rendezvous
    # reader threads (or, in a thread world, the rank threads themselves)
    # and the wait loop below all feed it; every event funnels through one
    # queue.
    world = World(n_ranks, injector=fault_injector, tracer=tracer)
    events: stdlib_queue.Queue = stdlib_queue.Queue()
    state_lock = threading.Lock()
    incarnations: dict[int, int] = {}
    respawn_log: list[RespawnRecord] = []
    respawn_budget = max_respawns if respawning else 0
    hosts_done: dict[int, tuple] = {}

    def _abort_world(reason: str) -> None:
        with state_lock:
            if world.abort_event.is_set():
                return  # every host has been told already
            world.abort(reason)
        hub.broadcast(("apply", "abort", reason))
        events.put(("aborted",))

    def _handle(host_id: int, msg: Any) -> None:
        nonlocal respawn_budget
        op = msg[0]
        if op == "ctrl":
            what = msg[1]
            if what == "abort":
                _abort_world(msg[2])
                return
            if what == "mark_failed":
                world.mark_failed(msg[2], msg[3])
            elif what == "mark_alive":
                world.mark_alive(msg[2])
            elif what == "shutdown":
                world.shutdown()
            hub.broadcast(("apply", *msg[1:]))
        elif op == "req":
            req_id, what = msg[1], msg[2]
            if what == "respawn":
                rank, reason = msg[3], msg[4]
                with state_lock:
                    grant = None
                    if rank != 0 and respawn_budget > 0:
                        respawn_budget -= 1
                        grant = incarnations[rank] = incarnations.get(rank, 0) + 1
                        respawn_log.append(
                            RespawnRecord(rank=rank, incarnation=grant, reason=reason)
                        )
                hub.send(host_id, ("rep", req_id, grant))
                if grant is None:
                    events.put(("respawn_denied", rank))
        elif op == "result":
            events.put(("result", msg[1]))
        elif op == "host_done":
            with state_lock:
                hosts_done[host_id] = (msg[2], msg[3], msg[4])
            events.put(("host_done", host_id))
        elif op == "ctrl_lost":
            events.put(("ctrl_lost", host_id))

    processes: list = []
    if backend == "thread":
        # One host, living right here: it shares the launcher's counters and
        # the caller's injector and tracer, so nothing is shipped back.
        host = _Host(0, 1, n_ranks, fn, args, on_rank_failure, fault_injector, tracer)
        host.counters = world.counters
        host.tell = partial(_handle, 0)
        hub: Any = _DirectHub(host)
        serving = host.serving()
    else:
        n_hosts = n_ranks if backend == "process" else min(n_hosts, n_ranks)
        ctx = _pick_context()
        hub = Rendezvous(n_hosts, {r: r % n_hosts for r in range(n_ranks)}, _handle)
        for host_id in range(n_hosts):
            proc = ctx.Process(
                target=_host_main,
                args=(
                    host_id, n_hosts, n_ranks, hub.addr, fn, args,
                    fault_injector.plan if fault_injector is not None else None,
                    on_rank_failure,
                    tracer.epoch if tracing else None,
                    tracer.reserve_flow_stripe() if tracing else 0,
                ),
                name=f"vmpi-host-{host_id}",
                daemon=True,
            )
            proc.start()
            processes.append(proc)
        serving = nullcontext()

    returns: dict[int, Any] = {}
    failures: list[tuple[int, BaseException]] = []
    pending = set(range(n_ranks))
    deadline = None if timeout is None else time.monotonic() + timeout
    timed_out = False
    abort_seen_at: float | None = None

    def _consume_result(message: tuple) -> None:
        kind, rank, incarnation, body = message
        with state_lock:
            current = incarnations.get(rank, 0)
        if incarnation != current:
            return  # a stale incarnation's parting words
        if kind == "done":
            returns[rank] = body
            if incarnation > 0:
                world.mark_alive(rank)
            pending.discard(rank)
        elif kind == "quiet":
            pending.discard(rank)
        elif kind == "err":
            failures.append((rank, body))
            _abort_world(f"rank {rank} failed: {body!r}")
            pending.discard(rank)
        elif kind == "selfdead":
            world.mark_failed(rank, body)
            if respawning and rank != 0:
                return  # stay pending: the replacement will report
            if respawning and rank == 0:
                failures.append(
                    (0, MPIError(
                        f"the Nature rank (0) died and cannot be respawned: {body}"
                    ))
                )
                _abort_world("rank 0 died")
            pending.discard(rank)

    with serving:
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
                elif kind == "respawn_denied":
                    pending.discard(event[1])
                elif kind == "aborted":
                    abort_seen_at = abort_seen_at or now
                elif kind == "ctrl_lost" and event[1] not in hosts_done:
                    _abort_world(f"host {event[1]} lost its control link")
                continue
            if abort_seen_at is not None and now - abort_seen_at > _ABORT_DRAIN_GRACE:
                break  # aborted ranks that never managed a parting word
            for host_id, proc in enumerate(processes):
                if proc.exitcode not in (0, None) and host_id not in hosts_done:
                    _abort_world(
                        f"host {host_id} process died with exit code {proc.exitcode}"
                    )
                    # Its ranks died with it: no parting words to wait for.
                    pending -= {r for r in pending if r % n_hosts == host_id}
            if deadline is not None and now >= deadline:
                timed_out = True
                _abort_world("executor timeout")
                break

    # Drain: ask every host process for what it gathered on its own
    # (counters, fault log, trace), then release it.
    hub.broadcast(("drain",))
    drain_deadline = time.monotonic() + 30.0
    while time.monotonic() < drain_deadline:
        if all(h in hosts_done or not proc.is_alive() for h, proc in enumerate(processes)):
            break
        try:
            event = events.get(timeout=0.05)
        except stdlib_queue.Empty:
            continue
        if event[0] == "result":
            _consume_result(event[1])
    hub.broadcast(("exit",))
    for proc in processes:
        proc.join(timeout=10.0)
        if proc.is_alive():  # pragma: no cover - last-resort cleanup
            proc.terminate()
            proc.join(timeout=5.0)
    hub.close()

    with state_lock:
        epilogues = [hosts_done[h] for h in sorted(hosts_done)]
    merged_events: list = []
    for counters, fault_log, trace_events in epilogues:
        world.counters.absorb(counters)
        if fault_injector is not None and fault_log:
            with fault_injector._lock:
                fault_injector.log.extend(fault_log)
        merged_events.extend(trace_events)
    if tracing and merged_events:
        # One merge, so sequence numbers follow wall time across hosts.
        tracer.absorb_events(merged_events)

    if timed_out:
        raise MPIError(f"SPMD program timed out after {timeout} s")
    if failures:
        failures.sort(key=lambda item: item[0])
        _rank, exc = failures[0]
        raise exc
    if world.abort_event.is_set():
        # A rank called abort() deliberately (no other exception to blame):
        # surface it — like MPI_Abort, the job did not complete normally.
        raise CommAbortError(world.abort_reason or "world aborted")
    return SPMDResult(
        returns=[returns.get(rank) for rank in range(world.size)],
        world=world,
        failed_ranks=tuple(sorted(world.failed_ranks)),
        respawns=tuple(respawn_log),
    )
