"""The virtual MPI communicator.

This is the message-passing substrate standing in for the paper's C/MPI on
Blue Gene: tagged point-to-point ``send``/``recv`` (plus a non-blocking
``isend`` and ``probe``) between ranks that live as threads — all in one
process, or on several hosts joined by a wire (:mod:`repro.mpi.hostexec`) —
plus the collectives ``bcast`` (binomial tree, the stand-in for Blue Gene's
collective network), ``gather``, ``reduce``, ``allreduce`` and ``barrier``
— all built from the same point-to-point layer so the traffic counters see
every hop.

Semantics follow MPI closely enough that the algorithm code reads like its
C original: messages between a (source, dest) pair are non-overtaking per
tag, ``recv`` accepts wildcards, collectives must be entered by every rank
of the communicator in the same order.

The runtime is cooperative, not preemptive — ranks block on condition
variables, so thousands of virtual ranks work, bounded by thread memory.
For the paper's 262,144-rank scales use the performance model
(:mod:`repro.perf`), which consumes the same cost structure analytically.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import (
    CommAbortError,
    MPIError,
    PeerUnreachableError,
    RankCrashError,
    RankError,
    RankFailedError,
    RecvTimeoutError,
)
from repro.mpi.counters import CommCounters
from repro.mpi.faults import CorruptedPayload, FaultInjector
from repro.mpi.status import ANY_SOURCE, ANY_TAG, MAX_USER_TAG, Status
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["World", "Comm", "payload_nbytes", "backoff_wait"]

# Internal tag bases (above MAX_USER_TAG, per-collective-call sequenced).
_TAG_BCAST = 1 << 28
_TAG_GATHER = 2 << 28
_TAG_REDUCE = 4 << 28
_TAG_BARRIER = 5 << 28
_TAG_RDATA = 8 << 28
_TAG_RACK = 9 << 28
_SEQ_MASK = (1 << 28) - 1


def backoff_wait(
    base: float,
    attempt: int,
    *,
    factor: float = 2.0,
    cap: float = 2.0,
    jitter: float = 0.5,
    key: tuple = (),
) -> float:
    """Capped, jittered exponential backoff wait for retry ``attempt``.

    Pure geometric growth (``base * factor**attempt``) has two classic
    failure modes at scale: unbounded waits (a rank can sleep for minutes
    on a peer that died seconds ago) and retry storms (many senders backing
    off from the same slow peer compute *identical* waits and re-collide on
    every retry).  This helper fixes both: the exponential wait is clamped
    to ``cap`` seconds, then shrunk by up to ``jitter`` (a fraction in
    ``[0, 1)``) using a *deterministic* hash of ``key + (attempt,)`` — so
    distinct (sender, peer, attempt) tuples decorrelate while any single
    run remains bit-reproducible.

    Returns a wait in ``[wait * (1 - jitter), wait]`` where
    ``wait = min(base * factor**attempt, cap)``.
    """
    if base < 0.0 or factor < 1.0 or cap < 0.0 or not 0.0 <= jitter < 1.0:
        raise MPIError(
            f"invalid backoff parameters: base={base} factor={factor}"
            f" cap={cap} jitter={jitter}"
        )
    wait = min(base * factor**attempt, cap)
    if jitter == 0.0 or wait == 0.0:
        return wait
    digest = hashlib.blake2b(
        repr(key + (attempt,)).encode(), digest_size=8
    ).digest()
    unit = int.from_bytes(digest, "big") / 2**64
    return wait * (1.0 - jitter * unit)


def payload_nbytes(payload: Any) -> int:
    """Estimated wire size of a message payload.

    Exact for ndarrays and bytes; pickled length otherwise.  Used for
    counters and the machine model's transfer costs.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


class _Mailbox:
    """One rank's incoming message queue with tag matching."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ready = threading.Condition(self.lock)
        # (source, tag, payload, nbytes, msg_id) — msg_id joins send to recv
        # in exported traces (0 when tracing is off).
        self.messages: list[tuple[int, int, Any, int, int]] = []

    def deliver(
        self, source: int, tag: int, payload: Any, nbytes: int, msg_id: int = 0
    ) -> None:
        with self.lock:
            self.messages.append((source, tag, payload, nbytes, msg_id))
            self.ready.notify_all()

    def _match_index(self, source: int, tag: int) -> int | None:
        for i, (src, tg, _payload, _n, _mid) in enumerate(self.messages):
            if (source == ANY_SOURCE or src == source) and (tag == ANY_TAG or tg == tag):
                return i
        return None

    def take(
        self, source: int, tag: int, world: "World", timeout: float | None
    ) -> tuple[int, int, Any, int, int]:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.lock:
            while True:
                if world.abort_event.is_set():
                    raise CommAbortError("communicator aborted while waiting for a message")
                idx = self._match_index(source, tag)
                if idx is not None:
                    return self.messages.pop(idx)
                if source != ANY_SOURCE and world.is_failed(source):
                    raise RankFailedError(
                        f"rank {source} failed while a recv was waiting on tag={tag}",
                        rank=source,
                        deadline=timeout,
                    )
                if source != ANY_SOURCE and world.is_unreachable(source):
                    raise PeerUnreachableError(
                        f"rank {source} is unreachable (network partition past"
                        f" grace) while a recv was waiting on tag={tag}",
                        rank=source,
                        deadline=timeout,
                    )
                if world.stop_event.is_set():
                    raise CommAbortError("world shut down while waiting for a message")
                remaining = 0.05 if deadline is None else deadline - time.monotonic()
                if remaining <= 0.0:
                    raise RecvTimeoutError(
                        f"recv timed out after {timeout} s waiting for"
                        f" source={source} tag={tag}",
                        rank=None if source == ANY_SOURCE else source,
                        deadline=timeout,
                    )
                # Wake periodically to observe aborts/failures even with no traffic.
                self.ready.wait(timeout=min(0.05, remaining))

    def probe(self, source: int, tag: int) -> Status | None:
        with self.lock:
            idx = self._match_index(source, tag)
            if idx is None:
                return None
            src, tg, _payload, nbytes, _mid = self.messages[idx]
            return Status(source=src, tag=tg, nbytes=nbytes)

    def take_matching(
        self, predicate: Callable[[int, int, Any], bool]
    ) -> list[tuple[int, int, Any, int, int]]:
        """Remove and return every pending message matching ``predicate``.

        Non-blocking; used by the reliable layer to service resent frames
        out of band while a rank is itself blocked in ``send_reliable``.
        """
        with self.lock:
            taken: list[tuple[int, int, Any, int, int]] = []
            kept: list[tuple[int, int, Any, int, int]] = []
            for msg in self.messages:
                (taken if predicate(msg[0], msg[1], msg[2]) else kept).append(msg)
            self.messages[:] = kept
            return taken


class World:
    """The state of one virtual MPI job, held once: mailboxes by rank,
    failed marks, abort and stop events, counters, the fault injector and
    the tracer.  Its size is fixed at construction, like
    ``MPI_COMM_WORLD``'s.

    ``World(n).comm(r)`` is a complete in-process job on its own (no
    launcher needed).  Under :func:`~repro.mpi.executor.run_spmd` the
    launcher keeps one ``World`` as the authoritative record it returns as
    ``SPMDResult.world``, and every host holds a replica that is this class
    plus a wire and a control link (:mod:`repro.mpi.hostexec`).

    An optional :class:`~repro.mpi.faults.FaultInjector` makes the network
    unreliable: it decides, per point-to-point transmission, whether the
    message is dropped, delayed, duplicated, or corrupted, and which ranks
    crash or hang at generation boundaries (see :meth:`Comm.fault_point`).

    An optional :class:`~repro.obs.tracer.Tracer` records every send, recv,
    collective and reliable-layer operation as timed per-rank events; when
    omitted the no-op :data:`~repro.obs.tracer.NULL_TRACER` keeps the hot
    paths free of tracing cost.
    """

    def __init__(
        self,
        size: int,
        injector: FaultInjector | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if size < 1:
            raise MPIError(f"world size must be >= 1, got {size}")
        self.size = size
        self.mailboxes: dict[int, _Mailbox] = {
            rank: _Mailbox() for rank in range(size) if self._hosts(rank)
        }
        self.counters = CommCounters()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.injector = injector
        self.abort_event = threading.Event()
        self.abort_reason: str | None = None
        self.stop_event = threading.Event()
        self.failed_ranks: set[int] = set()
        self.failure_reasons: dict[int, str] = {}
        # Every write to the marks, the mailboxes and the handle cache
        # takes this lock.  Reads take none: set and dict lookups are atomic
        # under the GIL and entries are only ever added or swapped whole.
        self._lock = threading.Lock()
        self._comms: dict[int, "Comm"] = {}

    def _hosts(self, rank: int) -> bool:
        """Whether ``rank``'s mailbox lives in this object (all do, unless
        this is one host's share of a multi-host world)."""
        return True

    def comm(self, rank: int) -> "Comm":
        """The communicator handle for ``rank`` (cached: collective sequence
        numbers live on the handle, so every caller must share it)."""
        if not 0 <= rank < self.size:
            raise RankError(f"rank {rank} out of range [0, {self.size})")
        with self._lock:
            comm = self._comms.get(rank)
            if comm is None:
                comm = Comm(self, rank)
                self._comms[rank] = comm
            return comm

    def deliver(
        self, source: int, dest: int, tag: int, payload: Any, nbytes: int, msg_id: int = 0
    ) -> None:
        """Route one message to ``dest``: here, straight into its mailbox."""
        self.mailboxes[dest].deliver(source, tag, payload, nbytes, msg_id)

    def abort(self, reason: str) -> None:
        """Poison the world: every blocked or future operation raises.

        The first reason is kept — later aborts are its consequences.
        """
        if self.abort_reason is None:
            self.abort_reason = reason
        self.abort_event.set()
        self._wake_all()

    def shutdown(self) -> None:
        """Gracefully end the job: wake hung/blocked ranks without poisoning.

        Unlike :meth:`abort` this is not an error — it releases ranks that
        are permanently silent (injected hangs, falsely-suspected stragglers)
        so the launcher can join every thread after a degraded run completes.
        """
        self.stop_event.set()
        self._wake_all()

    def mark_failed(self, rank: int, reason: str = "") -> bool:
        """Record ``rank`` as dead; receivers waiting on it fail fast.

        Returns whether the mark is new (the rank was not already failed).
        """
        with self._lock:
            fresh = rank not in self.failed_ranks
            self.failed_ranks.add(rank)
            self.failure_reasons.setdefault(rank, reason)
        self._wake_all()
        return fresh

    def mark_alive(self, rank: int) -> None:
        """Clear ``rank``'s failed mark: it completed a rejoin.

        The recovery path calls this after a respawned rank completes its
        rejoin handshake; receivers that were failing fast on the rank go
        back to waiting normally.  The recorded failure reason is kept as
        history.
        """
        with self._lock:
            self.failed_ranks.discard(rank)
        self._wake_all()

    def is_failed(self, rank: int) -> bool:
        """Whether ``rank`` has been marked dead."""
        return rank in self.failed_ranks

    def is_unreachable(self, rank: int) -> bool:
        """Whether ``rank`` is *locally* unobservable over the network.

        Always ``False`` in a world without a wire — only a host whose data
        plane is the TCP transport (:mod:`repro.mpi.hostexec`) says
        otherwise, after a peer host's connection has been down past its
        grace deadline.  Unlike :meth:`is_failed` this is a local opinion,
        not a global verdict: the peer may be alive across a partition.
        """
        return False

    def _wake_all(self) -> None:
        for box in list(self.mailboxes.values()):
            with box.lock:
                box.ready.notify_all()


class _Request:
    """Handle for an :meth:`Comm.isend`; complete once the message is delivered."""

    def __init__(self, delivered: threading.Event) -> None:
        self._delivered = delivered

    def wait(self) -> None:
        """Block until the message reaches the destination mailbox."""
        self._delivered.wait()

    def test(self) -> bool:
        """True once the message reached the destination mailbox; never blocks.

        Delay faults keep the request pending until delivery.
        """
        return self._delivered.is_set()


def _frame_checksum(seq: int, tag: int, ack: int, blob: bytes) -> bytes:
    digest = hashlib.blake2b(b"%d/%d/%d/" % (seq, tag, ack), digest_size=8)
    digest.update(blob)
    return digest.digest()


@dataclass(frozen=True)
class _ReliablePacket:
    """On-wire frame of the reliable layer: sequenced, checksummed payload.

    ``ack`` is the cumulative acknowledgement of the reverse direction: the
    sender has delivered every frame of the receiver's with ``seq < ack``.
    """

    seq: int
    tag: int
    ack: int
    blob: bytes
    checksum: bytes


@dataclass
class _Unacked:
    """A posted frame parked until its acknowledgement (one per peer)."""

    packet: _ReliablePacket
    ack_timeout: float = 0.25
    max_retries: int = 8
    backoff: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.5
    transmissions: int = 0
    deadline: float = 0.0
    waited: float = 0.0


#: How long a rank blocked in a reliable call sits on an owed acknowledgement
#: before sending it explicitly: well under the shortest first retransmission
#: wait of a default sender (``ack_timeout`` 0.25 s less 50 % jitter).
_ACK_DELAY = 0.05


class Comm:
    """One rank's endpoint into a :class:`World`.

    Mirrors the mpi4py lower-case object API: payloads are arbitrary Python
    objects (ndarrays pass by reference — the virtual network is
    zero-copy, so senders must not mutate buffers after sending, exactly
    like MPI's no-touch rule for non-blocking sends).

    Two delivery grades are offered.  Plain :meth:`send`/:meth:`recv` trust
    the network: a drop, or a socket fault between OS-process hosts, loses
    them.  :meth:`send_reliable`/:meth:`recv_reliable` add sequence numbers,
    checksums, acks with retry + exponential backoff, and receiver-side
    dedup, so they survive drops, duplicates, corruptions and connection
    resets — the one layer that delivers exactly once on every backend.

    That pair is stop-and-wait.  A request/reply protocol pays one message
    per frame instead of two with :meth:`post_reliable` (the frame is parked
    until acknowledged; its retransmission timer runs inside every blocking
    reliable call of this rank) and :meth:`recv_reliable_owing` (the caller
    will answer the sender, and every frame carries the cumulative ack of
    the reverse direction, so *the reply is the ack*).  An explicit ack
    frame is sent only when no reply is due: by :meth:`recv_reliable`, for
    a duplicate (the sender's timer fired), by :meth:`settle_acks`, and once
    it has been owed for ``_ACK_DELAY`` — by a rank blocked in a reliable
    call, or busy and calling :meth:`settle_due_acks`.  The last two are why
    a fault-free run retransmits nothing however long a generation takes:
    the owed ack may wait for a *prompt* reply only, so a receiver settles
    before computing at length and a receiver waiting on a slow third rank,
    or busy on its own, settles after the delay, both well inside the
    sender's first retransmission wait.

    At most one frame per directed pair is unacknowledged at a time (a post
    waits for its predecessor's ack first), so frames arrive in sequence
    order and the receiver's dedup state is a single watermark per peer.
    """

    def __init__(self, world: World, rank: int, incarnation: int = 0) -> None:
        self.world = world
        self.rank = rank
        #: 0 for the original rank program; *n* for its *n*-th replacement
        #: under ``on_rank_failure="respawn"``.
        self.incarnation = incarnation
        self.tracer = world.tracer
        # Bound once: a respawn gives the rank a fresh mailbox, and a stale
        # incarnation must keep draining its own, not its successor's.
        self._mailbox = world.mailboxes[rank]
        self._collective_seq: dict[int, int] = {}
        # Reliable layer, all keyed by peer: next sequence number to send,
        # delivered watermark (every seq below it is done with), the frame
        # awaiting its ack, and since when an ack is owed.
        self._reliable_seq: dict[int, int] = {}
        self._reliable_mark: dict[int, int] = {}
        self._reliable_unacked: dict[int, _Unacked] = {}
        self._reliable_owed: dict[int, float] = {}

    @property
    def size(self) -> int:
        """World size (``MPI_Comm_size``)."""
        return self.world.size

    # -- point-to-point -----------------------------------------------------------

    def _check_rank(self, rank: int, what: str) -> int:
        if not 0 <= rank < self.size:
            raise RankError(f"{what} rank {rank} out of range [0, {self.size})")
        return int(rank)

    def _check_abort(self) -> None:
        if self.world.abort_event.is_set():
            raise CommAbortError(self.world.abort_reason or "communicator aborted")

    def _send_raw(self, payload: Any, dest: int, tag: int) -> threading.Event:
        """Hand ``payload`` to the network; returns an Event set at delivery.

        Without a fault injector delivery is immediate.  With one, the
        message may be dropped (the event is still set — the buffer was
        consumed, the *network* lost it), delayed (a timer delivers late and
        sets the event then), duplicated, or corrupted.
        """
        self._check_abort()
        nbytes = payload_nbytes(payload)
        counters = self.world.counters
        counters.record("send", messages=1, nbytes=nbytes)
        tracer = self.tracer
        tracing = tracer.enabled
        msg_id = tracer.new_flow_id() if tracing else 0
        t0 = tracer.now() if tracing else 0.0
        delivered = threading.Event()
        injector = self.world.injector
        if injector is None:
            self.world.deliver(self.rank, dest, tag, payload, nbytes, msg_id)
            delivered.set()
            if tracing:
                tracer.msg_send(
                    self.rank, dest, tag, nbytes,
                    ts=t0, dur=tracer.now() - t0, flow_id=msg_id,
                )
            return delivered
        deliveries, fired = injector.plan_send(self.rank, dest, tag)
        for record in fired:
            counters.record(f"fault_{record.kind}", messages=0, nbytes=nbytes)
            if tracing:
                tracer.instant(
                    f"fault_{record.kind}", cat="mpi.fault", rank=self.rank,
                    args={"dest": dest, "tag": tag},
                )
        if not deliveries:
            delivered.set()
            if tracing:
                tracer.msg_send(
                    self.rank, dest, tag, nbytes,
                    ts=t0, dur=tracer.now() - t0, flow_id=0,  # dropped: no arrow
                )
            return delivered
        for action in deliveries:
            load = CorruptedPayload(nbytes) if action.corrupt else payload
            if action.delay > 0.0:
                timer = threading.Timer(
                    action.delay,
                    self._deliver,
                    args=(dest, tag, load, nbytes, delivered, msg_id),
                )
                timer.daemon = True
                timer.start()
            else:
                self._deliver(dest, tag, load, nbytes, delivered, msg_id)
        if tracing:
            tracer.msg_send(
                self.rank, dest, tag, nbytes,
                ts=t0, dur=tracer.now() - t0, flow_id=msg_id,
            )
        return delivered

    def _deliver(
        self,
        dest: int,
        tag: int,
        payload: Any,
        nbytes: int,
        delivered: threading.Event,
        msg_id: int = 0,
    ) -> None:
        self.world.deliver(self.rank, dest, tag, payload, nbytes, msg_id)
        delivered.set()

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Send ``payload`` to ``dest``; completes immediately (buffered send)."""
        self._check_rank(dest, "destination")
        if not 0 <= tag <= MAX_USER_TAG:
            raise MPIError(f"user tags must lie in [0, {MAX_USER_TAG}], got {tag}")
        self._send_raw(payload, dest, tag)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> _Request:
        """Non-blocking send; the request completes when the message is delivered.

        The buffer is handed to the network immediately (so ordering matches
        :meth:`send` even if the caller never waits); ``test()``/``wait()``
        track actual delivery, which delay faults can push into the future.
        """
        self._check_rank(dest, "destination")
        if not 0 <= tag <= MAX_USER_TAG:
            raise MPIError(f"user tags must lie in [0, {MAX_USER_TAG}], got {tag}")
        return _Request(self._send_raw(payload, dest, tag))

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
        return_status: bool = False,
    ) -> Any:
        """Receive one matching message (blocking).

        With ``return_status=True`` returns ``(payload, Status)``.
        ``timeout`` (seconds) turns a hang into a
        :class:`~repro.errors.RecvTimeoutError`; a recv from a rank known to
        have failed raises :class:`~repro.errors.RankFailedError` once no
        buffered message can satisfy it.
        """
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        tracer = self.tracer
        t0 = tracer.now() if tracer.enabled else 0.0
        src, tg, payload, nbytes, msg_id = self._mailbox.take(
            source, tag, self.world, timeout
        )
        if tracer.enabled:
            tracer.msg_recv(
                self.rank, src, tg, nbytes, ts=t0, dur=tracer.now() - t0, flow_id=msg_id
            )
        if return_status:
            return payload, Status(source=src, tag=tg, nbytes=nbytes)
        return payload

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Non-blocking probe: Status of a matching pending message, or None."""
        self._check_abort()
        return self._mailbox.probe(source, tag)

    def abort(self, reason: str = "rank called abort") -> None:
        """Poison every rank of the communicator."""
        self.world.abort(f"rank {self.rank}: {reason}")
        raise CommAbortError(self.world.abort_reason or reason)

    # -- fault injection -----------------------------------------------------------

    def fault_point(self, generation: int) -> None:
        """Give the fault injector a chance to kill this rank; no-op without one.

        Rank programs call this once per generation.  An injected ``crash``
        raises :class:`~repro.errors.RankCrashError` immediately; ``hang``
        blocks silently until the world is shut down or aborted, then exits
        the rank quietly.
        """
        injector = self.world.injector
        if injector is None:
            return
        kind = injector.rank_fault(self.rank, generation)
        if kind is None:
            return
        self.world.counters.record(f"fault_{kind}", messages=0, nbytes=0)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                f"fault_{kind}", cat="mpi.fault", rank=self.rank,
                args={"generation": generation},
            )
        if kind == "crash":
            raise RankCrashError(
                f"rank {self.rank}: injected crash at generation {generation}"
            )
        # Hang: permanent silence until the job ends one way or the other.
        while not (self.world.stop_event.is_set() or self.world.abort_event.is_set()):
            self.world.stop_event.wait(timeout=0.05)
        if self.world.abort_event.is_set():
            raise CommAbortError(self.world.abort_reason or "world aborted")
        raise RankCrashError(
            f"rank {self.rank}: injected hang at generation {generation}"
            " (released at shutdown)"
        )

    def checkpoint_fault_point(self, generation: int) -> bool:
        """Whether an injected ``kill_during_checkpoint`` fires here.

        Checkpointing ranks consult this immediately before writing the
        generation's checkpoint.  Unlike :meth:`fault_point` nothing is
        raised — the caller owns the theatrics (leaving a torn file at the
        final path, then dying), because the point of the fault is to
        exercise what a *non*-crash-consistent writer would leave behind.
        Returns ``False`` without an injector.
        """
        injector = self.world.injector
        if injector is None:
            return False
        if not injector.checkpoint_fault(self.rank, generation):
            return False
        self.world.counters.record("fault_kill_during_checkpoint", messages=0, nbytes=0)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                "fault_kill_during_checkpoint", cat="mpi.fault", rank=self.rank,
                args={"generation": generation},
            )
        return True

    # -- reliable messaging --------------------------------------------------------

    def forget_reliable_peer(self, rank: int) -> None:
        """Drop all reliable-layer state for ``rank`` (it was respawned).

        The delivered watermark, an owed ack and a frame still parked for
        the dead incarnation all go.  The *send*-side sequence counter
        toward ``rank`` is deliberately kept monotonic, so packets still in
        flight to the old incarnation can never collide with new ones; the
        replacement's own numbers start above its predecessor's (the
        incarnation is their high half), so the watermark holds across it.
        """
        self._reliable_mark.pop(rank, None)
        self._reliable_owed.pop(rank, None)
        self._reliable_unacked.pop(rank, None)

    def _reliable_span(self, name: str, **args: int):
        # The null tracer's span is a shared no-op, so no ``enabled`` guard.
        return self.tracer.span(name, cat="mpi.reliable", rank=self.rank, args=args)

    def _send_ack(self, peer: int) -> None:
        """An explicit cumulative ack: no frame to ``peer`` is due to carry it."""
        self._reliable_owed.pop(peer, None)
        self.world.counters.record("reliable_ack", messages=0, nbytes=0)
        self._send_raw(self._reliable_mark.get(peer, 0), peer, _TAG_RACK)

    def _acked(self, peer: int, ack: Any) -> None:
        """``peer`` has delivered every frame of ours below ``ack``."""
        frame = self._reliable_unacked.get(peer)
        if frame is not None and isinstance(ack, int) and frame.packet.seq < ack:
            del self._reliable_unacked[peer]
            self.world.counters.record(
                "reliable_send", messages=0, nbytes=len(frame.packet.blob)
            )

    def _transmit(self, dest: int, frame: _Unacked) -> None:
        packet = frame.packet
        self._send_raw(packet, dest, _TAG_RDATA | packet.tag)
        if frame.transmissions:
            self.world.counters.record("reliable_retry", messages=0, nbytes=len(packet.blob))
        wait = backoff_wait(
            frame.ack_timeout, frame.transmissions, factor=frame.backoff,
            cap=frame.max_backoff, jitter=frame.jitter,
            key=(self.rank, dest, packet.tag, packet.seq),
        )
        frame.transmissions += 1
        frame.waited += wait
        frame.deadline = time.monotonic() + wait

    def _out_of_band(self, source: int, tag: int, payload: Any) -> bool:
        """An explicit ack, or a resent frame whose payload was already delivered."""
        return tag == _TAG_RACK or (
            tag & ~_SEQ_MASK == _TAG_RDATA
            and isinstance(payload, _ReliablePacket)
            and payload.seq < self._reliable_mark.get(source, 0)
        )

    def _pump_reliable(self, peer: int = ANY_SOURCE) -> float:
        """One non-blocking turn of the reliable machinery.

        Consumes explicit acks, re-acknowledges resent frames whose payload
        was already delivered (a peer whose ack was lost keeps resending
        while this rank is itself blocked — the two-generals tail),
        retransmits parked frames whose timer fired and sends acks owed for
        ``_ACK_DELAY``.  A frame out of transmissions, or parked for a rank
        since marked dead, is given up; the :class:`RankFailedError` is
        raised by the call that next concerns that rank (``peer``).
        Returns how long the caller may block before the next turn is due.
        """
        if self._mailbox.messages:  # unlocked peek: a late arrival waits one turn
            tracer = self.tracer
            for source, tag, payload, nbytes, msg_id in self._mailbox.take_matching(
                self._out_of_band
            ):
                if tracer.enabled:  # a receipt all the same: its arrow lands here
                    tracer.msg_recv(
                        self.rank, source, tag, nbytes, ts=tracer.now(), dur=0.0, flow_id=msg_id
                    )
                if tag == _TAG_RACK:
                    self._acked(source, payload)
                else:
                    self.world.counters.record("reliable_dedup", messages=0, nbytes=0)
                    self._send_ack(source)
        if not (self._reliable_unacked or self._reliable_owed):
            return 0.05
        now = time.monotonic()
        due = now + 0.05
        for dest, frame in list(self._reliable_unacked.items()):
            if frame.deadline <= now:
                if frame.transmissions > frame.max_retries or self.world.is_failed(dest):
                    frame.deadline = math.inf
                else:
                    self._transmit(dest, frame)
            if frame.deadline == math.inf and peer in (dest, ANY_SOURCE):
                del self._reliable_unacked[dest]
                packet = frame.packet
                raise RankFailedError(
                    f"rank {self.rank}: no acknowledgement from rank {dest} for"
                    f" tag={packet.tag} seq={packet.seq} after"
                    f" {frame.transmissions} transmissions",
                    rank=dest,
                    deadline=frame.waited,
                )
            due = min(due, frame.deadline)
        due = min(due, self.settle_due_acks())
        return max(due - now, 0.0)

    def _await_acked(self, dest: int) -> None:
        """Block until nothing posted to ``dest`` is unacknowledged."""
        while dest in self._reliable_unacked:
            nap = self._pump_reliable(dest)
            if dest in self._reliable_unacked:
                try:
                    self._acked(dest, self.recv(source=dest, tag=_TAG_RACK, timeout=nap))
                except RecvTimeoutError:
                    pass

    def _post(self, payload: Any, dest: int, tag: int, policy: dict) -> _Unacked:
        self._check_rank(dest, "destination")
        if not 0 <= tag <= MAX_USER_TAG:
            raise MPIError(f"user tags must lie in [0, {MAX_USER_TAG}], got {tag}")
        self._await_acked(dest)  # the window of one
        seq = self._reliable_seq.get(dest, self.incarnation << 32)
        self._reliable_seq[dest] = seq + 1
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        ack = self._reliable_mark.get(dest, 0)
        self._reliable_owed.pop(dest, None)  # this frame carries it
        packet = _ReliablePacket(seq, tag, ack, blob, _frame_checksum(seq, tag, ack, blob))
        frame = self._reliable_unacked[dest] = _Unacked(packet, **policy)
        self._transmit(dest, frame)
        return frame

    def post_reliable(self, payload: Any, dest: int, tag: int = 0, **policy: float) -> None:
        """:meth:`send_reliable` without the wait: fan out, then fan in.

        The frame (same sequence number, checksum, dedup and — ``policy``
        being :meth:`send_reliable`'s keywords — retransmission schedule)
        is parked until ``dest`` acknowledges it; every blocking reliable
        call of this rank runs its timer.  Blocks only while the previous
        frame to ``dest`` is still unacknowledged.

        Raises
        ------
        RankFailedError
            When that previous frame was never acknowledged.  A failure of
            *this* frame (no ack in ``max_retries + 1`` transmissions, or
            ``dest`` marked dead) surfaces from the next reliable call
            that names ``dest``, or receives from any source.
        """
        with self._reliable_span("post_reliable", dest=dest, tag=tag):
            self._post(payload, dest, tag, policy)

    def send_reliable(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        *,
        ack_timeout: float = 0.25,
        max_retries: int = 8,
        backoff: float = 2.0,
        max_backoff: float = 2.0,
        jitter: float = 0.5,
    ) -> int:
        """Acknowledged send: survives injected drops, duplicates, corruptions.

        The payload travels as a sequenced, checksummed frame; the receiver's
        :meth:`recv_reliable` acknowledges it.  Missing acknowledgements
        trigger resends with capped, jittered exponential backoff — waits
        grow geometrically from ``ack_timeout`` by ``backoff`` but never
        exceed ``max_backoff`` seconds, and each wait is shrunk by up to
        ``jitter`` via a deterministic per-(sender, peer, seq, attempt)
        hash so concurrent senders retrying the same slow peer do not
        synchronize into retry storms (see :func:`backoff_wait`).  Returns
        the number of transmissions used.

        Raises
        ------
        RankFailedError
            When ``dest`` is known dead, or no acknowledgement arrives
            within ``max_retries + 1`` transmissions.
        """
        policy = dict(
            ack_timeout=ack_timeout, max_retries=max_retries, backoff=backoff,
            max_backoff=max_backoff, jitter=jitter,
        )
        with self._reliable_span("send_reliable", dest=dest, tag=tag):
            frame = self._post(payload, dest, tag, policy)
            self._await_acked(dest)
            return frame.transmissions

    def recv_reliable(
        self, source: int = ANY_SOURCE, tag: int = 0, timeout: float | None = None
    ) -> Any:
        """Receive one :meth:`send_reliable` message: ack, dedup, verify.

        Corrupted frames are discarded without acknowledgement (the sender
        resends); duplicated/resent frames are acknowledged again but
        delivered to the caller only once.  ``timeout`` bounds the *total*
        wait across discarded frames.
        """
        with self._reliable_span("recv_reliable", source=source, tag=tag):
            return self._recv_reliable(source, tag, timeout, owing=False)

    def recv_reliable_owing(
        self, source: int = ANY_SOURCE, tag: int = 0, timeout: float | None = None
    ) -> Any:
        """:meth:`recv_reliable` by a caller that will answer the sender.

        No ack frame is sent: the answer (:meth:`post_reliable` or
        :meth:`send_reliable` to the same rank) carries it.  Should the
        answer not come promptly the ack goes out on its own — see
        :meth:`settle_acks` and the class docstring.
        """
        with self._reliable_span("recv_reliable", source=source, tag=tag):
            return self._recv_reliable(source, tag, timeout, owing=True)

    def settle_acks(self) -> None:
        """Send every owed ack now: the caller is about to compute at length."""
        for peer in list(self._reliable_owed):
            self._send_ack(peer)

    def settle_due_acks(self) -> float:
        """Send the acks owed for ``_ACK_DELAY`` or longer, and only those.

        Non-blocking: a rank busy between reliable calls settles what a rank
        blocked in one would.  Returns when the next owed ack falls due
        (``math.inf`` when none is owed).
        """
        if not self._reliable_owed:
            return math.inf
        now, due = time.monotonic(), math.inf
        for peer, since in list(self._reliable_owed.items()):
            if since + _ACK_DELAY <= now:
                self._send_ack(peer)
            else:
                due = min(due, since + _ACK_DELAY)
        return due

    def _recv_reliable(self, source: int, tag: int, timeout: float | None, owing: bool) -> Any:
        if not 0 <= tag <= MAX_USER_TAG:
            raise MPIError(f"user tags must lie in [0, {MAX_USER_TAG}], got {tag}")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            nap = self._pump_reliable(source)
            if deadline is not None:
                nap = min(nap, max(deadline - time.monotonic(), 0.0))
            try:
                packet, status = self.recv(
                    source=source, tag=_TAG_RDATA | tag, timeout=nap, return_status=True
                )
            except RecvTimeoutError:
                if deadline is None or time.monotonic() < deadline:
                    continue
                raise RecvTimeoutError(
                    f"recv_reliable timed out after {timeout} s waiting for"
                    f" source={source} tag={tag}",
                    rank=None if source == ANY_SOURCE else source,
                    deadline=timeout,
                ) from None
            if not isinstance(packet, _ReliablePacket) or packet.checksum != _frame_checksum(
                packet.seq, packet.tag, packet.ack, packet.blob
            ):
                self.world.counters.record("reliable_corrupt", messages=0, nbytes=status.nbytes)
                continue  # treat as lost; the sender will resend
            peer = status.source
            self._acked(peer, packet.ack)
            if packet.seq < self._reliable_mark.get(peer, 0):
                self.world.counters.record("reliable_dedup", messages=0, nbytes=0)
                self._send_ack(peer)
                continue
            self._reliable_mark[peer] = packet.seq + 1
            if owing:
                self._reliable_owed[peer] = time.monotonic()
            else:
                self._send_ack(peer)
            return pickle.loads(packet.blob)

    # -- collectives ---------------------------------------------------------------

    def _collective_tag(self, base: int) -> int:
        seq = self._collective_seq.get(base, 0)
        self._collective_seq[base] = seq + 1
        return base | (seq & _SEQ_MASK)

    def _vrank(self, root: int) -> int:
        return (self.rank - root) % self.size

    def _traced_collective(self, name: str, root: int | None = None):
        """A span for one collective call, or ``None`` when tracing is off."""
        tracer = self.tracer
        if not tracer.enabled:
            return None
        return tracer.span(
            name, cat="mpi.coll", rank=self.rank,
            args=None if root is None else {"root": root},
        )

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the payload on every rank.

        This is the stand-in for Blue Gene's collective tree network, which
        the paper uses for PC-pair announcements, mutation announcements and
        strategy updates.
        """
        span = self._traced_collective("bcast", root)
        if span is None:
            return self._bcast(payload, root)
        with span:
            return self._bcast(payload, root)

    def _bcast(self, payload: Any, root: int) -> Any:
        self._check_rank(root, "root")
        tag = self._collective_tag(_TAG_BCAST)
        size = self.size
        vrank = self._vrank(root)
        if vrank != 0:
            # Receive from parent: clear lowest set bit of vrank.
            parent_v = vrank & (vrank - 1)
            payload = self.recv(source=(parent_v + root) % size, tag=tag)
        # Forward to children: set each bit above the lowest set bit region.
        mask = 1
        while mask < size:
            if vrank & (mask - 1) == 0 and vrank & mask == 0:
                child_v = vrank | mask
                if child_v < size:
                    self._send_raw(payload, (child_v + root) % size, tag)
            mask <<= 1
        if self.rank == root:
            self.world.counters.record("bcast", messages=0, nbytes=payload_nbytes(payload))
        return payload

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        """Gather one payload per rank to ``root`` (rank order preserved)."""
        span = self._traced_collective("gather", root)
        if span is None:
            return self._gather(payload, root)
        with span:
            return self._gather(payload, root)

    def _gather(self, payload: Any, root: int) -> list[Any] | None:
        self._check_rank(root, "root")
        tag = self._collective_tag(_TAG_GATHER)
        if self.rank != root:
            self._send_raw(payload, root, tag)
            return None
        out: list[Any] = [None] * self.size
        out[root] = payload
        for src in range(self.size):
            if src != root:
                out[src] = self.recv(source=src, tag=tag)
        self.world.counters.record("gather", messages=0, nbytes=payload_nbytes(payload))
        return out

    def reduce(
        self, payload: Any, op: Callable[[Any, Any], Any] | None = None, root: int = 0
    ) -> Any:
        """Binomial-tree reduction to ``root``; ``op`` defaults to ``+``.

        ``op`` must be associative; contributions are combined in an order
        that is deterministic for a given world size.
        """
        span = self._traced_collective("reduce", root)
        if span is None:
            return self._reduce(payload, op, root)
        with span:
            return self._reduce(payload, op, root)

    def _reduce(
        self, payload: Any, op: Callable[[Any, Any], Any] | None, root: int
    ) -> Any:
        self._check_rank(root, "root")
        if op is None:
            op = lambda a, b: a + b  # noqa: E731
        tag = self._collective_tag(_TAG_REDUCE)
        size = self.size
        vrank = self._vrank(root)
        acc = payload
        mask = 1
        while mask < size:
            if vrank & mask:
                parent_v = vrank & ~mask
                self._send_raw(acc, (parent_v + root) % size, tag)
                break
            child_v = vrank | mask
            if child_v < size:
                other = self.recv(source=(child_v + root) % size, tag=tag)
                acc = op(acc, other)
            mask <<= 1
        if self.rank == root:
            self.world.counters.record("reduce", messages=0, nbytes=payload_nbytes(payload))
            return acc
        return None

    def allreduce(self, payload: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce to rank 0, then broadcast the result to everyone."""
        span = self._traced_collective("allreduce")
        if span is None:
            return self._allreduce(payload, op)
        with span:
            return self._allreduce(payload, op)

    def _allreduce(self, payload: Any, op: Callable[[Any, Any], Any] | None) -> Any:
        result = self.reduce(payload, op=op, root=0)
        return self.bcast(result, root=0)

    def barrier(self) -> None:
        """Synchronise all ranks (reduce + bcast of a token)."""
        span = self._traced_collective("barrier")
        if span is None:
            return self._barrier()
        with span:
            return self._barrier()

    def _barrier(self) -> None:
        self._collective_tag(_TAG_BARRIER)  # alignment only
        self.allreduce(0)
        self.world.counters.record("barrier", messages=0, nbytes=0)

    def __repr__(self) -> str:
        return f"Comm(rank={self.rank}, size={self.size})"
