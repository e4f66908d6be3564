"""Deterministic fault injection for the virtual MPI runtime.

At Blue Gene scale (the paper runs on up to 262,144 processors) rank
failures and flaky links are routine, so the runtime they stand on must make
those failure modes *injectable*, *detectable*, and *survivable*.  This
module supplies the first third: a seeded, serialisable
:class:`FaultPlan` and the :class:`FaultInjector` that executes it against
:class:`~repro.mpi.comm.World` message delivery and the rank programs.

Fault kinds
-----------
``drop``
    The message never reaches the destination mailbox.
``delay``
    Delivery is deferred by ``delay_seconds`` (a timer delivers it late).
``duplicate``
    The message is delivered twice (the reliable layer deduplicates).
``corrupt``
    The payload is replaced by a :class:`CorruptedPayload` sentinel carrying
    a checksum-mismatched husk of the original (the reliable layer detects
    and discards it, forcing a resend).
``crash``
    The victim rank raises :class:`~repro.errors.RankCrashError` at its next
    :meth:`~repro.mpi.comm.Comm.fault_point`.
``hang``
    The victim rank goes permanently silent: it blocks until the world is
    shut down or aborted, then dies quietly.
``kill_during_checkpoint``
    The victim dies *mid-checkpoint-write*: the checkpointing rank consults
    :meth:`~repro.mpi.comm.Comm.checkpoint_fault_point` before each write,
    and when the fault fires it leaves a torn file at the final checkpoint
    path and dies.  Exercises the crash-consistent checkpoint machinery
    (atomic writes, content digests, ``latest_valid_parallel_checkpoint``)
    and the recovery supervisor.  Note: ``immune_ranks`` does *not* exempt
    a rank from this kind — checkpoints are written by the Nature rank,
    which is immune to ``crash``/``hang`` by default.
``conn_reset``
    Network kind (TCP transport only): the socket carrying the targeted
    frame is closed abruptly just before the frame is written — a TCP RST
    mid-stream.  The connection supervisor reconnects with capped+jittered
    backoff and writes the targeted frame on the new socket.  Frames the
    old socket still carried may be lost, as under ``drop``: the reliable
    layer (:meth:`~repro.mpi.comm.Comm.post_reliable`) resends them, and
    plain sends are at most once.
``partition``
    Network kind: like ``conn_reset``, but reconnection attempts on that
    directed host link are refused for ``partition_seconds``.  Short
    partitions heal by reconnect and reliable resend; past the transport's
    grace deadline the peer's ranks become locally unreachable
    (:class:`~repro.errors.PeerUnreachableError`) and the usual degradation
    machinery takes over (SSet redistribution or cross-host FTRejoin).
``slow_link``
    Network kind: the targeted frame (and, queued behind it, its
    successors) is delayed ``slow_link_seconds`` before hitting the wire —
    a congested or lossy-and-retransmitting link.

Network kinds are injected at the socket layer by :mod:`repro.mpi.tcp`,
which joins the hosts of every process and tcp world; the thread backend
has no sockets and silently ignores them.
They are keyed by the directed pair's data-frame ordinal — the
``op_index``-th frame sent from ``rank`` to ``dest`` — which is
deterministic whenever each rank's send sequence is.

Determinism
-----------
Every decision is a pure function of ``(plan.seed, kind, key)`` hashed
through BLAKE2 — no shared RNG state, no draw-order races between rank
threads.  Message faults are keyed by the sender's per-rank send counter, so
a rank whose send sequence is deterministic gets a bit-identical fault
schedule on every run; rank faults are keyed by ``(rank, generation)`` and
are *always* bit-reproducible.  Fired faults are recorded as
:class:`FaultRecord` rows — :meth:`FaultInjector.schedule` returns them in a
canonical order so chaos tests can assert two runs saw the same faults.

Plans serialise to plain dicts/JSON (:meth:`FaultPlan.to_json`), so a
failing chaos run can be attached to a bug report and replayed exactly.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field, replace

from repro.errors import FaultPlanError

__all__ = [
    "MESSAGE_FAULT_KINDS",
    "RANK_FAULT_KINDS",
    "CHECKPOINT_FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultRecord",
    "FaultInjector",
    "CorruptedPayload",
]

#: Fault kinds that act on a single message in flight.
MESSAGE_FAULT_KINDS = ("drop", "delay", "duplicate", "corrupt")

#: Fault kinds that act on a whole rank at a generation boundary.
RANK_FAULT_KINDS = ("crash", "hang")

#: Fault kinds that kill the checkpointing rank mid-write.
CHECKPOINT_FAULT_KINDS = ("kill_during_checkpoint",)

#: Fault kinds that act on the socket carrying a directed host link
#: (TCP transport only; other backends have no sockets and ignore them).
NETWORK_FAULT_KINDS = ("partition", "slow_link", "conn_reset")

_ALL_KINDS = (
    MESSAGE_FAULT_KINDS + RANK_FAULT_KINDS + CHECKPOINT_FAULT_KINDS + NETWORK_FAULT_KINDS
)


class CorruptedPayload:
    """Sentinel payload installed by an injected ``corrupt`` fault.

    Carries the estimated byte size of the payload it destroyed, so
    counters still see realistic traffic.  The reliable-messaging layer
    recognises the sentinel (and any checksum mismatch) and treats the
    message as lost.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int = 0) -> None:
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:
        return f"CorruptedPayload(nbytes={self.nbytes})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CorruptedPayload) and other.nbytes == self.nbytes


@dataclass(frozen=True)
class FaultEvent:
    """One explicitly scheduled fault.

    Message faults (``drop``/``delay``/``duplicate``/``corrupt``) target the
    ``op_index``-th send of ``rank`` (0-based, counted per sender; ``dest``
    optionally narrows the match).  Rank faults (``crash``/``hang``) fire at
    ``generation`` on ``rank``.  Network faults
    (``partition``/``slow_link``/``conn_reset``) target the ``op_index``-th
    *data frame* of the directed link from ``rank`` to ``dest`` (both
    required — a link has two ends).
    """

    kind: str
    rank: int
    op_index: int | None = None
    dest: int | None = None
    generation: int | None = None
    delay: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r} (know {_ALL_KINDS})")
        if self.kind in MESSAGE_FAULT_KINDS and self.op_index is None:
            raise FaultPlanError(f"{self.kind} events need op_index (nth send of the rank)")
        if self.kind in RANK_FAULT_KINDS + CHECKPOINT_FAULT_KINDS and self.generation is None:
            raise FaultPlanError(f"{self.kind} events need a generation")
        if self.kind in NETWORK_FAULT_KINDS and (self.op_index is None or self.dest is None):
            raise FaultPlanError(
                f"{self.kind} events need op_index (nth frame of the link) and dest"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "kind": self.kind,
            "rank": self.rank,
            "op_index": self.op_index,
            "dest": self.dest,
            "generation": self.generation,
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            rank=int(data["rank"]),
            op_index=None if data.get("op_index") is None else int(data["op_index"]),
            dest=None if data.get("dest") is None else int(data["dest"]),
            generation=None if data.get("generation") is None else int(data["generation"]),
            delay=None if data.get("delay") is None else float(data["delay"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible chaos schedule.

    Combines per-message fault probabilities, per-(rank, generation) rank
    fault probabilities, and explicitly scheduled :class:`FaultEvent` rows.
    All probabilistic decisions derive from ``seed`` alone (see module
    docstring), so the same plan replays the same chaos.

    ``immune_ranks`` are exempt from ``crash``/``hang`` (probabilistic *and*
    explicit); by default rank 0 — the Nature Agent — is immune, because the
    runner recovers from worker loss but a dead master needs
    checkpoint/restart instead.  ``kill_during_checkpoint`` deliberately
    ignores ``immune_ranks``: it exists to kill the checkpointing (Nature)
    rank mid-write, which is exactly what the recovery supervisor heals.
    """

    seed: int = 0
    drop_p: float = 0.0
    delay_p: float = 0.0
    duplicate_p: float = 0.0
    corrupt_p: float = 0.0
    crash_p: float = 0.0
    hang_p: float = 0.0
    ckpt_kill_p: float = 0.0
    partition_p: float = 0.0
    slow_link_p: float = 0.0
    conn_reset_p: float = 0.0
    delay_seconds: float = 0.05
    partition_seconds: float = 0.5
    slow_link_seconds: float = 0.05
    events: tuple[FaultEvent, ...] = ()
    immune_ranks: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        for name in (
            "drop_p", "delay_p", "duplicate_p", "corrupt_p", "crash_p", "hang_p",
            "ckpt_kill_p", "partition_p", "slow_link_p", "conn_reset_p",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultPlanError(f"{name} must lie in [0, 1], got {p}")
        for name in ("delay_seconds", "partition_seconds", "slow_link_seconds"):
            if getattr(self, name) < 0:
                raise FaultPlanError(f"{name} must be >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "immune_ranks", tuple(self.immune_ranks))

    @property
    def is_trivial(self) -> bool:
        """True when the plan can never fire a fault."""
        return not self.events and not any(
            (self.drop_p, self.delay_p, self.duplicate_p, self.corrupt_p, self.crash_p,
             self.hang_p, self.ckpt_kill_p, self.partition_p, self.slow_link_p,
             self.conn_reset_p)
        )

    def with_events(self, *events: FaultEvent) -> "FaultPlan":
        """A copy of the plan with ``events`` appended."""
        return replace(self, events=self.events + tuple(events))

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "seed": self.seed,
            "drop_p": self.drop_p,
            "delay_p": self.delay_p,
            "duplicate_p": self.duplicate_p,
            "corrupt_p": self.corrupt_p,
            "crash_p": self.crash_p,
            "hang_p": self.hang_p,
            "ckpt_kill_p": self.ckpt_kill_p,
            "partition_p": self.partition_p,
            "slow_link_p": self.slow_link_p,
            "conn_reset_p": self.conn_reset_p,
            "delay_seconds": self.delay_seconds,
            "partition_seconds": self.partition_seconds,
            "slow_link_seconds": self.slow_link_seconds,
            "events": [e.to_dict() for e in self.events],
            "immune_ranks": list(self.immune_ranks),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=int(data.get("seed", 0)),
            drop_p=float(data.get("drop_p", 0.0)),
            delay_p=float(data.get("delay_p", 0.0)),
            duplicate_p=float(data.get("duplicate_p", 0.0)),
            corrupt_p=float(data.get("corrupt_p", 0.0)),
            crash_p=float(data.get("crash_p", 0.0)),
            hang_p=float(data.get("hang_p", 0.0)),
            ckpt_kill_p=float(data.get("ckpt_kill_p", 0.0)),
            partition_p=float(data.get("partition_p", 0.0)),
            slow_link_p=float(data.get("slow_link_p", 0.0)),
            conn_reset_p=float(data.get("conn_reset_p", 0.0)),
            delay_seconds=float(data.get("delay_seconds", 0.05)),
            partition_seconds=float(data.get("partition_seconds", 0.5)),
            slow_link_seconds=float(data.get("slow_link_seconds", 0.05)),
            events=tuple(FaultEvent.from_dict(e) for e in data.get("events", ())),
            immune_ranks=tuple(int(r) for r in data.get("immune_ranks", (0,))),
        )

    def to_json(self) -> str:
        """JSON form, suitable for attaching to a failing chaos run."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, order=True)
class FaultRecord:
    """One fault that actually fired (the injector's structured log row)."""

    kind: str
    rank: int
    op_index: int = -1
    dest: int = -1
    generation: int = -1

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "kind": self.kind,
            "rank": self.rank,
            "op_index": self.op_index,
            "dest": self.dest,
            "generation": self.generation,
        }


@dataclass(frozen=True)
class _Delivery:
    """One physical delivery the network should perform for a logical send."""

    delay: float = 0.0
    corrupt: bool = False


def _uniform(seed: int, kind: str, *key: object) -> float:
    """Deterministic uniform in [0, 1) for a decision key (no shared state)."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(repr((seed, kind) + key).encode("utf-8"))
    return int.from_bytes(digest.digest(), "little") / float(1 << 64)


@dataclass
class FaultInjector:
    """Executes a :class:`FaultPlan` against a live world.

    The :class:`~repro.mpi.comm.World` consults :meth:`plan_send` on every
    point-to-point transmission and rank programs call
    :meth:`~repro.mpi.comm.Comm.fault_point` (which delegates to
    :meth:`rank_fault`) at generation boundaries.  Fired faults accumulate
    in :attr:`log`; :meth:`schedule` returns them canonically ordered.
    """

    plan: FaultPlan
    log: list[FaultRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._send_counts: dict[int, int] = {}
        by_op: dict[tuple[int, int], list[FaultEvent]] = {}
        by_gen: dict[tuple[int, int], list[FaultEvent]] = {}
        by_ckpt: dict[tuple[int, int], list[FaultEvent]] = {}
        by_link: dict[tuple[int, int, int], list[FaultEvent]] = {}
        for event in self.plan.events:
            if event.kind in MESSAGE_FAULT_KINDS:
                by_op.setdefault((event.rank, event.op_index), []).append(event)
            elif event.kind in CHECKPOINT_FAULT_KINDS:
                by_ckpt.setdefault((event.rank, event.generation), []).append(event)
            elif event.kind in NETWORK_FAULT_KINDS:
                by_link.setdefault(
                    (event.rank, event.dest, event.op_index), []
                ).append(event)
            else:
                by_gen.setdefault((event.rank, event.generation), []).append(event)
        self._events_by_op = by_op
        self._events_by_gen = by_gen
        self._events_by_ckpt = by_ckpt
        self._events_by_link = by_link

    # -- message faults -----------------------------------------------------------

    def plan_send(
        self, source: int, dest: int, tag: int
    ) -> tuple[list[_Delivery], list[FaultRecord]]:
        """Decide the fate of the ``source`` rank's next send.

        Returns the physical deliveries to perform (empty list = dropped)
        and the fault records that fired.  Thread-safe; advances the
        sender's op counter exactly once per call.
        """
        with self._lock:
            op_index = self._send_counts.get(source, 0)
            self._send_counts[source] = op_index + 1

        kinds: set[str] = set()
        for event in self._events_by_op.get((source, op_index), ()):
            if event.dest is None or event.dest == dest:
                kinds.add(event.kind)
        plan = self.plan
        for kind, p in (
            ("drop", plan.drop_p),
            ("delay", plan.delay_p),
            ("duplicate", plan.duplicate_p),
            ("corrupt", plan.corrupt_p),
        ):
            if p > 0.0 and _uniform(plan.seed, kind, source, op_index) < p:
                kinds.add(kind)

        fired = [
            FaultRecord(kind=k, rank=source, op_index=op_index, dest=dest)
            for k in sorted(kinds)
        ]
        if fired:
            with self._lock:
                self.log.extend(fired)

        if "drop" in kinds:
            return [], fired
        delay = 0.0
        if "delay" in kinds:
            explicit = [
                e.delay
                for e in self._events_by_op.get((source, op_index), ())
                if e.kind == "delay" and e.delay is not None
            ]
            delay = explicit[0] if explicit else plan.delay_seconds
        corrupt = "corrupt" in kinds
        deliveries = [_Delivery(delay=delay, corrupt=corrupt)]
        if "duplicate" in kinds:
            deliveries.append(_Delivery(delay=delay, corrupt=corrupt))
        return deliveries, fired

    # -- network faults -----------------------------------------------------------

    def link_fault(self, source: int, dest: int, frame_index: int) -> str | None:
        """The network fault due on the ``frame_index``-th data frame of the
        directed link ``source → dest``, if any.

        Consulted by the TCP transport once per data frame it is about to
        put on the wire.  A pure function of ``(seed, kind, source, dest,
        frame_index)`` — the caller supplies the frame ordinal, so the
        schedule is bit-reproducible whenever each rank's send sequence is.
        At most one kind fires per frame (explicit events win; then
        ``partition`` > ``conn_reset`` > ``slow_link``, since a partition
        subsumes a reset).  Fired faults are logged as
        :class:`FaultRecord` rows with ``op_index=frame_index``.
        """
        kind: str | None = None
        for event in self._events_by_link.get((source, dest, frame_index), ()):
            kind = event.kind
            break
        if kind is None:
            plan = self.plan
            for candidate, p in (
                ("partition", plan.partition_p),
                ("conn_reset", plan.conn_reset_p),
                ("slow_link", plan.slow_link_p),
            ):
                if p > 0.0 and _uniform(plan.seed, candidate, source, dest, frame_index) < p:
                    kind = candidate
                    break
        if kind is not None:
            with self._lock:
                self.log.append(
                    FaultRecord(kind=kind, rank=source, op_index=frame_index, dest=dest)
                )
        return kind

    # -- rank faults --------------------------------------------------------------

    def rank_fault(self, rank: int, generation: int) -> str | None:
        """The rank fault (``"crash"``/``"hang"``) due at this generation, if any."""
        if rank in self.plan.immune_ranks:
            return None
        kind: str | None = None
        for event in self._events_by_gen.get((rank, generation), ()):
            kind = event.kind
            break
        if kind is None:
            plan = self.plan
            if plan.crash_p > 0.0 and (
                _uniform(plan.seed, "crash", rank, generation) < plan.crash_p
            ):
                kind = "crash"
            elif plan.hang_p > 0.0 and _uniform(plan.seed, "hang", rank, generation) < plan.hang_p:
                kind = "hang"
        if kind is not None:
            with self._lock:
                self.log.append(FaultRecord(kind=kind, rank=rank, generation=generation))
        return kind

    def checkpoint_fault(self, rank: int, generation: int) -> bool:
        """Whether ``rank`` should die mid-write of this generation's checkpoint.

        Keyed by ``(rank, generation)`` like :meth:`rank_fault`, so the
        decision is bit-reproducible.  ``immune_ranks`` is intentionally
        *not* consulted: the checkpointing rank is Nature, which is immune
        to ``crash``/``hang`` by default, and this fault exists precisely
        to kill it mid-write.
        """
        fires = any(
            e.kind == "kill_during_checkpoint"
            for e in self._events_by_ckpt.get((rank, generation), ())
        )
        plan = self.plan
        if not fires and plan.ckpt_kill_p > 0.0:
            fires = _uniform(plan.seed, "kill_during_checkpoint", rank, generation) < (
                plan.ckpt_kill_p
            )
        if fires:
            with self._lock:
                self.log.append(
                    FaultRecord(kind="kill_during_checkpoint", rank=rank, generation=generation)
                )
        return fires

    # -- observability ------------------------------------------------------------

    def schedule(self) -> tuple[FaultRecord, ...]:
        """Every fired fault, in a canonical (run-independent) order."""
        with self._lock:
            return tuple(sorted(self.log))
