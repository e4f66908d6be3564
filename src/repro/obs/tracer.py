"""Low-overhead span tracer: per-rank timelines of what a run actually did.

The paper's whole argument is a timeline story — game play overlapping the
Nature Agent's broadcasts and fitness gathers across the collective tree —
and the virtual runtime can *observe* that timeline exactly.  The
:class:`Tracer` records three things:

* **spans** — timed phases (``generation``, ``play``, ``bcast``,
  ``heartbeat``, ...) opened with the :meth:`Tracer.span` context manager or
  recorded after the fact with :meth:`Tracer.complete`;
* **instants** — point events (degradations, checkpoints written);
* **message flows** — every virtual-network transmission, stamped on both
  the sending and the receiving rank and joined by a flow id, so exporters
  can draw the arrow from ``send`` to ``recv``.

Every event carries two clocks: wall-clock microseconds since the tracer's
epoch (``ts`` — what Perfetto renders) and a process-wide logical sequence
number (``seq`` — a virtual clock that orders events even when wall-clock
resolution cannot).

Tracing is **off by default and near-zero cost when off**: the module-level
active tracer is the :data:`NULL_TRACER` singleton whose every method is a
no-op, and instrumented hot paths guard on ``tracer.enabled`` before
building any event.  Tracing never consumes random numbers and never alters
message contents, so a traced run reproduces the untraced trajectory bit
for bit (the tests assert it).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "activate",
]

#: Rank attributed to events recorded outside any SPMD rank thread.
DRIVER_RANK = -1

#: Width of one flow-id stripe handed out by :meth:`Tracer.reserve_flow_stripe`.
#: A stripe is private to one cooperating (per-process) tracer, so flow ids
#: minted in different processes can never collide after the merge.
FLOW_STRIDE = 1 << 40


@dataclass(frozen=True)
class TraceEvent:
    """One recorded trace event.

    Attributes
    ----------
    ph:
        Chrome-trace phase: ``"X"`` complete span, ``"i"`` instant,
        ``"s"``/``"f"`` message-flow start/finish.
    name, cat:
        Event name and category (``"phase"``, ``"mpi.p2p"``, ``"mpi.coll"``,
        ``"mpi.reliable"``, ``"game"``, ...).
    rank:
        Virtual MPI rank the event happened on (:data:`DRIVER_RANK` for the
        driver thread).
    ts:
        Wall-clock microseconds since the tracer's epoch.
    dur:
        Span duration in microseconds (complete events only).
    seq:
        Process-wide logical sequence number (the virtual clock).
    flow_id:
        Message-flow id joining a send event to its recv (0 = no flow).
    args:
        Extra payload rendered in trace viewers (generation, tag, bytes...).
    """

    ph: str
    name: str
    cat: str
    rank: int
    ts: float
    dur: float = 0.0
    seq: int = 0
    flow_id: int = 0
    args: dict[str, Any] | None = None


class _SpanHandle:
    """Context manager recording one complete span on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_rank", "_args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, rank: int | None, args) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._rank = rank
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        self._t0 = self._tracer.now()
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        tracer.complete(
            self._name,
            cat=self._cat,
            ts=self._t0,
            dur=tracer.now() - self._t0,
            rank=self._rank,
            args=self._args,
        )


class _NullSpan:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe event recorder with per-rank attribution.

    One tracer serves one run: the SPMD executor stamps each rank thread via
    :meth:`set_rank`, so instrumentation deep in the engines — which knows
    nothing about ranks — still lands on the right track.  Events from
    delayed-delivery timer threads fall back to the rank passed explicitly
    by the caller.

    The companion :attr:`metrics` registry aggregates scalar facts about the
    run (absorbed :class:`~repro.mpi.counters.CommCounters`, run gauges), so
    a single object answers "what did this run do".
    """

    enabled = True

    def __init__(self, *, epoch: float | None = None, flow_start: int = 1) -> None:
        # ``epoch`` lets cooperating tracers share one time origin: the
        # process-backend executor hands every rank process the parent
        # tracer's epoch (``perf_counter`` is system-wide on the supported
        # platforms), so merged events line up on one timeline.
        # ``flow_start`` offsets the flow-id space so per-process tracers
        # never collide (a flow id must join exactly one send to one recv).
        self._epoch = time.perf_counter() if epoch is None else float(epoch)
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._seq = itertools.count()
        self._flow_seq = itertools.count(int(flow_start))
        self._next_stripe = 1
        self._tls = threading.local()
        self._rank_names: dict[int, str] = {}
        self.metrics = MetricsRegistry()

    @property
    def epoch(self) -> float:
        """This tracer's time origin (a ``time.perf_counter`` value)."""
        return self._epoch

    # -- clocks & rank attribution ------------------------------------------

    def now(self) -> float:
        """Wall-clock microseconds since this tracer's epoch."""
        return (time.perf_counter() - self._epoch) * 1e6

    def set_rank(self, rank: int) -> None:
        """Bind the calling thread to ``rank`` (used for implicit attribution)."""
        self._tls.rank = int(rank)

    def current_rank(self) -> int:
        """The calling thread's bound rank (:data:`DRIVER_RANK` if unbound)."""
        return getattr(self._tls, "rank", DRIVER_RANK)

    def name_rank(self, rank: int, name: str) -> None:
        """Label ``rank``'s track in exported traces (e.g. ``"nature (rank 0)"``)."""
        with self._lock:
            self._rank_names[int(rank)] = name

    def rank_names(self) -> dict[int, str]:
        """A copy of the rank-track labels."""
        with self._lock:
            return dict(self._rank_names)

    def new_flow_id(self) -> int:
        """Allocate a fresh message-flow id (joins a send to its recv)."""
        return next(self._flow_seq)

    def reserve_flow_stripe(self) -> int:
        """Reserve a disjoint flow-id stripe for a cooperating tracer.

        Each call returns the start of a fresh :data:`FLOW_STRIDE`-wide id
        range that is never handed out again for the lifetime of this
        tracer.  The process-backend executor reserves one stripe per rank
        process *per run*, so tracers created across multiple runs on the
        same parent tracer (restarted ranks, resumed simulations) cannot
        mint flow ids colliding with a surviving buffer's — nor with this
        tracer's own ids, which live in stripe 0.
        """
        with self._lock:
            start = self._next_stripe * FLOW_STRIDE + 1
            self._next_stripe += 1
            return start

    # -- recording ----------------------------------------------------------

    def records(self, name: str) -> bool:
        """Whether a span or instant named ``name`` would be recorded."""
        return True

    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def complete(
        self,
        name: str,
        *,
        cat: str = "phase",
        ts: float,
        dur: float,
        rank: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a finished span ``[ts, ts + dur]`` (microseconds)."""
        self._record(
            TraceEvent(
                ph="X",
                name=name,
                cat=cat,
                rank=self.current_rank() if rank is None else int(rank),
                ts=ts,
                dur=dur,
                seq=next(self._seq),
                args=args,
            )
        )

    def span(
        self,
        name: str,
        *,
        cat: str = "phase",
        rank: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> _SpanHandle:
        """Context manager timing a block as one complete span."""
        return _SpanHandle(self, name, cat, rank, args)

    def instant(
        self,
        name: str,
        *,
        cat: str = "phase",
        rank: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a point event at the current time."""
        self._record(
            TraceEvent(
                ph="i",
                name=name,
                cat=cat,
                rank=self.current_rank() if rank is None else int(rank),
                ts=self.now(),
                seq=next(self._seq),
                args=args,
            )
        )

    def msg_send(
        self,
        rank: int,
        dest: int,
        tag: int,
        nbytes: int,
        *,
        ts: float,
        dur: float,
        flow_id: int,
    ) -> None:
        """Record one network transmission: a ``send`` span plus a flow start."""
        args = {"dest": dest, "tag": tag, "nbytes": nbytes}
        self._record(
            TraceEvent(
                ph="X", name="send", cat="mpi.p2p", rank=rank, ts=ts, dur=dur,
                seq=next(self._seq), flow_id=flow_id, args=args,
            )
        )
        if flow_id:
            self._record(
                TraceEvent(
                    ph="s", name="msg", cat="mpi.flow", rank=rank,
                    ts=ts + dur / 2.0, seq=next(self._seq), flow_id=flow_id,
                )
            )

    def msg_recv(
        self,
        rank: int,
        source: int,
        tag: int,
        nbytes: int,
        *,
        ts: float,
        dur: float,
        flow_id: int,
    ) -> None:
        """Record one matched receive: a ``recv`` span plus the flow finish."""
        args = {"source": source, "tag": tag, "nbytes": nbytes}
        self._record(
            TraceEvent(
                ph="X", name="recv", cat="mpi.p2p", rank=rank, ts=ts, dur=dur,
                seq=next(self._seq), flow_id=flow_id, args=args,
            )
        )
        if flow_id:
            self._record(
                TraceEvent(
                    ph="f", name="msg", cat="mpi.flow", rank=rank,
                    ts=ts + dur / 2.0, seq=next(self._seq), flow_id=flow_id,
                )
            )

    def absorb_events(self, events: list[TraceEvent]) -> None:
        """Merge events recorded by another tracer into this one.

        Used by the process-backend executor: each rank process records
        into its own tracer (sharing this tracer's epoch), ships its event
        list back, and the parent folds everything into one timeline.
        Sequence numbers are re-assigned here in timestamp order, so the
        merged virtual clock stays monotone with wall time; timestamps,
        ranks and flow ids are kept verbatim.
        """
        for event in sorted(events, key=lambda e: (e.ts, e.seq)):
            self._record(
                TraceEvent(
                    ph=event.ph,
                    name=event.name,
                    cat=event.cat,
                    rank=event.rank,
                    ts=event.ts,
                    dur=event.dur,
                    seq=next(self._seq),
                    flow_id=event.flow_id,
                    args=event.args,
                )
            )

    # -- reading back --------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """A consistent snapshot of all recorded events, in record order."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop all recorded events (the epoch and metrics are kept)."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(events={len(self)}, enabled={self.enabled})"


class NullTracer(Tracer):
    """The do-nothing tracer installed by default.

    Every recording method returns immediately; :meth:`span` hands back one
    shared no-op context manager, so instrumentation costs an attribute
    check and a call — nothing allocates, nothing locks.
    """

    enabled = False

    def records(self, name: str) -> bool:  # noqa: D102 - records nothing
        return False

    def _record(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        pass

    def complete(self, name, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def span(self, name, **kwargs) -> _NullSpan:  # noqa: D102 - no-op
        return _NULL_SPAN

    def instant(self, name, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def msg_send(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def msg_recv(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def new_flow_id(self) -> int:  # noqa: D102 - flows disabled
        return 0


#: The module-level no-op tracer; ``get_tracer()`` returns it unless a real
#: tracer has been activated.
NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER
_active_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide active tracer (:data:`NULL_TRACER` when tracing is off)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the active tracer; returns the previous one.

    ``None`` restores the :data:`NULL_TRACER`.  Prefer the :func:`activate`
    context manager, which restores the previous tracer automatically.
    """
    global _active
    with _active_lock:
        previous = _active
        _active = tracer if tracer is not None else NULL_TRACER
        return previous


@contextmanager
def activate(tracer: Tracer | None) -> Iterator[Tracer]:
    """Scoped activation: install ``tracer``, restore the predecessor on exit."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)
