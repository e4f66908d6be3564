"""Streamable event tap: follow a run's trace while it is still running.

The :class:`~repro.obs.tracer.Tracer` is a *recorder* — events pile up in
memory and are read back after the run.  A long-running service needs the
opposite: events flowing *out* as they happen, across process boundaries,
to subscribers that were not there when the run started.  Two pieces
provide that:

* :class:`EventTap` — a :class:`~repro.obs.tracer.Tracer` subclass that
  invokes subscriber callbacks on every recorded event, synchronously on
  the recording thread.  Taps compose with everything that accepts a
  tracer (``ParallelSimulation(trace=tap)``, ``SupervisedRun(trace=tap)``)
  and change nothing about what is recorded, so a tapped run stays
  bit-identical.
* :func:`jsonl_event_writer` / :func:`read_events` / :func:`follow_events`
  — a line-delimited JSON transport for tapped events: the writer appends
  one flushed JSON object per event (optionally filtered by name), readers
  parse a finished file, and :func:`follow_events` *tails* a file that is
  still being written — which is exactly how the run service's SSE
  endpoint watches a worker process's run from the outside.

The JSON form of an event is intentionally minimal and append-friendly:
``{"name", "ph", "cat", "rank", "ts", "args"}`` — enough to rebuild a
progress feed or a restart log, not a full Perfetto export (that stays
:mod:`repro.obs.export`'s job).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.obs.tracer import _NULL_SPAN, TraceEvent, Tracer

__all__ = [
    "EventTap",
    "event_to_dict",
    "jsonl_event_writer",
    "read_events",
    "follow_events",
]


def event_to_dict(event: TraceEvent) -> dict:
    """The JSON-safe form of one :class:`~repro.obs.tracer.TraceEvent`."""
    return {
        "name": event.name,
        "ph": event.ph,
        "cat": event.cat,
        "rank": event.rank,
        "ts": event.ts,
        "args": event.args or {},
    }


class EventTap(Tracer):
    """A tracer that pushes every recorded event to subscriber callbacks.

    Subscribers run synchronously on the recording thread, so they must be
    cheap and must not call back into the tracer; exceptions they raise are
    swallowed (a broken subscriber must not corrupt the run it watches).
    Everything else — recording, metrics, export — behaves exactly like the
    base :class:`~repro.obs.tracer.Tracer`.

    Parameters
    ----------
    subscribers:
        The callbacks, each invoked as ``callback(event)``.
    keep_events:
        When ``False``, recorded events are *not* accumulated in memory —
        the tap becomes pure pipe, which is what a service worker streaming
        a multi-hour run wants (the events file is the durable copy).
    names:
        The event names the subscribers consume.  Given them, the tap builds
        nothing else: it reports ``enabled = False`` (so instrumented layers
        skip their per-message and per-kernel events — and process and tcp
        hosts, which trace for an enabled tracer only, record nothing),
        hands the shared null span for any other name and mints no flow
        ids.  ``None`` (the default) records everything.
    """

    def __init__(
        self,
        subscribers: Iterable[Callable[[TraceEvent], None]] = (),
        *,
        keep_events: bool = True,
        names: Iterable[str] | None = None,
        epoch: float | None = None,
        flow_start: int = 1,
    ) -> None:
        super().__init__(epoch=epoch, flow_start=flow_start)
        self._subscribers = tuple(subscribers)
        self._keep_events = bool(keep_events)
        self._names = None if names is None else frozenset(names)
        if self._names is not None:
            self.enabled = False

    def records(self, name: str) -> bool:
        return self._names is None or name in self._names

    def span(self, name: str, **kwargs):
        if not self.records(name):
            return _NULL_SPAN
        return super().span(name, **kwargs)

    def new_flow_id(self) -> int:
        return 0 if self._names is not None else super().new_flow_id()

    def _record(self, event: TraceEvent) -> None:
        if not self.records(event.name):
            return  # instants, complete(), absorb_events: rare, filtered once built
        if self._keep_events:
            super()._record(event)
        for callback in self._subscribers:
            try:
                callback(event)
            except Exception:  # noqa: BLE001 - a watcher must not kill the run
                pass


def jsonl_event_writer(
    path: str | Path,
    *,
    names: tuple[str, ...] | None = None,
    transform: Callable[[TraceEvent], dict | None] | None = None,
) -> Callable[[TraceEvent], None]:
    """A subscriber that appends events to ``path`` as line-delimited JSON.

    ``names`` keeps only the named events (``None`` keeps all);
    ``transform`` maps an event to the dict actually written (return
    ``None`` to drop it) — the run service uses it to distill raw trace
    events into progress records.  Each line is flushed so a tailing reader
    (:func:`follow_events`) sees it promptly, and written atomically enough
    for JSONL (one ``write`` call per line).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a", encoding="utf-8")

    def write(event: TraceEvent) -> None:
        if names is not None and event.name not in names:
            return
        payload = event_to_dict(event) if transform is None else transform(event)
        if payload is None:
            return
        fh.write(json.dumps(payload) + "\n")
        # flush, not fsync: a SIGKILLed writer's flushed lines survive in
        # the page cache for same-machine tailers, and per-event fsync
        # would tax the run being watched.
        fh.flush()

    write.close = fh.close  # type: ignore[attr-defined]
    return write


def read_events(path: str | Path) -> list[dict]:
    """Parse a finished JSONL event file (torn trailing lines are dropped).

    A writer killed mid-line (a chaos-killed worker, say) leaves a partial
    last record; readers skip anything that does not parse rather than
    refusing the whole file.
    """
    path = Path(path)
    if not path.exists():
        return []
    out: list[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return out


def follow_events(
    path: str | Path,
    *,
    poll: float = 0.05,
    stop: Callable[[], bool] | None = None,
    timeout: float | None = None,
    wait: Callable[[float], object] = time.sleep,
) -> Iterator[dict]:
    """Tail a JSONL event file, yielding each record as it appears.

    The file may not exist yet (the worker has not started) — the follower
    waits for it.  Iteration ends when ``stop()`` returns true *and* every
    line already on disk has been yielded, or when ``timeout`` seconds pass
    with no new data and no stop signal (``None`` waits forever).  Partial
    trailing lines (a writer killed mid-record) are held back until the
    line completes, and never complete lines are dropped at stop.

    Between reads the follower calls ``wait(poll)``: a sleep by default; a
    caller that owns what ``stop`` tests passes ``event.wait`` beside
    ``stop=event.is_set``, and the last read follows the event, not a tick.
    """
    path = Path(path)
    buffer = ""
    position = 0
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        # Sampled before the read: a writer that appends and then signals
        # stop between this read and a later check would lose its last lines.
        stopping = stop is not None and stop()
        grew = False
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(position)
                chunk = fh.read()
                position = fh.tell()
            if chunk:
                grew = True
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except json.JSONDecodeError:
                        continue
        if stopping and not grew:
            return
        if grew:
            deadline = None if timeout is None else time.monotonic() + timeout
        elif deadline is not None and time.monotonic() >= deadline:
            return
        wait(poll)
