"""Trace exporters: Perfetto/Chrome JSON, plain-text timelines, metrics dumps.

Three views of one :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON object format, loadable in `Perfetto
  <https://ui.perfetto.dev>`_ (or ``chrome://tracing``): one named track
  per rank, generation-phase spans nested under each other, and
  message-flow arrows joining every ``send`` to its ``recv``;
* :func:`timeline_text` — a per-generation plain-text timeline for
  terminals and logs;
* :func:`metrics_json` — the metrics registry alone, as plain JSON.

The Perfetto file also embeds the metrics registry and rank labels under
``metadata``, so a single artefact carries the whole run;
``python -m repro.obs.report trace.json`` renders it back into a summary.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any

from repro.obs.tracer import DRIVER_RANK, TraceEvent, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "load_trace",
    "timeline_text",
    "metrics_json",
]

#: Synthetic pid shared by every rank track (one "process" = one run).
TRACE_PID = 1

#: Minimum span width (µs) in exports, so sub-microsecond spans stay visible
#: and flow arrows have a slice to bind to.
_MIN_DUR_US = 0.5


def _rank_label(rank: int, names: dict[int, str]) -> str:
    if rank in names:
        return names[rank]
    return "driver" if rank == DRIVER_RANK else f"rank {rank}"


def _event_to_chrome(event: TraceEvent) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": event.name,
        "cat": event.cat,
        "ph": event.ph,
        "ts": round(event.ts, 3),
        "pid": TRACE_PID,
        # Perfetto sorts thread ids numerically; shift so the driver (-1)
        # gets a valid non-negative tid below rank 0's.
        "tid": event.rank + 1,
    }
    args = dict(event.args) if event.args else {}
    args["seq"] = event.seq
    out["args"] = args
    if event.ph == "X":
        out["dur"] = round(max(event.dur, _MIN_DUR_US), 3)
    if event.ph == "i":
        out["s"] = "t"  # thread-scoped instant
    if event.ph in ("s", "f"):
        out["id"] = event.flow_id
        if event.ph == "f":
            out["bp"] = "e"  # bind to the enclosing slice
    return out


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Render a tracer as a Chrome trace-event JSON object (Perfetto-loadable).

    Returns a dict with ``traceEvents`` (per-rank tracks, spans, instants
    and flow arrows), ``displayTimeUnit`` and a ``metadata`` section holding
    the metrics registry and rank labels.
    """
    events = tracer.events()
    names = tracer.rank_names()
    trace_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "args": {"name": "repro virtual MPI"},
        }
    ]
    for rank in sorted({e.rank for e in events}):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": rank + 1,
                "args": {"name": _rank_label(rank, names)},
            }
        )
        trace_events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": rank + 1,
                "args": {"sort_index": rank + 1},
            }
        )
    trace_events += [_event_to_chrome(e) for e in events]
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {
            "repro": {
                "metrics": tracer.metrics.to_dict(),
                "rank_names": {str(k): v for k, v in names.items()},
                "n_events": len(events),
            }
        },
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer)))
    return path


def load_trace(path: str | Path) -> dict[str, Any]:
    """Load a trace file written by :func:`write_chrome_trace`."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError(f"{path} is not a Chrome trace-event JSON object")
    return data


def metrics_json(tracer: Tracer) -> str:
    """The tracer's metrics registry as an indented JSON string."""
    return json.dumps(tracer.metrics.to_dict(), indent=2, sort_keys=True)


def _generation_windows(events: list[TraceEvent]) -> dict[int, tuple[float, float]]:
    """Map generation → the union time window of its ``generation`` spans."""
    windows: dict[int, tuple[float, float]] = {}
    for e in events:
        if e.ph != "X" or e.name != "generation" or not e.args:
            continue
        gen = e.args.get("gen")
        if gen is None:
            continue
        start, end = e.ts, e.ts + e.dur
        if gen in windows:
            lo, hi = windows[gen]
            windows[gen] = (min(lo, start), max(hi, end))
        else:
            windows[gen] = (start, end)
    return windows


def timeline_text(tracer: Tracer, max_generations: int = 50) -> str:
    """A per-generation plain-text timeline of phases and traffic.

    Each generation gets one line: its wall-clock window, the number of
    network messages and bytes sent inside it, and the phases observed
    (with total time per phase across ranks).  Long runs are elided to the
    first ``max_generations`` generations.
    """
    events = tracer.events()
    windows = _generation_windows(events)
    if not windows:
        return "(no generation spans recorded — was the run traced?)"
    sends = [e for e in events if e.ph == "X" and e.name == "send"]
    phase_events = [
        e
        for e in events
        if e.ph == "X" and e.cat == "phase" and e.args and e.args.get("gen") is not None
        and e.name not in ("generation", "window")  # they hold the other phases
    ]
    lines = ["generation  window [ms]           messages      bytes  phases"]
    shown = sorted(windows)[:max_generations]
    for gen in shown:
        lo, hi = windows[gen]
        in_window = [e for e in sends if lo <= e.ts <= hi]
        nbytes = sum((e.args or {}).get("nbytes", 0) for e in in_window)
        phases: dict[str, float] = defaultdict(float)
        for e in phase_events:
            if e.args.get("gen") == gen:
                phases[e.name] += e.dur
        phase_txt = " ".join(
            f"{name}={dur / 1e3:.2f}ms" for name, dur in sorted(phases.items())
        )
        lines.append(
            f"{gen:>10}  {lo / 1e3:>8.3f} → {hi / 1e3:>8.3f}  {len(in_window):>8}"
            f"  {nbytes:>9}  {phase_txt}"
        )
    if len(windows) > len(shown):
        lines.append(f"... ({len(windows) - len(shown)} more generations elided)")
    return "\n".join(lines)
