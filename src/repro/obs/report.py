"""Run-summary CLI for exported traces.

Renders a trace file written by
:func:`repro.obs.export.write_chrome_trace` back into a terminal summary::

    python -m repro.obs.report trace.json
    python -m repro.obs.report trace.json --generations 20 --per-rank

The report covers: per-rank track inventory (event and span counts, busy
time), a per-generation timing/traffic table (wall window, messages and
bytes, phase breakdown), and the embedded metrics registry (absorbed
network counters, run gauges).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Any, Iterable, Sequence

__all__ = ["main", "render_report"]


def _slices(trace: dict[str, Any]) -> list[dict[str, Any]]:
    return [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]


def _rank_names(trace: dict[str, Any]) -> dict[int, str]:
    names: dict[int, str] = {}
    for e in trace.get("traceEvents", []):
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[int(e.get("tid", 0))] = e["args"]["name"]
    return names


def _generation_windows(slices: Iterable[dict[str, Any]]) -> dict[int, tuple[float, float]]:
    windows: dict[int, tuple[float, float]] = {}
    for e in slices:
        if e.get("name") != "generation":
            continue
        gen = (e.get("args") or {}).get("gen")
        if gen is None:
            continue
        lo, hi = e["ts"], e["ts"] + e.get("dur", 0.0)
        if gen in windows:
            a, b = windows[gen]
            windows[gen] = (min(a, lo), max(b, hi))
        else:
            windows[gen] = (lo, hi)
    return windows


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "kB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GB"


def _rank_table(slices: list[dict[str, Any]], names: dict[int, str]) -> list[str]:
    per_rank: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for e in slices:
        tid = int(e.get("tid", 0))
        per_rank[tid]["spans"] += 1
        per_rank[tid]["busy"] += e.get("dur", 0.0)
        if e.get("name") == "send":
            per_rank[tid]["sends"] += 1
            per_rank[tid]["bytes"] += (e.get("args") or {}).get("nbytes", 0)
    lines = ["track                      spans      busy[ms]     sends      sent"]
    for tid in sorted(per_rank):
        row = per_rank[tid]
        label = names.get(tid, f"tid {tid}")
        lines.append(
            f"{label:<24} {int(row['spans']):>7}  {row['busy'] / 1e3:>11.2f}"
            f"  {int(row['sends']):>8}  {_fmt_bytes(row['bytes']):>8}"
        )
    return lines


def _generation_table(
    slices: list[dict[str, Any]], max_generations: int
) -> list[str]:
    windows = _generation_windows(slices)
    if not windows:
        return ["(no generation spans in this trace)"]
    sends = [e for e in slices if e.get("name") == "send"]
    phase_by_gen: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for e in slices:
        gen = (e.get("args") or {}).get("gen")
        name = e.get("name")
        if gen is not None and e.get("cat") == "phase" and name not in ("generation", "window"):
            phase_by_gen[gen][name] += e.get("dur", 0.0)
    lines = ["gen         wall[ms]    msgs      bytes  phase time (summed across ranks)"]
    shown = sorted(windows)[:max_generations]
    for gen in shown:
        lo, hi = windows[gen]
        in_window = [e for e in sends if lo <= e["ts"] <= hi]
        nbytes = sum((e.get("args") or {}).get("nbytes", 0) for e in in_window)
        phases = " ".join(
            f"{name}={dur / 1e3:.2f}" for name, dur in sorted(phase_by_gen[gen].items())
        )
        lines.append(
            f"{gen:>4}  {(hi - lo) / 1e3:>10.3f}  {len(in_window):>6}"
            f"  {_fmt_bytes(nbytes):>9}  {phases}"
        )
    if len(windows) > len(shown):
        lines.append(f"... ({len(windows) - len(shown)} more generations; use --generations)")
    # Totals row over every generation window.
    total_msgs = len(sends)
    total_bytes = sum((e.get("args") or {}).get("nbytes", 0) for e in sends)
    first = min(lo for lo, _ in windows.values())
    last = max(hi for _, hi in windows.values())
    lines.append(
        f"total {len(windows)} generations over {(last - first) / 1e3:.2f} ms,"
        f" {total_msgs} messages, {_fmt_bytes(total_bytes)} on the wire"
    )
    return lines


def _metrics_section(trace: dict[str, Any]) -> list[str]:
    metrics = (
        trace.get("metadata", {}).get("repro", {}).get("metrics")
        if isinstance(trace.get("metadata"), dict)
        else None
    )
    if not metrics:
        return []
    lines = ["", "== metrics =="]
    gauges = metrics.get("gauges", {})
    if gauges:
        lines += [f"  {k:<40} {v:g}" for k, v in sorted(gauges.items())]
    counters = metrics.get("counters", {})
    all_calls = {
        k[len("mpi."):-len(".calls")]: v
        for k, v in counters.items()
        if k.startswith("mpi.") and k.endswith(".calls")
    }
    # The TCP transport's socket-layer tallies (connects, reconnects,
    # resent/deduplicated frames, injected link faults) live in the same
    # registry under mpi.net.*; report them apart from the message ops.
    net_calls = {k: v for k, v in all_calls.items() if k.startswith("net.")}
    mpi_calls = {k: v for k, v in all_calls.items() if not k.startswith("net.")}
    if mpi_calls:
        lines.append("  network operations (calls / bytes):")
        for op in sorted(mpi_calls):
            nbytes = counters.get(f"mpi.{op}.bytes", 0)
            lines.append(f"    {op:<22} {mpi_calls[op]:>10g}  {_fmt_bytes(nbytes):>10}")
    if net_calls:
        lines.append("  tcp transport (events / bytes):")
        for op in sorted(net_calls):
            nbytes = counters.get(f"mpi.{op}.bytes", 0)
            lines.append(f"    {op:<22} {net_calls[op]:>10g}  {_fmt_bytes(nbytes):>10}")
    return lines


def render_report(
    trace: dict[str, Any], *, max_generations: int = 30, per_rank: bool = False
) -> str:
    """Render the full text report for a loaded trace dict."""
    slices = _slices(trace)
    names = _rank_names(trace)
    lines = [
        f"trace: {len(trace.get('traceEvents', []))} events,"
        f" {len(slices)} spans, {len(names)} tracks",
        "",
        "== generations ==",
    ]
    lines += _generation_table(slices, max_generations)
    if per_rank:
        lines += ["", "== per-rank =="] + _rank_table(slices, names)
    lines += _metrics_section(trace)
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.obs.report``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarise a repro trace file (Perfetto/Chrome JSON).",
    )
    parser.add_argument("trace", help="trace JSON written by write_chrome_trace")
    parser.add_argument(
        "--generations", type=int, default=30,
        help="max generations to list individually (default 30)",
    )
    parser.add_argument(
        "--per-rank", action="store_true", help="include the per-rank track table"
    )
    opts = parser.parse_args(argv)
    try:
        trace = json.loads(open(opts.trace).read())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {opts.trace!r}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        print(f"error: {opts.trace!r} is not a Chrome trace-event JSON object",
              file=sys.stderr)
        return 2
    print(render_report(trace, max_generations=opts.generations, per_rank=opts.per_rank))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
