"""One pass, in its own process (``python3 -m bench.child``).

The parent starts a fresh interpreter per pass so every round pays the same
cold set-up (imports, world spawn, server start) and no state leaks between
them.  Three passes: ``untraced`` is one measured round of a workload,
``traced`` the same round with a bench-side span around every call into a
layer, ``probes`` every probe group — they do not depend on the workload, so
a full run makes that pass once.  The result goes to ``--out`` as JSON;
stdout is left alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from bench import OUT_DIR, bootstrap, exit_on_sigterm

#: Share of ``--seconds`` the traced pass spends on the workload; the rest is
#: the probes' (most of their cost is fixed: world launches, a server).
TRACED_PASS_SHARE = 0.3
#: One in-process micro-probe loops for this share of ``--seconds``.
PROBE_SLICE_SHARE = 0.006


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _counts(result) -> dict:
    return {"attempted": result.attempted, "failed": result.failed, "errors": result.errors}


def untraced(args) -> dict:
    from bench.spans import SpanRecorder
    from bench.workloads import run_round

    rec = SpanRecorder(args.workload, enabled=False)
    result = run_round(args.workload, args.seed, args.round, args.seconds, args.scale,
                       rec, args.tmp, args.started_at)
    return {"setup_s": result.setup_s, "peak_rss_mb": peak_rss_mb(), "timed_units": result.timed_units,
            "generations": result.generations, "wall_s": result.wall_s, **_counts(result)}


def traced(args) -> dict:
    """The workload once more with spans; hands back its exact counts (``facts``)."""
    from bench.spans import SpanRecorder
    from bench.workloads import run_round

    rec = SpanRecorder(args.workload)
    try:
        with rec.span("bench.traced_pass"):
            result = run_round(args.workload, args.seed, args.round,
                               TRACED_PASS_SHARE * args.seconds, args.scale, rec, args.tmp, args.started_at)
    finally:
        rec.dump(OUT_DIR / f"trace-{args.workload}.json")
    return {"facts": result.facts, **_counts(result)}


def probes(args) -> dict:
    from bench import probes as groups
    from bench.spans import SpanRecorder

    rec = SpanRecorder("probes")
    ctx = groups.ProbeContext(args.seed, PROBE_SLICE_SHARE * args.seconds, args.scale, rec, args.tmp)
    try:
        for name, group in groups.GROUPS.items():
            with rec.span(f"probe.{name}"):
                group(ctx)
    finally:
        rec.dump(OUT_DIR / "trace-probes.json")
    return {"layer": ctx.metrics, **_counts(ctx)}


PASSES = {"untraced": untraced, "traced": traced, "probes": probes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.child")
    parser.add_argument("--pass", dest="pass_", choices=list(PASSES), required=True)
    parser.add_argument("--workload", help="not needed by the probes pass")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--started-at", type=float, default=None)
    args = parser.parse_args(argv)
    if args.started_at is None:
        args.started_at = time.time()
    bootstrap()
    exit_on_sigterm()
    args.tmp.mkdir(parents=True, exist_ok=True)
    try:
        doc = PASSES[args.pass_](args)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    args.out.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
