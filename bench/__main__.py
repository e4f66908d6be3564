"""Command line of the benchmark (``python3 -m bench``); see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from bench import OUT_DIR, BenchError, bootstrap, exit_on_sigterm
from bench.declared import RESULT_SCHEMA, Declared, load


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(f"-- {title}")
    for name, row in metrics.items():
        detail = f"  (q1 {row['q1']:.5g}, q3 {row['q3']:.5g}, n={row['n']})" if row.get("n", 1) > 1 else ""
        print(f"{name:<40} {row['value']:>14.6g} {row['unit']}{detail}")


def print_result(title: str, metrics: dict[str, dict], errors: list[str]) -> None:
    print_metrics(title, metrics)
    for error in errors:
        print(f"failed operation: {error}", file=sys.stderr)


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads: exactly these keys, full precision."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in result["metrics"].items()},
    })


def run_one(declared: Declared, args) -> int:
    from bench.runner import run_workload

    result = run_workload(declared, args.workload, args.seed, args.seconds, bool(args.trace))
    kind = "per-layer" if args.trace else "end-to-end"
    print_result(f"{args.workload} ({kind}, seed {args.seed})", result["metrics"], result["errors"])
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(contract_line(result))
    return 0


def run_all(declared: Declared, args) -> int:
    """The probes once, then every workload untraced and traced; one result file."""
    from bench.meta import machine
    from bench.runner import run_probes, run_workload

    def fail_ratio(row: dict) -> bool:
        row["fail_ratio"] = row["failed"] / row["attempted"]
        print(f"{'fail_ratio':<40} {row['fail_ratio']:>14.6g} ratio"
              f"  ({row['failed']} of {row['attempted']} operations)")
        return row["failed"] > 0

    probes = run_probes(args.seed, args.seconds)
    units = declared.layer_scope(of_workload=False)
    doc = {"schema": RESULT_SCHEMA, "claim": None, "seed": args.seed, "seconds": args.seconds,
           "machine": machine(),
           "per_layer": {name: {**row, "unit": units[name].unit} for name, row in probes["layer"].items()},
           "probes": {"attempted": probes["attempted"], "failed": probes["failed"]},
           "workloads": {}}
    print_result(f"probes (per-layer, seed {args.seed})", doc["per_layer"], probes["errors"])
    any_failed = fail_ratio(doc["probes"])
    own = declared.layer_scope(of_workload=True)
    for workload in declared.workloads:
        row = {"attempted": 0, "failed": 0}
        for section, trace in (("end_to_end", False), ("per_layer", True)):
            result = run_workload(declared, workload, args.seed, args.seconds, trace, probes=probes)
            metrics = result["metrics"]
            if trace:
                metrics = {name: metrics[name] for name in own}
            print_result(f"{workload} ({section.replace('_', '-')}, seed {args.seed})", metrics, result["errors"])
            row[section] = metrics
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
        any_failed = fail_ratio(row) or any_failed
        doc["workloads"][workload] = row
    out = args.out or OUT_DIR / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(f"result file: {out}")
    return 1 if any_failed else 0


def run_probe(argv: list[str]) -> int:
    """One probe group, in this process."""
    from bench import probes
    from bench.child import PROBE_SLICE_SHARE
    from bench.spans import SpanRecorder

    declared = load()
    parser = argparse.ArgumentParser(prog="python3 -m bench probe")
    parser.add_argument("group", choices=sorted(probes.GROUPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared.run_seconds)
    args = parser.parse_args(argv)
    tmp = OUT_DIR / "tmp" / f"probe-{time.time_ns()}"
    tmp.mkdir(parents=True)
    try:
        ctx = probes.ProbeContext(args.seed, PROBE_SLICE_SHARE * args.seconds, 1.0,
                                  SpanRecorder("probes", enabled=False), tmp)
        probes.GROUPS[args.group](ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, row in ctx.metrics.items():
        row["unit"] = declared.per_layer[name].unit
    print_metrics(f"probe group {args.group} (seed {args.seed})", ctx.metrics)
    print(f"attempted {ctx.attempted}, failed {ctx.failed}")
    return 1 if ctx.failed else 0


def main(argv: list[str]) -> int:
    bootstrap()
    exit_on_sigterm()
    if argv[:1] == ["compare"]:
        from bench.compare import compare

        parser = argparse.ArgumentParser(prog="python3 -m bench compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(load(), args.a, args.b)
    if argv[:1] == ["probe"]:
        return run_probe(argv[1:])
    declared = load()
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="With --workload: one contract run. Without: every workload, both passes,"
                    " and a result file. Also: 'compare A.json B.json', 'probe <group>'.")
    parser.add_argument("--workload", choices=list(declared.workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared.run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result file (default bench/out/result-seed<S>.json)")
    args = parser.parse_args(argv)
    return run_one(declared, args) if args.workload else run_all(declared, args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
