"""``python3 -m bench compare A.json B.json``: B judged against A by the declared bounds.

One row per (end-to-end metric, workload).  ``worse`` means B's median is
worse than A's by more than the metric's bound; ``better`` the reverse;
``unresolved`` means either file's own run-to-run spread (quartile distance
over median) is wider than the bound, so the difference cannot be told from
noise — unless B's whole quartile range lies on the better side of A's.
Exit code 1 on any ``worse`` row or a larger ``fail_ratio``.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench import BenchError
from bench.declared import Declared, Metric, check_result_file
from bench.stats import spread


def verdict(metric: Metric, a: dict, b: dict) -> tuple[str, float]:
    """(verdict, change) where change > 0 is B worse than A as a share of A."""
    sign = 1.0 if metric.better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    if max(spread(a), spread(b)) > metric.bound:
        clear_win = b["q3"] < a["q1"] if metric.better == "lower" else b["q1"] > a["q3"]
        return ("better" if clear_win else "unresolved"), change
    if change > metric.bound:
        return "worse", change
    if change < -metric.bound:
        return "better", change
    return "same", change


def load_result(path: Path, declared: Declared) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read result file {path}: {exc}") from exc
    check_result_file(doc, declared)
    return doc


def compare(declared: Declared, path_a: Path, path_b: Path) -> int:
    a, b = load_result(path_a, declared), load_result(path_b, declared)
    bad = 0

    def failures_rose(what: str, row_a: dict, row_b: dict) -> bool:
        if row_b["fail_ratio"] <= row_a["fail_ratio"]:
            return False
        print(f"{what:<12} fail_ratio rose from {row_a['fail_ratio']:.4g} to {row_b['fail_ratio']:.4g}")
        return True

    print(f"{'workload':<12} {'metric':<18} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  verdict")
    for workload in declared.workloads:
        row_a, row_b = a["workloads"].get(workload), b["workloads"].get(workload)
        if row_a is None or row_b is None:
            print(f"{workload:<12} missing from {'A' if row_a is None else 'B'}")
            bad += 1
            continue
        for name, metric in declared.end_to_end.items():
            ma, mb = row_a["end_to_end"][name], row_b["end_to_end"][name]
            word, change = verdict(metric, ma, mb)
            bad += word == "worse"
            print(f"{workload:<12} {name:<18} {ma['value']:>12.5g} {mb['value']:>12.5g}"
                  f" {change:>+8.1%} {metric.bound:>6.0%}  {word}  [{metric.unit}]")
        bad += failures_rose(workload, row_a, row_b)
    bad += failures_rose("probes", a["probes"], b["probes"])
    return 1 if bad else 0
