"""Smoke test of the benchmark itself: ``python3 -m pytest bench/``.

Outside tier-1's ``testpaths`` on purpose — it starts worlds, servers and
subprocesses, and checks the harness, not the program.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from bench import BenchError, bootstrap

bootstrap()

from bench import workloads  # noqa: E402 - needs the bootstrapped import path
from bench.compare import verdict  # noqa: E402
from bench.declared import RESULT_SCHEMA, Metric, check_reported, check_result_file, load  # noqa: E402
from bench.runner import run_workload  # noqa: E402
from bench.spans import SpanRecorder  # noqa: E402

DECLARED = load()
SMOKE_SCALE = 1 / 50
SMOKE_SECONDS = DECLARED.run_seconds * SMOKE_SCALE


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "per-layer"])
@pytest.mark.parametrize("workload", list(DECLARED.workloads))
def test_workload_finishes_and_emits_every_declared_metric(workload, trace):
    result = run_workload(DECLARED, workload, seed=3, seconds=SMOKE_SECONDS, trace=trace,
                          scale=SMOKE_SCALE)
    assert set(result["metrics"]) == set(DECLARED.metrics(trace))
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["errors"]
    assert result["correct"]


@pytest.mark.parametrize("workload", ["evo-lazy", "svc-jobs"])
def test_corrupted_oracle_matrix_raises_the_fail_ratio(workload, tmp_path, monkeypatch):
    honest = workloads.serial_oracle

    def corrupted(cfg):
        matrix, pairs = honest(cfg)
        matrix = matrix.copy()
        matrix[0, 0] ^= 1
        return matrix, pairs

    monkeypatch.setattr(workloads, "serial_oracle", corrupted)
    out = workloads.run_round(workload, 3, 0, SMOKE_SECONDS, SMOKE_SCALE,
                              SpanRecorder(workload, enabled=False), tmp_path, time.time())
    assert out.attempted >= 1
    assert out.failed / out.attempted > 0
    assert any("oracle" in error for error in out.errors)


def test_declared_workloads_are_the_implemented_ones():
    assert list(DECLARED.workloads) == list(workloads.ROUND_OF)


def test_seed_determines_the_inputs():
    shape = workloads.EVO_SHAPES["evo-lazy"]
    same = [shape.config(workloads.derive_seed(5, "evo-lazy", 1, 2)) for _ in range(2)]
    assert same[0] == same[1]
    assert same[0].seed != shape.config(workloads.derive_seed(6, "evo-lazy", 1, 2)).seed


def test_schema_check_rejects_unknown_badly_named_and_missing_metrics():
    declared = {"gen_per_s": Metric("gen_per_s", "1/s", "higher", 0.1)}
    good = {"gen_per_s": {"value": 1.5, "unit": "1/s"}}
    check_reported(declared, good)
    for bad in (
        {**good, "made_up": {"value": 1.0, "unit": "s"}},
        {**good, "bad name!": {"value": 1.0, "unit": "s"}},
        {},
        {"gen_per_s": {"value": float("nan"), "unit": "1/s"}},
        {"gen_per_s": {"value": 1.5, "unit": "s"}},
    ):
        with pytest.raises(BenchError):
            check_reported(declared, bad)


def test_result_file_holds_probe_metrics_once_and_workload_metrics_per_workload():
    def rows(metrics):
        return {name: {"value": 1.0, "unit": m.unit} for name, m in metrics.items()}

    counts = {"attempted": 1, "failed": 0, "fail_ratio": 0.0}
    doc = {
        "schema": RESULT_SCHEMA, "claim": None, "machine": {}, "probes": dict(counts),
        "per_layer": rows(DECLARED.layer_scope(of_workload=False)),
        "workloads": {name: {**counts, "end_to_end": rows(DECLARED.end_to_end),
                             "per_layer": rows(DECLARED.layer_scope(of_workload=True))}
                      for name in DECLARED.workloads},
    }
    check_result_file(doc, DECLARED)
    doc["per_layer"]["share.other"] = doc["workloads"]["evo-lazy"]["per_layer"].pop("share.other")
    with pytest.raises(BenchError):
        check_result_file(doc, DECLARED)


def test_compare_applies_bound_direction_and_spread():
    higher = Metric("gen_per_s", "1/s", "higher", 0.1)
    lower = Metric("setup_s", "s", "lower", 0.1)

    def row(value, spread=0.01):
        return {"value": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2)}

    assert verdict(higher, row(100), row(80))[0] == "worse"
    assert verdict(higher, row(100), row(120))[0] == "better"
    assert verdict(higher, row(100), row(95))[0] == "same"
    assert verdict(lower, row(1.0), row(1.2))[0] == "worse"
    assert verdict(lower, row(1.0), row(0.8))[0] == "better"
    # A spread wider than the bound hides a small difference ...
    assert verdict(higher, row(100, spread=0.3), row(95))[0] == "unresolved"
    # ... but not one where every round of B beats every round of A.
    assert verdict(higher, row(100, spread=0.3), row(200))[0] == "better"
    assert np.isclose(verdict(lower, row(1.0), row(1.2))[1], 0.2)
