"""What ``BENCHMARK.json`` declares, and the checks every result must pass.

``BENCHMARK.json`` is the single list of workloads and metrics: code reports
a value under a name, and the unit, direction and bound come from the
declaration.  A value under an undeclared or badly formed name is an error,
so a typo cannot silently add a metric nobody compares.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from bench import ROOT, BenchError

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_SCHEMA = 1

#: Per-layer metrics that describe the traced workload.  Every other one is a
#: probe that does not depend on the workload, so a result file holds it once.
WORKLOAD_SCOPED = ("mpi.msgs_per_gen", "mpi.bytes_per_gen",
                   "share.kernel", "share.comm", "share.ckpt", "share.other")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None  # share of the parent's median; None for per-layer


@dataclass(frozen=True)
class Declared:
    run_seconds: int
    workloads: dict[str, str]  # name -> why
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]

    def metrics(self, trace: bool) -> dict[str, Metric]:
        return self.per_layer if trace else self.end_to_end

    def layer_scope(self, of_workload: bool) -> dict[str, Metric]:
        """The per-layer metrics a result file keeps per workload, or the ones it keeps once."""
        return {name: m for name, m in self.per_layer.items() if (name in WORKLOAD_SCOPED) == of_workload}


def _metrics(rows: list[dict], bounded: bool) -> dict[str, Metric]:
    out: dict[str, Metric] = {}
    for row in rows:
        name = row["name"]
        if not NAME_RE.match(name):
            raise BenchError(f"BENCHMARK.json declares a badly named metric {name!r}")
        if name in out:
            raise BenchError(f"BENCHMARK.json declares metric {name!r} twice")
        if row["better"] not in ("lower", "higher"):
            raise BenchError(f"metric {name!r}: better must be 'lower' or 'higher'")
        out[name] = Metric(name, row["unit"], row["better"], row["bound"] if bounded else None)
    return out


def load() -> Declared:
    """Read and validate ``BENCHMARK.json`` from the checkout root."""
    path = ROOT / "BENCHMARK.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    end_to_end = _metrics(doc["end_to_end"], bounded=True)
    per_layer = _metrics(doc["per_layer"], bounded=False)
    both = set(end_to_end) & set(per_layer)
    if both:
        raise BenchError(f"metrics declared both end-to-end and per-layer: {sorted(both)}")
    missing = set(WORKLOAD_SCOPED) - set(per_layer)
    if missing:
        raise BenchError(f"BENCHMARK.json does not declare {sorted(missing)}")
    return Declared(
        run_seconds=int(doc["run_seconds"]),
        workloads={w["name"]: w["why"] for w in doc["workloads"]},
        end_to_end=end_to_end,
        per_layer=per_layer,
    )


def check_reported(declared: dict[str, Metric], reported: dict[str, dict]) -> None:
    """Reject a run whose metric set is not exactly the declared one.

    ``reported`` maps name -> ``{"value": number, "unit": str, ...}``.
    """
    problems = []
    for name in reported:
        if not NAME_RE.match(name):
            problems.append(f"badly named metric {name!r}")
        elif name not in declared:
            problems.append(f"undeclared metric {name!r}")
    for name, metric in declared.items():
        got = reported.get(name)
        if got is None:
            problems.append(f"missing metric {name!r}")
            continue
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name!r} has no finite value: {value!r}")
        if got.get("unit") != metric.unit:
            problems.append(f"metric {name!r} reported in {got.get('unit')!r}, declared {metric.unit!r}")
    if problems:
        raise BenchError("invalid result: " + "; ".join(problems))


def check_result_file(doc: dict, declared: Declared) -> None:
    """Schema check for a full result file (what ``compare`` reads)."""
    if doc.get("schema") != RESULT_SCHEMA:
        raise BenchError(f"result file schema {doc.get('schema')!r}, expected {RESULT_SCHEMA}")
    for key in ("claim", "machine", "per_layer", "probes", "workloads"):
        if key not in doc:
            raise BenchError(f"result file has no {key!r}")
    check_reported(declared.layer_scope(of_workload=False), doc["per_layer"])
    for name, row in [("probes", doc["probes"]), *doc["workloads"].items()]:
        for key in ("attempted", "failed"):
            if not isinstance(row.get(key), int):
                raise BenchError(f"{name!r} has no whole-number {key!r}")
    for name, row in doc["workloads"].items():
        if name not in declared.workloads:
            raise BenchError(f"result file names an undeclared workload {name!r}")
        for section, metrics in (("end_to_end", declared.end_to_end),
                                 ("per_layer", declared.layer_scope(of_workload=True))):
            if section not in row:
                raise BenchError(f"workload {name!r} has no {section!r}")
            check_reported(metrics, row[section])
