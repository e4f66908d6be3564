"""Large-scale Blue Gene/P studies: Figure 6, Figure 7, and the §VI-D
non-power-of-two discussion.

* **Fig. 6 (weak scaling)** — 4,096 SSets per processor from 1,024 up to
  262,144 processors; the paper's runtime "fluctuated by at most 1 second".
* **Fig. 7 (strong scaling)** — a fixed large problem; 99% efficiency
  through 16,384 processors, 82% at 262,144.
* **§VI-D** — the full 294,912-processor machine (72 racks, not a power of
  two) loses ~15% efficiency to rank-mapping quality.

All three run through the analytic model with the Blue Gene/P constants;
the strong-scaling workload's per-rank work is chosen so the modelled
efficiencies land on the published curve (the paper does not state Fig. 7's
problem size — see the workload's docstring and EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import render_table
from repro.machine.bluegene import MachineSpec, bluegene_p
from repro.perf.analytic import AnalyticModel
from repro.perf.cost_model import CostModel, paper_bgp
from repro.perf.scaling import ScalingPoint, strong_scaling, weak_scaling
from repro.perf.workload import WorkloadSpec

__all__ = [
    "LargeScaleResult",
    "run_fig6_weak_scaling",
    "run_fig7_strong_scaling",
    "run_nonpow2_discussion",
    "PAPER_FIG7_EFFICIENCY",
]

#: Processor counts of the large-scale studies (Fig. 7's published points).
PAPER_LARGE_PROCS = (1024, 2048, 8192, 16384, 262144)

#: Published Fig. 7 anchors: "99% linear scaling ... through 16,384" and
#: "82% scaling efficiency exhibited at 262,144 processors".
PAPER_FIG7_EFFICIENCY = {16384: 0.99, 262144: 0.82}


@dataclass(frozen=True)
class LargeScaleResult:
    """A scaling series at Blue Gene/P scale."""

    kind: str
    points: list[ScalingPoint]

    def efficiencies(self) -> dict[int, float]:
        """ranks -> efficiency."""
        return {pt.n_ranks: pt.efficiency for pt in self.points}

    def render(self) -> str:
        """Series table: ranks, modelled time, efficiency."""
        rows = [
            (pt.n_ranks, f"{pt.seconds:.2f}", f"{pt.efficiency:.3f}") for pt in self.points
        ]
        title = {
            "weak": "Fig. 6 - weak scaling, 4,096 SSets per processor (model)",
            "strong": "Fig. 7 - strong scaling for large systems (model)",
            "nonpow2": "Section VI-D - non-power-of-two partition penalty (model)",
        }[self.kind]
        return render_table(["Processors", "Seconds", "Efficiency"], rows, title=title)


def run_fig6_weak_scaling(
    machine: MachineSpec | None = None,
    costs: CostModel | None = None,
    proc_counts: tuple[int, ...] = (1024, 2048, 8192, 16384, 65536, 262144),
    ssets_per_rank: int = 4096,
) -> LargeScaleResult:
    """Fig. 6: constant work per rank; the model's runtime stays flat."""
    model = AnalyticModel(machine or bluegene_p(), costs or paper_bgp())
    points = weak_scaling(
        model,
        lambda p: WorkloadSpec.paper_weak_scaling(p, ssets_per_rank=ssets_per_rank),
        list(proc_counts),
    )
    return LargeScaleResult(kind="weak", points=points)


def run_fig7_strong_scaling(
    machine: MachineSpec | None = None,
    costs: CostModel | None = None,
    proc_counts: tuple[int, ...] = PAPER_LARGE_PROCS,
) -> LargeScaleResult:
    """Fig. 7: fixed problem; efficiency knee at very large rank counts."""
    model = AnalyticModel(machine or bluegene_p(), costs or paper_bgp())
    workload = WorkloadSpec.paper_strong_scaling_large()
    points = strong_scaling(model, workload, list(proc_counts))
    return LargeScaleResult(kind="strong", points=points)


def run_nonpow2_discussion(
    machine: MachineSpec | None = None,
    costs: CostModel | None = None,
) -> tuple[LargeScaleResult, float]:
    """§VI-D: 262,144 (power of two) vs 294,912 (72 racks) processors.

    Returns the two-point series and the modelled efficiency drop between
    them (the paper observed ~15%).
    """
    model = AnalyticModel(machine or bluegene_p(), costs or paper_bgp())
    workload = WorkloadSpec.paper_strong_scaling_large()
    points = strong_scaling(model, workload, [1024, 262144, 294912])
    eff = {pt.n_ranks: pt.efficiency for pt in points}
    drop = 1.0 - eff[294912] / eff[262144]
    return LargeScaleResult(kind="nonpow2", points=points), drop
