"""Command-line entry point: ``repro-experiment``.

``repro-experiment list`` shows every registered paper artefact;
``repro-experiment run <id>`` regenerates one and prints it.  The heavier
science run (fig2) takes flags for scale, so the full paper-sized study is
one command away from the scaled default.

Dispatch is a table keyed by experiment id (:data:`DISPATCH`) kept in
lock-step with the registry — the drift test asserts the two sets are
equal, so registering an experiment without teaching the CLI about it (or
vice versa) fails fast instead of surfacing as a runtime ``KeyError``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.analysis.report import render_table
from repro.experiments.registry import EXPERIMENTS

# DISPATCH and SLOW_EXPERIMENTS stay importable but out of __all__: their
# reprs (function addresses, set ordering) would make docs/api.md unstable.
__all__ = [
    "main",
    "build_parser",
    "CONFIG_FLAG_EXPERIMENTS",
]

#: Experiments that take minutes; ``all`` skips them unless --include-slow.
SLOW_EXPERIMENTS = {"fig2", "memory-cooperation", "ablation-lookup", "wsls-robustness"}

#: Experiments that actually consume the ``run`` scale flags
#: (--n-ssets/--generations/--seed).  Passing those flags to any
#: other experiment is an error, not a silent no-op.
CONFIG_FLAG_EXPERIMENTS = {"fig2"}

#: The ``run`` scale flags, as (argparse dest, flag spelling).
_SCALE_FLAGS = (
    ("n_ssets", "--n-ssets"),
    ("generations", "--generations"),
    ("seed", "--seed"),
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate the tables and figures of the SC 2012 paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered experiments")

    run = sub.add_parser("run", help="run one experiment and print its output")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    run.add_argument("--n-ssets", type=int, default=None, help="population size (fig2)")
    run.add_argument("--generations", type=int, default=None, help="generations (fig2)")
    run.add_argument("--seed", type=int, default=None, help="random seed (fig2)")

    everything = sub.add_parser(
        "all", help="regenerate every fast artefact into a directory"
    )
    everything.add_argument(
        "--output-dir", default="reproduction", help="directory for <id>.txt files"
    )
    everything.add_argument(
        "--include-slow",
        action="store_true",
        help="also run the multi-minute science studies"
        f" ({', '.join(sorted(SLOW_EXPERIMENTS))})",
    )
    return parser


# -- per-experiment runners ----------------------------------------------------
# Each takes the parsed ``run`` namespace and returns the rendered artefact.


def _run_table1(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table1_payoff

    return table1_payoff()


def _run_table2(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table2_states

    return table2_states()[1]


def _run_table3(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table3_strategies

    return table3_strategies()[1]


def _run_table4(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table4_space_sizes

    return table4_space_sizes()[1]


def _run_table5(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table5_wsls

    return table5_wsls()[1]


def _run_table8(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table8_agents

    return table8_agents()[1]


def _run_fig2(args: argparse.Namespace) -> str:
    from repro.experiments.validation_wsls import (
        run_wsls_validation,
        wsls_validation_config,
    )

    overrides = {
        dest: getattr(args, dest)
        for dest, _flag in _SCALE_FLAGS
        if getattr(args, dest, None) is not None
    }
    return run_wsls_validation(wsls_validation_config(**overrides)).render()


def _run_memory_scaling(args: argparse.Namespace) -> str:
    from repro.experiments.memory_scaling import run_table6

    result = run_table6()
    if args.experiment == "table6":
        return result.render_table6()
    if args.experiment == "fig3":
        return result.render_fig3()
    return result.render_fig4()


def _run_population_scaling(args: argparse.Namespace) -> str:
    from repro.experiments.population_scaling import run_table7

    result = run_table7()
    return result.render_table7() if args.experiment == "table7" else result.render_fig5()


def _run_fig6(args: argparse.Namespace) -> str:
    from repro.experiments.large_scale import run_fig6_weak_scaling

    return run_fig6_weak_scaling().render()


def _run_fig7(args: argparse.Namespace) -> str:
    from repro.experiments.large_scale import run_fig7_strong_scaling

    return run_fig7_strong_scaling().render()


def _run_nonpow2(args: argparse.Namespace) -> str:
    from repro.experiments.large_scale import run_nonpow2_discussion

    result, drop = run_nonpow2_discussion()
    return result.render() + (
        f"\nmodelled efficiency drop at 294,912: {drop:.1%} (paper: ~15%)"
    )


def _run_ablation_lookup(args: argparse.Namespace) -> str:
    from repro.experiments.measured import measure_memory_runtime

    return measure_memory_runtime().render()


def _run_heterogeneous(args: argparse.Namespace) -> str:
    from repro.machine.bluegene import bluegene_l
    from repro.perf.cost_model import paper_bgl
    from repro.perf.heterogeneous import GPU_2012, hybrid_speedup_by_memory

    rows = [
        (f"memory-{m}", f"{h:.1f}", f"{y:.1f}", f"{s:.2f}x")
        for m, h, y, s in hybrid_speedup_by_memory(
            bluegene_l(), paper_bgl(), GPU_2012, 128
        )
    ]
    return render_table(
        ["workload @ 128p", "host (s)", "hybrid (s)", "speedup"],
        rows,
        title="Modelled GPU-CPU hybrid (paper future work)",
    )


def _run_memory_cooperation(args: argparse.Namespace) -> str:
    from repro.experiments.memory_cooperation import run_memory_cooperation

    return run_memory_cooperation(seeds=(1, 2, 3)).render()


def _run_wsls_robustness(args: argparse.Namespace) -> str:
    from repro.experiments.sweeps import wsls_robustness_sweep

    return wsls_robustness_sweep().render()


def _run_spatial_phase(args: argparse.Namespace) -> str:
    from repro.experiments.spatial_phase import run_spatial_phase

    return run_spatial_phase().render()


def _run_spatial_noise(args: argparse.Namespace) -> str:
    from repro.experiments.spatial_phase import run_spatial_noise_phase

    return run_spatial_noise_phase().render()


def _run_ablation_mapping(args: argparse.Namespace) -> str:
    from repro.machine.mapping import compare_mappings

    rows = [
        (m.name, f"{m.mean_consecutive_hops:.2f}", m.max_consecutive_hops,
         f"{m.mean_hops_to_nature:.2f}")
        for m in compare_mappings(1152)
    ]
    return render_table(
        ["mapping", "mean hops r->r+1", "max hops r->r+1", "mean hops to Nature"],
        rows,
        title="Rank mappings on a 1,152-node torus (paper future work)",
    )


#: Experiment id -> runner; the drift test asserts this covers exactly the
#: registry, so the CLI can never silently miss (or invent) an experiment.
DISPATCH: dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "table8": _run_table8,
    "fig2": _run_fig2,
    "table6": _run_memory_scaling,
    "fig3": _run_memory_scaling,
    "fig4": _run_memory_scaling,
    "table7": _run_population_scaling,
    "fig5": _run_population_scaling,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "nonpow2": _run_nonpow2,
    "ablation-lookup": _run_ablation_lookup,
    "heterogeneous": _run_heterogeneous,
    "memory-cooperation": _run_memory_cooperation,
    "wsls-robustness": _run_wsls_robustness,
    "ablation-mapping": _run_ablation_mapping,
    "spatial-phase": _run_spatial_phase,
    "spatial-noise": _run_spatial_noise,
}


def _rejected_scale_flags(args: argparse.Namespace) -> list[str]:
    """The scale flags the user passed that this experiment would ignore."""
    if args.experiment in CONFIG_FLAG_EXPERIMENTS:
        return []
    return [
        flag for dest, flag in _SCALE_FLAGS if getattr(args, dest, None) is not None
    ]


def _run_experiment(args: argparse.Namespace) -> str:
    ignored = _rejected_scale_flags(args)
    if ignored:
        consumers = ", ".join(sorted(CONFIG_FLAG_EXPERIMENTS))
        raise SystemExit(
            f"{args.experiment} does not consume {', '.join(ignored)};"
            f" those flags only apply to config-driven experiments ({consumers})"
        )
    runner = DISPATCH.get(args.experiment)
    if runner is None:  # pragma: no cover - argparse choices guard this
        raise SystemExit(f"unknown experiment {args.experiment}")
    return runner(args)


def _run_all(args: argparse.Namespace) -> int:
    from pathlib import Path

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_parser = build_parser()
    failed: list[tuple[str, str]] = []
    for eid in EXPERIMENTS:
        if eid in SLOW_EXPERIMENTS and not args.include_slow:
            print(f"[skip] {eid} (slow; pass --include-slow)")
            continue
        sub_args = run_parser.parse_args(["run", eid])
        try:
            text = _run_experiment(sub_args)
        except Exception as exc:  # noqa: BLE001 - one failure must not stop the rest
            failed.append((eid, f"{type(exc).__name__}: {exc}"))
            print(f"[FAIL] {eid}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        (out_dir / f"{eid}.txt").write_text(text + "\n")
        print(f"[done] {eid} -> {out_dir / (eid + '.txt')}")
    if failed:
        ids = ", ".join(eid for eid, _ in failed)
        print(f"{len(failed)} experiment(s) failed: {ids}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        rows = [
            (e.experiment_id, e.paper_ref, e.mode, e.title) for e in EXPERIMENTS.values()
        ]
        print(render_table(["id", "paper", "mode", "title"], rows))
        return 0
    if args.command == "all":
        return _run_all(args)
    print(_run_experiment(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
