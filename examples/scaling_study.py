#!/usr/bin/env python
"""The large-scale scaling studies (paper Figs. 6-7, Table VII, §VI-D).

Walks the three performance-model tiers:

1. a *real* parallel execution on the virtual MPI runtime (small scale),
   checked bit-identical against the serial driver;
2. the discrete-event timeline replay at mid scale;
3. the closed-form analytic model at the paper's full 262,144-processor
   scale, regenerating the published weak- and strong-scaling curves.

Run:  python examples/scaling_study.py
"""

import time

import numpy as np

from repro.config import SimulationConfig
from repro.experiments.large_scale import (
    run_fig6_weak_scaling,
    run_fig7_strong_scaling,
    run_nonpow2_discussion,
)
from repro.experiments.population_scaling import run_table7
from repro.machine import bluegene_l
from repro.parallel.runner import ParallelSimulation
from repro.perf import GenerationTimelineSimulator, WorkloadSpec, paper_bgl
from repro.perf.analytic import AnalyticModel
from repro.population.dynamics import EvolutionDriver


def tier1_real_execution() -> None:
    print("tier 1 - real virtual-MPI execution (16 ranks, 12 SSets, 150 gens, eager games)")
    cfg = SimulationConfig(memory=1, n_ssets=12, generations=150, seed=42)
    start = time.perf_counter()
    par = ParallelSimulation(cfg, n_ranks=16, eager_games=True).run()
    elapsed = time.perf_counter() - start
    serial = EvolutionDriver(cfg).run()
    identical = np.array_equal(par.matrix, serial.population.matrix())
    print(f"  ran in {elapsed:.2f}s, trajectory bit-identical to serial: {identical}")
    sends = par.counters["send"]
    print(f"  virtual network traffic: {sends.messages} messages, {sends.bytes} bytes\n")


def tier2_des_replay() -> None:
    print("tier 2 - discrete-event timeline replay vs closed form (1,024 ranks)")
    workload = WorkloadSpec.paper_memory_study(3)
    sim = GenerationTimelineSimulator(bluegene_l(), paper_bgl())
    des = sim.run(workload, 1024, generations=25)
    analytic = AnalyticModel(bluegene_l(), paper_bgl()).predict(workload, 1024)
    print(f"  DES per-generation makespan: {des.seconds_per_generation * 1e3:.3f} ms")
    print(f"  closed-form prediction:      {analytic.generation.total * 1e3:.3f} ms\n")


def tier3_paper_scale() -> None:
    print("tier 3 - analytic model at paper scale\n")
    print(run_table7().render_table7())
    print()
    print(run_fig6_weak_scaling().render())
    print()
    print(run_fig7_strong_scaling().render())
    print()
    result, drop = run_nonpow2_discussion()
    print(result.render())
    print(f"  modelled efficiency drop at 294,912 procs: {drop:.1%} (paper: ~15%)")


if __name__ == "__main__":
    tier1_real_execution()
    tier2_des_replay()
    tier3_paper_scale()
