#!/usr/bin/env python
"""Invasion analysis: who can take over whom, exactly.

The paper's framework exists to ask "what strategies win in evolving
populations?"  This example answers it analytically for the classics: for
every ordered pair (mutant, resident) it computes the exact fixation
probability of a single mutant SSet under the Nature Agent's Fermi
pairwise comparison — pair payoffs from the Markov evaluator, fixation from
the closed form — and prints the invasion matrix scaled by the neutral
baseline 1/N (entries > 1 mean selection favours the invasion).  One cell
is cross-checked against Nature itself: the serial driver run from one
mutant to absorption, with no mutation and a comparison every generation.

Run:  python examples/invasion_analysis.py
"""

import numpy as np

from repro.analysis.report import render_table
from repro.analysis.traits import traits_of
from repro.config import SimulationConfig
from repro.game.noise import NoiseModel
from repro.game.strategy import named_strategy
from repro.population.dynamics import EvolutionDriver
from repro.population.fixation import fixation_probability
from repro.population.population import Population

STRATEGIES = ["ALLC", "ALLD", "TFT", "WSLS", "GRIM"]
CONFIG = SimulationConfig(
    memory=1, n_ssets=10, generations=1, seed=0, rounds=200,
    beta=0.01, noise=NoiseModel(0.02), pc_rule="fermi",
)


def invasion_matrix() -> dict[tuple[str, str], float]:
    out = {}
    for mutant in STRATEGIES:
        for resident in STRATEGIES:
            if mutant == resident:
                continue
            rho = fixation_probability(
                named_strategy(mutant).table.astype(float),
                named_strategy(resident).table.astype(float),
                CONFIG,
            )
            out[(mutant, resident)] = rho * CONFIG.n_ssets  # vs neutral 1/N
    return out


def main() -> None:
    n = CONFIG.n_ssets
    print(
        f"Fermi-rule fixation of 1 mutant among {n - 1} residents"
        f" (beta={CONFIG.beta}, 2% errors), relative to neutral 1/N:\n"
    )
    matrix = invasion_matrix()
    rows = []
    for mutant in STRATEGIES:
        row = [mutant]
        for resident in STRATEGIES:
            if mutant == resident:
                row.append("-")
            else:
                row.append(f"{matrix[(mutant, resident)]:.2f}")
        rows.append(tuple(row))
    print(render_table(["mutant \\ resident", *STRATEGIES], rows))

    # Which residents resist every classic invader?
    robust = [
        resident
        for resident in STRATEGIES
        if all(
            matrix[(m, resident)] < 1.0 for m in STRATEGIES if m != resident
        )
    ]
    print(f"\nresists every listed invader (all entries < 1): {robust or 'none'}")
    for name in robust:
        print(f"  {name} traits:", traits_of(named_strategy(name)).as_dict())

    # Cross-check one cell by simulation: Nature on the exact expected payoffs
    # of shorter games, from one mutant until one strategy is left.
    mutant, resident = "ALLD", "ALLC"
    check = CONFIG.with_updates(
        rounds=50, pc_rate=1.0, mutation_rate=0.0, fitness_mode="expected"
    )
    mutant_table = named_strategy(mutant).table.astype(np.uint8)
    resident_table = named_strategy(resident).table.astype(np.uint8)
    analytic = fixation_probability(mutant_table, resident_table, check)
    replicates, fixed = 150, 0
    for seed in range(replicates):
        cfg = check.with_updates(seed=seed)
        rows = np.repeat(resident_table[None, :], n, axis=0)
        rows[0] = mutant_table
        driver = EvolutionDriver(cfg, Population(cfg, rows))
        while driver.population.n_unique > 1:
            driver.step()
        fixed += np.array_equal(driver.population.table_of(0), mutant_table)
    print(
        f"\ncross-check {mutant} -> {resident} (50-round games): analytic rho ="
        f" {analytic:.3f}, Nature ({replicates} runs) = {fixed / replicates:.3f}"
    )


if __name__ == "__main__":
    main()
