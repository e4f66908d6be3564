"""The paper's validation study (Fig. 2): emergence of Win-Stay Lose-Shift.

The paper evolves 5,000 SSets of probabilistic memory-one strategies for
10^7 generations (PC rate 0.1, μ = 0.05) on 2,048 Blue Gene/L processors
and finds 85% of SSets adopt [0101] — WSLS in its Table V state order —
reproducing Nowak & Sigmund's classic result [11].

This driver runs the same experiment scaled to a workstation: fewer SSets,
fewer generations, and (following the original WSLS study this validates)
mutants drawn from a corner-concentrated U-shaped distribution with a small
execution-error rate — the two ingredients that make WSLS the robust
attractor.  The defaults finish in about a minute and end WSLS-dominant;
pass bigger numbers to approach the paper's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import dominant_strategy, wsls_fraction
from repro.analysis.snapshots import ClusteredSnapshot, cluster_sorted, render_population
from repro.config import SimulationConfig
from repro.game.noise import NoiseModel
from repro.population.dynamics import EvolutionDriver

__all__ = ["WSLSValidationResult", "run_wsls_validation", "wsls_validation_config"]


@dataclass(frozen=True)
class WSLSValidationResult:
    """Outcome of the scaled Fig. 2 experiment.

    Attributes
    ----------
    initial_matrix, final_matrix:
        The population at generation 0 and at the end (Fig. 2's two panels).
    clustered:
        Final population grouped by Lloyd k-means cluster (panel b layout).
    wsls_fraction:
        Fraction of SSets within tolerance of WSLS (the paper reports 85%).
    dominant:
        The most common (rounded) strategy and its frequency.
    generations:
        Generations evolved.
    config:
        Full configuration of the run.
    """

    initial_matrix: np.ndarray
    final_matrix: np.ndarray
    clustered: ClusteredSnapshot
    wsls_fraction: float
    dominant: tuple[np.ndarray, float]
    generations: int
    config: SimulationConfig

    def render(self, max_rows: int = 24) -> str:
        """Fig. 2 in text: initial and clustered final population panels."""
        from repro.analysis.traits import population_traits

        traits = population_traits(self.final_matrix)
        lines = [
            "Fig. 2(a) - initial population (random mixed strategies):",
            render_population(self.initial_matrix, max_rows=max_rows),
            "",
            "Fig. 2(b) - final population, k-means-clustered rows:",
            render_population(self.clustered.matrix, max_rows=max_rows),
            "",
            f"WSLS fraction: {self.wsls_fraction:.0%} (paper: 85%)",
            f"dominant strategy (defect probs, states CC,CD,DC,DD):"
            f" {np.round(self.dominant[0], 2).tolist()} at {self.dominant[1]:.0%}",
            "WSLS in this encoding is [0, 1, 1, 0] ([0101] in the paper's Table V order).",
            "population traits: "
            + ", ".join(f"{k} {v:.2f}" for k, v in traits.as_dict().items()),
        ]
        return "\n".join(lines)


def wsls_validation_config(
    n_ssets: int = 24,
    generations: int = 150_000,
    seed: int = 2,
    noise_rate: float = 0.02,
    mutation_rate: float = 0.02,
) -> SimulationConfig:
    """The scaled validation configuration.

    Deviations from the paper's §VI-A parameters, and why (details in
    EXPERIMENTS.md):

    * 24 SSets / 1.5e5 generations instead of 5,000 / 1e7 — laptop scale;
      the dynamics are the same, phases are just shorter.
    * mutation rate 0.02 instead of 0.05 — holds the *per-SSet* mutation
      pressure closer to the paper's (its 0.05 is spread over 5,000 SSets).
    * U-shaped mutants and a 2% execution-error rate — the Nowak-Sigmund
      study's conditions [11], which the paper says this experiment mimics.
    """
    return SimulationConfig(
        memory=1,
        n_ssets=n_ssets,
        generations=generations,
        strategy_kind="mixed",
        fitness_mode="expected",
        pc_rate=0.1,
        mutation_rate=mutation_rate,
        mutation_distribution="ushaped",
        beta=0.1,
        noise=NoiseModel(noise_rate),
        seed=seed,
    )


def run_wsls_validation(
    config: SimulationConfig | None = None, k_clusters: int = 6
) -> WSLSValidationResult:
    """Run the scaled Fig. 2 experiment and analyse the final population."""
    cfg = config if config is not None else wsls_validation_config()
    driver = EvolutionDriver(cfg)
    initial = driver.population.matrix()
    driver.run()
    final = driver.population.matrix()
    clustered = cluster_sorted(final, k=min(k_clusters, cfg.n_ssets))
    return WSLSValidationResult(
        initial_matrix=initial,
        final_matrix=final,
        clustered=clustered,
        wsls_fraction=wsls_fraction(final, tolerance=0.2),
        dominant=dominant_strategy(final, decimals=1),
        generations=cfg.generations,
        config=cfg,
    )
