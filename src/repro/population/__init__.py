"""Population dynamics: SSets, the Nature Agent, and the evolution driver.

* :mod:`repro.population.population` — deduplicated strategy assignment.
* :mod:`repro.population.fitness` — the three fitness-evaluation modes.
* :mod:`repro.population.fermi` — the pairwise-comparison probability (Eq. 1).
* :mod:`repro.population.nature` — the Nature Agent's decision process.
* :mod:`repro.population.schedule` — the order an SSet plays its opponents.
* :mod:`repro.population.dynamics` — the population process (serial, and
  Nature's replica on the parallel runner).
* :mod:`repro.population.fixation` — Nature's fixation probability in
  closed form.
* :mod:`repro.population.observers` — per-generation hooks and recorders.
"""

from repro.population.dynamics import EvolutionDriver, RunResult
from repro.population.fermi import fermi_probability, fermi_probability_array
from repro.population.fitness import FitnessEvaluator
from repro.population.fixation import (
    fixation_probability,
    fixation_probability_from_payoffs,
    pair_payoff_table,
)
from repro.population.nature import (
    AdoptionDecision,
    MutationSelection,
    NatureAgent,
    PCSelection,
)
from repro.population.observers import (
    GenerationRecord,
    HistoryObserver,
    SnapshotObserver,
    TrajectoryObserver,
)
from repro.population.population import Population

__all__ = [
    "EvolutionDriver",
    "RunResult",
    "fermi_probability",
    "fermi_probability_array",
    "FitnessEvaluator",
    "fixation_probability",
    "fixation_probability_from_payoffs",
    "pair_payoff_table",
    "NatureAgent",
    "PCSelection",
    "AdoptionDecision",
    "MutationSelection",
    "GenerationRecord",
    "HistoryObserver",
    "SnapshotObserver",
    "TrajectoryObserver",
    "Population",
]
