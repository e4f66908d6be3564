"""Serial evolution driver.

:class:`EvolutionDriver` runs the paper's population dynamics in a single
process: per generation the Nature Agent decides on a pairwise comparison
(fitnesses evaluated on demand) and a mutation, the population updates, and
observers are notified.  This is the reference implementation the parallel
runner (:mod:`repro.parallel.runner`) must match trajectory-for-trajectory.

Note on faithfulness: the paper's SSets replay every game every generation
even when no pairwise comparison fires, because on Blue Gene compute is free
relative to communication.  The trajectory only ever consumes fitness at PC
events, so we evaluate lazily — identical dynamics, far less work.  The
performance model (:mod:`repro.perf`) accounts for the paper's
all-games-every-generation cost when reproducing the scaling studies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.population.fitness import FitnessEvaluator
from repro.population.nature import NatureAgent
from repro.population.observers import GenerationRecord, Observer
from repro.population.population import Population
from repro.rng import StreamFactory

__all__ = ["EvolutionDriver", "RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Summary of a finished (or paused) run.

    Attributes
    ----------
    population:
        The population in its final state.
    generation:
        Generations completed so far.
    n_pc_events, n_adoptions, n_mutations:
        Nature Agent counters.
    elapsed_seconds:
        Wall-clock time spent inside :meth:`EvolutionDriver.run`.
    """

    population: Population
    generation: int
    n_pc_events: int
    n_adoptions: int
    n_mutations: int
    elapsed_seconds: float


class EvolutionDriver:
    """Runs the full model — game dynamics plus population dynamics — serially.

    Parameters
    ----------
    config:
        Simulation parameters.
    population:
        Starting population; defaults to the random initial population drawn
        from the ``("init",)`` stream of ``config.seed``.
    observers:
        Objects with an ``on_generation(record, population)`` method.

    Examples
    --------
    >>> from repro.config import SimulationConfig
    >>> driver = EvolutionDriver(SimulationConfig(n_ssets=16, generations=50, seed=3))
    >>> result = driver.run()
    >>> result.generation
    50
    """

    def __init__(
        self,
        config: SimulationConfig,
        population: Population | None = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        self.config = config
        self.streams = StreamFactory(config.seed)
        if population is None:
            population = Population.random(config, self.streams.fresh("init"))
        elif population.config != config:
            raise PopulationError("population was built for a different configuration")
        self.population = population
        self.nature = NatureAgent(config, self.streams)
        self.evaluator = FitnessEvaluator(config, population, self.streams)
        self.observers = list(observers)

    @property
    def generation(self) -> int:
        """Generations completed so far: where the Nature Agent stands."""
        return self.nature.closed

    @generation.setter
    def generation(self, value: int) -> None:
        self.nature.closed = int(value)

    def add_observer(self, observer: Observer) -> None:
        """Attach another observer (takes effect from the next generation)."""
        self.observers.append(observer)

    # -- stepping --------------------------------------------------------------

    def step(self) -> GenerationRecord:
        """Advance exactly one generation and return its record."""
        pop = self.population
        gen = self.generation + 1
        changed = False

        decision = None
        mutations, pc = self.nature.advance(pop.random_strategy_table, gen)
        if pc is not None:
            selection = pc[1]
            pi_t, pi_l = self.evaluator.fitness(
                [selection.teacher, selection.learner], generation=gen
            )
            decision = self.nature.decide_adoption(selection, pi_t, pi_l)
            if decision.adopted:
                changed |= pop.adopt(decision.learner, decision.teacher)
            mutations, _ = self.nature.advance(pop.random_strategy_table, gen)

        mutation = mutations[0][1] if mutations else None
        if mutation is not None:
            before = pop.version
            pop.set_strategy(mutation.sset, mutation.table)
            changed |= pop.version != before

        record = GenerationRecord(
            generation=gen,
            pc=decision,
            mutation=mutation,
            n_unique=pop.n_unique,
            changed=changed,
        )
        for obs in self.observers:
            obs.on_generation(record, pop)
        return record

    def run(self, generations: int | None = None) -> RunResult:
        """Run ``generations`` more generations (default: the config's total).

        Returns a :class:`RunResult`; call again to continue the same
        trajectory (all random streams keep their positions).
        """
        todo = self.config.generations if generations is None else int(generations)
        if todo < 0:
            raise PopulationError(f"generations must be non-negative, got {todo}")
        start = time.perf_counter()
        for _ in range(todo):
            self.step()
        elapsed = time.perf_counter() - start
        return RunResult(
            population=self.population,
            generation=self.generation,
            n_pc_events=self.nature.n_pc_events,
            n_adoptions=self.nature.n_adoptions,
            n_mutations=self.nature.n_mutations,
            elapsed_seconds=elapsed,
        )

    def __repr__(self) -> str:
        return (
            f"EvolutionDriver(generation={self.generation}/{self.config.generations},"
            f" population={self.population!r})"
        )
