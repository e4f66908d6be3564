"""The population process: one loop, serial or on the Nature rank.

:class:`EvolutionDriver` runs the paper's population dynamics: per
generation the Nature Agent decides on a pairwise comparison (fitnesses
evaluated on demand) and a mutation, and the population updates.
:meth:`EvolutionDriver.draft` is the one loop that does it, and the one
caller of :meth:`~repro.population.nature.NatureAgent.decide_adoption`: the
serial driver steps through it, and the parallel runner's Nature rank
(:mod:`repro.parallel.runner`) holds a driver and drafts each window with
it, so the two runs are one trajectory by construction.

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
from repro.obs.tracer import NULL_TRACER
from repro.population.fitness import FitnessEvaluator
from repro.population.nature import MutationSelection, NatureAgent
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
        #: Where :meth:`draft` records its ``pc_step`` spans (the Nature
        #: rank sets its world's tracer).
        self.tracer = NULL_TRACER

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

    def draft(self, upto: int, events: list | None = None, turn=None) -> None:
        """Draw and apply everything through generation ``upto``.

        Each event is applied as it is decided and, when ``events`` is
        given, appended to it as ``(generation, event)``: an
        :class:`~repro.population.nature.AdoptionDecision` per pairwise
        comparison and a :class:`~repro.population.nature.MutationSelection`
        per mutation, in draw order — the news a star frame carries.  A PC's
        fitness is a function of the population, the generation and the
        SSet, so it is decided on the way, in a ``pc_step`` span of
        :attr:`tracer`; ``turn()`` is taken before each one.
        """
        pop, nature = self.population, self.nature
        while True:
            drawn, pc = nature.advance(pop.random_strategy_table, upto)
            for _, mutation in drawn:
                pop.set_strategy(mutation.sset, mutation.table)
            if events is not None:
                events.extend(drawn)
            if pc is None:
                return
            if turn is not None:
                turn()
            gen, selection = pc
            with self.tracer.span("pc_step", rank=0, args={"gen": gen}):
                pi_t, pi_l = self.evaluator.fitness([selection.teacher, selection.learner], gen)
                decision = nature.decide_adoption(selection, pi_t, pi_l)
                if decision.adopted:
                    pop.adopt(decision.learner, decision.teacher)
                if events is not None:
                    events.append((gen, decision))

    def step(self) -> GenerationRecord:
        """Advance exactly one generation and return its record."""
        pop, events = self.population, []
        before = pop.version  # bumps exactly when an event changes the assignment
        self.draft(self.generation + 1, events)
        news = {isinstance(event, MutationSelection): event for _, event in events}
        record = GenerationRecord(
            self.generation, news.get(False), news.get(True), pop.n_unique, pop.version != before
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
        if self.observers:
            for _ in range(todo):
                self.step()
        else:  # nobody watches a generation: draft them all in one pass
            self.draft(self.generation + todo)
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
