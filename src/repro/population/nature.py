"""The Nature Agent: pairwise-comparison learning and mutation (paper §IV-E).

The Nature Agent is the master of the population dynamics.  Each generation
it decides — from its own random stream — whether a pairwise comparison
happens (rate ``pc_rate``), which two SSets take the teacher and learner
roles, whether the learner adopts (Fermi probability on the fitness gap),
and whether a random mutation replaces some SSet's strategy (rate ``mu``).

Draw-order contract
-------------------
All decisions come from the single ``("nature",)`` stream in a fixed order
per generation::

    pc_uniform,
    [teacher, learner (redrawn until distinct), adoption_uniform]   if PC fires,
    mutation_uniform,
    [sset, strategy_table]                                          if mutation fires.

One method executes this order — :meth:`NatureAgent.advance` — and the serial
driver and the star (every parallel run's one rank program) both draw
through it, which is what makes their population trajectories bit-identical
(the integration tests assert it).  Only ``adoption_uniform`` needs a
fitness; the draws between two adoption decisions depend on nothing outside
the stream, so a caller may take a whole window of generations in one call.

The paper's pseudocode gates adoption on ``fitness_teacher >
fitness_learner`` before applying the Fermi probability; the Traulsen et al.
convention it cites applies the Fermi probability unconditionally.  Both are
implemented, selected by ``config.pc_rule``.  (The pseudocode's ``rand > p``
/ ``rand > mu`` comparisons are read as the obvious ``<`` typos — taken
literally a *higher* Fermi probability would mean *less* learning.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.population.fermi import fermi_probability
from repro.rng import StreamFactory

__all__ = ["NatureAgent", "PCSelection", "AdoptionDecision", "MutationSelection"]


@dataclass(frozen=True)
class PCSelection:
    """A pairwise-comparison event: which SSets play teacher and learner."""

    teacher: int
    learner: int


@dataclass(frozen=True, slots=True)
class AdoptionDecision:
    """Outcome of a pairwise comparison after fitnesses were gathered."""

    teacher: int
    learner: int
    pi_teacher: float
    pi_learner: float
    probability: float
    adopted: bool

    def __reduce__(self):  # values only: the slotted default lists the fields per object
        return AdoptionDecision, (self.teacher, self.learner, self.pi_teacher,
                                  self.pi_learner, self.probability, self.adopted)


@dataclass(frozen=True, slots=True)
class MutationSelection:
    """A mutation event: which SSet receives which new strategy table."""

    sset: int
    table: np.ndarray

    def __reduce__(self):
        # Raw bytes: an ndarray's own pickle costs more than the table it carries.
        return _mutation_selection, (self.sset, self.table.tobytes(), self.table.dtype.str)


def _mutation_selection(sset: int, raw: bytes, dtype: str) -> MutationSelection:
    # Unpickles a MutationSelection; its table is a read-only 1-D view of ``raw``.
    return MutationSelection(sset, np.frombuffer(raw, dtype))


class NatureAgent:
    """Implements the paper's Nature Agent decision process.

    Parameters
    ----------
    config:
        Simulation parameters (pc_rate, mutation_rate, beta, pc_rule).
    streams:
        Stream factory; the agent consumes the ``("nature",)`` stream.
    """

    def __init__(self, config: SimulationConfig, streams: StreamFactory) -> None:
        self.config = config
        self._rng = streams.stream("nature")
        self.n_pc_events = 0
        self.n_adoptions = 0
        self.n_mutations = 0
        #: Last generation whose mutation draw has been made (a resumed run
        #: sets it to the checkpoint's generation).
        self.closed = 0
        #: What generation ``closed + 1`` still owes the stream once its PC
        #: fired: ``"adoption"`` (undecided), then ``"mutation"``; else None.
        self._owes: str | None = None

    @property
    def rng_state(self) -> dict:
        """Position of the ``("nature",)`` stream: with the counters and
        :attr:`closed`, a run's whole resumable cursor."""
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    def advance(
        self, draw_table, upto: int
    ) -> tuple[list[tuple[int, MutationSelection]], tuple[int, PCSelection] | None]:
        """Draw everything up to the next adoption decision, or through ``upto``.

        From where the agent stands — a generation boundary, or just after
        :meth:`decide_adoption` — draw the mutation closing the decided
        generation, then per generation the PC uniform and either that
        generation's mutation (no PC) or the teacher/learner pair, stopping
        there (the next draw needs fitnesses) or once generation ``upto`` is
        closed.  Returns the mutations that fired as ``(generation, selection)``
        in order, and ``(generation, selection)`` of the PC waiting for
        :meth:`decide_adoption`, or None.
        """
        if self._owes == "adoption":
            raise PopulationError(
                f"generation {self.closed + 1}'s pairwise comparison is undecided:"
                " call decide_adoption before advancing"
            )
        mutations = []
        while self._owes or self.closed < upto:
            if not self._owes:
                selection = self.select_pc()
                if selection is not None:
                    self._owes = "adoption"
                    return mutations, (self.closed + 1, selection)
            self._owes = None
            mutation = self.select_mutation(draw_table)
            self.closed += 1
            if mutation is not None:
                mutations.append((self.closed, mutation))
        return mutations, None

    # -- the three decision steps, in the order advance() takes them ---------------

    def select_pc(self) -> PCSelection | None:
        """Step 1: does a pairwise comparison fire, and between whom?"""
        if self._rng.random() >= self.config.pc_rate:
            return None
        n = self.config.n_ssets
        teacher = int(self._rng.integers(0, n))
        learner = int(self._rng.integers(0, n))
        while learner == teacher:
            learner = int(self._rng.integers(0, n))
        self.n_pc_events += 1
        return PCSelection(teacher=teacher, learner=learner)

    def decide_adoption(
        self, selection: PCSelection, pi_teacher: float, pi_learner: float
    ) -> AdoptionDecision:
        """Step 2: given both fitnesses, does the learner adopt?

        Under ``pc_rule="paper"`` the Fermi draw only happens when the
        teacher's fitness is strictly higher; under ``pc_rule="fermi"`` it is
        unconditional.  Either way exactly one uniform is consumed when the
        rule reaches the draw, keeping the stream order deterministic.
        """
        p = fermi_probability(pi_teacher, pi_learner, self.config.beta)
        if self.config.pc_rule == "paper" and not pi_teacher > pi_learner:
            adopted = False
            probability = 0.0
        else:
            probability = p
            adopted = bool(self._rng.random() < p)
        if adopted:
            self.n_adoptions += 1
        if self._owes == "adoption":
            self._owes = "mutation"
        return AdoptionDecision(
            teacher=selection.teacher,
            learner=selection.learner,
            pi_teacher=float(pi_teacher),
            pi_learner=float(pi_learner),
            probability=probability,
            adopted=adopted,
        )

    def select_mutation(self, draw_table) -> MutationSelection | None:
        """Step 3: does a mutation fire, and what does it install?

        Parameters
        ----------
        draw_table:
            Callable ``rng -> table`` producing a random strategy table of
            the population's kind; usually
            :meth:`repro.population.population.Population.random_strategy_table`.
        """
        if self._rng.random() >= self.config.mutation_rate:
            return None
        sset = int(self._rng.integers(0, self.config.n_ssets))
        table = draw_table(self._rng)
        table = np.asarray(table)
        if table.shape != (self.config.space.n_states,):
            raise PopulationError(
                f"mutation table has shape {table.shape},"
                f" expected ({self.config.space.n_states},)"
            )
        self.n_mutations += 1
        return MutationSelection(sset=sset, table=table)

    def __repr__(self) -> str:
        return (
            f"NatureAgent(pc_events={self.n_pc_events}, adoptions={self.n_adoptions},"
            f" mutations={self.n_mutations})"
        )
