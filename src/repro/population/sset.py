"""Strategy Sets: groups of agents sharing one strategy (paper §IV-D).

The :class:`StrategySet` object is the paper's SSet narrative made concrete:
it knows its id, its current strategy, its agents, and — through an
:class:`~repro.population.schedule.OpponentSchedule` — which opponents each
agent handles.  Playing a generation produces the SSet's *relative fitness*,
the quantity the Nature Agent compares during pairwise learning.

The high-throughput drivers operate on deduplicated matrices instead of
objects (see :mod:`repro.population.population`); this class is the
object-level API used by the parallel worker loop, by examples, and by the
agents-per-processor accounting of Table VIII.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PopulationError
from repro.game.vector_engine import VectorEngine
from repro.population.schedule import OpponentSchedule

__all__ = ["StrategySet", "AgentGameReport"]


@dataclass(frozen=True)
class AgentGameReport:
    """Games one agent played this generation and the fitness it earned."""

    agent: int
    opponents: np.ndarray
    fitness: float


class StrategySet:
    """One SSet: an id, a strategy, and a team of agents.

    Parameters
    ----------
    sset_id:
        This SSet's index in the population.
    schedule:
        The population-wide opponent schedule.
    """

    def __init__(self, sset_id: int, schedule: OpponentSchedule) -> None:
        if not 0 <= sset_id < schedule.n_ssets:
            raise PopulationError(
                f"sset_id {sset_id} out of range [0, {schedule.n_ssets})"
            )
        self.sset_id = int(sset_id)
        self.schedule = schedule
        self.last_fitness: float | None = None

    @property
    def n_agents(self) -> int:
        """Agents in this SSet."""
        return self.schedule.agents_per_sset

    def opponents(self) -> np.ndarray:
        """All opponent SSet ids this SSet plays each generation."""
        return self.schedule.opponents_of(self.sset_id)

    def agent_opponents(self, agent: int) -> np.ndarray:
        """The opponents handled by one of this SSet's agents."""
        return self.schedule.agent_opponents(self.sset_id, agent)

    # -- game play -------------------------------------------------------------

    def play_generation(
        self,
        engine: VectorEngine,
        assignment: np.ndarray,
        tables: np.ndarray,
        rng: np.random.Generator | None = None,
        per_agent: bool = False,
    ) -> float | tuple[float, list[AgentGameReport]]:
        """Play this SSet's games for one generation and return its fitness.

        Parameters
        ----------
        engine:
            The vectorised IPD engine (carries payoffs, rounds, noise).
        assignment:
            Population-wide SSet -> strategy-slot mapping.
        tables:
            The slot-table matrix the assignment indexes into.
        rng:
            Randomness for mixed/noisy play.  Opponents are played in the
            schedule's order (ascending, self-play last) in a single batch,
            so a stream keyed by ``(generation, sset)`` reproduces the serial
            evaluator exactly.
        per_agent:
            Also return each agent's :class:`AgentGameReport`.

        Notes
        -----
        Fitness is the sum of this SSet's agents' payoffs over all games —
        the paper's ``relative_fitness`` that SSets return to the Nature
        Agent on request.
        """
        opponents = self.opponents()
        my_slot = int(assignment[self.sset_id])
        ia = np.full(opponents.size, my_slot, dtype=np.intp)
        ib = np.asarray(assignment, dtype=np.intp)[opponents]
        result = engine.play(tables, ia, ib, rng=rng)
        fitness = float(result.fitness_a.sum())
        self.last_fitness = fitness
        if not per_agent:
            return fitness
        reports = []
        for agent in range(self.n_agents):
            lo, hi = self.schedule._chunk_bounds(agent)
            reports.append(
                AgentGameReport(
                    agent=agent,
                    opponents=opponents[lo:hi],
                    fitness=float(result.fitness_a[lo:hi].sum()),
                )
            )
        return fitness, reports

    def __repr__(self) -> str:
        return (
            f"StrategySet(id={self.sset_id}, agents={self.n_agents},"
            f" last_fitness={self.last_fitness})"
        )
