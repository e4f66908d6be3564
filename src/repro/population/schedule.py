"""Opponent assignment within an SSet (paper §IV-A, §V-A).

Every generation each SSet must play every opponent strategy in the
population.  The paper splits that work over the SSet's agents: with *s*
SSets and *a* agents per SSet, "each agent is assigned s/a opposing SSets to
play against", and each agent works out its share purely from its own index
— no communication ("we are able to leverage the system size and processor
rank data to allow each node to calculate its position within an SSet and
its subsequent opponent strategies individually").

:class:`OpponentSchedule` reproduces that arithmetic: opponents are listed
in ascending SSet order (the SSet itself last, when it plays itself) and
dealt to agents in balanced contiguous chunks (sizes differing by at most
one).  The schedule is pure arithmetic — any rank, given only
``(n_ssets, agents_per_sset, include_self)``, computes the same assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleError

__all__ = ["OpponentSchedule", "opponent_rows"]


def opponent_rows(n_ssets: int, ssets: np.ndarray, include_self: bool) -> np.ndarray:
    """Row ``i``: the opponents of ``ssets[i]``, in the order their games are played.

    Every other SSet in ascending order, then (``include_self``) the SSet
    itself, last.  The order decides which game gets which draws of a
    slate's stream, so every place that plays a slate — the fitness
    evaluator, the eager workers, :class:`OpponentSchedule` — builds it here.
    """
    own = np.asarray(ssets, dtype=np.intp).reshape(-1, 1)
    others = np.arange(n_ssets - 1, dtype=np.intp)
    rows = others + (others >= own)
    return np.hstack([rows, own]) if include_self else rows


@dataclass(frozen=True)
class OpponentSchedule:
    """Deterministic agent-to-opponent assignment for every SSet.

    Parameters
    ----------
    n_ssets:
        Number of SSets *s* in the population.
    agents_per_sset:
        Number of agents *a* in each SSet (the paper's default is *s*).
    include_self:
        Whether an SSet's own strategy appears among its opponents.
    """

    n_ssets: int
    agents_per_sset: int
    include_self: bool = False

    def __post_init__(self) -> None:
        if self.n_ssets < 1:
            raise ScheduleError(f"n_ssets must be >= 1, got {self.n_ssets}")
        if self.agents_per_sset < 1:
            raise ScheduleError(f"agents_per_sset must be >= 1, got {self.agents_per_sset}")

    # -- opponents ------------------------------------------------------------

    @property
    def opponents_per_sset(self) -> int:
        """Number of opponent strategies each SSet faces per generation."""
        return self.n_ssets if self.include_self else self.n_ssets - 1

    def opponents_of(self, sset: int) -> np.ndarray:
        """All opponent SSet ids for ``sset``: ascending, ``sset`` itself (if played) last."""
        self._check_sset(sset)
        return opponent_rows(self.n_ssets, [sset], self.include_self)[0]

    # -- agent chunks ------------------------------------------------------------

    def _chunk_bounds(self, agent: int) -> tuple[int, int]:
        """Half-open slice of the opponent list handled by ``agent``."""
        m = self.opponents_per_sset
        a = self.agents_per_sset
        base, extra = divmod(m, a)
        if agent < extra:
            start = agent * (base + 1)
            return start, start + base + 1
        start = extra * (base + 1) + (agent - extra) * base
        return start, start + base

    def agent_opponents(self, sset: int, agent: int) -> np.ndarray:
        """Opponent SSet ids played by agent ``agent`` of SSet ``sset``.

        Agents beyond the opponent count receive empty assignments (they sit
        idle that generation, exactly as spare agents do in the paper).
        """
        self._check_agent(agent)
        lo, hi = self._chunk_bounds(agent)
        return self.opponents_of(sset)[lo:hi]

    def games_of_agent(self, agent: int) -> int:
        """Number of games agent index ``agent`` plays (same for every SSet)."""
        self._check_agent(agent)
        lo, hi = self._chunk_bounds(agent)
        return hi - lo

    def agent_for_opponent(self, sset: int, opponent: int) -> int:
        """Which agent of ``sset`` handles the game against ``opponent``."""
        self._check_sset(sset)
        self._check_sset(opponent)
        if not self.include_self and opponent == sset:
            raise ScheduleError(f"SSet {sset} does not play itself in this schedule")
        pos = self.n_ssets - 1 if opponent == sset else opponent - (opponent > sset)
        m = self.opponents_per_sset
        a = self.agents_per_sset
        base, extra = divmod(m, a)
        head = extra * (base + 1)
        if pos < head:
            return pos // (base + 1)
        if base == 0:
            raise ScheduleError("internal: position beyond all non-empty chunks")
        return extra + (pos - head) // base

    @property
    def max_games_per_agent(self) -> int:
        """The paper's ``s/a`` rounded up: the busiest agent's game count."""
        return -(-self.opponents_per_sset // self.agents_per_sset)

    @property
    def total_games_per_sset(self) -> int:
        """Games one SSet's agents play per generation (= opponents)."""
        return self.opponents_per_sset

    @property
    def total_games_per_generation(self) -> int:
        """Directed games across the whole population per generation."""
        return self.n_ssets * self.opponents_per_sset

    # -- validation helpers --------------------------------------------------------

    def _check_sset(self, sset: int) -> None:
        if not 0 <= sset < self.n_ssets:
            raise ScheduleError(f"SSet index {sset} out of range [0, {self.n_ssets})")

    def _check_agent(self, agent: int) -> None:
        if not 0 <= agent < self.agents_per_sset:
            raise ScheduleError(
                f"agent index {agent} out of range [0, {self.agents_per_sset})"
            )

    def validate_cover(self, sset: int) -> None:
        """Assert the agents of ``sset`` cover each opponent exactly once."""
        seen: list[int] = []
        for agent in range(self.agents_per_sset):
            seen.extend(self.agent_opponents(sset, agent).tolist())
        expected = self.opponents_of(sset).tolist()
        if sorted(seen) != sorted(expected):
            raise ScheduleError(f"agents of SSet {sset} do not cover opponents exactly once")
