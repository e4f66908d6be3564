"""Prisoner's Dilemma payoff matrices (paper Table I).

The paper uses ``f[R, S, T, P] = [3, 0, 4, 1]``: mutual cooperation pays the
*Reward* R to both, mutual defection the *Punishment* P, and a mixed round
pays the *Temptation* T to the defector and the *Sucker's payoff* S to the
cooperator.  A payoff matrix is a Prisoner's Dilemma when ``T > R > P > S``;
the classic *iterated* PD additionally wants ``2R > T + S`` so that mutual
cooperation beats alternating exploitation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PayoffError

__all__ = ["PayoffMatrix", "PAPER_PAYOFFS", "AXELROD_PAYOFFS", "DONATION_GAME"]


@dataclass(frozen=True)
class PayoffMatrix:
    """Two-player symmetric PD payoffs.

    Parameters
    ----------
    reward, sucker, temptation, punishment:
        The R, S, T, P values in the paper's ``f[R,S,T,P]`` order.
    require_dilemma:
        When true (default), reject matrices violating ``T > R > P > S``.
    require_iterated:
        When true, additionally require ``2R > T + S``.  The paper's values
        satisfy it; it is optional so users can explore degenerate games.

    Attributes
    ----------
    table:
        ``table[my_move, opp_move]`` is *my* payoff for that round, with the
        0=C / 1=D encoding: ``table = [[R, S], [T, P]]``.
    """

    reward: float = 3.0
    sucker: float = 0.0
    temptation: float = 4.0
    punishment: float = 1.0
    require_dilemma: bool = True
    require_iterated: bool = False
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r, s, t, p = (
            float(self.reward),
            float(self.sucker),
            float(self.temptation),
            float(self.punishment),
        )
        if not all(np.isfinite(v) for v in (r, s, t, p)):
            raise PayoffError(f"payoffs must be finite, got R={r} S={s} T={t} P={p}")
        if self.require_dilemma and not (t > r > p > s):
            raise PayoffError(
                f"not a Prisoner's Dilemma: need T > R > P > S, got T={t} R={r} P={p} S={s}"
            )
        if self.require_iterated and not (2 * r > t + s):
            raise PayoffError(f"iterated-PD condition 2R > T+S violated: 2*{r} <= {t}+{s}")
        tab = np.array([[r, s], [t, p]], dtype=np.float64)
        tab.setflags(write=False)
        object.__setattr__(self, "table", tab)

    def payoff(self, my_move: int, opp_move: int) -> float:
        """My payoff for one round given both (0=C / 1=D) moves."""
        return float(self.table[int(my_move), int(opp_move)])

    def as_fRSTP(self) -> tuple[float, float, float, float]:
        """Return ``(R, S, T, P)`` in the paper's order."""
        return (self.reward, self.sucker, self.temptation, self.punishment)

    def render(self) -> str:
        """Render the 2x2 matrix like the paper's Table I."""
        r, s, t, p = self.as_fRSTP()
        lines = [
            "            Opponent",
            "Agent       C          D",
            f"C       R={r:g},R={r:g}   S={s:g},T={t:g}",
            f"D       T={t:g},S={s:g}   P={p:g},P={p:g}",
        ]
        return "\n".join(lines)


#: The payoff values used throughout the paper: f[R,S,T,P] = [3, 0, 4, 1].
PAPER_PAYOFFS = PayoffMatrix(reward=3, sucker=0, temptation=4, punishment=1)

#: Axelrod's tournament values, f[R,S,T,P] = [3, 0, 5, 1].
AXELROD_PAYOFFS = PayoffMatrix(reward=3, sucker=0, temptation=5, punishment=1)


def DONATION_GAME(benefit: float = 2.0, cost: float = 1.0) -> PayoffMatrix:
    """The donation game: cooperation pays ``cost`` to give the opponent ``benefit``.

    Requires ``benefit > cost > 0``; yields R=b-c, S=-c, T=b, P=0.
    """
    if not benefit > cost > 0:
        raise PayoffError(f"donation game needs benefit > cost > 0, got b={benefit} c={cost}")
    return PayoffMatrix(
        reward=benefit - cost, sucker=-cost, temptation=benefit, punishment=0.0
    )
