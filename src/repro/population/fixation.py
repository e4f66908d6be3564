"""Nature's fixation probability in closed form.

With ``mutation_rate`` 0 and ``pc_rate`` 1, the Nature Agent's process over
``N`` SSets of a mutant A (``i`` SSets) and a resident B is a birth-death
chain on ``i``.  With the evaluator's accounting (an SSet's fitness sums its
pair payoffs against every other SSet, itself too under
``include_self_play``: ``s = 1``, else 0), and the pair payoffs
:math:`f_{XY}` from the Markov evaluator,

.. math::

    \\pi_A(i) = (i - 1 + s) f_{AA} + (N - i) f_{AB}, \\quad
    \\pi_B(i) = i f_{BA} + (N - i - 1 + s) f_{BB}, \\quad
    \\rho_A = \\Big(1 + \\sum_{k=1}^{N-1} \\prod_{i=1}^{k} T_i^- / T_i^+\\Big)^{-1}.

``config.pc_rule`` decides the ratio.  ``"fermi"``: teacher and learner are
drawn uniformly and are distinct, so
:math:`T_i^-/T_i^+ = e^{-\\beta (\\pi_A(i) - \\pi_B(i))}` (computed in log
space; ``beta = 0`` gives the neutral :math:`1/N`).  ``"paper"`` (the
default): only a strictly fitter teacher is copied, so one of
:math:`T_i^\\pm` is zero at each ``i`` and :math:`\\rho_A` is 1 when
:math:`\\pi_A(i) > \\pi_B(i)` for every ``i`` in ``1..N-1``, 0 otherwise —
a tie at some ``i`` holds the chain there and a sign change traps it
between two counts; either way the mutant never fixes.
``tests/population/test_fixation.py`` holds
:class:`~repro.population.dynamics.EvolutionDriver` to both rules over many
absorbing runs.
"""

from __future__ import annotations

import numpy as np

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.game.markov import expected_pair_payoffs

__all__ = ["pair_payoff_table", "fixation_probability_from_payoffs", "fixation_probability"]


def pair_payoff_table(
    mutant: np.ndarray, resident: np.ndarray, config: SimulationConfig
) -> tuple[float, float, float, float]:
    """Exact pair payoffs ``(f_AA, f_AB, f_BA, f_BB)`` under ``config``."""
    mat = np.vstack(
        [np.asarray(mutant, dtype=np.float64), np.asarray(resident, dtype=np.float64)]
    )
    ia = np.array([0, 0, 1, 1])
    ib = np.array([0, 1, 0, 1])
    ea, _ = expected_pair_payoffs(
        config.space, mat, ia, ib, payoff=config.payoff, rounds=config.rounds, noise=config.noise
    )
    return float(ea[0]), float(ea[1]), float(ea[2]), float(ea[3])


def _fitness_gaps(f_aa, f_ab, f_ba, f_bb, n: int, self_play: bool = False) -> np.ndarray:
    """``pi_A(i) - pi_B(i)`` for mutant counts ``i = 1..n-1``."""
    if n < 2:
        raise PopulationError(f"population size must be >= 2, got {n}")
    i = np.arange(1, n, dtype=np.float64)
    s = 1.0 if self_play else 0.0
    return ((i - 1 + s) * f_aa + (n - i) * f_ab) - (i * f_ba + (n - i - 1 + s) * f_bb)


def _fermi_fixation(gaps: np.ndarray, beta: float) -> float:
    if beta < 0 or not np.isfinite(beta):
        raise PopulationError(f"beta must be finite and non-negative, got {beta}")
    # log of the k-th product is -beta * cumsum of (pi_a - pi_b).
    log_products = -beta * np.cumsum(gaps)
    # rho = 1 / (1 + sum_k exp(log_products[k])), computed stably.
    m = max(0.0, float(log_products.max()))
    denom = np.exp(-m) + np.exp(log_products - m).sum()
    return float(np.exp(-m) / denom)


def fixation_probability_from_payoffs(
    f_aa: float, f_ab: float, f_ba: float, f_bb: float, n: int, beta: float
) -> float:
    """Fermi-rule fixation probability of one A mutant among B's, self-play excluded."""
    return _fermi_fixation(_fitness_gaps(f_aa, f_ab, f_ba, f_bb, n), beta)


def fixation_probability(
    mutant: np.ndarray, resident: np.ndarray, config: SimulationConfig
) -> float:
    """Fixation probability of one ``mutant`` SSet among residents under Nature.

    Combines the exact pair payoffs with the closed form of
    ``config.pc_rule``; ``config`` also gives the population size
    ``n_ssets``, rounds, payoffs, noise, ``beta`` and ``include_self_play``.
    """
    gaps = _fitness_gaps(
        *pair_payoff_table(mutant, resident, config),
        config.n_ssets, config.include_self_play,
    )
    if config.pc_rule == "paper":
        return 1.0 if bool((gaps > 0).all()) else 0.0
    return _fermi_fixation(gaps, config.beta)
