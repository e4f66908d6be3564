"""The Fermi pairwise-comparison probability (paper Eq. 1).

The learner adopts the teacher's strategy with probability

.. math:: p = \\frac{1}{1 + e^{-\\beta(\\pi_T - \\pi_L)}}

where :math:`\\pi_T`, :math:`\\pi_L` are the teacher's and learner's
fitnesses and :math:`\\beta` is the intensity of selection: :math:`\\beta
\\to 0` makes adoption a coin flip, :math:`\\beta \\to \\infty` makes the
fitter strategy always win.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

__all__ = ["fermi_probability", "fermi_probability_array"]


def _expit(x: float) -> float:
    """The logistic function ``1 / (1 + e**-x)``, through libm's ``exp``.

    Bit-for-bit ``scipy.special.expit`` (the same expression over the same
    ``exp``; ``np.exp`` rounds ~1 % of arguments differently), without the
    ~28 MiB importing ``scipy.special`` adds to every rank and launcher.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # e**-x is past double range: the limit is 0
        return 0.0


def _check_beta(beta: float) -> None:
    if np.isnan(beta) or beta < 0:
        raise ConfigError(f"beta must be non-negative (inf allowed), got {beta}")


def fermi_probability(pi_teacher: float, pi_learner: float, beta: float) -> float:
    """Adoption probability for scalar payoffs (numerically stable for any β).

    ``beta=inf`` is the deterministic-imitation limit the module docstring
    promises: the fitter strategy always wins (probability 1 when the
    teacher is fitter, 0 when less fit, a fair coin on exact ties —
    the logistic function's own limit, since the exponent is 0 regardless of β).
    """
    _check_beta(beta)
    diff = float(pi_teacher) - float(pi_learner)
    if np.isinf(beta):
        # beta * 0 would be nan; take the limit explicitly.
        return 1.0 if diff > 0 else (0.0 if diff < 0 else 0.5)
    return _expit(beta * diff)


def fermi_probability_array(
    pi_teacher: np.ndarray, pi_learner: np.ndarray, beta: float
) -> np.ndarray:
    """Vectorised :func:`fermi_probability` over payoff arrays."""
    _check_beta(beta)
    diff = np.asarray(pi_teacher, dtype=np.float64) - np.asarray(pi_learner, dtype=np.float64)
    if np.isinf(beta):
        return np.where(diff > 0, 1.0, np.where(diff < 0, 0.0, 0.5))
    return np.array([_expit(x) for x in (beta * diff).ravel().tolist()]).reshape(diff.shape)
