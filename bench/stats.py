"""Order statistics used by every report (the same rule the acceptance run uses)."""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p`` % at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def summary(values: Sequence[float], n: int | None = None) -> dict:
    """Median, quartiles and the sample count behind them."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values) if n is None else n}


def spread(row: dict) -> float:
    """Quartile distance as a share of the median (0 when the median is 0)."""
    return abs(row["q3"] - row["q1"]) / abs(row["value"]) if row["value"] else 0.0


def time_calls(fn: Callable[[], object], budget_s: float, min_calls: int = 3) -> list[float]:
    """Call ``fn`` until ``budget_s`` is spent (at least ``min_calls`` times); seconds per call.

    The first call is a discarded warm-up so one-off costs (lazy imports,
    first-touch allocation) stay out of the samples.
    """
    fn()
    samples: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples
