"""Calibrate the cost model from measured engine timings.

The honest way to parameterise the performance model on *this* machine:
time the actual IPD engines — the batch engine every run builds, at the
call size a worker issues, and the paper-faithful linear-search engine —
across memory depths, and fit the
:class:`~repro.perf.cost_model.CostModel` constants from those samples.
The resulting model carries the label ``"measured-python"`` and drives the
self-measured variants of the scaling benches (the paper-fitted presets in
:mod:`repro.perf.cost_model` drive the Blue-Gene-scale reproductions).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import SimulationConfig
from repro.errors import CalibrationError
from repro.game.batch_engine import BatchEngine
from repro.game.lookup_engine import build_states_table, play_ipd_lookup
from repro.game.noise import NoiseModel
from repro.game.states import StateSpace
from repro.game.strategy import Strategy
from repro.perf.cost_model import CostModel

__all__ = ["CalibrationReport", "calibrate", "time_engine_round", "time_lookup_round"]


@dataclass(frozen=True)
class CalibrationReport:
    """Raw samples behind a calibrated cost model.

    Attributes
    ----------
    incremental_round:
        memory -> measured seconds per round per game, incremental engine.
    lookup_round:
        memory -> measured seconds per round per game, linear-search engine.
    model:
        The fitted cost model.
    """

    incremental_round: dict[int, float] = field(default_factory=dict)
    lookup_round: dict[int, float] = field(default_factory=dict)
    model: CostModel | None = None


def time_engine_round(
    memory: int, rounds: int = 200, batch: int = 32 * 63, seed: int = 0
) -> float:
    """Seconds per round per game of the engine the runs build, at the size they call it.

    ``batch`` games among 64 random strategies through
    :class:`~repro.game.batch_engine.BatchEngine`; the default is one
    worker's call per generation — ``owned x (n_ssets - 1)`` with 32 of 64
    SSets owned.  The games carry the paper's noise (§IV-D), like the workload
    ``CostModel.round_base`` prices: a noise-free call plays few of its
    nominal rounds — a narrow one is summed by path doubling, a wide one
    closes each game's cycle — so it does not time a round that is played.
    """
    space = StateSpace(memory)
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, 2, size=(64, space.n_states), dtype=np.uint8)
    engine = BatchEngine(space, rounds=rounds, noise=NoiseModel(0.01))
    ia = rng.integers(0, 64, size=batch).astype(np.intp)
    ib = rng.integers(0, 64, size=batch).astype(np.intp)
    engine.play(mat, ia, ib, rng=rng)  # warm-up
    start = time.perf_counter()
    engine.play(mat, ia, ib, rng=rng)
    elapsed = time.perf_counter() - start
    return elapsed / (batch * rounds)


def time_lookup_round(memory: int, rounds: int = 50, games: int = 4, seed: int = 0) -> float:
    """Seconds per round per game of the paper-faithful linear-search engine."""
    space = StateSpace(memory)
    rng = np.random.default_rng(seed)
    table = build_states_table(space)
    pairs = [
        (Strategy.random_pure(space, rng), Strategy.random_pure(space, rng))
        for _ in range(games)
    ]
    play_ipd_lookup(pairs[0][0], pairs[0][1], rounds=rounds, states_table=table)  # warm-up
    start = time.perf_counter()
    for a, b in pairs:
        play_ipd_lookup(a, b, rounds=rounds, states_table=table)
    elapsed = time.perf_counter() - start
    return elapsed / (games * rounds)


def _time_generation_overhead(seed: int = 0) -> float:
    """Per-generation bookkeeping cost of the driver with dynamics disabled."""
    from repro.population.dynamics import EvolutionDriver

    cfg = SimulationConfig(
        memory=1, n_ssets=8, generations=1, pc_rate=0.0, mutation_rate=0.0, seed=seed
    )
    driver = EvolutionDriver(cfg)
    driver.step()  # warm-up
    n = 200
    start = time.perf_counter()
    for _ in range(n):
        driver.step()
    return (time.perf_counter() - start) / n


def calibrate(
    memories: tuple[int, ...] = (1, 2, 3),
    lookup_memories: tuple[int, ...] = (1, 2, 3),
    rounds: int = 200,
    seed: int = 0,
) -> CalibrationReport:
    """Measure both engines and fit a :class:`CostModel`.

    Parameters
    ----------
    memories:
        Memory depths timed on the incremental engine.
    lookup_memories:
        Memory depths timed on the linear-search engine (its cost grows as
        ``4**memory`` per round, so keep these small).
    rounds:
        Rounds per timed game for the incremental engine.
    seed:
        Seed for the random strategies used as timing workloads.

    Raises
    ------
    CalibrationError
        If the timing samples are degenerate (non-positive).
    """
    inc: dict[int, float] = {}
    for mem in memories:
        inc[mem] = time_engine_round(mem, rounds=rounds, seed=seed)
    lookup: dict[int, float] = {}
    for mem in lookup_memories:
        lookup[mem] = time_lookup_round(mem, seed=seed)
    if any(v <= 0 for v in inc.values()) or any(v <= 0 for v in lookup.values()):
        raise CalibrationError(f"degenerate timing samples: inc={inc}, lookup={lookup}")

    round_base = float(np.mean(list(inc.values())))
    # Fit the per-candidate-state search cost from the lookup samples:
    # t_lookup(n) = round_base + 2 * 4**n * s  =>  s per sample, averaged.
    s_samples = [
        max(0.0, (t - round_base) / (2.0 * 4**mem)) for mem, t in lookup.items()
    ]
    search_cost = float(np.mean(s_samples)) if s_samples else 0.0
    if search_cost <= 0:
        raise CalibrationError(
            "lookup engine did not measure slower than the incremental engine;"
            f" samples inc={inc}, lookup={lookup}"
        )
    model = CostModel(
        round_base=round_base,
        state_search_per_state=search_cost,
        state_incremental=0.0,  # folded into round_base by the measurement
        per_game_overhead=0.0,
        per_generation_overhead=_time_generation_overhead(seed),
        label="measured-python",
    )
    return CalibrationReport(incremental_round=inc, lookup_round=lookup, model=model)
