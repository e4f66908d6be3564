"""Full-generation throughput: bit-packed batch kernel vs the reference engine.

The bottleneck of an eager generation is ``repro.game``, and the fix is to
play an SSet's whole round-robin of 200-round matchups as one batched
bit-packed kernel call.  This bench times exactly that workload — a 32-strategy generation
(496 games x 200 rounds) at memory 1/3/6 — through three engines:

* the scalar reference engine (``play_ipd``, one Python call per game),
* the dense ``VectorEngine`` (one gather per player per round),
* the bit-packed ``BatchEngine`` (uint64 lane per matchup).

Results land in ``benchmarks/output/engine_speedup.txt`` and machine-readably
in ``BENCH_engine.json`` at the repo root (``docs/kernels.md`` explains how
to read it).  The acceptance gate asserts
the batch kernel beats the reference engine by >= 10x at memory-6; parity
(bit-identical fitness) is asserted inline on every measured configuration.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.game.batch_engine import BatchEngine
from repro.game.engine import play_ipd
from repro.game.states import StateSpace
from repro.game.strategy import Strategy
from repro.game.vector_engine import VectorEngine

from ._util import emit

N_STRATEGIES = 32
ROUNDS = 200
REPEATS = 5

MEMORIES = [1, 3, 6]

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _reference_generation(strategies, ia, ib):
    """One full generation through the scalar reference engine."""
    fit = np.empty(ia.size, dtype=np.float64)
    for g in range(ia.size):
        fit[g] = play_ipd(strategies[ia[g]], strategies[ib[g]], rounds=ROUNDS).fitness_a
    return fit


def _time_engine(engine, mat, ia, ib):
    """Best-of-REPEATS seconds for one full generation, after a warm-up."""
    engine.play(mat, ia, ib)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        res = engine.play(mat, ia, ib)
        best = min(best, time.perf_counter() - t0)
    return best, res


def test_engine_generation_speedup():
    rows = []
    for memory in MEMORIES:
        space = StateSpace(memory)
        rng = np.random.default_rng(memory)
        mat = rng.integers(0, 2, size=(N_STRATEGIES, space.n_states)).astype(np.uint8)
        strategies = [Strategy(space, mat[i]) for i in range(N_STRATEGIES)]
        vec = VectorEngine(space, rounds=ROUNDS)
        bat = BatchEngine(space, rounds=ROUNDS)
        ia, ib = vec.round_robin_pairs(N_STRATEGIES)

        t0 = time.perf_counter()
        ref_fit = _reference_generation(strategies, ia, ib)
        t_ref = time.perf_counter() - t0
        t_vec, res_vec = _time_engine(vec, mat, ia, ib)
        t_bat, res_bat = _time_engine(bat, mat, ia, ib)

        # Parity gate, inline: all three engines agree bit-for-bit.
        assert np.array_equal(res_vec.fitness_a, res_bat.fitness_a)
        assert np.array_equal(res_vec.fitness_b, res_bat.fitness_b)
        assert np.array_equal(ref_fit, res_bat.fitness_a)

        rows.append(
            {
                "memory": memory,
                "n_strategies": N_STRATEGIES,
                "games": int(ia.size),
                "rounds": ROUNDS,
                "kernel": bat.kernel,
                "reference_s": t_ref,
                "vector_s": t_vec,
                "batch_s": t_bat,
                "speedup_vs_reference": t_ref / t_bat if t_bat else float("inf"),
                "speedup_vs_vector": t_vec / t_bat if t_bat else float("inf"),
            }
        )

    lines = [
        f"{N_STRATEGIES}-strategy generation: {rows[0]['games']} games x {ROUNDS}"
        f" rounds, best of {REPEATS} (batch kernel: {rows[0]['kernel']})",
        f"{'memory':<8} {'reference s':>12} {'vector s':>10} {'batch s':>10}"
        f" {'vs ref':>8} {'vs vector':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['memory']:<8} {row['reference_s']:>12.3f} {row['vector_s']:>10.4f}"
            f" {row['batch_s']:>10.4f} {row['speedup_vs_reference']:>7.1f}x"
            f" {row['speedup_vs_vector']:>9.2f}x"
        )
    emit("engine_speedup", "\n".join(lines))
    BENCH_JSON.write_text(
        json.dumps(
            {
                "experiment": "engine_generation_speedup",
                "n_strategies": N_STRATEGIES,
                "rounds": ROUNDS,
                "repeats": REPEATS,
                "rows": rows,
            },
            indent=2,
        )
        + "\n"
    )

    # The tentpole's performance gate: >= 10x full-generation throughput at
    # memory-6 against the reference engine.
    mem6 = next(row for row in rows if row["memory"] == 6)
    assert mem6["speedup_vs_reference"] >= 10.0, (
        f"expected >= 10x at memory-6, got {mem6['speedup_vs_reference']:.1f}x"
    )
