"""Bench: Nature's fixation frequency against the closed form, the full sweep.

``tests/population/test_fixation.py`` states the pass rule and keeps one
case of each rule in tier-1; this runs the sweep ROADMAP item 4 asks for,
under the same rule: N in {8, 16}; the Fermi and the paper rule; a neutral
(TFT into ALLC), an advantaged (ALLD into ALLC) and a disadvantaged (WSLS
into ALLD) mutant; deterministic fitness and ``expected`` fitness with
noise 0.01.  Memory 1, 20-round games, ``beta`` scaled by 8/N so the
selection gradient is alike at both sizes.  A Fermi case runs 2 000
replicates to absorption, a paper case 200 (capped at 1 000 generations:
the chain can be held by a tie or trapped by a sign change, and then the
mutant never fixes).  Replicate ``r`` uses seed ``r``.  The emitted table
lists rho, the fixed fraction and z for every case.
"""

from repro.analysis.report import render_table
from repro.game.noise import NoiseModel
from repro.population.fixation import fixation_probability

from benchmarks._util import emit
from tests.population.test_fixation import config, fixed_count, table

PAIRS = [
    ("neutral", "TFT", "ALLC", 0.02),
    ("advantaged", "ALLD", "ALLC", 0.003),
    ("disadvantaged", "WSLS", "ALLD", 0.005),
]


def cases():
    for mode in ("deterministic", "expected"):
        extra = {} if mode == "deterministic" else dict(
            fitness_mode="expected", noise=NoiseModel(0.01)
        )
        for n in (8, 16):
            for rule in ("fermi", "paper"):
                for kind, mutant, resident, beta in PAIRS:
                    cfg = config(n_ssets=n, beta=beta * 8 / n, pc_rule=rule, **extra)
                    yield f"{mode} N={n} {rule} {kind} {mutant}->{resident}", mutant, resident, cfg


def sweep() -> list[tuple]:
    rows = []
    for name, mutant, resident, cfg in cases():
        a, b = table(mutant), table(resident)
        rho = fixation_probability(a, b, cfg)
        if cfg.pc_rule == "fermi":
            replicates = 2000
            fixed, unabsorbed = fixed_count(a, b, cfg, replicates)
            sigma = (rho * (1 - rho) / replicates) ** 0.5
            z = (fixed / replicates - rho) / sigma
            ok = unabsorbed == 0 and abs(z) <= 4
        else:
            replicates = 200
            fixed, unabsorbed = fixed_count(a, b, cfg, replicates, cap=1000)
            z = None
            ok = fixed == (replicates if rho == 1.0 else 0)
        shown = "-" if z is None else f"{z:+.2f}"
        rows.append((name, f"{rho:.4f}", f"{fixed}/{replicates}", unabsorbed, shown, ok))
    return rows


def test_nature_fixation_against_the_closed_form(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("nature_fixation", render_table(
        ["case", "rho", "fixed", "unabsorbed", "z", "pass"], rows
    ))
    assert all(row[-1] for row in rows), [row for row in rows if not row[-1]]
