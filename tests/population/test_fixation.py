"""Nature's fixation probability: the closed form, and Nature held to it.

Pass rule of :class:`TestNatureAgainstTheory` (written down before its first
run).  Each replicate runs :class:`~repro.population.dynamics.EvolutionDriver`
with ``mutation_rate`` 0 and ``pc_rate`` 1 from one mutant (SSet 0) among
``N - 1`` residents until ``n_unique == 1``; memory is 1 and replicate ``r``
uses seed ``r``.  With ``k`` of ``R`` replicates ending on the mutant:

* Fermi rule: ``|k/R - rho| <= 4 * sqrt(rho * (1 - rho) / R)``, ``R >= 2000``;
* paper rule: every replicate ends on ``rho``'s side — all fix when
  ``rho == 1``, none when ``rho == 0``;
* paper rule with a payoff-neutral mutant: the matrix never changes.

``benchmarks/test_nature_fixation.py`` runs the wider sweep under the same
rule: N in {8, 16}, both rules, a neutral, an advantaged and a
disadvantaged mutant, deterministic and expected (noise 0.01) fitness.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.game.noise import NoiseModel
from repro.game.strategy import named_strategy
from repro.population.dynamics import EvolutionDriver
from repro.population.fitness import FitnessEvaluator
from repro.population.fixation import (
    fixation_probability,
    fixation_probability_from_payoffs,
    pair_payoff_table,
)
from repro.population.population import Population


def config(**overrides):
    defaults = dict(memory=1, n_ssets=6, generations=1, seed=0, rounds=20)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def table(name: str) -> np.ndarray:
    return named_strategy(name).table.astype(np.uint8)


def two_strategy_population(mutant, resident, cfg) -> Population:
    """SSet 0 holds ``mutant``, the other ``N - 1`` hold ``resident``."""
    rows = np.repeat(np.asarray(resident)[None, :], cfg.n_ssets, axis=0)
    rows[0] = mutant
    return Population(cfg, rows)


def absorb(mutant, resident, cfg, seed: int, cap: int = 100_000) -> bool | None:
    """Nature from one mutant to absorption at ``seed``: True when the mutant
    fixed, False when it was lost, None when ``cap`` generations did not
    absorb (the paper rule can trap the chain between two counts)."""
    cfg = cfg.with_updates(seed=seed, pc_rate=1.0, mutation_rate=0.0)
    driver = EvolutionDriver(cfg, two_strategy_population(mutant, resident, cfg))
    pop = driver.population
    while pop.n_unique > 1:
        if driver.generation >= cap:
            return None
        driver.step()
    return bool(np.array_equal(pop.table_of(0), mutant))


def fixed_count(mutant, resident, cfg, replicates: int, cap: int = 100_000) -> tuple[int, int]:
    """(fixed, unabsorbed) over seeds ``0 .. replicates - 1``."""
    ends = [absorb(mutant, resident, cfg, seed, cap) for seed in range(replicates)]
    return ends.count(True), ends.count(None)


def check_against_theory(mutant, resident, cfg, replicates: int = 2000) -> float:
    """Apply the module's pass rule to one case; returns the z-score (0 for
    the paper rule)."""
    rho = fixation_probability(mutant, resident, cfg)
    if cfg.pc_rule == "paper":
        assert rho in (0.0, 1.0)
        fixed, _ = fixed_count(mutant, resident, cfg, replicates)
        assert fixed == (replicates if rho == 1.0 else 0), (fixed, replicates, rho)
        return 0.0
    assert replicates >= 2000
    fixed, open_ = fixed_count(mutant, resident, cfg, replicates)
    assert open_ == 0
    sigma = np.sqrt(rho * (1 - rho) / replicates)
    assert abs(fixed / replicates - rho) <= 4 * sigma, (fixed, replicates, rho)
    return (fixed / replicates - rho) / sigma


class TestClosedForm:
    def test_neutral_is_one_over_n(self):
        for n in (2, 5, 10, 100):
            rho = fixation_probability_from_payoffs(3, 3, 3, 3, n, beta=1.0)
            assert rho == pytest.approx(1 / n)

    def test_beta_zero_is_neutral_regardless_of_payoffs(self):
        rho = fixation_probability_from_payoffs(10, 0, 99, 1, 8, beta=0.0)
        assert rho == pytest.approx(1 / 8)

    def test_advantageous_mutant_above_neutral(self):
        rho = fixation_probability_from_payoffs(4, 4, 1, 1, 10, beta=0.1)
        assert rho > 1 / 10

    def test_disadvantaged_mutant_below_neutral(self):
        rho = fixation_probability_from_payoffs(1, 1, 4, 4, 10, beta=0.1)
        assert rho < 1 / 10

    def test_monotone_in_beta_for_advantageous(self):
        rhos = [
            fixation_probability_from_payoffs(4, 4, 1, 1, 10, beta=b)
            for b in (0.0, 0.05, 0.2, 1.0)
        ]
        assert rhos == sorted(rhos)

    def test_extreme_selection_saturates_without_overflow(self):
        up = fixation_probability_from_payoffs(1e5, 1e5, 0, 0, 50, beta=10.0)
        down = fixation_probability_from_payoffs(0, 0, 1e5, 1e5, 50, beta=10.0)
        assert up == pytest.approx(1.0)
        assert down == pytest.approx(0.0, abs=1e-12)

    def test_complementarity(self):
        """rho_A(one A among B) and rho_B(one B among A) relate through the
        product of transition ratios: both must lie in (0, 1) and order by
        payoff advantage."""
        rho_a = fixation_probability_from_payoffs(4, 2, 3, 1, 12, beta=0.3)
        rho_b = fixation_probability_from_payoffs(1, 3, 2, 4, 12, beta=0.3)
        assert 0 < rho_b < rho_a < 1

    def test_validation(self):
        with pytest.raises(PopulationError):
            fixation_probability_from_payoffs(1, 1, 1, 1, 1, beta=0.1)
        with pytest.raises(PopulationError):
            fixation_probability_from_payoffs(1, 1, 1, 1, 5, beta=-1.0)

    def test_fermi_rule_is_the_payoff_closed_form(self):
        cfg = config(n_ssets=8, beta=0.003, pc_rule="fermi")
        f = pair_payoff_table(table("ALLD"), table("ALLC"), cfg)
        rho = fixation_probability(table("ALLD"), table("ALLC"), cfg)
        assert rho == fixation_probability_from_payoffs(*f, 8, 0.003)

    @pytest.mark.parametrize(
        "mutant, resident, rho",
        [
            ("ALLD", "ALLC", 1.0),  # fitter at every count: only ever copied
            ("ALLC", "ALLD", 0.0),  # less fit at every count: only ever lost
            ("TFT", "ALLC", 0.0),  # payoff-neutral: a tie holds the chain
            ("ALLD", "TFT", 0.0),  # bistable: lost from one mutant
        ],
    )
    def test_paper_rule_is_zero_or_one(self, mutant, resident, rho):
        cfg = config(n_ssets=8, beta=0.02)
        assert cfg.pc_rule == "paper"
        assert fixation_probability(table(mutant), table(resident), cfg) == rho

    @pytest.mark.parametrize(
        "payoffs, gaps",
        [
            ((2, 1, 1, 1), [0, 1, 2]),  # a tie at i = 1 holds the chain there
            ((0, 2, 1, 1), [3, 1, -1]),  # a sign change traps it between 2 and 3
        ],
    )
    def test_paper_rule_never_fixes_past_a_tie_or_a_sign_change(self, payoffs, gaps, monkeypatch):
        """N = 4: pi_A(i) - pi_B(i) is linear in i, so the rule needs it
        strictly positive at both ends."""
        import repro.population.fixation as fixation

        cfg = config(n_ssets=4)
        monkeypatch.setattr(fixation, "pair_payoff_table", lambda *args: payoffs)
        assert list(fixation._fitness_gaps(*payoffs, 4)) == gaps
        assert fixation_probability(None, None, cfg) == 0.0
        assert 0.0 < fixation_probability(None, None, cfg.with_updates(pc_rule="fermi")) < 1.0


class TestPairPayoffs:
    def test_known_values(self):
        cfg = config(rounds=200)
        f_aa, f_ab, f_ba, f_bb = pair_payoff_table(
            named_strategy("ALLD").table.astype(float),
            named_strategy("ALLC").table.astype(float),
            cfg,
        )
        assert (f_aa, f_ab, f_ba, f_bb) == (200.0, 800.0, 0.0, 600.0)

    @pytest.mark.parametrize("self_play", [False, True])
    def test_the_closed_form_counts_fitness_as_the_evaluator_does(self, self_play):
        """ALLD among TFT, N = 8, i = 3, 20 rounds: 155 / 297 without
        self-play, 175 / 357 with it, from either side."""
        cfg = config(n_ssets=8, include_self_play=self_play)
        mutant, resident = table("ALLD"), table("TFT")
        pop = Population(cfg, np.vstack([np.repeat(mutant[None], 3, 0),
                                         np.repeat(resident[None], 5, 0)]))
        got = FitnessEvaluator(cfg, pop).fitness([0, 7], generation=1)
        f_aa, f_ab, f_ba, f_bb = pair_payoff_table(mutant, resident, cfg)
        s, i, n = int(self_play), 3, 8
        pi_a = (i - 1 + s) * f_aa + (n - i) * f_ab
        pi_b = i * f_ba + (n - i - 1 + s) * f_bb
        assert (pi_a, pi_b) == ((175.0, 357.0) if self_play else (155.0, 297.0))
        assert np.array_equal(got, [pi_a, pi_b])


class TestNatureAgainstTheory:
    """EvolutionDriver's fixation frequency against the closed form (the
    module docstring's pass rule)."""

    def test_fermi_rule_advantaged_mutant(self):
        """ALLD into ALLC, N = 8, beta = 0.003: rho = 0.4549."""
        cfg = config(n_ssets=8, beta=0.003, pc_rule="fermi")
        check_against_theory(table("ALLD"), table("ALLC"), cfg, replicates=2000)

    @pytest.mark.parametrize("mutant, resident", [("ALLD", "ALLC"), ("ALLC", "ALLD")])
    def test_paper_rule_every_replicate_on_rhos_side(self, mutant, resident):
        cfg = config(n_ssets=8, beta=0.02)
        check_against_theory(table(mutant), table(resident), cfg, replicates=200)

    def test_paper_rule_neutral_mutant_never_moves(self):
        """TFT into ALLC (they cooperate with each other and themselves: every
        fitness is equal), so no teacher is ever strictly fitter."""
        cfg = config(n_ssets=8, beta=0.02, pc_rate=1.0, mutation_rate=0.0,
                     generations=500)
        for seed in range(5):
            cfg = cfg.with_updates(seed=seed)
            driver = EvolutionDriver(cfg, two_strategy_population(table("TFT"), table("ALLC"), cfg))
            before = driver.population.matrix()
            result = driver.run()
            assert result.n_pc_events == 500 and result.n_adoptions == 0
            assert np.array_equal(driver.population.matrix(), before)

    def test_paper_rule_sign_change_traps_the_chain(self):
        """Memory-one tables 1100 among 1101, 20 rounds: pi_A(i) - pi_B(i)
        runs 98, 80, .., 8, -10 over i = 1..7, so the mutant climbs to 7
        copies, is pushed back to 6, and never fixes (rho = 0)."""
        mutant = np.array([1, 1, 0, 0], dtype=np.uint8)
        resident = np.array([1, 1, 0, 1], dtype=np.uint8)
        cfg = config(n_ssets=8, beta=0.02)
        assert fixation_probability(mutant, resident, cfg) == 0.0
        for seed in range(5):
            assert absorb(mutant, resident, cfg, seed, cap=2000) is None
            live = cfg.with_updates(seed=seed, pc_rate=1.0, mutation_rate=0.0, generations=2000)
            driver = EvolutionDriver(live, two_strategy_population(mutant, resident, live))
            driver.run()
            copies = sum(np.array_equal(driver.population.table_of(s), mutant) for s in range(8))
            assert copies in (6, 7)

    def test_expected_mode_runs_the_same_process(self):
        """Noise 0.01 read through the Markov evaluator: the paper rule's
        verdict holds for Nature's expected fitness too."""
        cfg = config(n_ssets=8, beta=0.02, noise=NoiseModel(0.01), fitness_mode="expected")
        check_against_theory(table("ALLD"), table("ALLC"), cfg, replicates=50)
