"""Tests for the scalar reference IPD engine, including classic matchups."""

import numpy as np
import pytest

from repro.errors import GameError
from repro.game.engine import DEFAULT_ROUNDS, play_ipd
from repro.game.noise import NoiseModel
from repro.game.payoff import PAPER_PAYOFFS
from repro.game.states import StateSpace
from repro.game.strategy import Strategy, named_strategy


class TestClassicMatchups:
    """Known-by-hand outcomes under the paper's payoffs, 200 rounds."""

    def test_allc_vs_allc(self):
        r = play_ipd(named_strategy("ALLC"), named_strategy("ALLC"))
        assert r.fitness_a == r.fitness_b == 200 * 3

    def test_alld_vs_allc(self):
        r = play_ipd(named_strategy("ALLD"), named_strategy("ALLC"))
        assert r.fitness_a == 200 * 4
        assert r.fitness_b == 0

    def test_tft_vs_alld(self):
        # TFT: sucker once (history starts cooperative), then punishment.
        r = play_ipd(named_strategy("TFT"), named_strategy("ALLD"))
        assert r.fitness_a == 0 + 199 * 1
        assert r.fitness_b == 4 + 199 * 1

    def test_tft_vs_tft_full_cooperation(self):
        r = play_ipd(named_strategy("TFT"), named_strategy("TFT"))
        assert r.fitness_a == r.fitness_b == 600

    def test_wsls_vs_wsls(self):
        r = play_ipd(named_strategy("WSLS"), named_strategy("WSLS"))
        assert r.fitness_a == r.fitness_b == 600

    def test_wsls_vs_alld_alternates(self):
        # WSLS vs ALLD: C (S), then alternating shift: D (P), C (S), ...
        r = play_ipd(named_strategy("WSLS"), named_strategy("ALLD"), rounds=4)
        assert r.fitness_a == 0 + 1 + 0 + 1
        assert r.fitness_b == 4 + 1 + 4 + 1

    def test_grim_punishes_forever(self):
        # ALLD defects from round 1; GRIM retaliates from round 2 onward.
        r = play_ipd(named_strategy("GRIM"), named_strategy("ALLD"), rounds=10)
        assert r.fitness_a == 0 + 9 * 1
        assert r.fitness_b == 4 + 9 * 1

    def test_paper_default_rounds(self):
        assert DEFAULT_ROUNDS == 200
        r = play_ipd(named_strategy("ALLC"), named_strategy("ALLC"))
        assert r.rounds == 200


class TestRecording:
    def test_moves_recorded_when_requested(self):
        r = play_ipd(named_strategy("TFT"), named_strategy("ALLD"), rounds=5, record_moves=True)
        assert r.moves_a.tolist() == [0, 1, 1, 1, 1]
        assert r.moves_b.tolist() == [1, 1, 1, 1, 1]


class TestStochastic:
    def test_mixed_requires_rng(self):
        mixed = Strategy.mixed(StateSpace(1), [0.5] * 4)
        with pytest.raises(GameError, match="rng"):
            play_ipd(mixed, named_strategy("ALLC"))

    def test_noise_requires_rng(self):
        with pytest.raises(GameError, match="rng"):
            play_ipd(named_strategy("ALLC"), named_strategy("ALLC"), noise=NoiseModel(0.1))

    def test_mixed_reproducible_with_seed(self):
        mixed = Strategy.mixed(StateSpace(1), [0.3, 0.7, 0.2, 0.9])
        a = play_ipd(mixed, named_strategy("TFT"), rng=np.random.default_rng(3))
        b = play_ipd(mixed, named_strategy("TFT"), rng=np.random.default_rng(3))
        assert (a.fitness_a, a.fitness_b) == (b.fitness_a, b.fitness_b)

    def test_noise_breaks_tft_cooperation(self, rng):
        """A single error locks two TFTs out of mutual cooperation (§III-E)."""
        clean = play_ipd(named_strategy("TFT"), named_strategy("TFT"))
        noisy = play_ipd(
            named_strategy("TFT"), named_strategy("TFT"), noise=NoiseModel(0.05), rng=rng
        )
        assert noisy.fitness_a + noisy.fitness_b < clean.fitness_a + clean.fitness_b

    def test_wsls_beats_tft_under_noise(self):
        """WSLS self-play outperforms TFT self-play in noisy games (§III-E)."""
        wsls_total = tft_total = 0.0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            w = play_ipd(
                named_strategy("WSLS"), named_strategy("WSLS"), noise=NoiseModel(0.05), rng=rng
            )
            wsls_total += w.fitness_a + w.fitness_b
            rng = np.random.default_rng(seed)
            t = play_ipd(
                named_strategy("TFT"), named_strategy("TFT"), noise=NoiseModel(0.05), rng=rng
            )
            tft_total += t.fitness_a + t.fitness_b
        assert wsls_total > tft_total * 1.2

    def test_random_strategy_mean_payoff(self, rng):
        rand = named_strategy("RANDOM")
        r = play_ipd(rand, rand, rounds=2000, rng=rng)
        # Uniform play: expected payoff (R+S+T+P)/4 = 2 per round.
        assert 1.85 < r.fitness_a / r.rounds < 2.15


class TestValidation:
    def test_memory_mismatch(self):
        with pytest.raises(GameError, match="memory"):
            play_ipd(named_strategy("TFT", 1), named_strategy("TFT", 2))

    def test_nonpositive_rounds(self):
        with pytest.raises(GameError):
            play_ipd(named_strategy("TFT"), named_strategy("TFT"), rounds=0)

    def test_payoff_matrix_respected(self):
        from repro.game.payoff import AXELROD_PAYOFFS

        r = play_ipd(named_strategy("ALLD"), named_strategy("ALLC"), payoff=AXELROD_PAYOFFS)
        assert r.fitness_a == 200 * 5


class TestMemoryDepths:
    @pytest.mark.parametrize("memory", [1, 2, 3, 4])
    def test_self_play_symmetric(self, memory, rng):
        sp = StateSpace(memory)
        s = Strategy.random_pure(sp, rng)
        r = play_ipd(s, s, rounds=100)
        assert r.fitness_a == r.fitness_b

    @pytest.mark.parametrize("memory", [2, 3])
    def test_total_payoff_bounds(self, memory, rng):
        sp = StateSpace(memory)
        a, b = Strategy.random_pure(sp, rng), Strategy.random_pure(sp, rng)
        r = play_ipd(a, b, rounds=100)
        total = r.fitness_a + r.fitness_b
        # Per-round joint payoff is 2P=2 (DD), T+S=4 (mixed) or 2R=6 (CC).
        assert 100 * 2 <= total <= 100 * 6
        assert 0 <= r.fitness_a <= 100 * 4
        assert 0 <= r.fitness_b <= 100 * 4
