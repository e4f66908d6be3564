"""Tests for exact expected payoffs via the joint-state Markov chain."""

import numpy as np
import pytest

from repro.errors import GameError
from repro.game import markov
from repro.game.engine import play_ipd
from repro.game.markov import (
    effective_defect_probs,
    expected_pair_payoffs,
    stationary_cooperation,
)
from repro.game.noise import NO_NOISE, NoiseModel
from repro.game.states import StateSpace
from repro.game.strategy import Strategy, named_strategy
from repro.game.vector_engine import VectorEngine


class TestEffectiveProbs:
    def test_noiseless_identity(self):
        table = np.array([0.2, 0.8])
        assert effective_defect_probs(table, NO_NOISE) is table

    def test_error_folding(self):
        table = np.array([0.0, 1.0, 0.5])
        out = effective_defect_probs(table, NoiseModel(0.1))
        assert out.tolist() == [0.1, 0.9, 0.5]


class TestAgainstDeterministicPlay:
    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_pure_pairs_exact(self, memory, rng):
        sp = StateSpace(memory)
        mat = rng.integers(0, 2, size=(6, sp.n_states), dtype=np.uint8)
        engine = VectorEngine(sp, rounds=60)
        ia, ib = engine.round_robin_pairs(6, include_self=True)
        played = engine.play(mat, ia, ib)
        ea, eb = expected_pair_payoffs(sp, mat, ia, ib, rounds=60)
        assert np.allclose(ea, played.fitness_a)
        assert np.allclose(eb, played.fitness_b)

    def test_mixed_matches_sampled_mean(self):
        sp = StateSpace(1)
        mat = np.array([[0.3, 0.7, 0.2, 0.8], [0.1, 0.9, 0.4, 0.6]])
        ea, eb = expected_pair_payoffs(sp, mat, np.array([0]), np.array([1]), rounds=30)
        a = Strategy.mixed(sp, mat[0])
        b = Strategy.mixed(sp, mat[1])
        rng = np.random.default_rng(7)
        samples = [play_ipd(a, b, rounds=30, rng=rng).fitness_a for _ in range(3000)]
        sem = np.std(samples) / np.sqrt(len(samples))
        assert abs(np.mean(samples) - ea[0]) < 5 * sem + 0.5

    def test_noise_folded_matches_noisy_play_mean(self):
        sp = StateSpace(1)
        mat = np.vstack([named_strategy("TFT").table, named_strategy("TFT").table]).astype(float)
        noise = NoiseModel(0.05)
        ea, _ = expected_pair_payoffs(sp, mat, np.array([0]), np.array([1]), rounds=50, noise=noise)
        rng = np.random.default_rng(11)
        tft = named_strategy("TFT")
        samples = [
            play_ipd(tft, tft, rounds=50, noise=noise, rng=rng).fitness_a for _ in range(2000)
        ]
        assert abs(np.mean(samples) - ea[0]) < 2.0


class TestValidation:
    def test_mismatched_pair_arrays(self):
        sp = StateSpace(1)
        with pytest.raises(GameError):
            expected_pair_payoffs(sp, np.zeros((2, 4)), np.array([0, 1]), np.array([0]))

    def test_zero_rounds(self):
        sp = StateSpace(1)
        with pytest.raises(GameError):
            expected_pair_payoffs(sp, np.zeros((2, 4)), np.array([0]), np.array([1]), rounds=0)

    def test_empty_pairs(self):
        sp = StateSpace(1)
        ea, eb = expected_pair_payoffs(sp, np.zeros((2, 4)), np.array([], dtype=int),
                                       np.array([], dtype=int))
        assert ea.size == eb.size == 0


class TestStationaryCooperation:
    def test_two_wsls_recover_from_errors(self):
        """WSLS self-play stays highly cooperative under noise; TFT does not."""
        sp = StateSpace(1)
        wsls = named_strategy("WSLS").table.astype(float)
        tft = named_strategy("TFT").table.astype(float)
        noise = NoiseModel(0.05)
        coop_wsls = stationary_cooperation(sp, wsls, wsls, rounds=200, noise=noise)
        coop_tft = stationary_cooperation(sp, tft, tft, rounds=200, noise=noise)
        assert coop_wsls > 0.8
        assert coop_tft < 0.6

    def test_allc_fully_cooperative(self):
        sp = StateSpace(1)
        allc = named_strategy("ALLC").table.astype(float)
        assert stationary_cooperation(sp, allc, allc, rounds=50) == pytest.approx(1.0)

    def test_alld_never_cooperates(self):
        sp = StateSpace(1)
        alld = named_strategy("ALLD").table.astype(float)
        assert stationary_cooperation(sp, alld, alld, rounds=50) == pytest.approx(0.0)


class TestScatterFreeRound:
    @pytest.mark.parametrize("noise", [NO_NOISE, NoiseModel(0.02)])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("memory", [1, 2, 3, 4])
    def test_bit_equal_to_a_successor_table_scatter(self, memory, kind, noise, monkeypatch):
        """A round's reshape-and-sum adds the four predecessors of each state
        in the order ``np.add.at`` over the successor table adds them."""
        sp = StateSpace(memory)
        rng = np.random.default_rng(memory)
        if kind == "pure":
            mat = rng.integers(0, 2, size=(5, sp.n_states), dtype=np.uint8)
        else:
            mat = rng.random((5, sp.n_states))
        ia, ib = (a.ravel() for a in np.meshgrid(np.arange(5), np.arange(5)))

        def run():
            pairs = expected_pair_payoffs(sp, mat, ia, ib, rounds=120, noise=noise)
            coop = [stationary_cooperation(sp, mat[a], mat[b], rounds=120, noise=noise)
                    for a, b in ((0, 1), (2, 2), (4, 3))]
            return pairs, coop

        def scatter(flux):
            *lead, n_states, _ = flux.shape
            succ = ((np.arange(n_states)[:, None] << 2) | np.arange(4)) & sp.mask
            flat = flux.reshape(-1, n_states * 4)
            out = np.zeros((flat.shape[0], n_states))
            np.add.at(out, (slice(None), succ.reshape(-1)), flat)
            return out.reshape(*lead, n_states)

        (ea, eb), coop = run()
        monkeypatch.setattr(markov, "_push", scatter)
        (ref_a, ref_b), ref_coop = run()
        assert np.array_equal(ea, ref_a) and np.array_equal(eb, ref_b)
        assert coop == ref_coop
