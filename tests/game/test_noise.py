"""Tests for the execution-error model and the one way every engine draws it.

Two kinds of check hold whatever the draw definition is: at rate 1 every
intended move flips, so a noisy pure game must equal noise-free play of the
complemented tables on every engine; and the flips must be the Bernoulli
process they claim to be.  The third pins the definition's one promise to
the engines: every engine leaves a generator in the same state.
"""

from functools import partial
from unittest import mock

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.game import vector_engine
from repro.game.batch_engine import BatchEngine
from repro.game.engine import play_ipd
from repro.game.lookup_engine import play_ipd_lookup
from repro.game.noise import NO_NOISE, NoiseModel, _segment_flips
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.game.strategy import Strategy
from repro.game.vector_engine import VectorEngine

FRACTIONAL_PAYOFFS = PayoffMatrix(reward=3.1, sucker=0.2, temptation=4.7, punishment=1.3)
ROUNDS = 60


class TestValidation:
    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_rejects_bad_rates(self, rate):
        with pytest.raises(ConfigError):
            NoiseModel(rate)

    def test_zero_is_noiseless(self):
        assert NoiseModel(0.0).is_noiseless
        assert NO_NOISE.is_noiseless

    def test_nonzero_is_noisy(self):
        assert not NoiseModel(0.01).is_noiseless


def _scalar_games(play, mat, ia, ib, space, noise):
    """Both seats' fitness and defections (when recorded), one game per pair."""
    out = []
    for g, (a, b) in enumerate(zip(ia, ib)):
        res = play(Strategy(space, mat[a]), Strategy(space, mat[b]), rounds=ROUNDS, noise=noise,
                   rng=np.random.default_rng(g))
        out.append((res.fitness_a, res.fitness_b, res.moves_a.sum(), res.moves_b.sum()))
    return np.array(out)


def _batch_games(engine_cls, payoff, mat, ia, ib, space, noise):
    engine = engine_cls(space, payoff=payoff, rounds=ROUNDS, noise=noise)
    res = engine.play(mat, ia, ib, rng=np.random.default_rng(0), record_cooperation=True)
    return np.stack([res.fitness_a, res.fitness_b, res.cooperations_a, res.cooperations_b])


class TestCertainNoiseComplementsTheTables:
    """``NoiseModel(1.0)`` flips every intended move: play the complemented tables."""

    @pytest.mark.parametrize("memory", range(1, 7))
    @pytest.mark.parametrize(
        "engine_cls, payoff",
        [
            (BatchEngine, PAPER_PAYOFFS),
            (VectorEngine, PAPER_PAYOFFS),
            (BatchEngine, FRACTIONAL_PAYOFFS),
        ],
        ids=["byte-loop", "dense-loop", "fractional-dense"],
    )
    def test_batch_engines(self, memory, engine_cls, payoff):
        space = StateSpace(memory)
        mat = np.random.default_rng(memory).integers(0, 2, (6, space.n_states), dtype=np.uint8)
        ia, ib = VectorEngine(space).round_robin_pairs(6, include_self=True)
        # Blocks of 7 rounds: the complement must hold across block edges too.
        with mock.patch.object(vector_engine, "_BLOCK_BYTES", 7 * 2 * ia.size):
            noisy = _batch_games(engine_cls, payoff, mat, ia, ib, space, NoiseModel(1.0))
        clean = _batch_games(engine_cls, payoff, 1 - mat, ia, ib, space, NO_NOISE)
        assert np.array_equal(noisy, clean)

    @pytest.mark.parametrize("memory", range(1, 7))
    @pytest.mark.parametrize(
        "play", [partial(play_ipd, record_moves=True), play_ipd_lookup], ids=["scalar", "lookup"]
    )
    def test_scalar_engines(self, memory, play):
        space = StateSpace(memory)
        mat = np.random.default_rng(memory).integers(0, 2, (4, space.n_states), dtype=np.uint8)
        ia, ib = np.array([0, 1, 2, 3]), np.array([1, 2, 3, 3])
        noisy = _scalar_games(play, mat, ia, ib, space, NoiseModel(1.0))
        clean = _scalar_games(play, 1 - mat, ia, ib, space, NO_NOISE)
        assert np.array_equal(noisy, clean)


def _flips(rate, sizes, rounds, seed, block):
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    rngs = [np.random.default_rng([seed, s]) for s in range(len(sizes))]
    return np.concatenate(list(_segment_flips(rngs, bounds, rounds, rate, block))), rngs


def _within(count, trials, rate):
    """``count`` of ``trials`` Bernoulli(rate) events lies within 6 sigma of its mean."""
    return abs(count - trials * rate) <= 6 * np.sqrt(trials * rate * (1 - rate))


class TestTheFlipsAreBernoulli:
    SIZES, ROUNDS = [250] * 8, 200  # 4 000 seats a round

    @pytest.mark.parametrize("rate", [1e-3, 0.01, 0.3, 0.5])
    def test_counts_overall_per_seat_and_per_round(self, rate):
        flips, _ = _flips(rate, self.SIZES, self.ROUNDS, seed=int(rate * 1e6), block=self.ROUNDS)
        games = sum(self.SIZES)
        assert _within(flips.sum(), flips.size, rate)
        for seat in (0, 1):
            assert _within(flips[:, seat].sum(), flips[:, seat].size, rate)
        per_round = flips.reshape(self.ROUNDS, -1).sum(axis=1)
        assert all(_within(count, 2 * games, rate) for count in per_round)

    @pytest.mark.parametrize("rate", [1e-3, 0.01, 0.3, 0.5])
    def test_seats_flip_independently(self, rate):
        seed = 7 + int(rate * 1e6)
        flips, _ = _flips(rate, self.SIZES, self.ROUNDS, seed=seed, block=self.ROUNDS)
        a, b = flips[:, 0].ravel().astype(float), flips[:, 1].ravel().astype(float)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 6 / np.sqrt(a.size)

    def test_certain_noise_flips_everything_and_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        (flips,) = _segment_flips([rng], [0, 5], 4, 1.0, 4)
        assert flips.shape == (4, 2, 5) and flips.all()
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("rate", [1e-3, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("block", [1, 7, 200])
    def test_blocking_moves_no_flip_and_no_draw(self, rate, block):
        whole, whole_rngs = _flips(rate, [3, 0, 63], 200, seed=5, block=200)
        blocked, blocked_rngs = _flips(rate, [3, 0, 63], 200, seed=5, block=block)
        assert np.array_equal(whole, blocked)
        states = [rng.bit_generator.state for rng in whole_rngs]
        assert states == [rng.bit_generator.state for rng in blocked_rngs]


class TestEveryEngineEndsInOneState:
    """One game, one generator: every engine leaves it where the others do."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    @pytest.mark.parametrize("memory", [1, 3])
    def test_one_game(self, memory, mixed):
        space = StateSpace(memory)
        setup = np.random.default_rng(memory)
        if mixed:
            mat = setup.random((2, space.n_states))
        else:
            mat = setup.integers(0, 2, size=(2, space.n_states), dtype=np.uint8)
        noise = NoiseModel(0.05)
        outcomes, states = [], []
        for play in (play_ipd, play_ipd_lookup):
            rng = np.random.default_rng(11)
            res = play(Strategy(space, mat[0]), Strategy(space, mat[1]), rounds=ROUNDS,
                       noise=noise, rng=rng)
            outcomes.append((res.fitness_a, res.fitness_b))
            states.append(rng.bit_generator.state)
        for engine_cls in (BatchEngine, VectorEngine):
            rng = np.random.default_rng(11)
            engine = engine_cls(space, rounds=ROUNDS, noise=noise)
            # Blocks of 7 rounds: a block ends mid-game.
            with mock.patch.object(vector_engine, "_BLOCK_BYTES", 7 * 2):
                res = engine.play(mat, np.array([0]), np.array([1]), rng=rng)
            outcomes.append((res.fitness_a[0], res.fitness_b[0]))
            states.append(rng.bit_generator.state)
        assert all(outcome == outcomes[0] for outcome in outcomes)
        assert all(state == states[0] for state in states)
