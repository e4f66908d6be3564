"""Tests for SimulationConfig validation and derived quantities."""

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError


class TestDefaultsFollowPaper:
    def test_paper_rates(self):
        cfg = SimulationConfig()
        assert cfg.rounds == 200          # §V-C
        assert cfg.pc_rate == 0.1         # §V-C
        assert cfg.mutation_rate == 0.05  # §V-C
        assert cfg.payoff.as_fRSTP() == (3.0, 0.0, 4.0, 1.0)


class TestDerived:
    def test_opponents_per_sset(self):
        assert SimulationConfig(n_ssets=6).opponents_per_sset == 5
        assert SimulationConfig(n_ssets=6, include_self_play=True).opponents_per_sset == 6

    def test_deterministic_games(self):
        from repro.game.noise import NoiseModel

        assert SimulationConfig().deterministic_games
        assert not SimulationConfig(strategy_kind="mixed").deterministic_games
        assert not SimulationConfig(noise=NoiseModel(0.1)).deterministic_games

    def test_resolved_fitness_mode(self):
        assert SimulationConfig().resolved_fitness_mode == "deterministic"
        assert SimulationConfig(strategy_kind="mixed").resolved_fitness_mode == "sampled"
        assert (
            SimulationConfig(fitness_mode="expected").resolved_fitness_mode == "expected"
        )
        assert SimulationConfig(fitness_mode="sampled").resolved_fitness_mode == "sampled"

    def test_space(self):
        assert SimulationConfig(memory=3).space.n_states == 64

    def test_with_updates_revalidates(self):
        cfg = SimulationConfig()
        with pytest.raises(ConfigError):
            cfg.with_updates(pc_rate=2.0)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(memory=0),
            dict(memory=7),
            dict(n_ssets=1),
            dict(generations=-1),
            dict(rounds=0),
            dict(pc_rate=-0.1),
            dict(pc_rate=1.1),
            dict(mutation_rate=2.0),
            dict(beta=-1.0),
            dict(beta=float("nan")),
            dict(strategy_kind="fuzzy"),
            dict(pc_rule="maybe"),
            dict(fitness_mode="guess"),
            dict(mutation_distribution="normal"),
            dict(seed="abc"),
            dict(noise=0.01),
            dict(payoff=(3, 0, 4, 1)),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SimulationConfig(**kwargs)

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(AttributeError):
            cfg.memory = 3
