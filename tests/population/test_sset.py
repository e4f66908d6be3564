"""Tests for the object-level StrategySet API."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.game.noise import NoiseModel
from repro.game.states import StateSpace
from repro.game.strategy import named_strategy
from repro.game.vector_engine import VectorEngine
from repro.population.fitness import FitnessEvaluator
from repro.population.population import Population
from repro.population.schedule import OpponentSchedule
from repro.population.sset import StrategySet
from repro.rng import StreamFactory


@pytest.fixture
def setup():
    sp = StateSpace(1)
    tables = np.vstack(
        [named_strategy("ALLC").table, named_strategy("ALLD").table,
         named_strategy("TFT").table, named_strategy("WSLS").table]
    )
    assignment = np.arange(4)
    schedule = OpponentSchedule(n_ssets=4, agents_per_sset=2)
    engine = VectorEngine(sp, rounds=200)
    return tables, assignment, schedule, engine


class TestConstruction:
    def test_id_range_checked(self, setup):
        _, _, schedule, _ = setup
        with pytest.raises(PopulationError):
            StrategySet(4, schedule)

    def test_n_agents(self, setup):
        _, _, schedule, _ = setup
        assert StrategySet(0, schedule).n_agents == 2


class TestPlayGeneration:
    def test_fitness_matches_manual_sum(self, setup):
        tables, assignment, schedule, engine = setup
        sset = StrategySet(2, schedule)  # TFT
        fitness = sset.play_generation(engine, assignment, tables)
        # TFT vs ALLC 600, vs ALLD 199, vs WSLS 600.
        assert fitness == 600 + 199 + 600
        assert sset.last_fitness == fitness

    def test_per_agent_reports_partition_fitness(self, setup):
        tables, assignment, schedule, engine = setup
        sset = StrategySet(0, schedule)  # ALLC
        total, reports = sset.play_generation(
            engine, assignment, tables, per_agent=True
        )
        assert sum(r.fitness for r in reports) == total
        covered = sorted(int(o) for r in reports for o in r.opponents)
        assert covered == [1, 2, 3]

    def test_opponent_accessors(self, setup):
        _, _, schedule, _ = setup
        sset = StrategySet(1, schedule)
        assert sset.opponents().tolist() == [0, 2, 3]
        agent0 = sset.agent_opponents(0).tolist()
        agent1 = sset.agent_opponents(1).tolist()
        assert sorted(agent0 + agent1) == [0, 2, 3]

    def test_repr(self, setup):
        _, _, schedule, _ = setup
        assert "StrategySet(id=1" in repr(StrategySet(1, schedule))


@pytest.mark.parametrize("include_self_play", [False, True])
def test_play_generation_reproduces_the_evaluator_under_noise(include_self_play):
    """The docstring's promise, held to: on the evaluator's keyed stream,
    ``play_generation`` returns the evaluator's fitness.  With self-play the
    two used to order the slate differently (self in position order vs self
    last), so the same stream flipped different games: 3786 vs 3866 here
    under the per-round flip draws that preceded the gap-sampled schedule."""
    cfg = SimulationConfig(
        memory=2, n_ssets=8, noise=NoiseModel(0.05), seed=5,
        include_self_play=include_self_play,
    )
    streams = StreamFactory(cfg.seed)
    pop = Population.random(cfg, streams.fresh("init"))
    evaluator = FitnessEvaluator(cfg, pop, streams)
    schedule = OpponentSchedule(cfg.n_ssets, cfg.n_ssets, include_self=include_self_play)
    for sset in range(cfg.n_ssets):
        played = StrategySet(sset, schedule).play_generation(
            evaluator.engine, pop.assignment(), pop.tables_view(),
            rng=streams.fresh("fitness", 2, sset),
        )
        assert played == evaluator.fitness([sset], 2)[0]
    if include_self_play:
        # The stored trajectories' value under the flip schedule (3866.0 under per-round draws).
        assert evaluator.fitness([3], 2)[0] == 3943.0
