"""Tests for the three fitness-evaluation modes."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.game.noise import NoiseModel
from repro.game.strategy import named_strategy
from repro.game.vector_engine import VectorEngine
from repro.population.fitness import FitnessEvaluator
from repro.population.population import Population
from repro.population.schedule import opponent_rows
from repro.rng import StreamFactory


def make(config):
    streams = StreamFactory(config.seed)
    pop = Population.random(config, streams.fresh("init"))
    return pop, FitnessEvaluator(config, pop, streams), streams


class TestDeterministicMode:
    def test_mode_resolution(self, small_config):
        _, ev, _ = make(small_config)
        assert ev.mode == "deterministic"

    def test_matches_direct_round_robin(self, small_config):
        pop, ev, _ = make(small_config)
        fitness = ev.all_fitness(generation=1)
        engine = VectorEngine(small_config.space, rounds=small_config.rounds)
        matrix = pop.matrix()
        expected = []
        for i in range(pop.n_ssets):
            opponents = [j for j in range(pop.n_ssets) if j != i]
            ia = np.full(len(opponents), i, dtype=np.intp)
            ib = np.array(opponents, dtype=np.intp)
            expected.append(float(engine.play(matrix, ia, ib).fitness_a.sum()))
        assert np.allclose(fitness, expected)

    def test_repeat_queries_hit_memo(self, small_config):
        _, ev, _ = make(small_config)
        ev.fitness([0, 1], generation=1)
        computed = ev.pairs_computed
        ev.fitness([0, 1], generation=2)
        assert ev.pairs_computed == computed

    def test_mutation_invalidates_row(self, small_config):
        """A new strategy's row is played whole by the next query, whichever
        SSets it asks: then no query misses its column."""
        pop, ev, _ = make(small_config)
        ev.all_fitness(generation=1)
        computed = ev.pairs_computed
        table = 1 - pop.table_of(1)
        assert not any(np.array_equal(table, pop.table_of(s)) for s in range(pop.n_ssets))
        pop.set_strategy(1, table)
        ev.fitness([0], generation=2)
        # The new slot's row against every live slot, its self-pair included.
        assert ev.pairs_computed == computed + pop.live_slots().size
        computed = ev.pairs_computed
        got = ev.all_fitness(generation=3)
        assert ev.pairs_computed == computed
        assert np.array_equal(got, FitnessEvaluator(small_config, pop).all_fitness(3))

    def test_a_failed_fill_leaves_no_unplayed_pair_marked_played(self, small_config, monkeypatch):
        """A request marks its pairs played before the kernel runs; if an SSet
        is unknown or the call raises, the next request still answers what a
        fresh evaluator does."""
        pop, ev, _ = make(small_config)
        ev.fitness([0], generation=1)
        with pytest.raises(PopulationError):
            ev.fitness([1, small_config.n_ssets], generation=1)

        def fail(*args, **kwargs):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(ev.engine, "play", fail)
        with pytest.raises(RuntimeError):
            ev.all_fitness(generation=1)
        monkeypatch.undo()
        want = FitnessEvaluator(small_config, pop).all_fitness(generation=1)
        assert np.array_equal(ev.all_fitness(generation=1), want)

    def test_mutated_opponent_changes_fitness(self):
        cfg = SimulationConfig(memory=1, n_ssets=3, seed=0)
        pop = Population.uniform(cfg, named_strategy("ALLC"))
        ev = FitnessEvaluator(cfg, pop, StreamFactory(0))
        before = ev.fitness([0], 1)[0]
        pop.set_strategy(1, named_strategy("ALLD").table.copy())
        after = ev.fitness([0], 2)[0]
        assert before == 2 * 200 * 3
        assert after == 200 * 3 + 0  # one ALLC opponent, one ALLD opponent

    def test_include_self_play_adds_self_game(self):
        cfg = SimulationConfig(memory=1, n_ssets=4, seed=1, include_self_play=True)
        cfg_no = cfg.with_updates(include_self_play=False)
        pop, ev, _ = make(cfg)
        pop_no, ev_no, _ = make(cfg_no)
        assert np.array_equal(pop.matrix(), pop_no.matrix())
        with_self = ev.fitness([0], 1)[0]
        without = ev_no.fitness([0], 1)[0]
        assert with_self >= without

    def test_monomorphic_population_fitness(self):
        cfg = SimulationConfig(memory=1, n_ssets=5, seed=0)
        pop = Population.uniform(cfg, named_strategy("ALLC"))
        ev = FitnessEvaluator(cfg, pop, StreamFactory(0))
        # Every SSet plays 4 opponents of ALLC: 4 * 200 * 3.
        assert np.allclose(ev.all_fitness(1), 4 * 200 * 3)


class TestExpectedMode:
    def test_equals_deterministic_for_pure(self, small_config):
        cfg_exp = small_config.with_updates(fitness_mode="expected")
        _, ev_det, _ = make(small_config)
        _, ev_exp, _ = make(cfg_exp)
        assert np.allclose(ev_det.all_fitness(1), ev_exp.all_fitness(1))

    def test_mixed_expected_deterministic(self, mixed_config):
        cfg = mixed_config.with_updates(fitness_mode="expected")
        _, ev1, _ = make(cfg)
        _, ev2, _ = make(cfg)
        assert np.array_equal(ev1.all_fitness(1), ev2.all_fitness(1))

    def test_noise_accepted(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=4, seed=0, noise=NoiseModel(0.05), fitness_mode="expected"
        )
        _, ev, _ = make(cfg)
        assert ev.mode == "expected"
        assert np.all(np.isfinite(ev.all_fitness(1)))


class TestSampledMode:
    def test_mode_resolution_for_mixed(self, mixed_config):
        _, ev, _ = make(mixed_config)
        assert ev.mode == "sampled"

    def test_same_generation_same_sample(self, mixed_config):
        _, ev, _ = make(mixed_config)
        a = ev.fitness([0, 1], generation=5)
        b = ev.fitness([0, 1], generation=5)
        assert np.array_equal(a, b)

    def test_different_generations_differ(self, mixed_config):
        _, ev, _ = make(mixed_config)
        a = ev.fitness([0], generation=1)
        b = ev.fitness([0], generation=2)
        assert a[0] != b[0]

    def test_pure_sampled_equals_deterministic(self, small_config):
        cfg = small_config.with_updates(fitness_mode="sampled")
        _, ev_s, _ = make(cfg)
        _, ev_d, _ = make(small_config)
        assert np.allclose(ev_s.all_fitness(1), ev_d.all_fitness(1))

    def test_needs_streams(self, mixed_config):
        pop = Population.random(mixed_config, StreamFactory(9).fresh("init"))
        with pytest.raises(PopulationError):
            FitnessEvaluator(mixed_config, pop, streams=None)


@pytest.mark.engine
@pytest.mark.parametrize("include_self_play", [False, True])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_sampled_all_fitness_is_each_sset_asked_alone(kind, include_self_play):
    """One kernel call for every slate, yet each on its own keyed stream: the
    batch returns what asking SSet by SSet returns, and plays as many games."""
    cfg = SimulationConfig(
        memory=2, n_ssets=7, seed=11, rounds=40, noise=NoiseModel(0.05),
        strategy_kind=kind, include_self_play=include_self_play,
    )
    streams = StreamFactory(cfg.seed)
    pop = Population.random(cfg, streams.fresh("init"))
    together = FitnessEvaluator(cfg, pop, streams)
    alone = FitnessEvaluator(cfg, pop, streams)
    for generation in (1, 2):
        batch = together.all_fitness(generation)
        single = [alone.fitness([s], generation)[0] for s in range(cfg.n_ssets)]
        assert batch.tolist() == single
    assert together.engine.games_played == alone.engine.games_played
    assert together.engine.games_played == 2 * cfg.n_ssets * cfg.opponents_per_sset


@pytest.mark.parametrize("include_self_play", [False, True])
def test_sampled_fitness_is_its_opponent_rows_slate_on_its_keyed_stream(include_self_play):
    """An SSet's noisy fitness is its ``opponent_rows`` slate (self last)
    played in one call on the ``("fitness", generation, sset)`` stream.  With
    self-play, ordering self in position order instead flips different games
    of the same stream: 3786 vs 3866 here under the per-round flip draws that
    preceded the gap-sampled schedule."""
    cfg = SimulationConfig(
        memory=2, n_ssets=8, noise=NoiseModel(0.05), seed=5,
        include_self_play=include_self_play,
    )
    streams = StreamFactory(cfg.seed)
    pop = Population.random(cfg, streams.fresh("init"))
    evaluator = FitnessEvaluator(cfg, pop, streams)
    assignment = pop.assignment()
    for sset in range(cfg.n_ssets):
        opponents = opponent_rows(cfg.n_ssets, [sset], include_self_play)[0]
        ia = np.full(opponents.size, assignment[sset], dtype=np.intp)
        played = evaluator.engine.play(
            pop.tables_view(), ia, assignment[opponents],
            rng=streams.fresh("fitness", 2, sset),
        )
        assert float(played.fitness_a.sum()) == evaluator.fitness([sset], 2)[0]
    if include_self_play:
        # The stored trajectories' value under the flip schedule (3866.0 under per-round draws).
        assert evaluator.fitness([3], 2)[0] == 3943.0


class TestConfigMismatch:
    def test_population_config_must_match(self, small_config):
        pop = Population.random(small_config, StreamFactory(0).fresh("init"))
        other = small_config.with_updates(n_ssets=16)
        with pytest.raises(PopulationError):
            FitnessEvaluator(other, pop, StreamFactory(0))


@pytest.mark.parametrize("n_ssets", [2, 7, 9])
@pytest.mark.parametrize("mode", ["deterministic", "expected"])
def test_memo_answers_what_a_fresh_evaluator_answers(mode, n_ssets):
    """A seeded run of adoptions, mutations and queries: whatever slots were
    reused and rows filled, the memo answers each query as an evaluator
    built on the spot does.  Deterministic payoffs are integers, so the two
    agree bit for bit.  An expected-mode entry may have been filled as the
    mirrored payoff of a pair played from the other slot's row, which can
    differ from the direct one in the last bits; a stale entry would be off
    by a whole game, so a 1e-12 tolerance still catches every wrong one."""
    cfg = SimulationConfig(memory=2, n_ssets=n_ssets, seed=n_ssets, rounds=60)
    if mode == "expected":
        cfg = cfg.with_updates(noise=NoiseModel(0.02), fitness_mode="expected")
    streams = StreamFactory(cfg.seed)
    pop = Population.random(cfg, streams.fresh("init"))
    memo = FitnessEvaluator(cfg, pop, streams)
    assert memo.mode == mode
    rng = np.random.default_rng(n_ssets)
    for step in range(120):
        action = rng.integers(3)
        if action == 0:
            pop.adopt(int(rng.integers(n_ssets)), int(rng.integers(n_ssets)))
        elif action == 1:
            pop.set_strategy(int(rng.integers(n_ssets)), pop.random_strategy_table(rng))
        else:
            got = memo.all_fitness(step)
            want = FitnessEvaluator(cfg, pop, streams).all_fitness(step)
            if mode == "deterministic":
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert memo.pair_lookups > 0


@pytest.mark.parametrize("include_self_play", [False, True])
@pytest.mark.parametrize("n_ssets", [2, 7, 9])
@pytest.mark.parametrize("mode", ["deterministic", "expected"])
def test_a_request_fills_what_one_query_per_sset_fills(mode, n_ssets, include_self_play):
    """A request's rows are filled together, yet it plays, stores and answers
    exactly what one query per SSet plays, stores and answers: the same bits
    in every memo entry (expected-mode mirrors included), the same counters.
    Each step mutates or adopts and then asks for a pairwise comparison's two
    SSets, so a freshly mutated learner's slot is among the teacher's
    unplayed columns and an adopting learner shares the teacher's slot; now
    and then a cold ``all_fitness`` fills a whole memo in two-row calls."""
    cfg = SimulationConfig(
        memory=2, n_ssets=n_ssets, seed=n_ssets, rounds=60, include_self_play=include_self_play
    )
    if mode == "expected":
        cfg = cfg.with_updates(noise=NoiseModel(0.02), fitness_mode="expected")
    pop = Population.random(cfg, StreamFactory(cfg.seed).fresh("init"))

    def ask(together, alone, ssets, generation):
        got = together.fitness(ssets, generation)
        want = np.array([alone.fitness([s], generation)[0] for s in ssets])
        assert np.array_equal(got, want)
        assert np.array_equal(together._memo, alone._memo, equal_nan=True)
        assert together.pairs_computed == alone.pairs_computed
        assert together.pair_lookups == alone.pair_lookups

    together, alone = FitnessEvaluator(cfg, pop), FitnessEvaluator(cfg, pop)
    assert together.mode == mode
    rng = np.random.default_rng(100 + n_ssets)
    shared = unplayed = 0
    for step in range(150):
        teacher, learner = (int(s) for s in rng.integers(n_ssets, size=2))
        action = rng.integers(4)
        if action == 0:
            pop.adopt(learner, teacher)
        elif action == 1:
            pop.set_strategy(learner, pop.random_strategy_table(rng))
            unplayed += pop.slot_of(learner) != pop.slot_of(teacher)
        elif action == 2:
            cold = [FitnessEvaluator(cfg, pop) for _ in range(2)]
            ask(*cold, range(n_ssets), step)
        shared += pop.slot_of(learner) == pop.slot_of(teacher)
        ask(together, alone, [teacher, learner], step)
    assert shared and unplayed


def _new_tables(pop, rng, k):
    """``k`` random tables, distinct from each other and from every live one."""
    seen = {pop.table_of(s).tobytes() for s in range(pop.n_ssets)}
    tables = []
    while len(tables) < k:
        table = pop.random_strategy_table(rng)
        if table.tobytes() not in seen:
            seen.add(table.tobytes())
            tables.append(table)
    return tables


@pytest.mark.parametrize("mode", ["deterministic", "expected"])
def test_a_burst_of_new_strategies_is_played_by_the_next_query(mode):
    """Every strategy interned since the last query has its whole row played
    by the next one, whatever SSets it asks: each pair among the new slots
    once, each with every other live slot once.  Then no query misses a
    pair."""
    cfg = SimulationConfig(memory=3, n_ssets=12, seed=5, rounds=40)
    if mode == "expected":
        cfg = cfg.with_updates(noise=NoiseModel(0.02), fitness_mode="expected")
    pop = Population.random(cfg, StreamFactory(cfg.seed).fresh("init"))
    ev = FitnessEvaluator(cfg, pop)
    ev.all_fitness(generation=0)
    rng = np.random.default_rng(5)
    for sset, table in zip((2, 7, 9), _new_tables(pop, rng, 3)):
        pop.set_strategy(sset, table)
    new, live = 3, pop.live_slots().size
    computed = ev.pairs_computed
    # A PC between two SSets that kept their strategies.
    answers = ev.fitness([0, 1], generation=1)
    assert ev.pairs_computed - computed == new * live - new * (new - 1) // 2
    computed, lookups = ev.pairs_computed, ev.pair_lookups
    got = ev.all_fitness(generation=2)
    assert ev.pairs_computed == computed
    assert ev.pair_lookups - lookups == pop.n_ssets * live
    want = FitnessEvaluator(cfg, pop).all_fitness(generation=2)
    if mode == "deterministic":
        assert np.array_equal(got, want) and np.array_equal(answers, want[:2])
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_new_rows_split_at_the_lane_cap_answer_what_a_fresh_evaluator_answers(monkeypatch):
    """Three new strategies' rows plus two asked rows exceed ``2 * capacity``
    lanes, so a query plays them in more than one engine call; its answers
    are still a fresh evaluator's, bit for bit."""
    cfg = SimulationConfig(memory=2, n_ssets=10, seed=8, rounds=60)
    pop = Population.random(cfg, StreamFactory(cfg.seed).fresh("init"))
    memo = FitnessEvaluator(cfg, pop)
    widths = []
    play = memo.engine.play

    def counted(tables, ia, ib):
        widths.append(len(ia))
        return play(tables, ia, ib)

    monkeypatch.setattr(memo.engine, "play", counted)
    rng = np.random.default_rng(8)
    split = 0
    for step in range(60):
        action = rng.integers(3)
        teacher, learner = (int(s) for s in rng.permutation(cfg.n_ssets)[:2])
        if action == 0:
            pop.adopt(learner, teacher)
        elif action == 1:
            for table in _new_tables(pop, rng, 3):
                pop.set_strategy(int(rng.integers(cfg.n_ssets)), table)
        del widths[:]
        got = memo.fitness([teacher, learner], step)
        assert max(widths, default=0) <= 2 * pop.capacity
        split += len(widths) > 1
        want = FitnessEvaluator(cfg, pop).fitness([teacher, learner], step)
        assert np.array_equal(got, want)
    assert split
