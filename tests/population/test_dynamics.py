"""Tests for the serial evolution driver."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.game.strategy import named_strategy
from repro.population.dynamics import EvolutionDriver
from repro.population.observers import HistoryObserver, SnapshotObserver
from repro.population.population import Population


class TestBasicRun:
    def test_runs_configured_generations(self, small_config):
        result = EvolutionDriver(small_config).run()
        assert result.generation == small_config.generations

    def test_population_size_constant(self, small_config):
        """The paper: 'the overall population size remains constant'."""
        driver = EvolutionDriver(small_config)
        driver.run()
        assert driver.population.n_ssets == small_config.n_ssets
        driver.population.check_invariants()

    def test_incremental_runs_continue_trajectory(self, small_config):
        one_shot = EvolutionDriver(small_config).run()
        stepped = EvolutionDriver(small_config)
        stepped.run(20)
        stepped.run(30)
        assert np.array_equal(
            one_shot.population.matrix(), stepped.population.matrix()
        )

    def test_same_seed_reproducible(self, small_config):
        a = EvolutionDriver(small_config).run()
        b = EvolutionDriver(small_config).run()
        assert np.array_equal(a.population.matrix(), b.population.matrix())
        assert a.n_pc_events == b.n_pc_events

    def test_different_seeds_differ(self, small_config):
        a = EvolutionDriver(small_config).run()
        b = EvolutionDriver(small_config.with_updates(seed=small_config.seed + 1)).run()
        assert not np.array_equal(a.population.matrix(), b.population.matrix())

    def test_negative_generations_rejected(self, small_config):
        with pytest.raises(PopulationError):
            EvolutionDriver(small_config).run(-1)

    def test_result_counters_consistent(self, small_config):
        result = EvolutionDriver(small_config).run()
        assert result.n_adoptions <= result.n_pc_events
        assert result.elapsed_seconds >= 0


class TestEventEffects:
    def test_no_events_no_change(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=50, pc_rate=0.0, mutation_rate=0.0, seed=1
        )
        driver = EvolutionDriver(cfg)
        before = driver.population.matrix()
        driver.run()
        assert np.array_equal(driver.population.matrix(), before)

    def test_strong_selection_purifies_population(self):
        """With PC every generation and no mutation, diversity collapses."""
        cfg = SimulationConfig(
            memory=1, n_ssets=8, generations=400, pc_rate=1.0,
            mutation_rate=0.0, beta=10.0, seed=3,
        )
        driver = EvolutionDriver(cfg)
        start_unique = driver.population.n_unique
        driver.run()
        assert driver.population.n_unique < start_unique

    def test_mutation_only_keeps_reshuffling(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=200, pc_rate=0.0, mutation_rate=1.0, seed=2
        )
        driver = EvolutionDriver(cfg)
        history = HistoryObserver()
        driver.add_observer(history)
        driver.run()
        assert history.n_mutations == 200
        assert history.n_adoptions == 0

    def test_alld_teacher_spreads_against_allc(self):
        """A known selection gradient: ALLD exploits ALLC, so with the
        paper's PC rule the ALLD strategy must spread when chosen teacher."""
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=300, pc_rate=1.0,
            mutation_rate=0.0, beta=10.0, seed=5,
        )
        matrix = np.vstack([named_strategy("ALLD").table] + [named_strategy("ALLC").table] * 5)
        pop = Population(cfg, matrix)
        driver = EvolutionDriver(cfg, population=pop)
        driver.run()
        final = driver.population.matrix()
        alld_rows = (final == named_strategy("ALLD").table).all(axis=1).sum()
        assert alld_rows == 6  # full takeover


class TestObservers:
    def test_history_records_every_generation(self, small_config):
        history = HistoryObserver()
        EvolutionDriver(small_config, observers=[history]).run()
        assert len(history.records) == small_config.generations
        assert [r.generation for r in history.records] == list(
            range(1, small_config.generations + 1)
        )

    def test_snapshot_cadence(self, small_config):
        snaps = SnapshotObserver(every=10)
        EvolutionDriver(small_config, observers=[snaps]).run()
        assert [g for g, _ in snaps.snapshots] == [10, 20, 30, 40, 50]

    def test_snapshot_latest(self, small_config):
        snaps = SnapshotObserver(every=25)
        EvolutionDriver(small_config, observers=[snaps]).run()
        gen, matrix = snaps.latest()
        assert gen == 50
        assert matrix.shape == (small_config.n_ssets, 4)

    def test_snapshot_latest_empty_raises(self):
        with pytest.raises(LookupError):
            SnapshotObserver().latest()

    def test_population_config_mismatch_rejected(self, small_config):
        pop = Population.uniform(
            small_config.with_updates(n_ssets=16), named_strategy("ALLC")
        )
        with pytest.raises(PopulationError):
            EvolutionDriver(small_config, population=pop)


class TestOneDraftLoop:
    """step() and run() are both EvolutionDriver.draft: one loop, one trajectory."""

    BUSY = dict(pc_rate=0.6, mutation_rate=0.3, generations=120)

    def test_unwatched_run_is_the_stepped_run(self, small_config):
        cfg = small_config.with_updates(**self.BUSY)
        drafted = EvolutionDriver(cfg).run()
        stepped = EvolutionDriver(cfg, observers=[HistoryObserver()]).run()
        assert np.array_equal(drafted.population.matrix(), stepped.population.matrix())
        counters = ("generation", "n_pc_events", "n_adoptions", "n_mutations")
        assert [getattr(drafted, c) for c in counters] == [getattr(stepped, c) for c in counters]

    def test_records_are_the_drafted_events(self, small_config):
        """A window's news is every step record's PC and mutation, in order,
        and a record is ``changed`` exactly when the population's version moved."""
        cfg = small_config.with_updates(**self.BUSY)
        stepper = EvolutionDriver(cfg)
        records, versions = [], [stepper.population.version]
        for _ in range(cfg.generations):
            records.append(stepper.step())
            versions.append(stepper.population.version)
        events: list = []
        EvolutionDriver(cfg).draft(cfg.generations, events)
        expected = [(r.generation, e) for r in records for e in (r.pc, r.mutation) if e is not None]
        assert [(g, type(e)) for g, e in events] == [(g, type(e)) for g, e in expected]
        for (_, got), (_, want) in zip(events, expected):
            if hasattr(want, "table"):
                assert got.sset == want.sset and np.array_equal(got.table, want.table)
            else:
                assert got == want
        assert [r.changed for r in records] == [b != a for a, b in zip(versions, versions[1:])]
        assert any(r.changed for r in records) and not all(r.changed for r in records)

    def test_turn_is_taken_before_each_pc(self, small_config):
        cfg = small_config.with_updates(**self.BUSY)
        driver = EvolutionDriver(cfg)
        turns: list[int] = []
        events: list = []
        driver.draft(cfg.generations, events, turn=lambda: turns.append(len(events)))
        decided = [i for i, (_, e) in enumerate(events) if hasattr(e, "adopted")]
        assert turns == decided and len(turns) == driver.nature.n_pc_events > 0


class TestFitnessModeEquivalence:
    """For pure noiseless populations every mode yields one trajectory."""

    @pytest.mark.parametrize("mode", ["sampled", "expected"])
    def test_modes_agree_with_auto(self, small_config, mode):
        base = EvolutionDriver(small_config).run()
        alt = EvolutionDriver(small_config.with_updates(fitness_mode=mode)).run()
        assert np.array_equal(base.population.matrix(), alt.population.matrix())
