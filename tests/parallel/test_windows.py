"""The star's windows against the serial oracle.

A frame closes every generation up to the cap, deciding its PC events on
Nature's replica on the way.  A window costs each worker one heartbeat.
The corner cases are where a window is shortest, longest or last: a PC
every generation, a PC on a cap boundary, no PC at all, a PC on the final
generation, a one-generation run — and eager play, whose slates must still
see the population one generation at a time.  Only an eager run has
workers, so the runs that count a worker's heartbeats are eager.
"""

import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.game.noise import NoiseModel
from repro.mpi.faults import FaultEvent, FaultPlan, FaultRecord
from repro.obs.stream import EventTap
from repro.parallel import runner
from repro.parallel.decomposition import SSetDecomposition
from repro.parallel.runner import ParallelSimulation
from repro.population.dynamics import EvolutionDriver
from repro.population.fitness import FitnessEvaluator
from repro.population.observers import HistoryObserver
from repro.rng import StreamFactory

BACKENDS = ["thread", pytest.param("process", marks=pytest.mark.procexec)]


def serial(cfg):
    seen = HistoryObserver()
    result = EvolutionDriver(cfg, observers=[seen]).run()
    return result, seen.records


def assert_matches_serial(cfg, n_ranks, backend, **kwargs):
    expected, _ = serial(cfg)
    par = ParallelSimulation(cfg, n_ranks=n_ranks, backend=backend, **kwargs).run(timeout=300)
    assert np.array_equal(par.matrix, expected.population.matrix())
    assert (par.n_pc_events, par.n_adoptions, par.n_mutations) == (
        expected.n_pc_events, expected.n_adoptions, expected.n_mutations
    )
    return par


@pytest.mark.parametrize("backend", BACKENDS)
class TestWindowEdges:
    def test_an_eager_pc_every_generation_cuts_no_window(self, backend):
        """Eager: Nature decides each PC on its own replica, so no owner's
        reply is awaited and the run is one window."""
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=30, seed=4, pc_rate=1.0, rounds=10
        )
        par = assert_matches_serial(cfg, 3, backend, eager_games=True)
        assert par.n_pc_events == cfg.generations
        assert par.counters["heartbeat"].calls == 1 * 2

    def test_no_pc_means_no_fitness_message(self, backend):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=50, seed=4, pc_rate=0.0, mutation_rate=0.3
        )
        par = assert_matches_serial(cfg, 3, backend, eager_games=True)
        assert par.counters["heartbeat"].calls == 1 * 2  # one window

    def test_pc_on_the_final_generation_closes_in_the_last_frame(self, backend):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=25, seed=2, pc_rate=0.2, mutation_rate=0.5
        )
        final = serial(cfg)[1][-1]
        assert final.pc.adopted and final.mutation is not None and final.changed
        assert_matches_serial(cfg, 3, backend)

    def test_single_generation(self, backend):
        for pc_rate in (0.0, 1.0):
            cfg = SimulationConfig(
                memory=1, n_ssets=4, generations=1, seed=7, pc_rate=pc_rate, mutation_rate=1.0
            )
            assert_matches_serial(cfg, 2, backend)

    def test_more_workers_than_ssets(self, backend):
        cfg = SimulationConfig(memory=1, n_ssets=3, generations=40, seed=6, pc_rate=0.3)
        assert_matches_serial(cfg, 6, backend)
        assert_matches_serial(cfg, 6, backend, eager_games=True)


@pytest.mark.parametrize("backend", [*BACKENDS, pytest.param("tcp", marks=pytest.mark.tcp)])
def test_a_lazy_run_with_a_pc_every_generation_fills_its_windows_to_the_cap(backend):
    """Nature decides every PC itself, so only the cap cuts a window — here
    right after a PC on each cap boundary."""
    cfg = SimulationConfig(
        memory=1, n_ssets=6, generations=2 * runner._WINDOW_CAP + 10, seed=4, pc_rate=1.0
    )
    records = serial(cfg)[1]
    assert all(records[k * runner._WINDOW_CAP - 1].pc is not None for k in (1, 2))
    par = assert_matches_serial(cfg, 3, backend, eager_games=True)
    assert par.n_pc_events == cfg.generations
    assert par.counters["heartbeat"].calls == 3 * 2  # three windows, two workers


def test_a_names_only_tap_still_reads_every_generation():
    """It reports ``enabled`` False (nothing per message) yet wants the spans."""
    cfg = SimulationConfig(memory=1, n_ssets=6, generations=30, seed=4)
    gens = []
    tap = EventTap(
        [lambda e: e.rank == 0 and gens.append(e.args["gen"])],
        keep_events=False, names=("generation",),
    )
    assert_matches_serial(cfg, 3, "thread", trace=tap)
    assert gens == list(range(1, cfg.generations + 1))


class TestSparseReplay:
    """Every worker visits every generation of a window, events or not, so an
    armed fault point fires on a quiet one."""

    CFG = SimulationConfig(memory=1, n_ssets=6, generations=60, seed=4)
    EVERY = 20  # checkpoints cut the run into three windows

    def test_an_armed_crash_fires_on_a_generation_without_events(self, tmp_path):
        """The worker dies at its fault point though no event names that
        generation; Nature sees it at the end of the window holding it."""
        records = serial(self.CFG)[1]
        quiet = next(r.generation for r in records[25:] if not (r.pc or r.mutation))
        plan = FaultPlan(seed=1, events=(FaultEvent(kind="crash", rank=2, generation=quiet),))
        par = assert_matches_serial(
            self.CFG, 3, "thread", eager_games=True, fault_plan=plan, heartbeat_timeout=2.0,
            checkpoint_dir=tmp_path, checkpoint_every=self.EVERY,
        )
        assert par.fault_events == (FaultRecord(kind="crash", rank=2, generation=quiet),)
        end = -(-quiet // self.EVERY) * self.EVERY
        assert [(d.rank, d.generation) for d in par.degradations] == [(2, end)]


EAGER = SimulationConfig(
    memory=2, n_ssets=7, generations=24, seed=5, rounds=10, strategy_kind="mixed",
    noise=NoiseModel(0.01), include_self_play=True, pc_rate=0.2, mutation_rate=0.3,
)


def record_eager_slates(monkeypatch):
    """Log every slate played from here on; the returned callable hands
    back ``{(generation, sset): (fitness, end state of its stream)}`` and
    starts the log afresh."""
    played, rngs = {}, {}
    fresh, play_slates = StreamFactory.fresh, FitnessEvaluator.play_slates

    def recording_fresh(self, *key):
        rng = fresh(self, *key)
        if key[0] == "fitness":
            rngs[key[1:]] = rng
        return rng

    def recording_play(self, ssets, generation):
        fitness = play_slates(self, ssets, generation)
        played.update({(generation, int(s)): f for s, f in zip(ssets, fitness)})
        return fitness

    monkeypatch.setattr(StreamFactory, "fresh", recording_fresh)
    monkeypatch.setattr(FitnessEvaluator, "play_slates", recording_play)

    def snapshot():
        log = {key: (played[key], rngs[key].bit_generator.state) for key in played}
        played.clear()
        rngs.clear()
        return log

    return snapshot


class TestEagerPlayInsideAWindow:
    """A slate of generation ``g`` draws from ``("fitness", g, sset)`` against
    the population as ``g - 1`` left it — per generation, as the unwindowed
    protocol played it — though the frame that carried ``g - 1`` carried more."""

    def test_slates_are_the_per_generation_ones(self, monkeypatch):
        snapshot = record_eager_slates(monkeypatch)
        # The oracle: before each serial step, every SSet's slate against the
        # population the generation before left.
        driver = EvolutionDriver(EAGER)
        for gen in range(1, EAGER.generations + 1):
            driver.evaluator.play_slates(range(EAGER.n_ssets), gen)
            driver.step()
        expected = snapshot()
        assert len(expected) == EAGER.generations * EAGER.n_ssets

        par = ParallelSimulation(EAGER, n_ranks=3, eager_games=True).run(timeout=300)
        assert snapshot() == expected
        assert np.array_equal(par.matrix, driver.population.matrix())
        assert par.n_pc_events == driver.nature.n_pc_events > 0
        decomp = SSetDecomposition(EAGER.n_ssets, 3)
        assert par.games_played_per_rank == tuple(
            decomp.ssets_of_rank(rank).size * EAGER.opponents_per_sset * EAGER.generations
            for rank in range(3)
        )

    @pytest.mark.procexec
    def test_process_ranks_play_the_same_games(self):
        threaded = assert_matches_serial(EAGER, 3, "thread", eager_games=True)
        processed = assert_matches_serial(EAGER, 3, "process", eager_games=True)
        assert processed.games_played_per_rank == threaded.games_played_per_rank


class TestFitnessDeadline:
    """Nature's wait for an eager window's reports is ``heartbeat_timeout``
    per generation: a worker plays every generation of the window before it
    reports, and the window runs to the cap or the next checkpoint."""

    def test_a_long_eager_window_finishes_within_the_scaled_deadline(self, monkeypatch):
        # One 24-generation window whose slates take ~1.2 s, PC generation
        # 21 included: well past one heartbeat_timeout.
        cfg = SimulationConfig(memory=1, n_ssets=4, generations=24, seed=5, pc_rate=0.02, rounds=5)
        assert [r.generation for r in serial(cfg)[1] if r.pc is not None] == [21]
        play_slates = FitnessEvaluator.play_slates

        def slow_play(self, ssets, generation):
            time.sleep(0.05)
            return play_slates(self, ssets, generation)

        monkeypatch.setattr(FitnessEvaluator, "play_slates", slow_play)
        par = assert_matches_serial(cfg, 2, "thread", eager_games=True, heartbeat_timeout=0.5)
        assert par.failed_ranks == ()
        assert par.counters["heartbeat"].calls == 1
