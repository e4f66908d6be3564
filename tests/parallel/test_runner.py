"""Integration tests: the parallel runner vs the serial driver.

The central correctness claim of the reproduction: at any rank count, the
parallel execution produces a population trajectory *bit-identical* to the
serial driver, because all randomness flows through the same named streams
and all fitness evaluations are deterministic given the population state.
"""

import math

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import MPIError
from repro.game.noise import NoiseModel
from repro.mpi.comm import Comm
from repro.parallel.protocol import WorkerReport
from repro.parallel.runner import _WINDOW_CAP, ParallelSimulation
from repro.population.dynamics import EvolutionDriver


def serial_matrix(cfg):
    return EvolutionDriver(cfg).run().population.matrix()


class TestBitIdenticalTrajectories:
    @pytest.mark.parametrize("n_ranks", [2, 3, 5, 8])
    def test_pure_population(self, n_ranks):
        cfg = SimulationConfig(memory=1, n_ssets=12, generations=200, seed=21)
        par = ParallelSimulation(cfg, n_ranks=n_ranks).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_memory_three(self):
        cfg = SimulationConfig(memory=3, n_ssets=8, generations=80, seed=4)
        par = ParallelSimulation(cfg, n_ranks=4).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_mixed_sampled_fitness(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=8, generations=60, seed=13, strategy_kind="mixed"
        )
        par = ParallelSimulation(cfg, n_ranks=3).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_mixed_expected_fitness(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=8, generations=60, seed=17,
            strategy_kind="mixed", fitness_mode="expected",
        )
        par = ParallelSimulation(cfg, n_ranks=5).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_noisy_games(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=50, seed=3, noise=NoiseModel(0.05)
        )
        par = ParallelSimulation(cfg, n_ranks=3).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_fermi_pc_rule(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=10, generations=100, seed=8, pc_rule="fermi", beta=0.01
        )
        par = ParallelSimulation(cfg, n_ranks=4).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_more_workers_than_ssets(self):
        cfg = SimulationConfig(memory=1, n_ssets=4, generations=60, seed=6)
        par = ParallelSimulation(cfg, n_ranks=8).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_counters_match_serial_nature(self):
        cfg = SimulationConfig(memory=1, n_ssets=12, generations=150, seed=30)
        serial = EvolutionDriver(cfg).run()
        par = ParallelSimulation(cfg, n_ranks=4).run()
        assert par.n_pc_events == serial.n_pc_events
        assert par.n_adoptions == serial.n_adoptions
        assert par.n_mutations == serial.n_mutations


def assert_traffic_is_the_protocol(cfg, n_ranks, backend, eager_games=False):
    """One frame and one heartbeat per worker per window, then the shutdown
    frame and the FTFinal.  A lazy run's windows are cut only by the cap
    (Nature settles every PC itself); an eager run's end at each PC event (no
    window of an eager ``cfg`` here reaches the cap).  A host process may
    ship its counters before its FTFinal's ack is counted: up to P-1 fewer
    confirmed sends."""
    par = ParallelSimulation(
        cfg, n_ranks=n_ranks, backend=backend, eager_games=eager_games
    ).run(timeout=300)
    assert np.array_equal(par.matrix, serial_matrix(cfg))
    if eager_games:
        windows = par.n_pc_events + 1
    else:
        windows = math.ceil(cfg.generations / _WINDOW_CAP)
    workers = n_ranks - 1
    assert par.counters["heartbeat"].calls == windows * workers
    confirmed = (2 * windows + 2) * workers
    unshipped = 0 if backend == "thread" else workers
    assert confirmed - unshipped <= par.counters["reliable_send"].calls <= confirmed
    return par


HOST_BACKENDS = [
    pytest.param("process", marks=pytest.mark.procexec),
    pytest.param("tcp", marks=pytest.mark.tcp),
]


class TestCommunicationPattern:
    @pytest.mark.parametrize("backend", HOST_BACKENDS)
    def test_message_counts_match_protocol_on_host_backends(self, backend):
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=40, seed=2)
        par = assert_traffic_is_the_protocol(cfg, 3, backend)
        assert par.counters["heartbeat"].calls == 2  # one window, however many PCs
        assert par.n_pc_events > 0

    @pytest.mark.parametrize("backend", ["thread", *HOST_BACKENDS])
    def test_an_eager_run_sends_one_frame_per_pc_event(self, backend):
        """One window per PC event and the closing one: nothing is sent per
        generation."""
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=40, seed=2, rounds=10)
        par = assert_traffic_is_the_protocol(cfg, 3, backend, eager_games=True)
        assert par.n_pc_events > 0

    @pytest.mark.parametrize("backend", ["thread", *HOST_BACKENDS])
    def test_quiet_run_is_cut_into_capped_windows(self, backend):
        """Without PC events a frame closes at most ``_WINDOW_CAP`` generations."""
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=2 * _WINDOW_CAP + 10, seed=2, pc_rate=0.0
        )
        par = assert_traffic_is_the_protocol(cfg, 3, backend)
        assert par.counters["heartbeat"].calls == 3 * 2
        assert par.n_pc_events == 0 and par.n_mutations > 0

    def test_fitness_returns_are_point_to_point(self, monkeypatch):
        """An eager PC's two fitness values reach rank 0 in its owners'
        reports of the window the PC ends, and nothing else carries one."""
        reports, post = [], Comm.post_reliable

        def spy(self, payload, dest, tag=0, **policy):
            if isinstance(payload, WorkerReport):
                reports.append(payload)
            return post(self, payload, dest, tag, **policy)

        monkeypatch.setattr(Comm, "post_reliable", spy)
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=30, seed=2, pc_rate=1.0, mutation_rate=0.0,
            rounds=10,
        )
        par = ParallelSimulation(cfg, n_ranks=3, eager_games=True).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))
        assert par.n_pc_events == cfg.generations == len(reports) // 2
        assert sum(r.pi_teacher is not None for r in reports) == cfg.generations
        assert sum(r.pi_learner is not None for r in reports) == cfg.generations


class TestValidation:
    def test_needs_one_rank(self, small_config):
        with pytest.raises(MPIError, match="n_ranks must be >= 1"):
            ParallelSimulation(small_config, n_ranks=0)

    def test_result_fields(self):
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=10, seed=1)
        par = ParallelSimulation(cfg, n_ranks=2).run()
        assert par.generation == 10
        assert par.n_ranks == 2
        assert par.matrix.shape == (6, 4)

    @pytest.mark.parametrize("value", [0, -1.5])
    def test_heartbeat_timeout_must_be_positive(self, small_config, value):
        # At 0 every worker would be declared dead in the first fan-in.
        with pytest.raises(MPIError, match=rf"heartbeat_timeout must be > 0, got {value}$"):
            ParallelSimulation(small_config, n_ranks=2, heartbeat_timeout=value)
