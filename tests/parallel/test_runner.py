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
    frame and the FTFinal.  Only the cap cuts a window here, lazy run or
    eager: Nature settles every PC itself.  A host process may ship its
    counters before its FTFinal's ack is counted: up to P-1 fewer confirmed
    sends."""
    par = ParallelSimulation(
        cfg, n_ranks=n_ranks, backend=backend, eager_games=eager_games
    ).run(timeout=300)
    assert np.array_equal(par.matrix, serial_matrix(cfg))
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
        par = assert_traffic_is_the_protocol(cfg, 3, backend, eager_games=True)
        assert par.counters["heartbeat"].calls == 2  # one window, however many PCs
        assert par.n_pc_events > 0

    @pytest.mark.parametrize("backend", ["thread", *HOST_BACKENDS])
    def test_an_eager_run_is_windowed_like_a_lazy_one(self, backend):
        """PC events cut no eager window: one window however many PCs, and
        nothing is sent per generation."""
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=40, seed=2, rounds=10)
        par = assert_traffic_is_the_protocol(cfg, 3, backend, eager_games=True)
        assert par.counters["heartbeat"].calls == 2
        assert par.n_pc_events > 1

    @pytest.mark.parametrize("backend", ["thread", *HOST_BACKENDS])
    def test_quiet_run_is_cut_into_capped_windows(self, backend):
        """Without PC events a frame closes at most ``_WINDOW_CAP`` generations."""
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=2 * _WINDOW_CAP + 10, seed=2, pc_rate=0.0
        )
        par = assert_traffic_is_the_protocol(cfg, 3, backend, eager_games=True)
        assert par.counters["heartbeat"].calls == 3 * 2
        assert par.n_pc_events == 0 and par.n_mutations > 0


class TestValidation:
    def test_needs_one_rank(self, small_config):
        with pytest.raises(MPIError, match="n_ranks must be >= 1"):
            ParallelSimulation(small_config, n_ranks=0)

    def test_result_fields(self):
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=10, seed=1)
        par = ParallelSimulation(cfg, n_ranks=2, eager_games=True).run()
        assert par.generation == 10
        assert par.n_ranks == 2
        assert par.matrix.shape == (6, 4)

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    @pytest.mark.parametrize(
        "world, match",
        [
            ({"n_ranks": 1025}, r"n_ranks must be in \[1, 1024\], got 1025"),
            ({"n_ranks": 300, "backend": "process"}, r"n_ranks must be in \[1, 256\], got 300"),
            ({"n_ranks": 3, "backend": "tcp", "n_hosts": 17}, r"n_hosts must be in \[1, 16\]"),
            ({"n_ranks": 3, "max_respawns": -1}, r"max_respawns must be >= 0, got -1"),
        ],
        ids=["thread-ranks", "process-ranks", "tcp-hosts", "respawns"],
    )
    def test_a_world_run_spmd_rejects_fails_at_construction(
        self, small_config, world, match, eager
    ):
        """A lazy run launches no workers, yet rejects the worlds an eager one does."""
        with pytest.raises(MPIError, match=match):
            ParallelSimulation(small_config, eager_games=eager, **world)

    @pytest.mark.parametrize("value", [0, -1.5])
    def test_heartbeat_timeout_must_be_positive(self, small_config, value):
        # At 0 every worker would be declared dead in the first fan-in.
        with pytest.raises(MPIError, match=rf"heartbeat_timeout must be > 0, got {value}$"):
            ParallelSimulation(small_config, n_ranks=2, heartbeat_timeout=value)
