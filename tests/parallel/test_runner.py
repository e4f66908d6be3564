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
from repro.parallel.protocol import TAG_FITNESS
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
    """One bcast per window plus the digest allgather's bcast leg; a window
    costs P-1 tree messages, the allgather a gather and a bcast leg.  A lazy
    run's windows are cut only by the cap (Nature settles every PC itself);
    an eager run's end at each PC event, which costs two fitness returns
    (no window of an eager ``cfg`` here reaches the cap)."""
    par = ParallelSimulation(
        cfg, n_ranks=n_ranks, backend=backend, eager_games=eager_games
    ).run(timeout=300)
    assert np.array_equal(par.matrix, serial_matrix(cfg))
    if eager_games:
        windows, returns = par.n_pc_events + 1, 2 * par.n_pc_events
    else:
        windows, returns = math.ceil(cfg.generations / _WINDOW_CAP), 0
    workers = n_ranks - 1
    assert par.counters["bcast"].calls == windows + 1
    assert par.counters["send"].messages == windows * workers + returns + 2 * workers
    return par


def sends_to_nature(cfg, eager_games):
    """Point-to-point messages that land on rank 0, counted by a trace."""
    par = ParallelSimulation(cfg, n_ranks=3, eager_games=eager_games, trace=True).run()
    assert np.array_equal(par.matrix, serial_matrix(cfg))
    return par, [
        e for e in par.trace.events()
        if e.cat == "mpi.p2p" and e.name == "send" and e.args["dest"] == 0
    ]


HOST_BACKENDS = [
    pytest.param("process", marks=pytest.mark.procexec),
    pytest.param("tcp", marks=pytest.mark.tcp),
]


class TestCommunicationPattern:
    def test_bcast_count_matches_protocol(self):
        """A lazy run shorter than the cap is one frame and the final digest
        allgather's bcast leg, however many PC events it has."""
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=40, seed=2)
        par = assert_traffic_is_the_protocol(cfg, 3, "thread")
        assert par.counters["bcast"].calls == 2
        assert par.n_pc_events > 0

    @pytest.mark.parametrize("backend", HOST_BACKENDS)
    def test_message_counts_match_protocol_on_host_backends(self, backend):
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=40, seed=2)
        assert_traffic_is_the_protocol(cfg, 3, backend)

    @pytest.mark.parametrize("backend", ["thread", *HOST_BACKENDS])
    def test_an_eager_run_sends_one_frame_per_pc_event(self, backend):
        """One frame per PC event, the closing frame, and the final digest
        allgather's bcast leg: nothing is sent per generation."""
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=40, seed=2, rounds=10)
        par = assert_traffic_is_the_protocol(cfg, 3, backend, eager_games=True)
        assert par.counters["bcast"].calls == par.n_pc_events + 2
        assert par.n_pc_events > 0

    @pytest.mark.parametrize("backend", ["thread", *HOST_BACKENDS])
    def test_quiet_run_is_cut_into_capped_windows(self, backend):
        """Without PC events a frame closes at most ``_WINDOW_CAP`` generations."""
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=2 * _WINDOW_CAP + 10, seed=2, pc_rate=0.0
        )
        par = assert_traffic_is_the_protocol(cfg, 3, backend)
        assert par.counters["bcast"].calls == 3 + 1
        assert par.n_pc_events == 0 and par.n_mutations > 0

    def test_fitness_returns_are_point_to_point(self):
        """An eager PC costs exactly its two fitness returns to rank 0."""
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=30, seed=2, pc_rate=1.0, mutation_rate=0.0,
            rounds=10,
        )
        par, to_nature = sends_to_nature(cfg, eager_games=True)
        returns = [e for e in to_nature if e.args["tag"] in (TAG_FITNESS, TAG_FITNESS + 1)]
        assert len(returns) == 2 * par.n_pc_events == 2 * cfg.generations
        assert len(to_nature) == len(returns) + 2  # and the digest gather's two legs

    def test_a_lazy_run_sends_nature_nothing_but_the_digest(self):
        """Nature settles every lazy PC on its own replica: no fitness return."""
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=30, seed=2, pc_rate=1.0, mutation_rate=0.0
        )
        par, to_nature = sends_to_nature(cfg, eager_games=False)
        assert par.n_pc_events == cfg.generations
        assert len(to_nature) == 2  # the digest gather's two legs


class TestValidation:
    def test_needs_two_ranks(self, small_config):
        with pytest.raises(MPIError):
            ParallelSimulation(small_config, n_ranks=1)

    def test_result_fields(self):
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=10, seed=1)
        par = ParallelSimulation(cfg, n_ranks=2).run()
        assert par.generation == 10
        assert par.n_ranks == 2
        assert par.matrix.shape == (6, 4)

    def test_fitness_timeout_is_configurable(self):
        # A generous custom deadline must not perturb the trajectory.
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=10, seed=1)
        default = ParallelSimulation(cfg, n_ranks=2).run()
        custom_sim = ParallelSimulation(cfg, n_ranks=2, fitness_timeout=600.0)
        assert custom_sim.fitness_timeout == 600.0
        custom = custom_sim.run()
        assert np.array_equal(custom.matrix, default.matrix)

    def test_fitness_timeout_must_be_positive(self, small_config):
        with pytest.raises(MPIError, match="fitness_timeout"):
            ParallelSimulation(small_config, n_ranks=2, fitness_timeout=0.0)

    @pytest.mark.parametrize("value", [0, -1.5])
    def test_heartbeat_timeout_must_be_positive(self, small_config, value):
        # At 0 every worker would be declared dead in the first fan-in.
        with pytest.raises(MPIError, match=rf"heartbeat_timeout must be > 0, got {value}$"):
            ParallelSimulation(small_config, n_ranks=2, heartbeat_timeout=value)
