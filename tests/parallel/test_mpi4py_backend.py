"""Tests for the real-MPI bridge (offline: interface compatibility)."""

import queue
import threading

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import MPIError
from repro.mpi.executor import run_spmd
from repro.parallel.mpi4py_backend import CommLike, _build_parser, run_on_comm
from repro.parallel.runner import ParallelSimulation


class _QueueComm:
    """A communicator with *only* the ``CommLike`` surface — no ``world``, no
    ``tracer``, no ``timeout=`` on ``recv`` — like ``mpi4py.MPI.Comm``."""

    _TAG_BCAST = 1 << 20

    def __init__(self, rank: int, inboxes: list):
        self.rank = rank
        self.size = len(inboxes)
        self._inboxes = inboxes
        self._held: list = []

    def send(self, payload, dest, tag=0):
        self._inboxes[dest].put((self.rank, tag, payload))

    def recv(self, source=-1, tag=-1):
        while True:
            for i, (src, tg, payload) in enumerate(self._held):
                if source in (-1, src) and tag in (-1, tg):
                    del self._held[i]
                    return payload
            self._held.append(self._inboxes[self.rank].get(timeout=60))

    def bcast(self, payload, root=0):
        if self.rank != root:
            return self.recv(source=root, tag=self._TAG_BCAST)
        for dest in range(self.size):
            if dest != root:
                self.send(payload, dest, tag=self._TAG_BCAST)
        return payload

    def allgather(self, payload):
        if self.rank != 0:
            self.send(payload, 0, tag=self._TAG_BCAST + 1)
            return self.bcast(None, root=0)
        rows = [payload] + [
            self.recv(source=src, tag=self._TAG_BCAST + 1) for src in range(1, self.size)
        ]
        return self.bcast(rows, root=0)


class TestInterfaceCompatibility:
    def test_virtual_comm_satisfies_the_protocol(self):
        res = run_spmd(2, lambda comm: isinstance(comm, CommLike), timeout=30)
        assert all(res.returns)

    def test_run_on_comm_matches_parallel_simulation(self):
        """run_on_comm is the same rank program ParallelSimulation wraps."""
        cfg = SimulationConfig(memory=1, n_ssets=8, generations=50, seed=13, rounds=10)

        res = run_spmd(3, run_on_comm, args=(cfg,), timeout=60)
        reference = ParallelSimulation(cfg, n_ranks=3).run()
        assert np.array_equal(res.returns[0]["matrix"], reference.matrix)
        assert res.returns[0]["n_pc_events"] == reference.n_pc_events

    def test_runs_on_a_comm_with_only_the_commlike_surface(self):
        """Regression: the rank program read ``comm.world.tracer`` and passed
        ``recv(timeout=...)``, neither of which a real mpi4py comm has."""
        cfg = SimulationConfig(memory=1, n_ssets=8, generations=50, seed=13, rounds=10)
        inboxes = [queue.Queue() for _ in range(3)]
        outs: dict = {}

        def rank_main(rank):
            try:
                outs[rank] = run_on_comm(_QueueComm(rank, inboxes), cfg)
            except BaseException as exc:  # noqa: BLE001 - reported by the assert below
                outs[rank] = exc

        threads = [threading.Thread(target=rank_main, args=(r,), daemon=True) for r in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert isinstance(_QueueComm(0, inboxes), CommLike)
        assert all(isinstance(outs[r], dict) for r in range(3)), outs
        reference = ParallelSimulation(cfg, n_ranks=3).run()
        assert np.array_equal(outs[0]["matrix"], reference.matrix)
        assert outs[0]["n_pc_events"] == reference.n_pc_events

    def test_needs_two_ranks(self):
        cfg = SimulationConfig(memory=1, n_ssets=4, generations=1, seed=0)
        with pytest.raises(MPIError):
            run_spmd(1, run_on_comm, args=(cfg,), timeout=30)


class TestCli:
    def test_parser_defaults(self):
        args = _build_parser().parse_args([])
        assert args.n_ssets == 64
        assert not args.eager_games

    def test_parser_flags(self):
        args = _build_parser().parse_args(
            ["--memory", "3", "--n-ssets", "128", "--eager-games", "--output", "m.npy"]
        )
        assert (args.memory, args.n_ssets) == (3, 128)
        assert args.eager_games
        assert args.output == "m.npy"

    def test_main_without_mpi4py_raises_cleanly(self):
        try:
            import mpi4py  # noqa: F401

            pytest.skip("mpi4py installed; the error path is not reachable")
        except ImportError:
            pass
        from repro.parallel.mpi4py_backend import main

        with pytest.raises(MPIError, match="mpi4py is not installed"):
            main([])
