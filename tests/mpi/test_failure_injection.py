"""Failure-injection tests: crashes, divergence detection, stragglers."""

import time

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi.executor import run_spmd


class TestCrashPropagation:
    def test_crash_during_collective_unblocks_everyone(self):
        """A rank dying inside a bcast must not hang the other ranks."""

        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("injected crash")
            # Everyone else enters a collective that can never complete.
            comm.bcast("x" if comm.rank == 0 else None, root=0)
            comm.barrier()

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="injected crash"):
            run_spmd(6, prog, timeout=30)
        assert time.monotonic() - start < 10  # unblocked, not timed out

    def test_crash_after_partial_p2p(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("half", dest=1, tag=1)
                raise ValueError("mid-protocol crash")
            if comm.rank == 1:
                comm.recv(source=0, tag=1, timeout=10)
                comm.recv(source=0, tag=2, timeout=10)  # never arrives

        with pytest.raises(ValueError, match="mid-protocol"):
            run_spmd(2, prog, timeout=30)

    def test_all_ranks_crash_first_rank_wins(self):
        def prog(comm):
            raise KeyError(f"rank {comm.rank}")

        with pytest.raises(KeyError) as exc:
            run_spmd(4, prog, timeout=30)
        assert "rank 0" in str(exc.value)


class TestDivergenceDetection:
    def test_replica_divergence_is_caught(self):
        """A digest gathered and broadcast must flag a rank whose
        population replica drifted (here: injected bit flip)."""
        import hashlib

        def digest(arr):
            return hashlib.blake2b(arr.tobytes(), digest_size=8).digest()

        def prog(comm):
            replica = np.zeros(16, dtype=np.uint8)
            if comm.rank == 2:
                replica[3] = 1  # injected divergence
            digests = comm.bcast(comm.gather(digest(replica), root=0), root=0)
            if len(set(digests)) != 1:
                raise MPIError(f"rank {comm.rank}: replicas diverged")
            return True

        with pytest.raises(MPIError, match="diverged"):
            run_spmd(4, prog, timeout=30)


class TestStragglers:
    def test_slow_rank_does_not_break_matching(self):
        """A rank that lags behind by a full superstep still receives the
        right collective payloads (sequence-tagged, not time-tagged)."""

        def prog(comm):
            out = []
            for i in range(5):
                if comm.rank == 1:
                    time.sleep(0.02)  # chronic straggler
                out.append(comm.bcast(i * 11 if comm.rank == 0 else None, root=0))
            return out

        res = run_spmd(4, prog, timeout=60)
        assert all(v == [0, 11, 22, 33, 44] for v in res.returns)

    def test_concurrent_senders_fifo_per_source(self):
        """Messages from each source arrive in send order even when many
        sources hammer one receiver concurrently."""

        def prog(comm):
            if comm.rank == 0:
                got = {src: [] for src in range(1, comm.size)}
                for _ in range(3 * (comm.size - 1)):
                    payload, status = comm.recv(timeout=20, return_status=True)
                    got[status.source].append(payload)
                return got
            for i in range(3):
                comm.send((comm.rank, i), dest=0, tag=5)

        res = run_spmd(5, prog, timeout=60)
        for src, messages in res.returns[0].items():
            assert messages == [(src, 0), (src, 1), (src, 2)]
