"""Tests for virtual MPI collectives across world sizes."""

import numpy as np
import pytest

from repro.mpi.executor import run_spmd

SIZES = [1, 2, 3, 4, 5, 8, 13, 16]


@pytest.mark.parametrize("size", SIZES)
class TestBcast:
    def test_bcast_from_zero(self, size):
        def prog(comm):
            data = comm.bcast("payload" if comm.rank == 0 else None, root=0)
            assert data == "payload"
            return data

        res = run_spmd(size, prog, timeout=60)
        assert all(v == "payload" for v in res.returns)

    def test_bcast_from_nonzero_root(self, size):
        root = size - 1

        def prog(comm):
            data = comm.bcast(comm.rank if comm.rank == root else None, root=root)
            return data

        res = run_spmd(size, prog, timeout=60)
        assert all(v == root for v in res.returns)

    def test_bcast_ndarray(self, size):
        def prog(comm):
            arr = np.arange(16) if comm.rank == 0 else None
            out = comm.bcast(arr, root=0)
            return int(out.sum())

        res = run_spmd(size, prog, timeout=60)
        assert all(v == 120 for v in res.returns)


@pytest.mark.parametrize("size", SIZES)
class TestReductions:
    def test_reduce_sum(self, size):
        def prog(comm):
            return comm.reduce(comm.rank + 1, root=0)

        res = run_spmd(size, prog, timeout=60)
        assert res.returns[0] == size * (size + 1) // 2
        assert all(v is None for v in res.returns[1:])

    def test_reduce_custom_op(self, size):
        def prog(comm):
            return comm.reduce(comm.rank, op=max, root=0)

        res = run_spmd(size, prog, timeout=60)
        assert res.returns[0] == size - 1

    def test_allreduce(self, size):
        def prog(comm):
            return comm.allreduce(comm.rank)

        res = run_spmd(size, prog, timeout=60)
        assert all(v == size * (size - 1) // 2 for v in res.returns)

    def test_reduce_ndarray(self, size):
        def prog(comm):
            out = comm.reduce(np.full(3, comm.rank, dtype=np.int64), root=0)
            return None if out is None else out.tolist()

        res = run_spmd(size, prog, timeout=60)
        assert res.returns[0] == [size * (size - 1) // 2] * 3


@pytest.mark.parametrize("size", SIZES)
class TestGatherScatter:
    def test_gather_ordered(self, size):
        def prog(comm):
            return comm.gather(comm.rank * 2, root=0)

        res = run_spmd(size, prog, timeout=60)
        assert res.returns[0] == [2 * r for r in range(size)]


class TestBarrierAndSequencing:
    def test_barrier_many_rounds(self):
        def prog(comm):
            for _ in range(10):
                comm.barrier()
            return True

        res = run_spmd(8, prog, timeout=60)
        assert all(res.returns)

    def test_interleaved_collectives_stay_matched(self):
        """Repeated bcasts and reduces must not cross-match across calls."""

        def prog(comm):
            out = []
            for i in range(20):
                v = comm.bcast(i * 10 if comm.rank == 0 else None, root=0)
                out.append(v)
                total = comm.allreduce(1)
                assert total == comm.size
            return out

        res = run_spmd(5, prog, timeout=60)
        assert all(v == [i * 10 for i in range(20)] for v in res.returns)

    def test_reduce_float_determinism(self):
        """The combine order is fixed, so float sums are bit-stable."""

        def prog(comm):
            value = 0.1 * (comm.rank + 1)
            return comm.allreduce(value)

        a = run_spmd(7, prog, timeout=30).returns
        b = run_spmd(7, prog, timeout=30).returns
        assert a == b
        assert len(set(a)) == 1
