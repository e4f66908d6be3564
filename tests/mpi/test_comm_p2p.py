"""Tests for virtual MPI point-to-point semantics."""

import numpy as np
import pytest

from repro.errors import CommAbortError, MPIError, RankError
from repro.mpi.comm import World, payload_nbytes
from repro.mpi.executor import run_spmd
from repro.mpi.status import ANY_SOURCE, ANY_TAG, MAX_USER_TAG


class TestPayloadNbytes:
    def test_ndarray_exact(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes_exact(self):
        assert payload_nbytes(b"abcd") == 4

    def test_object_positive(self):
        assert payload_nbytes({"a": 1}) > 0


class TestBasicSendRecv:
    def test_send_recv_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"v": 42}, dest=1, tag=3)
            elif comm.rank == 1:
                return comm.recv(source=0, tag=3, timeout=10)

        res = run_spmd(2, prog, timeout=30)
        assert res.returns[1] == {"v": 42}

    def test_fifo_per_source_and_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=1)
            else:
                return [comm.recv(source=0, tag=1, timeout=10) for _ in range(5)]

        res = run_spmd(2, prog, timeout=30)
        assert res.returns[1] == [0, 1, 2, 3, 4]

    def test_tag_matching_skips_other_tags(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
            else:
                second = comm.recv(source=0, tag=2, timeout=10)
                first = comm.recv(source=0, tag=1, timeout=10)
                return (first, second)

        res = run_spmd(2, prog, timeout=30)
        assert res.returns[1] == ("a", "b")

    def test_any_source_any_tag(self):
        def prog(comm):
            if comm.rank in (1, 2):
                comm.send(comm.rank, dest=0, tag=comm.rank)
            elif comm.rank == 0:
                got = {comm.recv(source=ANY_SOURCE, tag=ANY_TAG, timeout=10) for _ in range(2)}
                return got

        res = run_spmd(3, prog, timeout=30)
        assert res.returns[0] == {1, 2}

    def test_return_status(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4, dtype=np.int64), dest=1, tag=9)
            else:
                payload, status = comm.recv(source=ANY_SOURCE, timeout=10, return_status=True)
                return (status.source, status.tag, status.nbytes)

        res = run_spmd(2, prog, timeout=30)
        assert res.returns[1] == (0, 9, 32)

    def test_isend_irecv(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1, tag=4)
                req.wait()
            else:
                return comm.recv(source=0, tag=4, timeout=10)

        res = run_spmd(2, prog, timeout=30)
        assert res.returns[1] == [1, 2, 3]

    def test_probe(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=7)
            else:
                # Wait for the message to be visible, then probe.
                payload = None
                while payload is None:
                    payload = comm.probe(source=0, tag=7)
                assert payload.tag == 7
                return comm.recv(source=0, tag=7, timeout=10)

        res = run_spmd(2, prog, timeout=30)
        assert res.returns[1] == "x"


class TestValidation:
    def test_bad_dest_rank(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, dest=5)

        with pytest.raises(RankError):
            run_spmd(2, prog, timeout=30)

    def test_reserved_tag_rejected(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=MAX_USER_TAG + 1)

        with pytest.raises(MPIError):
            run_spmd(2, prog, timeout=30)

    def test_recv_timeout(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=0, timeout=0.2)

        with pytest.raises(MPIError, match="timed out"):
            run_spmd(2, prog, timeout=30)

    def test_world_size_validated(self):
        with pytest.raises(MPIError):
            World(0)

    def test_world_comm_rank_validated(self):
        with pytest.raises(RankError):
            World(2).comm(2)

    def test_abort_unblocks_receivers(self):
        def prog(comm):
            if comm.rank == 0:
                comm.abort("test abort")
            else:
                comm.recv(source=0, timeout=10)

        with pytest.raises(CommAbortError):
            run_spmd(2, prog, timeout=30)
