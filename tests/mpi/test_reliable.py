"""Tests for the acknowledged (reliable) messaging layer and recv timeouts."""

import time

import numpy as np
import pytest

from repro.errors import RankFailedError, RecvTimeoutError
from repro.mpi.executor import run_spmd
from repro.mpi.faults import FaultEvent, FaultInjector, FaultPlan


class TestReliableBasics:
    def test_round_trip_without_faults(self):
        def prog(comm):
            if comm.rank == 0:
                transmissions = comm.send_reliable({"v": 1}, dest=1, tag=5)
                return transmissions
            return comm.recv_reliable(source=0, tag=5, timeout=10)

        res = run_spmd(2, prog, timeout=30)
        assert res.returns[0] == 1  # first transmission acked
        assert res.returns[1] == {"v": 1}

    def test_ndarray_payload_survives_pickling(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send_reliable(np.arange(6).reshape(2, 3), dest=1)
            else:
                return comm.recv_reliable(source=0, timeout=10)

        res = run_spmd(2, prog, timeout=30)
        assert np.array_equal(res.returns[1], np.arange(6).reshape(2, 3))

    def test_order_preserved_across_many_messages(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send_reliable(i, dest=1)
            else:
                return [comm.recv_reliable(source=0, timeout=10) for _ in range(20)]

        res = run_spmd(2, prog, timeout=60)
        assert res.returns[1] == list(range(20))


class TestReliableUnderFaults:
    def test_survives_dropped_data_frame(self):
        # Drop rank 0's first send (the data frame); the resend must land.
        plan = FaultPlan(events=(FaultEvent(kind="drop", rank=0, op_index=0),))

        def prog(comm):
            if comm.rank == 0:
                return comm.send_reliable("payload", dest=1)
            return comm.recv_reliable(source=0, timeout=10)

        res = run_spmd(2, prog, timeout=60, fault_injector=FaultInjector(plan))
        assert res.returns[0] == 2  # one retry
        assert res.returns[1] == "payload"
        assert res.world.counters.get("reliable_retry").calls == 1

    def test_survives_dropped_ack(self):
        # Drop rank 1's first send (the ack); the receiver's duplicate
        # servicing must re-ack the resent frame.
        plan = FaultPlan(events=(FaultEvent(kind="drop", rank=1, op_index=0),))

        def prog(comm):
            if comm.rank == 0:
                comm.send_reliable("payload", dest=1)
                return "sent"
            payload = comm.recv_reliable(source=0, timeout=10)
            # Stay alive so the resent frame can be serviced and re-acked.
            try:
                comm.recv_reliable(source=0, timeout=2.0)
            except RecvTimeoutError:
                pass
            return payload

        res = run_spmd(2, prog, timeout=60, fault_injector=FaultInjector(plan))
        assert res.returns[1] == "payload"

    def test_duplicate_frames_deduplicated(self):
        plan = FaultPlan(events=(FaultEvent(kind="duplicate", rank=0, op_index=0),))

        def prog(comm):
            if comm.rank == 0:
                comm.send_reliable("a", dest=1)
                comm.send_reliable("b", dest=1)
            else:
                return [comm.recv_reliable(source=0, timeout=10) for _ in range(2)]

        res = run_spmd(2, prog, timeout=60, fault_injector=FaultInjector(plan))
        assert res.returns[1] == ["a", "b"]
        assert res.world.counters.get("reliable_dedup").calls >= 1

    def test_corrupted_frame_forces_resend(self):
        plan = FaultPlan(events=(FaultEvent(kind="corrupt", rank=0, op_index=0),))

        def prog(comm):
            if comm.rank == 0:
                return comm.send_reliable("clean", dest=1)
            return comm.recv_reliable(source=0, timeout=10)

        res = run_spmd(2, prog, timeout=60, fault_injector=FaultInjector(plan))
        assert res.returns[0] >= 2
        assert res.returns[1] == "clean"
        assert res.world.counters.get("reliable_corrupt").calls >= 1

    def test_stream_over_lossy_network(self):
        plan = FaultPlan(seed=13, drop_p=0.2, duplicate_p=0.1, corrupt_p=0.05)

        def prog(comm):
            if comm.rank == 0:
                for i in range(15):
                    comm.send_reliable(i, dest=1, ack_timeout=0.1)
                return "sent"
            got = [comm.recv_reliable(source=0, timeout=30) for _ in range(15)]
            # Keep servicing until the sender's last ack wait can finish.
            try:
                comm.recv_reliable(source=0, timeout=1.0)
            except RecvTimeoutError:
                pass
            return got

        res = run_spmd(2, prog, timeout=120, fault_injector=FaultInjector(plan))
        assert res.returns[1] == list(range(15))

    def test_no_receiver_raises_rank_failed(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send_reliable("void", dest=1, ack_timeout=0.05, max_retries=2)

        with pytest.raises(RankFailedError, match="no acknowledgement"):
            run_spmd(2, prog, timeout=30)


class TestRecvTimeouts:
    def test_recv_timeout_error_carries_source_and_tag(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=17, timeout=0.1)

        with pytest.raises(RecvTimeoutError, match=r"source=1 tag=17"):
            run_spmd(2, prog, timeout=30)

    def test_recv_timeout_is_timeout_error(self):
        assert issubclass(RecvTimeoutError, TimeoutError)

    def test_recv_reliable_timeout(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv_reliable(source=1, tag=3, timeout=0.1)

        with pytest.raises(RecvTimeoutError):
            run_spmd(2, prog, timeout=30)

    def test_recv_from_failed_rank_fails_fast(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", rank=1, generation=1),))

        def prog(comm):
            if comm.rank == 1:
                comm.fault_point(1)
            else:
                start = time.monotonic()
                try:
                    comm.recv(source=1, timeout=30)
                except RankFailedError:
                    return time.monotonic() - start

        res = run_spmd(
            2,
            prog,
            timeout=30,
            fault_injector=FaultInjector(plan),
            on_rank_failure="continue",
        )
        assert res.returns[0] is not None and res.returns[0] < 5.0


class TestPendingRequests:
    def test_isend_pending_until_delayed_delivery(self):
        plan = FaultPlan(events=(FaultEvent(kind="delay", rank=0, op_index=0, delay=0.4),))

        def prog(comm):
            if comm.rank == 0:
                req = comm.isend("slow", dest=1)
                pending_before = not req.test()
                req.wait()
                return pending_before, req.test()
            return comm.recv(source=0, timeout=10)

        res = run_spmd(2, prog, timeout=30, fault_injector=FaultInjector(plan))
        assert res.returns[0] == (True, True)
        assert res.returns[1] == "slow"

    def test_isend_completes_immediately_without_faults(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend("fast", dest=1)
                return req.test()
            return comm.recv(source=0, timeout=10)

        res = run_spmd(2, prog, timeout=30)
        assert res.returns[0] is True
