"""The posted half of the reliable layer: fan out, and let the reply be the ack.

``send_reliable``/``recv_reliable`` stay stop-and-wait
(``test_reliable.py``).  These tests pin the rules the fault-tolerant star
rides on: a posted frame costs one message when a reply answers it, an
explicit ack is sent exactly when none is due, at most one frame per directed
pair is unacknowledged, and the state both ends keep is O(1) per peer.
"""

import dataclasses
import time

import pytest

from repro.errors import RankFailedError, RecvTimeoutError
from repro.mpi.comm import _TAG_RDATA, Comm, World
from repro.mpi.executor import run_spmd
from repro.mpi.faults import FaultEvent, FaultInjector, FaultPlan


def _calls(world, name: str) -> int:
    count = world.counters.get(name)
    return count.calls if count else 0


def _reliable_state(comm) -> tuple[int, int, int]:
    """Sizes of everything the reliable layer keeps besides one int per peer."""
    return len(comm._reliable_unacked), len(comm._reliable_owed), len(comm._reliable_mark)


def _ping_pong(rounds: int):
    """Rank 0 posts, rank 1 answers, ``rounds`` times: every frame is a reply."""

    def prog(comm):
        if comm.rank == 0:
            for i in range(rounds):
                comm.post_reliable(i, dest=1)
                assert comm.recv_reliable_owing(source=1, timeout=30) == -i
            comm.settle_acks()  # nothing further will carry the last ack
        else:
            for i in range(rounds):
                assert comm.recv_reliable_owing(source=0, timeout=30) == i
                comm.post_reliable(-i, dest=0)
            comm._await_acked(0)
        return _reliable_state(comm)

    return prog


class TestReplyIsTheAck:
    def test_one_message_per_frame(self):
        rounds = 50
        res = run_spmd(2, _ping_pong(rounds), timeout=60)
        # 2 frames a round, each acknowledged by the next; one explicit ack
        # for the very last frame, which nothing answers.  Anything more is
        # counted as what it is, and there is none unless the machine froze a
        # rank for _ACK_DELAY mid-exchange.
        assert _calls(res.world, "reliable_send") == 2 * rounds
        timing = _calls(res.world, "reliable_retry") + _calls(res.world, "reliable_ack") - 1
        assert res.world.counters.get("send").messages - timing == 2 * rounds + 1
        assert 0 <= timing <= 2

    def test_fan_out_does_not_wait(self):
        def prog(comm):
            if comm.rank == 0:
                for dest in (1, 2, 3):
                    comm.post_reliable(dest, dest=dest)
                parked = len(comm._reliable_unacked)
                got = [comm.recv_reliable_owing(source=src, timeout=30) for src in (1, 2, 3)]
                comm.settle_acks()
                return parked, got, len(comm._reliable_unacked)
            value = comm.recv_reliable_owing(source=0, timeout=30)
            comm.send_reliable(10 * value, dest=0)

        res = run_spmd(4, prog, timeout=60)
        # Acks are only ever processed inside rank 0's own reliable calls, and
        # a post to one rank does not wait on another's: all three stay parked.
        assert res.returns[0] == (3, [10, 20, 30], 0)


class TestExplicitAckWhenNoReplyIsDue:
    def test_blocked_receiver_settles_after_the_delay(self):
        """Owing an ack and blocked with nothing to say: the ack goes out on
        its own, inside the sender's first retransmission wait."""

        def prog(comm):
            if comm.rank == 0:
                return comm.send_reliable("frame", dest=1)
            got = comm.recv_reliable_owing(source=0, timeout=10)
            with pytest.raises(RecvTimeoutError):
                comm.recv_reliable_owing(source=0, timeout=0.5)
            return got

        res = run_spmd(2, prog, timeout=60)
        assert res.returns == [1, "frame"]  # acknowledged on the first transmission
        assert _calls(res.world, "reliable_ack") == 1

    @pytest.mark.parametrize("settle", [True, False])
    def test_settling_before_long_work_is_what_prevents_the_retransmission(self, settle):
        def prog(comm):
            if comm.rank == 0:
                comm.post_reliable("work order", dest=1)
                return comm.recv_reliable(source=1, timeout=10)
            comm.recv_reliable_owing(source=0, timeout=10)
            if settle:
                comm.settle_acks()
            time.sleep(0.4)  # outlasts ack_timeout; this rank is not in a reliable call
            comm.send_reliable("done", dest=0)

        res = run_spmd(2, prog, timeout=60)
        assert res.returns[0] == "done"
        retries = _calls(res.world, "reliable_retry")
        assert retries == 0 if settle else retries >= 1

    @pytest.mark.chaos
    def test_lost_piggybacked_ack_is_replaced_by_an_explicit_one(self):
        """The frame that carried the ack of 'reply' is dropped and slow to
        come again; 'reply' is resent first, recognised as a duplicate and
        acknowledged on its own."""
        plan = FaultPlan(events=(FaultEvent(kind="drop", rank=0, op_index=1),))

        def prog(comm):
            if comm.rank == 0:
                comm.post_reliable("first", dest=1)
                assert comm.recv_reliable_owing(source=1, timeout=10) == "reply"
                comm.post_reliable("second", dest=1, ack_timeout=1.0)  # dropped; resent after >= 0.5 s
                return comm.recv_reliable(source=1, timeout=10)
            assert comm.recv_reliable_owing(source=0, timeout=10) == "first"
            comm.post_reliable("reply", dest=0, ack_timeout=0.1)  # resent within 0.1 s
            assert comm.recv_reliable_owing(source=0, timeout=10) == "second"
            comm.send_reliable("done", dest=0)

        res = run_spmd(2, prog, timeout=60, fault_injector=FaultInjector(plan))
        assert res.returns[0] == "done"
        assert _calls(res.world, "reliable_dedup") >= 1
        assert _calls(res.world, "reliable_retry") >= 2  # 'reply' and 'second', once each
        assert _calls(res.world, "reliable_ack") >= 2  # for the duplicate, and for 'done'

    def test_plain_recv_reliable_acknowledges_at_once(self):
        world = World(2)
        a, b = world.comm(0), world.comm(1)
        a.post_reliable("x", dest=1)
        assert b.recv_reliable(source=0, timeout=1) == "x"
        assert _calls(world, "reliable_ack") == 1 and not b._reliable_owed
        a._await_acked(1)
        assert not a._reliable_unacked


class TestWindowOfOne:
    def test_second_post_waits_for_the_first_ack(self):
        def prog(comm):
            if comm.rank == 0:
                comm.post_reliable("a", dest=1)
                comm.post_reliable("b", dest=1)
                comm._await_acked(1)
                return len(comm._reliable_unacked)
            return [comm.recv_reliable(source=0, timeout=10) for _ in range(2)]

        res = run_spmd(2, prog, timeout=60)
        assert res.returns == [0, ["a", "b"]]

    @pytest.mark.chaos
    def test_order_survives_a_dropped_first_frame(self):
        """What the single watermark rests on: 'b' is not on the wire until
        'a' is acknowledged, so a lost 'a' cannot arrive after it."""
        plan = FaultPlan(events=(FaultEvent(kind="drop", rank=0, op_index=0),))

        def prog(comm):
            if comm.rank == 0:
                comm.post_reliable("a", dest=1)
                comm.post_reliable("b", dest=1)
                comm._await_acked(1)
            else:
                return [comm.recv_reliable(source=0, timeout=10) for _ in range(2)]

        res = run_spmd(2, prog, timeout=60, fault_injector=FaultInjector(plan))
        assert res.returns[1] == ["a", "b"]
        assert _calls(res.world, "reliable_retry") == 1

    def test_unanswered_post_fails_the_next_call_that_names_the_peer(self):
        def prog(comm):
            if comm.rank == 0:
                comm.post_reliable("void", dest=1, ack_timeout=0.02, max_retries=2)
                assert comm.recv_reliable_owing(source=2, timeout=10) == "hello"
                comm.settle_acks()
                comm.recv_reliable_owing(source=1, timeout=10)
            elif comm.rank == 2:
                time.sleep(0.3)  # rank 0 spends its retransmissions to rank 1 waiting here
                comm.send_reliable("hello", dest=0)

        with pytest.raises(RankFailedError, match="no acknowledgement from rank 1"):
            run_spmd(3, prog, timeout=60)


class TestPeerState:
    def test_forget_reliable_peer_resets_all_but_the_send_sequence(self):
        world = World(2)
        a, b = world.comm(0), world.comm(1)
        a.post_reliable("to the dead incarnation", dest=1)
        b.post_reliable("from it", dest=0)
        assert a.recv_reliable_owing(source=1, timeout=1) == "from it"
        assert _reliable_state(a) == (1, 1, 1)
        a.forget_reliable_peer(1)
        assert _reliable_state(a) == (0, 0, 0)
        a.post_reliable("next", dest=1)  # does not wait for the forgotten frame
        assert a._reliable_unacked[1].packet.seq == 1

    def test_replacement_sequence_numbers_start_above_the_predecessor(self):
        """One watermark serves a rank across its incarnations: whatever the
        dead one left in flight is below it, the replacement's frames above."""
        world = World(2)
        nature, old = world.comm(0), world.comm(1)
        for i in range(3):
            old.post_reliable(i, dest=0)
            assert nature.recv_reliable(source=1, timeout=1) == i
        stale = old._reliable_unacked[0].packet  # its last frame, resent from the grave below
        new = Comm(world, 1, incarnation=1)
        new.post_reliable("reborn", dest=0)
        assert new._reliable_unacked[0].packet.seq > stale.seq
        assert nature.recv_reliable(source=1, timeout=1) == "reborn"
        world.deliver(1, 0, _TAG_RDATA | stale.tag, stale, 0)
        with pytest.raises(RecvTimeoutError):
            nature.recv_reliable(source=1, timeout=0.1)
        assert _calls(world, "reliable_dedup") == 1

    def test_checksum_covers_the_header(self):
        world = World(2)
        a, b = world.comm(0), world.comm(1)
        a.post_reliable("x", dest=1)
        (source, tag, packet, nbytes, mid), = world.mailboxes[1].take_matching(lambda *_: True)
        world.deliver(source, 1, tag, dataclasses.replace(packet, ack=packet.ack + 7), nbytes, mid)
        with pytest.raises(RecvTimeoutError):
            b.recv_reliable(source=0, timeout=0.05)
        assert _calls(world, "reliable_corrupt") == 1


class TestBoundedState:
    # Last in the file: ten seconds of two busy threads can leave a shared
    # machine throttled, and the tests above count retransmissions.
    def test_hundred_thousand_messages_leave_constant_state(self):
        """The dedup state is a watermark, the unacked table one frame deep:
        10^5 messages through one pair leave no more behind than one does."""
        res = run_spmd(2, _ping_pong(50_000), timeout=300)
        assert res.returns == [(0, 0, 1), (0, 0, 1)]
        assert _calls(res.world, "reliable_send") == 100_000
