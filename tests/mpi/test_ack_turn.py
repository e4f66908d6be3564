"""``Comm.settle_due_acks``: the non-blocking ack turn a busy rank takes.

A rank that owes acks and is busy between reliable calls (Nature drafting
a window, writing a checkpoint) sends those owed for ``_ACK_DELAY`` or
longer, as it would were it blocked in a reliable call, and no others.  The
clock is driven by backdating the owed timestamps, never by sleeping.
"""

import math
import time

from repro.mpi.comm import _ACK_DELAY, _TAG_RACK, World


def _calls(world, name: str) -> int:
    count = world.counters.get(name)
    return count.calls if count else 0


def test_only_the_acks_owed_for_the_delay_go_out():
    world = World(3)
    busy, late, fresh = (world.comm(rank) for rank in range(3))
    late.post_reliable("late", dest=0)
    fresh.post_reliable("fresh", dest=0)
    assert busy.recv_reliable_owing(source=1, timeout=5) == "late"
    assert busy.recv_reliable_owing(source=2, timeout=5) == "fresh"
    assert _calls(world, "reliable_ack") == 0  # both acks owed, none sent

    # Rank 1's ack has been owed for exactly the delay; rank 2's only from a
    # minute ahead, so no pause of this process can make it due.
    now = time.monotonic()
    busy._reliable_owed.update({1: now - _ACK_DELAY, 2: now + 60.0})
    assert busy.settle_due_acks() == now + 60.0 + _ACK_DELAY
    assert list(busy._reliable_owed) == [2]
    assert _calls(world, "reliable_ack") == 1
    assert late.probe(source=0, tag=_TAG_RACK) and not fresh.probe(source=0, tag=_TAG_RACK)
    late._await_acked(0)  # the ack is in its mailbox: returns at once
    assert not late._reliable_unacked and 0 in fresh._reliable_unacked

    # A second turn finds nothing due and sends nothing.
    busy.settle_due_acks()
    assert _calls(world, "reliable_ack") == 1
    busy._reliable_owed.clear()
    assert busy.settle_due_acks() == math.inf
