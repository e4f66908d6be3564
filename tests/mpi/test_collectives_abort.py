"""Every collective must unwind promptly on all ranks when any rank aborts.

A collective that deadlocks on abort would turn one rank's failure into a
whole-job hang — the opposite of what the fault-tolerance work needs.  Each
test parks the other ranks inside the collective (the aborter is chosen so
that they genuinely block: the root for root-driven collectives, a mid-tree
rank otherwise), has the aborter call ``abort`` instead of entering, and
asserts every survivor raises CommAbortError well before the executor
timeout.
"""

import time

import pytest

from repro.errors import CommAbortError
from repro.mpi.executor import run_spmd

_N_RANKS = 6


def _run_and_time(collective_call, aborter):
    """Run the abort scenario; returns wall-clock seconds until unwound."""

    def prog(comm):
        if comm.rank == aborter:
            # Give the others time to actually block inside the collective.
            time.sleep(0.2)
            comm.abort("chaos")
        collective_call(comm)

    start = time.monotonic()
    with pytest.raises(CommAbortError):
        run_spmd(_N_RANKS, prog, timeout=60)
    return time.monotonic() - start


class TestCollectivesUnblockOnAbort:
    def test_bcast(self):
        # Root aborts: every other rank is blocked waiting on its parent.
        assert _run_and_time(lambda c: c.bcast("x" if c.rank == 0 else None, root=0), 0) < 15

    def test_gather(self):
        # A leaf aborts: the root blocks waiting for its contribution.
        assert _run_and_time(lambda c: c.gather(c.rank, root=0), 3) < 15

    def test_reduce(self):
        assert _run_and_time(lambda c: c.reduce(c.rank, root=0), 3) < 15

    def test_allreduce(self):
        assert _run_and_time(lambda c: c.allreduce(c.rank), 3) < 15

    def test_barrier(self):
        assert _run_and_time(lambda c: c.barrier(), 3) < 15

    def test_abort_reason_propagates(self):
        def prog(comm):
            if comm.rank == 3:
                time.sleep(0.1)
                comm.abort("specific reason")
            comm.barrier()

        with pytest.raises(CommAbortError, match="specific reason"):
            run_spmd(_N_RANKS, prog, timeout=60)
