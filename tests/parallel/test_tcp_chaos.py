"""Acceptance runs for the multi-host TCP substrate.

The strongest statement the transport can make: a fault-tolerant run
spanning two OS-process hosts over loopback TCP, with injected partitions,
connection resets and a worker crash, finishes with a strategy matrix
*bit-identical* to the fault-free single-host reference at the same seed.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.mpi.faults import FaultEvent, FaultPlan
from repro.parallel.runner import ParallelSimulation

pytestmark = pytest.mark.tcp


@pytest.fixture(scope="module")
def memory3_config():
    return SimulationConfig(memory=3, n_ssets=6, generations=40, seed=13, rounds=10)


@pytest.fixture(scope="module")
def reference_matrix(memory3_config):
    """The fault-free single-host (thread backend) trajectory."""
    return ParallelSimulation(memory3_config, n_ranks=3).run().matrix


def test_tcp_matches_thread_reference(memory3_config, reference_matrix):
    result = ParallelSimulation(
        memory3_config, n_ranks=3, eager_games=True, backend="tcp", n_hosts=2
    ).run()
    assert np.array_equal(result.matrix, reference_matrix)


@pytest.mark.chaos
def test_partition_reset_crash_bit_identical(memory3_config, reference_matrix, tmp_path):
    # The issue's acceptance run: two hosts, network chaos at the socket
    # layer (partitions, resets, slow links) plus a mid-run worker crash
    # healed by respawn — and the trajectory must not move a bit.  The
    # worker is the only one, so Nature holds the next window boundary for
    # its replacement; a checkpoint every generation keeps a frame and a
    # report per generation crossing the hosts for the chaos to hit.
    plan = FaultPlan(
        seed=42,
        conn_reset_p=0.03,
        partition_p=0.005,
        slow_link_p=0.02,
        partition_seconds=0.3,
        events=(FaultEvent(kind="crash", rank=1, generation=5),),
    )
    result = ParallelSimulation(
        memory3_config,
        n_ranks=2,
        eager_games=True,
        backend="tcp",
        n_hosts=2,
        fault_plan=plan,
        on_rank_failure="respawn",
        heartbeat_timeout=10.0,
        checkpoint_dir=tmp_path,
        checkpoint_every=1,
    ).run()
    assert np.array_equal(result.matrix, reference_matrix)
    assert result.failed_ranks == ()
    assert [(r.rank, r.incarnation) for r in result.respawns] == [(1, 1)]
    assert [(e.rank, e.incarnation) for e in result.recoveries] == [(1, 1)]
    # The replacement's hello lands at the first window boundary after the
    # crash: pin the range, not the exact boundary.
    assert 5 <= result.recoveries[0].generation < memory3_config.generations
    # The transport had to actually heal something for this to mean much.
    net = {k: v.calls for k, v in result.counters.items() if k.startswith("net.")}
    assert net.get("net.conn_reset", 0) >= 1
    assert net.get("net.reconnect", 0) >= 1


@pytest.mark.chaos
def test_same_seed_same_network_schedule(memory3_config, tmp_path):
    # Chaos is a pure function of the plan seed: two runs under the same
    # plan must fire the identical fault schedule (and agree on results).
    # A checkpoint every generation keeps a frame per generation on the wire.
    plan = FaultPlan(seed=7, conn_reset_p=0.04, slow_link_p=0.03)

    def run():
        return ParallelSimulation(
            memory3_config,
            n_ranks=3,
            eager_games=True,
            backend="tcp",
            n_hosts=2,
            fault_plan=plan,
            heartbeat_timeout=10.0,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        ).run()

    first, second = run(), run()
    assert np.array_equal(first.matrix, second.matrix)
    first_net = [(e.kind, e.rank, e.dest, e.op_index) for e in first.fault_events]
    second_net = [(e.kind, e.rank, e.dest, e.op_index) for e in second.fault_events]
    assert first_net == second_net
    assert any(kind in ("conn_reset", "slow_link") for kind, *_ in first_net)


@pytest.mark.chaos
@pytest.mark.parametrize("backend", ["tcp", "process"])
def test_conn_reset_inside_a_long_eager_window(
    memory3_config, reference_matrix, tmp_path, backend
):
    # Eager windows run to the next checkpoint, so each frame carries ten
    # generations and each report answers ten generations of slates.  The
    # plan resets the socket under the second message on the link from
    # Nature to rank 1 (host 1 either way): the frame of generations 11-20,
    # unless a slow report made Nature ack rank 1's first one on its own.
    # A process world is a socket world with a host per rank, so the
    # plan's link faults reach it too.
    plan = FaultPlan(
        seed=5, events=(FaultEvent(kind="conn_reset", rank=0, dest=1, op_index=1),)
    )
    result = ParallelSimulation(
        memory3_config,
        n_ranks=3,
        eager_games=True,
        backend=backend,
        n_hosts=2,
        fault_plan=plan,
        heartbeat_timeout=10.0,
        checkpoint_dir=tmp_path,
        checkpoint_every=10,
    ).run()
    assert np.array_equal(result.matrix, reference_matrix)
    assert result.failed_ranks == ()
    assert result.counters["heartbeat"].calls == 4 * 2  # four windows, two workers
    assert result.counters["net.conn_reset"].calls >= 1
    assert any(
        (e.kind, e.rank, e.dest, e.op_index) == ("conn_reset", 0, 1, 1)
        for e in result.fault_events
    )
