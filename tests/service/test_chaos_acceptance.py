"""Acceptance: the service survives chaos and still tells the exact truth.

The ISSUE's bar, verbatim: two tenants submit overlapping runs through the
REST API, one tenant's worker process is chaos-killed mid-run, the
supervisor restarts it from its latest checkpoint, and BOTH tenants'
final matrices are bit-identical to serial-driver references — while a
client that fetches the stored result later gets exactly what the live
run returned, and the SSE stream delivered monotonically increasing
generation progress throughout.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.io.runstore import RunStore
from repro.parallel import FaultPolicy, RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.service.client import ServiceClient
from repro.service.server import RunServer

pytestmark = [pytest.mark.service, pytest.mark.chaos]

GENERATIONS = 2400
ALICE_SEED = 31
BOB_SEED = 32


def _spec(seed: int) -> RunSpec:
    return RunSpec(
        config=SimulationConfig(n_ssets=8, generations=GENERATIONS, seed=seed),
        n_ranks=3,
        checkpoint_every=20,
        fault=FaultPolicy(max_requeues=2),
        name=f"chaos-{seed}",
    )


def _serial_matrix(seed: int) -> np.ndarray:
    driver = EvolutionDriver(
        SimulationConfig(n_ssets=8, generations=GENERATIONS, seed=seed)
    )
    driver.run()
    return driver.population.matrix()


class _StreamCollector(threading.Thread):
    """One tenant's SSE subscriber, collecting progress as it arrives."""

    def __init__(self, client: ServiceClient, tenant: str, run_id: str) -> None:
        super().__init__(name=f"sse-{tenant}", daemon=True)
        self.client = client
        self.tenant = tenant
        self.run_id = run_id
        self.generations: list[int] = []
        self.kinds: list[str] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            for kind, payload in self.client.stream(
                self.tenant, self.run_id, timeout=120
            ):
                self.kinds.append(kind)
                if kind == "progress":
                    self.generations.append(payload["generation"])
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            self.error = exc


def test_two_tenants_survive_a_chaos_kill(tmp_path):
    serial_alice = _serial_matrix(ALICE_SEED)
    serial_bob = _serial_matrix(BOB_SEED)

    with RunServer(tmp_path / "runs", max_workers=2, quota=2) as server:
        server.start()
        client = ServiceClient(server.url)

        # Two tenants, overlapping runs, one worker slot each.
        client.submit("alice", "chaos", spec=_spec(ALICE_SEED))
        client.submit("bob", "steady", spec=_spec(BOB_SEED))

        streams = [
            _StreamCollector(client, "alice", "chaos"),
            _StreamCollector(client, "bob", "steady"),
        ]
        for stream in streams:
            stream.start()

        # Chaos: SIGKILL alice's worker once it is provably past its first
        # checkpoint, so the relaunch must *resume*, not restart.
        deadline = time.monotonic() + 60
        pid = None
        while time.monotonic() < deadline:
            status = client.status("alice", "chaos")
            if status["pid"] and status["generation"] >= 30:
                pid = status["pid"]
                break
            time.sleep(0.05)
        assert pid is not None, "alice's worker never reported progress"
        os.kill(pid, signal.SIGKILL)

        for stream in streams:
            stream.join(timeout=180)
            assert not stream.is_alive(), f"{stream.name} never finished"
            assert stream.error is None, f"{stream.name}: {stream.error}"

        alice_status = client.status("alice", "chaos")
        bob_status = client.status("bob", "steady")
        assert alice_status["state"] == "done"
        assert bob_status["state"] == "done"
        assert alice_status["incarnations"] == 2  # the kill really landed
        assert alice_status["requeues"] == 1

        # SSE delivered monotonically increasing progress for both tenants,
        # all the way to the end, with no repeats across the worker death.
        for stream in streams:
            assert stream.generations == sorted(set(stream.generations))
            assert stream.generations[-1] == GENERATIONS
        assert "restart" not in streams[1].kinds  # bob never felt the chaos

        # Both live results are bit-identical to the serial references.
        live_alice = client.result("alice", "chaos")
        live_bob = client.result("bob", "steady")
        assert np.array_equal(live_alice.matrix, serial_alice)
        assert np.array_equal(live_bob.matrix, serial_bob)

    # Later, with the service gone: a fresh store fetches the same result
    # by key — bit-identical to what the live client saw.
    store = RunStore(tmp_path / "runs")
    for tenant, run_id, live in [
        ("alice", "chaos", live_alice),
        ("bob", "steady", live_bob),
    ]:
        stored = store.load_result(store.key(tenant, run_id))
        assert np.array_equal(stored.matrix, live.matrix)
        assert stored.generation == live.generation
    assert store.load_result(store.key("alice", "chaos")).attempts >= 1
