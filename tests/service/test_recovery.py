"""Crash-safety tests: recovery, fencing, drain, and the stall watchdog.

The acceptance bar, verbatim from the issue: SIGKILL the *service process*
mid-run and a fresh service on the same store must recover automatically,
finishing every run bit-identically to an uninterrupted reference; and a
second queue started concurrently on the same store must fence the first —
no double-dispatch, stale-epoch writes rejected.
"""

import json
import multiprocessing
import os
import signal
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import DrainingError, ServiceError, StaleLeaseError
from repro.io.runstore import RunStore
from repro.parallel import FaultPolicy, RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.journal import read_lease, replay_journal
from repro.service.queue import JobQueue
from repro.service.server import RunServer, RunService

pytestmark = [pytest.mark.service, pytest.mark.recovery]


def _spec(generations=30, seed=3, **kwargs) -> RunSpec:
    kwargs.setdefault("n_ranks", 2)
    kwargs.setdefault("checkpoint_every", 10)
    return RunSpec(
        config=SimulationConfig(n_ssets=8, generations=generations, seed=seed),
        **kwargs,
    )


def _serial_matrix(generations: int, seed: int) -> np.ndarray:
    driver = EvolutionDriver(
        SimulationConfig(n_ssets=8, generations=generations, seed=seed)
    )
    driver.run()
    return driver.population.matrix()


def _wait_for(predicate, timeout=60.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError("condition not reached in time")


@pytest.fixture
def store(tmp_path) -> RunStore:
    return RunStore(tmp_path / "runs")


class TestRecover:
    def test_clean_store_recovers_nothing(self, store):
        with JobQueue(store, max_workers=1) as queue:
            report = queue.recover()
        assert report.requeued == ()
        assert report.reconciled == ()
        assert report.killed_orphans == ()

    def test_orphaned_run_is_requeued_and_finishes_bit_identically(self, store):
        # Long enough that the run cannot finish between the poll that sees
        # generation 20 and the close that kills it (400 generations take
        # ~0.1 s on the windowed star).
        generations, seed = 4000, 11
        # A dead service's leftovers: spec + checkpoints from a real partial
        # run, status still saying "running" with a pid nobody owns.
        with JobQueue(store, max_workers=1) as queue:
            key = queue.submit("alice", "r1", _spec(generations=generations, seed=seed))
            _wait_for(lambda: queue.status("alice", "r1").generation >= 20)
        # close(kill=True) leaves the run queued in the store; fake the
        # dead-queue record shape (running, stale pid) to force the orphan path.
        status = store.read_status(key)
        status.update({"state": "running", "pid": 999999999})
        store.write_status(key, status)

        with JobQueue(store, max_workers=1) as fresh:
            report = fresh.recover()
            assert report.requeued == ("alice/r1",)
            final = fresh.wait("alice", "r1", timeout=120)
        assert final.state == "done"
        stored = store.load_result(key)
        assert np.array_equal(stored.matrix, _serial_matrix(generations, seed))
        # the relaunch resumed from a checkpoint, not from scratch
        restarts = [e for e in store.read_events(key) if e.get("type") == "restart"]
        assert not restarts  # supervisor-internal restarts are a different record
        types = [r["type"] for r in replay_journal(store.root)]
        assert "recovered" in types

    def test_recovery_kills_a_live_orphan_worker(self, store):
        # A worker of a "dead" queue that is still alive must be killed
        # before its run is re-adopted: two workers on one run would race.
        spec = _spec(generations=100_000, seed=5)
        with JobQueue(store, max_workers=1) as queue:
            key = queue.submit("alice", "r1", spec)
            _wait_for(lambda: queue.status("alice", "r1").state == "running")
            pid = _wait_for(lambda: queue.status("alice", "r1").pid)
            # Simulate the queue's process dying: drop the job from queue
            # memory so close() does not reap it, leaving a live orphan.
            with queue._lock:
                job = queue._jobs.pop(key)
            assert job.proc.is_alive()

            with JobQueue(store, max_workers=1) as fresh:
                report = fresh.recover()
                assert pid in report.killed_orphans
                _wait_for(lambda: not job.proc.is_alive(), timeout=10)
                assert fresh.status("alice", "r1").state in ("queued", "running")
                with fresh._lock:
                    fresh._jobs[key].preempt_requested = True
                    fresh._kill_locked(fresh._jobs[key])

    def test_finished_run_with_stale_status_is_reconciled(self, store):
        with JobQueue(store, max_workers=1) as queue:
            key = queue.submit("alice", "r1", _spec(generations=20, seed=7))
            queue.wait("alice", "r1", timeout=120)
        # Rewind status.json to the lie a SIGKILLed queue would leave.
        status = store.read_status(key)
        status.update({"state": "running", "pid": None})
        store.write_status(key, status)

        with JobQueue(store, max_workers=1) as fresh:
            report = fresh.recover()
            assert report.reconciled == ("alice/r1",)
            assert store.read_status(key)["state"] == "done"
            assert fresh.status("alice", "r1").state == "done"

    def test_failed_runs_are_not_resurrected(self, store):
        # Long enough to be killed mid-run: a 20-generation worker could
        # finish before the first poll, and a finished worker reports no pid.
        with JobQueue(store, max_workers=1) as queue:
            key = queue.submit(
                "alice",
                "r1",
                _spec(generations=100_000, fault=FaultPolicy(max_requeues=0)),
            )
            _wait_for(lambda: queue.status("alice", "r1").pid)
            os.kill(queue.status("alice", "r1").pid, signal.SIGKILL)
            _wait_for(lambda: queue.status("alice", "r1").state == "failed")
        with JobQueue(store, max_workers=1) as fresh:
            report = fresh.recover()
            assert report.requeued == ()
            assert fresh.status("alice", "r1").state == "failed"

    def test_run_service_recovers_automatically_at_startup(self, store):
        # Long enough that the queue is closed mid-run on any box: at 40
        # generations the worker finished inside one poll interval in ~1 of 7
        # tries, and recovery then (rightly) reconciled instead of requeueing.
        generations, seed = 4000, 13
        key = store.key("alice", "r1")
        with JobQueue(store, max_workers=1) as queue:
            queue.submit("alice", "r1", _spec(generations=generations, seed=seed))
            _wait_for(lambda: queue.status("alice", "r1").generation >= 10)
        status = store.read_status(key)
        status.update({"state": "running", "pid": None})
        store.write_status(key, status)

        with RunService(store.root, max_workers=1) as service:
            assert service.recovery.requeued == ("alice/r1",)
            final = service.queue.wait("alice", "r1", timeout=120)
        assert final.state == "done"
        assert np.array_equal(
            store.load_result(key).matrix, _serial_matrix(generations, seed)
        )


class TestFencing:
    def test_second_queue_fences_the_first(self, store):
        """A concurrent second queue on the same store wins the lease; the
        first stops dispatching and its stale-epoch writes are rejected."""
        spec = _spec(generations=100_000, seed=9)
        first = JobQueue(store, max_workers=1)
        try:
            key = first.submit("alice", "r1", spec)
            _wait_for(lambda: first.status("alice", "r1").state == "running")

            second = JobQueue(store, max_workers=1)
            try:
                assert second.epoch == first.epoch + 1
                claim_marker = len(replay_journal(store.root))
                report = second.recover()
                assert str(key) in report.requeued  # adopted from the first

                # The first queue discovers its demotion and fences itself.
                _wait_for(lambda: first.fenced, timeout=30)
                with pytest.raises(StaleLeaseError):
                    first.submit("alice", "r2", _spec())
                assert not store.exists(store.key("alice", "r2"))

                # No double-dispatch: after the second queue's claim, every
                # dispatched record in the journal carries the new epoch.
                for record in replay_journal(store.root)[claim_marker:]:
                    if record["type"] == "dispatched":
                        assert record["epoch"] == second.epoch
                # the store's lease agrees about the one current owner
                assert read_lease(store.root)["epoch"] == second.epoch
                with second._lock:
                    job = second._jobs[key]
                    job.preempt_requested = True
                    second._kill_locked(job)
            finally:
                second.close()
        finally:
            first.close()

    def test_fenced_queue_finishes_runs_bit_identically_under_new_owner(self, store):
        generations, seed = 60, 21
        first = JobQueue(store, max_workers=1)
        try:
            key = first.submit("alice", "r1", _spec(generations=generations, seed=seed))
            _wait_for(lambda: first.status("alice", "r1").generation >= 20)
            second = JobQueue(store, max_workers=1)
            try:
                second.recover()
                final = second.wait("alice", "r1", timeout=120)
                assert final.state == "done"
                assert np.array_equal(
                    store.load_result(key).matrix, _serial_matrix(generations, seed)
                )
            finally:
                second.close()
        finally:
            first.close()


class TestDrain:
    def test_drain_rejects_new_work_and_requeues_the_rest(self, store):
        queue = JobQueue(store, max_workers=1)
        key = queue.submit("alice", "r1", _spec(generations=100_000, seed=15))
        _wait_for(lambda: queue.status("alice", "r1").state == "running")
        queue.close(drain=0.3)  # far shorter than the run: the kill lands
        assert queue.draining
        with pytest.raises(ServiceError):
            queue.submit("alice", "r2", _spec())
        # The interrupted run was journaled as resumable, not failed.
        types = [r["type"] for r in replay_journal(store.root)]
        assert "drain" in types
        preempted = [r for r in replay_journal(store.root) if r["type"] == "preempted"]
        assert preempted and preempted[-1]["reason"] == "drain"
        assert store.read_status(key)["state"] == "queued"
        # ...and a fresh queue re-adopts it.
        with JobQueue(store, max_workers=1) as fresh:
            report = fresh.recover()
            assert report.requeued == ("alice/r1",)
            with fresh._lock:
                job = fresh._jobs[key]
                job.preempt_requested = True
                fresh._kill_locked(job)

    def test_drain_waits_for_short_runs_to_finish(self, store):
        queue = JobQueue(store, max_workers=1)
        queue.submit("alice", "r1", _spec(generations=20, seed=16))
        _wait_for(lambda: queue.status("alice", "r1").state == "running")
        queue.close(drain=120.0)  # run finishes well inside the grace window
        assert queue.status("alice", "r1").state == "done"

    def test_draining_error_maps_to_http_503_with_retry_after(self, tmp_path):
        with RunServer(tmp_path / "runs", max_workers=1) as server:
            server.start()
            client = ServiceClient(server.url)
            assert client.ready()
            server.service.queue._draining = True  # drain without closing
            assert not client.ready()

            with pytest.raises(ServiceHTTPError) as excinfo:
                client.submit("alice", "r1", spec=_spec().to_dict())
            assert excinfo.value.status == 503

            request = urllib.request.Request(
                f"{server.url}/v1/runs",
                data=json.dumps(
                    {"tenant": "a", "run_id": "r", "spec": _spec().to_dict()}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as http_info:
                urllib.request.urlopen(request, timeout=10)
            assert http_info.value.code == 503
            assert http_info.value.headers.get("Retry-After") is not None

            readyz = urllib.request.Request(f"{server.url}/v1/readyz")
            with pytest.raises(urllib.error.HTTPError) as ready_info:
                urllib.request.urlopen(readyz, timeout=10)
            assert ready_info.value.code == 503
            server.service.queue._draining = False  # let close() run normally


class TestStallWatchdog:
    def test_wedged_worker_is_killed_and_requeued(self, store):
        generations, seed = 3000, 17
        spec = _spec(
            generations=generations,
            seed=seed,
            fault=FaultPolicy(max_requeues=2, stall_timeout=1.0),
        )
        with JobQueue(store, max_workers=1) as queue:
            key = queue.submit("alice", "r1", spec)
            _wait_for(lambda: queue.status("alice", "r1").generation >= 10)
            pid = queue.status("alice", "r1").pid
            os.kill(pid, signal.SIGSTOP)  # wedge: alive but no progress
            final = queue.wait("alice", "r1", timeout=120)
        assert final.state == "done"
        assert final.requeues == 1  # the watchdog kill spent budget
        types = [r["type"] for r in replay_journal(store.root)]
        assert "stalled" in types
        assert np.array_equal(
            store.load_result(key).matrix, _serial_matrix(generations, seed)
        )


# -- the SIGKILLed-service acceptance -----------------------------------------

CHAOS_GENERATIONS = 6000
CHAOS_SEEDS = {"alice": 41, "bob": 42}


def _chaos_spec(seed: int) -> RunSpec:
    return RunSpec(
        config=SimulationConfig(n_ssets=8, generations=CHAOS_GENERATIONS, seed=seed),
        n_ranks=3,
        checkpoint_every=100,
        fault=FaultPolicy(max_requeues=2),
        name=f"crash-{seed}",
    )


def _service_main(root: str, url_file: str) -> None:
    """The victim service process: serve the store until SIGKILLed."""
    server = RunServer(root, max_workers=2, quota=2)
    server.start()
    Path(url_file).write_text(server.url, encoding="utf-8")
    while True:  # pragma: no cover - killed from outside
        time.sleep(0.5)


def _is_dead(pid: int) -> bool:
    """Gone, or a zombie: an orphan whose new parent has not reaped it yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


@pytest.mark.chaos
def test_sigkilled_service_recovers_bit_identically(tmp_path):
    """Two tenants over REST, the service SIGKILLed mid-run, a fresh service
    on the same store: automatic recovery, both matrices bit-identical."""
    references = {
        tenant: _serial_matrix(CHAOS_GENERATIONS, seed)
        for tenant, seed in CHAOS_SEEDS.items()
    }
    root = tmp_path / "runs"
    url_file = tmp_path / "url.txt"

    ctx = multiprocessing.get_context("fork")
    victim = ctx.Process(
        target=_service_main, args=(str(root), str(url_file)), daemon=False
    )
    victim.start()
    store = RunStore(root)
    keys = {tenant: store.key(tenant, "crash") for tenant in CHAOS_SEEDS}
    pids = []
    try:
        url = _wait_for(
            lambda: url_file.read_text(encoding="utf-8") if url_file.exists() else None
        )
        client = ServiceClient(url)
        for tenant, seed in CHAOS_SEEDS.items():
            client.submit(tenant, "crash", spec=_chaos_spec(seed).to_dict())

        # Both runs provably mid-flight, past at least one checkpoint:
        # recovery must *resume*, not restart.
        def worker_pids():
            found = [(store.read_status(key) or {}).get("pid") for key in keys.values()]
            checkpointed = all(store.latest_checkpoint(key) for key in keys.values())
            return found if checkpointed and all(found) else None

        pids = _wait_for(worker_pids, timeout=120)
    finally:
        # The whole host dies, workers included.  The victim is reaped with
        # waitpid, not victim.join(): its workers inherited the fork-context
        # sentinel pipe, so join() returns only once they have all exited.
        os.kill(victim.pid, signal.SIGKILL)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - caught below as "finished"
                pass
        os.waitpid(victim.pid, 0)
    for pid in pids:
        _wait_for(lambda: _is_dead(pid), timeout=30)

    # Everything is dead, so this cannot change any more; it is also exactly
    # what makes recovery requeue a run instead of reconciling a finished one.
    for tenant, key in keys.items():
        assert store.read_outcome(key) is None and not store.has_result(key), (
            f"{tenant}'s run finished before the kill landed:"
            " CHAOS_GENERATIONS is too small for this machine"
        )

    # A fresh service on the same store: recovery is automatic (default).
    with RunService(root, max_workers=2, quota=2) as service:
        assert {"alice/crash", "bob/crash"} <= set(service.recovery.requeued)
        for tenant in CHAOS_SEEDS:
            final = service.queue.wait(tenant, "crash", timeout=300)
            assert final.state == "done", f"{tenant}: {final.error}"

    for tenant, reference in references.items():
        stored = store.load_result(store.key(tenant, "crash"))
        assert np.array_equal(stored.matrix, reference), f"{tenant} diverged"
        assert stored.generation == CHAOS_GENERATIONS

    # The journal tells the whole story: both epochs, dispatches under each,
    # and recovery records from the second service.
    records = replay_journal(root)
    epochs = {r["epoch"] for r in records}
    assert len(epochs) >= 2
    assert any(r["type"] == "recovered" for r in records)
