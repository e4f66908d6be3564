"""Tests for the job queue: quotas, fair share, preemption, requeue."""

import os
import signal
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import QuotaError, RunStoreError, ServiceError, UnknownRunError
from repro.io.runstore import RunStore
from repro.parallel import FaultPolicy, RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.service.queue import Job, JobQueue

pytestmark = pytest.mark.service


def _spec(generations=30, seed=3, **kwargs) -> RunSpec:
    kwargs.setdefault("n_ranks", 2)
    kwargs.setdefault("checkpoint_every", 10)
    return RunSpec(
        config=SimulationConfig(n_ssets=8, generations=generations, seed=seed),
        **kwargs,
    )


def _wait_for(predicate, timeout=30.0, poll=0.02):
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


class TestAdmission:
    def test_quota_enforced_at_submit(self, store):
        with JobQueue(store, max_workers=1, quota=2) as queue:
            queue.submit("alice", "r1", _spec())
            queue.submit("alice", "r2", _spec())
            with pytest.raises(QuotaError, match="quota of 2"):
                queue.submit("alice", "r3", _spec())
            # another tenant is unaffected
            queue.submit("bob", "r1", _spec())

    def test_quota_overrides_per_tenant(self, store):
        with JobQueue(store, max_workers=1, quota=2, quotas={"alice": 1}) as queue:
            queue.submit("alice", "r1", _spec())
            with pytest.raises(QuotaError, match="quota of 1"):
                queue.submit("alice", "r2", _spec())

    def test_rejected_submission_persists_nothing(self, store):
        with JobQueue(store, max_workers=1, quota=1) as queue:
            queue.submit("alice", "r1", _spec())
            with pytest.raises(QuotaError):
                queue.submit("alice", "r2", _spec())
            assert not store.exists(store.key("alice", "r2"))

    def test_duplicate_key_rejected(self, store):
        with JobQueue(store, max_workers=1, quota=4) as queue:
            queue.submit("alice", "r1", _spec())
            queue.wait("alice", "r1", timeout=60)
            with pytest.raises(RunStoreError, match="write-once"):
                queue.submit("alice", "r1", _spec())

    def test_closed_queue_rejects_work(self, store):
        queue = JobQueue(store, max_workers=1)
        queue.close()
        with pytest.raises(ServiceError, match="closed"):
            queue.submit("alice", "r1", _spec())


class TestExecution:
    def test_run_completes_and_stores_result(self, store):
        config = SimulationConfig(n_ssets=8, generations=30, seed=3)
        driver = EvolutionDriver(config)
        driver.run()
        with JobQueue(store, max_workers=1) as queue:
            queue.submit("alice", "r1", _spec())
            status = queue.wait("alice", "r1", timeout=60)
        assert status.state == "done"
        assert status.generation == 30
        stored = store.load_result(store.key("alice", "r1"))
        assert np.array_equal(stored.matrix, driver.population.matrix())

    def test_concurrent_tenants_both_finish(self, store):
        with JobQueue(store, max_workers=2) as queue:
            queue.submit("alice", "r1", _spec(seed=3))
            queue.submit("bob", "r1", _spec(seed=4))
            assert queue.wait("alice", "r1", timeout=60).state == "done"
            assert queue.wait("bob", "r1", timeout=60).state == "done"

    def test_status_survives_queue_restart(self, store):
        with JobQueue(store, max_workers=1) as queue:
            queue.submit("alice", "r1", _spec())
            queue.wait("alice", "r1", timeout=60)
        fresh = JobQueue(store, max_workers=1)
        try:
            status = fresh.status("alice", "r1")
            assert status.state == "done"
            assert status.generation == 30
        finally:
            fresh.close()

    def test_unknown_run_raises(self, store):
        with JobQueue(store, max_workers=1) as queue:
            with pytest.raises(UnknownRunError):
                queue.status("alice", "ghost")


class TestFairShare:
    def test_picker_prefers_tenant_with_fewest_running(self, store):
        queue = JobQueue(store, max_workers=1)
        queue.close()  # scheduler off; drive the picker directly
        jobs = {
            "a1": Job(key=store.key("alice", "a1"), spec=_spec(), seq=0),
            "a2": Job(key=store.key("alice", "a2"), spec=_spec(), seq=1),
            "b1": Job(key=store.key("bob", "b1"), spec=_spec(), seq=2),
        }
        jobs["a1"].state = "running"
        queue._jobs = {j.key: j for j in jobs.values()}
        # alice already holds the one busy slot -> bob wins despite FIFO.
        assert queue._pick_locked().key.tenant == "bob"

    def test_picker_fifo_within_tenant(self, store):
        queue = JobQueue(store, max_workers=1)
        queue.close()
        jobs = [
            Job(key=store.key("alice", f"r{i}"), spec=_spec(), seq=i) for i in range(3)
        ]
        queue._jobs = {j.key: j for j in jobs}
        assert queue._pick_locked().key.run_id == "r0"

    def test_picker_ties_break_to_stalest_tenant(self, store):
        queue = JobQueue(store, max_workers=1)
        queue.close()
        jobs = {
            "a": Job(key=store.key("alice", "r1"), spec=_spec(), seq=0),
            "b": Job(key=store.key("bob", "r1"), spec=_spec(), seq=1),
        }
        queue._jobs = {j.key: j for j in jobs.values()}
        queue._last_served = {"alice": 10, "bob": 3}  # bob served longer ago
        assert queue._pick_locked().key.tenant == "bob"

    def test_fair_share_interleaves_two_tenants(self, store):
        # alice floods the queue, bob submits one run; with one worker slot
        # bob must not wait behind all of alice's backlog.
        order = []
        with JobQueue(store, max_workers=1, quota=4) as queue:
            real_launch = queue._launch_locked

            def recording_launch(job):
                order.append(str(job.key))
                real_launch(job)

            queue._launch_locked = recording_launch
            for i in range(3):
                queue.submit("alice", f"r{i}", _spec(generations=20, seed=i + 1))
            queue.submit("bob", "r0", _spec(generations=20, seed=9))
            for i in range(3):
                queue.wait("alice", f"r{i}", timeout=120)
            queue.wait("bob", "r0", timeout=120)
        assert order.index("bob/r0") <= 1  # bob ran first or second, not last


class TestPreemptionAndRequeue:
    def test_preempt_requeues_without_spending_budget(self, store):
        with JobQueue(store, max_workers=1) as queue:
            queue.submit(
                "alice", "r1",
                _spec(generations=4000, fault=FaultPolicy(max_requeues=0)),
            )
            _wait_for(lambda: queue.status("alice", "r1").pid)
            queue.preempt("alice", "r1")
            status = queue.wait("alice", "r1", timeout=120)
        # max_requeues=0, yet the preempted run still finished: explicit
        # preemption is free.
        assert status.state == "done"
        assert status.requeues == 0
        assert status.incarnations == 2

    def test_killed_worker_resumes_from_checkpoint(self, store):
        config = SimulationConfig(n_ssets=8, generations=3000, seed=5)
        driver = EvolutionDriver(config)
        driver.run()
        with JobQueue(store, max_workers=1) as queue:
            queue.submit(
                "alice", "r1",
                _spec(generations=3000, seed=5, fault=FaultPolicy(max_requeues=1)),
            )

            def past_first_checkpoint():
                status = queue.status("alice", "r1")
                return status.pid if status.generation >= 20 else None

            pid = _wait_for(past_first_checkpoint)
            os.kill(pid, signal.SIGKILL)
            status = queue.wait("alice", "r1", timeout=120)
        assert status.state == "done"
        assert status.requeues == 1
        stored = store.load_result(store.key("alice", "r1"))
        assert np.array_equal(stored.matrix, driver.population.matrix())

    def test_requeue_budget_exhausted_fails_the_run(self, store):
        with JobQueue(store, max_workers=1) as queue:
            queue.submit(
                "alice", "r1",
                _spec(generations=100_000, fault=FaultPolicy(max_requeues=0)),
            )
            pid = _wait_for(lambda: queue.status("alice", "r1").pid)
            os.kill(pid, signal.SIGKILL)
            status = queue.wait("alice", "r1", timeout=60)
        assert status.state == "failed"
        assert "requeue budget" in status.error

    def test_preempt_unknown_run(self, store):
        with JobQueue(store, max_workers=1) as queue:
            with pytest.raises(UnknownRunError):
                queue.preempt("alice", "ghost")


class TestResume:
    def test_resume_unknown_run(self, store):
        with JobQueue(store, max_workers=1) as queue:
            with pytest.raises(UnknownRunError):
                queue.resume("alice", "ghost")

    def test_resume_finished_run_refused(self, store):
        with JobQueue(store, max_workers=1) as queue:
            queue.submit("alice", "r1", _spec())
            queue.wait("alice", "r1", timeout=60)
            with pytest.raises(ServiceError, match="already has a result"):
                queue.resume("alice", "r1")

    def test_resume_after_failure_completes_from_checkpoint(self, store):
        spec = _spec(generations=3000, seed=5, fault=FaultPolicy(max_requeues=0))
        with JobQueue(store, max_workers=1) as queue:
            queue.submit("alice", "r1", spec)

            def past_first_checkpoint():
                status = queue.status("alice", "r1")
                return status.pid if status.generation >= 20 else None

            pid = _wait_for(past_first_checkpoint)
            os.kill(pid, signal.SIGKILL)
            assert queue.wait("alice", "r1", timeout=60).state == "failed"
            # A fresh queue (service restart) resumes the stored run by key.
        with JobQueue(store, max_workers=1) as fresh:
            fresh.resume("alice", "r1")
            status = fresh.wait("alice", "r1", timeout=120)
        assert status.state == "done"
        config = SimulationConfig(n_ssets=8, generations=3000, seed=5)
        driver = EvolutionDriver(config)
        driver.run()
        stored = store.load_result(store.key("alice", "r1"))
        assert np.array_equal(stored.matrix, driver.population.matrix())


class TestStatusHonesty:
    """Regression: ``status()`` used to parrot a dead queue's ``running``
    record forever.  Store-side reconstruction must reconcile instead."""

    def test_dead_queues_running_record_reports_orphaned(self, store):
        key = store.key("alice", "r1")
        store.create_run(key, _spec())
        # A dead queue's word: running under an epoch nobody holds any more.
        store.write_status(
            key,
            {"tenant": "alice", "run_id": "r1", "state": "running",
             "pid": 999_999_999, "epoch": 1},
        )
        with JobQueue(store, max_workers=1) as queue:
            status = queue.status("alice", "r1")
        assert status.state == "orphaned"
        assert status.pid is None

    def test_running_record_with_result_reports_done(self, store):
        with JobQueue(store, max_workers=1) as queue:
            queue.submit("alice", "r1", _spec())
            queue.wait("alice", "r1", timeout=60)
        key = store.key("alice", "r1")
        # Lose the terminal status/outcome writes, as a crash would.
        (store.run_dir(key) / "outcome.json").unlink()
        store.write_status(
            key,
            {"tenant": "alice", "run_id": "r1", "state": "running",
             "pid": 999_999_999, "epoch": 1},
        )
        with JobQueue(store, max_workers=1) as fresh:
            assert fresh.status("alice", "r1").state == "done"


class TestCloseKillFalse:
    """Regression: ``close(kill=False)`` used to leak the scheduler thread
    silently when workers outlived the caller."""

    def test_close_without_kill_times_out_loudly(self, store):
        queue = JobQueue(store, max_workers=1)
        try:
            queue.submit("alice", "r1", _spec(generations=100_000))
            _wait_for(lambda: queue.status("alice", "r1").pid)
            with pytest.raises(ServiceError, match="timed out"):
                queue.close(kill=False, timeout=0.5)
        finally:
            # A second close with kill=True must reclaim the stragglers.
            queue.close(kill=True)
        assert not queue._thread.is_alive()
        assert queue.status("alice", "r1").state == "queued"  # resumable

    def test_close_without_kill_waits_for_short_runs(self, store):
        queue = JobQueue(store, max_workers=1)
        queue.submit("alice", "r1", _spec(generations=20))
        _wait_for(lambda: queue.status("alice", "r1").pid)
        queue.close(kill=False, timeout=60.0)
        assert queue.status("alice", "r1").state == "done"
        assert not queue._thread.is_alive()
