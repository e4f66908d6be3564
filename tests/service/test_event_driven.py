"""The service wakes on events, not ticks.

Every queue here runs with ``poll=30.0`` (and every stream over a live job
with ``poll=30.0``): a path that still waited for a tick would time out, so
the verdicts do not depend on how fast the box is and no test asserts an
elapsed time.  Also here: the wake pipe's fd hygiene, the bounded read
behind a status's ``generation``, and the worker's ``events.jsonl`` under
the names-only tap.
"""

import json
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.io.runstore import RunStore
from repro.mpi import FaultEvent, FaultPlan
from repro.obs.stream import read_events
from repro.parallel import FaultPolicy, RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.service.journal import replay_journal
from repro.service.queue import JobQueue, _WakePipe
from repro.service.server import RunService

pytestmark = pytest.mark.service

TICK = 30.0  # longer than any wait below: a tick never comes to the rescue


def _spec(generations=30, seed=3, **kwargs) -> RunSpec:
    kwargs.setdefault("n_ranks", 2)
    kwargs.setdefault("checkpoint_every", 10)
    return RunSpec(
        config=SimulationConfig(n_ssets=8, generations=generations, seed=seed),
        **kwargs,
    )


def _serial_matrix(generations: int, seed: int) -> np.ndarray:
    driver = EvolutionDriver(SimulationConfig(n_ssets=8, generations=generations, seed=seed))
    driver.run()
    return driver.population.matrix()


def _wait_for(predicate, timeout=30.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError("condition not reached in time")


def _collect(iterator, timeout=20.0) -> list[dict]:
    """Drain ``iterator`` on a thread; fail if it has not ended in ``timeout``."""
    out: list[dict] = []
    thread = threading.Thread(target=lambda: out.extend(iterator), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the stream did not end"
    return out


@pytest.fixture
def store(tmp_path) -> RunStore:
    return RunStore(tmp_path / "runs")


class TestSchedulerWakesOnWorkerExit:
    def test_job_is_reaped_when_its_worker_exits(self, store):
        with JobQueue(store, max_workers=1, poll=TICK) as queue:
            queue.submit("alice", "r1", _spec())
            assert queue.wait("alice", "r1", timeout=20).state == "done"

    def test_next_job_is_dispatched_when_the_slot_frees(self, store):
        with JobQueue(store, max_workers=1, poll=TICK) as queue:
            queue.submit("alice", "r1", _spec(seed=1))
            queue.submit("alice", "r2", _spec(seed=2))
            assert queue.wait("alice", "r2", timeout=20).state == "done"
            assert queue.status("alice", "r1").state == "done"

    def test_preempted_run_is_requeued_and_finishes(self, store):
        with JobQueue(store, max_workers=1, poll=TICK) as queue:
            queue.submit(
                "alice", "r1", _spec(generations=4000, fault=FaultPolicy(max_requeues=0))
            )
            _wait_for(lambda: queue.status("alice", "r1").pid)
            queue.preempt("alice", "r1")
            status = queue.wait("alice", "r1", timeout=20)
        assert (status.state, status.requeues, status.incarnations) == ("done", 0, 2)

    def test_killed_worker_is_requeued_within_its_budget(self, store):
        generations, seed = 4000, 5
        with JobQueue(store, max_workers=1, poll=TICK) as queue:
            key = queue.submit(
                "alice", "r1",
                _spec(generations=generations, seed=seed, fault=FaultPolicy(max_requeues=1)),
            )
            os.kill(_wait_for(lambda: queue.status("alice", "r1").pid), signal.SIGKILL)
            status = queue.wait("alice", "r1", timeout=20)
        assert (status.state, status.requeues) == ("done", 1)
        assert [r["reason"] for r in replay_journal(store.root) if r["type"] == "requeued"] == [
            "worker-death"
        ]
        assert np.array_equal(store.load_result(key).matrix, _serial_matrix(generations, seed))

    def test_drain_ends_when_the_last_worker_does(self, store):
        queue = JobQueue(store, max_workers=1, poll=TICK)
        key = queue.submit("alice", "r1", _spec(generations=200))
        _wait_for(lambda: queue.status("alice", "r1").state == "running")
        closer = threading.Thread(target=queue.close, kwargs={"drain": 60.0}, daemon=True)
        closer.start()
        closer.join(20)
        assert not closer.is_alive(), "the drain outlived its only worker"
        assert store.read_status(key)["state"] == "done"
        assert "preempted" not in [r["type"] for r in replay_journal(store.root)]


class TestStreamWaitsOnItsJob:
    def test_live_stream_ends_when_the_job_is_reaped(self, tmp_path):
        with RunService(tmp_path / "runs", max_workers=1) as svc:
            svc.submit("alice", "r1", _spec())
            events = _collect(svc.stream("alice", "r1", poll=TICK))
        types = [e["type"] for e in events]
        assert types[0] == "worker-started" and types[-1] == "done"
        # One record per window: each checkpoint (every 10th generation) ends one.
        assert [e["generation"] for e in events if e["type"] == "progress"] == [10, 20, 30]

    def test_stored_terminal_run_still_ends_by_polling(self, tmp_path):
        with RunService(tmp_path / "runs", max_workers=1) as svc:
            svc.submit("alice", "r1", _spec())
            svc.queue.wait("alice", "r1", timeout=60)
        with RunService(tmp_path / "runs", max_workers=1) as later:
            assert later.queue.done_event("alice", "r1") is None  # stored, not owned
            events = _collect(later.stream("alice", "r1", poll=0.02))
        assert events[-1]["type"] == "done"

    def test_fenced_service_follows_the_new_owner_by_polling(self, tmp_path):
        generations, seed = 3000, 9
        first = RunService(tmp_path / "runs", max_workers=1)
        try:
            first.submit("alice", "r1", _spec(generations=generations, seed=seed))
            _wait_for(lambda: first.status("alice", "r1").state == "running")
            with RunService(tmp_path / "runs", max_workers=1) as second:
                assert second.recovery.requeued == ("alice/r1",)
                _wait_for(lambda: first.queue.fenced)
                assert first.queue.done_event("alice", "r1") is None
                events = _collect(first.stream("alice", "r1", poll=0.02), timeout=60)
                assert second.status("alice", "r1").state == "done"
            assert events[-1]["type"] == "done"
            assert events[-1]["generation"] == generations
        finally:
            first.close()


class TestWakePipe:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_open_close_cycles_leak_no_fds(self, store):
        JobQueue(store).close()  # whatever the first queue leaves open, lazily
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            JobQueue(store).close()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_set_racing_close_never_raises(self):
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(50):
                pipe, errors = _WakePipe(), []

                def hammer():
                    try:
                        for _ in range(200):
                            pipe.set()
                    except OSError as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=hammer, daemon=True) for _ in range(4)]
                for thread in threads:
                    thread.start()
                pipe.close()
                for thread in threads:
                    thread.join(10)
                assert not errors and not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)

    def test_wake_after_close_is_a_noop(self, store):
        queue = JobQueue(store)
        queue.close()
        queue._wake.set()
        queue._wake.close()
        queue.close()


class TestLastGenerationReadsTheTail:
    """``status().generation`` must not parse the whole events file."""

    LINES = 50_000

    @pytest.fixture
    def queue(self, store):
        with JobQueue(store, max_workers=1) as queue:
            yield queue

    def _events_file(self, store, tail: str = ""):
        key = store.key("alice", "r1")
        store.create_run(key, _spec())
        lines = [json.dumps({"type": "worker-started", "pid": 1, "time": 0.0})]
        lines += [
            json.dumps({"type": "progress", "generation": g, "time": 0.0})
            for g in range(1, self.LINES)
        ]
        store.events_path(key).write_text("\n".join(lines) + "\n" + tail, encoding="utf-8")
        return key

    def _counted(self, queue, key, monkeypatch) -> tuple[int, int]:
        full = max(
            (e.get("generation", 0) for e in read_events(queue.store.events_path(key))
             if e.get("type") == "progress"),
            default=0,
        )
        parsed = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(1) or real(s, **kw))
        assert queue._last_generation(key) == full
        monkeypatch.undo()
        return full, len(parsed)

    def test_long_file_parses_a_handful_of_lines(self, store, queue, monkeypatch):
        key = self._events_file(store)
        generation, parsed = self._counted(queue, key, monkeypatch)
        assert generation == self.LINES - 1
        assert parsed <= 3
        assert queue.status("alice", "r1").generation == generation

    def test_torn_last_line_is_skipped(self, store, queue, monkeypatch):
        key = self._events_file(store, tail='{"type": "progress", "generation": 999')
        generation, parsed = self._counted(queue, key, monkeypatch)
        assert generation == self.LINES - 1
        assert parsed <= 4

    def test_restart_and_done_records_after_the_last_progress(self, store, queue, monkeypatch):
        tail = "".join(
            json.dumps(record) + "\n"
            for record in (
                {"type": "restart", "attempt": 0, "generation": 40, "error": "x" * 20_000},
                {"type": "worker-started", "pid": 2, "time": 0.0},
                {"type": "done", "generation": 77, "attempts": 2, "time": 0.0},
            )
        )
        key = self._events_file(store, tail=tail)
        generation, parsed = self._counted(queue, key, monkeypatch)
        assert generation == self.LINES - 1  # a restart's or done's generation is not progress
        assert parsed <= 8

    def test_no_progress_yet_and_no_file(self, store, queue):
        key = store.key("alice", "r1")
        store.create_run(key, _spec())
        assert queue._last_generation(key) == 0
        store.events_path(key).write_text('{"type": "worker-started"}\n{"type": "pro')
        assert queue._last_generation(key) == 0


class TestWorkerEventsUnderTheNamesOnlyTap:
    def test_events_file_keeps_its_records_across_a_supervised_restart(self, store):
        """worker-started, one progress line per window end (none repeated
        after the restart from generation 30's checkpoint, and none for the
        window the crash cut short), the restart record, done — what the
        full tap wrote."""
        generations, seed = 60, 13
        crash = FaultPlan(
            seed=1, immune_ranks=(), events=(FaultEvent(kind="crash", rank=0, generation=35),)
        )
        spec = _spec(
            generations=generations, seed=seed, n_ranks=3, checkpoint_every=15, fault_plan=crash,
            fault=FaultPolicy(max_restarts=2, backoff=0.01),
        )
        with JobQueue(store, max_workers=1) as queue:
            key = queue.submit("alice", "r1", spec)
            assert queue.wait("alice", "r1", timeout=120).state == "done"
        events = store.read_events(key)
        types = [e["type"] for e in events]
        assert types[0] == "worker-started" and types[-1] == "done"
        assert sorted(set(types)) == ["done", "progress", "restart", "worker-started"]
        assert [e["generation"] for e in events if e["type"] == "progress"] == list(
            range(15, generations + 1, 15)
        )
        # The window the crash at 35 cut short is announced after the restart.
        order = [(e["type"], e.get("generation")) for e in events]
        assert order.index(("restart", 30)) < order.index(("progress", 45))
        (restart,) = [e for e in events if e["type"] == "restart"]
        assert (restart["attempt"], restart["generation"]) == (0, 30)
        assert events[-1]["attempts"] == 2
        assert np.array_equal(store.load_result(key).matrix, _serial_matrix(generations, seed))
