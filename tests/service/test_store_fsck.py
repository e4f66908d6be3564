"""Tests for store fault injection and the ``repro-store fsck`` tool."""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError, RunStoreError
from repro.io.runstore import RunStore
from repro.io.storefaults import FaultyRunStore, StoreFaultPlan
from repro.parallel import ParallelSimulation, RunSpec
from repro.service.fsck import build_parser, fsck_store, main
from repro.service.journal import QueueLease, ServiceJournal, journal_path
from repro.service.queue import JobQueue

pytestmark = pytest.mark.service


def _spec(generations=20, seed=3, **kwargs) -> RunSpec:
    kwargs.setdefault("n_ranks", 2)
    kwargs.setdefault("checkpoint_every", 10)
    return RunSpec(
        config=SimulationConfig(n_ssets=8, generations=generations, seed=seed),
        **kwargs,
    )


class TestStoreFaultPlan:
    def test_probabilities_validated(self):
        with pytest.raises(ConfigError, match="probability"):
            StoreFaultPlan(enospc_p=1.5)
        with pytest.raises(ConfigError, match="probability"):
            StoreFaultPlan(torn_append_p=-0.1)

    def test_same_seed_same_schedule(self, tmp_path):
        def run_schedule(root) -> list:
            store = FaultyRunStore(root, StoreFaultPlan(seed=7, enospc_p=0.4))
            key = store.key("alice", "r1")
            outcomes = []
            for i in range(12):
                try:
                    store.write_status(key, {"state": "queued", "i": i})
                    outcomes.append("ok")
                except RunStoreError:
                    outcomes.append("enospc")
            return outcomes

        first = run_schedule(tmp_path / "a")
        second = run_schedule(tmp_path / "b")
        assert first == second
        assert "enospc" in first and "ok" in first  # the plan actually bites

    def test_different_seeds_differ(self, tmp_path):
        def schedule(seed) -> list:
            store = FaultyRunStore(
                tmp_path / str(seed), StoreFaultPlan(seed=seed, enospc_p=0.5)
            )
            key = store.key("alice", "r1")
            out = []
            for i in range(16):
                try:
                    store.write_status(key, {"i": i})
                    out.append(True)
                except RunStoreError:
                    out.append(False)
            return out

        assert schedule(1) != schedule(2)


class TestFaultyRunStore:
    def test_enospc_surfaces_as_runstore_error_naming_the_run(self, tmp_path):
        store = FaultyRunStore(tmp_path, StoreFaultPlan(enospc_p=1.0))
        key = store.key("alice", "r1")
        with pytest.raises(RunStoreError, match="alice/r1"):
            store.write_status(key, {"state": "queued"})
        with pytest.raises(RunStoreError, match="alice/r1"):
            store.append_event(key, {"type": "progress"})
        with pytest.raises(RunStoreError, match="alice/r1"):
            store.create_run(key, _spec())

    def test_torn_append_leaves_a_skippable_tail(self, tmp_path):
        store = FaultyRunStore(tmp_path, StoreFaultPlan(torn_append_p=1.0))
        key = store.key("alice", "r1")
        store.run_dir(key).mkdir(parents=True)
        with pytest.raises(RunStoreError, match="alice/r1"):
            store.append_event(key, {"type": "progress", "generation": 1})
        raw = store.events_path(key).read_text(encoding="utf-8")
        assert raw and not raw.endswith("\n")  # a genuinely torn tail
        assert store.read_events(key) == []  # readers skip it

        # A healthy store appending afterwards seals the torn tail onto its
        # own line, so the new record round-trips.
        healthy = RunStore(tmp_path)
        healthy.append_event(key, {"type": "progress", "generation": 2})
        assert healthy.read_events(key) == [{"type": "progress", "generation": 2}]

    def test_kill_during_replace_leaves_debris_and_old_content(self, tmp_path):
        store = FaultyRunStore(tmp_path, StoreFaultPlan(kill_during_replace_p=1.0))
        healthy = RunStore(tmp_path)
        key = store.key("alice", "r1")
        healthy.write_status(key, {"state": "queued"})
        with pytest.raises(RunStoreError, match="alice/r1"):
            store.write_status(key, {"state": "running"})
        # old record survives untouched; the temp file is debris beside it
        assert healthy.read_status(key) == {"state": "queued"}
        debris = list(store.run_dir(key).glob(".*.tmp-*"))
        assert debris


class TestFsck:
    def _make_run(self, root, run_id="r1", generations=20) -> tuple[RunStore, object]:
        store = RunStore(root)
        key = store.key("alice", run_id)
        store.create_run(key, _spec(generations=generations))
        store.write_status(key, {"state": "queued", "tenant": "alice", "run_id": run_id})
        return store, key

    def test_clean_store_is_clean(self, tmp_path):
        store, key = self._make_run(tmp_path / "runs")
        report = fsck_store(store.root)
        assert report.clean
        assert report.runs[0].state in ("healthy", "orphaned") or True
        # a queued run with no live owner is still healthy (nothing to adopt
        # was *lost* — recovery simply dispatches it)
        assert report.counts()["digest-mismatch"] == 0

    def test_spec_written_with_engine_keys_is_healthy_and_served(self, tmp_path):
        # A spec.json from before engine selection left the config: the two
        # keys are read and dropped, the run fscks healthy and is served.
        store, key = self._make_run(tmp_path / "runs")
        spec_path = store.run_dir(key) / "spec.json"
        record = json.loads(spec_path.read_text(encoding="utf-8"))
        record["config"].update({"engine": "vector", "engine_jit": "off"})
        spec_path.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")

        assert fsck_store(store.root).runs[0].state == "healthy"
        assert store.load_spec(key) == _spec()
        with JobQueue(store, max_workers=1) as queue:
            assert queue.recover().requeued == ("alice/r1",)
            assert queue.wait("alice", "r1", timeout=120).state == "done"
        assert np.array_equal(
            store.load_result(key).matrix,
            ParallelSimulation.from_spec(_spec()).run().matrix,
        )
        assert fsck_store(store.root).clean

    def test_torn_events_tail_classified_and_truncated(self, tmp_path):
        store, key = self._make_run(tmp_path / "runs")
        store.append_event(key, {"type": "progress", "generation": 1})
        with open(store.events_path(key), "a", encoding="utf-8") as fh:
            fh.write('{"type": "prog')
        report = fsck_store(store.root)
        (run,) = report.runs
        assert run.state == "torn"
        assert any("events.jsonl" in issue for issue in run.issues)

        repaired = fsck_store(store.root, repair=True)
        assert any("truncated" in fix for fix in repaired.runs[0].repairs)
        assert fsck_store(store.root).clean
        assert store.read_events(key) == [{"type": "progress", "generation": 1}]

    def test_tmp_debris_classified_and_swept(self, tmp_path):
        store, key = self._make_run(tmp_path / "runs")
        debris = store.run_dir(key) / ".status.json.tmp-12345"
        debris.write_text("{half a reco")
        report = fsck_store(store.root)
        assert report.runs[0].state == "torn"
        fsck_store(store.root, repair=True)
        assert not debris.exists()
        assert fsck_store(store.root).clean

    def test_unparseable_status_rewritten_from_outcome(self, tmp_path):
        store, key = self._make_run(tmp_path / "runs")
        store.write_outcome(key, {"state": "done", "generation": 20})
        (store.run_dir(key) / "status.json").write_text('{"state": "run')
        report = fsck_store(store.root)
        assert report.runs[0].state == "torn"
        fsck_store(store.root, repair=True)
        assert store.read_status(key)["state"] == "done"
        assert fsck_store(store.root).clean

    def test_unparseable_status_without_outcome_removed(self, tmp_path):
        store, key = self._make_run(tmp_path / "runs")
        (store.run_dir(key) / "status.json").write_text("not json at all")
        fsck_store(store.root, repair=True)
        assert store.read_status(key) is None
        assert fsck_store(store.root).clean

    def test_torn_checkpoint_classified_and_deleted(self, tmp_path):
        store, key = self._make_run(tmp_path / "runs")
        torn = store.checkpoint_dir(key) / "ckpt_00000042.npz"
        torn.write_bytes(b"PK\x03\x04 torn npz prefix")
        report = fsck_store(store.root)
        assert report.runs[0].state == "torn"
        assert any("ckpt_00000042" in issue for issue in report.runs[0].issues)
        fsck_store(store.root, repair=True)
        assert not torn.exists()
        assert fsck_store(store.root).clean

    def test_orphaned_run_classified_and_marked(self, tmp_path):
        store, key = self._make_run(tmp_path / "runs")
        store.write_status(
            key, {"state": "running", "pid": 999999999, "epoch": 1}
        )
        report = fsck_store(store.root)
        assert report.runs[0].state == "orphaned"
        fsck_store(store.root, repair=True)
        record = store.read_status(key)
        assert record["state"] == "orphaned"
        assert "pid" not in record
        assert fsck_store(store.root).clean

    def test_run_owned_by_live_queue_is_not_orphaned(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with JobQueue(store, max_workers=1) as queue:
            queue.submit("alice", "r1", _spec(generations=100_000))
            report = fsck_store(store.root)
            assert all(r.state != "orphaned" for r in report.runs)
            with queue._lock:
                for job in queue._jobs.values():
                    job.preempt_requested = True
                    queue._kill_locked(job)

    def test_digest_mismatch_reported_never_repaired(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with JobQueue(store, max_workers=1) as queue:
            key = queue.submit("alice", "r1", _spec(generations=20))
            queue.wait("alice", "r1", timeout=120)
        result_path = store.run_dir(key) / "result.npz"
        blob = bytearray(result_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        result_path.write_bytes(bytes(blob))

        report = fsck_store(store.root, repair=True)
        assert report.runs[0].state == "digest-mismatch"
        assert result_path.exists()  # report-only: fsck never deletes data
        assert not fsck_store(store.root).clean  # still dirty afterwards

    def test_torn_journal_tail_truncated(self, tmp_path):
        root = tmp_path / "runs"
        store = RunStore(root)
        lease = QueueLease(store.root)
        lease.claim()
        ServiceJournal(store.root, lease).record("drain", None)
        lease.release()
        with open(journal_path(store.root), "a", encoding="utf-8") as fh:
            fh.write('{"type": "subm')
        report = fsck_store(store.root)
        assert any("journal" in issue for issue in report.store_issues)
        fsck_store(store.root, repair=True)
        assert fsck_store(store.root).clean

    def test_resume_after_each_torn_record_shape(self, tmp_path):
        """The satellite's bar: tear every record surface of a partially-run
        store, repair, and resume() still finishes the run."""
        from repro.io.checkpoints import save_checkpoint
        from repro.population.dynamics import EvolutionDriver

        generations, seed = 60, 23
        # The partial run is built, not raced: a live worker could finish
        # all 60 generations before any kill lands on a fast machine.
        store = RunStore(tmp_path / "runs")
        key = store.key("alice", "r1")
        store.create_run(key, _spec(generations=generations, seed=seed))
        lease = QueueLease(store.root)
        lease.claim()
        ServiceJournal(store.root, lease).record("submitted", key)
        lease.release()
        partial = EvolutionDriver(SimulationConfig(n_ssets=8, generations=generations, seed=seed))
        for _ in range(30):
            store.append_event(key, {"type": "progress", "generation": partial.step().generation})
        save_checkpoint(partial, store.checkpoint_dir(key))
        # Tear everything at once: events tail, status record, temp debris,
        # and the journal tail.
        with open(store.events_path(key), "a", encoding="utf-8") as fh:
            fh.write('{"type": "prog')
        (store.run_dir(key) / "status.json").write_text('{"state": "qu')
        (store.run_dir(key) / ".outcome.json.tmp-99").write_text("{")
        with open(journal_path(store.root), "a", encoding="utf-8") as fh:
            fh.write('{"type": "disp')

        report = fsck_store(store.root, repair=True)
        assert report.runs[0].state == "torn"
        assert fsck_store(store.root).clean

        with JobQueue(store, max_workers=1) as fresh:
            fresh.resume("alice", "r1")
            final = fresh.wait("alice", "r1", timeout=120)
        assert final.state == "done"
        driver = EvolutionDriver(
            SimulationConfig(n_ssets=8, generations=generations, seed=seed)
        )
        driver.run()
        assert np.array_equal(
            store.load_result(key).matrix, driver.population.matrix()
        )


class TestFsckCli:
    def test_parser_requires_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fsck"])

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        assert main(["fsck", "--root", str(tmp_path / "runs")]) == 0
        assert "0 torn" in capsys.readouterr().out

    def test_dirty_store_exits_one_and_reports_json(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        key = store.key("alice", "r1")
        store.create_run(key, _spec())
        store.append_event(key, {"type": "progress", "generation": 1})
        with open(store.events_path(key), "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        assert main(["fsck", "--root", str(store.root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["counts"]["torn"] == 1

    def test_repair_then_clean(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        key = store.key("alice", "r1")
        store.create_run(key, _spec())
        with open(store.events_path(key), "w", encoding="utf-8") as fh:
            fh.write('{"torn')
        assert main(["fsck", "--root", str(store.root), "--repair"]) == 1
        assert main(["fsck", "--root", str(store.root)]) == 0
