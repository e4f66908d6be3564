"""Tests for the tenant/run-keyed run store."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import RunStoreError
from repro.io.runstore import RunKey, RunStore
from repro.parallel import RunSpec

pytestmark = pytest.mark.service


@pytest.fixture
def store(tmp_path) -> RunStore:
    return RunStore(tmp_path / "runs")


@pytest.fixture(scope="module")
def spec() -> RunSpec:
    return RunSpec(
        config=SimulationConfig(n_ssets=8, generations=20, seed=3), n_ranks=2
    )


class _FakeResult:
    def __init__(self, matrix, generation=20):
        self.matrix = matrix
        self.generation = generation
        self.n_pc_events = 4
        self.n_adoptions = 2
        self.n_mutations = 1


class TestRunKey:
    def test_valid_keys(self):
        key = RunKey("alice", "run-1.retry_2")
        assert str(key) == "alice/run-1.retry_2"

    @pytest.mark.parametrize(
        "tenant,run_id",
        [
            ("../etc", "r1"),           # traversal
            ("alice", "a/b"),           # separator
            ("", "r1"),                 # empty
            ("alice", ""),
            (".hidden", "r1"),          # must start alphanumeric
            ("alice", "-dash-first"),
            ("a" * 129, "r1"),          # too long
        ],
    )
    def test_invalid_keys_rejected(self, tenant, run_id):
        with pytest.raises(RunStoreError, match="invalid"):
            RunKey(tenant, run_id)

    def test_key_cannot_escape_root(self, store, spec):
        with pytest.raises(RunStoreError):
            store.key("..", "r1")


class TestAdmission:
    def test_create_persists_the_spec(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        assert store.exists(key)
        assert store.load_spec(key) == spec

    def test_keys_are_write_once(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        with pytest.raises(RunStoreError, match="write-once"):
            store.create_run(key, spec)

    def test_load_spec_missing_run(self, store):
        with pytest.raises(RunStoreError, match="no run"):
            store.load_spec(store.key("alice", "ghost"))

    def test_load_spec_corrupt_json(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        (store.run_dir(key) / "spec.json").write_text("{torn", encoding="utf-8")
        with pytest.raises(RunStoreError, match="unreadable spec"):
            store.load_spec(key)


class TestLifecycleRecords:
    def test_status_round_trip(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        assert store.read_status(key) is None
        store.write_status(key, {"state": "running", "pid": 42})
        assert store.read_status(key) == {"state": "running", "pid": 42}

    def test_outcome_round_trip(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        assert store.read_outcome(key) is None
        store.write_outcome(key, {"state": "done", "generation": 20})
        assert store.read_outcome(key)["state"] == "done"

    def test_events_append_and_read(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        store.append_event(key, {"type": "progress", "generation": 1})
        store.append_event(key, {"type": "progress", "generation": 2})
        gens = [e["generation"] for e in store.read_events(key)]
        assert gens == [1, 2]


class TestResults:
    def test_save_and_load_bit_identical(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        matrix = np.arange(8 * 16, dtype=np.int8).reshape(8, 16)
        store.save_result(key, _FakeResult(matrix), attempts=2)
        assert store.has_result(key)
        stored = store.load_result(key)
        assert np.array_equal(stored.matrix, matrix)
        assert stored.matrix.dtype == matrix.dtype
        assert stored.generation == 20
        assert stored.attempts == 2
        assert stored.n_pc_events == 4

    def test_fresh_store_instance_fetches_by_key(self, store, spec):
        # evodom-style: evolve under a key now, fetch from a new process later.
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        matrix = np.ones((8, 16), dtype=np.int8)
        store.save_result(key, _FakeResult(matrix))
        reopened = RunStore(store.root)
        assert np.array_equal(reopened.load_result(key).matrix, matrix)

    def test_missing_result_raises(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        assert not store.has_result(key)
        with pytest.raises(RunStoreError, match="no readable result"):
            store.load_result(key)

    def test_corrupt_result_fails_its_digest(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        store.save_result(key, _FakeResult(np.ones((8, 16), dtype=np.int8)))
        path = store.run_dir(key) / "result.npz"
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(RunStoreError):
            store.load_result(key)


class TestListing:
    def test_listing_and_iteration(self, store, spec):
        for tenant, run_id in [("alice", "r1"), ("alice", "r2"), ("bob", "r1")]:
            store.create_run(store.key(tenant, run_id), spec)
        assert store.list_tenants() == ["alice", "bob"]
        assert store.list_runs("alice") == ["r1", "r2"]
        assert store.list_runs("charlie") == []
        assert [str(k) for k in store.iter_keys()] == [
            "alice/r1", "alice/r2", "bob/r1",
        ]


class TestDurability:
    def test_oserror_wrapped_naming_the_run(self, store, spec, monkeypatch):
        key = store.key("alice", "r1")
        store.create_run(key, spec)

        def boom(path, text, durable=False):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store, "_write_text", boom)
        with pytest.raises(RunStoreError, match="alice/r1"):
            store.write_status(key, {"state": "queued"})
        with pytest.raises(RunStoreError, match="alice/r1"):
            store.write_outcome(key, {"state": "done"})

    def test_append_event_durable_round_trips(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        store.append_event(key, {"type": "progress", "generation": 1})
        store.append_event(key, {"type": "done", "generation": 2}, durable=True)
        assert [e["type"] for e in store.read_events(key)] == ["progress", "done"]

    def test_torn_status_reads_as_none(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        (store.run_dir(key) / "status.json").write_text('{"state": "run')
        assert store.read_status(key) is None

    def test_torn_events_tail_skipped_and_healed(self, store, spec):
        key = store.key("alice", "r1")
        store.create_run(key, spec)
        store.append_event(key, {"type": "progress", "generation": 1})
        with open(store.events_path(key), "a", encoding="utf-8") as fh:
            fh.write('{"type": "prog')  # power loss mid-append
        assert [e["generation"] for e in store.read_events(key)] == [1]
        # The next append seals the torn tail onto its own line.
        store.append_event(key, {"type": "progress", "generation": 2})
        assert [e["generation"] for e in store.read_events(key)] == [1, 2]
