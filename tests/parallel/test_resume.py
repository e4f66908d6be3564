"""Resuming runs: one checkpoint format for the serial driver and the star.

A run resumes from Nature's stream position, its counters and the matrix,
so a checkpoint written by either driver resumes in the other, and the
serial driver's earlier files (every cached stream under a ``streams``
dict) still load: only their ``'nature'`` entry is cursor state.  Each
resume must land on the uninterrupted serial run's matrix, counters and
Nature stream position.

A resumed run also starts in a fresh world, with every rank alive.
Checkpoints written while a rank was down also stored the failed ranks, and
a resume that marked those ranks dead in its new world either left a healthy
rank idle all run or, when that rank was the only worker, aborted.  Such
files must still load, pass their digest check and pass fsck.
"""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.io import checkpoints as ckpt_mod
from repro.io.checkpoints import (
    ParallelCheckpoint,
    latest_valid_parallel_checkpoint,
    load_checkpoint,
    load_parallel_checkpoint,
    save_checkpoint,
)
from repro.io.records import config_to_dict
from repro.io.runstore import RunStore
from repro.parallel import ParallelSimulation, RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.rng import stream_for
from repro.service.fsck import fsck_store
from repro.service.queue import JobQueue

pytestmark = pytest.mark.recovery

CFG = SimulationConfig(n_ssets=8, generations=60, seed=3, pc_rate=0.6, mutation_rate=0.4)
EVERY = 30


@pytest.fixture(scope="module")
def oracle():
    driver = EvolutionDriver(CFG)
    driver.run()
    return driver.population.matrix()


def _store_failed_ranks(path, ranks) -> None:
    """Rewrite a checkpoint as a writer that stored the run's failed ranks did."""
    with np.load(path) as data:
        matrix = data["matrix"].copy()
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
    meta["failed_ranks"] = list(ranks)
    meta["digest"] = ckpt_mod._content_digest(matrix, meta)
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh, matrix=matrix, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        )


def _checkpointed_run(directory) -> None:
    ParallelSimulation(CFG, 3, checkpoint_dir=directory, checkpoint_every=EVERY).run(timeout=120)
    for path in directory.glob("ckpt_*.npz"):
        _store_failed_ranks(path, (1,))


@pytest.mark.parametrize("n_ranks", [2, 3])
def test_resume_starts_with_every_rank_alive(tmp_path, oracle, n_ranks):
    _checkpointed_run(tmp_path)
    result = ParallelSimulation.resume(
        tmp_path / f"ckpt_{EVERY:08d}.npz", n_ranks, heartbeat_timeout=1.0
    ).run(timeout=120)
    assert np.array_equal(result.matrix, oracle)
    assert result.failed_ranks == ()
    assert result.degradations == ()


def test_checkpoints_that_store_failed_ranks_load_and_fsck_clean(tmp_path):
    store = RunStore(tmp_path / "runs")
    key = store.key("alice", "r1")
    store.create_run(key, RunSpec(config=CFG, n_ranks=3, checkpoint_every=EVERY))
    store.write_status(key, {"state": "queued", "tenant": "alice", "run_id": "r1"})
    _checkpointed_run(store.checkpoint_dir(key))
    found = latest_valid_parallel_checkpoint(store.checkpoint_dir(key))
    assert found is not None and found.name == f"ckpt_{CFG.generations:08d}.npz"
    assert fsck_store(store.root).clean


# -- one format: serial <-> star, and the serial driver's earlier files ----------------


def _serial_at(generation) -> EvolutionDriver:
    driver = EvolutionDriver(CFG)
    driver.run(generation)
    return driver


def _end(driver) -> ParallelCheckpoint:
    return ParallelCheckpoint.capture(driver.nature, driver.population.matrix())


@pytest.fixture(scope="module")
def serial_end():
    return _end(_serial_at(CFG.generations))


def _assert_same_end(state, serial_end) -> None:
    assert state.generation == CFG.generations
    assert np.array_equal(state.matrix, serial_end.matrix)
    assert (state.n_pc_events, state.n_adoptions, state.n_mutations) == (
        serial_end.n_pc_events, serial_end.n_adoptions, serial_end.n_mutations
    )
    assert state.nature_rng_state == serial_end.nature_rng_state


def _resume_on_star(checkpoint, directory, **kwargs) -> ParallelCheckpoint:
    """Run the star from ``checkpoint`` to the end; its last checkpoint is its end state."""
    result = ParallelSimulation.resume(
        checkpoint, 3, checkpoint_dir=directory, checkpoint_every=EVERY, **kwargs
    ).run(timeout=120)
    end = load_parallel_checkpoint(directory / f"ckpt_{CFG.generations:08d}.npz")
    assert np.array_equal(result.matrix, end.matrix)
    assert (result.n_pc_events, result.n_adoptions, result.n_mutations) == (
        end.n_pc_events, end.n_adoptions, end.n_mutations
    )
    return end


@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_serial_checkpoint_resumes_on_the_star(tmp_path, serial_end, backend, eager):
    path = save_checkpoint(_serial_at(EVERY), tmp_path / "serial.npz")
    end = _resume_on_star(path, tmp_path / "out", backend=backend, eager_games=eager)
    _assert_same_end(end, serial_end)


def test_star_checkpoint_resumes_in_the_serial_driver(tmp_path, serial_end):
    ParallelSimulation(CFG, 3, checkpoint_dir=tmp_path, checkpoint_every=EVERY).run(timeout=120)
    driver = load_checkpoint(tmp_path / f"ckpt_{EVERY:08d}.npz")
    assert driver.generation == EVERY
    driver.run(CFG.generations - EVERY)
    _assert_same_end(_end(driver), serial_end)


def _legacy_stream(state: dict) -> dict:
    return {
        "bit_generator": state["bit_generator"],
        "state": state["state"]["state"],
        "inc": state["state"]["inc"],
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }


def _write_legacy_serial_file(path, generation, version, nature=True, extra=()):
    """A checkpoint as the serial driver's earlier writer left it: no ``kind``,
    every cached stream under ``streams`` keyed by the JSON list of its key's
    component ``repr`` s, and a digest from version 2 on."""
    driver = _serial_at(generation)
    keys = ([("nature",)] if nature else []) + list(extra)
    streams = {
        json.dumps([repr(k) for k in key]): _legacy_stream(
            driver.nature.rng_state if key == ("nature",)
            else stream_for(CFG.seed, *key).bit_generator.state
        )
        for key in keys
    }
    matrix = driver.population.matrix()
    meta = {
        "version": version,
        "config": config_to_dict(CFG),
        "generation": generation,
        "streams": streams,
        "nature": {
            "n_pc_events": driver.nature.n_pc_events,
            "n_adoptions": driver.nature.n_adoptions,
            "n_mutations": driver.nature.n_mutations,
        },
    }
    if version >= 2:
        meta["digest"] = ckpt_mod._content_digest(matrix, meta)
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh, matrix=matrix, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        )
    return path


LEGACY_FILES = {
    "v1-without-digest": dict(generation=EVERY, version=1),
    "v2-extra-stream-key": dict(generation=EVERY, version=2, extra=[("fitness", 7, 2)]),
    # No entry means the stream was never drawn from: a generation-0 file.
    "v2-no-nature-entry": dict(generation=0, version=2, nature=False),
}


@pytest.mark.parametrize("case", sorted(LEGACY_FILES))
def test_legacy_serial_file_resumes_serially_and_on_the_star(tmp_path, serial_end, case):
    path = _write_legacy_serial_file(tmp_path / "legacy.npz", **LEGACY_FILES[case])
    driver = load_checkpoint(path)
    assert driver.generation == LEGACY_FILES[case]["generation"]
    driver.run(CFG.generations - driver.generation)
    _assert_same_end(_end(driver), serial_end)
    _assert_same_end(_resume_on_star(path, tmp_path / "out"), serial_end)


def test_job_queue_resumes_a_serial_checkpoint_in_the_store(tmp_path, serial_end):
    store = RunStore(tmp_path / "runs")
    key = store.key("alice", "r1")
    store.create_run(key, RunSpec(config=CFG, n_ranks=2, checkpoint_every=EVERY))
    store.write_status(key, {"state": "queued", "tenant": "alice", "run_id": "r1"})
    save_checkpoint(_serial_at(EVERY), store.checkpoint_dir(key))
    assert [run.state for run in fsck_store(store.root).runs] == ["healthy"]

    with JobQueue(store, max_workers=1) as queue:
        queue.resume("alice", "r1")
        assert queue.wait("alice", "r1", timeout=120).state == "done"
    progress = [e["generation"] for e in store.read_events(key) if e["type"] == "progress"]
    assert progress[0] == EVERY + 1
    assert np.array_equal(store.load_result(key).matrix, serial_end.matrix)
    assert fsck_store(store.root).clean
