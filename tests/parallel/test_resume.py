"""A resumed run starts in a fresh world, with every rank alive.

A run resumes from Nature's stream position, its counters and the matrix.
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
from repro.io.checkpoints import latest_valid_parallel_checkpoint
from repro.io.runstore import RunStore
from repro.parallel import ParallelSimulation, RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.service.fsck import fsck_store

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
