"""Tests for bit-exact checkpoint/resume and crash-consistent writes."""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import CheckpointError
from repro.io import checkpoints as ckpt_mod
from repro.io.checkpoints import (
    ParallelCheckpoint,
    latest_valid_parallel_checkpoint,
    load_checkpoint,
    load_parallel_checkpoint,
    save_checkpoint,
    save_parallel_checkpoint,
    write_torn_parallel_checkpoint,
)
from repro.population.dynamics import EvolutionDriver
from repro.rng import StreamFactory


class TestResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        """Save at generation 60, resume, and land on the exact trajectory."""
        cfg = SimulationConfig(memory=1, n_ssets=10, generations=150, seed=11)
        full = EvolutionDriver(cfg)
        full.run(150)

        partial = EvolutionDriver(cfg)
        partial.run(60)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(partial, path)

        resumed = load_checkpoint(path)
        assert resumed.generation == 60
        resumed.run(90)
        assert np.array_equal(
            resumed.population.matrix(), full.population.matrix()
        )

    def test_mixed_run_resume(self, tmp_path):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=80, seed=5, strategy_kind="mixed"
        )
        full = EvolutionDriver(cfg)
        full.run(80)
        partial = EvolutionDriver(cfg)
        partial.run(30)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(partial, path)
        resumed = load_checkpoint(path)
        resumed.run(50)
        assert np.array_equal(resumed.population.matrix(), full.population.matrix())

    def test_counters_restored(self, tmp_path, small_config):
        driver = EvolutionDriver(small_config)
        driver.run(40)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(driver, path)
        resumed = load_checkpoint(path)
        assert resumed.nature.n_pc_events == driver.nature.n_pc_events
        assert resumed.nature.n_mutations == driver.nature.n_mutations

    def test_config_restored(self, tmp_path, small_config):
        driver = EvolutionDriver(small_config)
        driver.run(5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(driver, path)
        assert load_checkpoint(path).config == small_config


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _parallel_state(config, generation):
    streams = StreamFactory(config.seed)
    rng = streams.stream("nature")
    rng.random(17)  # advance so the cursor is non-trivial
    return ParallelCheckpoint(
        config=config,
        generation=generation,
        matrix=np.arange(config.n_ssets * 4, dtype=np.int64).reshape(config.n_ssets, 4) % 3,
        nature_rng_state=rng.bit_generator.state,
        n_pc_events=5,
        n_adoptions=2,
        n_mutations=1,
    )


class TestParallelCheckpoints:
    def test_round_trip(self, tmp_path, small_config):
        state = _parallel_state(small_config, 40)
        path = save_parallel_checkpoint(state, tmp_path / "run.npz")
        loaded = load_parallel_checkpoint(path)
        assert loaded.config == small_config
        assert loaded.generation == 40
        assert np.array_equal(loaded.matrix, state.matrix)
        assert loaded.nature_rng_state == state.nature_rng_state
        assert (loaded.n_pc_events, loaded.n_adoptions, loaded.n_mutations) == (5, 2, 1)

    def test_rng_state_resumes_identically(self, tmp_path, small_config):
        state = _parallel_state(small_config, 10)
        path = save_parallel_checkpoint(state, tmp_path / "run.npz")
        loaded = load_parallel_checkpoint(path)
        a = StreamFactory(small_config.seed).stream("nature")
        a.bit_generator.state = state.nature_rng_state
        b = StreamFactory(small_config.seed).stream("nature")
        b.bit_generator.state = loaded.nature_rng_state
        assert np.array_equal(a.random(32), b.random(32))

    def test_directory_layout_and_latest(self, tmp_path, small_config):
        for gen in (10, 30, 20):
            save_parallel_checkpoint(_parallel_state(small_config, gen), tmp_path)
        latest = latest_valid_parallel_checkpoint(tmp_path)
        assert latest is not None and latest.name == "ckpt_00000030.npz"
        assert load_parallel_checkpoint(latest).generation == 30

    def test_latest_on_empty_or_missing_directory(self, tmp_path):
        assert latest_valid_parallel_checkpoint(tmp_path) is None
        assert latest_valid_parallel_checkpoint(tmp_path / "nope") is None

    def test_unknown_kind_rejected(self, tmp_path, small_config):
        path = save_parallel_checkpoint(_parallel_state(small_config, 5), tmp_path / "x.npz")
        with np.load(path) as data:
            matrix = data["matrix"].copy()
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
        meta["kind"] = "result"
        meta["digest"] = ckpt_mod._content_digest(matrix, meta)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, matrix=matrix, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            )
        for load in (load_parallel_checkpoint, load_checkpoint):
            with pytest.raises(CheckpointError, match=f"{path} is not a run checkpoint"):
                load(path)

    def test_missing_parallel_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_parallel_checkpoint(tmp_path / "nope.npz")


class _CrashMidWrite(BaseException):
    """Stand-in for SIGKILL: escapes except-Exception clauses like a real kill."""


class TestAtomicWrites:
    """A crash during a checkpoint write must never damage the previous one."""

    def test_truncated_serial_checkpoint_raises(self, tmp_path, small_config):
        # Regression for the pre-atomic writer: a file holding only the
        # leading bytes of the npz stream (what a mid-write kill left at the
        # final path) must be rejected as a CheckpointError, not resumed
        # from or crashed on with a raw zipfile/OS error.
        driver = EvolutionDriver(small_config)
        driver.run(10)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(driver, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    def test_truncated_parallel_checkpoint_raises(self, tmp_path, small_config):
        path = save_parallel_checkpoint(_parallel_state(small_config, 20), tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match=str(path)):
            load_parallel_checkpoint(path)

    def test_crash_mid_write_preserves_previous(self, tmp_path, small_config, monkeypatch):
        state_old = _parallel_state(small_config, 10)
        path = save_parallel_checkpoint(state_old, tmp_path / "run.npz")
        good = path.read_bytes()

        real_savez = np.savez_compressed

        def dying_savez(fh, **arrays):
            real_savez(fh, **arrays)  # stage the bytes ...
            raise _CrashMidWrite()  # ... then die before the rename

        monkeypatch.setattr(ckpt_mod.np, "savez_compressed", dying_savez)
        with pytest.raises(_CrashMidWrite):
            save_parallel_checkpoint(_parallel_state(small_config, 10), tmp_path / "run.npz")
        # The final path still holds the previous complete checkpoint, and
        # the interrupted attempt's temp file was cleaned up.
        assert path.read_bytes() == good
        assert load_parallel_checkpoint(path).generation == 10
        assert [p.name for p in tmp_path.glob(".*.tmp-*")] == []

    def test_save_leaves_no_temp_files(self, tmp_path, small_config):
        save_parallel_checkpoint(_parallel_state(small_config, 30), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_00000030.npz"]


class TestContentDigest:
    """Silent corruption must be caught by the embedded digest."""

    def _tamper_matrix(self, path):
        """Rewrite the file with one matrix element flipped, digest untouched."""
        with np.load(path) as data:
            matrix = data["matrix"].copy()
            meta_raw = data["meta"].copy()
        matrix.flat[0] += 1
        with open(path, "wb") as fh:
            np.savez_compressed(fh, matrix=matrix, meta=meta_raw)

    def test_tampered_parallel_checkpoint_raises(self, tmp_path, small_config):
        path = save_parallel_checkpoint(_parallel_state(small_config, 40), tmp_path)
        self._tamper_matrix(path)
        with pytest.raises(CheckpointError, match=str(path)):
            load_parallel_checkpoint(path)

    def test_tampered_serial_checkpoint_raises(self, tmp_path, small_config):
        driver = EvolutionDriver(small_config)
        driver.run(10)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(driver, path)
        self._tamper_matrix(path)
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    def test_version1_file_without_digest_still_loads(self, tmp_path, small_config):
        # Files written before the digest existed must remain readable.
        path = save_parallel_checkpoint(_parallel_state(small_config, 40), tmp_path)
        with np.load(path) as data:
            matrix = data["matrix"].copy()
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
        meta["version"] = 1
        del meta["digest"]
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                matrix=matrix,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
        assert load_parallel_checkpoint(path).generation == 40

    def test_version2_file_missing_digest_raises(self, tmp_path, small_config):
        path = save_parallel_checkpoint(_parallel_state(small_config, 40), tmp_path)
        with np.load(path) as data:
            matrix = data["matrix"].copy()
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
        del meta["digest"]
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                matrix=matrix,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
        with pytest.raises(CheckpointError, match="digest"):
            load_parallel_checkpoint(path)


class TestLatestValid:
    """Recovery must scan past torn/corrupt files to the newest good one."""

    def test_skips_torn_newest(self, tmp_path, small_config):
        save_parallel_checkpoint(_parallel_state(small_config, 10), tmp_path)
        save_parallel_checkpoint(_parallel_state(small_config, 20), tmp_path)
        torn = write_torn_parallel_checkpoint(_parallel_state(small_config, 30), tmp_path)
        # The newest file by name is the torn one; the validating scan skips it.
        assert torn.name == "ckpt_00000030.npz"
        found = latest_valid_parallel_checkpoint(tmp_path)
        assert found is not None and found.name == "ckpt_00000020.npz"
        assert load_parallel_checkpoint(found).generation == 20

    def test_all_torn_returns_none(self, tmp_path, small_config):
        for gen in (10, 20):
            write_torn_parallel_checkpoint(_parallel_state(small_config, gen), tmp_path)
        assert latest_valid_parallel_checkpoint(tmp_path) is None

    def test_empty_or_missing_directory(self, tmp_path):
        assert latest_valid_parallel_checkpoint(tmp_path) is None
        assert latest_valid_parallel_checkpoint(tmp_path / "nope") is None

    def test_matches_latest_when_all_valid(self, tmp_path, small_config):
        for gen in (10, 30, 20):
            save_parallel_checkpoint(_parallel_state(small_config, gen), tmp_path)
        assert latest_valid_parallel_checkpoint(tmp_path) == tmp_path / "ckpt_00000030.npz"
