"""Tests for config records and run metadata."""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import CheckpointError
from repro.game.noise import NoiseModel
from repro.io.checkpoints import load_checkpoint, load_parallel_checkpoint, save_checkpoint
from repro.io.records import (
    config_from_dict,
    config_to_dict,
    read_run_metadata,
    write_run_metadata,
)
from repro.io.runstore import RunStore
from repro.parallel import ParallelSimulation, RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.service.fsck import fsck_store, main as fsck_main


class TestConfigRoundtrip:
    def test_default_roundtrip(self):
        cfg = SimulationConfig(memory=2, n_ssets=12, generations=5, seed=3)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_nontrivial_roundtrip(self):
        cfg = SimulationConfig(
            memory=3,
            n_ssets=7,
            generations=9,
            rounds=77,
            pc_rate=0.25,
            mutation_rate=0.125,
            mutation_distribution="ushaped",
            beta=2.5,
            noise=NoiseModel(0.03),
            strategy_kind="mixed",
            pc_rule="fermi",
            include_self_play=True,
            fitness_mode="expected",
            seed=99,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_malformed_rejected(self):
        with pytest.raises(CheckpointError):
            config_from_dict({"memory": 1})

    def test_records_written_with_engine_keys_still_load(self, tmp_path, monkeypatch):
        # config_to_dict's literal output at the last commit whose configs
        # carried engine selection; specs and checkpoints embed it verbatim.
        old = {
            "memory": 1, "n_ssets": 8, "generations": 60, "agents_per_sset": None,
            "rounds": 200, "pc_rate": 0.1, "mutation_rate": 0.05,
            "mutation_distribution": "uniform", "beta": 1.0, "payoff": [3, 0, 4, 1],
            "noise_rate": 0.0, "strategy_kind": "pure", "pc_rule": "paper",
            "include_self_play": False, "use_fitness_cache": True,
            "fitness_mode": "auto", "seed": 11, "engine": "vector", "engine_jit": "off",
        }
        cfg = config_from_dict(old)
        assert cfg == SimulationConfig(n_ssets=8, generations=60, seed=11)
        assert set(config_to_dict(cfg)) == set(old) - {
            "engine", "engine_jit", "agents_per_sset", "use_fitness_cache"
        }
        spec = RunSpec.from_dict({"kind": "evolution", "config": old, "n_ranks": 3})
        assert spec.config == cfg

        # A checkpoint embedding the old record (under its content digest)
        # loads and resumes to the serial trajectory.
        with monkeypatch.context() as patch:
            patch.setattr("repro.io.checkpoints.config_to_dict", lambda _cfg: dict(old))
            ParallelSimulation(cfg, 3, checkpoint_dir=tmp_path, checkpoint_every=30).run()
        assert load_parallel_checkpoint(tmp_path / "ckpt_00000030.npz").config == cfg
        resumed = ParallelSimulation.resume(tmp_path / "ckpt_00000030.npz", n_ranks=3).run()
        serial = EvolutionDriver(cfg)
        serial.run()
        assert np.array_equal(resumed.matrix, serial.population.matrix())

    def test_records_written_with_unread_fields_still_load(self, tmp_path, monkeypatch):
        # What config_to_dict wrote while configs carried use_fitness_cache
        # and agents_per_sset, which no run read; every record embeds it.
        cfg = SimulationConfig(n_ssets=8, generations=60, seed=11)
        old = dict(config_to_dict(cfg), use_fitness_cache=False, agents_per_sset=4)
        assert config_from_dict(old) == cfg
        serial = EvolutionDriver(cfg)
        serial.run()
        oracle = serial.population.matrix()

        store = RunStore(tmp_path / "store")
        key = store.key("alice", "old")
        spec = RunSpec(config=cfg, n_ranks=3, checkpoint_every=30)
        with monkeypatch.context() as patch:
            for module in ("repro.parallel.spec", "repro.io.checkpoints"):
                patch.setattr(f"{module}.config_to_dict", lambda _cfg: dict(old))
            store.create_run(key, spec)
            ParallelSimulation.from_spec(
                spec, checkpoint_dir=store.checkpoint_dir(key), checkpoint_every=30
            ).run()
            driver = EvolutionDriver(cfg)
            driver.run(30)
            save_checkpoint(driver, tmp_path / "serial.npz")
        (tmp_path / "run.json").write_text(json.dumps({"config": old, "summary": {}}))
        assert json.loads((store.run_dir(key) / "spec.json").read_text())["config"] == old

        assert read_run_metadata(tmp_path / "run.json") == (cfg, {})
        assert store.load_spec(key).config == cfg
        resumed = ParallelSimulation.resume(store.checkpoint_dir(key), n_ranks=3).run()
        assert resumed.generation == 60 and np.array_equal(resumed.matrix, oracle)
        restored = load_checkpoint(tmp_path / "serial.npz")
        assert restored.generation == 30
        restored.run(30)
        assert np.array_equal(restored.population.matrix(), oracle)

        store.save_result(key, resumed)
        assert [run.state for run in fsck_store(store.root).runs] == ["healthy"]
        assert fsck_main(["fsck", "--root", str(store.root)]) == 0


class TestMetadata:
    def test_roundtrip(self, tmp_path, small_config):
        path = tmp_path / "run.json"
        write_run_metadata(path, small_config, {"wsls_fraction": 0.85})
        cfg, summary = read_run_metadata(path)
        assert cfg == small_config
        assert summary == {"wsls_fraction": 0.85}

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_run_metadata(tmp_path / "nope.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            read_run_metadata(path)
