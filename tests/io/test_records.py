"""Tests for event logs and run metadata."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import CheckpointError
from repro.game.noise import NoiseModel
from repro.io.checkpoints import load_parallel_checkpoint
from repro.io.records import (
    config_from_dict,
    config_to_dict,
    read_event_csv,
    read_run_metadata,
    write_event_csv,
    write_run_metadata,
)
from repro.parallel import ParallelSimulation, RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.population.observers import HistoryObserver


class TestConfigRoundtrip:
    def test_default_roundtrip(self):
        cfg = SimulationConfig(memory=2, n_ssets=12, generations=5, seed=3)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_nontrivial_roundtrip(self):
        cfg = SimulationConfig(
            memory=3,
            n_ssets=7,
            generations=9,
            agents_per_sset=4,
            rounds=77,
            pc_rate=0.25,
            mutation_rate=0.125,
            mutation_distribution="ushaped",
            beta=2.5,
            noise=NoiseModel(0.03),
            strategy_kind="mixed",
            pc_rule="fermi",
            include_self_play=True,
            use_fitness_cache=False,
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
        assert set(config_to_dict(cfg)) == set(old) - {"engine", "engine_jit"}
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


class TestEventCsv:
    def test_roundtrip_row_count(self, tmp_path, small_config):
        history = HistoryObserver()
        EvolutionDriver(small_config, observers=[history]).run()
        path = tmp_path / "events.csv"
        count = write_event_csv(path, history.records)
        assert count == small_config.generations
        rows = read_event_csv(path)
        assert len(rows) == count
        assert rows[0]["generation"] == "1"

    def test_pc_fields_filled_when_present(self, tmp_path):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=20, pc_rate=1.0, mutation_rate=0.0, seed=1
        )
        history = HistoryObserver()
        EvolutionDriver(cfg, observers=[history]).run()
        path = tmp_path / "events.csv"
        write_event_csv(path, history.records)
        rows = read_event_csv(path)
        assert all(r["pc_teacher"] != "" for r in rows)
        assert all(r["mutation_sset"] == "" for r in rows)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_event_csv(tmp_path / "nope.csv")


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
