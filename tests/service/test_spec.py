"""Tests for RunSpec/FaultPolicy and the registry spec templates."""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError, ExperimentError
from repro.experiments.templates import spec_template, template_ids
from repro.mpi.faults import FaultEvent, FaultPlan
from repro.parallel import FaultPolicy, ParallelSimulation, RunSpec, SupervisedRun

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def config() -> SimulationConfig:
    return SimulationConfig(n_ssets=8, generations=30, seed=9)


class TestFaultPolicy:
    def test_defaults_round_trip(self):
        policy = FaultPolicy()
        assert FaultPolicy.from_dict(policy.to_dict()) == policy

    def test_json_round_trip(self):
        policy = FaultPolicy(max_restarts=5, wall_budget=120.0, max_requeues=2)
        assert FaultPolicy.from_dict(json.loads(json.dumps(policy.to_dict()))) == policy

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_restarts": -1}, "max_restarts"),
            ({"backoff": -0.1}, "backoff"),
            ({"backoff_factor": 0.5}, "backoff"),
            ({"backoff_jitter": 1.0}, "backoff_jitter"),
            ({"wall_budget": 0.0}, "wall_budget"),
            ({"heartbeat_timeout": 0.0}, "heartbeat_timeout"),
            ({"on_rank_failure": "panic"}, "on_rank_failure"),
            ({"max_requeues": -1}, "max_requeues"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            FaultPolicy(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown FaultPolicy"):
            FaultPolicy.from_dict({"max_restarts": 1, "retries": 3})


class TestRunSpec:
    def test_json_round_trip(self, config):
        spec = RunSpec(
            config=config,
            n_ranks=3,
            backend="thread",
            eager_games=False,
            checkpoint_every=5,
            attempt_timeout=120.0,
            fault_plan=FaultPlan(
                seed=1, events=(FaultEvent(kind="crash", rank=0, generation=10),)
            ),
            fault=FaultPolicy(max_restarts=2, wall_budget=60.0),
            name="round-trip",
        )
        restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"n_ranks": 0}, "ranks"),
            ({"backend": "carrier-pigeon"}, "backend"),
            ({"checkpoint_every": 0}, "checkpoint_every"),
            ({"attempt_timeout": 0.0}, "attempt_timeout"),
        ],
    )
    def test_validation(self, config, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            RunSpec(config=config, **kwargs)

    def test_respawn_needs_processes(self, config):
        with pytest.raises(ConfigError, match="respawn"):
            RunSpec(
                config=config,
                backend="thread",
                fault=FaultPolicy(on_rank_failure="respawn"),
            )
        RunSpec(  # fine with a process backend
            config=config,
            backend="process",
            fault=FaultPolicy(on_rank_failure="respawn"),
        )

    def test_config_must_be_simulation_config(self):
        with pytest.raises(ConfigError, match="SimulationConfig"):
            RunSpec(config={"n_ssets": 8})

    def test_unknown_keys_rejected(self, config):
        data = RunSpec(config=config).to_dict()
        data["gpu"] = True
        with pytest.raises(ConfigError, match="unknown RunSpec"):
            RunSpec.from_dict(data)

    def test_missing_config_rejected(self):
        with pytest.raises(ConfigError, match="config"):
            RunSpec.from_dict({"n_ranks": 4})

    def test_with_updates_validates(self, config):
        spec = RunSpec(config=config)
        assert spec.with_updates(n_ranks=6).n_ranks == 6
        assert spec.with_updates(n_ranks=1).n_ranks == 1  # Nature alone
        with pytest.raises(ConfigError):
            spec.with_updates(n_ranks=0)

    def test_supervisor_kwargs_carry_the_policy(self, config):
        spec = RunSpec(
            config=config,
            fault=FaultPolicy(max_restarts=7, wall_budget=99.0, backoff=0.25),
        )
        kwargs = spec.supervisor_kwargs()
        assert kwargs["max_restarts"] == 7
        assert kwargs["wall_budget"] == 99.0
        assert kwargs["backoff"] == 0.25


class TestFromSpec:
    def test_simulation_from_spec_matches_hand_assembled(self, config):
        spec = RunSpec(config=config, n_ranks=3)
        by_spec = ParallelSimulation.from_spec(spec).run(timeout=300)
        by_hand = ParallelSimulation(config, 3).run(timeout=300)
        assert np.array_equal(by_spec.matrix, by_hand.matrix)

    def test_supervised_from_spec_matches_hand_assembled(self, config, tmp_path):
        spec = RunSpec(config=config, n_ranks=3, checkpoint_every=10)
        by_spec = SupervisedRun.from_spec(spec, checkpoint_dir=tmp_path / "a").run(
            timeout=spec.attempt_timeout
        )
        by_hand = SupervisedRun(
            config, 3, checkpoint_dir=tmp_path / "b", checkpoint_every=10
        ).run(timeout=600.0)
        assert np.array_equal(by_spec.result.matrix, by_hand.result.matrix)

    def test_supervised_from_spec_maps_policy(self, config, tmp_path):
        spec = RunSpec(
            config=config,
            checkpoint_every=5,
            fault=FaultPolicy(max_restarts=9, wall_budget=42.0, backoff_jitter=0.25),
        )
        sup = SupervisedRun.from_spec(spec, checkpoint_dir=tmp_path, run_id="t/r")
        assert sup.max_restarts == 9
        assert sup.wall_budget == 42.0
        assert sup.backoff_jitter == 0.25
        assert sup.checkpoint_every == 5
        assert sup.run_id == "t/r"

    def test_overrides_win(self, config, tmp_path):
        spec = RunSpec(config=config, fault=FaultPolicy(max_restarts=3))
        sup = SupervisedRun.from_spec(
            spec, checkpoint_dir=tmp_path, max_restarts=0
        )
        assert sup.max_restarts == 0


class TestTemplates:
    def test_template_ids(self):
        assert template_ids() == ["fig2", "memory-cooperation", "spatial-phase", "spatial-noise"]

    def test_fig2_template_expands(self):
        spec = spec_template(
            "fig2", config_overrides={"n_ssets": 8, "generations": 50}, n_ranks=3
        )
        assert spec.config.n_ssets == 8
        assert spec.config.generations == 50
        assert spec.n_ranks == 3
        assert spec.name == "fig2"

    def test_memory_cooperation_template_expands(self):
        spec = spec_template("memory-cooperation", config_overrides={"memory": 2})
        assert spec.config.memory == 2

    def test_unknown_id_rejected(self):
        with pytest.raises(ExperimentError, match="not a registered experiment"):
            spec_template("fig99")

    def test_model_mode_experiment_rejected_with_guidance(self):
        with pytest.raises(ExperimentError, match="not config-driven"):
            spec_template("table6")
