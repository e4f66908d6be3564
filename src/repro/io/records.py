"""Run records: JSON run metadata.

The paper's Nature Agent "handles all file I/O to record the global
variables across generations"; these writers are that records-keeper.
:func:`write_run_metadata` dumps the run's configuration and summary, and
:func:`config_to_dict` / :func:`config_from_dict` round-trip a
:class:`~repro.config.SimulationConfig` through plain JSON types.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.config import SimulationConfig
from repro.errors import CheckpointError
from repro.game.noise import NoiseModel
from repro.game.payoff import PayoffMatrix

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "write_run_metadata",
    "read_run_metadata",
]


def config_to_dict(config: SimulationConfig) -> dict:
    """Flatten a config into JSON-safe primitives."""
    return {
        "memory": config.memory,
        "n_ssets": config.n_ssets,
        "generations": config.generations,
        "rounds": config.rounds,
        "pc_rate": config.pc_rate,
        "mutation_rate": config.mutation_rate,
        "mutation_distribution": config.mutation_distribution,
        "beta": config.beta,
        "payoff": list(config.payoff.as_fRSTP()),
        "noise_rate": config.noise.rate,
        "strategy_kind": config.strategy_kind,
        "pc_rule": config.pc_rule,
        "include_self_play": config.include_self_play,
        "fitness_mode": config.fitness_mode,
        "seed": config.seed,
    }


def config_from_dict(data: Mapping) -> SimulationConfig:
    """Inverse of :func:`config_to_dict`.

    Keys it does not name are ignored, so records written when configs
    carried fields that have since been removed load unchanged.
    """
    try:
        r, s, t, p = data["payoff"]
        return SimulationConfig(
            memory=int(data["memory"]),
            n_ssets=int(data["n_ssets"]),
            generations=int(data["generations"]),
            rounds=int(data["rounds"]),
            pc_rate=float(data["pc_rate"]),
            mutation_rate=float(data["mutation_rate"]),
            mutation_distribution=data.get("mutation_distribution", "uniform"),
            beta=float(data["beta"]),
            payoff=PayoffMatrix(reward=r, sucker=s, temptation=t, punishment=p),
            noise=NoiseModel(float(data.get("noise_rate", 0.0))),
            strategy_kind=data["strategy_kind"],
            pc_rule=data["pc_rule"],
            include_self_play=bool(data["include_self_play"]),
            fitness_mode=data.get("fitness_mode", "auto"),
            seed=int(data["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed config record: {exc}") from exc


def write_run_metadata(path: str | Path, config: SimulationConfig, summary: Mapping) -> None:
    """Write run metadata (config + free-form summary) as JSON."""
    payload = {"config": config_to_dict(config), "summary": dict(summary)}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def read_run_metadata(path: str | Path) -> tuple[SimulationConfig, dict]:
    """Read metadata JSON back into ``(config, summary)``."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"metadata file not found: {path}")
    try:
        payload = json.loads(path.read_text())
        return config_from_dict(payload["config"]), dict(payload["summary"])
    except (json.JSONDecodeError, KeyError) as exc:
        raise CheckpointError(f"malformed metadata file {path}: {exc}") from exc
