"""Declarative run specifications: one value object describes a whole run.

A :class:`RunSpec` bundles everything needed to launch, supervise, resume
and *re-create* a run — the science (a
:class:`~repro.config.SimulationConfig`: game, memory depth, population
dynamics), the substrate (rank count, backend), the chaos
(an optional :class:`~repro.mpi.faults.FaultPlan`), and the fault *policy*
(a :class:`FaultPolicy`: restart budget, backoff shape, wall-clock budget,
degradation mode).  Where :class:`~repro.parallel.runner.ParallelSimulation`
and :class:`~repro.parallel.supervisor.SupervisedRun` take a dozen keyword
arguments, a spec is one JSON-serialisable value — which is what lets the
run service (:mod:`repro.service`) queue, persist, ship and resume runs by
key: the spec *is* the run's identity, minus its checkpoints.

Construction flows one way: ``ParallelSimulation.from_spec(spec)`` and
``SupervisedRun.from_spec(spec, checkpoint_dir=...)`` consume a spec and
translate it into their constructor arguments, so a spec-launched run
behaves exactly like a hand-assembled one (the tests assert bit-identical
matrices).  ``to_dict``/``from_dict`` round-trip through plain JSON types —
no pickle, safe to share across trust boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Mapping

from repro.config import SimulationConfig
from repro.errors import ConfigError, ReproError
from repro.io.records import config_from_dict, config_to_dict
from repro.mpi.faults import FaultPlan

__all__ = ["FaultPolicy", "RunSpec", "spec_from_dict"]

_BACKENDS = ("thread", "process", "tcp")
_FAILURE_MODES = ("continue", "respawn")


@dataclass(frozen=True)
class FaultPolicy:
    """How a run is defended against failure, as policy rather than wiring.

    Parameters
    ----------
    max_restarts:
        Supervisor-level relaunch budget
        (:class:`~repro.parallel.supervisor.SupervisedRun` ``max_restarts``).
    backoff, backoff_factor, max_backoff, backoff_jitter:
        The supervisor's exponential restart pause, as for
        :func:`repro.mpi.comm.backoff_wait`.
    wall_budget:
        Overall wall-clock budget in seconds across *all* supervisor
        attempts, or ``None`` for unbounded.  The per-attempt ``timeout``
        stays separate (:attr:`RunSpec.attempt_timeout`); this is the
        quotable total a scheduler can bill.
    heartbeat_timeout:
        Seconds Nature waits on a worker's per-generation report before
        degrading around it.
    on_rank_failure:
        ``"continue"`` (redistribute a dead worker's SSets) or
        ``"respawn"`` (additionally replace the process; needs the process
        or tcp backend).
    max_requeues:
        Service-level budget: how many times the job queue may relaunch a
        run whose *worker process* died unexpectedly (the run resumes from
        its latest valid checkpoint).  Explicit preemption never consumes
        this budget.
    stall_timeout:
        Service-level progress watchdog: if a *running* worker reports no
        new generation for this many seconds, the queue kills it and
        relaunches from the latest valid checkpoint (spending the requeue
        budget — a run that wedges forever eventually fails loudly instead
        of holding a pool slot).  An evolution job reports progress once
        per window (up to 256 generations, cut at each checkpoint), so set
        it above one window's wall time.  ``None`` (default) disables the
        watchdog.
    """

    max_restarts: int = 3
    backoff: float = 0.5
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    backoff_jitter: float = 0.5
    wall_budget: float | None = None
    heartbeat_timeout: float = 5.0
    on_rank_failure: str = "continue"
    max_requeues: int = 1
    stall_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.backoff < 0 or self.backoff_factor < 1 or self.max_backoff < 0:
            raise ConfigError(
                "backoff must be >= 0, backoff_factor >= 1, max_backoff >= 0;"
                f" got {self.backoff}, {self.backoff_factor}, {self.max_backoff}"
            )
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ConfigError(
                f"backoff_jitter must lie in [0, 1), got {self.backoff_jitter}"
            )
        if self.wall_budget is not None and self.wall_budget <= 0:
            raise ConfigError(f"wall_budget must be > 0 or None, got {self.wall_budget}")
        if self.heartbeat_timeout <= 0:
            raise ConfigError(
                f"heartbeat_timeout must be > 0, got {self.heartbeat_timeout}"
            )
        if self.on_rank_failure not in _FAILURE_MODES:
            raise ConfigError(
                f"on_rank_failure must be one of {_FAILURE_MODES},"
                f" got {self.on_rank_failure!r}"
            )
        if self.max_requeues < 0:
            raise ConfigError(f"max_requeues must be >= 0, got {self.max_requeues}")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ConfigError(
                f"stall_timeout must be > 0 or None, got {self.stall_timeout}"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "max_restarts": self.max_restarts,
            "backoff": self.backoff,
            "backoff_factor": self.backoff_factor,
            "max_backoff": self.max_backoff,
            "backoff_jitter": self.backoff_jitter,
            "wall_budget": self.wall_budget,
            "heartbeat_timeout": self.heartbeat_timeout,
            "on_rank_failure": self.on_rank_failure,
            "max_requeues": self.max_requeues,
            "stall_timeout": self.stall_timeout,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPolicy":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown FaultPolicy fields: {sorted(unknown)}")
        return cls(**dict(data))


@dataclass(frozen=True)
class RunSpec:
    """A complete, declarative description of one supervised run.

    Parameters
    ----------
    config:
        The simulation itself: game, memory depth, dynamics, seed.
    n_ranks:
        World size of an eager run, >= 1 (rank 0 is the Nature Agent; one
        rank is Nature alone).
    backend:
        Execution substrate: ``"thread"``, ``"process"`` or ``"tcp"``.
    eager_games:
        Whether workers launch and play the full opponent slate each
        generation (the paper's faithful §IV-D workload); without it the run
        is Nature alone on a thread, whatever ``n_ranks`` and ``backend`` say.
    checkpoint_every:
        Checkpoint cadence in generations (>= 1; a supervised run without
        checkpoints could only ever restart from scratch).
    attempt_timeout:
        Per-attempt deadline in seconds handed to
        :meth:`~repro.parallel.runner.ParallelSimulation.run`; ``None``
        waits forever.  The overall budget lives in
        :attr:`FaultPolicy.wall_budget`.
    fault_plan:
        Chaos injected into the first supervised attempt (restarts run
        clean, as for :class:`~repro.parallel.supervisor.SupervisedRun`).
    fault:
        The :class:`FaultPolicy` defending the run.
    name:
        Free-form label (shown by the service; no semantics).
    """

    #: Discriminator for :func:`spec_from_dict`.
    kind: ClassVar[str] = "evolution"

    config: SimulationConfig
    n_ranks: int = 4
    backend: str = "thread"
    eager_games: bool = False
    checkpoint_every: int = 10
    attempt_timeout: float | None = 600.0
    fault_plan: FaultPlan | None = None
    fault: FaultPolicy = field(default_factory=FaultPolicy)
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.config, SimulationConfig):
            raise ConfigError(
                f"config must be a SimulationConfig, got {type(self.config).__name__}"
            )
        if self.n_ranks < 1:
            raise ConfigError(f"n_ranks must be >= 1 (the Nature Agent), got {self.n_ranks}")
        if self.backend not in _BACKENDS:
            raise ConfigError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ConfigError(
                f"attempt_timeout must be > 0 or None, got {self.attempt_timeout}"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ConfigError(
                f"fault_plan must be a FaultPlan or None, got {type(self.fault_plan).__name__}"
            )
        if not isinstance(self.fault, FaultPolicy):
            raise ConfigError(
                f"fault must be a FaultPolicy, got {type(self.fault).__name__}"
            )
        if self.fault.on_rank_failure == "respawn" and self.backend == "thread":
            raise ConfigError(
                "on_rank_failure='respawn' needs real processes to replace —"
                " use backend='process' or backend='tcp'"
            )

    def with_updates(self, **changes: object) -> "RunSpec":
        """Return a copy with the given fields replaced (validated anew)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def to_dict(self) -> dict:
        """Flatten the spec into JSON-safe primitives (no pickle).

        The ``kind`` key discriminates spec families for
        :func:`spec_from_dict`; a RunSpec is an ``"evolution"`` run.
        """
        return {
            "kind": "evolution",
            "config": config_to_dict(self.config),
            "n_ranks": self.n_ranks,
            "backend": self.backend,
            "eager_games": self.eager_games,
            "checkpoint_every": self.checkpoint_every,
            "attempt_timeout": self.attempt_timeout,
            "fault_plan": None if self.fault_plan is None else self.fault_plan.to_dict(),
            "fault": self.fault.to_dict(),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected, values validated)."""
        kwargs = dict(data)
        kind = kwargs.pop("kind", "evolution")
        if kind != "evolution":
            raise ConfigError(
                f"RunSpec.from_dict only reads kind='evolution' specs, got {kind!r};"
                " use spec_from_dict to dispatch on kind"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(kwargs) - known
        if unknown:
            raise ConfigError(f"unknown RunSpec fields: {sorted(unknown)}")
        if "config" not in kwargs:
            raise ConfigError("a RunSpec dict needs a 'config' section")
        try:
            kwargs["config"] = config_from_dict(kwargs["config"])
        except ReproError as exc:
            # config_from_dict speaks checkpoint vocabulary; a bad config
            # inside a spec is a spec problem.
            raise ConfigError(f"bad RunSpec config section: {exc}") from exc
        if kwargs.get("fault_plan") is not None:
            kwargs["fault_plan"] = FaultPlan.from_dict(kwargs["fault_plan"])
        if kwargs.get("fault") is not None:
            kwargs["fault"] = FaultPolicy.from_dict(kwargs["fault"])
        else:
            kwargs.pop("fault", None)
        return cls(**kwargs)

    # -- translation into the runner/supervisor vocabularies -----------------

    def simulation_kwargs(self) -> dict:
        """Constructor arguments for :class:`~repro.parallel.runner.ParallelSimulation`.

        Everything except ``config``/``n_ranks`` (positional there) and the
        checkpoint directory, which is placement the caller owns.
        """
        return {
            "eager_games": self.eager_games,
            "backend": self.backend,
            "fault_plan": self.fault_plan,
            "heartbeat_timeout": self.fault.heartbeat_timeout,
            "on_rank_failure": self.fault.on_rank_failure,
        }

    def supervisor_kwargs(self) -> dict:
        """Constructor arguments for :class:`~repro.parallel.supervisor.SupervisedRun`.

        Everything except ``config``/``n_ranks`` and ``checkpoint_dir``
        (the caller decides where the run's state lives).
        """
        return {
            "checkpoint_every": self.checkpoint_every,
            "max_restarts": self.fault.max_restarts,
            "backoff": self.fault.backoff,
            "backoff_factor": self.fault.backoff_factor,
            "max_backoff": self.fault.max_backoff,
            "backoff_jitter": self.fault.backoff_jitter,
            "wall_budget": self.fault.wall_budget,
            "fault_plan": self.fault_plan,
            "eager_games": self.eager_games,
            "backend": self.backend,
            "heartbeat_timeout": self.fault.heartbeat_timeout,
            "on_rank_failure": self.fault.on_rank_failure,
        }


def spec_from_dict(data: Mapping):
    """Revive any spec family from its dict form, dispatching on ``kind``.

    ``"evolution"`` (the default, so pre-discriminator dicts still load)
    revives a :class:`RunSpec`; ``"spatial"`` a
    :class:`~repro.spatial.spec.SpatialRunSpec`.  The spatial import is
    deferred so the spec layer never drags the spatial package in for
    ordinary evolution runs.
    """
    kind = data.get("kind", "evolution")
    if kind == "evolution":
        return RunSpec.from_dict(data)
    if kind == "spatial":
        from repro.spatial.spec import SpatialRunSpec

        return SpatialRunSpec.from_dict(data)
    raise ConfigError(f"unknown spec kind {kind!r} (expected 'evolution' or 'spatial')")
