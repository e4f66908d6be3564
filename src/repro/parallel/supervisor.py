"""Self-healing runs: a bounded-retry supervisor over the parallel runner.

The recovery story has three layers, from the inside out:

1. **Crash-consistent checkpoints** (:mod:`repro.io.checkpoints`): every
   checkpoint is written to a temp file, fsynced, and atomically renamed
   into place, with a content digest verified on load — a crash mid-write
   can litter a torn file but can never corrupt the latest good one.
2. **Rank respawn** (``ParallelSimulation(on_rank_failure="respawn")``):
   a dead *worker* rank is replaced in-flight; the replacement is
   re-seeded from Nature's authoritative matrix and rejoins without
   restarting the run.
3. **This module**: when a failure is unrecoverable from inside the run —
   the Nature rank died, every worker died, a rank's OS process was killed
   from outside, a checkpoint write was killed half-way — :class:`SupervisedRun` reloads the latest *valid* checkpoint
   and relaunches the whole world, with exponential backoff and a bounded
   restart budget.

Because the trajectory is a pure function of the seed and a checkpoint
captures Nature's full decision state, a supervised run that restarts any
number of times still produces the exact matrix an uninterrupted run would
have — the tests assert bit-identity against the serial driver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.config import SimulationConfig
from repro.errors import CheckpointError, MPIError, SupervisorError
from repro.io.checkpoints import (
    latest_valid_parallel_checkpoint,
    load_parallel_checkpoint,
)
from repro.logging_util import get_logger
from repro.mpi.comm import backoff_wait
from repro.mpi.faults import FaultPlan
from repro.obs.tracer import Tracer
from repro.parallel.runner import ParallelRunResult, ParallelSimulation

__all__ = ["SupervisedRun", "SupervisedResult", "RestartEvent"]

_LOG = get_logger("parallel.supervisor")


@dataclass(frozen=True)
class RestartEvent:
    """One supervisor-level restart: why, from where, after how long a pause.

    Attributes
    ----------
    attempt:
        The attempt that failed (0 is the initial launch).
    error:
        The failure, rendered as ``TypeName: message``.
    checkpoint:
        The checkpoint file the *next* attempt resumes from, or ``None``
        when no valid checkpoint exists yet (the next attempt starts from
        generation 0).
    generation:
        The generation recorded in that checkpoint (0 for a cold restart).
    backoff:
        Seconds actually slept before relaunching — the capped, jittered
        wait (:func:`repro.mpi.comm.backoff_wait`), not the nominal
        exponential step, so the restart log records real timing.
    """

    attempt: int
    error: str
    checkpoint: str | None
    generation: int
    backoff: float


@dataclass(frozen=True)
class SupervisedResult:
    """Outcome of a supervised run.

    Attributes
    ----------
    result:
        The completed run's :class:`~repro.parallel.runner.ParallelRunResult`.
    attempts:
        Total launches, including the successful one (1 = no restart).
    restarts:
        The supervisor's restart log, oldest first (empty when the first
        attempt completed).
    """

    result: ParallelRunResult
    attempts: int
    restarts: tuple[RestartEvent, ...]


class SupervisedRun:
    """Run a :class:`~repro.parallel.runner.ParallelSimulation` to completion,
    restarting from the latest valid checkpoint on unrecoverable failure.

    Parameters
    ----------
    config:
        Simulation parameters, shared verbatim with the serial driver.
    n_ranks:
        World size, >= 1 (a world of one is Nature alone).
    checkpoint_dir:
        Directory for the run's checkpoints — the supervisor's restart
        points.  Required: a supervisor without checkpoints could only ever
        restart from scratch.
    checkpoint_every:
        Checkpoint cadence in generations (>= 1).
    max_restarts:
        How many times a failed attempt may be relaunched before the
        supervisor gives up with :class:`~repro.errors.SupervisorError`
        (``max_restarts=3`` allows up to 4 launches in total).
    backoff, backoff_factor, max_backoff, backoff_jitter:
        Exponential pause between attempts: the first restart waits
        ``backoff`` seconds, each further restart ``backoff_factor`` times
        longer, capped at ``max_backoff`` and shrunk by up to
        ``backoff_jitter`` (a deterministic fraction keyed on this run's
        identity, the config seed and the attempt —
        :func:`repro.mpi.comm.backoff_wait`), so many supervisors
        restarting off one shared outage don't relaunch in lockstep —
        *including* supervisors running identical same-seed specs for
        different tenants, which is why the key carries the run identity
        and not just the seed.  The actual wait lands in each
        :class:`RestartEvent`'s ``backoff``.
    run_id:
        This run's identity for backoff decorrelation (and logs).  Defaults
        to the resolved checkpoint directory, which is unique per run by
        construction; the run service passes its ``tenant/run`` key.
    wall_budget:
        Overall wall-clock budget in seconds across *all* attempts, or
        ``None`` (default) for unbounded.  ``timeout`` stays a *per-attempt*
        deadline, so without a budget a run can legally burn
        ``(max_restarts + 1) x timeout`` seconds; the budget is checked
        before each relaunch (the pending backoff pause counts against it)
        and raises :class:`~repro.errors.SupervisorError` naming the budget
        when spent — the quotable bound a scheduler can bill.
    fault_plan:
        Chaos injected into the **first** attempt only.
    fault_plan_on_retry:
        Chaos injected into every restarted attempt; ``None`` (default)
        restarts clean.  Keeping the two separate models transient faults:
        a deterministic generation-keyed plan re-applied on every restart
        would re-kill the run at the same generation forever.
    sleep:
        The pause primitive (injectable so tests can skip real waiting).
    trace:
        As for :class:`~repro.parallel.runner.ParallelSimulation`; when
        enabled, one tracer spans every attempt, with ``recovery.restart``
        and ``recovery.complete`` instants marking the supervisor's moves.
    **sim_kwargs:
        Forwarded to every :class:`~repro.parallel.runner.ParallelSimulation`
        launch (``backend=``, ``on_rank_failure=``, ``heartbeat_timeout=``,
        ...), so supervisor-level retry composes with in-run respawn.
    """

    def __init__(
        self,
        config: SimulationConfig,
        n_ranks: int,
        *,
        checkpoint_dir: str | Path,
        checkpoint_every: int = 10,
        max_restarts: int = 3,
        backoff: float = 0.5,
        backoff_factor: float = 2.0,
        max_backoff: float = 30.0,
        backoff_jitter: float = 0.5,
        run_id: str | None = None,
        wall_budget: float | None = None,
        fault_plan: FaultPlan | None = None,
        fault_plan_on_retry: FaultPlan | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        trace: bool | Tracer = False,
        **sim_kwargs,
    ) -> None:
        if checkpoint_every < 1:
            raise MPIError(
                f"a supervised run needs a checkpoint cadence >= 1, got {checkpoint_every}"
            )
        if max_restarts < 0:
            raise MPIError(f"max_restarts must be >= 0, got {max_restarts}")
        if backoff < 0 or backoff_factor < 1 or max_backoff < 0:
            raise MPIError(
                "backoff must be >= 0, backoff_factor >= 1, max_backoff >= 0;"
                f" got {backoff}, {backoff_factor}, {max_backoff}"
            )
        if not 0.0 <= backoff_jitter < 1.0:
            raise MPIError(f"backoff_jitter must lie in [0, 1), got {backoff_jitter}")
        if wall_budget is not None and wall_budget <= 0:
            raise MPIError(f"wall_budget must be > 0 or None, got {wall_budget}")
        self.config = config
        self.n_ranks = int(n_ranks)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_every = int(checkpoint_every)
        self.max_restarts = int(max_restarts)
        self.backoff = float(backoff)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff = float(max_backoff)
        self.backoff_jitter = float(backoff_jitter)
        # The backoff key must separate two supervisors running *identical*
        # specs (same config, same seed) for different tenants — keying on
        # the seed alone restarts them in lockstep off a shared outage,
        # which is the herd the jitter exists to prevent.  The checkpoint
        # directory is unique per run by construction, so it is the default
        # identity.
        self.run_id = str(self.checkpoint_dir.resolve()) if run_id is None else str(run_id)
        self.wall_budget = None if wall_budget is None else float(wall_budget)
        self.fault_plan = fault_plan
        self.fault_plan_on_retry = fault_plan_on_retry
        self._sleep = sleep
        self._clock = clock
        self.sim_kwargs = sim_kwargs
        if trace is True:
            self.tracer: Tracer | None = Tracer()
        elif trace is False or trace is None:
            self.tracer = None
        else:
            self.tracer = trace

    def _build(self, attempt: int) -> tuple[ParallelSimulation, str | None, int]:
        """One attempt's simulation: fresh, or resumed from the latest valid
        checkpoint (torn and corrupt files are skipped automatically)."""
        plan = self.fault_plan if attempt == 0 else self.fault_plan_on_retry
        common = dict(
            fault_plan=plan,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            trace=self.tracer if self.tracer is not None else False,
            **self.sim_kwargs,
        )
        found = latest_valid_parallel_checkpoint(self.checkpoint_dir)
        if found is None:
            return ParallelSimulation(self.config, self.n_ranks, **common), None, 0
        start = load_parallel_checkpoint(found)
        sim = ParallelSimulation.resume(start, self.n_ranks, **common)
        return sim, str(found), start.generation

    @classmethod
    def from_spec(
        cls,
        spec,
        *,
        checkpoint_dir: str | Path,
        run_id: str | None = None,
        **overrides,
    ) -> "SupervisedRun":
        """Build a supervisor from a declarative :class:`~repro.parallel.spec.RunSpec`.

        The spec's :class:`~repro.parallel.spec.FaultPolicy` maps onto the
        restart/backoff/budget arguments and the simulation fields onto the
        launch arguments; ``checkpoint_dir`` is placement the caller owns.
        Keyword ``overrides`` win over the spec (e.g. ``sleep=`` for tests).
        The spec's ``attempt_timeout`` is *not* applied here — pass it to
        :meth:`run` (``sup.run(timeout=spec.attempt_timeout)``), where the
        per-attempt deadline lives.
        """
        kwargs = spec.supervisor_kwargs()
        kwargs.update(overrides)
        return cls(
            spec.config,
            spec.n_ranks,
            checkpoint_dir=checkpoint_dir,
            run_id=run_id,
            **kwargs,
        )

    def run(self, timeout: float | None = 600.0) -> SupervisedResult:
        """Drive attempts until one completes or a budget is spent.

        ``timeout`` bounds each *attempt*; the supervisor's ``wall_budget``
        (when set) bounds the whole run across attempts and is checked
        before every relaunch.

        Raises
        ------
        SupervisorError
            After ``max_restarts`` restarts have failed, or when the
            wall-clock budget is spent; chained to the last attempt's
            underlying error.
        """
        restarts: list[RestartEvent] = []
        attempt = 0
        t0 = self._clock()
        while True:
            sim, ckpt, start_gen = self._build(attempt)
            try:
                result = sim.run(timeout=timeout)
            except (MPIError, CheckpointError) as exc:
                if attempt >= self.max_restarts:
                    raise SupervisorError(
                        f"run failed {attempt + 1} times (restart budget"
                        f" {self.max_restarts} exhausted); last error:"
                        f" {type(exc).__name__}: {exc}"
                    ) from exc
                # Where will the next attempt start?  Re-scan: the failed
                # attempt may have written newer checkpoints (or torn ones,
                # which the scan skips).
                found = (
                    latest_valid_parallel_checkpoint(self.checkpoint_dir)
                    if self.checkpoint_dir.is_dir()
                    else None
                )
                next_gen = 0
                if found is not None:
                    next_gen = load_parallel_checkpoint(found).generation
                pause = backoff_wait(
                    self.backoff,
                    attempt,
                    factor=self.backoff_factor,
                    cap=self.max_backoff,
                    jitter=self.backoff_jitter,
                    key=("supervisor", self.run_id, self.config.seed),
                )
                if self.wall_budget is not None:
                    spent = self._clock() - t0
                    if spent + pause >= self.wall_budget:
                        raise SupervisorError(
                            f"wall-clock budget {self.wall_budget:g} s spent"
                            f" ({spent:.2f} s elapsed after {attempt + 1}"
                            f" attempt(s), next relaunch would wait {pause:.2f} s"
                            f" more); last error: {type(exc).__name__}: {exc}"
                        ) from exc
                event = RestartEvent(
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                    checkpoint=None if found is None else str(found),
                    generation=next_gen,
                    backoff=pause,
                )
                restarts.append(event)
                _LOG.warning(
                    "attempt %d failed (%s); restarting from %s (generation %d)"
                    " after %.2f s",
                    attempt, event.error, found or "scratch", next_gen, pause,
                )
                if self.tracer is not None:
                    self.tracer.metrics.inc("recovery.restarts")
                    self.tracer.instant(
                        "recovery.restart",
                        args={
                            "attempt": attempt,
                            "generation": next_gen,
                            "error": event.error,
                        },
                    )
                if pause > 0:
                    self._sleep(pause)
                attempt += 1
                continue
            if self.tracer is not None:
                self.tracer.metrics.gauge("recovery.attempts").set(attempt + 1)
                self.tracer.instant(
                    "recovery.complete",
                    args={"attempts": attempt + 1, "resumed_from": start_gen},
                )
            return SupervisedResult(
                result=result, attempts=attempt + 1, restarts=tuple(restarts)
            )
