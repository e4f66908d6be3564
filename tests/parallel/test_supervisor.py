"""Tests for the recovery supervisor: bounded restarts from valid checkpoints.

Thread-backend runs keep this file fast; the process-backend respawn and
SIGKILL acceptance runs live in ``test_recovery_chaos.py``.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import MPIError, SupervisorError
from repro.io.checkpoints import (
    latest_valid_parallel_checkpoint,
    load_parallel_checkpoint,
)
from repro.mpi.faults import FaultEvent, FaultPlan
from repro.parallel import ParallelSimulation, SupervisedRun
from repro.population.dynamics import EvolutionDriver

pytestmark = pytest.mark.recovery


@pytest.fixture(scope="module")
def config() -> SimulationConfig:
    return SimulationConfig(n_ssets=8, generations=60, seed=11)


@pytest.fixture(scope="module")
def serial_matrix(config) -> np.ndarray:
    driver = EvolutionDriver(config)
    driver.run()
    return driver.population.matrix()


def _nature_crash_plan(generation: int) -> FaultPlan:
    # Nature's death is the canonical *unrecoverable* failure: no in-run
    # mechanism can heal it, so only the supervisor can save the run.
    return FaultPlan(
        seed=1,
        immune_ranks=(),
        events=(FaultEvent(kind="crash", rank=0, generation=generation),),
    )


class TestValidation:
    def test_needs_checkpoint_cadence(self, config, tmp_path):
        with pytest.raises(MPIError, match="cadence"):
            SupervisedRun(config, 4, checkpoint_dir=tmp_path, checkpoint_every=0)

    def test_rejects_negative_budget(self, config, tmp_path):
        with pytest.raises(MPIError, match="max_restarts"):
            SupervisedRun(config, 4, checkpoint_dir=tmp_path, max_restarts=-1)

    def test_rejects_bad_jitter(self, config, tmp_path):
        with pytest.raises(MPIError, match="backoff_jitter"):
            SupervisedRun(config, 4, checkpoint_dir=tmp_path, backoff_jitter=1.0)

    def test_bad_heartbeat_fails_before_any_attempt(self, config, tmp_path):
        waits: list[float] = []
        sup = SupervisedRun(
            config, 3, checkpoint_dir=tmp_path, heartbeat_timeout=0, sleep=waits.append
        )
        # The simulation's own MPIError, not a SupervisorError after retries.
        with pytest.raises(MPIError, match="heartbeat_timeout must be > 0, got 0"):
            sup.run(timeout=60)
        assert waits == []
        assert not tmp_path.exists() or not any(tmp_path.iterdir())


class TestSupervisedRun:
    def test_clean_run_needs_no_restart(self, config, serial_matrix, tmp_path):
        out = SupervisedRun(config, 4, checkpoint_dir=tmp_path, checkpoint_every=20).run(
            timeout=300
        )
        assert out.attempts == 1
        assert out.restarts == ()
        assert np.array_equal(out.result.matrix, serial_matrix)

    def test_restarts_after_nature_crash_and_matches_serial(
        self, config, serial_matrix, tmp_path
    ):
        slept: list[float] = []
        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            fault_plan=_nature_crash_plan(35),
            heartbeat_timeout=2.0,
            backoff=0.25,
            sleep=slept.append,
            trace=True,
        )
        out = sup.run(timeout=300)
        assert out.attempts == 2
        assert len(out.restarts) == 1
        restart = out.restarts[0]
        assert restart.attempt == 0
        # Crash at 35 with cadence 15: the newest valid checkpoint is gen 30.
        assert restart.generation == 30
        assert restart.checkpoint is not None and restart.checkpoint.endswith(
            "ckpt_00000030.npz"
        )
        # The pause is the capped, jittered wait — recorded verbatim in the
        # restart event, shrunk by at most the default 50% jitter.
        assert slept == [restart.backoff]
        assert 0.125 <= restart.backoff <= 0.25
        assert np.array_equal(out.result.matrix, serial_matrix)
        assert out.result.trace.metrics.counter("recovery.restarts").value == 1

    def test_restart_budget_exhausted_raises(self, config, tmp_path):
        # Re-injecting the same generation-keyed plan on every retry models
        # a *persistent* fault: the run dies at generation 35 forever and
        # the supervisor must eventually give up.
        plan = _nature_crash_plan(35)
        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            fault_plan=plan,
            fault_plan_on_retry=plan,
            heartbeat_timeout=2.0,
            max_restarts=1,
            sleep=lambda s: None,
        )
        with pytest.raises(SupervisorError, match="restart budget"):
            sup.run(timeout=300)

    def test_restart_waits_are_capped_and_jittered(self, config, tmp_path):
        # Persistent fault, budget 2: exactly two pauses before giving up.
        # Each must match the shared backoff policy — capped at
        # max_backoff, decorrelated across attempts, and recorded verbatim
        # in the restart log.
        from repro.mpi.comm import backoff_wait

        plan = _nature_crash_plan(35)
        slept: list[float] = []
        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            fault_plan=plan,
            fault_plan_on_retry=plan,
            heartbeat_timeout=2.0,
            max_restarts=2,
            backoff=0.5,
            backoff_factor=4.0,
            max_backoff=1.0,
            sleep=slept.append,
        )
        with pytest.raises(SupervisorError):
            sup.run(timeout=300)
        assert len(slept) == 2
        assert all(wait <= 1.0 for wait in slept)
        assert slept[0] != slept[1]
        expected = [
            backoff_wait(
                0.5, attempt, factor=4.0, cap=1.0, jitter=0.5,
                key=("supervisor", sup.run_id, config.seed),
            )
            for attempt in range(2)
        ]
        assert slept == expected

    def test_restart_log_records_actual_wait(self, config, serial_matrix, tmp_path):
        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            fault_plan=_nature_crash_plan(35),
            heartbeat_timeout=2.0,
            backoff=0.4,
            max_backoff=0.3,
            sleep=lambda s: None,
        )
        out = sup.run(timeout=300)
        assert len(out.restarts) == 1
        # Cap binds (0.4 nominal > 0.3 cap); jitter only shrinks.
        assert 0.15 <= out.restarts[0].backoff <= 0.3
        assert np.array_equal(out.result.matrix, serial_matrix)

    def test_survives_kill_during_checkpoint(self, config, serial_matrix, tmp_path):
        """The injected mid-write kill leaves a torn file; recovery skips it."""
        plan = FaultPlan(
            seed=3,
            events=(FaultEvent(kind="kill_during_checkpoint", rank=0, generation=30),),
        )
        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            fault_plan=plan,
            heartbeat_timeout=2.0,
            sleep=lambda s: None,
        )
        out = sup.run(timeout=300)
        assert out.attempts == 2
        # The torn gen-30 file sent the restart back to the gen-15 one.
        assert out.restarts[0].generation == 15
        assert np.array_equal(out.result.matrix, serial_matrix)

    def test_first_attempt_resumes_past_torn_newest(
        self, config, serial_matrix, tmp_path
    ):
        """A directory left by a killed run (valid + torn files) resumes cleanly."""
        # Manufacture the aftermath: a checkpointing run whose newest file
        # got torn (the valid ones come from a real trajectory, so resuming
        # from them reproduces it).
        ParallelSimulation(
            config, n_ranks=4, checkpoint_dir=tmp_path, checkpoint_every=15
        ).run(timeout=300)
        for name in ("ckpt_00000045.npz", "ckpt_00000060.npz"):
            (tmp_path / name).unlink()
        torn = tmp_path / "ckpt_00000030.npz"
        torn.write_bytes(torn.read_bytes()[:100])
        found = latest_valid_parallel_checkpoint(tmp_path)
        assert found is not None and found.name == "ckpt_00000015.npz"

        out = SupervisedRun(config, 4, checkpoint_dir=tmp_path, checkpoint_every=15).run(
            timeout=300
        )
        assert out.attempts == 1  # resuming is not a restart
        assert np.array_equal(out.result.matrix, serial_matrix)
        # The healed run overwrote the torn file with a valid one.
        assert load_parallel_checkpoint(tmp_path / "ckpt_00000030.npz").generation == 30


class TestBackoffIdentity:
    """Regression: jitter must decorrelate same-seed supervisors.

    The backoff key used to be ``("supervisor", config.seed)`` — two tenants
    running identical specs (same seed) drew *identical* waits on every
    attempt and relaunched in lockstep off a shared outage, which is
    precisely the herd the jitter exists to break.
    """

    def _failing_supervisor(self, config, ckpt_dir, run_id=None):
        plan = _nature_crash_plan(35)
        slept: list[float] = []
        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=15,
            fault_plan=plan,
            fault_plan_on_retry=plan,
            heartbeat_timeout=2.0,
            max_restarts=2,
            backoff=0.5,
            backoff_factor=4.0,
            max_backoff=1.0,
            run_id=run_id,
            sleep=slept.append,
        )
        return sup, slept

    def test_same_seed_supervisors_draw_different_waits(self, config, tmp_path):
        sup_a, slept_a = self._failing_supervisor(config, tmp_path / "tenant-a")
        sup_b, slept_b = self._failing_supervisor(config, tmp_path / "tenant-b")
        assert sup_a.config.seed == sup_b.config.seed  # identical specs...
        for sup in (sup_a, sup_b):
            with pytest.raises(SupervisorError):
                sup.run(timeout=300)
        # ...yet every pause differs: the key carries the run identity.
        assert len(slept_a) == len(slept_b) == 2
        assert all(a != b for a, b in zip(slept_a, slept_b))

    def test_default_identity_is_checkpoint_dir(self, config, tmp_path):
        sup = SupervisedRun(config, 4, checkpoint_dir=tmp_path / "x")
        assert sup.run_id == str((tmp_path / "x").resolve())

    def test_explicit_run_id_wins(self, config, tmp_path):
        sup = SupervisedRun(config, 4, checkpoint_dir=tmp_path, run_id="alice/r1")
        assert sup.run_id == "alice/r1"

    def test_same_run_id_reproduces_waits(self, config, tmp_path):
        # Determinism survives the fix: the *same* run restarted in a new
        # process (same identity) still draws the same waits.
        sup_a, slept_a = self._failing_supervisor(
            config, tmp_path / "a", run_id="alice/r1"
        )
        sup_b, slept_b = self._failing_supervisor(
            config, tmp_path / "b", run_id="alice/r1"
        )
        for sup in (sup_a, sup_b):
            with pytest.raises(SupervisorError):
                sup.run(timeout=300)
        assert slept_a == slept_b


class TestWallBudget:
    """Regression: ``timeout`` is per-attempt, so a run without an overall
    budget can legally burn ``(max_restarts + 1) x timeout`` seconds.  The
    ``wall_budget`` bounds the whole supervised run."""

    def test_rejects_non_positive_budget(self, config, tmp_path):
        with pytest.raises(MPIError, match="wall_budget"):
            SupervisedRun(config, 4, checkpoint_dir=tmp_path, wall_budget=0.0)

    def test_budget_spent_raises_named_error(self, config, tmp_path):
        plan = _nature_crash_plan(35)
        clock_now = [0.0]

        def fake_clock() -> float:
            return clock_now[0]

        def fake_sleep(_pause: float) -> None:
            pass

        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            fault_plan=plan,
            fault_plan_on_retry=plan,
            heartbeat_timeout=2.0,
            max_restarts=50,  # the *wall budget*, not this, must stop the run
            backoff=0.0,
            wall_budget=120.0,
            sleep=fake_sleep,
            clock=fake_clock,
        )
        # Each attempt "costs" 100 fake seconds: the first relaunch check
        # sees 100 < 120 and proceeds; the second sees 200 >= 120 and stops.
        original_build = sup._build

        def build_and_advance(attempt):
            clock_now[0] += 100.0
            return original_build(attempt)

        sup._build = build_and_advance
        with pytest.raises(SupervisorError, match="wall-clock budget 120"):
            sup.run(timeout=300)

    def test_pending_backoff_counts_against_budget(self, config, tmp_path):
        # Even with zero elapsed time, a pause that would overshoot the
        # budget must not be slept: the supervisor gives up immediately
        # instead of sleeping into certain death.
        plan = _nature_crash_plan(35)
        slept: list[float] = []
        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            fault_plan=plan,
            fault_plan_on_retry=plan,
            heartbeat_timeout=2.0,
            max_restarts=5,
            backoff=10.0,
            backoff_factor=1.0,
            max_backoff=10.0,
            backoff_jitter=0.0,
            wall_budget=5.0,  # < the 10 s pause
            sleep=slept.append,
            clock=lambda: 0.0,
        )
        with pytest.raises(SupervisorError, match="wall-clock budget"):
            sup.run(timeout=300)
        assert slept == []  # gave up before the doomed sleep

    def test_unbudgeted_run_still_retries(self, config, serial_matrix, tmp_path):
        # Back-compatibility: no wall_budget keeps the old behaviour.
        sup = SupervisedRun(
            config,
            4,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            fault_plan=_nature_crash_plan(35),
            heartbeat_timeout=2.0,
            max_restarts=2,
            backoff=0.0,
        )
        out = sup.run(timeout=300)
        assert out.attempts == 2
        assert np.array_equal(out.result.matrix, serial_matrix)
