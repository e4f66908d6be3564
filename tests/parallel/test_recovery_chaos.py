"""Acceptance chaos for self-healing runs.

The three recovery layers under *real* damage:

* **Respawn**: a worker process is killed (or hangs) mid-run under
  ``on_rank_failure="respawn"``; the run must finish with zero permanently
  degraded ranks, a non-empty recovery log, and the exact fault-free
  matrix — twice, to show the heal is reproducible.
* **SIGKILL mid-checkpoint**: an entire run is SIGKILLed while writing a
  checkpoint (leaving a torn file); :class:`SupervisedRun` must resume from
  the latest *valid* checkpoint with no manual intervention.
* **Resume determinism**: interrupted-at-k + resumed equals uninterrupted,
  under a non-trivial fault plan, across backends and transports.

Heal latency is wall-clock (drain grace, heartbeat timeouts), so most
respawn runs use a sole worker: with no live worker left, Nature holds the
next window boundary until the replacement's hello arrives, however fast the
run goes, and each fault sits in a window before the run's last.  The one
P = 3 heal gives the hello many window boundaries instead.  Only an eager
run launches workers, so every run here that kills one is eager.  Assertions
stick to wall-clock-independent facts: the final matrix and the healed-rank
set, never the generation a recovery landed on.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.io.checkpoints import (
    latest_valid_parallel_checkpoint,
    load_parallel_checkpoint,
)
from repro.mpi.faults import FaultEvent, FaultPlan
from repro.parallel import ParallelSimulation, SupervisedRun
from repro.population.dynamics import EvolutionDriver

pytestmark = [pytest.mark.recovery, pytest.mark.chaos]

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _serial_matrix(config: SimulationConfig) -> np.ndarray:
    driver = EvolutionDriver(config)
    driver.run()
    return driver.population.matrix()


@pytest.mark.procexec
class TestRespawnHealing:
    """A killed worker process is replaced and rejoins, losing nothing."""

    #: Three windows (256, 512, 600): generation 10's is not the last.
    config = SimulationConfig(n_ssets=8, generations=600, seed=11)

    def _run(self, plan: FaultPlan, **kwargs):
        return ParallelSimulation(
            self.config,
            n_ranks=2,
            eager_games=True,
            fault_plan=plan,
            backend="process",
            on_rank_failure="respawn",
            heartbeat_timeout=2.0,
            **kwargs,
        ).run(timeout=300)

    def test_crashed_worker_is_healed_bit_exactly(self):
        plan = FaultPlan(seed=5, events=(FaultEvent(kind="crash", rank=1, generation=10),))
        result = self._run(plan)
        # Zero permanently degraded ranks, and the heal is on the record.
        assert result.failed_ranks == ()
        assert len(result.recoveries) >= 1
        assert {e.rank for e in result.recoveries} == {1}
        assert result.recoveries[0].incarnation >= 1
        assert result.recoveries[0].restored_ssets != ()
        assert [r.rank for r in result.respawns][:1] == [1]
        # The healed trajectory IS the fault-free trajectory.
        assert np.array_equal(result.matrix, _serial_matrix(self.config))
        # And a replayed run heals to the same matrix (timing may differ;
        # the trajectory may not).
        replay = self._run(plan)
        assert replay.failed_ranks == ()
        assert np.array_equal(replay.matrix, result.matrix)

    def test_hung_worker_is_terminated_and_healed(self, tmp_path):
        # Nature waits out the heartbeat timeout in the window holding
        # generation 10, then the launcher gives the silent rank a wall-clock
        # grace (hostexec._RESPAWN_HANG_GRACE, 1 s) before starting its
        # replacement; Nature holds the next window boundary a heartbeat for
        # the replacement's hello.  The timeout is per generation of a window,
        # so a checkpoint every generation keeps the wait one heartbeat.
        plan = FaultPlan(seed=6, events=(FaultEvent(kind="hang", rank=1, generation=10),))
        result = self._run(plan, checkpoint_dir=tmp_path, checkpoint_every=1)
        assert result.failed_ranks == ()
        assert {e.rank for e in result.recoveries} == {1}
        assert np.array_equal(result.matrix, _serial_matrix(self.config))


@pytest.mark.procexec
class TestRespawnHealingBesideASurvivor:
    """A heal at P = 3, where another worker stays alive throughout."""

    def test_crashed_rank_of_three_takes_its_ssets_back(self, tmp_path):
        """Rank 1 plays on while rank 2 is dead, so Nature does not hold a
        boundary for the replacement; a checkpoint every 50 generations gives
        its hello eleven window boundaries to land on.  The SSets the
        survivor took over are exactly the ones handed back."""
        config = SimulationConfig(n_ssets=9, generations=600, seed=11)
        plan = FaultPlan(seed=5, events=(FaultEvent(kind="crash", rank=2, generation=10),))
        result = ParallelSimulation(
            config,
            n_ranks=3,
            eager_games=True,
            fault_plan=plan,
            backend="process",
            on_rank_failure="respawn",
            heartbeat_timeout=2.0,
            checkpoint_dir=tmp_path,
            checkpoint_every=50,
        ).run(timeout=300)
        assert np.array_equal(result.matrix, _serial_matrix(config))
        assert [d.rank for d in result.degradations] == [2]
        assert [r.rank for r in result.recoveries] == [2]
        assert result.recoveries[0].restored_ssets == result.degradations[0].reassigned_ssets


_KILL_MID_CHECKPOINT_CHILD = """
import os, signal, sys

import repro.parallel.runner as runner
from repro.config import SimulationConfig
from repro.io.checkpoints import save_parallel_checkpoint, write_torn_parallel_checkpoint

directory = sys.argv[1]
calls = {"n": 0}

def killing_save(state, path):
    calls["n"] += 1
    if calls["n"] == 2:
        # The second checkpoint write dies half-way: partial bytes land at
        # the final path, then the WHOLE process is SIGKILLed -- no except
        # clause, no atexit, nothing runs after this.
        write_torn_parallel_checkpoint(state, path)
        os.kill(os.getpid(), signal.SIGKILL)
    return save_parallel_checkpoint(state, path)

runner.save_parallel_checkpoint = killing_save
cfg = SimulationConfig(n_ssets=8, generations=60, seed=11)
runner.ParallelSimulation(
    cfg, n_ranks=4, checkpoint_dir=directory, checkpoint_every=15
).run(timeout=120)
"""


class TestKillMidCheckpointWrite:
    def test_supervised_run_resumes_after_sigkill(self, tmp_path):
        """SIGKILL the whole run mid-checkpoint-write; SupervisedRun recovers."""
        config = SimulationConfig(n_ssets=8, generations=60, seed=11)
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_MID_CHECKPOINT_CHILD, str(tmp_path)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        # The aftermath: gen 15 intact, gen 30 torn at the final path.
        assert (tmp_path / "ckpt_00000030.npz").exists()
        valid = latest_valid_parallel_checkpoint(tmp_path)
        assert valid is not None and valid.name == "ckpt_00000015.npz"

        out = SupervisedRun(config, 4, checkpoint_dir=tmp_path, checkpoint_every=15).run(
            timeout=300
        )
        assert out.attempts == 1  # the resume itself needs no restart
        assert np.array_equal(out.result.matrix, _serial_matrix(config))
        # The torn file was replaced by a valid one on the way through.
        assert load_parallel_checkpoint(tmp_path / "ckpt_00000030.npz").generation == 30


class TestKilledHost:
    """A host process killed from outside is not replaced in place: the
    world aborts naming it and the supervisor resumes from the checkpoint."""

    config = SimulationConfig(n_ssets=8, generations=600, seed=11)

    @pytest.mark.parametrize(
        "backend",
        [
            pytest.param("process", marks=pytest.mark.procexec),
            pytest.param("tcp", marks=pytest.mark.tcp),
        ],
    )
    def test_supervised_run_resumes_after_host_sigkill(self, backend, tmp_path):
        def kill_worker_host():
            deadline = time.monotonic() + 120
            while latest_valid_parallel_checkpoint(tmp_path) is None:
                if time.monotonic() > deadline:
                    return
                time.sleep(0.01)
            for proc in multiprocessing.active_children():
                if proc.name == "vmpi-host-1":
                    os.kill(proc.pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_worker_host, daemon=True)
        killer.start()
        out = SupervisedRun(
            self.config,
            3,
            eager_games=True,
            checkpoint_dir=tmp_path,
            checkpoint_every=50,
            backend=backend,
            on_rank_failure="respawn",
            backoff=0.0,
        ).run(timeout=300)
        killer.join(timeout=10)
        assert not killer.is_alive()
        assert len(out.restarts) == 1
        assert "host 1" in out.restarts[0].error
        assert out.restarts[0].generation >= 50
        assert np.array_equal(out.result.matrix, _serial_matrix(self.config))


class TestResumeDeterminism:
    """Interrupted-at-k + resumed == uninterrupted, across backends."""

    config = SimulationConfig(n_ssets=8, generations=60, seed=11)

    @pytest.mark.parametrize(
        "backend",
        ["thread", pytest.param("process", marks=pytest.mark.procexec)],
    )
    def test_interrupted_plus_resumed_matches_uninterrupted(self, backend, tmp_path):
        # Message chaos (drops/duplicates the reliable layer absorbs) plus a
        # Nature crash at generation 35 to force the interruption.
        plan = FaultPlan(
            seed=9,
            drop_p=0.02,
            duplicate_p=0.02,
            immune_ranks=(),
            events=(FaultEvent(kind="crash", rank=0, generation=35),),
        )
        first = ParallelSimulation(
            self.config,
            n_ranks=4,
            eager_games=True,
            fault_plan=plan,
            checkpoint_dir=tmp_path,
            checkpoint_every=15,
            heartbeat_timeout=3.0,
            backend=backend,
        )
        with pytest.raises(Exception):
            first.run(timeout=300)
        assert load_parallel_checkpoint(latest_valid_parallel_checkpoint(tmp_path)).generation == 30

        resumed = ParallelSimulation.resume(
            tmp_path, n_ranks=4, eager_games=True, backend=backend
        ).run(timeout=300)
        assert resumed.generation == self.config.generations
        assert np.array_equal(resumed.matrix, _serial_matrix(self.config))
