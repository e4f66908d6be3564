"""Parent side of a run: start the rounds, pool their results, clean up after them.

An untraced run is ``ROUNDS`` fresh subprocesses, each given an equal share
of ``--seconds``.  ``setup_s`` and ``peak_rss_mb`` are the median of the
rounds' values; ``gen_per_s`` is all generations delivered over all the wall
time they took, the three rounds together.  Quartiles are taken over the
rounds — so the spread a result file carries is run-to-run spread, which is
what a bound is compared with.

A traced run is two subprocesses: the workload once more with bench-side
spans, and every probe group.  The parent joins them: ``share.*`` is the
probes' costs times the traced pass's exact counts.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench import OUT_DIR, PROBE_RANKS, ROOT, BenchError
from bench.declared import Declared, check_reported
from bench.stats import summary

#: Rounds per untraced run: enough for a median set-up time; more would spend
#: the window on set-up.
ROUNDS = 3

#: A round that has not finished by then is hung (the contract allows 180 s
#: for the whole run).
CHILD_TIMEOUT_S = 150.0


def _stop(proc: subprocess.Popen) -> None:
    """Make sure a child and everything it started are gone (it leads its own
    process group).  A round that exited cleanly has already closed its
    server and worlds; only an interrupted or failed one needs the signals."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=10.0)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
    if proc.poll() != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers: rank processes, service workers
        except ProcessLookupError:
            pass
        proc.wait()


def _sweep_shared_memory(pid: int) -> None:
    """Remove segments a killed round left behind.

    The process backend names its segments ``repro-shm-<pid of the process
    that ran the world>-...`` and unlinks them itself on every normal exit.
    """
    for path in glob.glob(f"/dev/shm/repro-shm-{pid}-*"):
        try:
            os.unlink(path)
        except OSError:
            pass


def run_child(run_dir: Path, pass_: str, workload: str | None, seed: int, round_idx: int,
              seconds: float, scale: float) -> dict:
    out = run_dir / f"{pass_}{round_idx}.json"
    tmp = run_dir / f"{pass_}{round_idx}"
    cmd = [
        sys.executable, "-m", "bench.child", "--pass", pass_,
        "--seed", str(seed), "--round", str(round_idx),
        "--seconds", repr(seconds), "--scale", repr(scale),
        "--tmp", str(tmp), "--out", str(out), "--started-at", repr(time.time()),
    ]
    if workload is not None:
        cmd += ["--workload", workload]
    what = f"{workload or 'probes'} {pass_} pass {round_idx}"
    env = dict(os.environ, TMPDIR=str(run_dir))
    # The child's stdout joins our stderr: our own stdout carries the result.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} still running after {CHILD_TIMEOUT_S:g} s") from None
    finally:
        _stop(proc)
        _sweep_shared_memory(proc.pid)
    if code != 0 or not out.is_file():
        raise BenchError(f"{what} exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def pool_rounds(rounds: list[dict]) -> dict[str, dict]:
    """The end-to-end metrics of one run from its rounds.

    ``gen_per_s`` is work completed per second over the whole measuring
    window, not the median of per-run rates.  The machine's speed moves
    between levels that last seconds to minutes; a median snaps to
    whichever level held the majority, a total moves with their mix.
    """
    out = {name: summary([r[name] for r in rounds]) for name in ("setup_s", "peak_rss_mb")}
    timed = [r for r in rounds if r["wall_s"] > 0.0]
    if timed:  # else every timed operation failed, and check_reported says what is missing
        out["gen_per_s"] = {
            **summary([r["generations"] / r["wall_s"] for r in timed], n=sum(r["timed_units"] for r in timed)),
            "value": sum(r["generations"] for r in timed) / sum(r["wall_s"] for r in timed),
        }
    return out


def shares(facts: dict, layer) -> dict[str, float]:
    """Where the traced pass's wall time went, computed: probe cost x exact count.

    ``kernel``: games on the critical path x the per-game cost of one SSet's
    slate at the workload's memory depth and size.  ``comm``: under the plain
    protocol, messages x the streaming per-message cost of a 4 KiB
    broadcast (its sends are buffered, so latency is not what a generation
    pays).  Under the fault-tolerant star, the reliable sends Nature blocks
    on x their round trip: two of every three (header and update to each
    worker); the third is the worker's report, whose acknowledgement the
    worker waits for while Nature serves the others.
    ``ckpt``: checkpoints written x one save.  ``other`` is what is left —
    Python in Nature and the workers, process launch, the service's queue
    and store; a large ``other`` is a finding, not an error.
    """
    wall = facts["wall_s"]
    kernel = facts["games"] * layer(facts["slate_metric"]) / facts["slate_games"] / 1e3
    backend = facts["backend"]
    if facts["fault_tolerant"]:
        comm = facts["reliable_sends"] * (2.0 / 3.0) * layer(f"mpi.{backend}.reliable_rtt_us") / 1e6
    else:
        comm = facts["messages"] * layer(f"mpi.{backend}.bcast4k_us") / (PROBE_RANKS - 1) / 1e6
    ckpt = facts["checkpoints"] * layer("io.ckpt_save_ms") / 1e3
    out = {"share.kernel": kernel / wall, "share.comm": comm / wall, "share.ckpt": ckpt / wall}
    out["share.other"] = 1.0 - sum(out.values())
    return out


def workload_layer(facts: dict, probe_layer: dict[str, dict]) -> dict[str, dict]:
    """The per-layer metrics that describe one workload (``declared.WORKLOAD_SCOPED``)."""
    if "wall_s" not in facts:  # every operation of the traced pass failed
        return {}
    values = {
        "mpi.msgs_per_gen": facts["messages"] / facts["generations"],
        "mpi.bytes_per_gen": facts["bytes"] / facts["generations"],
        **shares(facts, lambda name: probe_layer[name]["value"]),
    }
    return {name: summary([value]) for name, value in values.items()}


def run_probes(seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Every probe group, once: ``{"layer", "attempted", "failed", "errors"}``."""
    run_dir = OUT_DIR / "tmp" / f"{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        return run_child(run_dir, "probes", None, seed, 0, seconds, scale)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_workload(declared: Declared, workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, probes: dict | None = None) -> dict:
    """One contract run. Returns ``{"correct", "attempted", "failed", "metrics", "errors"}``
    where each metric is ``{"value", "unit", "q1", "q3", "n"}``.

    ``probes``: a traced run joins its workload pass with this
    :func:`run_probes` result instead of making (and counting) its own.
    """
    if workload not in declared.workloads:
        raise BenchError(f"unknown workload {workload!r} (declared: {', '.join(declared.workloads)})")
    run_dir = OUT_DIR / "tmp" / f"{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if trace:
            rounds = [run_child(run_dir, "traced", workload, seed, 0, seconds, scale)]
            if probes is None:
                probes = run_probes(seed, seconds, scale)
                rounds.append(probes)
            metrics = {**probes["layer"], **workload_layer(rounds[0]["facts"], probes["layer"])}
        else:
            rounds = [run_child(run_dir, "untraced", workload, seed, i, seconds / ROUNDS, scale)
                      for i in range(ROUNDS)]
            metrics = pool_rounds(rounds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    names = declared.metrics(trace)
    metrics = {name: {**row, "unit": names[name].unit if name in names else "?"}
               for name, row in metrics.items()}
    check_reported(names, metrics)
    failed = sum(r["failed"] for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
        "errors": [e for r in rounds for e in r["errors"]],
    }
