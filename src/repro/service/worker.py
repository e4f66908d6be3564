"""The service worker: one process, one supervised run, streamed progress.

:func:`run_job` is the whole life of a worker process.  It loads the run's
stored :class:`~repro.parallel.spec.RunSpec`, attaches an
:class:`~repro.obs.stream.EventTap` that distills the raw trace into
progress records appended to the run's ``events.jsonl``, and drives a
:class:`~repro.parallel.supervisor.SupervisedRun` to completion — so a
worker inherits the entire self-healing stack for free: in-run degradation
and respawn, supervisor restarts from the latest valid checkpoint, and
(because the queue relaunches dead workers) resume-after-SIGKILL.

File ownership is split to keep a SIGKILL-able worker honest:

* the **queue** (parent) owns ``status.json`` — lifecycle it can always
  write truthfully because it outlives the worker;
* the **worker** (child) owns ``outcome.json`` and ``result.npz`` — the
  completion record and the digest-verified matrix, both atomically
  replaced, so they exist if and only if the run actually finished.

An evolution job announces one progress record per window Nature drafts —
the generation the window ends at — not one per generation: the tap
listens for Nature's ``window`` span only, so nobody watches single
generations and Nature drafts each window in one pass.  Progress records
are monotone in ``generation`` even across worker deaths: a relaunched
worker seeds its high-water mark from the events already on disk, so a run
resumed from generation 120's checkpoint never re-announces generations a
subscriber has already seen.
"""

from __future__ import annotations

import os
import sys
import time
import traceback

from repro.io.runstore import RunKey, RunStore
from repro.obs.stream import EventTap, jsonl_event_writer
from repro.obs.tracer import TraceEvent
from repro.parallel.supervisor import SupervisedRun

__all__ = ["run_job", "progress_transform"]


#: The trace events :func:`progress_transform` keeps.
PROGRESS_NAMES = ("window", "recovery.restart")


def progress_transform(events_so_far: list[dict]):
    """Build the trace→progress distiller for one worker incarnation.

    Returns a callback for :func:`~repro.obs.stream.jsonl_event_writer`'s
    ``transform`` that keeps only what a subscriber needs:

    * ``{"type": "progress", "generation": g}`` — Nature (rank 0) drafted
      the window ending at generation ``g`` (a window ends at the runner's
      256-generation cap, at each checkpoint and at the last generation);
      emitted only when ``g`` exceeds every generation already announced,
      *including by previous incarnations* (seeded from ``events_so_far``),
      so the stream is strictly increasing.
    * ``{"type": "restart", ...}`` — a supervisor-level restart.

    Everything else (play spans, message flows, heartbeats) is dropped —
    the full trace is the tracer's business, not the progress feed's.
    """
    last_gen = max(
        (e.get("generation", 0) for e in events_so_far if e.get("type") == "progress"),
        default=0,
    )

    def transform(event: TraceEvent) -> dict | None:
        nonlocal last_gen
        if event.name == "window" and event.ph == "X" and event.rank == 0:
            gen = int((event.args or {}).get("gen", 0))
            if gen <= last_gen:
                return None
            last_gen = gen
            return {"type": "progress", "generation": gen, "time": time.time()}
        if event.name == "recovery.restart":
            args = event.args or {}
            return {
                "type": "restart",
                "attempt": args.get("attempt"),
                "generation": args.get("generation"),
                "error": args.get("error"),
                "time": time.time(),
            }
        return None

    return transform


def run_job(store_root: str, tenant: str, run_id: str) -> int:
    """Execute the stored run ``tenant/run_id`` to completion.

    Returns the process exit code: 0 when the run finished and its result
    was stored, 1 when the supervisor gave up (the failure is recorded in
    ``outcome.json``).  A worker that dies without writing an outcome —
    chaos kill, OOM, preemption — is the queue's problem: it relaunches
    within the spec's requeue budget and this function resumes from the
    latest valid checkpoint via the supervisor's normal scan.
    """
    store = RunStore(store_root)
    key = RunKey(tenant, run_id)
    spec = store.load_spec(key)
    if getattr(spec, "kind", "evolution") == "spatial":
        return _run_spatial_job(store, key, spec)

    write = jsonl_event_writer(
        store.events_path(key), transform=progress_transform(store.read_events(key))
    )
    # A thread world records into the tap directly, so the tap builds only
    # what the feed reads; process and tcp hosts trace for an enabled tracer
    # only and ship their events back when the attempt ends.  A lazy run (or
    # one of a single rank) is a thread world whatever its backend says.
    hosted = spec.eager_games and spec.n_ranks > 1 and spec.backend != "thread"
    names = None if hosted else PROGRESS_NAMES
    tap = EventTap([write], keep_events=False, names=names)
    store.append_event(
        key,
        {"type": "worker-started", "pid": os.getpid(), "time": time.time()},
        durable=True,
    )

    try:
        supervised = SupervisedRun.from_spec(
            spec,
            checkpoint_dir=store.checkpoint_dir(key),
            run_id=str(key),
            trace=tap,
        ).run(timeout=spec.attempt_timeout)
    except Exception as exc:
        store.write_outcome(
            key,
            {
                "state": "failed",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "time": time.time(),
            },
        )
        store.append_event(
            key,
            {"type": "failed", "error": f"{type(exc).__name__}: {exc}", "time": time.time()},
            durable=True,
        )
        return 1
    finally:
        write.close()

    store.save_result(key, supervised.result, attempts=supervised.attempts)
    store.write_outcome(
        key,
        {
            "state": "done",
            "generation": int(supervised.result.generation),
            "attempts": supervised.attempts,
            "restarts": len(supervised.restarts),
            "time": time.time(),
        },
    )
    store.append_event(
        key,
        {
            "type": "done",
            "generation": int(supervised.result.generation),
            "attempts": supervised.attempts,
            "time": time.time(),
        },
        durable=True,
    )
    return 0


def _run_spatial_job(store: RunStore, key: RunKey, spec) -> int:
    """Drive one :class:`~repro.spatial.spec.SpatialRunSpec` to completion.

    Spatial runs are exact and comparatively short, so there is no
    supervisor or checkpoint layer: the run either finishes (result saved,
    per-generation progress appended after the fact, final shares in the
    outcome) or fails with the error recorded in ``outcome.json`` — and a
    worker killed mid-run is relaunched by the queue within the spec's
    requeue budget and simply recomputes from the start.
    """
    from repro.spatial.parallel import run_partitioned

    store.append_event(
        key,
        {"type": "worker-started", "pid": os.getpid(), "time": time.time()},
        durable=True,
    )
    try:
        result = run_partitioned(spec)
    except Exception as exc:
        store.write_outcome(
            key,
            {
                "state": "failed",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "time": time.time(),
            },
        )
        store.append_event(
            key,
            {"type": "failed", "error": f"{type(exc).__name__}: {exc}", "time": time.time()},
            durable=True,
        )
        return 1

    now = time.time()
    for gen, counts in enumerate(result.history, start=1):
        store.append_event(
            key, {"type": "progress", "generation": gen, "counts": counts, "time": now}
        )
    store.save_result(key, result, attempts=1)
    store.write_outcome(
        key,
        {
            "state": "done",
            "generation": int(result.generation),
            "attempts": 1,
            "restarts": 0,
            "shares": result.shares(),
            "time": time.time(),
        },
    )
    store.append_event(
        key,
        {
            "type": "done",
            "generation": int(result.generation),
            "attempts": 1,
            "shares": result.shares(),
            "time": time.time(),
        },
        durable=True,
    )
    return 0


def _child_entry(store_root: str, tenant: str, run_id: str) -> None:
    """``multiprocessing.Process`` target: exit code = :func:`run_job`'s."""
    sys.exit(run_job(store_root, tenant, run_id))
