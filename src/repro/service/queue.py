"""The job queue: many tenants, a bounded worker pool, fair-share order.

One :class:`JobQueue` schedules supervised runs across a pool of worker
*processes* (:mod:`repro.service.worker`), so a hung or chaos-killed run
can always be reclaimed with a kill.  Scheduling policy, all enforced by
one scheduler thread:

* **Quotas** — each tenant may hold at most ``quota`` active (queued or
  running) runs; :meth:`submit` raises :class:`~repro.errors.QuotaError`
  beyond that, at admission time, so a greedy tenant's overflow never even
  queues.
* **Fair share** — a free worker slot goes to the tenant with the fewest
  runs currently executing (ties to the tenant that was served longest
  ago), FIFO within a tenant.  A tenant submitting fifty runs cannot
  starve a tenant submitting one.
* **Preemption** — :meth:`preempt` kills a running worker and requeues the
  run; the relaunch resumes from the latest valid checkpoint (the
  supervisor's normal scan), and an explicit preemption never consumes the
  run's requeue budget.
* **Requeue on worker death** — a worker that dies *without* writing its
  outcome record (SIGKILL, OOM, a crashed interpreter) is relaunched up to
  :attr:`~repro.parallel.spec.FaultPolicy.max_requeues` times, then marked
  failed.  A worker that finishes — success or supervisor give-up — is
  terminal either way; a run that failed on its merits is not retried
  behind the tenant's back (:meth:`resume` retries it explicitly).
* **Stall watchdog** — with :attr:`~repro.parallel.spec.FaultPolicy.stall_timeout`
  set, a running worker that reports no new generation for that long is
  killed and requeued (spending the budget), so a live-but-wedged worker
  cannot hold a pool slot forever.

The queue itself is **crash-safe**: construction claims an epoch-numbered
lease on the store (:class:`~repro.service.journal.QueueLease` — exactly
one queue owns a store at a time; a superseded queue is *fenced* and its
writes rejected), and every lifecycle transition is appended to the
store's service journal (:class:`~repro.service.journal.ServiceJournal`).
After a service crash, :meth:`recover` on a fresh queue replays the
journal against ``outcome.json``/``result.npz``/checkpoints: interrupted
runs are re-adopted and resume from their latest valid checkpoint
(bit-identically — the supervisor's normal machinery), finished runs get
their stale ``status.json`` reconciled, and orphaned worker processes of
the dead queue are killed before their runs are relaunched, so a run can
never be executed by two workers at once.

The queue owns ``status.json`` in the run store; workers own the outcome
and result (see :mod:`repro.service.worker`), so the two sides never race
on a file.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import signal
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.errors import (
    DrainingError,
    QuotaError,
    RunStoreError,
    ServiceError,
    StaleLeaseError,
    UnknownRunError,
)
from repro.io.runstore import RunKey, RunStore
from repro.logging_util import get_logger
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.spec import RunSpec
from repro.service.journal import QueueLease, ServiceJournal, read_lease
from repro.service.worker import _child_entry

__all__ = ["JobQueue", "JobStatus", "Job", "RecoveryReport"]

_LOG = get_logger("service.queue")

#: Lifecycle states a job moves through (terminal: ``done``, ``failed``).
#: Store-side reconstruction adds ``orphaned`` for a run whose recorded
#: state says queued/running but which no live queue owns.
_STATES = ("queued", "running", "done", "failed", "orphaned")

_ACTIVE = ("queued", "running")


class _WakePipe:
    """A ``threading.Event`` the scheduler can wait on beside its workers'
    sentinels: :meth:`set` writes a byte to a non-blocking self-pipe."""

    def __init__(self) -> None:
        self._r, self._w = os.pipe()
        os.set_blocking(self._r, False)
        os.set_blocking(self._w, False)
        self._lock = threading.Lock()
        self._open = True

    def fileno(self) -> int:
        return self._r

    def set(self) -> None:
        with self._lock:  # against close(): never write to a recycled fd
            if self._open:
                with suppress(BlockingIOError):  # pipe full: a wake is pending
                    os.write(self._w, b"\0")

    def clear(self) -> None:
        with suppress(BlockingIOError):
            os.read(self._r, 65536)

    def close(self) -> None:
        with self._lock:
            if self._open:
                self._open = False
                os.close(self._r)
                os.close(self._w)


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time snapshot of one job, safe to hand across threads."""

    tenant: str
    run_id: str
    state: str
    generation: int
    requeues: int
    incarnations: int
    pid: int | None
    error: str | None
    name: str = ""

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "run_id": self.run_id,
            "state": self.state,
            "generation": self.generation,
            "requeues": self.requeues,
            "incarnations": self.incarnations,
            "pid": self.pid,
            "error": self.error,
            "name": self.name,
        }


@dataclass
class Job:
    """The queue's mutable record of one submitted run (lock-guarded)."""

    key: RunKey
    spec: RunSpec
    state: str = "queued"
    seq: int = 0
    proc: multiprocessing.process.BaseProcess | None = None
    requeues: int = 0
    incarnations: int = 0
    preempt_requested: bool = False
    drain_requested: bool = False
    stalled: bool = False
    last_progress_gen: int = 0
    last_progress_time: float = 0.0
    error: str | None = None
    done_event: threading.Event = field(default_factory=threading.Event)


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`JobQueue.recover` found and did on one store.

    Attributes
    ----------
    requeued:
        ``tenant/run_id`` strings re-adopted as queued (they resume from
        their latest valid checkpoint when dispatched).
    reconciled:
        Runs whose stale ``status.json`` said queued/running although their
        outcome or result proves them terminal — the record was rewritten.
    killed_orphans:
        PIDs of still-live worker processes belonging to a dead (or fenced)
        queue, SIGKILLed before their runs were re-adopted.
    healthy:
        Runs whose records already agreed with reality.
    """

    requeued: tuple[str, ...] = ()
    reconciled: tuple[str, ...] = ()
    killed_orphans: tuple[int, ...] = ()
    healthy: int = 0

    def to_dict(self) -> dict:
        return {
            "requeued": list(self.requeued),
            "reconciled": list(self.reconciled),
            "killed_orphans": list(self.killed_orphans),
            "healthy": self.healthy,
        }


class JobQueue:
    """Schedule stored runs across a bounded pool of worker processes.

    Construction claims the store's epoch lease — creating a second queue
    on the same store *fences* the first (its journal/status writes and
    dispatches are rejected with :class:`~repro.errors.StaleLeaseError`).

    Parameters
    ----------
    store:
        The :class:`~repro.io.runstore.RunStore` runs live in (specs in,
        results out).
    max_workers:
        Worker-process pool size — how many runs execute concurrently.
    quota:
        Default per-tenant cap on *active* (queued + running) runs.
    quotas:
        Per-tenant overrides of ``quota``.
    poll:
        Upper bound in seconds on the scheduler's sleep: submissions,
        preemptions, a close and every worker's exit wake it at once; the
        bound is the stall watchdog's cadence.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` receiving ``service.*``
        recovery/fence/stall counters and instants.
    """

    def __init__(
        self,
        store: RunStore,
        *,
        max_workers: int = 2,
        quota: int = 4,
        quotas: dict[str, int] | None = None,
        poll: float = 0.05,
        tracer: Tracer | None = None,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if quota < 1:
            raise ServiceError(f"quota must be >= 1, got {quota}")
        self.store = store
        self.max_workers = int(max_workers)
        self.default_quota = int(quota)
        self.quotas = dict(quotas or {})
        self._poll = float(poll)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # fork keeps the worker entry (a module function) cheap to launch
        # and is what the process backend itself prefers; spawn is the
        # portable fallback.
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._lock = threading.Lock()
        self._jobs: dict[RunKey, Job] = {}
        self._seq = itertools.count()
        #: tenant -> dispatch tick of its most recent dispatch (fair-share tiebreak)
        self._last_served: dict[str, int] = {}
        self._closed = False
        self._released = False
        self._draining = False
        self._fenced = False
        self._next_watchdog = 0.0
        self.lease = QueueLease(store.root)
        self.epoch = self.lease.claim()
        self.journal = ServiceJournal(store.root, self.lease)
        self._wake = _WakePipe()
        self._thread = threading.Thread(
            target=self._scheduler_loop, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()

    # -- admission -----------------------------------------------------------

    def quota_for(self, tenant: str) -> int:
        """The tenant's active-run cap."""
        return self.quotas.get(tenant, self.default_quota)

    def _active_count(self, tenant: str) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.key.tenant == tenant and job.state in _ACTIVE
        )

    def submit(self, tenant: str, run_id: str, spec: RunSpec) -> RunKey:
        """Admit a new run under ``tenant/run_id``.

        Raises :class:`~repro.errors.QuotaError` when the tenant is at its
        active-run cap (nothing is persisted),
        :class:`~repro.errors.RunStoreError` when the key already exists —
        keys are write-once; use :meth:`resume` to re-drive an old key —
        :class:`~repro.errors.DrainingError` while the queue drains, and
        :class:`~repro.errors.StaleLeaseError` when a newer queue has
        claimed the store.
        """
        key = self.store.key(tenant, run_id)
        with self._lock:
            self._check_admitting_locked()
            if key in self._jobs and self._jobs[key].state in _ACTIVE:
                raise ServiceError(f"run {key} is already active in this queue")
            quota = self.quota_for(tenant)
            if self._active_count(tenant) >= quota:
                raise QuotaError(
                    f"tenant {tenant!r} is at its quota of {quota} active run(s);"
                    f" submit {key} again once one finishes"
                )
            self.store.create_run(key, spec)
            self._enqueue_locked(key, spec)
            self._journal_locked("submitted", key, name=spec.name)
        self._wake.set()
        return key

    def resume(self, tenant: str, run_id: str) -> RunKey:
        """Re-drive a run that already exists in the store by its key.

        The relaunch picks up from the latest valid checkpoint; a run that
        already has a stored result is refused (it is finished — fetch it).
        Quota and fair-share apply exactly as for a fresh submission.
        """
        key = self.store.key(tenant, run_id)
        with self._lock:
            self._check_admitting_locked()
            if not self.store.exists(key):
                raise UnknownRunError(f"no run {key} in the store")
            if key in self._jobs and self._jobs[key].state in _ACTIVE:
                raise ServiceError(f"run {key} is already active in this queue")
            if self.store.has_result(key):
                raise ServiceError(f"run {key} already has a result; nothing to resume")
            quota = self.quota_for(tenant)
            if self._active_count(tenant) >= quota:
                raise QuotaError(
                    f"tenant {tenant!r} is at its quota of {quota} active run(s)"
                )
            spec = self.store.load_spec(key)
            # A stale failure record from the previous incarnation would be
            # mistaken for this relaunch's outcome at the next reap.
            (self.store.run_dir(key) / "outcome.json").unlink(missing_ok=True)
            self._enqueue_locked(key, spec)
            self._journal_locked("submitted", key, name=spec.name, reason="resume")
        self._wake.set()
        return key

    def _enqueue_locked(self, key: RunKey, spec: RunSpec) -> None:
        job = Job(key=key, spec=spec, seq=next(self._seq))
        self._jobs[key] = job
        self._persist_status_locked(job)

    # -- startup recovery ----------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Replay the store against its records; adopt every orphaned run.

        For each stored run not already active in this queue:

        * a run with an ``outcome.json`` or ``result.npz`` is terminal —
          a stale ``status.json`` still claiming queued/running is
          rewritten (*reconciled*);
        * a run whose record says queued/running (or that has a spec but no
          record at all — admission crashed mid-write) is *orphaned*: any
          still-live worker process from the dead queue is SIGKILLed, then
          the run is re-adopted as queued and resumes from its latest valid
          checkpoint when dispatched — bit-identically, by the supervisor's
          normal scan;
        * failed runs stay failed (retrying them is :meth:`resume`'s
          explicit call).

        Safe to call on a store that needs nothing; returns a
        :class:`RecoveryReport` either way.  :class:`RunService` calls this
        automatically at startup.
        """
        requeued: list[str] = []
        reconciled: list[str] = []
        killed: list[int] = []
        healthy = 0
        with self._lock:
            self._check_admitting_locked()
            for key in self.store.iter_keys():
                if key in self._jobs:
                    continue
                try:
                    action, pid = self._recover_one_locked(key)
                except RunStoreError as exc:
                    # A torn/corrupt record is fsck's business, not a reason
                    # to abort recovering every other run.
                    _LOG.warning("recovery skipped %s: %s", key, exc)
                    continue
                if pid is not None:
                    killed.append(pid)
                if action == "requeued":
                    requeued.append(str(key))
                elif action == "reconciled":
                    reconciled.append(str(key))
                else:
                    healthy += 1
        report = RecoveryReport(
            requeued=tuple(requeued),
            reconciled=tuple(reconciled),
            killed_orphans=tuple(killed),
            healthy=healthy,
        )
        if requeued or reconciled or killed:
            _LOG.info(
                "recovery on %s: %d requeued, %d reconciled, %d orphan worker(s) killed",
                self.store.root, len(requeued), len(reconciled), len(killed),
            )
            self.tracer.metrics.inc("service.recovered_runs", len(requeued))
            self.tracer.metrics.inc("service.reconciled_runs", len(reconciled))
            self.tracer.metrics.inc("service.orphans_killed", len(killed))
            self.tracer.instant("service.recovery", rank=0, args=report.to_dict())
        self._wake.set()
        return report

    def _recover_one_locked(self, key: RunKey) -> tuple[str, int | None]:
        """Classify and repair one stored run; returns (action, killed_pid)."""
        outcome = self.store.read_outcome(key)
        recorded = self.store.read_status(key) or {}
        state = recorded.get("state")
        if outcome is not None or self.store.has_result(key):
            terminal = (outcome or {}).get("state") or "done"
            if state == terminal:
                return "healthy", None
            # The worker finished but the dead queue never recorded it.
            status = JobStatus(
                tenant=key.tenant,
                run_id=key.run_id,
                state=terminal,
                generation=self._last_generation(key),
                requeues=int(recorded.get("requeues", 0)),
                incarnations=int(recorded.get("incarnations", 0)),
                pid=None,
                error=(outcome or {}).get("error"),
                name=str(recorded.get("name", "")),
            )
            self._write_status_record_locked(key, status)
            self._journal_locked("reconciled", key, state=terminal, durable=True)
            return "reconciled", None
        if state not in _ACTIVE and not (state is None and not recorded):
            return "healthy", None  # failed (terminal) or explicitly orphaned-marked
        # Orphaned: queued/running per the record (or admission crashed
        # before the first status write).  Kill any still-live worker the
        # dead queue left behind, then re-adopt.
        pid = recorded.get("pid") if state == "running" else None
        killed = self._kill_orphan(pid)
        spec = self.store.load_spec(key)
        job = Job(
            key=key,
            spec=spec,
            seq=next(self._seq),
            requeues=int(recorded.get("requeues", 0)),
            incarnations=int(recorded.get("incarnations", 0)),
        )
        self._jobs[key] = job
        self._persist_status_locked(job)
        self._journal_locked(
            "recovered", key, requeues=job.requeues, incarnations=job.incarnations,
            durable=True,
        )
        return "requeued", (pid if killed else None)

    @staticmethod
    def _kill_orphan(pid: int | None, grace: float = 5.0) -> bool:
        """SIGKILL a dead queue's leftover worker; wait until it is gone.

        Best-effort: the pid may already be dead (normal) or recycled (we
        only reach here when the recorded owner queue is provably not
        live).  Returns whether a signal was actually delivered.
        """
        if not pid:
            return False
        try:
            os.kill(int(pid), signal.SIGKILL)
        except (ProcessLookupError, PermissionError, ValueError):
            return False
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.kill(int(pid), 0)
            except (ProcessLookupError, PermissionError):
                return True
            time.sleep(0.02)
        return True

    # -- control -------------------------------------------------------------

    def preempt(self, tenant: str, run_id: str) -> None:
        """Kick the run off its worker slot; it requeues and resumes later.

        A queued (not yet running) run is simply left queued.  Preemption
        is free: it never consumes the run's requeue budget.
        """
        key = self.store.key(tenant, run_id)
        with self._lock:
            job = self._jobs.get(key)
            if job is None:
                raise UnknownRunError(f"no active run {key} in this queue")
            if job.state == "running" and job.proc is not None and job.proc.pid:
                job.preempt_requested = True
                self._kill_locked(job)
        self._wake.set()

    def _kill_locked(self, job: Job) -> None:
        proc = job.proc
        if proc is None or not proc.is_alive():
            return
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, TypeError):
            pass

    def status(self, tenant: str, run_id: str) -> JobStatus:
        """The job's current state, live from the queue when it is active,
        reconstructed (and reconciled) from the store otherwise.

        Store-side reconstruction never parrots a dead queue's record: a
        run whose ``status.json`` claims queued/running is cross-checked
        against ``outcome.json``/``result.npz`` and, when no live queue
        owns it, reported as ``orphaned`` until :meth:`recover` re-adopts
        it.  A fenced queue always answers from the store — the current
        owner's records, not its own stale memory.
        """
        key = self.store.key(tenant, run_id)
        with self._lock:
            job = self._jobs.get(key)
            if job is not None and not self._fenced:
                return self._status_locked(job)
        if not self.store.exists(key):
            raise UnknownRunError(f"no run {key} in the store")
        return self._status_from_store(key)

    def _status_locked(self, job: Job) -> JobStatus:
        return JobStatus(
            tenant=job.key.tenant,
            run_id=job.key.run_id,
            state=job.state,
            generation=self._last_generation(job.key),
            requeues=job.requeues,
            incarnations=job.incarnations,
            pid=job.proc.pid if job.proc is not None and job.proc.is_alive() else None,
            error=job.error,
            name=job.spec.name,
        )

    def _status_from_store(self, key: RunKey) -> JobStatus:
        outcome = self.store.read_outcome(key) or {}
        recorded = self.store.read_status(key) or {}
        state = outcome.get("state") or recorded.get("state") or "queued"
        pid = None
        if state in _ACTIVE and not outcome:
            if self.store.has_result(key):
                state = "done"  # finished, but the outcome write was lost
            elif self._owned_by_live_queue(recorded):
                pid = recorded.get("pid")
            else:
                state = "orphaned"  # nobody owns it; recover() re-adopts it
        return JobStatus(
            tenant=key.tenant,
            run_id=key.run_id,
            state=state,
            generation=self._last_generation(key),
            requeues=int(recorded.get("requeues", 0)),
            incarnations=int(recorded.get("incarnations", 0)),
            pid=pid,
            error=outcome.get("error") or recorded.get("error"),
            name=str(recorded.get("name", "")),
        )

    def _owned_by_live_queue(self, recorded: dict) -> bool:
        """Whether another, *current* queue stands behind this record.

        True only when the record's epoch matches the store's current lease
        and that lease is not ours — i.e. the present lease-holder wrote
        it.  A record from a superseded epoch (its queue is fenced or
        dead), or from our own epoch without a matching in-memory job, is
        nobody's word and reports ``orphaned``.
        """
        epoch = recorded.get("epoch")
        if epoch is None:
            return False
        lease = read_lease(self.store.root)
        if lease is None or lease.get("released"):
            return False
        return int(epoch) == int(lease.get("epoch", -1)) and int(epoch) != self.epoch

    def _last_generation(self, key: RunKey) -> int:
        """The run's latest progress generation.  Announced generations only
        rise (across incarnations too), so read ``events.jsonl`` backwards in
        blocks to the first progress record, skipping lines that do not parse
        (a torn tail) as :func:`~repro.obs.stream.read_events` does."""
        try:
            fh = open(self.store.events_path(key), "rb")
        except FileNotFoundError:
            return 0
        with fh:
            start = fh.seek(0, os.SEEK_END)
            head = b""  # the (possibly partial) first line of the blocks read so far
            while start > 0:
                size = min(start, 8192)
                start -= size
                fh.seek(start)
                lines = (fh.read(size) + head).split(b"\n")
                head = lines[0]
                for line in reversed(lines if start == 0 else lines[1:]):
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict) and record.get("type") == "progress":
                        return record.get("generation", 0)
        return 0

    def wait(self, tenant: str, run_id: str, timeout: float | None = None) -> JobStatus:
        """Block until the run reaches a terminal state; returns its status.

        Raises :class:`~repro.errors.ServiceError` if ``timeout`` elapses
        first.
        """
        key = self.store.key(tenant, run_id)
        with self._lock:
            job = self._jobs.get(key)
        if job is None:
            return self.status(tenant, run_id)
        if not job.done_event.wait(timeout):
            raise ServiceError(f"run {key} still {job.state} after {timeout:g} s")
        return self.status(tenant, run_id)

    def done_event(self, tenant: str, run_id: str) -> threading.Event | None:
        """The event set when the run turns terminal; ``None`` for a run this
        queue does not own (never admitted here, or the queue is fenced)."""
        with self._lock:
            job = self._jobs.get(self.store.key(tenant, run_id))
            return None if job is None or self._fenced else job.done_event

    @property
    def draining(self) -> bool:
        """Whether the queue has stopped admitting work (drain or close)."""
        return self._draining or self._closed

    @property
    def fenced(self) -> bool:
        """Whether a newer queue has claimed this store (writes rejected)."""
        return self._fenced

    def close(
        self, *, kill: bool = True, drain: float | None = None, timeout: float = 60.0
    ) -> None:
        """Stop the scheduler; by default also reclaims live workers.

        ``drain`` adds a graceful phase first: admission stops immediately
        (:meth:`submit`/:meth:`resume` raise
        :class:`~repro.errors.DrainingError` — HTTP 503 material), queued
        jobs stay queued, and running workers get up to ``drain`` seconds
        to finish (long enough to reach their next checkpoint); whatever
        still runs is then killed and journaled as resumable — a later
        queue's :meth:`recover` re-adopts it.  ``kill=True`` without a
        drain kills immediately with the same resumable bookkeeping (a
        close-kill is free, like a preemption: it never spends the requeue
        budget).

        ``kill=False`` waits for running workers to finish on their own,
        bounded by ``timeout`` seconds; if they have not finished by then
        the scheduler thread cannot exit and this method raises
        :class:`~repro.errors.ServiceError` (loudly, instead of silently
        leaking the thread as it once did).  After such a timeout a second
        ``close(kill=True)`` reclaims the stragglers; :meth:`close` only
        becomes a no-op once the lease has actually been released.
        """
        with self._lock:
            if self._released:
                return
            if drain is not None and not self._draining:
                self._draining = True
                self._journal_locked("drain", None, grace=float(drain))
                self.tracer.instant("service.drain", rank=0, args={"grace": float(drain)})
        if drain is not None:
            deadline = time.monotonic() + drain
            # Nothing is dispatched while draining: it is over when the workers
            # running now exit (the list keeps their sentinels open past a reap).
            for proc in self._running_procs():
                connection.wait([proc.sentinel], max(0.0, deadline - time.monotonic()))
        with self._lock:
            self._closed = True
            if kill or drain is not None:
                for job in self._jobs.values():
                    if job.state == "running":
                        # Journaled-as-resumable: the reap requeues it for
                        # free and the status record says so.
                        job.preempt_requested = True
                        job.drain_requested = drain is not None
                        self._kill_locked(job)
        self._wake.set()
        if not kill and drain is None:
            # Wait (bounded) for running workers so the scheduler thread can
            # reap them and exit, instead of leaking it.
            # On the sentinels, not join(): the scheduler thread reaps these
            # processes, and a join racing its waitpid reads a dead one alive.
            waiting = self._running_procs()
            deadline = time.monotonic() + timeout
            for proc in waiting:
                connection.wait([proc.sentinel], max(0.0, deadline - time.monotonic()))
            leaked = [p for p in waiting if not connection.wait([p.sentinel], 0)]
            if leaked:
                msg = (
                    f"JobQueue.close(kill=False) timed out: {len(leaked)} worker(s)"
                    f" still running after {timeout:g} s (pids"
                    f" {[p.pid for p in leaked]}); close(kill=True) reclaims them"
                )
                _LOG.error(msg)
                raise ServiceError(msg)
        self._thread.join(timeout=10.0)
        with self._lock:
            for job in self._jobs.values():
                if job.proc is not None:
                    job.proc.join(timeout=5.0)
        if self._thread.is_alive():
            msg = "JobQueue.close() could not stop its scheduler thread"
            _LOG.error(msg)
            raise ServiceError(msg)
        self._wake.close()
        with self._lock:
            self._journal_locked("released", None)
            self._released = True
        self.lease.release()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_admitting_locked(self) -> None:
        if self._closed:
            raise ServiceError("this JobQueue is closed")
        if self._draining:
            raise DrainingError(
                "this JobQueue is draining and admits no new work; retry against"
                " the next service instance"
            )
        if self._fenced:
            raise StaleLeaseError(
                f"queue epoch {self.epoch} has been fenced by a newer queue on"
                f" {self.store.root}",
                epoch=self.epoch,
            )
        try:
            self.lease.check()
        except StaleLeaseError as exc:
            self._fence_locked(exc)
            raise

    # Backwards-compatible name (pre-drain API).
    _check_open = _check_admitting_locked

    # -- fencing & fenced-safe writes ----------------------------------------

    def _fence_locked(self, exc: StaleLeaseError) -> None:
        if self._fenced:
            return
        self._fenced = True
        _LOG.error("queue epoch %d is fenced: %s", self.epoch, exc)
        self.tracer.metrics.inc("service.fenced")
        self.tracer.instant(
            "service.fenced", rank=0, args={"epoch": self.epoch, "current": exc.current}
        )

    def _journal_locked(self, type: str, key: RunKey | None, **fields) -> bool:  # noqa: A002
        """Append a fenced journal record; on a stale lease, fence and drop."""
        if self._fenced:
            return False
        durable = fields.pop("durable", type in ("dispatched", "terminal", "recovered",
                                                 "reconciled"))
        try:
            self.journal.record(type, key, durable=durable, **fields)
            return True
        except StaleLeaseError as exc:
            self._fence_locked(exc)
            return False

    def _persist_status_locked(self, job: Job) -> bool:
        """Write ``status.json`` under our epoch; fenced writes are dropped."""
        return self._write_status_record_locked(job.key, self._status_locked(job))

    def _write_status_record_locked(self, key: RunKey, status: JobStatus) -> bool:
        if self._fenced:
            return False
        try:
            self.lease.check()
        except StaleLeaseError as exc:
            self._fence_locked(exc)
            return False
        record = status.to_dict()
        record["epoch"] = self.epoch
        self.store.write_status(key, record)
        return True

    # -- the scheduler thread ------------------------------------------------

    def _running_procs(self) -> list:
        with self._lock:
            return [
                job.proc
                for job in self._jobs.values()
                if job.state == "running" and job.proc is not None
            ]

    def _scheduler_loop(self) -> None:
        while True:
            # Sleep until something can have changed: a wake (submit, preempt,
            # recover, close) or the exit of a running worker.
            procs = self._running_procs()
            ready = connection.wait([self._wake, *(p.sentinel for p in procs)], self._poll)
            for proc in procs:
                if proc.sentinel in ready:
                    # The process is exiting: block for its status (outside the
                    # lock) rather than spin on a sentinel that stays readable.
                    proc.join(self._poll)
            self._wake.clear()
            with self._lock:
                try:
                    self._reap_locked()
                    self._watchdog_locked()
                except Exception:  # noqa: BLE001 - the scheduler must survive
                    _LOG.exception("scheduler tick failed; continuing")
                if self._closed:
                    if self._fenced or not any(
                        j.state == "running" for j in self._jobs.values()
                    ):
                        return
                    continue
                if self._draining or self._fenced:
                    continue
                try:
                    self._dispatch_locked()
                except Exception:  # noqa: BLE001
                    _LOG.exception("dispatch failed; continuing")

    def _reap_locked(self) -> None:
        for job in self._jobs.values():
            if job.state != "running" or job.proc is None or job.proc.is_alive():
                continue
            job.proc.join()
            exitcode = job.proc.exitcode
            job.proc = None
            if self._fenced:
                # The run belongs to the store's new owner now; record the
                # local truth without touching the store.
                job.state = "failed"
                job.error = (
                    f"queue epoch {self.epoch} was fenced; the run continues under"
                    " the store's current owner"
                )
                job.done_event.set()
                continue
            outcome = self.store.read_outcome(job.key)
            if outcome is not None:
                # The worker finished and said so — success or a supervisor
                # give-up, either way its word is terminal.
                job.state = "done" if outcome.get("state") == "done" else "failed"
                job.error = outcome.get("error")
                self._journal_locked("terminal", job.key, state=job.state, error=job.error)
            elif job.preempt_requested:
                job.preempt_requested = False
                reason = "drain" if job.drain_requested else "preempt"
                job.drain_requested = False
                job.state = "queued"
                self._journal_locked("preempted", job.key, reason=reason, durable=True)
                if reason == "drain":
                    self.tracer.metrics.inc("service.drain_kills")
                _LOG.info("run %s preempted (%s); requeued (free)", job.key, reason)
            elif job.requeues < job.spec.fault.max_requeues:
                reason = "stall" if job.stalled else "worker-death"
                job.stalled = False
                job.requeues += 1
                job.state = "queued"
                self._journal_locked(
                    "requeued", job.key, reason=reason, exitcode=exitcode,
                    requeues=job.requeues, durable=True,
                )
                _LOG.warning(
                    "worker for %s died (exit %s, %s) without an outcome;"
                    " requeue %d/%d from latest checkpoint",
                    job.key, exitcode, reason, job.requeues, job.spec.fault.max_requeues,
                )
            else:
                cause = "stalled past its progress watchdog" if job.stalled else "died"
                job.stalled = False
                job.state = "failed"
                job.error = (
                    f"worker {cause} (exit {exitcode}) with no outcome and the"
                    f" requeue budget ({job.spec.fault.max_requeues}) spent"
                )
                self._journal_locked("terminal", job.key, state="failed", error=job.error)
                _LOG.error("run %s failed: %s", job.key, job.error)
            self._persist_status_locked(job)
            if job.state in ("done", "failed"):
                job.done_event.set()

    def _watchdog_locked(self) -> None:
        """Kill running workers that have made no progress past their
        :attr:`~repro.parallel.spec.FaultPolicy.stall_timeout`."""
        now = time.monotonic()
        if now < self._next_watchdog:
            return
        self._next_watchdog = now + 0.25
        for job in self._jobs.values():
            stall = job.spec.fault.stall_timeout
            if stall is None or job.state != "running" or job.proc is None:
                continue
            generation = self._last_generation(job.key)
            if generation > job.last_progress_gen:
                job.last_progress_gen = generation
                job.last_progress_time = now
            elif now - job.last_progress_time > stall:
                job.stalled = True
                self._journal_locked(
                    "stalled", job.key, generation=generation, stall_timeout=stall
                )
                self.tracer.metrics.inc("service.stall_kills")
                self.tracer.instant(
                    "service.stall_kill", rank=0,
                    args={"run": str(job.key), "generation": generation},
                )
                _LOG.warning(
                    "run %s made no progress for %.1f s (generation stuck at %d);"
                    " killing the worker",
                    job.key, stall, generation,
                )
                self._kill_locked(job)

    def _dispatch_locked(self) -> None:
        while True:
            running = sum(1 for j in self._jobs.values() if j.state == "running")
            if running >= self.max_workers:
                return
            job = self._pick_locked()
            if job is None:
                return
            self._launch_locked(job)
            if self._fenced:
                return

    def _pick_locked(self) -> Job | None:
        """Fair share: fewest running wins, stalest tenant breaks ties,
        FIFO within the tenant."""
        queued = [j for j in self._jobs.values() if j.state == "queued"]
        if not queued:
            return None
        running_by_tenant: dict[str, int] = {}
        for j in self._jobs.values():
            if j.state == "running":
                running_by_tenant[j.key.tenant] = running_by_tenant.get(j.key.tenant, 0) + 1

        def rank(job: Job) -> tuple:
            tenant = job.key.tenant
            return (
                running_by_tenant.get(tenant, 0),
                self._last_served.get(tenant, -1),
                job.seq,
            )

        return min(queued, key=rank)

    def _launch_locked(self, job: Job) -> None:
        # The fence check comes BEFORE the process starts: a superseded
        # queue must never double-dispatch a run the current owner may
        # already be executing.
        try:
            self.lease.check()
        except StaleLeaseError as exc:
            self._fence_locked(exc)
            return
        # A stale outcome from a prior incarnation (none should exist, but a
        # crashed queue could leave one) must not be read as this launch's.
        (self.store.run_dir(job.key) / "outcome.json").unlink(missing_ok=True)
        proc = self._mp.Process(
            target=_child_entry,
            args=(str(self.store.root), job.key.tenant, job.key.run_id),
            name=f"repro-worker-{job.key.tenant}-{job.key.run_id}",
            daemon=False,
        )
        proc.start()
        job.proc = proc
        job.state = "running"
        job.incarnations += 1
        job.last_progress_gen = self._last_generation(job.key)
        job.last_progress_time = time.monotonic()
        self._last_served[job.key.tenant] = next(self._seq)
        self._journal_locked(
            "dispatched", job.key, pid=proc.pid, incarnation=job.incarnations
        )
        self._persist_status_locked(job)
        _LOG.info(
            "dispatched %s (pid %s, incarnation %d)", job.key, proc.pid, job.incarnations
        )
