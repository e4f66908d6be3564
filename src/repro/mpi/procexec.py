"""Process-based SPMD executor: ranks as OS processes, true multi-core play.

The thread executor (:mod:`repro.mpi.executor`) is the *correctness*
substrate — faithful message-passing semantics at any rank count, but the
GIL serialises pure-Python sections, so game play gains no wall-clock
parallelism.  This module is the *throughput* substrate: the same rank
programs, the same :class:`~repro.mpi.comm.Comm` API (tagged p2p,
collectives, reliable delivery, timeouts, fault points), but every rank is
a real operating-system process with its own interpreter and its own GIL.

Transport
---------
Each rank owns one :class:`multiprocessing.Queue` as its inbound wire.  A
rank's :class:`~repro.mpi.comm.Comm` sees a world whose remote mailboxes
pickle ``(source, tag, payload, nbytes, msg_id)`` frames onto the
destination's queue; a pump thread in the destination process drains its
queue into a regular in-process :class:`~repro.mpi.comm._Mailbox`, so tag
matching, wildcards, timeouts and non-overtaking order are byte-for-byte
the thread backend's logic.  Abort, shutdown and failed-rank state live in
shared memory (:class:`multiprocessing.Event` plus a flag array), which
blocked receives already poll.

Unlike the thread backend's zero-copy network, every payload crosses a
process boundary by value: payloads must be picklable, and senders get a
private copy semantics for free (mutating a buffer after ``send`` cannot
corrupt the message).

Determinism
-----------
Rank programs that derive all randomness from their rank and seed (the
:class:`~repro.rng.StreamFactory` contract) produce bit-identical results
under either backend — the backend-parity tests assert identical
population trajectories from :class:`~repro.parallel.runner.ParallelSimulation`.
Fault injection stays deterministic too: each process evaluates the same
pure ``(seed, kind, key)`` hash schedule against its own send counter, and
the fired-fault logs are merged back into the caller's injector.  Under
``on_rank_failure="continue"`` an injected ``crash``/``hang`` kills the
*process* (a real ``os._exit``), which is exactly the failure mode the
fault-tolerant runner is built to survive.

Respawn
-------
``on_rank_failure="respawn"`` goes one step further than ``"continue"``:
when a non-zero rank's process dies (injected crash, SIGKILL, a hang the
protocol layer declared dead), the parent launches a *replacement
incarnation* — a fresh process running the same rank program with
``world.incarnation`` incremented, on a **fresh inbound queue**.  The fresh
queue matters twice over: a process killed while blocked in
``Queue.get`` can leave the queue's reader lock held (poisoning it for any
successor), and the old queue may hold frames addressed to the dead
incarnation.  The parent therefore pre-creates spare queues and retargets
the rank via a shared ``queue_index`` array that senders consult on every
delivery.  What a replacement *does* is the rank program's business: the
fault-tolerant runner's workers see ``incarnation > 0`` and perform a
rejoin handshake with the Nature rank instead of starting from scratch.
Replacements are budgeted by ``max_respawns``; a rank that cannot be
replaced stays degraded exactly as under ``"continue"``.

Observability
-------------
When a tracer is passed, every rank process records into a private tracer
sharing the parent's clock epoch and a rank-striped flow-id space; the
per-process buffers are shipped back with the rank results and merged into
the caller's tracer, so one Perfetto export shows all rank tracks with
send→recv arrows intact.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as stdlib_queue
import threading
import time
from typing import Any, Callable, Sequence

from repro.errors import CommAbortError, MPIError, RankCrashError
from repro.logging_util import get_logger
from repro.mpi.comm import Comm, World, _Mailbox
from repro.mpi.counters import CommCounters
from repro.mpi.executor import RespawnRecord, SPMDResult
from repro.mpi.faults import FaultInjector, FaultPlan
from repro.obs.tracer import NULL_TRACER, Tracer, activate

__all__ = ["run_spmd_process", "MAX_PROCESS_RANKS"]

_LOG = get_logger("mpi.procexec")

#: OS processes are far heavier than threads; virtual worlds beyond this
#: belong to the thread backend or the performance model.
MAX_PROCESS_RANKS = 256

#: Exit code of a rank process killed by an injected fault under
#: ``on_rank_failure="continue"`` — a deliberate, recognisable process death.
_CRASH_EXIT = 70

#: Extra seconds granted after the deadline for result-queue stragglers.
_DRAIN_GRACE = 0.5

#: How long a rank reported failed (e.g. declared hung by the protocol
#: layer) may stay alive before the respawn path terminates its process.
_RESPAWN_HANG_GRACE = 1.0


class _RemoteMailbox:
    """A peer rank's mailbox as seen from this process: deliver-only.

    Frames are pre-pickled *in the sending thread*, so an unpicklable
    payload raises in the sender (where the bug is) instead of killing the
    queue's feeder thread asynchronously.

    The destination's physical queue is resolved *per delivery* through the
    shared ``queue_index`` array: when a rank is respawned onto a spare
    queue, in-flight senders immediately address the replacement's wire and
    the dead incarnation's (possibly lock-poisoned) queue is abandoned.
    """

    __slots__ = ("_dest", "_queues", "_index")

    def __init__(self, dest: int, queues, index) -> None:
        self._dest = dest
        self._queues = queues
        self._index = index

    def deliver(
        self, source: int, tag: int, payload: Any, nbytes: int, msg_id: int = 0
    ) -> None:
        try:
            frame = pickle.dumps(
                (source, tag, payload, nbytes, msg_id), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception as exc:
            raise MPIError(
                f"payload for tag={tag} is not picklable, which the process"
                f" backend requires: {exc!r}"
            ) from exc
        self._queues[self._index[self._dest]].put(frame)


#: Sentinel frame that stops a pump thread.
_PUMP_STOP = b""


def _pump(queue, mailbox: _Mailbox) -> None:
    """Drain one rank's inbound queue into its in-process mailbox."""
    while True:
        frame = queue.get()
        if frame == _PUMP_STOP:
            return
        mailbox.deliver(*pickle.loads(frame))


class _KillSafeEvent:
    """Event over a lock-free shared byte: survives waiters dying mid-wait.

    ``multiprocessing.Event`` hides a condition variable whose sleeper
    bookkeeping a killed waiter corrupts permanently: ``set()`` then blocks
    forever waiting for the dead process to acknowledge its wakeup.  Under
    ``on_rank_failure="respawn"`` hung ranks are terminated while blocked on
    exactly these events (``fault_point``'s hang loop sleeps on the stop
    event), so the process world signals stop/abort through a raw shared
    byte and waiters poll it — no cross-process locks to poison.
    """

    _POLL = 0.02

    def __init__(self, ctx) -> None:
        self._flag = ctx.Value("b", 0, lock=False)

    def is_set(self) -> bool:
        return bool(self._flag.value)

    def set(self) -> None:
        self._flag.value = 1

    def wait(self, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._flag.value:
            pause = self._POLL
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    return False
                pause = min(pause, remaining)
            time.sleep(pause)
        return True


class _SharedState:
    """The cross-process slice of world state (picklable, spawn-safe)."""

    def __init__(self, ctx, size: int) -> None:
        self.abort_event = _KillSafeEvent(ctx)
        self.stop_event = _KillSafeEvent(ctx)
        self.failed_flags = ctx.Array("b", size, lock=False)
        self.abort_reason_buf = ctx.Array("c", 1024)
        # queue_index[r] is the slot (into the run's queue list) currently
        # serving as rank r's inbound wire; respawn retargets it to a spare.
        self.queue_index = ctx.Array("i", list(range(size)), lock=False)


class _ProcWorld:
    """One rank process's view of the world — duck-types :class:`World`.

    Everything :class:`~repro.mpi.comm.Comm` and the rank programs touch is
    here: local mailbox + remote deliver-only mailboxes, per-process
    counters/tracer/injector, and the shared abort/stop/failure state.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        queues,
        shared: _SharedState,
        result_queue,
        injector: FaultInjector | None,
        tracer: Tracer,
        incarnation: int = 0,
    ) -> None:
        self.rank = rank
        self.size = size
        #: 0 for an original rank process; respawned replacements count up.
        #: Rank programs use this to tell a cold start from a rejoin.
        self.incarnation = incarnation
        self.counters = CommCounters()
        self.tracer = tracer
        self.injector = injector
        self._shared = shared
        self._result_queue = result_queue
        self.abort_event = shared.abort_event
        self.stop_event = shared.stop_event
        self.local_mailbox = _Mailbox()
        self.mailboxes: list[Any] = [
            self.local_mailbox
            if r == rank
            else _RemoteMailbox(r, queues, shared.queue_index)
            for r in range(size)
        ]

    @property
    def abort_reason(self) -> str | None:
        raw = self._shared.abort_reason_buf.value
        return raw.decode("utf-8", "replace") if raw else None

    def abort(self, reason: str) -> None:
        """Poison the world: every blocked or future operation raises."""
        buf = self._shared.abort_reason_buf
        with buf.get_lock():
            if not buf.value:
                buf.value = reason.encode("utf-8", "replace")[:1023]
        self.abort_event.set()
        self._wake_local()

    def shutdown(self) -> None:
        """Gracefully end the job: wake hung/blocked ranks without poisoning."""
        self.stop_event.set()
        self._wake_local()

    def mark_failed(self, rank: int, reason: str = "") -> None:
        """Record ``rank`` as dead; receivers waiting on it fail fast.

        Idempotent: once the flag is set, further declarations are silent —
        the parent hears about each death exactly once, so a Nature-side
        re-declaration cannot make the respawn path suspect a (by then
        healthy) replacement.
        """
        if self._shared.failed_flags[rank]:
            self._wake_local()
            return
        self._shared.failed_flags[rank] = 1
        self._result_queue.put(("failed", rank, reason))
        self._wake_local()

    def mark_alive(self, rank: int) -> None:
        """Clear ``rank``'s failed flag: a replacement incarnation rejoined."""
        self._shared.failed_flags[rank] = 0
        self._wake_local()

    def is_failed(self, rank: int) -> bool:
        """Whether ``rank`` has been marked dead (shared across processes)."""
        return bool(self._shared.failed_flags[rank])

    def is_unreachable(self, rank: int) -> bool:
        """Queues between local processes never partition."""
        return False

    def grow(self, n: int) -> tuple[int, ...]:
        raise MPIError(
            "the process backend cannot grow mid-run: its queue fabric is"
            " sized at launch — use backend='thread' or backend='tcp' for"
            " elastic membership"
        )

    def shrink(self, ranks) -> tuple[int, ...]:
        raise MPIError(
            "the process backend cannot shrink mid-run: use backend='thread'"
            " or backend='tcp' for elastic membership"
        )

    def _wake_local(self) -> None:
        with self.local_mailbox.lock:
            self.local_mailbox.ready.notify_all()


def _ship(result_queue, message: tuple) -> None:
    """Put a control message and make a best effort to flush it."""
    try:
        result_queue.put(message)
    except Exception:  # pragma: no cover - the parent will see a hard death
        _LOG.exception("rank result could not be shipped")


def _rank_main(
    rank: int,
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any],
    queues,
    shared: _SharedState,
    result_queue,
    fault_plan: FaultPlan | None,
    on_rank_failure: str,
    trace_epoch: float | None,
    rank_name: str | None,
    flow_start: int,
    incarnation: int = 0,
) -> None:
    """Entry point of one rank process (module-level for spawn support)."""
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    tracing = trace_epoch is not None
    tracer = (
        Tracer(epoch=trace_epoch, flow_start=flow_start) if tracing else None
    )
    world = _ProcWorld(
        rank, n_ranks, queues, shared, result_queue,
        injector, tracer if tracer is not None else NULL_TRACER,
        incarnation=incarnation,
    )
    # The queue slot serving this rank is fixed for this incarnation's
    # lifetime (the parent only retargets it after the process dies).
    pump = threading.Thread(
        target=_pump,
        args=(queues[shared.queue_index[rank]], world.local_mailbox),
        name=f"vmpi-pump-{rank}",
        daemon=True,
    )
    pump.start()
    comm = Comm(world, rank)
    if tracer is not None:
        tracer.set_rank(rank)
        if rank_name:
            tracer.name_rank(rank, rank_name)

    def _epilogue() -> tuple[dict, list, list]:
        counters = world.counters.snapshot()
        fault_log = list(injector.log) if injector is not None else []
        events = tracer.events() if tracer is not None else []
        return counters, fault_log, events

    scope = activate(tracer) if tracer is not None else None
    try:
        if scope is not None:
            scope.__enter__()
        try:
            value = fn(comm, *args)
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)
    except CommAbortError:
        # Secondary casualty of another rank's failure; keep quiet.
        counters, fault_log, events = _epilogue()
        _ship(result_queue, ("quiet", rank, incarnation, None, counters, fault_log, events))
    except RankCrashError as exc:
        counters, fault_log, events = _epilogue()
        if on_rank_failure in ("continue", "respawn"):
            # Injected death becomes real death: mark the rank failed in
            # shared memory (survivors' receives fail fast), ship the
            # bookkeeping, then kill the process for real.
            _LOG.debug("rank %d dying to injected fault: %r", rank, exc)
            world.mark_failed(rank, str(exc))
            _ship(
                result_queue,
                ("selfdead", rank, incarnation, str(exc), counters, fault_log, events),
            )
            result_queue.close()
            result_queue.join_thread()
            os._exit(_CRASH_EXIT)
        world.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
        _ship(
            result_queue,
            ("err", rank, incarnation, _pickle_exc(exc), counters, fault_log, events),
        )
    except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
        _LOG.debug("rank %d failed: %r", rank, exc)
        counters, fault_log, events = _epilogue()
        world.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
        _ship(
            result_queue,
            ("err", rank, incarnation, _pickle_exc(exc), counters, fault_log, events),
        )
    else:
        counters, fault_log, events = _epilogue()
        try:
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            err = MPIError(f"rank {rank} returned an unpicklable value: {exc!r}")
            world.abort(str(err))
            _ship(
                result_queue,
                ("err", rank, incarnation, _pickle_exc(err), counters, fault_log, events),
            )
        else:
            _ship(
                result_queue,
                ("done", rank, incarnation, value, counters, fault_log, events),
            )
    result_queue.close()
    result_queue.join_thread()


def _pickle_exc(exc: BaseException) -> bytes:
    """Exception as a pickle blob, degraded to ``MPIError(repr)`` if needed."""
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(
            MPIError(f"unpicklable rank exception: {exc!r}"),
            protocol=pickle.HIGHEST_PROTOCOL,
        )


def _pick_context(start_method: str | None):
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    # fork keeps closures and non-module functions working and starts far
    # faster; spawn is the portable fallback.
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_spmd_process(
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    timeout: float | None = 300.0,
    fault_injector: FaultInjector | None = None,
    on_rank_failure: str = "abort",
    tracer: Tracer | None = None,
    start_method: str | None = None,
    max_respawns: int = 8,
) -> SPMDResult:
    """Run ``fn(comm, *args)`` on ``n_ranks`` OS processes and join them.

    The process-backend twin of :func:`repro.mpi.executor.run_spmd` — same
    parameters, same :class:`~repro.mpi.executor.SPMDResult`, same abort /
    timeout / ``on_rank_failure`` semantics — plus ``start_method`` to force
    a :mod:`multiprocessing` start method (default: ``fork`` when available,
    else ``spawn``; under ``spawn`` the rank program, its arguments and all
    payloads must be picklable, and the rank program must be importable at
    module level).

    ``on_rank_failure="respawn"`` extends ``"continue"``: each non-zero
    rank whose process dies is replaced by a fresh incarnation on a fresh
    inbound queue (see the module docstring), up to ``max_respawns``
    replacements per run.  Rank 0 is never respawned — a dead master is the
    supervisor layer's problem (checkpoint/restart), not the executor's.

    Returns an :class:`SPMDResult` whose ``world`` is a parent-side
    :class:`~repro.mpi.comm.World` container holding the merged traffic
    counters and failure records of all rank processes.
    """
    if not 1 <= n_ranks <= MAX_PROCESS_RANKS:
        raise MPIError(f"n_ranks must be in [1, {MAX_PROCESS_RANKS}], got {n_ranks}")
    if on_rank_failure not in ("abort", "continue", "respawn"):
        raise MPIError(
            "on_rank_failure must be 'abort', 'continue' or 'respawn',"
            f" got {on_rank_failure!r}"
        )
    respawning = on_rank_failure == "respawn"
    if max_respawns < 0:
        raise MPIError(f"max_respawns must be >= 0, got {max_respawns}")
    ctx = _pick_context(start_method)
    tracing = tracer is not None and tracer.enabled
    if tracing:
        named = tracer.rank_names()
        for rank in range(n_ranks):
            if rank not in named:
                tracer.name_rank(rank, f"rank {rank}")
    rank_names = tracer.rank_names() if tracing else {}

    # Respawn needs a fresh wire per replacement (a process killed inside
    # Queue.get can leave the reader lock held, and the old queue may hold
    # frames addressed to the dead incarnation), so spare queues are created
    # up front — multiprocessing queues cannot be minted after the children
    # exist under the spawn start method.
    n_spares = max_respawns if respawning else 0
    queues = [ctx.Queue() for _ in range(n_ranks + n_spares)]
    result_queue = ctx.Queue()
    shared = _SharedState(ctx, n_ranks)
    fault_plan = fault_injector.plan if fault_injector is not None else None
    # Stripes are reserved from the parent tracer (never reused across runs),
    # so per-process flow ids stay globally unique even when one tracer
    # accumulates several executor runs (restarts, resumed simulations) —
    # and respawned incarnations reserve a fresh stripe of their own.
    incarnations = [0] * n_ranks
    next_spare = n_ranks
    respawn_log: list[RespawnRecord] = []

    def _spawn(rank: int, incarnation: int):
        proc = ctx.Process(
            target=_rank_main,
            args=(
                rank, n_ranks, fn, tuple(args), queues, shared, result_queue,
                fault_plan, on_rank_failure,
                tracer.epoch if tracing else None,
                rank_names.get(rank),
                tracer.reserve_flow_stripe() if tracing else 0,
                incarnation,
            ),
            name=f"vmpi-rank-{rank}" if incarnation == 0 else f"vmpi-rank-{rank}.{incarnation}",
            daemon=True,
        )
        proc.start()
        return proc

    processes = [_spawn(rank, 0) for rank in range(n_ranks)]

    returns: list[Any] = [None] * n_ranks
    failures: list[tuple[int, BaseException]] = []
    failure_reasons: dict[int, str] = {}
    merged_counters = CommCounters()
    merged_faults: list = []
    merged_events: list = []
    pending = set(range(n_ranks))
    dead_since: dict[int, float] = {}
    # Ranks reported failed (e.g. declared hung by the protocol layer) whose
    # process is still alive: terminated for respawn after a grace period,
    # unless the report turns out stale (flag cleared by a heal).
    suspects: dict[int, float] = {}
    deadline = None if timeout is None else time.monotonic() + timeout
    timed_out = False

    def _respawn(rank: int, reason: str) -> bool:
        """Replace ``rank``'s dead process; False when out of budget."""
        nonlocal next_spare
        if rank == 0 or next_spare >= len(queues):
            return False
        proc = processes[rank]
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - last-resort cleanup
            proc.kill()
            proc.join(timeout=5.0)
        shared.queue_index[rank] = next_spare
        next_spare += 1
        incarnations[rank] += 1
        record = RespawnRecord(rank=rank, incarnation=incarnations[rank], reason=reason)
        respawn_log.append(record)
        merged_counters.record("respawn", messages=0, nbytes=0)
        if tracing:
            tracer.instant(
                "respawn", cat="mpi.fault", rank=rank,
                args={"incarnation": incarnations[rank], "reason": reason},
            )
        suspects.pop(rank, None)
        dead_since.pop(rank, None)
        _LOG.debug("respawning rank %d as incarnation %d (%s)", rank, incarnations[rank], reason)
        processes[rank] = _spawn(rank, incarnations[rank])
        pending.add(rank)
        return True

    def _consume(message) -> None:
        kind, rank = message[0], message[1]
        if kind == "failed":
            failure_reasons.setdefault(rank, message[2])
            if respawning and rank != 0:
                suspects.setdefault(rank, time.monotonic())
            return
        _kind, _rank, incarnation, payload, counters, fault_log, events = message
        merged_counters.absorb(counters)
        merged_faults.extend(fault_log)
        merged_events.extend(events)
        if incarnation != incarnations[rank]:
            # A stale incarnation's parting words: keep the bookkeeping
            # (counters, fault log, trace events), ignore the verdict —
            # the replacement owns this rank's slot now.
            return
        if kind == "done":
            returns[rank] = payload
            if incarnation > 0:
                # A replacement ran its program to completion: whatever the
                # rank program's own recovery protocol did, the rank is not
                # failed anymore.  (The FT runner's rejoin handshake usually
                # cleared the flag already; this covers raw rank programs.)
                shared.failed_flags[rank] = 0
        elif kind == "err":
            failures.append((rank, pickle.loads(payload)))
        elif kind == "selfdead":
            failure_reasons.setdefault(rank, payload)
            if respawning:
                if rank == 0:
                    # Nature cannot be respawned: surface the death as a
                    # failure so the supervisor layer can restart the run.
                    failures.append(
                        (0, MPIError(f"the Nature rank (0) died and cannot be respawned:"
                                     f" {payload}"))
                    )
                    shared.abort_event.set()
                else:
                    # Keep the rank pending: the death sweep below respawns
                    # it once the process object reports an exit code.
                    return
        pending.discard(rank)
        dead_since.pop(rank, None)

    while pending:
        try:
            message = result_queue.get(timeout=0.05)
        except stdlib_queue.Empty:
            message = None
        if message is not None:
            _consume(message)
            continue
        now = time.monotonic()
        for rank in sorted(pending):
            proc = processes[rank]
            if proc.is_alive() or proc.exitcode is None:
                if respawning and rank in suspects:
                    if not shared.failed_flags[rank]:
                        suspects.pop(rank, None)  # healed: the report was stale
                    elif now - suspects[rank] >= _RESPAWN_HANG_GRACE:
                        # Declared dead but the process lives (injected
                        # hang): kill it so the sweep can respawn it.  Only
                        # ever reached for ranks flagged failed, so a
                        # healthy replacement is never terminated.
                        _LOG.debug("terminating hung rank %d for respawn", rank)
                        suspects.pop(rank, None)
                        proc.terminate()
                continue
            # Dead without a report: give queue stragglers a short grace,
            # then classify the death from the exit code alone.  A death
            # already reported via selfdead needs no grace.
            first_seen = dead_since.setdefault(rank, now)
            if now - first_seen < _DRAIN_GRACE and rank not in failure_reasons:
                continue
            pending.discard(rank)
            if proc.exitcode == 0:
                continue  # reported result already consumed or rank was quiet
            if respawning and rank != 0:
                shared.failed_flags[rank] = 1
                reason = failure_reasons.setdefault(
                    rank, f"rank process died with exit code {proc.exitcode}"
                )
                if not _respawn(rank, reason):
                    _LOG.debug("respawn budget exhausted; rank %d stays degraded", rank)
                continue
            if proc.exitcode == _CRASH_EXIT and on_rank_failure == "continue":
                shared.failed_flags[rank] = 1
                failure_reasons.setdefault(rank, "rank process died to an injected fault")
            else:
                exc = MPIError(f"rank {rank} process died with exit code {proc.exitcode}")
                failures.append((rank, exc))
                shared.abort_event.set()
        if deadline is not None and now >= deadline:
            timed_out = True
            break

    if timed_out:
        buf = shared.abort_reason_buf
        with buf.get_lock():
            if not buf.value:
                buf.value = b"executor timeout"
        shared.abort_event.set()
        for proc in processes:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
    for proc in processes:
        proc.join(timeout=10.0)
        if proc.is_alive():  # pragma: no cover - last-resort cleanup
            proc.terminate()
            proc.join(timeout=5.0)
    # Late reports (e.g. results racing the deadline) still carry counters.
    while True:
        try:
            _consume(result_queue.get_nowait())
        except stdlib_queue.Empty:
            break
    for queue in queues:
        queue.cancel_join_thread()
        queue.close()
    result_queue.cancel_join_thread()
    result_queue.close()

    if fault_injector is not None and merged_faults:
        with fault_injector._lock:
            fault_injector.log.extend(merged_faults)
    if tracing and merged_events:
        tracer.absorb_events(merged_events)

    world = World(n_ranks, injector=fault_injector, tracer=tracer)
    world.counters.absorb(merged_counters.snapshot())
    failed = {r for r in range(n_ranks) if shared.failed_flags[r]}
    for rank in sorted(failed):
        world.failed_ranks.add(rank)
        world.failure_reasons.setdefault(rank, failure_reasons.get(rank, ""))
    if shared.abort_event.is_set():
        world.abort_event.set()
        world.abort_reason = shared.abort_reason_buf.value.decode("utf-8", "replace") or None

    if timed_out:
        raise MPIError(f"SPMD program timed out after {timeout} s")
    if failures:
        failures.sort(key=lambda item: item[0])
        _rank, exc = failures[0]
        raise exc
    if world.abort_event.is_set():
        raise CommAbortError(world.abort_reason or "world aborted")
    return SPMDResult(
        returns=returns,
        world=world,
        failed_ranks=tuple(sorted(failed)),
        respawns=tuple(respawn_log),
    )
