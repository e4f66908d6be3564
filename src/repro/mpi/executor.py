"""SPMD launcher for the virtual MPI runtime.

:func:`run_spmd` is the stand-in for ``mpiexec -n P``: it spins up ``P``
threads, hands each its :class:`~repro.mpi.comm.Comm`, runs the same
function everywhere, and collects the per-rank return values.  A crash on
any rank aborts the whole world (like ``MPI_Abort``) and re-raises the first
failure in the caller, with the other ranks' blocked operations unwound via
:class:`~repro.errors.CommAbortError`.

Threads give concurrency, not parallelism (the GIL serialises pure-Python
sections) — which is exactly what a *correctness* substrate needs: identical
message-passing semantics at any rank count that fits in memory.  For true
multi-core execution pass ``backend="process"``, which delegates to
:mod:`repro.mpi.hostexec` (ranks as OS processes, same ``Comm`` API, same
results).  Modelled performance at Blue Gene scale is the job of
:mod:`repro.perf`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import CommAbortError, MPIError, RankCrashError
from repro.logging_util import get_logger
from repro.mpi.comm import Comm, World
from repro.mpi.faults import FaultInjector
from repro.obs.tracer import Tracer, activate

__all__ = ["run_spmd", "SPMDResult", "RespawnRecord"]

_LOG = get_logger("mpi.executor")

#: Keep virtual worlds to a size threads can sustain; larger scales belong
#: to the performance model.
MAX_THREAD_RANKS = 1024


@dataclass(frozen=True)
class RespawnRecord:
    """One replacement incarnation started under ``on_rank_failure="respawn"``.

    Attributes
    ----------
    rank:
        The rank that was replaced.
    incarnation:
        The replacement's incarnation number (the original rank is
        incarnation 0, its first replacement 1, and so on).
    reason:
        Why the previous incarnation was declared dead.
    """

    rank: int
    incarnation: int
    reason: str


@dataclass(frozen=True)
class SPMDResult:
    """Outcome of one SPMD execution.

    Attributes
    ----------
    returns:
        Per-rank return values, indexed by rank.  Under
        ``on_rank_failure="respawn"`` a healed rank's slot holds the value
        returned by its *latest* incarnation.
    world:
        The world the program ran in (counters remain readable).
    failed_ranks:
        Ranks still marked dead when the run finished — died to injected
        faults under ``on_rank_failure="continue"``, or died and were never
        successfully replaced under ``"respawn"`` (empty otherwise).
    respawns:
        Replacement incarnations started under ``on_rank_failure="respawn"``
        (empty otherwise); a rank may appear several times if it died
        repeatedly.
    """

    returns: list[Any]
    world: World
    failed_ranks: tuple[int, ...] = ()
    respawns: tuple[RespawnRecord, ...] = ()


def run_spmd(
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    timeout: float | None = 300.0,
    fault_injector: FaultInjector | None = None,
    on_rank_failure: str = "abort",
    tracer: Tracer | None = None,
    backend: str = "thread",
    # Accepted and ignored: the frozen bench/probes.py passes shared_memory=False;
    # a later `benchmark` issue removes the keyword together with that call.
    shared_memory: bool = True,
    max_respawns: int = 8,
    n_hosts: int = 2,
    tcp_options: Any | None = None,
) -> SPMDResult:
    """Run ``fn(comm, *args)`` on ``n_ranks`` virtual ranks and join them.

    Parameters
    ----------
    n_ranks:
        World size (1..1024; bigger scales are modelled, not executed).
    fn:
        The rank program.  Its first argument is the rank's ``Comm``.
    args:
        Extra positional arguments passed to every rank.
    timeout:
        Seconds to wait for completion before aborting the world; ``None``
        waits forever.
    fault_injector:
        Optional chaos: a :class:`~repro.mpi.faults.FaultInjector` attached
        to the world's message delivery and the ranks' ``fault_point`` calls.
    on_rank_failure:
        ``"abort"`` (default): any rank death aborts the world, like
        ``MPI_Abort``.  ``"continue"``: a rank killed by an injected fault
        (:class:`~repro.errors.RankCrashError`) is recorded in
        ``world.failed_ranks`` and the survivors keep running — the
        fault-tolerant runner's mode.  ``"respawn"`` (process and tcp backends):
        like ``"continue"``, but each dead non-zero rank is additionally
        replaced by a fresh incarnation of the same rank program on the
        same host process, which may rejoin the computation (see
        :mod:`repro.mpi.hostexec`).
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When given, every network
        operation and every instrumented phase lands on the tracer as
        per-rank timed events (each rank thread is bound to its rank, and
        the tracer is the process-active one for the duration of the run,
        so engine-level instrumentation is attributed too).  ``None``
        (default) keeps tracing off at near-zero cost.
    backend:
        ``"thread"`` (default) runs ranks as threads in this process — the
        correctness substrate.  ``"process"`` and ``"tcp"`` both delegate
        to :mod:`repro.mpi.hostexec`.  ``"process"``: one OS process per
        rank (at most 256), each with its own GIL, for real multi-core
        throughput; payloads must be picklable.  ``"tcp"``: ranks spread
        over ``n_hosts`` OS-process "hosts" talking length-prefixed frames
        over loopback TCP sockets — the multi-host substrate with
        partition-tolerant reconnection.  Rank programs that follow the
        deterministic-RNG contract produce bit-identical results under any
        backend.
    max_respawns:
        Total replacement budget under ``on_rank_failure="respawn"``
        (process and tcp backends; ignored otherwise).
    n_hosts, tcp_options:
        TCP-backend tuning: the number of host processes the ranks are
        dealt across, and a :class:`repro.mpi.tcp.TcpOptions` bundle of
        socket knobs (heartbeats, reconnect backoff, unreachability
        grace).  Ignored under the other backends.

    Raises
    ------
    The first rank exception, re-raised in the caller, or
    :class:`~repro.errors.MPIError` on timeout.
    """
    if backend in ("process", "tcp"):
        from repro.mpi.hostexec import _launch

        return _launch(
            backend, n_ranks, fn, args, timeout, fault_injector,
            on_rank_failure, tracer, n_hosts, tcp_options, max_respawns,
        )
    if backend != "thread":
        raise MPIError(f"backend must be 'thread', 'process' or 'tcp', got {backend!r}")
    if not 1 <= n_ranks <= MAX_THREAD_RANKS:
        raise MPIError(f"n_ranks must be in [1, {MAX_THREAD_RANKS}], got {n_ranks}")
    if on_rank_failure == "respawn":
        raise MPIError(
            "on_rank_failure='respawn' needs real processes to replace —"
            " use backend='process'"
        )
    if on_rank_failure not in ("abort", "continue"):
        raise MPIError(f"on_rank_failure must be 'abort' or 'continue', got {on_rank_failure!r}")
    world = World(n_ranks, injector=fault_injector, tracer=tracer)
    returns: dict[int, Any] = {}
    failures: list[tuple[int, BaseException]] = []
    failures_lock = threading.Lock()
    if tracer is not None and tracer.enabled:
        named = tracer.rank_names()
        for rank in range(n_ranks):
            if rank not in named:
                tracer.name_rank(rank, f"rank {rank}")

    def run_rank(rank: int) -> None:
        comm = world.comm(rank)
        if tracer is not None and tracer.enabled:
            tracer.set_rank(rank)
        try:
            value = fn(comm, *args)
            with failures_lock:
                returns[rank] = value
        except CommAbortError:
            # Secondary casualty of another rank's failure; keep quiet.
            pass
        except RankCrashError as exc:
            if on_rank_failure == "continue":
                # Injected death: this rank is gone, the job survives.
                _LOG.debug("rank %d died to injected fault: %r", rank, exc)
                world.mark_failed(rank, str(exc))
            else:
                with failures_lock:
                    failures.append((rank, exc))
                world.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
        except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
            with failures_lock:
                failures.append((rank, exc))
            _LOG.debug("rank %d failed: %r", rank, exc)
            world.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")

    threads: list[threading.Thread] = []
    threads_lock = threading.Lock()

    def _launch(rank: int) -> None:
        t = threading.Thread(
            target=run_rank, args=(rank,), name=f"vmpi-rank-{rank}", daemon=True
        )
        with threads_lock:
            threads.append(t)
        t.start()

    def _spawn_joiners(new_ranks: tuple[int, ...]) -> None:
        # World.grow() landed: give each new rank its own thread running the
        # same program (it will detect joiner status and rejoin).
        if tracer is not None and tracer.enabled:
            for rank in new_ranks:
                if rank not in tracer.rank_names():
                    tracer.name_rank(rank, f"rank {rank}")
        for rank in new_ranks:
            _launch(rank)

    world.spawn_hook = _spawn_joiners
    deadline = None if timeout is None else time.monotonic() + timeout
    # While the world runs, the run's tracer is also the process-active one,
    # so rank-agnostic instrumentation (the game engines) reaches it.
    scope = activate(tracer) if tracer is not None else nullcontext()
    with scope:
        for rank in range(n_ranks):
            _launch(rank)
        # The thread list can grow mid-run (World.grow spawns joiners), so
        # the join loop polls a snapshot instead of iterating once.
        while True:
            with threads_lock:
                snapshot = list(threads)
            if not any(t.is_alive() for t in snapshot):
                with threads_lock:
                    if len(threads) == len(snapshot):
                        break
                continue  # a joiner raced in; re-snapshot
            if deadline is not None and time.monotonic() >= deadline:
                world.abort("executor timeout")
                for t in snapshot:
                    t.join(timeout=5.0)
                raise MPIError(f"SPMD program timed out after {timeout} s")
            time.sleep(0.01)

    if failures:
        failures.sort(key=lambda item: item[0])
        rank, exc = failures[0]
        raise exc
    if world.abort_event.is_set():
        # A rank called abort() deliberately (no other exception to blame):
        # surface it — like MPI_Abort, the job did not complete normally.
        raise CommAbortError(world.abort_reason or "world aborted")
    return SPMDResult(
        returns=[returns.get(rank) for rank in range(world.size)],
        world=world,
        failed_ranks=tuple(sorted(world.failed_ranks)),
    )
