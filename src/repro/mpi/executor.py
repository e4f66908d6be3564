"""SPMD launcher for the virtual MPI runtime.

:func:`run_spmd` is the stand-in for ``mpiexec -n P``: it runs the same
function on ``P`` ranks, each holding its :class:`~repro.mpi.comm.Comm`,
and collects the per-rank return values.  A crash on any rank aborts the
whole world (like ``MPI_Abort``) and re-raises the first failure in the
caller, with the other ranks' blocked operations unwound via
:class:`~repro.errors.CommAbortError`.

This module validates the arguments and defines the result types; the one
launcher behind every backend is :mod:`repro.mpi.hostexec`.  The default
``backend="thread"`` keeps every rank a thread of the calling process:
concurrency, not parallelism (the GIL serialises pure-Python sections) —
which is exactly what a *correctness* substrate needs: identical
message-passing semantics at any rank count that fits in memory, with
nothing pickled.  For true multi-core execution pass ``backend="process"``
or ``backend="tcp"`` (ranks in OS processes, same ``Comm`` API, same
results).  Modelled performance at Blue Gene scale is the job of
:mod:`repro.perf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import MPIError
from repro.mpi.comm import World
from repro.mpi.faults import FaultInjector
from repro.mpi.hostexec import MAX_PROCESS_RANKS, MAX_TCP_HOSTS, MAX_TCP_RANKS, _launch
from repro.obs.tracer import Tracer

__all__ = ["run_spmd", "check_world", "SPMDResult", "RespawnRecord"]

#: Keep virtual worlds to a size threads can sustain; larger scales belong
#: to the performance model.
MAX_THREAD_RANKS = 1024

_MAX_RANKS = {
    "thread": MAX_THREAD_RANKS, "process": MAX_PROCESS_RANKS, "tcp": MAX_TCP_RANKS
}


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
        The launcher's own :class:`~repro.mpi.comm.World`: the record of
        the job it kept while the program ran (size, failed marks, abort
        state, merged counters).
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


def check_world(
    n_ranks: int,
    backend: str = "thread",
    on_rank_failure: str = "abort",
    max_respawns: int = 8,
    n_hosts: int = 2,
) -> None:
    """Raise :class:`~repro.errors.MPIError` unless :func:`run_spmd` can launch this world.

    The arguments mean what they mean to :func:`run_spmd`.  A caller that
    may end up launching a smaller world (a lazy
    :class:`~repro.parallel.runner.ParallelSimulation` runs Nature alone)
    calls it with the world it was asked for, so the same worlds fail.
    """
    if backend not in _MAX_RANKS:
        raise MPIError(f"backend must be 'thread', 'process' or 'tcp', got {backend!r}")
    if not 1 <= n_ranks <= _MAX_RANKS[backend]:
        raise MPIError(f"n_ranks must be in [1, {_MAX_RANKS[backend]}], got {n_ranks}")
    if on_rank_failure not in ("abort", "continue", "respawn"):
        raise MPIError(
            "on_rank_failure must be 'abort', 'continue' or 'respawn',"
            f" got {on_rank_failure!r}"
        )
    if backend == "thread" and on_rank_failure == "respawn":
        raise MPIError(
            "on_rank_failure='respawn' needs real processes to replace —"
            " use backend='process' or backend='tcp'"
        )
    if max_respawns < 0:
        raise MPIError(f"max_respawns must be >= 0, got {max_respawns}")
    if backend == "tcp" and not 1 <= n_hosts <= MAX_TCP_HOSTS:
        raise MPIError(f"n_hosts must be in [1, {MAX_TCP_HOSTS}], got {n_hosts}")


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
        same host process (``comm.incarnation`` counts them), which may
        rejoin the computation (see :mod:`repro.mpi.hostexec`).
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When given, every network
        operation and every instrumented phase lands on the tracer as
        per-rank timed events (each rank thread is bound to its rank, and
        a host's tracer is the process-active one while its ranks run, so
        engine-level instrumentation is attributed too; hosts in other
        processes ship their events back at the end).  ``None``
        (default) keeps tracing off at near-zero cost.
    backend:
        Where the ranks' hosts live; the launcher, the ``Comm`` API and the
        result are the same for all three (:mod:`repro.mpi.hostexec`).
        ``"thread"`` (default): every rank a thread of this process — the
        correctness substrate; nothing is pickled, so closures, live
        objects and unpicklable return values are fine.  ``"process"`` and
        ``"tcp"``: ranks in OS-process "hosts" talking length-prefixed
        frames over loopback TCP sockets, with partition-tolerant
        reconnection — one host per rank under ``"process"`` (at most 256,
        each with its own GIL, for real multi-core throughput), ``n_hosts``
        hosts under ``"tcp"``.  Payloads that cross a host must be
        picklable; one that is not raises :class:`~repro.errors.MPIError`
        at the send.  Rank programs that follow the deterministic-RNG
        contract produce bit-identical results under any backend.
    max_respawns:
        Total replacement budget under ``on_rank_failure="respawn"``
        (process and tcp backends; ignored otherwise).
    n_hosts:
        The number of host processes the TCP backend deals the ranks
        across.  Ignored under the other backends.

    Raises
    ------
    The first rank exception, re-raised in the caller, or
    :class:`~repro.errors.MPIError` on timeout.
    """
    check_world(n_ranks, backend, on_rank_failure, max_respawns, n_hosts)
    return _launch(
        backend, n_ranks, fn, tuple(args), timeout, fault_injector,
        on_rank_failure, tracer, n_hosts, max_respawns,
    )
