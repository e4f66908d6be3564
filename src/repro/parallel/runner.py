"""The parallel algorithm: Nature rank plus worker ranks over virtual MPI.

This is the paper's §V implementation, expressed on the virtual runtime:

* rank 0 is the **Nature Agent** — it owns the random decision streams and
  announces everything it settles, one frame per window, to every live
  worker over a reliable point-to-point star (the paper's collective tree and
  fitness returns are what :mod:`repro.perf` prices).  Every PC's fitness
  comes from Nature's own replica, so only the cap, the checkpoint cadence
  and the last generation end a window, and a report is a bare heartbeat;
* ranks 1..P-1 are **workers** — each owns a block of SSets
  (:class:`~repro.parallel.decomposition.SSetDecomposition`), keeps a full
  replica of the global strategy view (the paper's per-node "local view of
  the strategy space"), plays its SSets' slates every generation, and
  replays every window's events in order.  Workers exist only to play those
  slates, so only an eager run launches them: any other run is a world of
  one, Nature alone — the same program with nobody to tell.

One program carries every run — lazy, eager, faulted, checkpointed and
resumed; :meth:`ParallelSimulation.run` alone decides how big its world is.
Because every rank derives its randomness from the same
:class:`~repro.rng.StreamFactory` keys as the serial driver, a parallel run
produces a population trajectory *bit-identical* to
:class:`~repro.population.dynamics.EvolutionDriver` at any rank count — the
integration tests assert this, which is the strongest correctness statement
the reproduction makes.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.config import SimulationConfig
from repro.errors import MPIError, RankCrashError, RankFailedError, RecvTimeoutError
from repro.game.bitpack import PackedMatrix
from repro.io.checkpoints import (
    ParallelCheckpoint,
    latest_valid_parallel_checkpoint,
    load_parallel_checkpoint,
    save_parallel_checkpoint,
    write_torn_parallel_checkpoint,
)
from repro.mpi.comm import ANY_SOURCE, Comm
from repro.mpi.counters import OpCount
from repro.mpi.executor import RespawnRecord, check_world, run_spmd
from repro.mpi.faults import FaultInjector, FaultPlan, FaultRecord
from repro.parallel.decomposition import owner_map_with_failures
from repro.parallel.protocol import (
    TAG_CONTROL,
    TAG_HELLO,
    TAG_RECOVERY,
    TAG_REPORT,
    DegradationEvent,
    FTFinal,
    FTHeader,
    FTHello,
    FTRejoin,
    FTShutdown,
    RecoveryEvent,
    WorkerReport,
)
from repro.obs.tracer import Tracer
from repro.population.dynamics import EvolutionDriver
from repro.population.fitness import FitnessEvaluator
from repro.population.nature import MutationSelection
from repro.population.population import Population
from repro.rng import StreamFactory

__all__ = ["ParallelSimulation", "ParallelRunResult"]

#: Most generations one frame closes: at ``pc_rate`` 0 a 10^6-generation run
#: must not become one frame of 50 000 tables.
_WINDOW_CAP = 256


@dataclass(frozen=True)
class ParallelRunResult:
    """Outcome of a parallel run.

    Attributes
    ----------
    final:
        The final strategy matrix as the result keeps it: a pure one
        bit-packed (1/8 the bytes; read it through :attr:`matrix`), a mixed
        one as it is.
    generation:
        Generations completed.
    n_pc_events, n_adoptions, n_mutations:
        Nature Agent counters.
    counters:
        Virtual-network traffic tallies by operation.
    n_ranks:
        Size of the world that ran: the ``n_ranks`` asked for on an eager
        run, 1 on any other (Nature alone).
    games_played_per_rank:
        Directed eager-slate games each rank of that world played: ``(0,)``
        on a world of one, where nobody plays a slate.  Nature's PC games,
        played on its own replica, are not counted.
    """

    final: PackedMatrix | np.ndarray
    generation: int
    n_pc_events: int
    n_adoptions: int
    n_mutations: int
    counters: dict[str, OpCount]
    n_ranks: int
    games_played_per_rank: tuple[int, ...]
    #: Ranks lost to faults during the run (empty for fault-free runs).
    failed_ranks: tuple[int, ...] = ()
    #: Graceful-degradation steps, in the order Nature detected them.
    degradations: tuple[DegradationEvent, ...] = ()
    #: The injector's fired-fault log in canonical order (chaos tests
    #: assert two runs with the same plan saw the identical schedule).
    fault_events: tuple[FaultRecord, ...] = ()
    #: Checkpoint files written during the run, oldest first.
    checkpoints: tuple[str, ...] = ()
    #: Successful heals under ``on_rank_failure="respawn"``: each event
    #: records a respawned rank rejoining the computation (the mirror image
    #: of ``degradations``).  A healed rank does not appear in
    #: ``failed_ranks``.
    recoveries: tuple[RecoveryEvent, ...] = ()
    #: Replacement processes launched by the executor under
    #: ``on_rank_failure="respawn"`` (a superset of ``recoveries`` — a
    #: replacement may die again before it manages to rejoin).
    respawns: tuple[RespawnRecord, ...] = ()
    #: The run's :class:`~repro.obs.Tracer` when tracing was requested
    #: (``ParallelSimulation(..., trace=...)``); ``None`` otherwise.  Export
    #: it with :func:`repro.obs.write_chrome_trace` or summarise with
    #: :func:`repro.obs.timeline_text`.
    trace: Tracer | None = None

    @property
    def matrix(self) -> np.ndarray:
        """Final (n_ssets, n_states) strategy matrix (identical on all ranks, by digest)."""
        return self.final.unpack() if isinstance(self.final, PackedMatrix) else self.final


def _replica_digest(matrix: np.ndarray) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(matrix.dtype).encode())
    h.update(np.ascontiguousarray(matrix).tobytes())
    return h.digest()


class _Replica:
    """A worker's population replica, moved through the run a window at a time.

    Nature drafts each window on its :class:`EvolutionDriver`; a worker
    replays the frame that announces it (:meth:`replay`).
    """

    def __init__(self, config, population, evaluator, rank, tracer) -> None:
        self.config = config
        self.population = population
        self.evaluator = evaluator
        self.rank = rank
        self.tracer = tracer
        self.games_played = 0

    def apply(self, event) -> None:
        if isinstance(event, MutationSelection):
            self.population.set_strategy(event.sset, event.table)
        elif event.adopted:
            self.population.adopt(event.learner, event.teacher)

    def replay(self, closed, news, end, owned, *, fault_point=None, min_generation=0) -> None:
        """Worker: generations ``closed+1 .. end`` in order, as the frame's ``news`` tells.

        Per generation: its fault point, the ``owned`` slates and its events.
        Events at or before ``min_generation`` are already in the replica.
        """
        by_gen: dict[int, list] = {}
        for g, event in news:
            if g > min_generation:
                by_gen.setdefault(g, []).append(event)
        tracer = self.tracer
        for g in range(closed + 1, end + 1):
            if fault_point is not None:
                fault_point(g)
            with tracer.span("generation", rank=self.rank, args={"gen": g}):
                if owned.size:
                    # Faithful mode: every owned SSet plays its full opponent
                    # slate (§IV-D) against the population as generation g - 1
                    # left it, whether or not a PC will consume the fitness.
                    with tracer.span("play", rank=self.rank, args={"gen": g}):
                        self.evaluator.play_slates(owned, g)
                        self.games_played += owned.size * self.config.opponents_per_sset
                self.close(g, by_gen.get(g, ()))

    def close(self, gen, events) -> None:
        """Worker: generation ``gen`` ends with its events."""
        with self.tracer.span("mutation", rank=self.rank, args={"gen": gen}):
            for event in events:
                self.apply(event)


# -- the rank program ------------------------------------------------------------------
#
# A reliable point-to-point star (repro.parallel.protocol), drafted a window
# at a time by Nature's ``EvolutionDriver`` and replayed by each worker's
# ``_Replica``.  Nature's heartbeat detects dead
# or silent workers and their SSets go to the survivors; fitness being a
# function of (population, generation, sset) on every rank, a degraded run
# still matches the fault-free one bit for bit.


@dataclass(frozen=True)
class _Options:
    """Knobs of the rank program (internal)."""

    heartbeat_timeout: float = 5.0
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0
    #: The checkpoint a resumed run continues from (None: generation 0).
    start: ParallelCheckpoint | None = None


class _News(list):
    """A window's events as its frames carry them: pickled once however many
    workers the frame goes to, and a plain list again on arrival."""

    blob: bytes | None = None

    def __reduce__(self):
        if self.blob is None:
            self.blob = pickle.dumps(list(self), protocol=pickle.HIGHEST_PROTOCOL)
        return pickle.loads, (self.blob,)


def _rank_program(comm: Comm, config: SimulationConfig, opts: _Options):
    """The SPMD body executed by every rank."""
    streams = StreamFactory(config.seed)
    if comm.rank != 0 and comm.incarnation > 0:
        # Replacement process under on_rank_failure="respawn": the initial
        # population is stale (the run has moved on since generation 0), so
        # skip straight to the rejoin handshake with Nature.
        return _worker_respawned(comm, config, streams)
    if opts.start is None:
        population = Population.random(config, streams.fresh("init"))
    else:
        population = Population(config, opts.start.matrix)
    if comm.rank == 0:
        return _nature(comm, EvolutionDriver(config, population), opts)
    return _worker(comm, config, population, FitnessEvaluator(config, population, streams))


#: How long a respawned worker keeps re-sending its hello before giving up.
_REJOIN_DEADLINE = 60.0

#: Hello retry cadence: also the recv timeout on the rejoin answer.
_HELLO_RETRY = 0.2


def _worker_respawned(comm, config, streams) -> dict:
    """Entry point of a replacement incarnation: handshake with Nature, rejoin.

    The hello travels over a *plain* send that we retry ourselves: Nature
    ignores hellos for ranks it has not yet declared dead (the previous
    incarnation might still be limping), so the reliable channel's
    ack-or-fail contract is the wrong tool here.  The answer — an
    :class:`~repro.parallel.protocol.FTRejoin` carrying Nature's
    authoritative matrix — comes back on the reliable channel.  Worker
    randomness is keyed by ``(generation, sset)``, pure functions of the
    seed, so no RNG state needs to travel: the replacement's streams are
    correct the moment they are constructed.
    """
    tracer = comm.world.tracer
    incarnation = comm.incarnation
    deadline = time.monotonic() + _REJOIN_DEADLINE
    rejoin = None
    while rejoin is None:
        if time.monotonic() >= deadline:
            # Nature never answered (the run may have finished without us,
            # or is about to abort).  Die quietly — the executor records
            # the rank as permanently degraded.
            return {"digest": b"", "games_played": 0, "rejoined": False}
        try:
            comm.send(
                FTHello(rank=comm.rank, incarnation=incarnation), dest=0, tag=TAG_HELLO
            )
            rejoin = comm.recv_reliable(source=0, tag=TAG_RECOVERY, timeout=_HELLO_RETRY)
        except RecvTimeoutError:
            continue  # Nature has not declared us dead yet; hello again.
        except RankFailedError:
            # Nature itself is dead: nothing to rejoin.
            return {"digest": b"", "games_played": 0, "rejoined": False}
    population = Population(config, np.array(rejoin.matrix, copy=True))
    evaluator = FitnessEvaluator(config, population, streams)
    tracer.instant(
        "rejoin", rank=comm.rank,
        args={"gen": rejoin.generation, "incarnation": incarnation},
    )
    return _worker(comm, config, population, evaluator, min_generation=rejoin.generation)


def _worker(comm, config, population, evaluator, min_generation=0) -> dict:
    replica = _Replica(config, population, evaluator, comm.rank, comm.world.tracer)
    try:
        return _worker_loop(comm, config, replica, min_generation)
    except (RankFailedError, RecvTimeoutError) as exc:
        if comm.world.is_failed(0):
            raise  # Nature is dead: the job cannot finish, fail loudly.
        # Partitioned from a live Nature (or falsely declared dead): die
        # quietly and let Nature's failure detection degrade the run.
        raise RankCrashError(f"rank {comm.rank}: lost contact with Nature ({exc})") from exc


def _worker_loop(comm, config, replica, min_generation) -> dict:
    while True:
        # An event at or before the rejoin generation is already in the
        # matrix this rank was seeded with, and adopt-then-mutate is not
        # idempotent: ``replay`` never applies it twice.
        closed, news, msg = comm.recv_reliable_owing(source=0, tag=TAG_CONTROL)
        if isinstance(msg, FTShutdown):
            break
        if not isinstance(msg, FTHeader):
            raise MPIError(f"rank {comm.rank}: unexpected control message {type(msg).__name__}")
        end = msg.generation
        if end <= min_generation:
            # Stale control traffic addressed to a previous incarnation of
            # this rank (the reliable layer may redeliver frames sent before
            # our predecessor died): drop it without replying.
            continue
        # The slates may outlast Nature's retransmission timer, so the
        # report cannot be what acknowledges this frame.
        comm.settle_acks()
        owners = owner_map_with_failures(config.n_ssets, comm.size, msg.failed_ranks)
        replica.replay(
            closed, news, end, np.flatnonzero(owners == comm.rank),
            fault_point=comm.fault_point, min_generation=min_generation,
        )
        # Posted, not awaited: Nature's next frame is its acknowledgement.
        comm.post_reliable(WorkerReport(rank=comm.rank, generation=end), dest=0, tag=TAG_REPORT)
    # The last act, so it waits for Nature's explicit acknowledgement.
    digest = _replica_digest(replica.population.matrix())
    final = FTFinal(rank=comm.rank, digest=digest, games_played=replica.games_played)
    comm.send_reliable(final, dest=0, tag=TAG_REPORT)
    return {"digest": digest, "games_played": replica.games_played}


def _nature(comm, driver, opts) -> dict:
    """Nature: draft each window on ``driver``, the serial driver's own loop,
    and tell every live worker what it drew."""
    config, nature, population = driver.config, driver.nature, driver.population
    if opts.start is not None:
        opts.start.restore(nature)
    failed: set[int] = set()
    live = list(range(1, comm.size))
    degradations: list[DegradationEvent] = []
    recoveries: list[RecoveryEvent] = []
    checkpoints: list[str] = []
    hb = opts.heartbeat_timeout
    every = opts.checkpoint_every if opts.checkpoint_dir is not None else 0
    tracer = driver.tracer = comm.world.tracer
    last = config.generations
    closed = nature.closed  # the generation the previous frame's header named
    watched = tracer.records("generation") or comm.world.injector is not None

    def fan_out(ranks, frame, gen: int, what: str, wait: float) -> tuple[list[int], float]:
        """Post ``frame`` to every rank of ``ranks`` before waiting for
        anyone; returns those posted to and the round's one deadline."""
        posted = []
        for rank in ranks:
            try:
                comm.post_reliable(frame, dest=rank, tag=TAG_CONTROL)
                posted.append(rank)
            except RankFailedError as exc:
                declare_failed(rank, gen, f"{what} not acknowledged: {exc}")
        return posted, time.monotonic() + wait

    def fan_in(posted, gen: int, deadline: float, what: str, recv=comm.recv_reliable_owing):
        """The replies to a round of frames, by rank, taken as they arrive
        (a reply received is acknowledged in time however slow another rank
        is) and past any heartbeat older than ``gen`` (a healed rank's
        previous incarnation may have left some queued).  Ranks that die, or
        stay silent until ``deadline``, are declared failed."""
        replies: dict[int, WorkerReport | FTFinal] = {}
        waiting = set(posted)
        while waiting:
            remaining = max(deadline - time.monotonic(), 0.0)
            source = ANY_SOURCE if len(waiting) > 1 else min(waiting)  # whose death fails fast
            try:
                msg = recv(source=source, tag=TAG_REPORT, timeout=min(remaining, 0.05))
            except RankFailedError as exc:  # a frame of ours was never acknowledged
                gone, why = {exc.rank} & waiting, "RankFailedError"
            except RecvTimeoutError:
                world = comm.world
                dead = {r for r in waiting if world.is_failed(r) or world.is_unreachable(r)}
                gone, why = (dead, "RankFailedError") if remaining else (waiting, "RecvTimeoutError")
            else:
                stale = isinstance(msg, WorkerReport) and msg.generation < gen
                if msg.rank in waiting and not stale:
                    replies[msg.rank] = msg
                    waiting.discard(msg.rank)
                continue
            for rank in sorted(gone):
                declare_failed(rank, gen, f"{what}: {why}")
            waiting = waiting - gone
        return replies

    def owners_now() -> np.ndarray:
        return owner_map_with_failures(config.n_ssets, comm.size, tuple(sorted(failed)))

    def declare_failed(rank: int, gen: int, reason: str) -> None:
        if rank in failed:
            return
        lost = tuple(int(s) for s in np.flatnonzero(owners_now() == rank))
        failed.add(rank)
        if rank in live:
            live.remove(rank)
        comm.world.mark_failed(rank, reason)
        comm.world.counters.record("degradation", messages=0, nbytes=0)
        tracer.instant(
            "degradation", rank=comm.rank,
            args={"gen": gen, "failed_rank": rank, "reason": reason},
        )
        degradations.append(
            DegradationEvent(generation=gen, rank=rank, reason=reason, reassigned_ssets=lost)
        )

    def process_hellos(closed: int) -> None:
        """Rejoin any respawned workers whose hellos have arrived.

        Called at a window boundary, *before* the next window is drafted, so
        the replacement is seeded with the state as of ``closed`` and
        participates from ``closed + 1`` onward.  Nature's own RNG is
        untouched by the handshake — the healed trajectory is the
        fault-free trajectory, bit for bit.
        """
        while comm.probe(source=ANY_SOURCE, tag=TAG_HELLO):
            try:
                hello = comm.recv(source=ANY_SOURCE, tag=TAG_HELLO, timeout=0.1)
            except (RecvTimeoutError, RankFailedError):
                return
            rank = hello.rank
            if rank not in failed:
                # Not yet declared dead (or never was): the replacement
                # keeps re-sending its hello; answer once we have degraded.
                continue
            rejoin = FTRejoin(generation=closed, matrix=population.matrix())
            # Revive before sending: the reliable ack wait fails fast on
            # ranks marked dead.  Roll back if the handshake fails.  The
            # replacement starts a fresh reliable history, so drop ours for
            # its predecessor first — the frame it never acknowledged
            # included (our send sequence stays monotonic).
            comm.world.mark_alive(rank)
            comm.forget_reliable_peer(rank)
            try:
                comm.send_reliable(rejoin, dest=rank, tag=TAG_RECOVERY, max_retries=2)
            except RankFailedError:
                comm.world.mark_failed(rank, "rejoin handshake failed")
                continue
            failed.discard(rank)
            live.append(rank)
            live.sort()
            restored = tuple(int(s) for s in np.flatnonzero(owners_now() == rank))
            comm.world.counters.record("recovery", messages=0, nbytes=0)
            tracer.instant(
                "recovery", rank=comm.rank,
                args={"gen": closed, "healed_rank": rank, "incarnation": hello.incarnation},
            )
            recoveries.append(
                RecoveryEvent(
                    generation=closed,
                    rank=rank,
                    incarnation=hello.incarnation,
                    restored_ssets=restored,
                )
            )

    while closed < last:
        # A window boundary: rejoin whoever has said hello, then draft
        # closed+1..end — to the cap, the next checkpoint, or the last generation.
        if failed:
            process_hellos(closed)
            if not live:
                # Every worker is currently dead.  Under respawn, replacements
                # may be on their way up — wait a heartbeat's worth for a hello
                # before giving up on the run.
                deadline = time.monotonic() + hb
                while not live and time.monotonic() < deadline:
                    time.sleep(0.02)
                    process_hellos(closed)
            if not live:
                raise MPIError(
                    f"generation {closed + 1}: all worker ranks failed; cannot continue"
                )
        end = min(last, closed + _WINDOW_CAP)
        if every:
            end = min(end, closed - closed % every + every)
        events: list = []  # what Nature applies this window: the frame's news
        # A generation at a time when someone watches generations (a traced
        # span, a fault point); the whole window in one pass when nobody does.
        step = 1 if watched else end - closed
        for gen in range(closed + step, end + 1, step):
            with tracer.span("generation", rank=comm.rank, args={"gen": gen}):
                comm.fault_point(gen)
                # Drafting may outlast the timers of the reports whose acks
                # ride the next frame: before each PC, send those due on their own.
                driver.draft(gen, events, comm.settle_due_acks)
        header = FTHeader(end, failed_ranks=tuple(sorted(failed)))
        # One frame down: every live worker's is on its way before Nature
        # waits for anyone.  A worker plays every generation of the window
        # before it reports, so its deadline scales with the window.
        with tracer.span("header", rank=comm.rank, args={"gen": end}):
            frame = (closed, _News(events), header)
            posted, deadline = fan_out(list(live), frame, end, "header", hb * (end - closed))

        # Heartbeat round, one report up: a report per posted worker, all
        # bounded by one deadline, so k silent workers cost one timeout.
        with tracer.span("heartbeat", rank=comm.rank, args={"gen": end}):
            for rank, report in fan_in(posted, end, deadline, "no heartbeat").items():
                if report.generation != end:
                    raise MPIError(
                        f"nature desynchronised: rank {rank} reported generation"
                        f" {report.generation} != {end}"
                    )
                comm.world.counters.record("heartbeat", messages=0, nbytes=0)

        if every and end % every == 0:
            comm.settle_due_acks()
            with tracer.span("checkpoint", rank=comm.rank, args={"gen": end}):
                state = ParallelCheckpoint.capture(nature, population.matrix())
                if comm.checkpoint_fault_point(end):
                    # Injected kill_during_checkpoint: reproduce the
                    # pre-atomic-write failure mode — partial bytes at the
                    # final path — then die mid-write.  The supervisor must
                    # skip this torn file and resume from the last valid one.
                    write_torn_parallel_checkpoint(state, opts.checkpoint_dir)
                    raise RankCrashError(
                        f"rank {comm.rank}: injected kill during checkpoint"
                        f" at generation {end}"
                    )
                checkpoints.append(str(save_parallel_checkpoint(state, opts.checkpoint_dir)))
        closed = end

    # Shutdown: collect final digests from survivors, then release stragglers.
    matrix = population.matrix()
    digest = _replica_digest(matrix)
    shutdown = (closed, [], FTShutdown(generation=last))
    posted, deadline = fan_out(list(live), shutdown, last, "shutdown", hb)
    # Acknowledged at once (no reply will carry it): the FTFinal is a
    # worker's last act and it waits for this.
    finals = fan_in(posted, last + 1, deadline, "lost at shutdown", comm.recv_reliable)
    for rank, final in finals.items():
        if final.digest != digest:
            raise MPIError(f"population replica diverged on rank {rank}")
    comm.world.shutdown()
    return {
        "matrix": matrix,
        "digest": digest,
        "games_played": 0,
        "n_pc_events": nature.n_pc_events,
        "n_adoptions": nature.n_adoptions,
        "n_mutations": nature.n_mutations,
        "games_by_rank": {rank: final.games_played for rank, final in finals.items()},
        "degradations": tuple(degradations),
        "recoveries": tuple(recoveries),
        "failed_ranks": tuple(sorted(failed)),
        "checkpoints": tuple(checkpoints),
    }


class ParallelSimulation:
    """Runs the full model on ``n_ranks`` virtual MPI ranks.

    Parameters
    ----------
    config:
        Simulation parameters (shared verbatim with the serial driver).
    n_ranks:
        World size of an eager run, >= 1: rank 0 is the Nature Agent, the
        rest its workers.  Checked against ``backend`` even when no worker
        launches.
    eager_games:
        When true, ``n_ranks - 1`` workers launch and each plays its owned
        SSets' full opponent slate every generation — the paper's faithful
        workload (§IV-D), counted in ``games_played_per_rank``.  No number
        of the trajectory reads those games: Nature decides every PC on its
        own replica.  When false (default) no worker would play anything, so
        none launches: the run is a world of one — Nature alone on a thread
        of this process, drafting every window and writing the checkpoints,
        with nobody to tell (``games_played_per_rank == (0,)``).
    fault_plan:
        Optional :class:`~repro.mpi.faults.FaultPlan` describing the chaos
        to inject (message drops, delays, duplicates, corruptions, rank
        crashes and hangs).
    fault_tolerant:
        Ignored.  Every run executes the one fault-tolerant program; the
        keyword is still accepted because the end-to-end benchmark's probes
        pass it, and it goes when they stop.
    heartbeat_timeout:
        Seconds per generation of a window that Nature waits for a worker's
        report of it before declaring the rank failed: a worker plays every
        generation's slates before it reports, and a window runs to the cap
        or the next checkpoint.  Acts only on an eager run (a world of one
        has no worker to wait for), as do ``on_rank_failure``,
        ``max_respawns`` and ``n_hosts``.
    checkpoint_dir:
        Directory for periodic :func:`~repro.io.checkpoints.save_parallel_checkpoint`
        files; enables restart via :meth:`resume`.
    checkpoint_every:
        Checkpoint cadence in generations (0 disables).
    trace:
        Observability.  ``True`` creates a fresh :class:`~repro.obs.Tracer`;
        an existing :class:`~repro.obs.Tracer` is used as given.  The traced
        run records per-rank generation-phase spans and every virtual-MPI
        message, absorbs the network counters into the tracer's metrics
        registry, and returns the tracer as ``result.trace`` for export
        (:func:`repro.obs.write_chrome_trace`).  ``False`` (default) keeps
        tracing off at near-zero cost; the trajectory is bit-identical
        either way.
    backend:
        Execution substrate for the ranks of an eager run with workers (a
        world of one always runs on a thread).  ``"thread"`` (default) runs
        every rank as a thread in this process — exact semantics, no
        multi-core speedup (the GIL).  ``"process"`` and ``"tcp"`` run
        the ranks in OS-process "hosts" talking framed loopback TCP, with
        partition-tolerant reconnection: one host per rank under
        ``"process"`` (real parallelism for game play), ``n_hosts`` hosts
        under ``"tcp"``.  The trajectory is bit-identical on all three.
        Both OS-process backends are :mod:`repro.mpi.hostexec`: an
        injected ``crash``/``hang`` takes out the rank, not its host
        process, and the fault-tolerant program degrades around it as it
        does on threads.
    on_rank_failure:
        What a dead worker of an eager run costs.
        ``"continue"`` (default): its SSets are redistributed
        to the survivors and stay there — graceful degradation.
        ``"respawn"`` (process and tcp backends): additionally start a
        replacement incarnation of each dead worker; the replacement
        handshakes with Nature, is re-seeded from Nature's authoritative
        matrix, and takes its SSets back (each heal is recorded as a
        :class:`~repro.parallel.protocol.RecoveryEvent` in
        ``result.recoveries``).
    max_respawns:
        Total replacement-incarnation budget under
        ``on_rank_failure="respawn"``.
    n_hosts:
        How many host processes the TCP backend deals an eager run's ranks
        across.  Ignored under the other backends.

    Examples
    --------
    >>> from repro.config import SimulationConfig
    >>> cfg = SimulationConfig(n_ssets=8, generations=40, seed=11)
    >>> result = ParallelSimulation(cfg, n_ranks=4).run()
    >>> result.generation
    40
    """

    def __init__(
        self,
        config: SimulationConfig,
        n_ranks: int,
        eager_games: bool = False,
        *,
        fault_plan: FaultPlan | None = None,
        fault_tolerant: bool | None = None,
        heartbeat_timeout: float = 5.0,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 0,
        trace: bool | Tracer = False,
        backend: str = "thread",
        on_rank_failure: str = "continue",
        max_respawns: int = 8,
        n_hosts: int = 2,
    ) -> None:
        if n_ranks < 1:
            raise MPIError(f"n_ranks must be >= 1 (the Nature Agent), got {n_ranks}")
        if checkpoint_every < 0:
            raise MPIError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if on_rank_failure not in ("continue", "respawn"):
            raise MPIError(
                f"on_rank_failure must be 'continue' or 'respawn', got {on_rank_failure!r}"
            )
        # The world asked for, checked whether or not it launches: a lazy
        # run rejects exactly the worlds an eager one does.
        check_world(n_ranks, backend, on_rank_failure, max_respawns, n_hosts)
        self.on_rank_failure = on_rank_failure
        self.max_respawns = int(max_respawns)
        self.n_hosts = int(n_hosts)
        self.config = config
        self.backend = backend
        self.n_ranks = int(n_ranks)
        self.eager_games = bool(eager_games)
        self.fault_plan = fault_plan
        if heartbeat_timeout <= 0:
            raise MPIError(f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.checkpoint_dir = None if checkpoint_dir is None else str(checkpoint_dir)
        self.checkpoint_every = int(checkpoint_every)
        if trace is True:
            self.tracer: Tracer | None = Tracer()
        elif trace is False or trace is None:
            self.tracer = None
        else:
            self.tracer = trace
        self._start = _Options(
            heartbeat_timeout=self.heartbeat_timeout,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
        )

    @classmethod
    def from_spec(cls, spec, **overrides) -> "ParallelSimulation":
        """Build a simulation from a declarative :class:`~repro.parallel.spec.RunSpec`.

        The spec supplies the config, world size, backend, chaos plan and
        degradation policy; keyword ``overrides`` win over the spec
        (``checkpoint_dir=``, ``trace=``, ...).  A spec-launched run is
        bit-identical to a hand-assembled one.
        """
        kwargs = spec.simulation_kwargs()
        kwargs.update(overrides)
        return cls(spec.config, spec.n_ranks, **kwargs)

    @classmethod
    def resume(
        cls,
        checkpoint: str | Path | ParallelCheckpoint,
        n_ranks: int,
        **kwargs,
    ) -> "ParallelSimulation":
        """Build a simulation that continues from a parallel checkpoint.

        ``checkpoint`` may be a checkpoint file, a directory (the latest
        ``ckpt_*.npz`` inside it that loads, see
        :func:`~repro.io.checkpoints.latest_valid_parallel_checkpoint`), or an
        already-loaded :class:`~repro.io.checkpoints.ParallelCheckpoint`.
        The resumed run replays the exact trajectory the uninterrupted run
        would have produced, at any rank count, and starts with every rank
        of its world alive.  Keyword arguments are forwarded to the
        constructor (``eager_games``, ``fault_plan``, ``checkpoint_dir``...).
        """
        if not isinstance(checkpoint, ParallelCheckpoint):
            path = Path(checkpoint)
            if path.is_dir():
                found = latest_valid_parallel_checkpoint(path)
                if found is None:
                    raise MPIError(f"no valid parallel checkpoints in {path}")
                path = found
            checkpoint = load_parallel_checkpoint(path)
        sim = cls(checkpoint.config, n_ranks, **kwargs)
        sim._start = replace(sim._start, start=checkpoint)
        return sim

    def run(self, timeout: float | None = 600.0) -> ParallelRunResult:
        """Execute the SPMD program and assemble the result."""
        injector = (
            FaultInjector(self.fault_plan)
            if self.fault_plan is not None and not self.fault_plan.is_trivial
            else None
        )
        # Workers exist to play slates: without eager games Nature runs
        # alone, on a thread of this process, with no worker to respawn.
        n_ranks = self.n_ranks if self.eager_games else 1
        alone = n_ranks == 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.name_rank(0, "nature (rank 0)")
            for rank in range(1, n_ranks):
                self.tracer.name_rank(rank, f"worker (rank {rank})")
        spmd = run_spmd(
            n_ranks,
            _rank_program,
            args=(self.config, self._start),
            timeout=timeout,
            fault_injector=injector,
            on_rank_failure="continue" if alone else self.on_rank_failure,
            tracer=self.tracer,
            backend="thread" if alone else self.backend,
            max_respawns=self.max_respawns,
            n_hosts=self.n_hosts,
        )
        if self.tracer is not None:  # fold the run's facts into its metrics registry
            metrics = self.tracer.metrics
            metrics.absorb_comm_counters(spmd.world.counters.snapshot())
            metrics.gauge("run.n_ranks").set(n_ranks)
            metrics.gauge("run.generations").set(self.config.generations)
            metrics.gauge("run.n_ssets").set(self.config.n_ssets)
            metrics.gauge("run.failed_ranks").set(len(spmd.world.failed_ranks))
        nature_out = spmd.returns[0]
        if nature_out is None:
            raise MPIError("the Nature rank did not complete; no result to assemble")
        finals, games = nature_out["games_by_rank"], [0] * n_ranks
        for rank, out in enumerate(spmd.returns[1:], start=1):  # no FTFinal: its own count
            own = out.get("games_played", 0) if isinstance(out, dict) else 0
            games[rank] = finals.get(rank, own)
        matrix = nature_out["matrix"]
        return ParallelRunResult(
            final=PackedMatrix.pack(matrix) if matrix.dtype == np.uint8 else matrix,
            generation=self.config.generations,
            n_pc_events=nature_out["n_pc_events"],
            n_adoptions=nature_out["n_adoptions"],
            n_mutations=nature_out["n_mutations"],
            counters=spmd.world.counters.snapshot(),
            n_ranks=n_ranks,
            games_played_per_rank=tuple(games),
            failed_ranks=nature_out["failed_ranks"],
            degradations=nature_out["degradations"],
            fault_events=() if injector is None else injector.schedule(),
            checkpoints=nature_out["checkpoints"],
            recoveries=nature_out["recoveries"],
            respawns=spmd.respawns,
            trace=self.tracer,
        )
