"""One frame down, one report up per window: the shape of the fault-tolerant star.

The star moves in the collective tree's windows: up to ``_WINDOW_CAP``
generations, cut at every checkpoint generation — Nature decides every PC
on its own replica.  Only an eager run has workers, so every run here is
eager.  A window costs each worker one frame
(the tree's frame: the events Nature drafted for the window) and one report
(which is the frame's acknowledgement); fault points and ``generation``
spans stay per generation.  The fault-free tests here are exact message
counts and run in tier-1; the ones that inject faults are marked ``chaos``.
Every run ends compared with the serial oracle.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.mpi.comm import _TAG_RDATA, Comm
from repro.mpi.executor import run_spmd
from repro.mpi.faults import FaultEvent, FaultPlan, FaultRecord
from repro.parallel.decomposition import owner_map_with_failures
from repro.parallel.protocol import (
    TAG_CONTROL,
    TAG_HELLO,
    TAG_RECOVERY,
    TAG_REPORT,
    FTHeader,
    FTRejoin,
    FTShutdown,
    WorkerReport,
)
from repro.parallel.runner import (
    _WINDOW_CAP,
    ParallelSimulation,
    _worker_respawned,
    _replica_digest,
)
from repro.population.dynamics import EvolutionDriver
from repro.population.fitness import FitnessEvaluator
from repro.rng import StreamFactory

#: Busy dynamics (a PC most generations, a mutation in two of five), so that
#: nearly every event changes the matrix and a lost, repeated or misplaced
#: one shows in the final comparison.
CFG = SimulationConfig(n_ssets=8, generations=40, seed=3, pc_rate=0.6, mutation_rate=0.4)

#: Messages one worker's shutdown costs: the frame carrying FTShutdown, the
#: FTFinal, and Nature's explicit ack of it — nothing would answer an
#: FTFinal, so nothing could carry that ack.
SHUTDOWN_MESSAGES = 3

#: A checkpoint cadence that cuts CFG's run into two windows.
EVERY = 20

BACKENDS = [
    "thread",
    pytest.param("process", marks=pytest.mark.procexec),
    pytest.param("tcp", marks=pytest.mark.tcp),
]


def _window_ends(last: int, every: int = 0) -> list[int]:
    """Where the star's windows end: the cap, each checkpoint, the last generation."""
    ends = [0]
    while ends[-1] < last:
        closed = ends[-1]
        checkpoint = closed - closed % every + every if every else last
        ends.append(min(last, closed + _WINDOW_CAP, checkpoint))
    return ends[1:]


def _window_of(gen: int, last: int, every: int = 0) -> int:
    """The last generation of the window that holds ``gen``."""
    return next(end for end in _window_ends(last, every) if end >= gen)


@pytest.fixture(scope="module")
def records():
    driver = EvolutionDriver(CFG)
    return [driver.step() for _ in range(CFG.generations)]


@pytest.fixture(scope="module")
def oracle():
    driver = EvolutionDriver(CFG)
    driver.run()
    return driver.population.matrix()


def _calls(result, name: str) -> int:
    count = result.counters.get(name)
    return count.calls if count else 0


def _generation_after(records, closes) -> int:
    """The first generation (>= 3) whose predecessor's record satisfies ``closes``."""
    for record in records[1:-1]:
        if closes(record):
            return record.generation + 1
    raise AssertionError("CFG no longer produces the scenario this test needs")


def _pc_generation(records, first, also=lambda record: True) -> int:
    """The first generation (>= ``first``) with a PC that satisfies ``also``."""
    for record in records[first - 1 :]:
        if record.pc is not None and also(record):
            return record.generation
    raise AssertionError("CFG no longer produces the scenario this test needs")


def _news(record) -> list:
    """A serial generation's events as a frame carries them."""
    return [(record.generation, e) for e in (record.pc, record.mutation) if e is not None]


def _adopts(record) -> bool:
    return record.pc is not None and record.pc.adopted and record.changed


def _adopts_then_mutates_the_teacher(record) -> bool:
    return _adopts(record) and record.mutation is not None and (
        record.mutation.sset == record.pc.teacher
    )


class TestMessageShape:
    @pytest.mark.parametrize("n_ranks", [3, 9])
    def test_two_messages_per_worker_per_generation(self, n_ranks, oracle):
        """Per window since the star moves in windows (CFG's run is one)."""
        result = ParallelSimulation(CFG, n_ranks, eager_games=True).run(timeout=120)
        assert np.array_equal(result.matrix, oracle)
        workers, windows = n_ranks - 1, len(_window_ends(CFG.generations))
        # Every frame confirmed delivered is counted: the frame and the report
        # of every window, then the shutdown frame and the FTFinal.
        assert _calls(result, "reliable_send") == (2 * windows + 2) * workers
        assert _calls(result, "heartbeat") == windows * workers
        # Whatever else was sent is counted too: a retransmission, or an
        # explicit ack beyond the FTFinals'.  A fault-free run has none but
        # the one each worker settles before it plays a window, unless the
        # machine froze a rank for _ACK_DELAY at the wrong moment; a protocol
        # that needed more would need them every window.
        timing = _calls(result, "reliable_retry") + _calls(result, "reliable_ack") - workers
        assert result.counters["send"].messages - timing == (
            (2 * windows + SHUTDOWN_MESSAGES) * workers
        )
        assert 0 <= timing - windows * workers <= 2

    @pytest.mark.parametrize("n_ranks", [3, 9])
    def test_nature_fans_out_before_it_waits(self, n_ranks, tmp_path):
        """Constant depth in P: in every window all of Nature's frames are
        sent (logical clock) before its first report is received."""
        result = ParallelSimulation(
            CFG, n_ranks, eager_games=True, checkpoint_dir=tmp_path, checkpoint_every=EVERY,
            trace=True,
        ).run(timeout=120)
        frame, report = _TAG_RDATA | TAG_CONTROL, _TAG_RDATA | TAG_REPORT
        p2p = sorted(
            (
                e for e in result.trace.events()
                if e.rank == 0 and e.cat == "mpi.p2p" and e.args["tag"] in (frame, report)
            ),
            key=lambda e: e.seq,
        )
        workers = n_ranks - 1
        for window in range(len(_window_ends(CFG.generations, EVERY))):
            burst = p2p[2 * workers * window : 2 * workers * (window + 1)]
            assert [(e.name, e.args["tag"]) for e in burst] == (
                [("send", frame)] * workers + [("recv", report)] * workers
            )

    def test_an_eager_run_asks_no_worker_for_fitness(self, records, oracle, monkeypatch):
        """Nature decides every PC on its own replica, however the workers
        play: a header names a window's end and the failed ranks only, every
        report is a bare heartbeat, and every ``pc_step`` span is Nature's."""
        assert any(record.pc is not None for record in records)
        posted, post = [], Comm.post_reliable

        def spy(self, payload, dest, tag=0, **policy):
            posted.append((tag, payload))
            return post(self, payload, dest, tag, **policy)

        monkeypatch.setattr(Comm, "post_reliable", spy)
        result = ParallelSimulation(CFG, 3, eager_games=True, trace=True).run(timeout=120)
        assert np.array_equal(result.matrix, oracle)
        headers = [p[2] for t, p in posted if t == TAG_CONTROL and isinstance(p[2], FTHeader)]
        reports = [p for t, p in posted if t == TAG_REPORT and isinstance(p, WorkerReport)]
        assert len(headers) == len(reports) == 2 * len(_window_ends(CFG.generations))
        assert {h.generation for h in headers} == set(_window_ends(CFG.generations))
        assert all(dataclasses.astuple(h) == (h.generation, ()) for h in headers)
        assert all(dataclasses.astuple(r) == (r.rank, r.generation) for r in reports)
        steps = [e for e in result.trace.events() if e.name == "pc_step"]
        assert len(steps) == result.n_pc_events > 0
        assert {e.rank for e in steps} == {0}

    def test_slow_generations_retransmit_nothing(self, oracle, monkeypatch):
        """A worker whose window outlasts ``ack_timeout`` settles its ack
        before playing, and Nature — blocked on it, owing the fast worker an
        ack — settles that after ``_ACK_DELAY``: no timer ever fires.  PCs
        cut no eager window, so the run is one window."""
        play = FitnessEvaluator.play_slates

        def slow_play(self, ssets, generation):
            if 0 in ssets:  # rank 1's block; rank 2 stays fast
                time.sleep(0.3)
            return play(self, ssets, generation)

        monkeypatch.setattr(FitnessEvaluator, "play_slates", slow_play)
        cfg = SimulationConfig(n_ssets=8, generations=3, seed=3, pc_rate=0.6, mutation_rate=0.4)
        result = ParallelSimulation(cfg, 3, eager_games=True).run(timeout=120)
        driver = EvolutionDriver(cfg)
        driver.run()
        assert np.array_equal(result.matrix, driver.population.matrix())
        assert _calls(result, "reliable_retry") == 0
        windows = math.ceil(cfg.generations / _WINDOW_CAP)
        assert windows == len(_window_ends(cfg.generations)) == 1
        # Per window 2 workers' settles before play and Nature's settle to
        # rank 2, then 2 acks at shutdown.
        assert _calls(result, "reliable_ack") >= 2 * windows + windows + 2


class TestCarriedUpdate:
    def test_last_update_rides_with_shutdown(self, records):
        """An eager PC on the last generation: its decision and the mutation
        closing it ride in the last window's frame, which FTShutdown (carrying
        no events) follows; a worker that missed them fails the digest check."""
        last = max(r.generation for r in records if r.pc is not None and r.changed)
        cfg = dataclasses.replace(CFG, generations=last)
        driver = EvolutionDriver(cfg)
        driver.run()
        result = ParallelSimulation(cfg, 3, eager_games=True).run(timeout=120)
        # Nature compares every FTFinal digest with its own matrix, so a
        # worker that missed the last update would have failed the run.
        assert np.array_equal(result.matrix, driver.population.matrix())
        assert result.failed_ranks == ()

    def test_joiner_does_not_reapply_the_update_its_matrix_contains(self, records):
        """A respawned worker rejoins with Nature's matrix as of generation g,
        and a frame whose news straddles g (``closed < g < end``) still
        carries g's events.  Adopt-then-mutate is not idempotent when the
        mutation hits the teacher: applied twice, the learner ends with the
        mutant.  The events after g must still be applied."""
        record = next(r for r in records[1:-1] if _adopts_then_mutates_the_teacher(r))
        gen = record.generation
        driver = EvolutionDriver(CFG)
        driver.run(gen)
        seeded = driver.population.matrix()
        assert not np.array_equal(seeded[record.pc.learner], record.mutation.table)
        after = driver.step()
        assert after.changed
        events = _news(record) + _news(after)

        def program(comm):
            if comm.rank == 1:  # the replacement incarnation's entry point
                return _worker_respawned(comm, CFG, StreamFactory(CFG.seed))
            # Nature's side: answer the hello, run one window, shut down.
            comm.recv(source=1, tag=TAG_HELLO, timeout=30)
            comm.send_reliable(FTRejoin(generation=gen, matrix=seeded), dest=1, tag=TAG_RECOVERY)
            frame = (gen - 1, events, FTHeader(generation=gen + 1))
            comm.post_reliable(frame, dest=1, tag=TAG_CONTROL)
            comm.recv_reliable_owing(source=1, tag=TAG_REPORT, timeout=30)
            shutdown = (gen + 1, [], FTShutdown(generation=gen + 1))
            comm.post_reliable(shutdown, dest=1, tag=TAG_CONTROL)
            return comm.recv_reliable(source=1, tag=TAG_REPORT, timeout=30)

        final = run_spmd(2, program, timeout=60).returns[0]
        assert final.digest == _replica_digest(driver.population.matrix())

    @pytest.mark.chaos
    def test_new_owner_answers_a_fitness_rerequest_from_the_closed_generation(
        self, records, oracle
    ):
        """The teacher's owner dies at a PC generation whose predecessor
        changed the matrix: Nature's fitness comes from its own replica,
        which holds that change, exactly as the dead owner's replica did.  The
        failure is seen at the end of the window that holds it."""
        gen = _generation_after(
            records, lambda record: record.changed and records[record.generation].pc is not None
        )
        teacher = records[gen - 1].pc.teacher
        owner = int(owner_map_with_failures(CFG.n_ssets, 4, ())[teacher])
        plan = FaultPlan(seed=1, events=(FaultEvent(kind="crash", rank=owner, generation=gen),))
        result = ParallelSimulation(
            CFG, 4, eager_games=True, fault_plan=plan, heartbeat_timeout=2.0
        ).run(timeout=120)
        assert np.array_equal(result.matrix, oracle)
        end = _window_of(gen, CFG.generations)
        assert [(d.rank, d.generation) for d in result.degradations] == [(owner, end)]


@pytest.mark.chaos
class TestDeadOwners:
    """A PC owner that dies mid-generation owes nothing: the fitness is a
    function of Nature's own replica (the matrix the workers play, and
    ``(gen, sset)``), which Nature decides on, so the run goes on without
    asking anyone.  Only an eager run has workers: an owner plays its
    slates and dies with them unreported."""

    @pytest.mark.procexec
    @pytest.mark.recovery
    def test_sole_worker_crashing_at_a_pc_generation_is_healed(self, records, oracle, tmp_path):
        """No live worker is left, so Nature holds the next window boundary
        for the replacement's hello however fast the run goes; a checkpoint
        every EVERY generations keeps the crash out of the last window."""
        gen = _pc_generation(records, 5)
        end = _window_of(gen, CFG.generations, EVERY)
        assert end < CFG.generations
        plan = FaultPlan(seed=1, events=(FaultEvent(kind="crash", rank=1, generation=gen),))
        result = ParallelSimulation(
            CFG, 2, eager_games=True, fault_plan=plan, backend="process", on_rank_failure="respawn",
            heartbeat_timeout=1.0, checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        ).run(timeout=120)
        assert np.array_equal(result.matrix, oracle)
        assert [(d.rank, d.generation) for d in result.degradations] == [(1, end)]
        assert [(r.rank, r.generation) for r in result.recoveries] == [(1, end)]

    @pytest.mark.parametrize("dead", ["teacher", "both"], ids=["teacher-eager", "both-eager"])
    def test_nature_computes_what_dead_owners_owed(self, records, oracle, dead):
        owners = owner_map_with_failures(CFG.n_ssets, 4, ())
        gen = _pc_generation(
            records, 3, lambda record: owners[record.pc.teacher] != owners[record.pc.learner]
        )
        pc = records[gen - 1].pc
        ranks = [int(owners[pc.teacher])] + ([int(owners[pc.learner])] if dead == "both" else [])
        plan = FaultPlan(
            seed=1, events=tuple(FaultEvent(kind="crash", rank=r, generation=gen) for r in ranks)
        )
        result = ParallelSimulation(
            CFG, 4, eager_games=True, fault_plan=plan, heartbeat_timeout=2.0
        ).run(timeout=120)
        assert np.array_equal(result.matrix, oracle)
        end = _window_of(gen, CFG.generations)
        assert sorted((d.rank, d.generation) for d in result.degradations) == sorted(
            (r, end) for r in ranks
        )


@pytest.mark.chaos
class TestFaults:
    """Seeded single faults on a 3-rank star with a checkpoint every
    generation, so that every window is one generation.  Until the fault
    fires Nature's sends are frames only — frame g to worker w, which carries
    generation g's events, is its send 2(g-1) + (w-1) — and worker w's send
    2(g-1) is the ack it settles before playing generation g, and its send
    2(g-1) + 1 its report of generation g."""

    @pytest.fixture(autouse=True)
    def _checkpoints(self, tmp_path):
        self.directory = tmp_path

    def _run(self, *events):
        plan = FaultPlan(seed=9, events=tuple(events))
        return ParallelSimulation(
            CFG, 3, eager_games=True, fault_plan=plan, heartbeat_timeout=5.0,
            checkpoint_dir=self.directory, checkpoint_every=1,
        ).run(timeout=120)

    def test_dropped_frame_carrying_an_adoption(self, records, oracle):
        gen = _pc_generation(records, 2, _adopts)
        result = self._run(FaultEvent(kind="drop", rank=0, op_index=2 * (gen - 1)))
        assert np.array_equal(result.matrix, oracle)
        assert _calls(result, "fault_drop") == 1
        assert _calls(result, "reliable_retry") >= 1
        assert result.failed_ranks == ()

    def test_dropped_report(self, oracle):
        result = self._run(FaultEvent(kind="drop", rank=1, op_index=11))
        assert np.array_equal(result.matrix, oracle)
        assert _calls(result, "fault_drop") == 1
        assert _calls(result, "reliable_retry") >= 1
        assert result.failed_ranks == ()

    def test_duplicated_frame_and_report(self, oracle):
        result = self._run(
            FaultEvent(kind="duplicate", rank=0, op_index=8),
            FaultEvent(kind="duplicate", rank=2, op_index=23),
        )
        assert np.array_equal(result.matrix, oracle)
        assert _calls(result, "fault_duplicate") == 2
        assert _calls(result, "reliable_dedup") >= 2

    def test_corrupted_frame_and_report(self, oracle):
        result = self._run(
            FaultEvent(kind="corrupt", rank=0, op_index=8),
            FaultEvent(kind="corrupt", rank=2, op_index=41),
        )
        assert np.array_equal(result.matrix, oracle)
        assert _calls(result, "reliable_corrupt") >= 2
        assert _calls(result, "reliable_retry") >= 2
        assert result.failed_ranks == ()

    def test_two_silent_workers_cost_one_heartbeat_timeout(self, oracle):
        """The frames went out together, so the round has one deadline."""
        hb = 1.0
        plan = FaultPlan(
            seed=2,
            events=tuple(FaultEvent(kind="hang", rank=r, generation=10) for r in (1, 2)),
        )
        # Nature's deadline is per generation of the window, and CFG's run
        # is one window: hb for all of it.
        result = ParallelSimulation(
            CFG, 4, eager_games=True, fault_plan=plan, heartbeat_timeout=hb / CFG.generations,
            trace=True,
        ).run(timeout=120)
        end = _window_of(10, CFG.generations)
        assert np.array_equal(result.matrix, oracle)
        assert result.failed_ranks == (1, 2)
        assert [d.generation for d in result.degradations] == [end, end]
        (round_,) = (
            e for e in result.trace.events()
            if e.name == "heartbeat" and e.rank == 0 and e.args["gen"] == end
        )
        assert 0.5 * hb * 1e6 < round_.dur < 1.5 * hb * 1e6  # one timeout, not two


class TestWindows:
    """What a window is on the star: the cap and each checkpoint cut it;
    fault points and ``generation`` spans stay per generation."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_lazy_star_cuts_its_windows_at_each_checkpoint(self, backend, tmp_path):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=2 * _WINDOW_CAP + 10, seed=4, pc_rate=1.0
        )
        serial = EvolutionDriver(cfg).run()
        result = ParallelSimulation(
            cfg, 3, eager_games=True, backend=backend, checkpoint_dir=tmp_path,
            checkpoint_every=100,
        ).run(timeout=300)
        assert np.array_equal(result.matrix, serial.population.matrix())
        assert (result.n_pc_events, result.n_adoptions, result.n_mutations) == (
            serial.n_pc_events, serial.n_adoptions, serial.n_mutations
        )
        windows = len(_window_ends(cfg.generations, 100))
        assert windows == 6  # 100, 200, 300, 400, 500 and 522
        assert _calls(result, "heartbeat") == windows * 2
        # A frame and a report per window and worker, then the shutdown frame
        # and the FTFinal — whose ack a host process may receive after it
        # shipped its counters, as Nature shuts the world down.
        unshipped = 0 if backend == "thread" else 2
        sends = _calls(result, "reliable_send")
        assert (2 * windows + 2) * 2 - unshipped <= sends <= (2 * windows + 2) * 2
        assert sorted(path.name for path in tmp_path.glob("ckpt_*.npz")) == [
            f"ckpt_{gen:08d}.npz" for gen in range(100, cfg.generations, 100)
        ]

    @pytest.mark.chaos
    def test_rank_faults_fire_as_before_and_degrade_at_their_window_end(self):
        """Per-generation ``crash_p``/``hang_p`` draw the schedule the star
        fired when it moved one generation per frame; each fault is seen at
        the end of the window that holds it."""
        cfg = SimulationConfig(n_ssets=8, generations=_WINDOW_CAP + 44, seed=3)
        plan = FaultPlan(seed=39, crash_p=0.002, hang_p=0.001)
        # Per generation of the window: two seconds for a full one.
        result = ParallelSimulation(
            cfg, 5, eager_games=True, fault_plan=plan, heartbeat_timeout=2.0 / _WINDOW_CAP
        ).run(timeout=120)
        assert result.fault_events == (
            FaultRecord(kind="crash", rank=1, generation=286),
            FaultRecord(kind="hang", rank=2, generation=254),
        )
        assert sorted((d.rank, d.generation) for d in result.degradations) == sorted(
            (r.rank, _window_of(r.generation, cfg.generations)) for r in result.fault_events
        )
        serial = EvolutionDriver(cfg)
        serial.run()
        assert np.array_equal(result.matrix, serial.population.matrix())

    def test_a_traced_lazy_star_spans_each_generation_and_heartbeats_each_window(self):
        cfg = SimulationConfig(n_ssets=8, generations=_WINDOW_CAP + 20, seed=3)
        result = ParallelSimulation(cfg, 3, eager_games=True, trace=True).run(timeout=120)
        spans = [e for e in result.trace.events() if e.ph == "X"]
        for rank in range(3):
            gens = sorted(e.args["gen"] for e in spans if e.name == "generation" and e.rank == rank)
            assert gens == list(range(1, cfg.generations + 1))
        beats = sorted(e.args["gen"] for e in spans if e.name == "heartbeat" and e.rank == 0)
        assert beats == _window_ends(cfg.generations)
