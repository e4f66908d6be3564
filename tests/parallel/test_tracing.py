"""Integration tests: traced parallel runs export valid, useful traces.

The acceptance path of the observability subsystem: an 8-rank eager
:class:`~repro.parallel.runner.ParallelSimulation` run with ``trace=True``
must yield a Perfetto-loadable Chrome trace with one named track per rank,
generation-phase spans, and paired message-flow events — and tracing must
never change the science (traced and untraced trajectories are identical).
"""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.game.noise import NoiseModel
from repro.mpi.executor import run_spmd
from repro.mpi.faults import FaultEvent, FaultPlan
from repro.obs.export import chrome_trace, load_trace, timeline_text, write_chrome_trace
from repro.obs.report import render_report
from repro.obs.tracer import NULL_TRACER, Tracer, get_tracer
from repro.parallel.decomposition import SSetDecomposition
from repro.parallel.runner import ParallelSimulation

CFG = SimulationConfig(n_ssets=8, generations=6, seed=17)


@pytest.fixture(scope="module")
def traced_result():
    sim = ParallelSimulation(CFG, n_ranks=8, eager_games=True, trace=True)
    return sim.run()


class TestTracedRun:
    def test_trace_attached(self, traced_result):
        assert isinstance(traced_result.trace, Tracer)
        assert len(traced_result.trace) > 0

    def test_one_named_track_per_rank(self, traced_result, tmp_path):
        path = write_chrome_trace(traced_result.trace, tmp_path / "run.json")
        doc = load_trace(path)
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert len(names) == 8  # tids 1..8 for ranks 0..7
        assert names[1] == "nature (rank 0)"
        assert all("worker" in names[tid] for tid in range(2, 9))
        slice_tids = {e["tid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert slice_tids == set(range(1, 9))  # every rank produced spans

    def test_generation_phase_spans_on_every_rank(self, traced_result):
        events = traced_result.trace.events()
        gen_spans = [e for e in events if e.ph == "X" and e.name == "generation"]
        assert {e.rank for e in gen_spans} == set(range(8))
        assert {e.args["gen"] for e in gen_spans} == set(range(1, CFG.generations + 1))
        phases = {e.name for e in events if e.ph == "X" and e.cat == "phase"}
        assert {"header", "mutation"} <= phases

    def test_message_flows_pair_up(self, traced_result):
        events = traced_result.trace.events()
        starts = {e.flow_id for e in events if e.ph == "s"}
        finishes = {e.flow_id for e in events if e.ph == "f"}
        assert starts, "no message flows recorded"
        assert finishes <= starts  # every arrow lands somewhere it started
        # A fault-free run delivers everything it sends.
        assert starts == finishes

    def test_metrics_absorbed(self, traced_result):
        metrics = traced_result.trace.metrics
        assert metrics.gauge("run.n_ranks").value == 8
        assert metrics.gauge("run.generations").value == CFG.generations
        assert metrics.counter("mpi.send.calls").value > 0
        assert metrics.counter("mpi.send.bytes").value > 0

    def test_export_is_valid_json_and_reportable(self, traced_result, tmp_path):
        path = write_chrome_trace(traced_result.trace, tmp_path / "run.json")
        doc = json.loads(path.read_text())  # strict JSON, as Perfetto demands
        report = render_report(doc, per_rank=True)
        assert "total 6 generations" in report
        assert "nature (rank 0)" in report
        text = timeline_text(traced_result.trace)
        assert "header=" in text


class TestDeterminism:
    def test_traced_and_untraced_runs_identical(self, traced_result):
        untraced = ParallelSimulation(CFG, n_ranks=8, eager_games=True, trace=False).run()
        assert untraced.trace is None
        assert np.array_equal(traced_result.matrix, untraced.matrix)
        assert traced_result.n_pc_events == untraced.n_pc_events
        assert traced_result.n_adoptions == untraced.n_adoptions
        assert traced_result.n_mutations == untraced.n_mutations

    def test_tracing_off_leaves_null_tracer_active(self):
        ParallelSimulation(CFG, n_ranks=2).run()
        assert get_tracer() is NULL_TRACER

    def test_tracer_instance_can_be_supplied(self):
        tr = Tracer()
        res = ParallelSimulation(CFG, n_ranks=2, trace=tr).run()
        assert res.trace is tr
        assert len(tr) > 0
        # A lazy run is a world of one: Nature's track, no empty worker track.
        assert tr.rank_names() == {0: "nature (rank 0)"}


class TestFaultTolerantTracing:
    def test_degradation_and_ft_phases_appear(self):
        cfg = SimulationConfig(n_ssets=8, generations=30, seed=11)
        plan = FaultPlan(seed=5, events=(FaultEvent(kind="crash", rank=2, generation=10),))
        sim = ParallelSimulation(cfg, n_ranks=4, eager_games=True, fault_plan=plan, trace=True)
        res = sim.run()
        assert res.failed_ranks == (2,)
        events = res.trace.events()
        names = {e.name for e in events}
        assert "heartbeat" in names
        assert "pc_step" in names
        instants = [e for e in events if e.ph == "i" and e.name == "degradation"]
        assert len(instants) == 1
        assert instants[0].args["failed_rank"] == 2
        assert res.trace.metrics.gauge("run.failed_ranks").value == 1

    def test_reliable_spans_in_ft_mode(self):
        cfg = SimulationConfig(n_ssets=4, generations=5, seed=2)
        res = ParallelSimulation(cfg, n_ranks=2, eager_games=True, trace=True).run()
        cats = {e.cat for e in res.trace.events()}
        assert "mpi.reliable" in cats


class TestRunSpmdTracer:
    def test_tracer_param_records_p2p(self):
        tr = Tracer()

        def program(comm):
            if comm.rank == 0:
                comm.send(b"x" * 16, dest=1, tag=9)
                return None
            return comm.recv(source=0, tag=9)

        run_spmd(2, program, tracer=tr)
        sends = [e for e in tr.events() if e.name == "send"]
        recvs = [e for e in tr.events() if e.name == "recv"]
        assert len(sends) == 1 and len(recvs) == 1
        assert sends[0].rank == 0 and recvs[0].rank == 1
        assert sends[0].flow_id == recvs[0].flow_id != 0
        assert sends[0].args["nbytes"] == recvs[0].args["nbytes"] == 16

    def test_untraced_world_records_nothing(self):
        res = run_spmd(2, lambda comm: comm.bcast(b"y", root=0))
        assert res.world.tracer is NULL_TRACER


@pytest.mark.engine
@pytest.mark.procexec
def test_eager_worker_issues_one_kernel_call_per_generation():
    """Every owned slate of a generation goes into one ``batch_engine.play``
    span of ``owned x opponents_per_sset`` games."""
    cfg = SimulationConfig(
        memory=2, n_ssets=9, generations=5, seed=23, rounds=20, noise=NoiseModel(0.02)
    )
    res = ParallelSimulation(
        cfg, n_ranks=3, eager_games=True, backend="process", trace=True
    ).run(timeout=120)
    decomp = SSetDecomposition(cfg.n_ssets, 3)
    plays = [e for e in res.trace.events() if e.ph == "X" and e.name == "batch_engine.play"]
    for rank in (1, 2):
        slate = decomp.ssets_of_rank(rank).size * cfg.opponents_per_sset
        # PC fitness plays one or two slates per call, never a whole rank's.
        assert slate > 2 * cfg.opponents_per_sset
        eager = [e for e in plays if e.rank == rank and e.args["games"] == slate]
        assert len(eager) == cfg.generations
    assert sum(res.games_played_per_rank) == (
        cfg.generations * cfg.n_ssets * cfg.opponents_per_sset
    )


def test_eager_workers_play_once_a_generation_and_nature_once_a_pc():
    """Nature decides a sampled PC on its own replica, in one kernel call for
    both slates; each worker makes exactly one kernel call per generation,
    PC generations included, and answers none."""
    cfg = SimulationConfig(
        memory=2, n_ssets=9, generations=12, seed=23, rounds=20, noise=NoiseModel(0.02),
        pc_rate=0.5,
    )
    res = ParallelSimulation(cfg, n_ranks=3, eager_games=True, trace=True).run(timeout=120)
    assert res.n_pc_events > 0
    kernel = [
        e for e in res.trace.events()
        if e.ph == "X" and e.cat == "game" and e.name in ("batch_engine.play", "vector_engine.play")
    ]
    calls = {rank: sum(e.rank == rank for e in kernel) for rank in range(3)}
    assert calls == {0: res.n_pc_events, 1: cfg.generations, 2: cfg.generations}
    assert {e.args["games"] for e in kernel if e.rank == 0} == {2 * cfg.opponents_per_sset}


def test_lazy_nature_plays_at_most_one_kernel_call_a_pc():
    """A lazy PC fills the teacher's and the learner's unplayed pairs in one
    kernel call, and a PC whose pairs are all memoised makes none, so Nature
    issues no more ``batch_engine.play`` spans than the run has PCs.  Half
    the generations mutate, so most PCs find both rows with unplayed pairs
    (one call per row would make about twice as many calls as PCs)."""
    cfg = SimulationConfig(
        memory=2, n_ssets=9, generations=40, seed=23, rounds=20, pc_rate=0.5, mutation_rate=0.5
    )
    res = ParallelSimulation(cfg, n_ranks=3, trace=True).run(timeout=120)
    assert res.n_pc_events > 0
    plays = [
        e for e in res.trace.events()
        if e.ph == "X" and e.name == "batch_engine.play" and e.rank == 0
    ]
    assert 0 < len(plays) <= res.n_pc_events
