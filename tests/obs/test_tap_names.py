"""Tests for the names-only event tap: build what is read, nothing else."""

from collections import Counter

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.obs.stream import EventTap
from repro.obs.tracer import TraceEvent
from repro.parallel import RunSpec
from repro.parallel.supervisor import SupervisedRun
from repro.population.dynamics import EvolutionDriver
from repro.service.worker import PROGRESS_NAMES

# The names-only tap is the service worker's: `make test-service` runs this too.
pytestmark = pytest.mark.service


class TestNamesOnlyTap:
    def test_records_and_forwards_only_the_named_events(self):
        seen = []
        tap = EventTap([seen.append], names=("generation", "recovery.restart"))
        with tap.span("generation", rank=0, args={"gen": 1}):
            with tap.span("play", rank=0):
                tap.instant("checkpoint.written")
        tap.instant("recovery.restart", args={"attempt": 0})
        tap.complete("header", ts=0.0, dur=1.0, rank=0)
        tap.msg_send(0, 1, 7, 64, ts=0.0, dur=1.0, flow_id=3)
        tap.msg_recv(1, 0, 7, 64, ts=0.0, dur=1.0, flow_id=3)
        tap.absorb_events([TraceEvent(ph="X", name="bcast", cat="mpi.coll", rank=1, ts=0.0)])
        assert [e.name for e in seen] == ["generation", "recovery.restart"]
        assert [e.name for e in tap.events()] == ["generation", "recovery.restart"]
        assert seen[0].ph == "X" and seen[0].args == {"gen": 1}

    def test_reports_disabled_and_mints_no_flow_ids(self):
        tap = EventTap(names=("generation",))
        assert tap.enabled is False
        assert tap.new_flow_id() == 0
        # every other name gets the one shared no-op span
        assert tap.span("play") is tap.span("bcast")

    def test_a_tap_given_no_names_is_a_full_tracer(self):
        tap = EventTap()
        assert tap.enabled is True
        assert (tap.new_flow_id(), tap.new_flow_id()) == (1, 2)
        with tap.span("play"):
            tap.instant("anything")
        assert [e.name for e in tap.events()] == ["anything", "play"]


class TestNamesOnlyTapOnARealRun:
    def test_one_event_per_rank_per_generation_and_the_same_matrix(self, tmp_path):
        """The service worker's tap on the benchmark's job shape, eager so
        that it has a worker: the full tap records every rank's phases — per
        generation a ``generation`` span on each rank and a ``play`` and a
        ``mutation`` span on the worker, per window Nature's ``window``,
        ``header``, ``heartbeat`` and ``checkpoint`` — and the star's
        messages; the names-only tap Nature's ``window`` span, nothing else,
        so nobody watches a generation and Nature drafts each window in one
        pass."""
        config = SimulationConfig(memory=1, n_ssets=16, generations=200, seed=11)
        spec = RunSpec(
            config=config, n_ranks=2, backend="thread", eager_games=True, checkpoint_every=100
        )
        driver = EvolutionDriver(config)
        serial = driver.run()
        generations, windows = config.generations, config.generations // spec.checkpoint_every

        counts, phases = {}, {}
        for label, names in (("full", None), ("names", PROGRESS_NAMES)):
            seen = []
            tap = EventTap([seen.append], keep_events=False, names=names)
            out = SupervisedRun.from_spec(
                spec, checkpoint_dir=tmp_path / label, trace=tap
            ).run(timeout=300)
            assert np.array_equal(out.result.matrix, driver.population.matrix())
            assert [e.args["gen"] for e in seen if e.name == "window"] == [100, 200]
            counts[label] = len(seen)
            phases[label] = Counter(
                (e.name, e.rank) for e in seen if e.ph == "X" and e.cat == "phase"
            )
        assert phases["names"] == {("window", 0): windows}
        assert counts["names"] == windows
        assert phases["full"] == {
            ("generation", 0): generations,
            ("generation", 1): generations,
            ("play", 1): generations,
            ("mutation", 1): generations,
            ("window", 0): windows,
            ("header", 0): windows,
            ("heartbeat", 0): windows,
            ("checkpoint", 0): windows,
            ("pc_step", 0): serial.n_pc_events,
        }
        assert counts["full"] > sum(phases["full"].values())  # and the messages


class TestServiceWorkerTap:
    def test_a_lazy_job_on_a_host_backend_gets_the_names_only_tap(self, tmp_path, monkeypatch):
        """A lazy run is a thread world of one whatever its backend says, so
        the worker's tap builds only what the progress feed reads, and the
        feed is the one a thread job writes."""
        from repro.io.runstore import RunKey, RunStore
        from repro.service import worker

        built = []

        class RecordingTap(EventTap):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(kwargs.get("names"))

        monkeypatch.setattr(worker, "EventTap", RecordingTap)
        store = RunStore(tmp_path / "runs")
        config = SimulationConfig(memory=1, n_ssets=8, generations=40, seed=5)
        progress = {}
        for backend in ("thread", "process"):
            key = RunKey("t", backend)
            store.create_run(key, RunSpec(config=config, n_ranks=3, backend=backend))
            assert worker.run_job(str(store.root), "t", backend) == 0
            progress[backend] = [
                e["generation"] for e in store.read_events(key) if e["type"] == "progress"
            ]
        assert built == [PROGRESS_NAMES, PROGRESS_NAMES]
        # One record per window: each checkpoint (every 10th generation) ends one.
        assert progress["process"] == progress["thread"] == [10, 20, 30, 40]

    def test_a_job_announces_exactly_its_window_ends(self, tmp_path, monkeypatch):
        """A window ends at the cap, at each checkpoint and at the last
        generation; the job drafts each window in one pass and its feed
        holds exactly those ends.  A full tracer on the same run still sees
        every generation."""
        from repro.io.runstore import RunKey, RunStore
        from repro.parallel import ParallelSimulation
        from repro.parallel.runner import _WINDOW_CAP
        from repro.service import worker

        every = _WINDOW_CAP + 44
        config = SimulationConfig(memory=1, n_ssets=8, generations=2 * every + 100, seed=7)
        ends = [_WINDOW_CAP, every, every + _WINDOW_CAP, 2 * every, config.generations]
        oracle = EvolutionDriver(config)
        oracle.run()

        drafts = []
        draft = EvolutionDriver.draft

        def spy(self, upto, *args, **kwargs):
            drafts.append(upto)
            return draft(self, upto, *args, **kwargs)

        monkeypatch.setattr(EvolutionDriver, "draft", spy)
        store = RunStore(tmp_path / "runs")
        key = RunKey("t", "windows")
        store.create_run(key, RunSpec(config=config, n_ranks=2, checkpoint_every=every))
        assert worker.run_job(str(store.root), "t", "windows") == 0
        progress = [e["generation"] for e in store.read_events(key) if e["type"] == "progress"]
        assert progress == drafts == ends
        assert np.array_equal(store.load_result(key).matrix, oracle.population.matrix())

        drafts.clear()
        traced = ParallelSimulation(
            config, 2, trace=True, checkpoint_dir=tmp_path / "traced", checkpoint_every=every
        ).run(timeout=120)
        events = traced.trace.events()
        assert [e.args["gen"] for e in events if e.name == "generation" and e.rank == 0] == (
            list(range(1, config.generations + 1))
        )
        assert [e.args["gen"] for e in events if e.name == "window"] == ends
        assert drafts == list(range(1, config.generations + 1))
        assert np.array_equal(traced.matrix, oracle.population.matrix())
