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
        ``mutation`` span on the worker, per window Nature's ``header``,
        ``heartbeat`` and ``checkpoint`` — and the star's messages; the
        names-only tap the ``generation`` span of each of the two ranks,
        nothing else."""
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
            assert [
                e.args["gen"] for e in seen if e.name == "generation" and e.rank == 0
            ] == list(range(1, generations + 1))
            counts[label] = len(seen)
            phases[label] = Counter(
                (e.name, e.rank) for e in seen if e.ph == "X" and e.cat == "phase"
            )
        assert phases["names"] == {("generation", 0): generations, ("generation", 1): generations}
        assert counts["names"] == 2 * generations
        assert phases["full"] == {
            ("generation", 0): generations,
            ("generation", 1): generations,
            ("play", 1): generations,
            ("mutation", 1): generations,
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
        assert progress["process"] == progress["thread"] == list(range(1, 41))
