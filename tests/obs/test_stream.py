"""Tests for the streamable event tap and its JSONL transport."""

import json
import threading

import numpy as np
import pytest

from repro.obs.stream import (
    EventTap,
    event_to_dict,
    follow_events,
    jsonl_event_writer,
    read_events,
)
from repro.obs.tracer import TraceEvent


class TestEventTap:
    def test_subscribers_see_every_event(self):
        seen = []
        tap = EventTap([seen.append])
        tap.instant("alpha", args={"gen": 1})
        with tap.span("beta"):
            pass
        assert [e.name for e in seen] == ["alpha", "beta"]
        # and the tap still records like a normal tracer
        assert [e.name for e in tap.events()] == ["alpha", "beta"]

    def test_keep_events_false_is_pure_pipe(self):
        seen = []
        tap = EventTap([seen.append], keep_events=False)
        tap.instant("alpha")
        assert len(seen) == 1
        assert len(tap.events()) == 0

    def test_broken_subscriber_does_not_break_the_run(self):
        seen = []

        def explode(event):
            raise RuntimeError("watcher bug")

        tap = EventTap([explode, seen.append])
        tap.instant("alpha")  # must not raise
        assert [e.name for e in seen] == ["alpha"]

    def test_tap_does_not_change_what_is_recorded(self):
        plain_events = []
        from repro.obs.tracer import Tracer

        plain = Tracer(epoch=0.0)
        tap = EventTap([plain_events.append], epoch=0.0)
        for tracer in (plain, tap):
            tracer.instant("x", args={"k": 1})
        assert plain.events()[0].name == tap.events()[0].name
        assert plain.events()[0].args == tap.events()[0].args


class TestEventToDict:
    def test_round_trips_through_json(self):
        event = TraceEvent(ph="i", name="gen", cat="phase", rank=2, ts=12.5,
                           args={"gen": 7})
        payload = json.loads(json.dumps(event_to_dict(event)))
        assert payload == {
            "name": "gen", "ph": "i", "cat": "phase", "rank": 2, "ts": 12.5,
            "args": {"gen": 7},
        }

    def test_missing_args_become_empty_dict(self):
        event = TraceEvent(ph="i", name="gen", cat="phase", rank=0, ts=0.0)
        assert event_to_dict(event)["args"] == {}


class TestJsonlTransport:
    def _instant(self, name, rank=0, **args):
        return TraceEvent(ph="i", name=name, cat="phase", rank=rank, ts=0.0,
                          args=args or None)

    def test_writer_appends_parseable_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write = jsonl_event_writer(path)
        write(self._instant("alpha", gen=1))
        write(self._instant("beta", gen=2))
        write.close()
        events = read_events(path)
        assert [e["name"] for e in events] == ["alpha", "beta"]

    def test_writer_name_filter(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write = jsonl_event_writer(path, names=("keep",))
        write(self._instant("keep"))
        write(self._instant("drop"))
        write.close()
        assert [e["name"] for e in read_events(path)] == ["keep"]

    def test_writer_transform_and_drop(self, tmp_path):
        path = tmp_path / "events.jsonl"

        def transform(event):
            if event.name == "drop":
                return None
            return {"renamed": event.name}

        write = jsonl_event_writer(path, transform=transform)
        write(self._instant("alpha"))
        write(self._instant("drop"))
        write.close()
        assert read_events(path) == [{"renamed": "alpha"}]

    def test_read_events_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"name": "ok"}\n{"name": "torn', encoding="utf-8")
        assert read_events(path) == [{"name": "ok"}]

    def test_read_events_missing_file(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []


class TestFollowEvents:
    def test_tails_a_growing_file_until_stop(self, tmp_path):
        path = tmp_path / "events.jsonl"
        done = threading.Event()

        def write_slowly():
            with open(path, "w", encoding="utf-8") as fh:
                for i in range(5):
                    fh.write(json.dumps({"n": i}) + "\n")
                    fh.flush()
            done.set()

        writer = threading.Thread(target=write_slowly)
        writer.start()
        got = [e["n"] for e in follow_events(path, poll=0.01, stop=done.is_set)]
        writer.join()
        assert got == [0, 1, 2, 3, 4]

    def test_waits_for_file_to_appear(self, tmp_path):
        path = tmp_path / "late.jsonl"
        stop = threading.Event()

        def create_late():
            path.write_text('{"n": 1}\n', encoding="utf-8")
            stop.set()

        t = threading.Timer(0.05, create_late)
        t.start()
        got = list(follow_events(path, poll=0.01, stop=stop.is_set))
        t.join()
        assert got == [{"n": 1}]

    def test_idle_timeout_ends_iteration(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"n": 1}\n', encoding="utf-8")
        got = list(follow_events(path, poll=0.01, timeout=0.1))
        assert got == [{"n": 1}]

    def test_partial_line_held_until_complete(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stop = threading.Event()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"n": ')
            fh.flush()
            it = follow_events(path, poll=0.01, stop=stop.is_set)
            fh.write("1}\n")
            fh.flush()
            stop.set()
            assert list(it) == [{"n": 1}]

    def test_lines_written_just_before_stop_are_not_lost(self, tmp_path):
        """The writer appends and signals stop between the follower's read
        and its stop check: the lines must still be yielded."""
        path = tmp_path / "events.jsonl"
        path.write_text("", encoding="utf-8")

        def stop():
            if path.stat().st_size == 0:
                path.write_text('{"n": 1}\n', encoding="utf-8")
            return True

        assert list(follow_events(path, poll=0.01, stop=stop)) == [{"n": 1}]


@pytest.mark.recovery
class TestTapOnRealRun:
    def test_tapped_parallel_run_stays_bit_identical(self, tmp_path):
        from repro.config import SimulationConfig
        from repro.parallel import ParallelSimulation
        from repro.population.dynamics import EvolutionDriver

        config = SimulationConfig(n_ssets=8, generations=30, seed=5)
        driver = EvolutionDriver(config)
        driver.run()

        gens = []

        def watch(event):
            if event.name == "generation" and event.rank == 0:
                gens.append(event.args["gen"])

        tap = EventTap([watch], keep_events=False)
        result = ParallelSimulation(config, n_ranks=3, trace=tap).run(timeout=300)
        assert np.array_equal(result.matrix, driver.population.matrix())
        assert gens == list(range(1, 31))
