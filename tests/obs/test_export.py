"""Tests for the trace exporters: Chrome JSON shape, timelines, metrics dumps."""

import json

import pytest

from repro.obs.export import (
    TRACE_PID,
    chrome_trace,
    load_trace,
    metrics_json,
    timeline_text,
    write_chrome_trace,
)
from repro.obs.tracer import DRIVER_RANK, Tracer


def _sample_tracer() -> Tracer:
    """Two ranks, one generation with phases, one message flow, one instant."""
    tr = Tracer()
    tr.name_rank(0, "nature (rank 0)")
    tr.name_rank(1, "worker (rank 1)")
    tr.complete("generation", ts=0.0, dur=100.0, rank=0, args={"gen": 1})
    tr.complete("generation", ts=0.0, dur=90.0, rank=1, args={"gen": 1})
    tr.complete("header", ts=5.0, dur=10.0, rank=0, args={"gen": 1})
    fid = tr.new_flow_id()
    tr.msg_send(0, 1, 3, 64, ts=20.0, dur=4.0, flow_id=fid)
    tr.msg_recv(1, 0, 3, 64, ts=30.0, dur=2.0, flow_id=fid)
    tr.instant("degradation", rank=0, args={"gen": 1, "failed_rank": 1})
    tr.metrics.gauge("run.n_ranks").set(2)
    tr.metrics.inc("mpi.send.calls")
    return tr


class TestChromeTrace:
    def test_structure(self):
        doc = chrome_trace(_sample_tracer())
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"
        repro_meta = doc["metadata"]["repro"]
        assert repro_meta["rank_names"]["0"] == "nature (rank 0)"
        assert repro_meta["metrics"]["gauges"]["run.n_ranks"] == 2
        assert repro_meta["n_events"] == 8

    def test_per_rank_tracks_named_and_sorted(self):
        doc = chrome_trace(_sample_tracer())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        thread_names = {
            e["tid"]: e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        # tid = rank + 1
        assert thread_names == {1: "nature (rank 0)", 2: "worker (rank 1)"}
        assert all(e["pid"] == TRACE_PID for e in meta)

    def test_driver_rank_maps_to_tid_zero(self):
        tr = Tracer()
        tr.complete("setup", ts=0.0, dur=1.0, rank=DRIVER_RANK)
        doc = chrome_trace(tr)
        (slice_,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slice_["tid"] == 0

    def test_flow_events_share_id_and_bind_to_slices(self):
        doc = chrome_trace(_sample_tracer())
        events = doc["traceEvents"]
        (start,) = [e for e in events if e["ph"] == "s"]
        (finish,) = [e for e in events if e["ph"] == "f"]
        assert start["id"] == finish["id"] != 0
        assert finish["bp"] == "e"
        send = next(e for e in events if e.get("name") == "send")
        recv = next(e for e in events if e.get("name") == "recv")
        assert send["ts"] <= start["ts"] <= send["ts"] + send["dur"]
        assert recv["ts"] <= finish["ts"] <= recv["ts"] + recv["dur"]

    def test_zero_duration_slices_are_widened(self):
        tr = Tracer()
        tr.complete("blip", ts=1.0, dur=0.0, rank=0)
        doc = chrome_trace(tr)
        (slice_,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slice_["dur"] > 0

    def test_json_serialisable(self):
        json.dumps(chrome_trace(_sample_tracer()))


class TestWriteAndLoad:
    def test_round_trip(self, tmp_path):
        path = write_chrome_trace(_sample_tracer(), tmp_path / "sub" / "trace.json")
        assert path.exists()
        doc = load_trace(path)
        assert doc["metadata"]["repro"]["n_events"] == 8

    def test_load_rejects_non_trace(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_trace(bad)


class TestTimelineText:
    def test_lists_generations_phases_and_traffic(self):
        text = timeline_text(_sample_tracer())
        assert "generation" in text
        assert "header=" in text
        (gen_line,) = [ln for ln in text.splitlines() if ln.strip().startswith("1 ")]
        assert " 1 " in gen_line and "64" in gen_line  # one send, 64 bytes

    def test_a_window_span_is_not_one_of_its_last_generations_phases(self):
        tr = _sample_tracer()
        tr.complete("window", ts=0.0, dur=100.0, rank=0, args={"gen": 1})
        assert "window=" not in timeline_text(tr) and "header=" in timeline_text(tr)

    def test_empty_tracer(self):
        assert "no generation spans" in timeline_text(Tracer())

    def test_elision(self):
        tr = Tracer()
        for gen in range(1, 11):
            tr.complete("generation", ts=gen * 10.0, dur=5.0, rank=0, args={"gen": gen})
        text = timeline_text(tr, max_generations=3)
        assert "7 more generations elided" in text


class TestMetricsJson:
    def test_valid_json_with_metrics(self):
        doc = json.loads(metrics_json(_sample_tracer()))
        assert doc["counters"]["mpi.send.calls"] == 1
        assert doc["gauges"]["run.n_ranks"] == 2
