"""Tests for the ``python -m repro.obs.report`` CLI and its renderer."""

import json
import subprocess
import sys

from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.report import main, render_report
from repro.obs.tracer import Tracer


def _traced_run() -> Tracer:
    tr = Tracer()
    tr.name_rank(0, "nature (rank 0)")
    tr.name_rank(1, "worker (rank 1)")
    for gen in (1, 2):
        t0 = gen * 100.0
        tr.complete("generation", ts=t0, dur=80.0, rank=0, args={"gen": gen})
        tr.complete("generation", ts=t0, dur=75.0, rank=1, args={"gen": gen})
        tr.complete("header", ts=t0 + 2, dur=6.0, rank=0, args={"gen": gen})
        fid = tr.new_flow_id()
        tr.msg_send(0, 1, 1, 32, ts=t0 + 10, dur=3.0, flow_id=fid)
        tr.msg_recv(1, 0, 1, 32, ts=t0 + 15, dur=2.0, flow_id=fid)
    tr.metrics.gauge("run.n_ranks").set(2)
    tr.metrics.inc("mpi.send.calls", 2)
    tr.metrics.inc("mpi.send.bytes", 64)
    return tr


class TestRenderReport:
    def test_sections_present(self):
        report = render_report(chrome_trace(_traced_run()), per_rank=True)
        assert "== generations ==" in report
        assert "== per-rank ==" in report
        assert "== metrics ==" in report
        assert "nature (rank 0)" in report
        assert "total 2 generations" in report
        assert "run.n_ranks" in report
        assert "send" in report

    def test_a_window_span_is_not_one_of_its_last_generations_phases(self):
        tr = _traced_run()
        tr.complete("window", ts=100.0, dur=180.0, rank=0, args={"gen": 2})
        report = render_report(chrome_trace(tr))
        assert "window=" not in report and "header=" in report

    def test_per_rank_off_by_default(self):
        report = render_report(chrome_trace(_traced_run()))
        assert "== per-rank ==" not in report

    def test_generation_cap(self):
        report = render_report(chrome_trace(_traced_run()), max_generations=1)
        assert "1 more generations" in report

    def test_trace_without_generations(self):
        report = render_report({"traceEvents": []})
        assert "no generation spans" in report


class TestMainCli:
    def test_ok(self, tmp_path, capsys):
        path = write_chrome_trace(_traced_run(), tmp_path / "t.json")
        assert main([str(path), "--per-rank"]) == 0
        out = capsys.readouterr().out
        assert "== generations ==" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_not_a_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hello": 1}))
        assert main([str(bad)]) == 2
        assert "not a Chrome trace-event" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        path = write_chrome_trace(_traced_run(), tmp_path / "t.json")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "== generations ==" in proc.stdout
