"""Tests for the REST/SSE server and its urllib client."""

import json
import urllib.request

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.parallel import RunSpec
from repro.population.dynamics import EvolutionDriver
from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.server import RunServer

pytestmark = pytest.mark.service


def _spec(generations=30, seed=3, **kwargs) -> RunSpec:
    kwargs.setdefault("n_ranks", 2)
    kwargs.setdefault("checkpoint_every", 10)
    return RunSpec(
        config=SimulationConfig(n_ssets=8, generations=generations, seed=seed),
        **kwargs,
    )


@pytest.fixture
def server(tmp_path):
    with RunServer(tmp_path / "runs", max_workers=2, quota=2) as srv:
        yield srv.start()


@pytest.fixture
def client(server) -> ServiceClient:
    return ServiceClient(server.url)


class TestBasics:
    def test_health_and_templates(self, client):
        assert client.health() is True
        assert client.templates() == ["fig2", "memory-cooperation", "spatial-phase", "spatial-noise"]

    def test_health_false_when_unreachable(self):
        assert ServiceClient("http://127.0.0.1:9", timeout=0.5).health() is False

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server.url}/v1/nothing")
        assert err.value.code == 404


class TestSubmitAndFetch:
    def test_submit_run_fetch_result(self, client):
        config = SimulationConfig(n_ssets=8, generations=30, seed=3)
        driver = EvolutionDriver(config)
        driver.run()

        status = client.submit("alice", "r1", spec=_spec())
        assert status["state"] in ("queued", "running")
        final = client.wait("alice", "r1", timeout=60)
        assert final["state"] == "done"
        fetched = client.result("alice", "r1")
        assert np.array_equal(fetched.matrix, driver.population.matrix())
        assert fetched.matrix.dtype == driver.population.matrix().dtype
        assert fetched.generation == 30

    def test_submit_by_template(self, client):
        status = client.submit(
            "alice", "fig2-small",
            template="fig2",
            config={"n_ssets": 8, "generations": 20},
            spec_overrides={"n_ranks": 2},
        )
        assert status["name"] == "fig2"
        assert client.wait("alice", "fig2-small", timeout=60)["state"] == "done"

    def test_runs_listing(self, client):
        client.submit("alice", "r1", spec=_spec())
        client.submit("bob", "r1", spec=_spec(seed=4))
        client.wait("alice", "r1", timeout=60)
        client.wait("bob", "r1", timeout=60)
        everyone = client.runs()
        assert {(r["tenant"], r["run_id"]) for r in everyone} == {
            ("alice", "r1"), ("bob", "r1"),
        }
        assert [r["tenant"] for r in client.runs("bob")] == ["bob"]

    def test_events_endpoint(self, client):
        client.submit("alice", "r1", spec=_spec())
        client.wait("alice", "r1", timeout=60)
        events = client.events("alice", "r1")
        kinds = {e["type"] for e in events}
        assert "progress" in kinds and "done" in kinds


class TestErrorMapping:
    def test_unknown_run_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.status("alice", "ghost")
        assert err.value.status == 404

    def test_duplicate_key_is_409(self, client):
        client.submit("alice", "r1", spec=_spec())
        client.wait("alice", "r1", timeout=60)
        with pytest.raises(ServiceHTTPError) as err:
            client.submit("alice", "r1", spec=_spec())
        assert err.value.status == 409

    def test_quota_is_429(self, client):
        client.submit("alice", "r1", spec=_spec(generations=200))
        client.submit("alice", "r2", spec=_spec(generations=200))
        with pytest.raises(ServiceHTTPError) as err:
            client.submit("alice", "r3", spec=_spec())
        assert err.value.status == 429

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.submit("alice", "r1", spec={"config": {}, "n_ranks": 0})
        assert err.value.status == 400

    def test_bad_template_is_400(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.submit("alice", "r1", template="table6")
        assert err.value.status == 400

    def test_result_before_finish_is_400(self, client):
        client.submit("alice", "r1", spec=_spec(generations=100_000))
        with pytest.raises(ServiceHTTPError) as err:
            client.result("alice", "r1")
        assert err.value.status == 400

    def test_stream_unknown_run_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            list(client.stream("alice", "ghost"))
        assert err.value.status == 404


class TestStream:
    def test_stream_replays_and_ends(self, client):
        client.submit("alice", "r1", spec=_spec())
        client.wait("alice", "r1", timeout=60)
        # A second subscriber after completion replays the whole feed.
        events = list(client.stream("alice", "r1", timeout=30))
        gens = [p["generation"] for k, p in events if k == "progress"]
        assert gens == list(range(1, 31))
        assert events[-1][0] == "done"

    def test_live_stream_is_strictly_increasing(self, client):
        client.submit("alice", "r1", spec=_spec(generations=120))
        gens = [
            p["generation"]
            for k, p in client.stream("alice", "r1", timeout=60)
            if k == "progress"
        ]
        assert gens == sorted(set(gens))
        assert gens[-1] == 120


class TestPreemptResume:
    def test_preempt_over_http(self, client):
        client.submit("alice", "r1", spec=_spec(generations=3000))
        status = client.preempt("alice", "r1")
        assert status["state"] in ("queued", "running")
        assert client.wait("alice", "r1", timeout=120)["state"] == "done"

    def test_resume_finished_run_is_400(self, client):
        client.submit("alice", "r1", spec=_spec())
        client.wait("alice", "r1", timeout=60)
        with pytest.raises(ServiceHTTPError) as err:
            client.resume("alice", "r1")
        assert err.value.status == 400


class TestCLI:
    def test_submit_status_result_roundtrip(self, server, tmp_path, capsys):
        from repro.service.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(_spec().to_dict()), encoding="utf-8")
        assert main([
            "submit", "--url", server.url, "--tenant", "alice", "--run-id", "r1",
            "--spec-file", str(spec_file),
        ]) == 0
        assert main([
            "watch", "--url", server.url, "--tenant", "alice", "--run-id", "r1",
            "--timeout", "60",
        ]) == 0
        out_npz = tmp_path / "result.npz"
        assert main([
            "result", "--url", server.url, "--tenant", "alice", "--run-id", "r1",
            "--out", str(out_npz),
        ]) == 0
        assert out_npz.exists()
        out = capsys.readouterr().out
        assert "generation 30" in out
        assert "final state: done" in out

    def test_submit_template_with_overrides(self, server, capsys):
        from repro.service.cli import main

        assert main([
            "submit", "--url", server.url, "--tenant", "alice", "--run-id", "t1",
            "--template", "fig2",
            "--config", "n_ssets=8", "generations=20",
            "--spec", "n_ranks=2",
        ]) == 0
        assert main([
            "watch", "--url", server.url, "--tenant", "alice", "--run-id", "t1",
            "--timeout", "60",
        ]) == 0

    def test_templates_and_runs_listing(self, server, capsys):
        from repro.service.cli import main

        assert main(["templates", "--url", server.url]) == 0
        assert "fig2" in capsys.readouterr().out
        assert main(["runs", "--url", server.url]) == 0

    def test_client_error_exits_nonzero(self, server, capsys):
        from repro.service.cli import main

        assert main([
            "status", "--url", server.url, "--tenant", "alice", "--run-id", "ghost",
        ]) == 1
        assert "error:" in capsys.readouterr().err
