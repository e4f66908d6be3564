"""The run service and its REST/SSE front door.

:class:`RunService` is the service proper — submit/resume/preempt/fetch
against a :class:`~repro.io.runstore.RunStore` and
:class:`~repro.service.queue.JobQueue`, with experiment-registry ids
accepted as spec templates (:mod:`repro.experiments.templates`).  It has no
HTTP in it, so tests and embedders drive it directly.

The HTTP layer is a deliberately thin stdlib ``ThreadingHTTPServer``
translation of that API:

====== =========================================== ===========================
Method Path                                        Meaning
====== =========================================== ===========================
POST   ``/v1/runs``                                submit (spec or template)
GET    ``/v1/runs``                                list runs
GET    ``/v1/runs/{tenant}``                       list one tenant's runs
GET    ``/v1/runs/{tenant}/{run}``                 status
POST   ``/v1/runs/{tenant}/{run}/preempt``         preempt (requeues, free)
POST   ``/v1/runs/{tenant}/{run}/resume``          resume a stored run
GET    ``/v1/runs/{tenant}/{run}/result``          final matrix + counters
GET    ``/v1/runs/{tenant}/{run}/events``          event log so far
GET    ``/v1/runs/{tenant}/{run}/stream``          live SSE progress feed
GET    ``/v1/templates``                           templatable experiment ids
GET    ``/v1/healthz``                             liveness
GET    ``/v1/readyz``                              admitting work? (503 if not)
====== =========================================== ===========================

The SSE stream replays the run's event log from the start, then tails it
(:func:`repro.obs.stream.follow_events`) until the run is terminal — each
frame is ``event: <type>`` + ``data: <json>``, closing with ``event: end``.
Errors map onto status codes: unknown key 404, duplicate key 409, quota
429, bad spec/template 400, draining 503 (with a ``Retry-After`` header).

Durability: :class:`RunService` claims the store's epoch lease and replays
the service journal at construction (``recover=True``), so a service
restarted on the store of a SIGKILLed predecessor re-adopts its
interrupted runs automatically; :meth:`RunService.begin_drain` /
``close(drain=...)`` implement graceful shutdown (admission stops, workers
get a grace window, leftovers are journaled as resumable).  See
``docs/service.md``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import (
    ConfigError,
    DrainingError,
    ExperimentError,
    QuotaError,
    ReproError,
    RunStoreError,
    ServiceError,
    StaleLeaseError,
    UnknownRunError,
)
from repro.experiments.templates import spec_template, template_ids
from repro.io.runstore import RunStore
from repro.logging_util import get_logger
from repro.obs.stream import follow_events
from repro.obs.tracer import Tracer
from repro.parallel.spec import RunSpec, spec_from_dict
from repro.service.queue import JobQueue, JobStatus, RecoveryReport

__all__ = ["RunService", "RunServer", "serve"]

_LOG = get_logger("service.server")

_TERMINAL = ("done", "failed")


class RunService:
    """Submit, watch, preempt and fetch runs — the HTTP-free service core.

    Construction claims the store's epoch lease (fencing any earlier
    service still pointed at it) and, unless ``recover=False``, replays
    the service journal against the store: interrupted runs of a dead
    predecessor are re-adopted and resume from their latest valid
    checkpoint, stale status records are reconciled.  The report lands in
    :attr:`recovery`.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_workers: int = 2,
        quota: int = 4,
        quotas: dict[str, int] | None = None,
        recover: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        self.store = RunStore(root)
        self.queue = JobQueue(
            self.store,
            max_workers=max_workers,
            quota=quota,
            quotas=quotas,
            tracer=tracer,
        )
        self.recovery: RecoveryReport = (
            self.queue.recover() if recover else RecoveryReport()
        )

    # -- submission ----------------------------------------------------------

    def submit(self, tenant: str, run_id: str, spec: RunSpec) -> JobStatus:
        """Queue ``spec`` under ``tenant/run_id`` and return its status."""
        self.queue.submit(tenant, run_id, spec)
        return self.queue.status(tenant, run_id)

    def submit_payload(self, payload: dict) -> JobStatus:
        """Submit from a JSON payload (what POST ``/v1/runs`` carries).

        Two shapes: ``{"tenant", "run_id", "spec": {...}}`` with a full
        spec dict (``kind`` selects the family — evolution
        :class:`RunSpec` or :class:`~repro.spatial.spec.SpatialRunSpec`),
        or ``{"tenant", "run_id", "template": "fig2", "config": {...},
        "spec": {...}}`` expanding a registry template with config-factory
        and spec-field overrides.
        """
        if not isinstance(payload, dict):
            raise ConfigError("the submission payload must be a JSON object")
        tenant = payload.get("tenant")
        run_id = payload.get("run_id")
        if not tenant or not run_id:
            raise ConfigError("a submission needs 'tenant' and 'run_id'")
        template = payload.get("template")
        if template is not None:
            spec = spec_template(
                template,
                config_overrides=payload.get("config") or {},
                **(payload.get("spec") or {}),
            )
        else:
            if "spec" not in payload:
                raise ConfigError("a submission needs a 'spec' or a 'template'")
            spec = spec_from_dict(payload["spec"])
        return self.submit(tenant, run_id, spec)

    def resume(self, tenant: str, run_id: str) -> JobStatus:
        """Re-drive a stored run from its latest valid checkpoint."""
        self.queue.resume(tenant, run_id)
        return self.queue.status(tenant, run_id)

    def preempt(self, tenant: str, run_id: str) -> JobStatus:
        """Preempt a running job (it requeues, budget untouched)."""
        self.queue.preempt(tenant, run_id)
        return self.queue.status(tenant, run_id)

    # -- reading back --------------------------------------------------------

    def status(self, tenant: str, run_id: str) -> JobStatus:
        return self.queue.status(tenant, run_id)

    def result_payload(self, tenant: str, run_id: str) -> dict:
        """The stored result as JSON-safe primitives (404 material if absent)."""
        key = self.store.key(tenant, run_id)
        if not self.store.exists(key):
            raise UnknownRunError(f"no run {key} in the store")
        if not self.store.has_result(key):
            raise ServiceError(f"run {key} has no result yet")
        stored = self.store.load_result(key)
        return {
            "tenant": tenant,
            "run_id": run_id,
            "generation": stored.generation,
            "attempts": stored.attempts,
            "n_pc_events": stored.n_pc_events,
            "n_adoptions": stored.n_adoptions,
            "n_mutations": stored.n_mutations,
            "dtype": str(stored.matrix.dtype),
            "matrix": stored.matrix.tolist(),
            "digest": stored.meta.get("digest"),
        }

    def events(self, tenant: str, run_id: str) -> list[dict]:
        key = self.store.key(tenant, run_id)
        if not self.store.exists(key):
            raise UnknownRunError(f"no run {key} in the store")
        return self.store.read_events(key)

    def stream(self, tenant: str, run_id: str, *, poll: float = 0.05, timeout: float | None = None):
        """The run's events live: replay, then tail until terminal.

        A run this service's queue owns is waited for on its job's done
        event, so the last read and the end of the stream follow the reap at
        once (``poll`` only paces the progress frames before that); any
        other run — stored, or owned by the queue that fenced this one — is
        polled for a terminal status every ``poll`` seconds.

        Returns an iterator; the unknown-key check happens *here*, eagerly,
        so the HTTP layer can 404 before committing to a 200 SSE response.
        """
        key = self.store.key(tenant, run_id)
        if not self.store.exists(key):
            raise UnknownRunError(f"no run {key} in the store")

        def terminal() -> bool:
            try:
                return self.queue.status(tenant, run_id).state in _TERMINAL
            except ReproError:
                return True

        done = self.queue.done_event(tenant, run_id)
        stop, wait = (terminal, time.sleep) if done is None else (done.is_set, done.wait)
        return follow_events(
            self.store.events_path(key), poll=poll, stop=stop, wait=wait, timeout=timeout
        )

    def list_runs(self, tenant: str | None = None) -> list[dict]:
        """Every stored run's status (live where the queue knows it)."""
        out = []
        tenants = [tenant] if tenant is not None else self.store.list_tenants()
        for t in tenants:
            for run_id in self.store.list_runs(t):
                out.append(self.queue.status(t, run_id).to_dict())
        return out

    # -- lifecycle -----------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Whether the service admits new work (not draining, not fenced)."""
        return not (self.queue.draining or self.queue.fenced)

    def begin_drain(self, grace: float = 30.0) -> None:
        """Stop admission now; shut down after ``grace`` seconds (async).

        Submissions raise :class:`~repro.errors.DrainingError` (503 over
        HTTP) immediately; running workers get the grace window to finish,
        then are killed and journaled as resumable — the next service on
        this store re-adopts them.  Returns at once; the drain runs on a
        background thread (the SIGTERM handler's shape).
        """
        threading.Thread(
            target=self.close, kwargs={"drain": grace},
            name="repro-service-drain", daemon=True,
        ).start()

    def close(self, *, drain: float | None = None) -> None:
        self.queue.close(drain=drain)

    def __enter__(self) -> "RunService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- HTTP layer ---------------------------------------------------------------

_RUN_PATH = re.compile(
    r"^/v1/runs/(?P<tenant>[^/]+)/(?P<run_id>[^/]+)(?:/(?P<verb>[a-z]+))?$"
)


def _error_status(exc: Exception) -> int:
    if isinstance(exc, UnknownRunError):
        return 404
    if isinstance(exc, QuotaError):
        return 429
    if isinstance(exc, DrainingError):
        return 503
    if isinstance(exc, (RunStoreError, StaleLeaseError)):
        return 409
    if isinstance(exc, (ConfigError, ExperimentError)):
        return 400
    return 400 if isinstance(exc, ServiceError) else 500


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP onto the owning :class:`RunService`."""

    protocol_version = "HTTP/1.1"
    service: RunService  # set by RunServer

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # route to our logger
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _send_json(
        self, payload, status: int = 200, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, exc: Exception) -> None:
        headers = None
        if isinstance(exc, DrainingError):
            # Tell well-behaved clients when the *next* service instance is
            # worth trying (roughly the drain grace window).
            headers = {"Retry-After": str(max(1, round(exc.retry_after)))}
        self._send_json(
            {"error": f"{type(exc).__name__}: {exc}"},
            status=_error_status(exc),
            headers=headers,
        )

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") from exc

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        try:
            if self.path == "/v1/healthz":
                self._send_json({"ok": True})
            elif self.path == "/v1/readyz":
                if self.service.ready:
                    self._send_json({"ready": True})
                else:
                    self._send_json(
                        {"ready": False, "reason": "draining or fenced"},
                        status=503,
                        headers={"Retry-After": "30"},
                    )
            elif self.path == "/v1/templates":
                self._send_json({"templates": template_ids()})
            elif self.path == "/v1/runs":
                self._send_json({"runs": self.service.list_runs()})
            elif (m := re.match(r"^/v1/runs/(?P<tenant>[^/]+)$", self.path)) is not None:
                self._send_json({"runs": self.service.list_runs(m["tenant"])})
            elif (m := _RUN_PATH.match(self.path)) is not None:
                self._get_run(m["tenant"], m["run_id"], m["verb"])
            else:
                self._send_json({"error": f"no route {self.path}"}, status=404)
        except Exception as exc:  # noqa: BLE001 - every error becomes a response
            self._send_error_json(exc)

    def _get_run(self, tenant: str, run_id: str, verb: str | None) -> None:
        if verb is None:
            self._send_json(self.service.status(tenant, run_id).to_dict())
        elif verb == "result":
            self._send_json(self.service.result_payload(tenant, run_id))
        elif verb == "events":
            self._send_json({"events": self.service.events(tenant, run_id)})
        elif verb == "stream":
            self._stream_run(tenant, run_id)
        else:
            self._send_json({"error": f"no GET verb {verb!r}"}, status=404)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        try:
            if self.path == "/v1/runs":
                status = self.service.submit_payload(self._read_body())
                self._send_json(status.to_dict(), status=201)
                return
            m = _RUN_PATH.match(self.path)
            if m is None or m["verb"] not in ("preempt", "resume"):
                self._send_json({"error": f"no route {self.path}"}, status=404)
                return
            action = self.service.preempt if m["verb"] == "preempt" else self.service.resume
            self._send_json(action(m["tenant"], m["run_id"]).to_dict())
        except Exception as exc:  # noqa: BLE001
            self._send_error_json(exc)

    # -- SSE -----------------------------------------------------------------

    def _stream_run(self, tenant: str, run_id: str) -> None:
        events = self.service.stream(tenant, run_id)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE has no length; close delimits the stream.
        self.send_header("Connection", "close")
        self.end_headers()
        seq = 0
        try:
            for event in events:
                frame = (
                    f"id: {seq}\n"
                    f"event: {event.get('type', 'message')}\n"
                    f"data: {json.dumps(event)}\n\n"
                )
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                seq += 1
            self.wfile.write(b"id: %d\nevent: end\ndata: {}\n\n" % seq)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # subscriber hung up; the run does not care
        finally:
            self.close_connection = True


class RunServer:
    """A :class:`RunService` behind a threading stdlib HTTP server.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`),
    which is how the tests run many servers side by side.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 2,
        quota: int = 4,
        quotas: dict[str, int] | None = None,
        recover: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        self.service = RunService(
            root,
            max_workers=max_workers,
            quota=quota,
            quotas=quotas,
            recover=recover,
            tracer=tracer,
        )
        handler = type("_BoundHandler", (_Handler,), {"service": self.service})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RunServer":
        """Serve in a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        _LOG.info("run service listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's mode)."""
        _LOG.info("run service listening on %s", self.url)
        self.httpd.serve_forever(poll_interval=0.05)

    def drain(self, grace: float = 30.0) -> None:
        """Graceful shutdown: 503 new submissions now, stop after ``grace``.

        The HTTP listener stays up through the grace window so clients can
        still poll status, stream events and fetch results; only admission
        is refused.  Blocks until the drain completes, then closes.
        """
        self.service.close(drain=grace)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.service.close()

    def __enter__(self) -> "RunServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(
    root: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    max_workers: int = 2,
    quota: int = 4,
    quotas: dict[str, int] | None = None,
) -> RunServer:
    """Build and start a background :class:`RunServer` (the embedding API)."""
    return RunServer(
        root, host=host, port=port, max_workers=max_workers, quota=quota, quotas=quotas
    ).start()
