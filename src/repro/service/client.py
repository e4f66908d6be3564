"""The service client: the run server's API as plain Python calls.

:class:`ServiceClient` speaks the REST/SSE surface of
:mod:`repro.service.server` over stdlib ``urllib`` — no extra
dependencies, same wire shapes.  Results come back as real arrays
(:class:`FetchedResult`), and :meth:`ServiceClient.stream` turns the SSE
feed into an iterator of ``(event_type, payload)`` pairs, so::

    client = ServiceClient("http://127.0.0.1:8642")
    client.submit("alice", "demo", template="fig2", config={"generations": 200})
    for kind, payload in client.stream("alice", "demo"):
        if kind == "progress":
            print(payload["generation"])
    matrix = client.result("alice", "demo").matrix

Server-side errors surface as :class:`ServiceHTTPError` carrying the HTTP
status and the server's rendered message.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ServiceError

__all__ = ["ServiceClient", "ServiceHTTPError", "FetchedResult"]


class ServiceHTTPError(ServiceError):
    """A non-2xx response from the run server (carries the HTTP status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)


@dataclass(frozen=True)
class FetchedResult:
    """A run result fetched over the wire, rehydrated to arrays."""

    matrix: np.ndarray
    generation: int
    attempts: int
    n_pc_events: int
    n_adoptions: int
    n_mutations: int
    digest: str | None


class ServiceClient:
    """Talk to one run server at ``base_url``."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", str(exc))
            except Exception:  # noqa: BLE001 - any unparsable body
                message = str(exc)
            raise ServiceHTTPError(exc.code, message) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach run server at {self.base_url}: {exc.reason}") from exc

    # -- API -----------------------------------------------------------------

    def ready(self) -> bool:
        """Whether the server currently admits new submissions.

        ``False`` while the server drains (it answers ``/v1/readyz`` with
        503 + ``Retry-After``) or cannot be reached; a draining server may
        still serve status, events and results.
        """
        try:
            return bool(self._request("GET", "/v1/readyz").get("ready"))
        except ServiceError:
            return False

    def templates(self) -> list[str]:
        """Experiment ids the server accepts as spec templates."""
        return list(self._request("GET", "/v1/templates")["templates"])

    def submit(
        self,
        tenant: str,
        run_id: str,
        *,
        spec=None,
        template: str | None = None,
        config: dict | None = None,
        spec_overrides: dict | None = None,
    ) -> dict:
        """Submit a run: either a full ``spec`` (a
        :class:`~repro.parallel.spec.RunSpec` or its dict form) or a
        ``template`` id with optional ``config``/``spec_overrides``."""
        payload: dict = {"tenant": tenant, "run_id": run_id}
        if template is not None:
            payload["template"] = template
            if config:
                payload["config"] = config
            if spec_overrides:
                payload["spec"] = spec_overrides
        elif spec is not None:
            payload["spec"] = spec if isinstance(spec, dict) else spec.to_dict()
        else:
            raise ServiceError("submit needs a spec or a template id")
        return self._request("POST", "/v1/runs", payload)

    def status(self, tenant: str, run_id: str) -> dict:
        return self._request("GET", f"/v1/runs/{tenant}/{run_id}")

    def preempt(self, tenant: str, run_id: str) -> dict:
        return self._request("POST", f"/v1/runs/{tenant}/{run_id}/preempt", {})

    def resume(self, tenant: str, run_id: str) -> dict:
        return self._request("POST", f"/v1/runs/{tenant}/{run_id}/resume", {})

    def runs(self, tenant: str | None = None) -> list[dict]:
        path = "/v1/runs" if tenant is None else f"/v1/runs/{tenant}"
        return list(self._request("GET", path)["runs"])

    def events(self, tenant: str, run_id: str) -> list[dict]:
        return list(self._request("GET", f"/v1/runs/{tenant}/{run_id}/events")["events"])

    def result(self, tenant: str, run_id: str) -> FetchedResult:
        """Fetch the stored result, rebuilt as a real matrix."""
        payload = self._request("GET", f"/v1/runs/{tenant}/{run_id}/result")
        return FetchedResult(
            matrix=np.array(payload["matrix"], dtype=np.dtype(payload["dtype"])),
            generation=int(payload["generation"]),
            attempts=int(payload["attempts"]),
            n_pc_events=int(payload["n_pc_events"]),
            n_adoptions=int(payload["n_adoptions"]),
            n_mutations=int(payload["n_mutations"]),
            digest=payload.get("digest"),
        )

    def stream(
        self, tenant: str, run_id: str, *, timeout: float | None = None
    ) -> Iterator[tuple[str, dict]]:
        """Follow the run's SSE feed, yielding ``(event_type, payload)``.

        Replays the event log from the start, then yields live until the
        server sends its ``end`` frame (the run reached a terminal state).
        ``timeout`` is the socket read timeout — it must exceed the longest
        silent stretch you expect between events.
        """
        req = urllib.request.Request(f"{self.base_url}/v1/runs/{tenant}/{run_id}/stream")
        try:
            resp = urllib.request.urlopen(
                req, timeout=self.timeout if timeout is None else timeout
            )
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", str(exc))
            except Exception:  # noqa: BLE001
                message = str(exc)
            raise ServiceHTTPError(exc.code, message) from exc
        with resp:
            kind = "message"
            data_lines: list[str] = []
            for raw in resp:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event:"):
                    kind = line.split(":", 1)[1].strip()
                elif line.startswith("data:"):
                    data_lines.append(line.split(":", 1)[1].strip())
                elif line == "":
                    if data_lines:
                        payload = json.loads("\n".join(data_lines))
                        if kind == "end":
                            return
                        yield kind, payload
                    kind, data_lines = "message", []

    def wait(self, tenant: str, run_id: str, *, timeout: float | None = None) -> dict:
        """Stream until the run is terminal, then return its final status."""
        for _kind, _payload in self.stream(tenant, run_id, timeout=timeout):
            pass
        return self.status(tenant, run_id)
