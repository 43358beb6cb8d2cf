"""Urllib client for the ``repro-serve`` HTTP API.

What the ``repro-sweep submit / watch / results`` subcommands, the tests,
and ``examples/serve_client.py`` talk through — one small class per daemon,
no third-party HTTP stack. Server-side errors (spec validation 400s,
unknown ids, not-done-yet 409s) raise :class:`ServeError` carrying the HTTP
status and the server's decoded error payload.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import asdict
from typing import Any, Dict, Iterator, List, Optional

from ..obs.metrics import METRICS
from ..pipeline.spec import SweepSpec

__all__ = ["ServeClient", "ServeError", "sweep_to_payload"]

DEFAULT_SERVER = "http://127.0.0.1:8642"

_TOKEN_ENV = "REPRO_SERVE_TOKEN"


class ServeError(RuntimeError):
    """An HTTP-level failure from the service."""

    def __init__(self, status: int, message: str, payload: Optional[Dict] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


def sweep_to_payload(sweep: SweepSpec) -> Dict[str, Any]:
    """A :class:`SweepSpec` as the JSON object ``POST /api/sweeps`` expects.

    Plain ``dataclasses.asdict``: tuples serialize as JSON arrays and the
    server's :func:`~repro.serve.server.build_sweep_spec` normalizes them
    back, so ``build_sweep_spec(sweep_to_payload(s))`` reproduces ``s`` —
    and therefore its job hashes — exactly.
    """
    return asdict(sweep)


class ServeClient:
    """One daemon's API surface, method per endpoint."""

    def __init__(
        self,
        base_url: str = DEFAULT_SERVER,
        timeout: float = 60.0,
        token: Optional[str] = None,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        """``token`` rides every request as ``Authorization: Bearer <token>``
        (the server only checks it on POSTs); defaults to the same
        ``REPRO_SERVE_TOKEN`` environment variable the daemon reads, so a
        client and server sharing an environment agree automatically.

        Connection failures retry up to ``retries`` extra times with
        exponential backoff starting at ``backoff`` seconds. GETs retry on
        any transport error, including a connection reset or closed while
        the response is read; non-GETs only on refused connections (the one
        failure mode that guarantees the server never saw the request, so
        re-sending a mutation stays safe). ``retries=0`` disables.
        """
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = (token if token is not None else os.environ.get(_TOKEN_ENV)) or None
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))

    @staticmethod
    def _retryable(method: str, exc: Exception) -> bool:
        if method == "GET":
            return True
        # urllib wraps only what fails while the request goes out; a bare
        # error was raised reading the response, after the server may have
        # acted on the request.
        return isinstance(exc, urllib.error.URLError) and isinstance(
            exc.reason, ConnectionError
        )

    # ------------------------------------------------------------- plumbing
    def _auth_headers(self) -> Dict[str, str]:
        if self.token is None:
            return {}
        return {"Authorization": f"Bearer {self.token}"}

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        data = None
        headers = {"Accept": "application/json", **self._auth_headers()}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        attempts = 0
        while True:
            req = urllib.request.Request(
                self.base_url + path, data=data, headers=headers, method=method
            )
            attempts += 1
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    body = resp.read()
                break
            except urllib.error.HTTPError as exc:
                raw = exc.read()
                try:
                    decoded = json.loads(raw.decode())
                except (UnicodeDecodeError, json.JSONDecodeError):
                    decoded = {"error": raw.decode("utf-8", "replace")[:500]}
                raise ServeError(
                    exc.code, str(decoded.get("error", exc.reason)), decoded
                ) from None
            except (
                urllib.error.URLError, ConnectionError, http.client.HTTPException
            ) as exc:
                if attempts <= self.retries and self._retryable(method, exc):
                    METRICS.incr("serve.client.retries")
                    time.sleep(self.backoff * (2 ** (attempts - 1)))
                    continue
                reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
                suffix = f" after {attempts} attempts" if attempts > 1 else ""
                raise ServeError(
                    0, f"cannot reach {self.base_url}: {reason}{suffix}"
                ) from exc
        if not body:
            return {}
        return json.loads(body.decode())

    # ------------------------------------------------------------ endpoints
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def submit(
        self,
        sweep: Any,
        *,
        label: str = "",
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        recompute: bool = False,
    ) -> Dict[str, Any]:
        """Submit a sweep (a :class:`SweepSpec` or an already-JSON dict);
        returns the acceptance payload (``sweep_id``, ``job_hashes``, …)."""
        if isinstance(sweep, SweepSpec):
            sweep = sweep_to_payload(sweep)
        options: Dict[str, Any] = {}
        if label:
            options["label"] = label
        if executor is not None:
            options["executor"] = executor
        if workers is not None:
            options["workers"] = workers
        if recompute:
            options["recompute"] = True
        return self._request(
            "POST", "/api/sweeps", {"sweep": sweep, "options": options}
        )

    def sweeps(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/api/sweeps")["sweeps"]

    def status(self, sweep_id: str, jobs: bool = False) -> Dict[str, Any]:
        suffix = "?jobs=1" if jobs else ""
        return self._request("GET", f"/api/sweeps/{sweep_id}{suffix}")

    def cancel(self, sweep_id: str) -> Dict[str, Any]:
        try:
            return self._request("POST", f"/api/sweeps/{sweep_id}/cancel")
        except ServeError as exc:
            if exc.status == 409:  # already terminal — report, don't raise
                return exc.payload
            raise

    def wait(
        self, sweep_id: str, timeout: float = 600.0, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the sweep is terminal; returns its final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(sweep_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"sweep {sweep_id} still {status['state']!r} after {timeout}s"
                )
            time.sleep(poll)

    def result(
        self,
        sweep_id: str,
        metric: str = "auto",
        pareto: Optional[tuple] = None,
    ) -> Dict[str, Any]:
        path = f"/api/sweeps/{sweep_id}/result?metric={metric}"
        if pareto:
            path += f"&pareto={pareto[0]},{pareto[1]}"
        return self._request("GET", path)

    def events(self, sweep_id: str) -> Iterator[Dict[str, Any]]:
        """The submission's SSE stream, one decoded event dict at a time.

        Replays history then follows live until the terminal state event;
        keepalive comments are filtered out.
        """
        req = urllib.request.Request(
            self.base_url + f"/api/sweeps/{sweep_id}/events",
            headers={"Accept": "text/event-stream", **self._auth_headers()},
        )
        resp = urllib.request.urlopen(req, timeout=self.timeout)
        try:
            data_lines: List[str] = []
            for raw in resp:
                line = raw.decode().rstrip("\r\n")
                if line.startswith(":"):
                    continue  # keepalive comment
                if line.startswith("data:"):
                    data_lines.append(line[5:].lstrip())
                elif not line and data_lines:
                    event = json.loads("\n".join(data_lines))
                    data_lines = []
                    yield event
                    if event.get("event") == "state" and event.get("state") in (
                        "done", "failed", "cancelled",
                    ):
                        return
        finally:
            resp.close()

    def runs(self, limit: Optional[int] = None) -> Dict[str, Any]:
        path = "/api/runs" + (f"?limit={limit}" if limit is not None else "")
        return self._request("GET", path)

    def run(self, run_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/api/runs/{run_id}")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/api/metrics")

    def metrics_text(self) -> str:
        req = urllib.request.Request(
            self.base_url + "/metrics", headers=self._auth_headers()
        )
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return resp.read().decode()

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/api/shutdown")
