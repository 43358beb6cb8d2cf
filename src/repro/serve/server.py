"""The ``repro-serve`` HTTP daemon: stdlib-only sweep service.

One :class:`~http.server.ThreadingHTTPServer` in front of one shared
:class:`~repro.pipeline.scheduler.SweepScheduler`. Request threads only
translate HTTP ↔ scheduler calls; all execution happens on the scheduler's
worker pool, so a slow sweep never blocks polling, SSE, or further
submissions, and two clients submitting overlapping grids dedup in flight
through the scheduler's claim book.

Endpoints (all JSON unless noted):

==============================  ==============================================
``POST /api/sweeps``            submit ``{"sweep": {...}, "options": {...}}``;
                                spec-build errors come back as 400s
``GET /api/sweeps``             all submissions, oldest first
``GET /api/sweeps/<id>``        one submission's status (``?jobs=1`` adds
                                per-job states)
``POST /api/sweeps/<id>/cancel``  request cancellation
``GET /api/sweeps/<id>/result``   merged metrics + pivot (+ ``?pareto=x,y``
                                frontier); 409 until the sweep is done
``GET /api/sweeps/<id>/events``   live progress stream (``text/event-stream``)
``GET /api/runs``               run-ledger history (``?limit=N``), the same
                                records ``repro-sweep report --json`` prints
``GET /api/runs/<id>``          one ledger record (id, unique prefix, "last")
``GET /metrics``                METRICS registry, ``name value`` text lines
``GET /api/metrics``            the same snapshot as JSON + scheduler stats
``GET /healthz``                liveness + version
``POST /api/shutdown``          graceful stop (responds first, then exits)
``GET /``, ``/view/sweeps/<id>``  server-rendered HTML views (text/html)
==============================  ==============================================

Authentication is opt-in: set ``REPRO_SERVE_TOKEN`` and every *mutating*
endpoint (all POSTs — submit, cancel, shutdown) requires a matching
``Authorization: Bearer <token>`` header; reads stay open so dashboards and
``/metrics`` scrapers keep working. Without a token the daemon refuses to
bind beyond loopback — anyone who can reach an unauthenticated port can
submit compute.
"""

from __future__ import annotations

import argparse
import hmac
import json
import os
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..obs.ledger import RunLedger
from ..obs.metrics import METRICS
from ..pipeline.cache import ResultCache
from ..pipeline.executor import EXECUTORS
from ..pipeline.scheduler import TERMINAL_STATES, SweepHandle, SweepScheduler
from ..pipeline.spec import ExperimentSpec, SweepSpec
from . import views

__all__ = [
    "DEFAULT_PORT",
    "SweepServer",
    "TOKEN_ENV",
    "build_experiment_spec",
    "build_sweep_spec",
    "main",
    "start_in_thread",
]

DEFAULT_PORT = 8642

#: Environment variable holding the shared bearer token for mutating endpoints.
TOKEN_ENV = "REPRO_SERVE_TOKEN"

_LOOPBACK_HOSTS = ("127.0.0.1", "localhost", "::1")


def _authorized(handler: BaseHTTPRequestHandler) -> bool:
    """Bearer-token gate for mutating requests, on the sweep service and the
    ``repro-dist`` coordinator alike.

    No configured ``handler.server.token`` → everything is allowed
    (loopback-only mode). With a token, the ``Authorization: Bearer <token>``
    header must match (constant-time compare over UTF-8 bytes, so a
    non-ASCII credential is refused like any other wrong one); failures get
    a 401 through ``handler._error`` and are counted so an exposed server's
    probe traffic shows up on ``/metrics``.
    """
    expected = handler.server.token
    if not expected:
        return True
    supplied = handler.headers.get("Authorization") or ""
    scheme, _, credential = supplied.partition(" ")
    if scheme.lower() == "bearer" and hmac.compare_digest(
        credential.strip().encode(), expected.encode()
    ):
        return True
    METRICS.incr("serve.auth.rejected")
    handler._error(401, "missing or invalid bearer token "
                        f"(set the {TOKEN_ENV} token in an "
                        "'Authorization: Bearer <token>' header)")
    return False


_SWEEP_FIELDS = set(SweepSpec.__dataclass_fields__)
_SPEC_FIELDS = set(ExperimentSpec.__dataclass_fields__)
_PAIR_FIELDS = ("quant_kwargs", "hw_kwargs", "eval_kwargs")
_SUBMIT_OPTIONS = {"label", "executor", "workers", "recompute"}


def _as_pairs(value: Any, field: str) -> Any:
    """Normalize a kwargs field from the wire: dicts pass through (the spec's
    ``__post_init__`` canonicalizes them), JSON ``[[k, v], ...]`` pair lists
    — what tuples become after a round-trip — turn back into dicts."""
    if isinstance(value, dict):
        return value
    if isinstance(value, (list, tuple)):
        try:
            return {str(k): v for k, v in value}
        except (TypeError, ValueError):
            raise ValueError(
                f"field {field!r} must be an object or a [key, value] pair "
                f"list, got {value!r}"
            ) from None
    raise ValueError(f"field {field!r} must be an object, got {type(value).__name__}")


def build_experiment_spec(payload: Any) -> ExperimentSpec:
    """A validated :class:`ExperimentSpec` from its ``asdict`` JSON form —
    the single-spec sibling of :func:`build_sweep_spec`, shared with the
    distributed wire format (:mod:`repro.dist.wire`)."""
    if not isinstance(payload, dict):
        raise ValueError("each extra_specs entry must be a JSON object")
    unknown = sorted(set(payload) - _SPEC_FIELDS)
    if unknown:
        raise KeyError(
            f"unknown ExperimentSpec field(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(_SPEC_FIELDS))}"
        )
    kw = dict(payload)
    for field in _PAIR_FIELDS:
        if field in kw and kw[field] is not None:
            kw[field] = _as_pairs(kw[field], field)
    return ExperimentSpec(**kw)


def build_sweep_spec(payload: Any) -> SweepSpec:
    """A validated :class:`SweepSpec` from a JSON payload.

    Field names mirror the dataclass exactly (what
    :func:`~repro.serve.client.sweep_to_payload` emits); unknown fields and
    malformed values raise ``KeyError``/``ValueError`` — the handler maps
    both, plus the spec's own ``__post_init__`` validation, to HTTP 400s.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"sweep payload must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _SWEEP_FIELDS)
    if unknown:
        raise KeyError(
            f"unknown SweepSpec field(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(_SWEEP_FIELDS))}"
        )
    kw = dict(payload)
    for field in ("quant_kwargs", "hw_kwargs", "method_params", "arch_params"):
        if field in kw and kw[field] is not None:
            value = kw[field]
            if field in ("method_params", "arch_params"):
                # Both wire shapes land here: {target: {k: v}} objects and the
                # [[target, [[k, v], ...]], ...] pair lists asdict() emits.
                outer = _as_pairs(value, field)
                kw[field] = {
                    str(t): _as_pairs(v, f"{field}[{t}]") for t, v in outer.items()
                }
            else:
                kw[field] = _as_pairs(value, field)
    if kw.get("extra_specs"):
        kw["extra_specs"] = tuple(
            build_experiment_spec(entry) for entry in kw["extra_specs"]
        )
    return SweepSpec(**kw)


class SweepServer(ThreadingHTTPServer):
    """The service: a threading HTTP server bound to one scheduler."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        scheduler: SweepScheduler,
        quiet: bool = True,
        token: Optional[str] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.quiet = quiet
        self.token = token or None  # empty string means "no auth"
        self.started_at = time.time()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def ledger(self) -> Optional[RunLedger]:
        if self.scheduler.cache_dir is None:
            return None
        return RunLedger(ResultCache(self.scheduler.cache_dir).root / "runs")


class _Handler(BaseHTTPRequestHandler):
    server: SweepServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, indent=2, default=str).encode()
        self._send(code, body, "application/json")

    def _html(self, body: str, code: int = 200) -> None:
        self._send(code, body.encode(), "text/html; charset=utf-8")

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None

    def _handle(self) -> Optional[SweepHandle]:
        """The handle addressed by the current /…/sweeps/<id>… path, else a
        404 was sent."""
        sweep_id = self._path_parts[2]
        handle = self.server.scheduler.get(sweep_id)
        if handle is None:
            self._error(404, f"no sweep matching {sweep_id!r}")
        return handle

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            url = urlparse(self.path)
            self._query = parse_qs(url.query)
            parts = [p for p in url.path.split("/") if p]
            self._path_parts = parts
            if not parts:
                return self._html(views.render_index(self.server))
            if parts[0] == "healthz":
                return self._json(200, {
                    "ok": True,
                    "version": __version__,
                    "uptime_s": round(time.time() - self.server.started_at, 3),
                    "scheduler": self.server.scheduler.stats(),
                })
            if parts[0] == "metrics" and len(parts) == 1:
                snapshot = METRICS.snapshot()
                text = "".join(
                    f"{name} {value}\n" for name, value in sorted(snapshot.items())
                )
                return self._send(
                    200, text.encode(), "text/plain; charset=utf-8"
                )
            if parts[0] == "view" and len(parts) == 3 and parts[1] == "sweeps":
                handle = self._handle()
                if handle is not None:
                    self._html(views.render_sweep(handle))
                return None
            if parts[0] != "api":
                return self._error(404, f"unknown path {url.path!r}")
            return self._api_get(parts[1:])
        except BrokenPipeError:
            pass
        except Exception as exc:  # no stack traces over the wire
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except BrokenPipeError:
                pass

    def _api_get(self, parts: List[str]) -> None:
        if parts == ["metrics"]:
            return self._json(200, {
                "counters": METRICS.snapshot(),
                "scheduler": self.server.scheduler.stats(),
            })
        if parts == ["sweeps"]:
            return self._json(200, {
                "sweeps": [h.progress() for h in self.server.scheduler.sweeps()]
            })
        if parts and parts[0] == "sweeps" and len(parts) >= 2:
            handle = self.server.scheduler.get(parts[1])
            if handle is None:
                return self._error(404, f"no sweep matching {parts[1]!r}")
            if len(parts) == 2:
                payload = handle.progress()
                if self._query.get("jobs"):
                    payload["jobs"] = handle.job_states()
                return self._json(200, payload)
            if parts[2] == "result":
                return self._sweep_result(handle)
            if parts[2] == "events":
                return self._sweep_events(handle)
            return self._error(404, f"unknown sweep endpoint {parts[2]!r}")
        if parts and parts[0] == "runs":
            ledger = self.server.ledger()
            if ledger is None:
                return self._error(404, "the scheduler runs without a cache "
                                        "directory; there is no run ledger")
            if len(parts) == 1:
                limit = None
                if self._query.get("limit"):
                    limit = int(self._query["limit"][0])
                return self._json(200, ledger.history(limit=limit))
            record = ledger.get(parts[1])
            if record is None:
                return self._error(404, f"no run matching {parts[1]!r}")
            return self._json(200, record)
        return self._error(404, f"unknown API path {'/'.join(parts)!r}")

    def _sweep_result(self, handle: SweepHandle) -> None:
        state = handle.state
        if state != "done":
            code = 409 if state not in ("failed", "cancelled") else 410
            return self._json(code, {
                "error": f"sweep {handle.sweep_id} is {state}, not done",
                "state": state,
                "sweep_id": handle.sweep_id,
            })
        result = handle.result(timeout=0)
        metric = (self._query.get("metric") or ["auto"])[0]
        payload: Dict[str, Any] = {
            "sweep_id": handle.sweep_id,
            "state": state,
            "telemetry": result.telemetry,
            "records": result.records(),
            "pivot": result.pivot_table(metric),
        }
        if self._query.get("pareto"):
            try:
                x, _, y = self._query["pareto"][0].partition(",")
                payload["pareto"] = result.pareto(x or "auto", y or "energy_nj")
            except (KeyError, ValueError) as exc:
                return self._error(400, f"bad pareto axes: {exc}")
        self._json(200, payload)

    def _sweep_events(self, handle: SweepHandle) -> None:
        """SSE: replay the handle's event log, then stream live events until
        the terminal state event (or the client disconnects)."""
        past, live = handle.subscribe()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.end_headers()

            def write_event(event: Dict[str, Any]) -> bool:
                data = json.dumps(event, default=str)
                self.wfile.write(
                    f"event: {event.get('event', 'message')}\n"
                    f"data: {data}\n\n".encode()
                )
                self.wfile.flush()
                return (
                    event.get("event") == "state"
                    and event.get("state") in TERMINAL_STATES
                )

            finished = False
            for event in past:
                finished = write_event(event) or finished
            while not finished:
                try:
                    event = live.get(timeout=15.0)
                except queue.Empty:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                finished = write_event(event)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up but the sub
        finally:
            handle.unsubscribe(live)
            self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            url = urlparse(self.path)
            self._query = parse_qs(url.query)
            parts = [p for p in url.path.split("/") if p]
            self._path_parts = parts
            if not _authorized(self):
                return None
            if parts == ["api", "sweeps"]:
                return self._submit()
            if (
                len(parts) == 4
                and parts[:2] == ["api", "sweeps"]
                and parts[3] == "cancel"
            ):
                handle = self.server.scheduler.get(parts[2])
                if handle is None:
                    return self._error(404, f"no sweep matching {parts[2]!r}")
                accepted = handle.cancel()
                return self._json(200 if accepted else 409, {
                    "sweep_id": handle.sweep_id,
                    "cancelled": accepted,
                    "state": handle.state,
                })
            if parts == ["api", "shutdown"]:
                self._json(200, {"ok": True, "message": "shutting down"})
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
                return None
            return self._error(404, f"unknown API path {url.path!r}")
        except BrokenPipeError:
            pass
        except Exception as exc:
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except BrokenPipeError:
                pass

    def _submit(self) -> None:
        try:
            payload = self._read_json()
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            sweep = build_sweep_spec(payload.get("sweep") or {})
            options = payload.get("options") or {}
            if not isinstance(options, dict):
                raise ValueError("options must be a JSON object")
            unknown = sorted(set(options) - _SUBMIT_OPTIONS)
            if unknown:
                raise KeyError(
                    f"unknown option(s) {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(_SUBMIT_OPTIONS))}"
                )
            workers = options.get("workers")
            if workers is not None:
                workers = int(workers)
            handle = self.server.scheduler.submit(
                sweep,
                label=str(options.get("label", "")),
                executor=options.get("executor"),
                workers=workers,
                recompute=bool(options.get("recompute", False)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            # The spec's own validation errors carry the actionable message
            # (valid axis values, schema mismatches) in args[0].
            message = exc.args[0] if exc.args else str(exc)
            return self._error(400, str(message))
        self._json(201, {
            "sweep_id": handle.sweep_id,
            "n_jobs": len(handle.jobs),
            "spec_digest": handle.spec_digest,
            "job_hashes": [j.job_hash for j in handle.jobs],
            "url": f"/api/sweeps/{handle.sweep_id}",
        })


def start_in_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: Optional[str] = None,
    executor: str = "auto",
    workers: Optional[int] = None,
    max_concurrent: int = 2,
    token: Optional[str] = None,
) -> SweepServer:
    """A running service on a background thread (``port=0`` = OS-assigned;
    read the bound address off ``server.url``). Used by tests and
    ``examples/serve_client.py``; call ``server.shutdown()`` +
    ``server.scheduler.close()`` when done.

    ``token`` defaults to ``REPRO_SERVE_TOKEN``; a non-loopback ``host``
    without a token is refused outright rather than warned about."""
    if token is None:
        token = os.environ.get(TOKEN_ENV) or None
    if host not in _LOOPBACK_HOSTS and not token:
        raise ValueError(
            f"refusing to bind {host!r} without authentication: set "
            f"{TOKEN_ENV} (or pass token=) to expose the service beyond "
            "loopback"
        )
    scheduler = SweepScheduler(
        cache_dir=cache_dir,
        executor=executor,
        workers=workers,
        max_concurrent=max_concurrent,
    )
    server = SweepServer((host, port), scheduler, token=token)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    server._thread = thread
    return server


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-running sweep service over the shared scheduler: "
                    "submit SweepSpecs over HTTP, stream progress, fetch "
                    "merged results. Stdlib-only.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1; binding wider "
                             f"requires a {TOKEN_ENV} bearer token — see the "
                             "README)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="content-addressed result store shared with the "
                             "CLI ('none' disables persistence)")
    parser.add_argument("--executor", default="auto",
                        choices=["auto"] + sorted(EXECUTORS))
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--max-sweeps", type=int, default=2,
                        help="submissions executing concurrently (overlap is "
                             "what in-flight dedup feeds on)")
    parser.add_argument("--trace", action="store_true",
                        help="record span trees for every submission")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    args = parser.parse_args(argv)

    from ..plugins import load_plugins

    load_plugins()  # plugin methods/substrates/archs are valid axis values
    if args.trace:
        from ..obs.trace import TRACE_ENV, enable_tracing

        enable_tracing()
        os.environ[TRACE_ENV] = "1"

    token = os.environ.get(TOKEN_ENV) or None
    if args.host not in _LOOPBACK_HOSTS and not token:
        parser.error(
            f"refusing to bind {args.host!r} without authentication: set "
            f"{TOKEN_ENV} to expose the service beyond loopback"
        )
    cache_dir = None if args.cache_dir.lower() == "none" else args.cache_dir
    scheduler = SweepScheduler(
        cache_dir=cache_dir,
        executor=args.executor,
        workers=args.workers,
        max_concurrent=args.max_sweeps,
    )
    server = SweepServer(
        (args.host, args.port), scheduler, quiet=not args.verbose, token=token
    )
    print(f"repro-serve {__version__} listening on {server.url}")
    print(f"  cache: {cache_dir or '(disabled — results are not persisted)'}")
    print(f"  executor: {args.executor} · concurrent sweeps: {args.max_sweeps}")
    print(f"  auth: {'bearer token (POSTs)' if token else 'none (loopback only)'}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        scheduler.close(wait=False)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
