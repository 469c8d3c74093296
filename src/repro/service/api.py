"""JSON-over-HTTP API of the online dispatch service (stdlib only).

A :class:`DispatchServer` wraps a :class:`~repro.service.engine.DispatchEngine`
in a ``ThreadingHTTPServer`` — no framework, no new dependencies — exposing
the operational loop a platform needs:

=========  ===============  ====================================================
method     path             effect
=========  ===============  ====================================================
``POST``   ``/tasks``       enqueue tasks (absolute-hour expiries)
``POST``   ``/workers``     register workers (attached to nearest center)
``POST``   ``/dispatch``    run one round; ``advance_hours``/``commit`` optional
``GET``    ``/assignments`` last committed round + cumulative worker stats
``GET``    ``/healthz``     liveness (503 while draining or a shard is down)
``GET``    ``/metrics``     Prometheus rendering of :data:`repro.obs.METRICS`
``GET``    ``/slo``         objectives with error-budget burn (:mod:`repro.obs.slo`)
``GET``    ``/equity``      cross-round equity ledger (docs/temporal_fairness.md)
``POST``   ``/shutdown``    graceful stop (drain in-flight round, final dump)
=========  ===============  ====================================================

Every request runs inside a trace: the ``X-Repro-Trace-Id`` request header
is adopted as the trace id when present (minted otherwise) and echoed on
the response, so a client can stitch its call into the server's JSONL
trace.  When tracing is live the request itself is a ``service.request``
span, and the dispatch round's whole span tree hangs under it.

Shutdown is graceful whichever way it arrives (signal, ``/shutdown``, or
:meth:`DispatchServer.stop`): the accept loop stops, any in-flight dispatch
round drains, and a final metrics snapshot is logged and traced.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

import math

from repro.obs.metrics import METRICS
from repro.obs.slo import (
    SLOBoard,
    default_slos,
    rolling_fairness_slo,
    shard_liveness_slo,
)
from repro.obs.tracer import resolve_tracer, start_trace
from repro.service.engine import (
    DispatchEngine,
    EngineDraining,
    ServiceOverloaded,
)
from repro.utils.log import get_logger

_LOG = get_logger("service.api")

#: Largest request body the API accepts (1 MiB keeps churn posts cheap).
MAX_BODY_BYTES = 1 << 20

#: Request/response header carrying the causal trace id.
TRACE_HEADER = "X-Repro-Trace-Id"


class ApiError(Exception):
    """A client error with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's engine; one instance per request."""

    server: "DispatchHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _read_json(self) -> Dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise ApiError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise ApiError(400, "JSON body must be an object")
        return payload

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header(TRACE_HEADER, trace_id)
        # end_headers() would send the header block in one write and the
        # body in a second, and a kept-alive client then waits on its
        # delayed ACK (~40 ms) before the body arrives.  Queue the blank
        # line and the body behind the headers so the whole response
        # leaves in one write.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_json(
        self,
        payload: Dict,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json; charset=utf-8",
            headers=headers,
        )

    def _send_overloaded(self, exc: ServiceOverloaded) -> None:
        """503 + integer-ceil ``Retry-After`` (RFC 9110 wants whole seconds)."""
        retry_after = max(1, math.ceil(exc.retry_after_s))
        self._send_json(
            {"error": str(exc), "retry_after_s": exc.retry_after_s},
            status=503,
            headers={"Retry-After": str(retry_after)},
        )

    def _send_text(self, text: str, status: int = 200) -> None:
        self._send(
            status, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
        )

    # -- routing ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self._route({"/healthz": self._get_healthz,
                     "/metrics": self._get_metrics,
                     "/slo": self._get_slo,
                     "/equity": self._get_equity,
                     "/assignments": self._get_assignments})

    def do_POST(self) -> None:  # noqa: N802
        self._route({"/tasks": self._post_tasks,
                     "/workers": self._post_workers,
                     "/dispatch": self._post_dispatch,
                     "/shutdown": self._post_shutdown})

    def _route(self, table: Dict[str, object]) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        handler = table.get(path)
        # Adopt the caller's trace id (or mint one), echo it on the
        # response, and run the whole request under that context so every
        # span the handler triggers lands in the caller's trace.
        with start_trace(self.headers.get(TRACE_HEADER) or None) as trace_id:
            self._trace_id = trace_id
            try:
                if handler is None:
                    raise ApiError(404, f"no such endpoint: {self.path}")
                tracer = resolve_tracer(False)
                if tracer.enabled:
                    with tracer.span(
                        "service.request", method=self.command, endpoint=path
                    ):
                        handler()
                else:
                    handler()
            except ApiError as exc:
                self._send_json({"error": str(exc)}, status=exc.status)
            except ServiceOverloaded as exc:
                # Shed by admission control or a shard's in-flight bound:
                # the request was NOT applied; tell the client when to
                # come back instead of letting it hammer the pool.
                self._send_overloaded(exc)
            except Exception as exc:  # the service must answer, not die
                _LOG.exception("unhandled error serving %s", self.path)
                self._send_json({"error": f"internal error: {exc}"}, status=500)

    # -- endpoints ----------------------------------------------------------

    def _get_healthz(self) -> None:
        """Liveness with honest status codes.

        * 200 ``ok`` — serving, every shard (if sharded) live.
        * 200 ``degraded`` — serving, but some shard is ``suspect``
          (stale heartbeat; not yet declared dead).
        * 503 ``degraded`` — a shard is dead/respawning/starting: rounds
          would run with its centers skipped.  The body carries the
          per-shard breakdown so orchestrators can see *which* one.
        * 503 ``draining`` — shutdown in progress; no new rounds.
        """
        engine = self.server.engine
        state = engine.state
        journal = state.journal
        status_code = 200
        status = "ok"
        shards: Optional[Dict[str, Dict]] = None
        shard_health = getattr(engine, "shard_health", None)
        if callable(shard_health):
            shards = shard_health()
            down = sorted(
                sid
                for sid, entry in shards.items()
                if entry.get("status") not in ("live", "suspect")
            )
            suspect = any(
                entry.get("status") == "suspect" for entry in shards.values()
            )
            if down:
                status, status_code = "degraded", 503
            elif suspect:
                status = "degraded"
        if engine.draining:
            status, status_code = "draining", 503
        payload: Dict[str, object] = {
            "status": status,
            "now": state.now,
            "rounds": engine.rounds_dispatched,
            "pending_tasks": state.pending_task_count,
            "workers": state.worker_count,
            "available_workers": state.available_worker_count(),
            "world_version": state.version,
            "world_fingerprint": state.fingerprint(),
            "algorithm": engine.solver_name,
            "epsilon": engine.epsilon,
            "uptime_seconds": time.perf_counter() - self.server.started,
            "breakers": engine.breakers.snapshot(),
        }
        if shards is not None:
            down = sorted(
                sid
                for sid, entry in shards.items()
                if entry.get("status") not in ("live", "suspect")
            )
            payload["shards"] = shards
            payload["shards_down"] = down
        if journal is not None:
            payload["journal"] = {
                "path": str(journal.path),
                "next_seq": journal.next_seq,
            }
        if engine.faults is not None:
            payload["faults"] = engine.faults.describe()
        ledger = state.equity
        if ledger is not None:
            equity = dict(ledger.summary())
            equity["mode"] = engine.equity_mode
            payload["equity"] = equity
        payload["slo"] = self.server.slo_board.summary()
        self._send_json(payload, status=status_code)

    def _get_metrics(self) -> None:
        self._send_text(METRICS.render_prometheus())

    def _get_slo(self) -> None:
        payload = self.server.slo_board.as_dict()
        shard_health = getattr(self.server.engine, "shard_health", None)
        if callable(shard_health):
            payload["shards"] = shard_health()
        self._send_json(payload)

    def _get_equity(self) -> None:
        """The cross-round equity ledger (docs/temporal_fairness.md)."""
        engine = self.server.engine
        ledger = engine.state.equity
        if ledger is None:
            raise ApiError(
                404, "equity ledger not enabled (start with --equity)"
            )
        payload = dict(ledger.summary())
        payload["mode"] = engine.equity_mode
        payload["strength"] = engine.equity_strength
        payload["cumulative"] = ledger.baselines()
        payload["balance"] = {
            wid: ledger.balance_of(wid) for wid in ledger.workers
        }
        payload["participation"] = {
            wid: ledger.participation_of(wid) for wid in ledger.workers
        }
        payload["rolling_income"] = ledger.rolling_payoffs()
        self._send_json(payload)

    def _get_assignments(self) -> None:
        engine = self.server.engine
        last = engine.last_committed
        payload: Dict[str, object] = {
            "round": None if last is None else last.as_dict(),
            "workers": engine.state.worker_stats(),
        }
        self._send_json(payload)

    def _post_tasks(self) -> None:
        payload = self._read_json()
        items = self._items(payload, "tasks", "task_id")
        accepted, rejected = self.server.engine.state.add_tasks(items)
        self._send_json(
            {
                "accepted": accepted,
                "rejected": [r.as_dict() for r in rejected],
                "pending_tasks": self.server.engine.state.pending_task_count,
            }
        )

    def _post_workers(self) -> None:
        payload = self._read_json()
        items = self._items(payload, "workers", "worker_id")
        accepted, rejected = self.server.engine.state.add_workers(items)
        self._send_json(
            {
                "accepted": accepted,
                "rejected": [r.as_dict() for r in rejected],
                "workers": self.server.engine.state.worker_count,
            }
        )

    @staticmethod
    def _items(payload: Dict, key: str, id_field: str) -> List[Dict]:
        """The batch under ``key``, or the payload itself as a singleton."""
        if key in payload:
            items = payload[key]
            if not isinstance(items, list):
                raise ApiError(400, f"{key!r} must be a list")
            return items
        if id_field in payload:
            return [payload]
        raise ApiError(400, f"body needs {key!r} (list) or a single {id_field!r}")

    def _post_dispatch(self) -> None:
        payload = self._read_json()
        advance = payload.get("advance_hours", 0.0)
        commit = payload.get("commit", True)
        if not isinstance(advance, (int, float)) or advance < 0:
            raise ApiError(400, f"advance_hours must be a number >= 0, got {advance!r}")
        if not isinstance(commit, bool):
            raise ApiError(400, f"commit must be a boolean, got {commit!r}")
        try:
            result = self.server.engine.dispatch(
                advance_hours=float(advance), commit=commit
            )
        except EngineDraining as exc:
            self._send_json({"error": str(exc)}, status=503)
            return
        except ServiceOverloaded as exc:
            self._send_overloaded(exc)
            return
        except Exception as exc:
            # InvariantViolation from verify=, or a solver failure: report
            # it as a server-side dispatch error but keep serving.
            _LOG.exception("dispatch round failed")
            self._send_json({"error": f"dispatch failed: {exc}"}, status=500)
            return
        self._send_json(result.as_dict())

    def _post_shutdown(self) -> None:
        self._send_json({"status": "shutting down"})
        self.server.request_stop()


class DispatchHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its engine (and survives handler errors)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        engine: DispatchEngine,
        slo_board: Optional[SLOBoard] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.engine = engine
        if slo_board is None:
            objectives = default_slos()
            if engine.state.equity is not None:
                # Worlds with an equity ledger (solver- or observer-mode)
                # get the rolling-fairness bound on the board for free.
                objectives.append(rolling_fairness_slo())
            if callable(getattr(engine, "shard_health", None)):
                objectives.append(shard_liveness_slo())
            slo_board = SLOBoard(objectives)
        self.slo_board = slo_board
        self.started = time.perf_counter()
        self._stop_requested = threading.Event()

    def request_stop(self) -> None:
        """Ask the serving loop to stop (idempotent, safe from handlers).

        The engine starts draining *before* the accept loop winds down: a
        round already in flight finishes committing atomically, while any
        dispatch arriving after this instant is answered 503 instead of
        racing the teardown (the mid-round SIGTERM fix).
        """
        if not self._stop_requested.is_set():
            self._stop_requested.set()
            self.engine.begin_drain()
            # shutdown() must not run on a handler thread's serve loop
            # synchronously; a helper thread keeps /shutdown responsive.
            threading.Thread(target=self.shutdown, daemon=True).start()


class DispatchServer:
    """Lifecycle wrapper: bind, serve (foreground or background), stop.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  Used by ``python -m repro serve``, the test suite, the
    CI ``service-smoke`` job, and ``examples/live_dispatch.py``.
    """

    def __init__(
        self,
        engine: DispatchEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        slo_board: Optional[SLOBoard] = None,
    ) -> None:
        self._engine = engine
        self._httpd = DispatchHTTPServer((host, port), engine, slo_board)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def engine(self) -> DispatchEngine:
        return self._engine

    @property
    def slo_board(self) -> SLOBoard:
        return self._httpd.slo_board

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until stopped, then shut down cleanly."""
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._finalise()

    def start_background(self) -> "DispatchServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                daemon=True,
            )
            self._thread.start()
        return self

    def request_stop(self) -> None:
        """Signal-handler-safe stop: never blocks the serving thread."""
        self._httpd.request_stop()

    def stop(self) -> None:
        """Stop serving, drain the engine, and dump final metrics."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._finalise()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for a background serving thread to exit (e.g. /shutdown)."""
        if self._thread is not None:
            self._thread.join(timeout)
            if not self._thread.is_alive():
                self._thread = None
                self._finalise()

    def __enter__(self) -> "DispatchServer":
        return self.start_background()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _finalise(self) -> None:
        """Graceful-shutdown tail: drain in-flight work, final metrics dump."""
        if self._closed:
            return
        self._closed = True
        # Refuse new rounds first, then close the listener, then wait for
        # the in-flight round's commit — never tear down under a commit.
        self._engine.begin_drain()
        self._httpd.server_close()
        self._engine.drain()
        journal = self._engine.state.journal
        if journal is not None:
            journal.close()
        snapshot = METRICS.snapshot()
        tracer = resolve_tracer(False)
        if tracer.enabled:
            tracer.event("service.shutdown", metrics=snapshot)
        _LOG.info(
            "dispatch service stopped after %d rounds (%d tasks assigned)",
            self._engine.rounds_dispatched,
            int(snapshot.get("service.tasks.assigned", 0)),
        )
