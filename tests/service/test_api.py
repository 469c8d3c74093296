"""End-to-end tests for the HTTP API (server on an ephemeral port)."""

import http.client
import json
import urllib.request

import pytest

from repro.games.fgt import FGTSolver
from repro.service import DispatchClient, DispatchEngine, DispatchServer, ServiceError
from repro.service.api import _Handler

from tests.service.conftest import make_world, task


@pytest.fixture()
def server():
    engine = DispatchEngine(make_world(), FGTSolver(epsilon=0.8), epsilon=0.8, seed=0)
    with DispatchServer(engine, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return DispatchClient(server.url, timeout=5.0)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["pending_tasks"] == 6
        assert health["workers"] == 3
        assert health["algorithm"] == "FGT"
        assert health["epsilon"] == 0.8
        assert health["rounds"] == 0

    def test_submit_tasks_batch_and_rejections(self, client):
        response = client.submit_tasks(
            [task("x1", "a1", 2.0), task("x2", "nowhere", 2.0)]
        )
        assert response["accepted"] == ["x1"]
        assert response["rejected"][0]["id"] == "x2"
        assert response["pending_tasks"] == 7

    def test_submit_single_task_object(self, server, client):
        status = client._json("POST", "/tasks", task("solo", "b1", 2.0))
        assert status["accepted"] == ["solo"]

    def test_submit_workers(self, client):
        response = client.submit_workers(
            [{"worker_id": "new", "x": 9.9, "y": 0.1}]
        )
        assert response["accepted"] == ["new"]
        assert response["workers"] == 4

    def test_dispatch_commits_and_assignments_reflect_it(self, client):
        round_payload = client.dispatch()
        assert round_payload["round"] == 0
        assert round_payload["committed"] is True
        assert round_payload["assigned_tasks"] > 0
        last = client.assignments()
        assert last["round"]["round"] == 0
        assert last["round"]["assignments"] == round_payload["assignments"]
        busy = [w for w in last["workers"].values() if w["assignments"] > 0]
        assert busy

    def test_dry_run_dispatch(self, client):
        preview = client.dispatch(commit=False)
        assert preview["committed"] is False
        assert client.health()["pending_tasks"] == 6  # untouched

    def test_metrics_exposition(self, client):
        client.dispatch(commit=False)
        client.dispatch(commit=False)  # second round: unchanged -> cache hits
        text = client.metrics_text()
        assert "# TYPE repro_service_rounds counter" in text
        parsed = client.metrics()
        assert parsed["repro_service_rounds"] >= 2
        assert parsed["repro_service_catalog_cache_hits"] >= 2
        assert "repro_service_dispatch_seconds_sum" in parsed

    def test_metrics_content_type(self, server):
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as response:
            assert response.headers["Content-Type"].startswith("text/plain")


class TestErrorHandling:
    def test_unknown_path_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/tasks",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_body_must_be_object(self, server):
        request = urllib.request.Request(
            f"{server.url}/tasks",
            data=json.dumps([1, 2]).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_missing_batch_key_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/tasks", {"unrelated": 1})
        assert excinfo.value.status == 400

    def test_bad_dispatch_arguments_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.dispatch(advance_hours=-1.0)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/dispatch", {"commit": "yes"})
        assert excinfo.value.status == 400

    def test_service_survives_errors(self, client):
        with pytest.raises(ServiceError):
            client._json("GET", "/nope")
        assert client.health()["status"] == "ok"


class _CountingWriter:
    """Wraps a handler's socket writer and records every write."""

    def __init__(self, raw, writes):
        self._raw = raw
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class TestKeepAlive:
    def test_one_socket_write_per_response(self, server, monkeypatch):
        """Headers and body leave together, so a kept-alive client never
        waits on a delayed ACK between them."""
        writes = []
        setup = _Handler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = _CountingWriter(handler.wfile, writes)

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        host, port = server.url.split("//", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
        requests = [
            ("GET", "/healthz", None),
            ("POST", "/tasks", {"tasks": [task("ka1", "a1", 2.0)]}),
            ("POST", "/dispatch", {"commit": False}),
            ("GET", "/metrics", None),
            ("GET", "/nowhere", None),
        ]
        try:
            for method, path, payload in requests:
                body = None if payload is None else json.dumps(payload)
                conn.request(method, path, body=body)
                response = conn.getresponse()
                response.read()
                assert response.getheader("Content-Length") is not None
            sock = conn.sock
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            assert conn.sock is sock  # the one connection stayed open
        finally:
            conn.close()
        assert len(writes) == len(requests) + 1
        assert all(w.startswith(b"HTTP/1.1 ") for w in writes)


class TestLifecycle:
    def test_shutdown_endpoint_is_graceful(self):
        engine = DispatchEngine(
            make_world(), FGTSolver(epsilon=0.8), epsilon=0.8, seed=1
        )
        server = DispatchServer(engine, port=0).start_background()
        client = DispatchClient(server.url, timeout=5.0)
        client.wait_healthy(timeout=5.0)
        client.dispatch()
        assert client.shutdown()["status"] == "shutting down"
        server.join(timeout=5.0)
        with pytest.raises((ServiceError, OSError)):
            client.health()
        server.stop()  # idempotent after /shutdown

    def test_context_manager_stops_cleanly(self):
        engine = DispatchEngine(make_world(), FGTSolver(epsilon=0.8), epsilon=0.8)
        with DispatchServer(engine, port=0) as server:
            url = server.url
            DispatchClient(url, timeout=5.0).wait_healthy(timeout=5.0)
        with pytest.raises((ServiceError, OSError)):
            DispatchClient(url, timeout=1.0).health()

    def test_ephemeral_port_bound(self, server):
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")


class TestSLOEndpoint:
    def test_slo_reports_default_objectives(self, client):
        client.dispatch(commit=False)
        payload = client.slo()
        by_name = {o["name"]: o for o in payload["objectives"]}
        assert {
            "round_latency",
            "center_deadline_hits",
            "primary_rung_rate",
            "journal_fsync_latency",
        } <= set(by_name)
        assert isinstance(payload["ok"], bool)
        assert payload["worst_burn"] >= 0.0
        latency = by_name["round_latency"]
        assert latency["events"] >= 1  # the dispatch above was observed
        assert latency["burn"] >= 0.0
        assert "p99" in latency["detail"]

    def test_healthz_carries_slo_summary(self, client):
        summary = client.health()["slo"]
        assert set(summary) == {"ok", "breached", "worst_burn"}


class TestTraceHeader:
    def test_server_echoes_caller_trace_id(self, server):
        caller = DispatchClient(server.url, timeout=5.0, trace_id="ab" * 8)
        caller.health()
        assert caller.last_trace_id == "ab" * 8

    def test_server_mints_trace_id_when_absent(self, client):
        client.health()
        assert client.last_trace_id
        int(client.last_trace_id, 16)  # generated ids are hex

    def test_request_spans_land_in_caller_trace(self, server):
        import time

        from repro.obs.tracer import MemoryTracer, set_tracing

        tracer = MemoryTracer()
        set_tracing(tracer)
        try:
            caller = DispatchClient(
                server.url, timeout=5.0, trace_id="cd" * 8
            )
            caller.dispatch(commit=False)
            # The request span emits just after the response bytes leave,
            # so give the handler thread a beat to exit the span.
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not any(
                r["kind"] == "service.request" for r in tracer.records
            ):
                time.sleep(0.01)
        finally:
            set_tracing(None)
        requests = [
            r for r in tracer.records if r["kind"] == "service.request"
        ]
        assert requests and all(r["trace"] == "cd" * 8 for r in requests)
        [request] = [
            r for r in requests if r["endpoint"] == "/dispatch"
        ]
        rounds = [r for r in tracer.records if r["kind"] == "service.round"]
        assert rounds, "the round span must trace under the request"
        assert rounds[0]["trace"] == "cd" * 8
        assert rounds[0]["parent"] == request["span"]
