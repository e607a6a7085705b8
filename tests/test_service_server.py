"""Tests for the HTTP JSON front-end (and the `repro serve` wiring)."""

import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.service import faults
from repro.service.engine import NCEngine
from repro.service.server import create_server, outcome_to_json


@pytest.fixture(scope="module")
def service():
    """A live server on an ephemeral port, shared across this module."""
    graph = figure1_graph()
    engine = NCEngine(graph, context_size=3, max_workers=2, seed=5)
    server = create_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, engine, graph
    server.shutdown()
    server.server_close()
    engine.close()


def _get(server, path):
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, service):
        server, _, graph = service
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["nodes"] == graph.node_count
        assert body["graph_version"] == graph.version

    def test_search_get_end_to_end(self, service):
        server, _, _ = service
        status, body = _get(
            server, "/search?query=Angela_Merkel,Barack_Obama&context_size=3"
        )
        assert status == 200
        assert sorted(body["query"]) == ["Angela_Merkel", "Barack_Obama"]
        assert body["context"]["size"] <= 3
        assert body["candidates_evaluated"] > 0
        assert isinstance(body["notable"], list)
        assert body["elapsed"]["request_s"] > 0

    def test_search_repeated_query_params(self, service):
        server, _, _ = service
        status, body = _get(
            server, "/search?query=Angela_Merkel&query=Barack_Obama"
        )
        assert status == 200
        assert len(body["query"]) == 2

    def test_search_post_hits_cache_of_get(self, service):
        server, _, _ = service
        _get(server, "/search?query=Vladimir_Putin&context_size=3")
        status, body = _post(
            server, "/search", {"query": ["Vladimir_Putin"], "context_size": 3}
        )
        assert status == 200
        assert body["cached"] is True

    def test_stats(self, service):
        server, engine, _ = service
        status, body = _get(server, "/stats")
        assert status == 200
        assert body["requests"] == engine.stats().requests
        assert "cache" in body


class TestErrors:
    def test_unknown_path_404(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_missing_query_400(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/search")
        assert excinfo.value.code == 400

    def test_unresolvable_entity_400(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/search?query=Completely_Unknown_Entity_42")
        error = excinfo.value
        assert error.code == 400
        assert "error" in json.loads(error.read())

    def test_invalid_json_body_400(self, service):
        server, _, _ = service
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/search", data=b"not json"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_post_wrong_path_404(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/healthz", {})
        assert excinfo.value.code == 404


class TestSerialization:
    def test_outcome_to_json_shape(self, service):
        _, engine, graph = service
        outcome = engine.request(["Angela_Merkel"])
        payload = outcome_to_json(outcome, graph)
        assert payload["query"] == ["Angela_Merkel"]
        assert set(payload["elapsed"]) == {
            "context_s",
            "discrimination_s",
            "request_s",
        }
        for item in payload["notable"]:
            assert set(item) == {
                "label",
                "score",
                "channel",
                "p_value",
                "explanation",
            }
        json.dumps(payload)  # must be JSON-serializable end to end


class TestServeCommand:
    pytestmark = pytest.mark.slow

    def test_serve_subprocess_answers_search(self, tmp_path):
        """`repro serve` end-to-end: spawn the CLI, hit /search over HTTP."""
        import os
        import subprocess
        import sys
        import time as time_mod

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--dataset",
                "figure1",
                "--context-size",
                "3",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            # the CLI prints "listening on http://host:port (...)" once ready
            port = None
            deadline = time_mod.monotonic() + 60
            while time_mod.monotonic() < deadline:
                line = process.stdout.readline()
                if "listening on" in line:
                    port = int(line.split("http://", 1)[1].split("(")[0].strip().rsplit(":", 1)[1])
                    break
            assert port, "server did not report its port"
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/search?query=Angela_Merkel,Barack_Obama",
                timeout=30,
            ) as response:
                body = json.loads(response.read())
            assert sorted(body["query"]) == ["Angela_Merkel", "Barack_Obama"]
            assert body["candidates_evaluated"] > 0
        finally:
            process.terminate()
            process.wait(timeout=10)


@contextlib.contextmanager
def _serving(engine):
    """A live server over ``engine`` on an ephemeral port."""
    server = create_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


class TestResilienceSurface:
    @pytest.fixture(autouse=True)
    def _disarmed(self):
        faults.reset()
        yield
        faults.reset()

    def test_error_bodies_carry_stable_codes(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/search")
        assert json.loads(excinfo.value.read())["code"] == "bad_request"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert json.loads(excinfo.value.read())["code"] == "not_found"

    @pytest.mark.parametrize("value", ["0", "-50", "soon"])
    def test_invalid_timeout_ms_400(self, service, value):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, f"/search?query=Angela_Merkel&timeout_ms={value}")
        error = excinfo.value
        assert error.code == 400
        assert json.loads(error.read())["code"] == "invalid_timeout"

    def test_stats_expose_resilience_counters(self, service):
        server, _, _ = service
        _, body = _get(server, "/stats")
        for field in ("timeouts", "retries", "shed", "fallbacks"):
            assert field in body

    def test_deadline_expiry_is_504(self):
        engine = NCEngine(figure1_graph(), context_size=3, max_workers=1, seed=5)
        with _serving(engine) as server:
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.8, limit=1)]
                )
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(
                    server,
                    "/search?query=Angela_Merkel,Barack_Obama&timeout_ms=150",
                )
            error = excinfo.value
            assert error.code == 504
            assert json.loads(error.read())["code"] == "deadline_exceeded"

    def test_saturated_engine_sheds_503_with_retry_after(self):
        engine = NCEngine(
            figure1_graph(), context_size=3, max_workers=1, seed=5, max_pending=1
        )
        with _serving(engine) as server:
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.8, limit=1)]
                )
            )
            blocker, *_ = engine.submit(["Angela_Merkel", "Barack_Obama"])
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/search?query=Vladimir_Putin")
            error = excinfo.value
            assert error.code == 503
            assert error.headers["Retry-After"] == "1"
            assert json.loads(error.read())["code"] == "saturated"
            blocker.result(timeout=5.0)

    def test_degraded_breaker_reported_by_healthz(self):
        # A tripped worker-pool breaker must surface on /healthz (still
        # HTTP 200: the engine keeps answering from the fallback, so
        # load balancers should keep routing).
        engine = NCEngine(
            figure1_graph(),
            context_size=3,
            max_workers=1,
            executor="process",
            seed=5,
            breaker_threshold=1,
        )
        engine.breaker.record_failure("simulated crash storm")
        with _serving(engine) as server:
            status, body = _get(server, "/healthz")
            assert status == 200
            assert body["status"] == "degraded"
            assert "circuit breaker is open" in body["reason"]
            _, stats = _get(server, "/stats")
            assert stats["breaker"]["state"] == "open"


class TestOverrideValidation:
    """A bad per-request ``alpha``/``context_size`` is a 400 on every executor."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_bad_overrides_are_400_with_one_message(self, executor):
        engine = NCEngine(
            figure1_graph(), context_size=3, max_workers=1, executor=executor
        )
        bodies = {}
        with _serving(engine) as server:
            for params in ("alpha=1.5", "alpha=0", "context_size=0"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server, f"/v1/search?query=1,2&{params}")
                assert excinfo.value.code == 400
                bodies[params] = json.loads(excinfo.value.read())
        assert bodies["alpha=1.5"]["error"] == "alpha must be in (0, 1), got 1.5"
        assert bodies["alpha=0"]["error"] == "alpha must be in (0, 1), got 0.0"
        assert bodies["context_size=0"]["error"] == (
            "context_size must be >= 1, got 0"
        )
        assert engine.stats().computed == 0  # rejected before any dispatch


class TestGracefulShutdown:
    pytestmark = pytest.mark.slow

    def test_sigterm_drains_and_exits_cleanly(self):
        """SIGTERM to `repro serve`: drain, close, exit 0."""
        import os
        import signal
        import subprocess
        import sys
        import time as time_mod

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--dataset",
                "figure1",
                "--context-size",
                "3",
                "--port",
                "0",
                "--drain-timeout",
                "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time_mod.monotonic() + 60
            while time_mod.monotonic() < deadline:
                line = process.stdout.readline()
                if "listening on" in line:
                    port = int(
                        line.split("http://", 1)[1]
                        .split("(")[0]
                        .strip()
                        .rsplit(":", 1)[1]
                    )
                    break
            assert port, "server did not report its port"
            # One request proves the server is live before the signal.
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        except BaseException:
            process.kill()
            raise
        assert process.returncode == 0
        assert "draining and shutting down" in output
        assert "shut down cleanly" in output


class TestNonStringQueryItems:
    def test_float_query_id_is_400_not_dropped_connection(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/search", {"query": [1.5]})
        error = excinfo.value
        assert error.code == 400
        assert "error" in json.loads(error.read())

    def test_get_integer_node_id_resolves(self, service):
        server, _, graph = service
        node_id = graph.node_id("Angela_Merkel")
        status, body = _get(server, f"/search?query={node_id}")
        assert status == 200
        assert body["query"] == ["Angela_Merkel"]


def _raw(server, path, *, method="GET", payload=None):
    """(status, headers, raw body bytes) — for parity/header assertions."""
    port = server.server_address[1]
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestV1Api:
    """The versioned surface: /v1 canonical, unprefixed deprecated aliases."""

    def test_v1_routes_answer(self, service):
        server, _, graph = service
        status, body = _get(server, "/v1/healthz")
        assert status == 200
        assert body["nodes"] == graph.node_count
        status, body = _get(server, "/v1/stats")
        assert status == 200
        assert "requests" in body
        status, body = _get(server, "/v1/search?query=Angela_Merkel,Barack_Obama")
        assert status == 200
        assert len(body["query"]) == 2

    def test_healthz_serving_metadata(self, service):
        server, engine, graph = service
        _, body = _get(server, "/v1/healthz")
        assert body["version_id"] == graph.version
        assert body["uptime_s"] > 0
        assert body["snapshot_source"] == "live-graph"
        assert body["uptime_s"] == pytest.approx(engine.uptime_s, abs=5.0)

    def test_alias_parity_error_bodies_byte_identical(self, service):
        server, _, _ = service
        status_alias, _, body_alias = _raw(server, "/search")
        status_v1, _, body_v1 = _raw(server, "/v1/search")
        assert status_alias == status_v1 == 400
        assert body_alias == body_v1

    def test_alias_parity_healthz(self, service):
        server, _, _ = service
        _, _, alias_bytes = _raw(server, "/healthz")
        _, _, v1_bytes = _raw(server, "/v1/healthz")
        alias_body = json.loads(alias_bytes)
        v1_body = json.loads(v1_bytes)
        # uptime_s advances between the two calls; all else must match
        alias_body.pop("uptime_s")
        v1_body.pop("uptime_s")
        assert alias_body == v1_body

    def test_alias_parity_search_payload(self, service):
        server, _, _ = service
        payload = {"query": ["Angela_Merkel", "Barack_Obama"], "context_size": 3}
        _, _, v1_bytes = _raw(server, "/v1/search", method="POST", payload=payload)
        _, _, alias_bytes = _raw(server, "/search", method="POST", payload=payload)
        v1_body = json.loads(v1_bytes)
        alias_body = json.loads(alias_bytes)
        # per-request timing differs; the result payload must not
        v1_body.pop("elapsed")
        alias_body.pop("elapsed")
        v1_body.pop("cached")
        alias_body.pop("cached")
        assert v1_body == alias_body

    def test_deprecation_header_only_on_aliases(self, service):
        server, _, _ = service
        for alias, canonical in (
            ("/healthz", "/v1/healthz"),
            ("/stats", "/v1/stats"),
            ("/metrics", "/v1/metrics"),
        ):
            _, alias_headers, _ = _raw(server, alias)
            _, v1_headers, _ = _raw(server, canonical)
            assert alias_headers.get("Deprecation") == "true", alias
            assert "Deprecation" not in v1_headers, canonical

    def test_deprecation_header_on_error_responses_too(self, service):
        server, _, _ = service
        _, headers, _ = _raw(server, "/search")  # 400: missing query
        assert headers.get("Deprecation") == "true"

    def test_metrics_route_serves_prometheus_text(self, service):
        from repro.service.metrics import CONTENT_TYPE, validate_exposition

        server, _, _ = service
        status, headers, body = _raw(server, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        families = validate_exposition(body.decode("utf-8"))
        assert "nc_http_requests_total" in families

    def test_unknown_v1_path_is_404(self, service):
        server, _, _ = service
        status, _, body = _raw(server, "/v1/nope")
        assert status == 404
        assert json.loads(body)["code"] == "not_found"

    def test_route_table_aliases_are_complete(self):
        from repro.service.server import ROUTES

        for spec in ROUTES:
            assert spec.path.startswith("/v1/")
            if spec.alias is not None:
                assert spec.alias == spec.path[len("/v1") :]
