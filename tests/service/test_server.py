"""End-to-end service tests over a real listening socket.

Each test boots a :class:`ServiceServer` on an ephemeral port in a
background thread (thread executor — same results as the process pool,
no fork cost) and talks real HTTP through the client library.  The
concurrency behaviours are made deterministic with the batcher's
``linger_s`` coalescing window rather than timing races: a linger
longer than the request timeout forces a 504, a linger plus
``max_pending=1`` forces a 429, and a shutdown during the linger
proves drain completes in-flight work.
"""

import contextlib
import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.records import record_payload
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import LOADGEN_KERNEL
from repro.service.server import ServiceConfig, ServiceServer
from repro.service.protocol import scheme_from_json
from repro.sim.runner import build_traces, evaluate_traces
from repro.workloads.suites import get_workload

SW_JSON = {"kind": "sw_lrf", "entries_per_thread": 3, "split_lrf": True}
EVAL_BODY = {"benchmark": "vectoradd", "scale": 1.0, "scheme": SW_JSON}


@contextlib.contextmanager
def running_server(**overrides):
    defaults = dict(port=0, jobs=2, executor="thread")
    defaults.update(overrides)
    server = ServiceServer(ServiceConfig(**defaults))
    thread = threading.Thread(target=server.run_forever, daemon=True)
    thread.start()
    assert server.started.wait(10), "server did not start"
    assert server._startup_error is None
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10)
        assert not thread.is_alive(), "server did not shut down"


def client_for(server: ServiceServer) -> ServiceClient:
    return ServiceClient(port=server.port)


def test_health_routing_and_errors():
    with running_server() as server:
        client = client_for(server)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["executor"] == "thread"

        status, payload = client.request_raw("GET", "/nope")
        assert status == 404
        status, payload = client.request_raw("GET", "/v1/evaluate")
        assert status == 405
        status, payload = client.request_raw(
            "POST", "/v1/evaluate", {"benchmark": "vectoradd", "bogus": 1}
        )
        assert status == 400
        assert payload["error"]["type"] == "bad_request"


def test_evaluate_matches_direct_path_and_memoizes():
    with running_server() as server:
        client = client_for(server)
        first = client.evaluate(**EVAL_BODY)
        assert first["served_from"] == "computed"

        spec = get_workload("vectoradd", 1.0)
        traces = build_traces(spec.kernel, spec.warp_inputs)
        direct = record_payload(
            evaluate_traces(traces, scheme_from_json(SW_JSON))
        )
        assert json.dumps(first["record"], sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

        second = client.evaluate(**EVAL_BODY)
        assert second["served_from"] == "cache"
        strip = lambda r: {  # noqa: E731
            k: v for k, v in r.items() if k != "served_from"
        }
        assert strip(second) == strip(first)


def test_metrics_publish_cache_gauges():
    with running_server() as server:
        client = client_for(server)
        client.evaluate(**EVAL_BODY)
        client.evaluate(**EVAL_BODY)
        client.evaluate(benchmark="vectoradd", scheme={"kind": "hw_lrf"})
        gauges = client.metrics()["gauges"]
        text = client.request_raw("GET", "/metrics?format=prometheus")[1]
    text = text["raw"]
    for cache in ("service.results", "alloc.analyses", "sim.kernel_analyses"):
        for family in ("hits", "misses", "evictions", "size"):
            assert f'repro_cache_{family}{{cache="{cache}"}}' in text
    # Summed over every live server of this process: a lower bound.
    assert gauges['cache_hits{cache="service.results"}'] >= 1
    assert gauges['cache_size{cache="service.results"}'] >= (
        gauges["service_memo_entries"]
    )


def test_allocate_endpoint():
    with running_server() as server:
        result = client_for(server).allocate(
            kernel=LOADGEN_KERNEL, scheme=SW_JSON
        )
        assert result["summary"]["strands"] >= 1
        assert result["annotations"]


def test_parse_error_is_clean_400():
    with running_server() as server:
        client = client_for(server)
        status, payload = client.request_raw(
            "POST", "/v1/evaluate", {"kernel": "definitely not asm\n"}
        )
        assert status == 400
        assert payload["error"]["type"] == "parse_error"
        assert "Traceback" not in payload["error"]["message"]

        status, payload = client.request_raw("POST", "/v1/evaluate")
        assert status == 400  # invalid JSON body, still a clean error


def test_concurrent_identical_requests_share_one_computation():
    workers = 6
    with running_server(linger_s=0.3) as server:
        clients = [client_for(server) for _ in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    lambda c: c.evaluate(**EVAL_BODY), clients
                )
            )
        fingerprints = {r["fingerprint"] for r in results}
        assert len(fingerprints) == 1
        payloads = {
            json.dumps(r["record"], sort_keys=True) for r in results
        }
        assert len(payloads) == 1

        counters = client_for(server).metrics()["counters"]
        assert counters["jobs_executed"] == 1
        # Every request beyond the first was served by in-flight dedup
        # (or, if it raced in after completion, by the result memo).
        shared = counters.get("inflight_dedup_hits", 0) + counters.get(
            "service_memo_hits", 0
        )
        assert shared == workers - 1
        assert counters.get("inflight_dedup_hits", 0) >= 1


def test_timeout_returns_504():
    # Linger longer than the request budget: the wait deterministically
    # expires while the job is still coalescing.
    with running_server(linger_s=0.6, request_timeout_s=0.05) as server:
        with pytest.raises(ServiceError) as excinfo:
            client_for(server).evaluate(**EVAL_BODY)
        assert excinfo.value.status == 504
        assert excinfo.value.error_type == "timeout"
        # The computation survives the waiter: once the linger window
        # closes, the same request is served from the result memo.
        time.sleep(0.8)
        result = client_for(server).evaluate(**EVAL_BODY)
        assert result["served_from"] == "cache"


def test_backpressure_returns_429_with_retry_after():
    with running_server(linger_s=0.8, max_pending=1) as server:
        slow = {}

        def occupy():
            slow["result"] = client_for(server).evaluate(**EVAL_BODY)

        thread = threading.Thread(target=occupy)
        thread.start()
        deadline = time.monotonic() + 5.0
        while server._batcher.pending == 0:
            assert time.monotonic() < deadline, "first job never admitted"
            time.sleep(0.01)

        # A *distinct* job beyond the admission bound is shed.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        body = json.dumps(
            {"benchmark": "reduction", "scale": 1.0, "scheme": SW_JSON}
        )
        connection.request(
            "POST", "/v1/evaluate", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 429
        assert response.getheader("Retry-After") == "1"
        assert payload["error"]["retry_after"] == 1.0
        connection.close()

        # An *identical* job rides the in-flight future for free.
        dup = client_for(server).evaluate(**EVAL_BODY)
        assert dup["record"]["dynamic_instructions"] > 0

        thread.join(10)
        assert slow["result"]["served_from"] == "computed"


def test_graceful_drain_completes_inflight_work():
    with running_server(linger_s=5.0) as server:
        holder = {}

        def request():
            holder["result"] = client_for(server).evaluate(**EVAL_BODY)

        thread = threading.Thread(target=request)
        thread.start()
        deadline = time.monotonic() + 5.0
        while server._batcher.pending == 0:
            assert time.monotonic() < deadline, "job never admitted"
            time.sleep(0.01)

        # Shutdown lands while the job is still lingering in the
        # batcher; drain must flush and answer it, not drop it.
        started = time.monotonic()
        server.request_shutdown()
        thread.join(10)
        assert not thread.is_alive()
        assert time.monotonic() - started < 4.0, "drain waited out linger"
        assert holder["result"]["served_from"] == "computed"
        assert holder["result"]["record"]["dynamic_instructions"] > 0


def test_draining_rejects_new_work_with_503():
    with running_server() as server:
        client = client_for(server)
        server.draining = True
        try:
            assert client.healthz()["status"] == "draining"
            status, payload = client.request_raw(
                "POST", "/v1/evaluate", EVAL_BODY
            )
            assert status == 503
            assert payload["error"]["type"] == "draining"
        finally:
            server.draining = False
        assert client.evaluate(**EVAL_BODY)["served_from"] == "computed"


def test_metrics_endpoint_is_schema_3():
    with running_server() as server:
        client = client_for(server)
        client.evaluate(**EVAL_BODY)
        metrics = client.metrics()
        assert metrics["schema"] == 3
        assert set(metrics) == {
            "schema", "stages", "counters", "gauges", "histograms"
        }
        assert metrics["counters"]["evaluate_responses"] == 1
        assert "service_in_flight" in metrics["gauges"]
        assert "execute" in metrics["stages"]
        # Request latency histogram is pre-registered at boot.
        histogram = metrics["histograms"]["http_request_seconds"]
        assert histogram["count"] >= 1
        assert len(histogram["bucket_counts"]) == len(histogram["bounds"]) + 1

        # A schema-2 consumer that only reads the original keys keeps
        # working: the new top-level key is additive.
        legacy_view = {
            k: metrics[k]
            for k in ("schema", "stages", "counters", "gauges")
        }
        assert legacy_view["counters"]["evaluate_responses"] == 1


def test_healthz_reports_uptime_and_schema():
    with running_server() as server:
        health = client_for(server).healthz()
        assert health["status"] == "ok"
        assert health["metrics_schema"] == 3
        assert health["uptime_seconds"] >= 0.0
        assert "version" in health


def test_metrics_prometheus_negotiation():
    with running_server() as server:
        client = client_for(server)
        client.evaluate(**EVAL_BODY)

        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            connection.request(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
            response = connection.getresponse()
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain; version=0.0.4"
            )
        finally:
            connection.close()
        assert "# TYPE repro_http_request_seconds histogram" in body
        assert 'repro_http_request_seconds_bucket{le="+Inf"}' in body
        assert "repro_evaluate_responses_total 1" in body

        # The query-parameter form negotiates the same representation.
        status, text_payload = _raw_text(
            server.port, "/metrics?format=prometheus"
        )
        assert status == 200
        assert "repro_http_request_seconds_count" in text_payload

        # Default (no Accept header) stays JSON for existing scrapers.
        status, payload = client.request_raw("GET", "/metrics")
        assert status == 200
        assert payload["schema"] == 3


def _raw_text(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()
