"""Cluster-wide observability: trace propagation across the
coordinator→shard HTTP hop and the ``/v1/cluster/metrics`` rollup.

Shards here run in-process (threads), so coordinator and shard spans
land in the same process-wide tracer — exactly what lets these tests
assert the cross-hop parent/child chain without file merging.
"""

import json
import urllib.request

import pytest

from repro.obs.tracer import TRACER
from repro.service.client import ServiceClient

from tests.service.test_cluster import allocate_body, running_cluster


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.reset()
    yield
    TRACER.reset()


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.read().decode("utf-8")


def test_shard_spans_nest_under_coordinator_request():
    with running_cluster(num_shards=2) as (coordinator, _shards):
        TRACER.configure(enabled=True)
        client = ServiceClient(port=coordinator.port)
        client.allocate(**allocate_body())
        TRACER.enabled = False
        spans = TRACER.drain()

    by_id = {span.span_id: span for span in spans}
    requests = [
        s for s in spans
        if s.name == "cluster.request"
        and s.attributes.get("path") == "/v1/allocate"
    ]
    assert len(requests) == 1
    root = requests[0]
    assert root.parent_id is None
    assert root.attributes["status"] == 200

    forwards = [s for s in spans if s.name == "cluster.forward"]
    assert forwards
    for forward in forwards:
        assert by_id[forward.parent_id].name == "cluster.request"
        assert forward.trace_id == root.trace_id

    served = [
        s for s in spans
        if s.name == "service.request"
        and s.attributes.get("path") == "/v1/allocate"
    ]
    assert served, "shard never recorded the forwarded request"
    for span in served:
        parent = by_id[span.parent_id]
        assert parent.name == "cluster.forward"
        assert by_id[parent.parent_id].span_id == root.span_id
        assert span.trace_id == root.trace_id


def test_untraced_requests_carry_no_header_and_cost_nothing():
    with running_cluster(num_shards=1) as (coordinator, _shards):
        client = ServiceClient(port=coordinator.port)
        client.allocate(**allocate_body())
        assert TRACER.drain() == []


def test_cluster_metrics_json_rollup_is_exact():
    with running_cluster(num_shards=2) as (coordinator, _shards):
        client = ServiceClient(port=coordinator.port)
        for entries in range(1, 5):
            client.allocate(**allocate_body(entries))
        payload = json.loads(
            _get(coordinator.port, "/v1/cluster/metrics")
        )

    assert payload["role"] == "coordinator"
    assert set(payload["shards"]) == {"0", "1"}
    snapshots = [
        entry["metrics"] for entry in payload["shards"].values()
    ]
    assert all(snapshot is not None for snapshot in snapshots)

    aggregate = payload["aggregate"]
    assert aggregate["counters"]["http_requests"] == sum(
        s["counters"].get("http_requests", 0) for s in snapshots
    )
    merged = aggregate["histograms"]["http_request_seconds"]
    parts = [s["histograms"]["http_request_seconds"] for s in snapshots]
    assert merged["count"] == sum(p["count"] for p in parts)
    assert merged["bucket_counts"] == [
        sum(pair) for pair in zip(*(p["bucket_counts"] for p in parts))
    ]
    assert payload["coordinator"]["counters"]["cluster_requests"] >= 4


def test_cluster_metrics_prometheus_carries_shard_labels():
    with running_cluster(num_shards=2) as (coordinator, _shards):
        client = ServiceClient(port=coordinator.port)
        client.allocate(**allocate_body())
        text = _get(
            coordinator.port, "/v1/cluster/metrics?format=prometheus"
        )

    assert 'shard="coordinator"' in text
    assert 'shard="0"' in text and 'shard="1"' in text
    # The exact cross-shard merge appears as one shard="cluster" series.
    assert 'repro_http_request_seconds_bucket{shard="cluster",le=' in text
    assert 'repro_http_request_seconds_count{shard="cluster"}' in text
    # One HELP/TYPE block per metric family, not per shard.
    assert text.count("# TYPE repro_http_requests_total counter") == 1


def test_coordinator_publishes_its_cache_gauges():
    with running_cluster(num_shards=1) as (coordinator, _shards):
        client = ServiceClient(port=coordinator.port)
        for _ in range(3):
            client.allocate(**allocate_body())
        text = _get(coordinator.port, "/metrics?format=prometheus")
        snapshot = json.loads(_get(coordinator.port, "/metrics"))
    for cache in ("cluster.routes", "cluster.front"):
        for family in ("hits", "misses", "evictions", "size"):
            assert f'repro_cache_{family}{{cache="{cache}"}}' in text
    # One distinct body: one route miss, then hits.  The gauges sum
    # every live coordinator of this process, so they bound from above.
    routes = coordinator._routes
    assert (routes.misses, routes.hits, len(routes)) == (1, 2, 1)
    gauges = snapshot["gauges"]
    assert gauges['cache_hits{cache="cluster.routes"}'] >= 2
    assert gauges['cache_size{cache="cluster.routes"}'] >= 1
