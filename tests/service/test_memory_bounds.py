"""A long-running server's memory stays bounded.

Every process-lifetime memo a ``ServiceServer`` touches (its result
memo, the worker pipeline's parse/trace/allocation memos, the two
analysis caches) is a :class:`~repro.engine.cache.BoundedCache`.  With
small bounds swapped in, posting more distinct kernels than the bound
keeps every cache at or under it, and a kernel whose entries were all
evicted is recomputed to a byte-identical response.
"""

import contextlib
import http.client
import json
import threading

import pytest

from repro.alloc import analysis
from repro.engine.cache import BoundedCache
from repro.service import pipeline
from repro.service.loadgen import LOADGEN_KERNEL
from repro.service.server import ServiceConfig, ServiceServer
from repro.sim import compiled

BOUND = 3
KERNELS = 2 * BOUND + 1
SW = {"kind": "sw_lrf", "entries_per_thread": 3, "split_lrf": True}
HW = {"kind": "hw_lrf"}
#: (op, scheme) per kernel: software allocation and accounting, plus a
#: hardware evaluation for the liveness analysis cache.
REQUESTS = [("evaluate", SW), ("allocate", SW), ("evaluate", HW)]

#: (module, attribute, cache name) of every module-level memo.
MODULE_CACHES = [
    (pipeline, "_KERNELS", "service.kernels"),
    (pipeline, "_TRACES", "service.traces"),
    (pipeline, "_BENCH_TRACES", "service.bench_traces"),
    (pipeline, "_ALLOCATIONS", "service.allocations"),
    (analysis, "_ANALYSIS_CACHE", "alloc.analyses"),
    (compiled, "_ANALYSIS_CACHE", "sim.kernel_analyses"),
]


def _kernel_text(index: int) -> str:
    """LOADGEN_KERNEL with a per-index stride: distinct content."""
    return LOADGEN_KERNEL.replace(
        "iadd R0, R0, 4", f"iadd R0, R0, {index + 8}"
    )


@pytest.fixture
def small_caches(monkeypatch):
    caches = {}
    for module, attribute, name in MODULE_CACHES:
        cache = BoundedCache(name, BOUND)
        monkeypatch.setattr(module, attribute, cache)
        caches[name] = cache
    return caches


@contextlib.contextmanager
def _server(caches):
    server = ServiceServer(ServiceConfig(port=0, jobs=2, executor="thread"))
    server._memo = caches["service.results"] = BoundedCache(
        "service.results", BOUND
    )
    thread = threading.Thread(target=server.run_forever, daemon=True)
    thread.start()
    assert server.started.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10)


def _post(port: int, op: str, body) -> bytes:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", f"/v1/{op}", json.dumps(body))
        response = connection.getresponse()
        payload = response.read()
        assert response.status == 200, payload
        return payload
    finally:
        connection.close()


def test_caches_stay_bounded_and_evicted_kernels_recompute(small_caches):
    with _server(small_caches) as server:
        first = {}
        for index in range(KERNELS):
            for n, (op, scheme) in enumerate(REQUESTS):
                body = {"kernel": _kernel_text(index), "scheme": scheme}
                first[index, n] = _post(server.port, op, body)
            for name, cache in small_caches.items():
                assert len(cache) <= BOUND, name

        for name, cache in small_caches.items():
            if name != "service.bench_traces":
                assert cache.evictions > 0, name

        for n, (op, scheme) in enumerate(REQUESTS):
            body = {"kernel": _kernel_text(0), "scheme": scheme}
            again = _post(server.port, op, body)
            assert json.loads(again)["served_from"] == "computed"
            assert again == first[0, n]
        for name, cache in small_caches.items():
            assert len(cache) <= BOUND, name
