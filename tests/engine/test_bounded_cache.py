"""`BoundedCache`: LRU order, counts, thread safety, and its call sites.

The process-lifetime memos all share this one primitive, so these
tests pin the policy once: least-recently-used eviction at a fixed
entry bound (no clear-everything cliff), exact hit/miss/eviction
counts, and safe sharing between threads.  They also pin the contract
callers rely on: no caller may count on an entry surviving, so a batch
larger than its memo still returns what it computed.
"""

import sys
import threading

from repro.alloc import analysis
from repro.alloc.serialize import annotations_to_dict
from repro.engine.cache import BoundedCache, publish_cache_metrics
from repro.engine.metrics import RunMetrics
from repro.ir import parse_kernel
from repro.obs.registry import labeled_name
from repro.sim.runner import allocate_for_traces, allocate_for_traces_batch
from repro.sim.schemes import Scheme, SchemeKind


def _kernel(constant: int):
    """A tiny kernel whose content fingerprint varies with ``constant``."""
    return parse_kernel(
        f"""
.kernel bounded
.livein R0 R1
entry:
    iadd R2, R0, {constant}
    imul R3, R2, R2
    stg [R1], R3
    exit
"""
    )


def test_lru_order_and_counts():
    cache = BoundedCache("test.lru", 2)
    cache["a"] = 1
    cache["b"] = 2
    assert cache.get("a") == 1  # "a" is now most recent
    cache["c"] = 3  # evicts "b", the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert len(cache) == 2
    assert (cache.hits, cache.misses, cache.evictions) == (3, 1, 1)

    cache["a"] = 10  # overwriting refreshes, never evicts
    assert cache.evictions == 1
    cache["d"] = 4  # evicts "c"
    assert cache.get("c", "gone") == "gone"
    assert cache.get("a") == 10


def test_get_or_compute_builds_once_per_miss():
    cache = BoundedCache("test.compute", 4)
    built = []

    def build():
        built.append(1)
        return "value"

    assert cache.get_or_compute("k", build) == "value"
    assert cache.get_or_compute("k", build) == "value"
    assert len(built) == 1
    assert (cache.hits, cache.misses) == (1, 1)
    cache.clear()
    assert len(cache) == 0
    assert cache.get_or_compute("k", build) == "value"
    assert len(built) == 2


def test_none_values_are_cached():
    cache = BoundedCache("test.none", 2)
    calls = []
    for _ in range(3):
        cache.get_or_compute("k", lambda: calls.append(1))
    assert len(calls) == 1


def test_zero_bound_holds_nothing():
    cache = BoundedCache("test.zero", 0)
    cache["a"] = 1
    assert len(cache) == 0
    assert cache.evictions == 1


def test_kernel_analysis_has_no_hit_cliff(monkeypatch):
    """One kernel past the bound evicts one entry; the most recent
    ``bound`` kernels all still hit."""
    bound = analysis._ANALYSIS_ENTRIES
    monkeypatch.setattr(
        analysis,
        "_ANALYSIS_CACHE",
        BoundedCache("alloc.analyses", bound),
    )
    analysed = []

    def fake_analyze(kernel, assume_persistent=False):
        analysed.append(kernel.content_fingerprint())
        return object()

    monkeypatch.setattr(analysis, "analyze_kernel", fake_analyze)
    kernels = [_kernel(constant) for constant in range(bound + 1)]
    first = [analysis.kernel_analysis(kernel) for kernel in kernels]
    assert len(analysed) == bound + 1
    again = [analysis.kernel_analysis(kernel) for kernel in kernels[1:]]
    assert len(analysed) == bound + 1, "recent kernels were re-analysed"
    assert all(a is b for a, b in zip(again, first[1:]))
    assert analysis._ANALYSIS_CACHE.evictions == 1


def test_threads_hammering_overlapping_keys():
    """More threads than cores with a tiny switch interval: a lost
    update to the dict or the counts breaks the invariants below."""
    bound = 16
    cache = BoundedCache("test.threads", bound)
    errors = []
    calls_per_thread = 2000

    def worker(offset):
        try:
            for i in range(calls_per_thread):
                key = (i * 7 + offset) % 48
                value = cache.get_or_compute(key, lambda: key * 2)
                assert value == key * 2
                assert len(cache) <= bound
        except BaseException as error:  # pragma: no cover - reported
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache) <= bound
    assert cache.hits + cache.misses == 8 * calls_per_thread
    # Every miss stores once; racing misses on one key overwrite.
    assert len(cache) + cache.evictions <= cache.misses


def test_batch_larger_than_memo_returns_what_it_computed():
    kernel = _kernel(3)
    configs = [
        Scheme(SchemeKind.SW_TWO_LEVEL, entries).allocation_config()
        for entries in (1, 2, 3, 4, 5, 6, 7, 8)
    ] + [Scheme(SchemeKind.SW_THREE_LEVEL, 3).allocation_config()]
    memo = BoundedCache("test.allocations", 2)
    batched = allocate_for_traces_batch(kernel, configs, memo=memo)
    assert len(memo) <= 2
    assert len(batched) == len(configs)
    for config, allocation in zip(configs, batched):
        single = allocate_for_traces(kernel, config)
        assert allocation.config == config
        assert annotations_to_dict(allocation.kernel) == annotations_to_dict(
            single.kernel
        )
        assert allocation.summary() == single.summary()


def test_publish_sums_caches_sharing_a_name():
    first = BoundedCache("test.published", 4)
    second = BoundedCache("test.published", 4)
    first["a"] = 1
    first.get("a")
    second.get("missing")
    second["b"] = 2
    metrics = RunMetrics()
    publish_cache_metrics(metrics)

    def gauge(family):
        return metrics.gauges[labeled_name(family, cache="test.published")]

    assert gauge("cache_hits") == 1
    assert gauge("cache_misses") == 1
    assert gauge("cache_evictions") == 0
    assert gauge("cache_size") == 2
    assert labeled_name("cache_size", cache="alloc.analyses") in metrics.gauges
