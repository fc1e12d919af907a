"""Worker-side analysis sharing: N schemes of one kernel, one analysis.

Service jobs are single-scheme, so the batching win inside a worker
process comes from the allocator's shared analysis cache — every
scheme's ``allocate_for_traces`` hits the same
:class:`~repro.alloc.analysis.KernelAnalysis` entry for the kernel.
This runs :func:`run_service_job` in-process (the worker entry point is
a plain function) and inspects the cache directly.
"""

from repro.alloc.analysis import _ANALYSIS_CACHE
from repro.service.pipeline import run_service_job
from repro.service.protocol import normalize_request
from repro.sim.schemes import Scheme, SchemeKind


def _allocate_job(scheme: Scheme):
    return normalize_request(
        "allocate",
        {
            "benchmark": "vectoradd",
            "scheme": {
                "kind": scheme.kind.value,
                "entries_per_thread": scheme.entries_per_thread,
                "split_lrf": scheme.split_lrf,
            },
        },
    ).payload


def test_worker_shares_one_analysis_across_schemes():
    schemes = [
        Scheme(SchemeKind.SW_TWO_LEVEL, entries)
        for entries in (1, 2, 3)
    ] + [
        Scheme(SchemeKind.SW_THREE_LEVEL, 3),
        Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True),
    ]
    _ANALYSIS_CACHE.clear()
    results = [run_service_job(_allocate_job(s)) for s in schemes]
    # Five schemes, one kernel, one persistence flavour: one analysis.
    assert len(_ANALYSIS_CACHE) == 1
    assert len({r["kernel"] for r in results}) == 1
    assert all(r["annotations"] for r in results)
