"""Worker-side compute for the allocation service.

:func:`run_service_job` is the only function crossing the process
boundary: a canonical job dict in (see
:func:`repro.service.protocol.normalize_request`), a JSON result dict
out.  Like :mod:`repro.engine.jobs`, nothing heavyweight is pickled —
workers rebuild benchmarks from the registry and re-parse IR text, and
keep per-process memos (parsed kernels, trace sets, allocations) so a
worker that sees several schemes for one kernel traces and allocates
it once.

Jobs are single-scheme, but the allocator's scheme-independent
analysis phase (:mod:`repro.alloc.analysis`) is cached per process by
kernel content fingerprint — so a worker handling N schemes of one
kernel analyses it once and runs only the per-config levels pass N
times, the same sharing the in-process engine gets from
``evaluate_traces_batch``.

Evaluation results embed the engine's record payload verbatim
(:func:`repro.engine.records.record_payload`), which is what makes a
service response byte-comparable to the direct engine path.

Tune jobs run the whole design-space search in the worker
(:func:`repro.tuner.runner.run_tune`) against a per-process
:class:`~repro.engine.ExperimentEngine`, whose record memo carries
candidate evaluations across tune requests landing on the same worker.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

from ..alloc.serialize import annotations_to_dict
from ..engine.cache import BoundedCache
from ..engine.hashing import json_fingerprint
from ..engine.records import record_payload
from ..ir.kernel import Kernel
from ..ir.parser import parse_kernels
from ..sim.runner import (
    TraceSet,
    allocate_for_traces,
    build_traces,
    evaluate_traces,
)
from ..workloads.suites import get_workload
from .protocol import scheme_from_json, warps_from_json

RESULT_SCHEMA = 1

#: Per-worker-process memos.  Keys are content-derived (text digest,
#: registry name + scale), so results never depend on which process
#: computed them.
_ENTRIES = 4096
_KERNELS = BoundedCache("service.kernels", _ENTRIES)
_TRACES = BoundedCache("service.traces", _ENTRIES)
_BENCH_TRACES = BoundedCache("service.bench_traces", _ENTRIES)
_ALLOCATIONS = BoundedCache("service.allocations", _ENTRIES)

#: Per-process engine for tune jobs: the search evaluates dozens of
#: schemes per request, and the engine's record memo carries candidate
#: evaluations across tune requests hitting the same worker.
_TUNE_ENGINE = None


def _tune_engine():
    global _TUNE_ENGINE
    if _TUNE_ENGINE is None:
        from ..engine import ExperimentEngine

        _TUNE_ENGINE = ExperimentEngine()
    return _TUNE_ENGINE


def _probe() -> str:
    """Round-trip probe the server uses to vet the process pool."""
    return "ok"


def _text_kernel(text: str) -> Kernel:
    return _KERNELS.get_or_compute(
        hashlib.sha256(text.encode("utf-8")).hexdigest(),
        lambda: parse_kernels(text)[0],
    )


def _text_traces(text: str, warps_json: List[Dict[str, Any]]) -> TraceSet:
    kernel = _text_kernel(text)
    return _TRACES.get_or_compute(
        (kernel.content_fingerprint(), json_fingerprint(warps_json)),
        lambda: build_traces(kernel, warps_from_json(warps_json)),
    )


def _benchmark_traces(name: str, scale: float) -> TraceSet:
    def build() -> TraceSet:
        spec = get_workload(name, scale)
        return build_traces(spec.kernel, spec.warp_inputs)

    return _BENCH_TRACES.get_or_compute((name, scale), build)


def _job_traces(payload: Dict[str, Any]) -> TraceSet:
    if payload.get("benchmark") is not None:
        return _benchmark_traces(payload["benchmark"], payload["scale"])
    return _text_traces(payload["kernel"], payload["warps"])


def run_service_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Compute one normalised service job.  Pure: the result depends
    only on the payload, never on worker state or call order."""
    op = payload["op"]
    if op == "tune":
        from ..tuner import run_tune
        from ..tuner.space import space_from_dict

        tune = payload["tune"]
        traces = _job_traces(payload)
        result = run_tune(
            traces,
            space=space_from_dict(tune["space"]),
            strategy=tune["strategy"],
            objective=tune["objective"],
            budget=tune["budget"],
            seed=tune["seed"],
            engine=_tune_engine(),
        )
        return {
            "schema": RESULT_SCHEMA,
            "op": op,
            "kernel": result["kernel"],
            "tuner": result,
        }
    scheme = scheme_from_json(payload["scheme"])
    if op == "evaluate":
        traces = _job_traces(payload)
        evaluation = evaluate_traces(
            traces, scheme, allocation_memo=_ALLOCATIONS
        )
        return {
            "schema": RESULT_SCHEMA,
            "op": op,
            "kernel": evaluation.kernel_name,
            "scheme": scheme.name,
            "record": record_payload(evaluation),
        }
    if op == "allocate":
        if payload.get("benchmark") is not None:
            kernel = get_workload(
                payload["benchmark"], payload["scale"]
            ).kernel
        else:
            kernel = _text_kernel(payload["kernel"])
        allocation = allocate_for_traces(
            kernel, scheme.allocation_config(), memo=_ALLOCATIONS
        )
        return {
            "schema": RESULT_SCHEMA,
            "op": op,
            "kernel": kernel.name,
            "scheme": scheme.name,
            "summary": allocation.summary(),
            "strands": allocation.strand_report(),
            "annotations": annotations_to_dict(allocation.kernel),
        }
    raise ValueError(f"unknown service op {op!r}")
