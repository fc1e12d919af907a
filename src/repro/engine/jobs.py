"""Process-pool jobs: picklable descriptions, deterministic rebuilds.

A job never carries a kernel or a trace across the process boundary —
only the workload's registry name, the suite scale, and the (frozen,
picklable) scheme.  Workers rebuild the workload with
:func:`repro.workloads.suites.get_workload`, which is deterministic, so
a worker's evaluation record is bit-identical to the record the parent
would have computed itself.  That property is what lets the parent
merge pool results in submission order and still produce byte-identical
figure output.

Workers keep a per-process trace memo so a worker that receives
several schemes for one workload only traces it once.  They keep no
allocation memo: jobs are distinct records, whose allocations do not
repeat (a ``repro all --jobs 2`` run re-allocates nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..sim.runner import TraceSet, build_traces, evaluate_traces
from ..sim.schemes import Scheme
from ..workloads.suites import get_workload
from .cache import BoundedCache
from .records import record_payload


@dataclass(frozen=True)
class EvaluationJob:
    """Evaluate one registry workload under one scheme."""

    workload: str
    scale: float
    scheme: Scheme


#: Per-worker-process trace memo.
_WORKER_TRACES = BoundedCache("engine.worker_traces", 8192)


def _worker_traces(workload: str, scale: float) -> TraceSet:
    def build() -> TraceSet:
        spec = get_workload(workload, scale)
        return build_traces(spec.kernel, spec.warp_inputs)

    return _WORKER_TRACES.get_or_compute((workload, scale), build)


def run_evaluation_job(job: EvaluationJob) -> Dict[str, Any]:
    """Worker entry point: returns the JSON evaluation record."""
    traces = _worker_traces(job.workload, job.scale)
    return record_payload(evaluate_traces(traces, job.scheme))
