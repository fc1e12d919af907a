"""Serializable evaluation records and their cache keys.

A *record* is the JSON image of one :class:`KernelEvaluation` — the
part every figure driver consumes (scheme and baseline counters plus
the dynamic instruction count).  The ``AllocationResult`` itself is
deliberately not in the record: no driver reads it through the engine,
so a record served from the memo or the disk carries none, and the
engine keeps no annotated kernel alive.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..hierarchy.counters import AccessCounters
from ..levels import Level
from ..sim.runner import KernelEvaluation, TraceSet
from ..sim.schemes import Scheme
from .hashing import dataclass_fingerprint, digest, traceset_fingerprint

RECORD_SCHEMA = 1


def record_key(traces: TraceSet, scheme: Scheme) -> str:
    """Cache key of one (trace set, scheme) evaluation."""
    return digest(
        "evaluation",
        traceset_fingerprint(traces),
        dataclass_fingerprint(scheme),
    )


def counters_to_payload(counters: AccessCounters) -> List[List[Any]]:
    return sorted(
        [level.name, bool(is_read), bool(shared), count]
        for (level, is_read, shared), count in counters.counts.items()
    )


def counters_from_payload(payload: List[List[Any]]) -> AccessCounters:
    counters = AccessCounters()
    for level_name, is_read, shared, count in payload:
        counters.counts[(Level[level_name], bool(is_read), bool(shared))] = (
            count
        )
    return counters


def record_payload(evaluation: KernelEvaluation) -> Dict[str, Any]:
    return {
        "schema": RECORD_SCHEMA,
        "kernel_name": evaluation.kernel_name,
        "counters": counters_to_payload(evaluation.counters),
        "baseline": counters_to_payload(evaluation.baseline),
        "dynamic_instructions": evaluation.dynamic_instructions,
    }


def evaluation_from_payload(
    payload: Dict[str, Any], scheme: Scheme
) -> KernelEvaluation:
    return KernelEvaluation(
        kernel_name=payload["kernel_name"],
        scheme=scheme,
        counters=counters_from_payload(payload["counters"]),
        baseline=counters_from_payload(payload["baseline"]),
        dynamic_instructions=payload["dynamic_instructions"],
        allocation=None,
    )


def payload_is_valid(payload: Any) -> bool:
    return (
        isinstance(payload, dict)
        and payload.get("schema") == RECORD_SCHEMA
        and "counters" in payload
        and "baseline" in payload
    )


# -- trace round-trip ------------------------------------------------------
#
# A cached trace stores only (position, flags) per event; instruction
# objects are re-resolved against the kernel at load time, so a loaded
# TraceSet aliases the caller's kernel exactly like a fresh build.

def traceset_to_payload(traces: TraceSet) -> Dict[str, Any]:
    return {
        "schema": RECORD_SCHEMA,
        "kernel": traces.kernel.content_fingerprint(),
        "warps": [
            [event.columns() for event in trace]
            for trace in traces.warp_traces
        ],
    }


def traceset_from_payload(kernel, payload: Dict[str, Any]) -> TraceSet:
    from ..sim.executor import TraceEvent

    layout = list(kernel.instructions())
    warp_traces = [
        [
            TraceEvent(
                ref=layout[position][0],
                instruction=layout[position][1],
                guard_passed=guard_passed,
                branch_taken=branch_taken,
                active_mask=active_mask,
                exec_mask=exec_mask,
            )
            for (
                position,
                guard_passed,
                branch_taken,
                active_mask,
                exec_mask,
            ) in trace
        ]
        for trace in payload["warps"]
    ]
    return TraceSet(kernel, warp_traces)


def trace_payload_is_valid(payload: Any, kernel) -> bool:
    return (
        isinstance(payload, dict)
        and payload.get("schema") == RECORD_SCHEMA
        and payload.get("kernel") == kernel.content_fingerprint()
        and isinstance(payload.get("warps"), list)
    )
