"""The ``figures`` and ``design_sweep`` workloads (parent side).

Both run units of work in fresh worker processes (``worker.py``): a
unit is one full ten-figure pass, or one design-sweep round (every
suite kernel plus seeded fuzz kernels, each tuned exhaustively over
the 320-config space with a fresh engine).  Units start while the run
is younger than ``--seconds``, so every unit completes and later units
never reuse an earlier unit's warm caches.

Operations are figures and kernels.  A figure is correct when its
rendered text hashes to the golden digest; a kernel is correct when
its best config and frontier hash to the golden.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from common import (
    STUDIES,
    Child,
    median,
    percentile,
    setup_only,
)
from layers import layer_values
from ledger import Ledger

#: Worker starts per run that ``setup_s`` is the median of: one per
#: unit, topped up with set-up-only starts.
SETUP_SAMPLES = 5
#: The traced run and its untraced reference sweep every Nth kernel of
#: the round, to keep both inside one run.
TRACE_SWEEP_EVERY = 2
UNIT_TIMEOUT_S = 150.0
#: Largest share of the traced wall time the root spans may miss (the
#: worker's loop glue between units).
WALL_GAP_TOLERANCE = 0.01


def _unit(
    workload: str, seed: int, round_index: int, trace: bool, every: int = 1
) -> Dict[str, Any]:
    args = ["--workload", workload, "--seed", str(seed)]
    args += ["--round", str(round_index), "--every", str(every)]
    if trace:
        args.append("--trace")
    child = Child(args, UNIT_TIMEOUT_S)
    try:
        setup_s, _ = child.expect("READY")
        _, result = child.expect("RESULT")
    finally:
        child.close()
    result["setup_s"] = setup_s
    return result


def _check(workload: str, units: List[Dict[str, Any]], golden) -> int:
    """Mark each operation; returns the number that failed."""
    expected = golden["figures"] if workload == "figures" else golden["sweep"]
    failed = 0
    for unit in units:
        unit["ok"] = expected.get(unit["name"]) == unit["digest"]
        failed += not unit["ok"]
    return failed


def _throughput(workload: str, units: List[Dict[str, Any]]) -> float:
    """Figures, or kernel x config evaluations, per second of work."""
    work = len(units) if workload == "figures" else sum(
        unit["evals"] for unit in units
    )
    return work / sum(unit["seconds"] for unit in units)


def run(workload: str, seed: int, seconds: float, golden) -> Dict[str, Any]:
    """Untraced run: the end-to-end metrics."""
    started = time.perf_counter()
    results = []
    while not results or time.perf_counter() - started < seconds:
        results.append(_unit(workload, seed, len(results), trace=False))
    setups = [r["setup_s"] for r in results]
    setups += [
        setup_only(workload, seed)
        for _ in range(max(0, SETUP_SAMPLES - len(setups)))
    ]
    units = [unit for r in results for unit in r["units"]]
    failed = _check(workload, units, golden)
    if workload == "figures":
        # A user waits for the whole figure set, and single figures
        # differ too much in cost for their percentiles to mean much.
        latencies_ms = [
            sum(unit["seconds"] for unit in r["units"]) * 1e3
            for r in results
        ]
    else:
        latencies_ms = [unit["seconds"] * 1e3 for unit in units]
    return {
        "attempted": len(units),
        "failed": failed,
        "checks": {
            "golden digests": failed == 0,
            "untraced run installed no wrapper": not any(
                r["wrapped"] for r in results
            ),
        },
        "metrics": {
            "setup_s": median(setups),
            "ops_per_s": _throughput(workload, units),
            "p50_ms": percentile(latencies_ms, 0.50),
            "p95_ms": percentile(latencies_ms, 0.95),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
        },
        "info": {
            "units": len(results),
            "samples": len(units),
            "setup_samples": len(setups),
        },
    }


def traced(workload: str, seed: int, golden) -> Dict[str, Any]:
    """One untraced and one traced unit of identical work: the
    per-layer ledger and the tracing overhead."""
    every = TRACE_SWEEP_EVERY if workload == "design_sweep" else 1
    plain = _unit(workload, seed, 0, trace=False, every=every)
    traced_unit = _unit(workload, seed, 0, trace=True, every=every)
    units = plain["units"] + traced_unit["units"]
    failed = _check(workload, units, golden)

    ledger_payload = traced_unit["ledger"]
    ledger = Ledger.from_dict(ledger_payload)
    values = layer_values(ledger)
    wall = ledger_payload["wall_s"]
    values["ledger.wall_gap_ratio"] = abs(wall - ledger.root_s) / wall
    plain_s = sum(unit["seconds"] for unit in plain["units"])
    traced_s = sum(unit["seconds"] for unit in traced_unit["units"])
    values["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    if workload == "figures":
        studies = sum(
            unit["seconds"]
            for unit in plain["units"]
            if unit["name"] in STUDIES
        )
        values["experiments.studies_share"] = studies / plain_s
    sums_ok, _ = ledger.check()
    return {
        "attempted": len(units),
        "failed": failed,
        "checks": {
            "golden digests": failed == 0,
            "untraced run installed no wrapper": not plain["wrapped"],
            "self times add up to the traced total": sums_ok,
            "traced total covers the wall time": values[
                "ledger.wall_gap_ratio"
            ]
            <= WALL_GAP_TOLERANCE,
        },
        "values": values,
        "info": {"samples": len(units)},
    }
