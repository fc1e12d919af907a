"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``figures``: the full ten-figure set of ``repro all --scale 1.0``,
  each pass in a fresh process with no engine (``units.py``).
* ``design_sweep``: exhaustive 320-config tuning of every suite kernel
  plus seeded fuzz kernels, fresh engine per kernel (``units.py``).
* ``alloc_service``: a 2-connection closed loop of seeded IR-text
  requests against one ``repro serve`` process (``service_wl.py``).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes the traced run instead: the same work once plain
and once with every layer's entry point wrapped (``layers.py``), and
reports the per-layer ledger, its additivity checks and the tracing
overhead.  Either way the command prints every metric with its unit
and the result of every correctness check, then, as its last line, the
JSON result.  Set-up problems (no program to run, a worker that dies
before it is ready) exit with status 2 and print no result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Any, Dict

from common import BenchError, host_loop_ms, load_golden, require_program

WORKLOADS = ("figures", "design_sweep", "alloc_service")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: What one operation is, per workload (for the printed report).
OPERATION = {
    "figures": "one rendered figure (p50/p95: one full figure-set pass)",
    "design_sweep": "one kernel's exhaustive tune (ops_per_s: kernel x config evaluations/s)",
    "alloc_service": "one HTTP request",
}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if workload == "alloc_service":
        import service_wl

        if trace:
            return service_wl.traced(seed, seconds)
        return service_wl.run(seed, seconds)
    import units

    golden = load_golden()
    if trace:
        return units.traced(workload, seed, golden)
    return units.run(workload, seed, seconds, golden)


def result_line(outcome: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    if trace:
        from layers import PER_LAYER, empty_values

        values = {**empty_values(), **outcome["values"]}
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": outcome["failed"] == 0 and all(outcome["checks"].values()),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def report(args, outcome: Dict[str, Any], line: Dict[str, Any]) -> None:
    mode = "traced" if args.trace else "untraced"
    print(
        f"# perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} ({mode}); operation = "
        f"{OPERATION[args.workload]}"
    )
    for key, value in sorted(outcome.get("info", {}).items()):
        print(f"#   {key}: {value}")
    for name, entry in line["metrics"].items():
        print(f"  {name:<32} {entry['value']:>16.6g} {entry['unit']}")
    for name, passed in outcome["checks"].items():
        print(f"  check: {name:<44} {'ok' if passed else 'FAILED'}")
    print(
        f"  operations: {line['attempted']} attempted, "
        f"{line['failed']} failed"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so every worker and server is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        require_program()
        host_before = host_loop_ms()
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    outcome.setdefault("info", {})["host_loop_ms (before, after)"] = (
        f"{host_before:.2f}, {host_loop_ms():.2f}"
    )
    line = result_line(outcome, bool(args.trace))
    report(args, outcome, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
