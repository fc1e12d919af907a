"""Worker process for the ``figures`` and ``design_sweep`` workloads.

One process runs one unit of work from a cold start, the way a user's
``repro all`` or tuning script does: import, set up (``READY``), do the
work, report (``RESULT``).  ``run.py`` spawns it and times set-up from
its own clock, so set-up includes interpreter start and imports.

    python3 perfbench/worker.py --workload figures --seed 1
    python3 perfbench/worker.py --workload design_sweep --seed 1 --round 0

``--trace`` wraps every layer's entry point (see ``layers.py``) before
set-up and adds the span ledger to the result.  ``--setup-only`` exits
after ``READY``.  ``--workload verify`` computes the ``alloc_service``
workload's expected results (see ``service_wl.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

from common import (
    FIGURES,
    SRC,
    canonical_digest,
    emit,
    load_golden,
    self_peak_rss_mb,
    sweep_kernels,
    text_digest,
)

sys.path.insert(0, str(SRC))


class _NoLedger:
    """Stand-in for the untraced path: spans cost nothing."""

    def span(self, name):
        import contextlib

        return contextlib.nullcontext()

    def count(self, name, amount=1):
        pass


def _start_ledger(trace: bool, targets):
    if not trace:
        return _NoLedger(), None
    from ledger import Ledger, install

    ledger = Ledger()
    return ledger, install(ledger, targets)


def _wrapped():
    from ledger import installed_wrappers

    return installed_wrappers()


def _ledger_payload(ledger, wall_s: float):
    if isinstance(ledger, _NoLedger):
        return None
    return {**ledger.to_dict(), "wall_s": wall_s}


def run_figures(args) -> None:
    from repro import experiments  # noqa: F401 - imports every driver
    from repro.experiments import SuiteData
    from repro.workloads.suites import all_workloads

    from layers import figure_functions, figure_targets, pipeline_targets

    ledger, _ = _start_ledger(
        args.trace, pipeline_targets() + figure_targets()
    )
    started = time.perf_counter()
    with ledger.span("bench.setup"):
        data = SuiteData.build(all_workloads(1.0), scale=1.0)
    emit("READY", {"dynamic_instructions": data.dynamic_instructions})
    if args.setup_only:
        return
    figures = []
    # ``repro all`` order: the figures' inputs are the fixed suite, so
    # the seed changes nothing here.
    for name in FIGURES:
        with ledger.span("bench.unit"):
            unit_started = time.perf_counter()
            run, fmt = figure_functions(name)
            text = fmt(run(data))
            seconds = time.perf_counter() - unit_started
            figures.append(
                {"name": name, "seconds": seconds, "digest": text_digest(text)}
            )
    wall = time.perf_counter() - started
    emit(
        "RESULT",
        {
            "units": figures,
            "peak_rss_mb": self_peak_rss_mb(),
            "wrapped": _wrapped(),
            "ledger": _ledger_payload(ledger, wall),
        },
    )


def sweep_spec(name: str):
    from repro.workloads.generators import generate_workload
    from repro.workloads.suites import get_workload

    if name.startswith("fuzz:"):
        return generate_workload(int(name.split(":", 1)[1]))
    return get_workload(name, 1.0)


def run_design_sweep(args) -> None:
    from repro.engine import ExperimentEngine
    from repro.sim import runner
    from repro.tuner import runner as tuner
    from repro.tuner.space import default_space
    from repro.workloads.suites import BENCHMARK_NAMES

    from layers import pipeline_targets

    golden = load_golden()
    names = sweep_kernels(
        args.seed, args.round, BENCHMARK_NAMES, golden["fuzz_pool"]
    )
    if args.every > 1:
        names = names[:: args.every]
    ledger, _ = _start_ledger(args.trace, pipeline_targets())
    started = time.perf_counter()
    with ledger.span("bench.setup"):
        workloads = []
        for name in names:
            spec = sweep_spec(name)
            workloads.append(
                (name, runner.build_traces(spec.kernel, spec.warp_inputs))
            )
        space = default_space()
        budget = space.valid_size()
    emit("READY", {"kernels": len(workloads), "configs": budget})
    if args.setup_only:
        return
    units = []
    for name, traces in workloads:
        with ledger.span("bench.unit"):
            unit_started = time.perf_counter()
            engine = ExperimentEngine()
            payload = tuner.run_tune(
                traces,
                space=space,
                strategy="exhaustive",
                budget=budget,
                engine=engine,
            )
            digest = canonical_digest(
                {"best": payload["best"], "frontier": payload["frontier"]}
            )
            seconds = time.perf_counter() - unit_started
            counters = engine.metrics.counters
            hits = counters.get("record_memo_hits", 0) + counters.get(
                "record_disk_hits", 0
            )
            ledger.count("engine.record_hits", hits)
            ledger.count(
                "engine.record_lookups",
                hits + counters.get("record_misses", 0),
            )
            units.append(
                {
                    "name": name,
                    "seconds": seconds,
                    "evals": payload["evaluations"]["distinct"],
                    "digest": digest,
                }
            )
    wall = time.perf_counter() - started
    emit(
        "RESULT",
        {
            "units": units,
            "peak_rss_mb": self_peak_rss_mb(),
            "wrapped": _wrapped(),
            "ledger": _ledger_payload(ledger, wall),
        },
    )


def run_verify(args) -> None:
    """Expected service results for one share of a jobs file; kernels
    are split by index so both ops of a kernel share this process's
    parse and allocation memos, as on the server."""
    import json

    from service_wl import expected_digests

    part, parts = (int(x) for x in args.part.split("/"))
    with open(args.jobs_file, "r", encoding="utf-8") as handle:
        jobs = [job for job in json.load(handle) if job[0] % parts == part]
    emit("READY", {"jobs": len(jobs)})
    emit("RESULT", {"digests": expected_digests(jobs)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=("figures", "design_sweep", "verify"),
        required=True,
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument(
        "--every", type=int, default=1, help="sweep every Nth kernel only"
    )
    parser.add_argument("--jobs-file", help="verify: the service jobs")
    parser.add_argument("--part", default="0/1", help="verify: share K/N")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "figures":
        run_figures(args)
    elif args.workload == "design_sweep":
        run_design_sweep(args)
    else:
        run_verify(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
