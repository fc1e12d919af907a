"""Command-line front-end: ``repro <experiment>`` or ``python -m repro``.

Regenerates the paper's figures as text tables::

    repro fig13 --scale 1.0
    repro all
    repro show matrixmul        # annotated allocation of one benchmark
    repro list                  # benchmark inventory

and fronts the allocation service::

    repro serve --port 8077 --jobs 4        # the batching async server
    repro loadgen --port 8077               # benchmark a running server
    repro allocate kernel.asm               # one-shot allocation of a file

and the observability layer::

    repro trace vectoradd --trace-out trace.json    # Chrome/Perfetto trace
    repro explain fuzz:320 --orf-entries 1 --no-lrf --reg R18
    repro fig13 --trace-out t.json --profile-out p.txt

and the auto-tuner::

    repro tune matrixmul --strategy evolutionary --budget 64
    repro tune fuzz:911 --objective mrf --out BENCH_tuner.json

``trace``, ``explain``, and ``tune`` all accept the same kernel
target forms: a benchmark name, ``fuzz:SEED`` for a generated
workload, or a path to an IR text file (``-`` for stdin).

Each flag is declared once, in an ``_add_*`` flag group whose
``type=``/``choices=`` make a bad value a usage error (exit 2); each
command is one ``_run_*`` handler bound with ``set_defaults``.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from functools import partial
from typing import Callable, List, Optional

from . import experiments
from .alloc.allocator import AllocationConfig, allocate_kernel
from .bench import make_rule, run_diff
from .energy.tables import ORF_ENERGY_PJ
from .engine.cache import publish_cache_metrics
from .experiments import fig11, fig12, fig13, fig14
from .ir.parser import AsmSyntaxError, parse_kernels
from .ir.printer import format_allocated_kernel
from .obs.tracer import TRACER
from .sim.executor import WarpInput
from .sim.schemes import (
    BEST_HW_TWO_LEVEL, BEST_SCHEME, BEST_SW_TWO_LEVEL, Scheme, SchemeKind,
)
from .workloads.generators import generate_workload
from .workloads.shapes import WorkloadSpec
from .workloads.suites import (
    BENCHMARK_NAMES,
    all_workloads,
    get_workload,
    suite_of,
)

_FIGURES = {
    "fig2": (experiments.run_fig2, experiments.format_fig2),
    "fig11": (experiments.run_fig11, experiments.format_fig11),
    "fig12": (experiments.run_fig12, experiments.format_fig12),
    "fig13": (experiments.run_fig13, experiments.format_fig13),
    "fig14": (experiments.run_fig14, experiments.format_fig14),
    "fig15": (experiments.run_fig15, experiments.format_fig15),
    "limit": (experiments.run_limit_study, experiments.format_limit_study),
    "encoding": (
        experiments.run_encoding_study,
        experiments.format_encoding_study,
    ),
    "variable": (
        experiments.run_variable_orf_study,
        experiments.format_variable_orf,
    ),
    "sensitivity": (
        experiments.run_sensitivity_study,
        experiments.format_sensitivity,
    ),
}


def _version_text() -> str:
    """The installed distribution version, falling back to the
    package's own constant when running from a source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


# -- flag value converters (argparse ``type=``) ------------------------------


def _int_in(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """Integers in ``[low, high]`` (``high=None``: no upper bound)."""

    def convert(text: str) -> int:
        value = int(text) if re.fullmatch(r"\s*[-+]?\d+\s*", text) else None
        if value is None or value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(
                f"expected an integer {bound}, got {text!r}"
            )
        return value

    return convert


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a number > 0, got {text!r}"
        )
    return value


def _shard_label(text: str) -> str:
    """``K/N`` with 0 <= K < N, kept as the label string."""
    match = re.fullmatch(r"(\d+)/(\d+)", text)
    if not match or int(match[1]) >= int(match[2]):
        raise argparse.ArgumentTypeError(
            f"expected K/N with 0 <= K < N, got {text!r}"
        )
    return text


def _shard_address(text: str) -> str:
    """``HOST:PORT`` with a port in 1..65535, kept as given."""
    match = re.fullmatch(r".*:(\d+)", text)
    if not match or not 0 < int(match[1]) < 65536:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in 1..65535, got {text!r}"
        )
    return text


# -- flag groups: each flag declared once, per-command defaults passed in ----


def _add_scale_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--scale", type=_positive_float, default=1.0,
        help="multiply workload trip counts (default 1.0)",
    )


def _add_allocation_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--orf-entries", type=int, choices=sorted(ORF_ENERGY_PJ),
        default=3, metavar="N",
        help="ORF entries per thread, a Table 3 row 1..8 (default 3)",
    )
    cmd.add_argument(
        "--no-lrf", action="store_true", help="allocate no LRF (two levels)"
    )


def _allocation_config(args, **toggles) -> AllocationConfig:
    return AllocationConfig(
        orf_entries=args.orf_entries, use_lrf=not args.no_lrf,
        split_lrf=not args.no_lrf, **toggles,
    )


def _add_target_arg(cmd: argparse.ArgumentParser, default=None) -> None:
    cmd.add_argument(
        "target", nargs="?" if default else None, default=default,
        help="benchmark name, 'fuzz:SEED' for a generated workload, or "
             "a path to an IR text file ('-' for stdin)"
             + (f"; default {default}" if default else ""),
    )


def _add_benchmark_flags(
    cmd: argparse.ArgumentParser, default: List[str], warps: bool = True
) -> None:
    cmd.add_argument(
        "--benchmarks", nargs="*", choices=BENCHMARK_NAMES,
        default=default, metavar="NAME",
        help=f"benchmarks to run (default: {' '.join(default)})",
    )
    if warps:
        cmd.add_argument(
            "--warps", type=_int_in(1), default=32,
            help="warps per benchmark (default 32)",
        )


def _add_obs_flags(
    cmd: argparse.ArgumentParser,
    trace_out: Optional[str] = None,
    profile: bool = True,
) -> None:
    cmd.add_argument(
        "--trace-out", default=trace_out,
        help="enable span tracing; write a Chrome trace-event JSON "
             "(load in chrome://tracing or Perfetto) to this path"
             + (f" (default {trace_out})" if trace_out else ""),
    )
    cmd.add_argument(
        "--trace-jsonl", default=None,
        help="enable span tracing; stream spans to this JSONL file",
    )
    cmd.add_argument(
        "--metrics-out", default=None,
        help="write run metrics (JSON) to this path",
    )
    if profile:
        cmd.add_argument(
            "--profile-out", default=None,
            help="capture per-stage cProfile stats to this path",
        )


def _add_cache_flags(cmd: argparse.ArgumentParser, max_bytes=True) -> None:
    cmd.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache directory (off unless set)",
    )
    if max_bytes:
        cmd.add_argument(
            "--cache-max-bytes", type=_int_in(1), default=None,
            help="cap the cache directory size; oldest entries are "
                 "pruned on write (unbounded unless set)",
        )


def _add_engine_flags(
    cmd: argparse.ArgumentParser, jobs: int = 1, profile: bool = True
) -> None:
    cmd.add_argument(
        "--jobs", type=_int_in(1), default=jobs,
        help=f"worker processes/threads for evaluation (default {jobs})",
    )
    _add_cache_flags(cmd)
    _add_obs_flags(cmd, profile=profile)


def _add_endpoint_flags(
    cmd: argparse.ArgumentParser, port: int, timeout: float, max_pending=None
) -> None:
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument(
        "--port", type=_int_in(0, 65535), default=port,
        help=f"TCP port; 0 picks an ephemeral port (default {port})",
    )
    cmd.add_argument(
        "--timeout", type=_positive_float, default=timeout,
        help=f"per-request seconds before giving up (default {timeout:g})",
    )
    if max_pending is not None:
        cmd.add_argument(
            "--max-pending", type=_int_in(1), default=max_pending,
            help=f"requests in flight before 429 (default {max_pending})",
        )


def _add_out_flag(cmd: argparse.ArgumentParser, default: str) -> None:
    cmd.add_argument(
        "--out", default=default, help=f"output JSON path (default {default})"
    )


def _add_repeater_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--rule", choices=("ci", "hdi", "ks"), default=None,
        help="adaptive stopping rule for repeated measurements: "
             "bootstrap CI half-width (ci), highest-density "
             "interval width (hdi), or KS first/second-half "
             "stability (ks); default: the tool's built-in rule",
    )
    cmd.add_argument(
        "--min-repeats", type=int, default=None,
        help="repeats before the stopping rule may fire",
    )
    cmd.add_argument(
        "--max-repeats", type=int, default=None,
        help="hard repeat cap regardless of the rule",
    )
    cmd.add_argument(
        "--target", dest="bench_target", type=float, default=None,
        help="rule threshold: relative CI/HDI width, or KS statistic "
             "bound (ks wants ~0.25 at small repeat counts)",
    )
    cmd.add_argument(
        "--bench-seed", type=int, default=None,
        help="bootstrap RNG seed for the stopping rule (default 0)",
    )


def _command(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    cmd = sub.add_parser(name, help=help)
    cmd.set_defaults(handler=handler)
    return cmd


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Compile-Time Managed Multi-Level "
            "Register File Hierarchy' (MICRO 2011)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version_text()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Handlers wrapped in _with_observability get the CLI's tracer and
    # profiler lifecycle; serve, cluster and loadgen manage their own.
    figures = _with_observability(_run_figures)
    for name in list(_FIGURES) + ["all"]:
        cmd = _command(sub, name, figures, f"run the {name} experiment")
        _add_scale_flag(cmd)
        _add_engine_flags(cmd)

    unroll = _command(
        sub, "unroll", _run_unroll, "unroll-and-hoist ablation (Section 6.4)"
    )
    unroll.add_argument(
        "--factor", type=_int_in(2), default=4,
        help="unroll factor (default 4)",
    )
    _add_benchmark_flags(
        unroll, ["reduction", "scalarprod", "vectoradd"], warps=False
    )

    sched = _command(
        sub, "scheduler", _run_scheduler, "two-level warp scheduler IPC study"
    )
    _add_scale_flag(sched)
    _add_benchmark_flags(
        sched, ["matrixmul", "reduction", "hotspot", "mandelbrot"]
    )

    timing = _command(
        sub, "timing", _run_timing,
        "performance neutrality with operand-delivery timing",
    )
    _add_scale_flag(timing)
    _add_benchmark_flags(
        timing, ["matrixmul", "hotspot", "reduction", "montecarlo"]
    )

    show = _command(
        sub, "show", _run_show, "print one benchmark's annotated allocation"
    )
    show.add_argument("benchmark", choices=BENCHMARK_NAMES)
    _add_allocation_flags(show)
    show.add_argument(
        "--strands", action="store_true",
        help="also print the per-strand allocation report",
    )

    export = _command(
        sub, "export", _with_observability(_run_export),
        "write every figure as CSV to a directory",
    )
    export.add_argument("directory")
    _add_scale_flag(export)
    export.add_argument(
        "--skip-slow", action="store_true",
        help="skip the limit study (the most expensive driver)",
    )
    _add_engine_flags(export)

    report = _command(
        sub, "report", _with_observability(_run_report),
        "write the full reproduction report (markdown)",
    )
    report.add_argument("path", nargs="?", default="REPORT.md")
    _add_scale_flag(report)
    _add_engine_flags(report)

    bench = _command(
        sub, "bench-accounting", _run_bench_accounting,
        "time scalar vs. compiled accounting; write JSON",
    )
    _add_scale_flag(bench)
    bench.add_argument(
        "--repeats", type=_int_in(1), default=3,
        help="timing repeats (default 3)",
    )
    _add_out_flag(bench, "BENCH_accounting.json")
    _add_repeater_flags(bench)

    bench_tools = sub.add_parser(
        "bench", help="benchmark-report tooling (compare BENCH files)"
    )
    bench_sub = bench_tools.add_subparsers(
        dest="bench_command", required=True
    )
    bench_diff = _command(
        bench_sub, "diff", _run_bench_diff,
        "compare two BENCH reports; exit 1 on significant "
        "regression beyond the gate",
    )
    bench_diff.add_argument("old", help="baseline BENCH JSON")
    bench_diff.add_argument("new", help="candidate BENCH JSON")
    bench_diff.add_argument(
        "--gate", type=float, default=5.0,
        help="regression gate in percent: a comparable metric moving "
             "worse than this with non-overlapping CIs fails "
             "(default 5.0)",
    )

    allocate = _command(
        sub, "allocate", _run_allocate,
        "allocate a kernel from an IR text file (or '-' for stdin)",
    )
    allocate.add_argument("path", help="assembly file, or '-' for stdin")
    _add_allocation_flags(allocate)

    trace = _command(
        sub, "trace", _with_observability(_run_trace),
        "run one kernel through the full pipeline with span "
        "tracing on and write a Chrome trace-event JSON",
    )
    _add_target_arg(trace, default="vectoradd")
    _add_scale_flag(trace)
    _add_obs_flags(trace, trace_out="trace.json")
    _add_allocation_flags(trace)

    explain = _command(
        sub, "explain", _run_explain,
        "re-run the allocator with provenance recording and print "
        "the decision chain behind every placement",
    )
    _add_target_arg(explain)
    explain.add_argument(
        "--reg", default=None,
        help="only show decisions about this register, or decisions "
             "covering instructions that mention it (e.g. R18)",
    )
    explain.add_argument(
        "--pos", type=int, default=None,
        help="only show decisions covering this instruction position",
    )
    _add_allocation_flags(explain)
    explain.add_argument(
        "--no-forward-branches", action="store_true",
        help="restrict allocation to basic-block scope (Section 4.2)",
    )
    explain.add_argument(
        "--no-partial-ranges", action="store_true",
        help="disable partial range allocation (Section 4.3)",
    )
    explain.add_argument(
        "--no-read-operands", action="store_true",
        help="disable read operand allocation (Section 4.4)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report (strand map, decision "
             "trail, annotations) as JSON instead of text",
    )

    tune = _command(
        sub, "tune", _with_observability(_run_tune),
        "search the AllocationConfig design space for one kernel "
        "and write the best config, frontier, and search trace",
    )
    _add_target_arg(tune)
    tune.add_argument(
        "--strategy", choices=("exhaustive", "hillclimb", "evolutionary"),
        default="evolutionary", help="search strategy (default evolutionary)",
    )
    tune.add_argument(
        "--budget", type=int, default=64,
        help="max distinct configs to evaluate (default 64)",
    )
    tune.add_argument(
        "--seed", type=int, default=0,
        help="search RNG seed; same seed replays byte-identically "
             "(default 0)",
    )
    tune.add_argument(
        "--objective", choices=("energy", "mrf"), default="energy",
        help="minimise energy/instr (pJ) or MRF accesses/instr "
             "(default energy)",
    )
    tune.add_argument(
        "--time-budget-s", type=float, default=None,
        help="stop the search after this many seconds (a stop "
             "condition, never an objective)",
    )
    tune.add_argument(
        "--include-ideal", action="store_true",
        help="open the assume_persistent_strands axis (Section 7 "
             "idealisation, not realisable in hardware)",
    )
    _add_scale_flag(tune)
    tune.add_argument(
        "--warps", type=_int_in(1), default=2,
        help="warp count for fuzz:SEED targets (default 2)",
    )
    _add_out_flag(tune, "BENCH_tuner.json")
    _add_repeater_flags(tune)
    _add_engine_flags(tune)

    serve = _command(
        sub, "serve", _run_serve, "run the allocation service (HTTP/JSON)"
    )
    _add_endpoint_flags(serve, port=8077, timeout=30.0, max_pending=64)
    serve.add_argument(
        "--executor", choices=("process", "thread"), default="process",
        help="evaluation executor; 'process' falls back to threads "
             "when a pool cannot start (default process)",
    )
    serve.add_argument(
        "--linger-ms", type=float, default=0.0,
        help="micro-batch coalescing window in ms (default 0)",
    )
    _add_engine_flags(serve, jobs=2, profile=False)
    serve.add_argument(
        "--shard-of", type=_shard_label, default=None, metavar="K/N",
        help="cluster identity (e.g. 0/2): stamp responses with this "
             "shard label; normally set by 'repro cluster'",
    )

    cluster = _command(
        sub, "cluster", _run_cluster,
        "run a cluster coordinator over N allocation-service shards",
    )
    _add_endpoint_flags(cluster, port=8078, timeout=30.0, max_pending=256)
    shards = cluster.add_mutually_exclusive_group()
    shards.add_argument(
        "--shards", type=_int_in(0), default=0,
        help="spawn this many shard subprocesses on ephemeral ports",
    )
    shards.add_argument(
        "--shard-addr", type=_shard_address, action="append", default=[],
        metavar="HOST:PORT",
        help="attach to an already-running shard (repeatable)",
    )
    cluster.add_argument(
        "--shard-jobs", type=_int_in(1), default=2,
        help="executor workers per spawned shard (default 2)",
    )
    cluster.add_argument(
        "--shard-executor", choices=("process", "thread"), default="process",
        help="evaluation executor for spawned shards (default process)",
    )
    cluster.add_argument(
        "--shard-port-base", type=_int_in(0, 65535), default=0,
        help="first shard port (0 = ephemeral; shard i gets base+i)",
    )
    _add_cache_flags(cluster, max_bytes=False)
    cluster.add_argument(
        "--replication", type=int, default=2,
        help="ring successors eligible to serve a hot fingerprint "
             "(default 2)",
    )
    cluster.add_argument(
        "--hot-threshold", type=int, default=8,
        help="requests per window promoting a fingerprint to hot "
             "(default 8)",
    )
    cluster.add_argument(
        "--wait-secs", type=float, default=60.0,
        help="wait this long for spawned shards to become healthy",
    )
    _add_obs_flags(cluster, profile=False)

    loadgen = _command(
        sub, "loadgen", _run_loadgen, "benchmark a running allocation service"
    )
    _add_endpoint_flags(loadgen, port=8077, timeout=60.0)
    loadgen.add_argument(
        "--requests", type=_int_in(1), default=300,
        help="requests per phase (fired twice: cold, warm; default 300)",
    )
    loadgen.add_argument("--concurrency", type=_int_in(1), default=8)
    loadgen.add_argument(
        "--wait-secs", type=float, default=15.0,
        help="wait this long for the server to become healthy",
    )
    loadgen.add_argument(
        "--no-verify", action="store_true",
        help="skip byte-identical verification against the direct "
             "engine path",
    )
    _add_out_flag(loadgen, "BENCH_service.json")
    loadgen.add_argument(
        "--trace-out", default=None,
        help="record client-side per-request spans and write a Chrome "
             "trace-event JSON here",
    )
    loadgen.add_argument(
        "--shards", type=_int_in(1), default=None,
        help="target is a cluster coordinator with this many shards: "
             "verify via /v1/cluster/healthz, record per-shard stats, "
             "and run an in-run single-server baseline for comparison",
    )
    loadgen.add_argument(
        "--baseline-jobs", type=_int_in(1), default=2,
        help="executor workers for the sharded-mode baseline server "
             "(default 2)",
    )
    loadgen.add_argument(
        "--retries", type=_int_in(0), default=0,
        help="client retries per request on 429/503 (default 0)",
    )
    _add_repeater_flags(loadgen)

    _command(sub, "list", _run_list, "list the synthesised benchmarks")
    return parser


# -- engine, stopping rule and observability lifecycles ----------------------


def _make_engine(args):
    """An ExperimentEngine when any engine flag was used, else None.

    ``--profile-out`` forces an engine: the per-stage profiler hooks
    into ``RunMetrics.stage``, which only runs under an engine.
    """
    flags = (args.cache_dir, args.metrics_out, args.profile_out)
    if args.jobs <= 1 and all(flag is None for flag in flags):
        return None
    from .engine import ExperimentEngine

    try:
        return ExperimentEngine(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _make_stopping_rule(args):
    """A StoppingRule when any repeater flag was used, else None (each
    tool then applies its own built-in default rule)."""
    knobs = {
        "min_repeats": args.min_repeats, "max_repeats": args.max_repeats,
        "target": args.bench_target, "seed": args.bench_seed,
    }
    kwargs = {key: value for key, value in knobs.items() if value is not None}
    if args.rule is None and not kwargs:
        return None
    try:
        return make_rule(args.rule or "ci", **kwargs)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _finish_engine(engine, args) -> None:
    """Write the engine's metrics (with every live cache's gauges) to
    ``--metrics-out`` and print its summary."""
    if engine is None:
        return
    if args.metrics_out:
        publish_cache_metrics(engine.metrics)
        engine.metrics.write(args.metrics_out)
    print(engine.metrics.summary(), file=sys.stderr)


def _with_observability(handler):
    """``handler`` run under the span tracer and stage profiler that
    ``--trace-out``/``--trace-jsonl``/``--profile-out`` ask for."""

    def run(args) -> int:
        tracing = bool(args.trace_out or args.trace_jsonl)
        if tracing:
            TRACER.configure(enabled=True, jsonl_path=args.trace_jsonl)
        profiler = None
        if args.profile_out:
            from .obs import profiling

            profiler = profiling.StageProfiler()
            profiling.install(profiler)
        try:
            return handler(args)
        finally:
            if tracing:
                spans = TRACER.drain()
                TRACER.enabled = False
                if args.trace_out:
                    from .obs.exporters import write_chrome_trace

                    write_chrome_trace(args.trace_out, spans)
                    print(
                        f"wrote {len(spans)} spans to {args.trace_out}",
                        file=sys.stderr,
                    )
            if profiler is not None:
                profiler.write(args.profile_out)
                profiling.uninstall()
                print(
                    f"wrote stage profile to {args.profile_out}",
                    file=sys.stderr,
                )

    return run


# -- figures -----------------------------------------------------------------


def _plan_schemes(names: List[str]) -> List[Scheme]:
    """Every (scheme) a figure run will evaluate the suite under.

    Built from the figure modules' own sweep constants so the plan can
    never drift from what the drivers actually request; anything the
    plan misses is simply evaluated lazily (and cached) when the driver
    asks for it.
    """
    schemes: List[Scheme] = []

    def add(*candidates: Scheme) -> None:
        for scheme in candidates:
            if scheme not in schemes:
                schemes.append(scheme)

    split = partial(Scheme, SchemeKind.SW_THREE_LEVEL, split_lrf=True)
    for name in names:
        if name == "fig11":
            for entries in fig11.ENTRY_SWEEP:
                add(Scheme(SchemeKind.HW_TWO_LEVEL, entries),
                    Scheme(SchemeKind.SW_TWO_LEVEL, entries))
        elif name == "fig12":
            for entries in fig12.ENTRY_SWEEP:
                add(Scheme(SchemeKind.HW_THREE_LEVEL, entries),
                    Scheme(SchemeKind.SW_THREE_LEVEL, entries),
                    split(entries))
        elif name == "fig13":
            for _, base in fig13.SERIES + fig13.EXTRA_SERIES:
                add(*(base.with_entries(n) for n in fig13.ENTRY_SWEEP))
        elif name == "fig14":
            add(*map(split, fig14.ENTRY_SWEEP))
        elif name in ("fig15", "encoding"):
            add(BEST_SCHEME)
        elif name == "limit":
            add(BEST_SCHEME,
                Scheme(SchemeKind.HW_TWO_LEVEL, 3,
                       flush_on_backward_branch=True),
                Scheme(SchemeKind.HW_TWO_LEVEL, 3))
        elif name == "sensitivity":
            add(split(3), Scheme(SchemeKind.HW_TWO_LEVEL, 3))
    return schemes


def _run_suite(args, names: List[str], consume, announce=False) -> int:
    """Build the suite at ``--scale`` under the command's engine,
    prefetch every scheme the ``names`` figures evaluate, hand the data
    to ``consume``, then finish the engine."""
    started = time.time()
    engine = _make_engine(args)
    data = experiments.SuiteData.build(
        all_workloads(args.scale), scale=args.scale, engine=engine
    )
    if announce:
        print(
            f"# {len(data.items)} workloads, "
            f"{data.dynamic_instructions} dynamic warp instructions "
            f"(built in {time.time() - started:.1f}s)\n",
            file=sys.stderr,
        )
    data.prefetch(_plan_schemes(names))
    consume(data)
    _finish_engine(engine, args)
    return 0


def _run_figures(args) -> int:
    """``repro <figure>`` / ``repro all``: print the figure tables."""
    names = list(_FIGURES) if args.command == "all" else [args.command]

    def emit(data) -> None:
        for name in names:
            run, fmt = _FIGURES[name]
            print(fmt(run(data)))
            print()

    return _run_suite(args, names, emit, announce=True)


def _run_export(args) -> int:
    from .experiments.export import export_all

    def write(data) -> None:
        for path in export_all(
            data, args.directory, include_slow=not args.skip_slow
        ):
            print(path)

    return _run_suite(args, list(_FIGURES), write)


def _run_report(args) -> int:
    from .experiments.report import write_report

    return _run_suite(
        args, list(_FIGURES), lambda data: print(write_report(args.path, data))
    )


# -- studies and benches ------------------------------------------------------


def _run_unroll(args) -> int:
    result = experiments.run_unroll_study(args.benchmarks, factor=args.factor)
    print(experiments.format_unroll_study(result))
    return 0


def _run_scheduler(args) -> int:
    specs = [get_workload(name, args.scale) for name in args.benchmarks]
    result = experiments.run_scheduler_study(specs, num_warps=args.warps)
    print(experiments.format_scheduler_study(result))
    return 0


def _run_timing(args) -> int:
    specs = [get_workload(name, args.scale) for name in args.benchmarks]
    result = experiments.run_timing_study(specs, num_warps=args.warps)
    print(experiments.format_timing_study(result))
    return 0


def _run_bench_accounting(args) -> int:
    payload = experiments.run_bench_accounting(
        scale=args.scale, repeats=args.repeats, rule=_make_stopping_rule(args)
    )
    print(experiments.format_bench_accounting(payload))
    print(experiments.write_bench_accounting(args.out, payload))
    return 0


def _run_bench_diff(args) -> int:
    code, text, _ = run_diff(args.old, args.new, gate_pct=args.gate)
    print(text)
    return code


# -- kernels: list, show, allocate, trace, explain, tune ----------------------


class _TargetError(Exception):
    """A CLI kernel target did not resolve; the message is the clean
    one-line diagnostic (no traceback), printed after ``repro: ``."""


def _read_kernels(path: str):
    """Every kernel parsed from an IR text file (``-`` for stdin)."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        raise _TargetError(f"error: {error}") from None
    try:
        kernels = parse_kernels(text)
    except AsmSyntaxError as error:
        raise _TargetError(f"parse error: {error}") from None
    if not kernels:
        raise _TargetError("parse error: no kernels in input")
    return kernels


def _resolve_target(target: str, scale: float = 1.0, num_warps: int = 2):
    """Resolve the target form shared by trace/explain/tune.

    Accepts a benchmark name, ``fuzz:SEED`` for a generated workload,
    or a path to an IR text file (``-`` for stdin); returns a
    :class:`~repro.workloads.shapes.WorkloadSpec`.  Raises
    :class:`_TargetError` with a clean message on any bad input.
    """
    if target in BENCHMARK_NAMES:
        return get_workload(target, scale)
    if target.startswith("fuzz:"):
        try:
            seed = int(target.split(":", 1)[1])
        except ValueError:
            raise _TargetError(
                f"error: bad fuzz target {target!r} (expected fuzz:SEED)"
            ) from None
        return generate_workload(seed, num_warps=num_warps)
    kernel = _read_kernels(target)[0]
    return WorkloadSpec(
        name=kernel.name,
        suite="file",
        kernel=kernel,
        warp_inputs=[WarpInput(live_in_values={}) for _ in range(num_warps)],
        description=f"parsed from {target}",
    )


def _run_list(args) -> int:
    for name in BENCHMARK_NAMES:
        print(f"{name:<22} {suite_of(name)}")
    return 0


def _print_allocation(kernel, config: AllocationConfig):
    result = allocate_kernel(kernel, config)
    print(format_allocated_kernel(kernel))
    print()
    print(result.summary())
    return result


def _run_show(args) -> int:
    kernel = get_workload(args.benchmark).kernel
    result = _print_allocation(kernel, _allocation_config(args))
    if args.strands:
        print()
        print(
            f"{'strand':>7}{'instrs':>8}{'webs':>6}{'lrf':>5}"
            f"{'orf':>5}{'rdop':>6}{'est. pJ saved':>15}"
        )
        for row in result.strand_report():
            print(
                f"{row['strand']:>7}{row['instructions']:>8}"
                f"{row['webs']:>6}{row['lrf_values']:>5}"
                f"{row['orf_values']:>5}{row['read_operands']:>6}"
                f"{row['estimated_savings_pj']:>15.1f}"
            )
    return 0


def _run_allocate(args) -> int:
    """``repro allocate``: parse a file, allocate, print.

    Parse failures exit with code 2 and a one-line diagnostic — the
    same clean message the service returns as HTTP 400 — never a
    traceback.
    """
    config = _allocation_config(args)
    for index, kernel in enumerate(_read_kernels(args.path)):
        if index:
            print()
        _print_allocation(kernel, config)
    return 0


def _run_trace(args) -> int:
    """``repro trace``: one kernel through trace → allocate →
    account under a spread of schemes, spans on; the generic
    observability teardown writes the Chrome trace."""
    from .engine import ExperimentEngine

    engine = ExperimentEngine()
    spec = _resolve_target(args.target, args.scale)
    traces = engine.build_traces(spec.kernel, spec.warp_inputs)
    schemes = [
        Scheme(SchemeKind.BASELINE),
        BEST_SW_TWO_LEVEL.with_entries(args.orf_entries),
        BEST_HW_TWO_LEVEL,
    ]
    if not args.no_lrf:
        schemes.append(
            Scheme(SchemeKind.SW_THREE_LEVEL, args.orf_entries, split_lrf=True)
        )
    for scheme in schemes:
        evaluation = engine.evaluate(traces, scheme)
        print(
            f"{spec.name:<16} {scheme.name:<16} "
            f"{evaluation.dynamic_instructions} dyn instrs"
        )
    _finish_engine(engine, args)
    return 0


def _run_explain(args) -> int:
    """``repro explain``: resolve the target kernel and print the
    allocator's provenance report (text, or JSON with ``--json``)."""
    from .obs.explain import explain_json, explain_report

    kernel = _resolve_target(args.target, num_warps=1).kernel
    config = _allocation_config(
        args,
        enable_partial_ranges=not args.no_partial_ranges,
        enable_read_operands=not args.no_read_operands,
        allow_forward_branches=not args.no_forward_branches,
    )
    if args.json:
        import json

        payload = explain_json(kernel, config, reg=args.reg, position=args.pos)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(explain_report(kernel, config, reg=args.reg, position=args.pos))
    return 0


def _run_tune(args) -> int:
    """``repro tune``: design-space search over AllocationConfig for
    one kernel; prints the report and writes the tuner JSON."""
    from .engine import ExperimentEngine
    from .tuner import default_space, format_tune, run_tune, write_tune

    spec = _resolve_target(args.target, args.scale, args.warps)
    engine = _make_engine(args) or ExperimentEngine()
    traces = engine.build_traces(spec.kernel, spec.warp_inputs)
    # The CLI always benches wall time (warm re-searches are cheap:
    # every candidate is a record-memo hit); the service endpoint
    # stays single-shot by passing rule=None to run_tune directly.
    rule = _make_stopping_rule(args) or make_rule(
        "ci", min_repeats=2, max_repeats=5, target=0.2
    )
    try:
        payload = run_tune(
            traces, space=default_space(include_ideal=args.include_ideal),
            strategy=args.strategy, objective=args.objective,
            budget=args.budget, seed=args.seed, engine=engine,
            time_budget_s=args.time_budget_s, rule=rule,
        )
    except ValueError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    print(format_tune(payload))
    print(write_tune(args.out, payload), file=sys.stderr)
    _finish_engine(engine, args)
    return 0


# -- service fronts: serve, cluster, loadgen ----------------------------------


def _run_serve(args) -> int:
    from .service.server import ServiceConfig, serve_forever

    config = ServiceConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        executor=args.executor, max_pending=args.max_pending,
        request_timeout_s=args.timeout, linger_s=args.linger_ms / 1e3,
        cache_dir=args.cache_dir, cache_max_bytes=args.cache_max_bytes,
        announce=True, shard=args.shard_of,
        trace_out=args.trace_out, trace_jsonl=args.trace_jsonl,
    )
    return serve_forever(config, metrics_out=args.metrics_out)


def _run_cluster(args) -> int:
    from .service.cluster import ClusterConfig
    from .service.cluster.launcher import launch_cluster

    config = ClusterConfig(
        host=args.host, port=args.port, shards=tuple(args.shard_addr),
        replication=args.replication, hot_threshold=args.hot_threshold,
        max_pending=args.max_pending, request_timeout_s=args.timeout,
        announce=True,
    )
    return launch_cluster(
        config, spawn=args.shards, shard_jobs=args.shard_jobs,
        shard_executor=args.shard_executor, cache_dir=args.cache_dir,
        shard_port_base=args.shard_port_base, wait_secs=args.wait_secs,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out, trace_jsonl=args.trace_jsonl,
    )


def _run_loadgen(args) -> int:
    from .service.client import wait_until_healthy
    from .service.loadgen import format_loadgen, run_loadgen, write_loadgen

    if not wait_until_healthy(args.host, args.port, args.wait_secs):
        print(
            f"repro: error: no healthy service at "
            f"{args.host}:{args.port} within {args.wait_secs}s",
            file=sys.stderr,
        )
        return 1
    payload = run_loadgen(
        args.host, args.port, requests=args.requests,
        concurrency=args.concurrency, timeout=args.timeout,
        verify=not args.no_verify, trace_out=args.trace_out,
        shards=args.shards, baseline_jobs=args.baseline_jobs,
        rule=_make_stopping_rule(args), retries=args.retries,
    )
    print(format_loadgen(payload))
    print(write_loadgen(args.out, payload))
    return 0 if payload["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "benchmarks", None) == []:
        parser.error("argument --benchmarks: expected at least one NAME")
    try:
        return args.handler(args)
    except _TargetError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
