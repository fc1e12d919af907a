"""The layers the traced run wraps, and the per-layer metrics.

Each :class:`~ledger.Target` names one public entry point of a layer
of the ``repro`` pipeline (kernel text -> IR -> allocation analysis ->
levels pass -> trace -> accounting -> energy -> figures / tuner /
service).  Layer times are *self* times: a layer's wrapped duration
minus that of the wrapped layers it called.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ledger import Ledger, Target

from common import FIGURES

#: Drivers and renderers of the ten figures, by figure name.
_FIGURE_DRIVERS = {
    "fig2": ("repro.experiments.fig2", "run_fig2", "format_fig2"),
    "fig11": ("repro.experiments.fig11", "run_fig11", "format_fig11"),
    "fig12": ("repro.experiments.fig12", "run_fig12", "format_fig12"),
    "fig13": ("repro.experiments.fig13", "run_fig13", "format_fig13"),
    "fig14": ("repro.experiments.fig14", "run_fig14", "format_fig14"),
    "fig15": ("repro.experiments.fig15", "run_fig15", "format_fig15"),
    "limit": (
        "repro.experiments.limit_study",
        "run_limit_study",
        "format_limit_study",
    ),
    "encoding": (
        "repro.experiments.encoding_study",
        "run_encoding_study",
        "format_encoding_study",
    ),
    "variable": (
        "repro.experiments.variable_orf",
        "run_variable_orf_study",
        "format_variable_orf",
    ),
    "sensitivity": (
        "repro.experiments.sensitivity",
        "run_sensitivity_study",
        "format_sensitivity",
    ),
}


def _count_dynamic(ledger: Ledger, traces: Any) -> None:
    ledger.count("sim.dyn_warp_instr", traces.dynamic_instructions)


def _count_tune(ledger: Ledger, payload: Dict[str, Any]) -> None:
    ledger.count("tuner.fresh_evals", payload["evaluations"]["fresh"])


def pipeline_targets() -> List[Target]:
    """Entry points shared by every workload's process."""
    return [
        Target("ir.parse", "repro.ir.parser", "parse_kernels"),
        Target("alloc.analysis", "repro.alloc.analysis", "analyze_kernel"),
        Target(
            "alloc.analysis_lookup", "repro.alloc.analysis", "kernel_analysis"
        ),
        Target("alloc.levels", "repro.alloc.allocator", "_levels_pass"),
        Target(
            "sim.trace", "repro.sim.runner", "build_traces", _count_dynamic
        ),
        Target("sim.account_sw", "repro.sim.compiled", "software_counters"),
        Target("sim.account_base", "repro.sim.compiled", "baseline_counters"),
        Target("sim.account_hw", "repro.sim.compiled", "hardware_counters"),
        Target("hierarchy.walk", "repro.hierarchy.rfc", "columnar_rfc_walk"),
        Target(
            "hierarchy.walk",
            "repro.hierarchy.hw_lrf",
            "columnar_three_level_walk",
        ),
        Target("sim.account_scalar", "repro.sim.accounting", "account_trace"),
        Target(
            "sim.account_scalar",
            "repro.experiments.variable_orf",
            "_account_events",
        ),
        Target("energy.compute", "repro.energy.accounting", "compute_energy"),
        Target(
            "engine.evaluate", "repro.engine.engine", "ExperimentEngine.evaluate"
        ),
        Target(
            "engine.evaluate",
            "repro.engine.engine",
            "ExperimentEngine.evaluate_batch",
        ),
        Target("tuner.search", "repro.tuner.runner", "run_tune", _count_tune),
    ]


def figure_targets() -> List[Target]:
    targets = []
    for name in FIGURES:
        module, run, fmt = _FIGURE_DRIVERS[name]
        targets.append(Target(f"experiments.{name}", module, run))
        targets.append(Target("experiments.render", module, fmt))
    return targets


def figure_functions(name: str):
    """(driver, renderer) of one figure, resolved at call time so a
    traced run calls the wrapped bindings."""
    import importlib

    module, run, fmt = _FIGURE_DRIVERS[name]
    loaded = importlib.import_module(module)
    return getattr(loaded, run), getattr(loaded, fmt)


# -- metrics ---------------------------------------------------------------

#: (metric name, unit, better) for every per-layer metric, in report
#: order.  Every traced run reports all of them; a layer the workload
#: never enters reads 0.
PER_LAYER: List[tuple] = [
    ("ir.parse_s", "s", "lower"),
    ("ir.parse_calls", "count", "lower"),
    ("alloc.analysis_s", "s", "lower"),
    ("alloc.analysis_calls", "count", "lower"),
    ("alloc.analysis_hit_ratio", "ratio", "higher"),
    ("alloc.levels_s", "s", "lower"),
    ("alloc.levels_calls", "count", "lower"),
    ("sim.trace_s", "s", "lower"),
    ("sim.dyn_warp_instr", "count", "lower"),
    ("sim.account_sw_s", "s", "lower"),
    ("sim.account_base_s", "s", "lower"),
    ("sim.account_hw_s", "s", "lower"),
    ("hierarchy.walk_s", "s", "lower"),
    ("sim.account_scalar_s", "s", "lower"),
    ("energy.compute_s", "s", "lower"),
    ("energy.compute_calls", "count", "lower"),
    *[(f"experiments.{name}_s", "s", "lower") for name in FIGURES],
    ("experiments.render_s", "s", "lower"),
    ("experiments.studies_share", "ratio", "lower"),
    ("engine.evaluate_s", "s", "lower"),
    ("engine.record_hit_ratio", "ratio", "higher"),
    ("tuner.search_self_s", "s", "lower"),
    ("tuner.fresh_evals", "count", "lower"),
    ("service.normalize_s", "s", "lower"),
    ("service.handle_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.job_s", "s", "lower"),
    ("service.transport_s", "s", "lower"),
    ("service.memo_hit_ratio", "ratio", "higher"),
    ("service.dedup_ratio", "ratio", "higher"),
    ("service.status_400", "count", "higher"),
    ("service.distinct_kernels", "count", "higher"),
    ("service.latency_samples", "count", "higher"),
    ("ledger.total_s", "s", "lower"),
    ("ledger.unattributed_s", "s", "lower"),
    ("ledger.self_sum_error", "ratio", "lower"),
    ("ledger.wall_gap_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Layers whose self time is charged to the benchmark's own glue (the
#: root spans it opens around each unit of work).
GLUE_LAYERS = ("bench.setup", "bench.unit", "bench.request")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(ledger: Ledger) -> Dict[str, float]:
    """The ledger-derived per-layer metrics (service and ledger-check
    metrics are filled in by the workload that has them)."""
    lookups = ledger.calls("alloc.analysis_lookup")
    analyses = ledger.calls("alloc.analysis")
    values = {
        "ir.parse_s": ledger.self_s("ir.parse"),
        "ir.parse_calls": ledger.calls("ir.parse"),
        "alloc.analysis_s": ledger.self_s("alloc.analysis"),
        "alloc.analysis_calls": analyses,
        "alloc.analysis_hit_ratio": _ratio(
            max(0, lookups - analyses), lookups
        ),
        "alloc.levels_s": ledger.self_s("alloc.levels"),
        "alloc.levels_calls": ledger.calls("alloc.levels"),
        "sim.trace_s": ledger.self_s("sim.trace"),
        "sim.dyn_warp_instr": ledger.counters.get("sim.dyn_warp_instr", 0),
        "sim.account_sw_s": ledger.self_s("sim.account_sw"),
        "sim.account_base_s": ledger.self_s("sim.account_base"),
        "sim.account_hw_s": ledger.self_s("sim.account_hw"),
        "hierarchy.walk_s": ledger.self_s("hierarchy.walk"),
        "sim.account_scalar_s": ledger.self_s("sim.account_scalar"),
        "energy.compute_s": ledger.self_s("energy.compute"),
        "energy.compute_calls": ledger.calls("energy.compute"),
        "experiments.render_s": ledger.self_s("experiments.render"),
        "engine.evaluate_s": ledger.self_s("engine.evaluate"),
        "engine.record_hit_ratio": _ratio(
            ledger.counters.get("engine.record_hits", 0),
            ledger.counters.get("engine.record_lookups", 0),
        ),
        "tuner.search_self_s": ledger.self_s("tuner.search"),
        "tuner.fresh_evals": ledger.counters.get("tuner.fresh_evals", 0),
        "ledger.total_s": ledger.root_s,
        "ledger.unattributed_s": sum(
            ledger.self_s(name) for name in GLUE_LAYERS
        ),
        "ledger.self_sum_error": ledger.check()[1],
    }
    for name in FIGURES:
        values[f"experiments.{name}_s"] = ledger.self_s(f"experiments.{name}")
    return values


def empty_values() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}
