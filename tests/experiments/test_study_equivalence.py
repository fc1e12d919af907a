"""Section 7 studies: per-signature delta accounting vs. scalar replay.

The variable-ORF study and the limit study's "N entries at M-entry
energy" variants account strand executions and trace sets from the
compiled per-position deltas.  A scalar replay — every event of every
execution through ``SoftwareAccounting``/``BaselineAccounting``, the
way both studies used to account — is the oracle.  Equality is exact:
counter dict key order (which fixes ``compute_energy``'s float
summation order) and every float of the results.
"""

from typing import Dict, List, Tuple

import pytest

from repro.alloc.allocator import AllocationConfig
from repro.energy.model import EnergyModel
from repro.experiments import SuiteData, limit_study, variable_orf
from repro.experiments.variable_orf import (
    SIZES,
    StrandExecution,
    _split_executions,
    collect_strand_executions,
    run_variable_orf_study,
)
from repro.hierarchy.counters import AccessCounters
from repro.ir import parse_kernel
from repro.ir.registers import gpr
from repro.sim import Memory, WarpInput
from repro.sim.accounting import (
    BaselineAccounting,
    SoftwareAccounting,
    account_trace,
)
from repro.sim.divergence import DivergentWarpInput
from repro.sim.runner import (
    allocate_for_traces,
    build_divergent_traces,
    build_traces,
)
from repro.workloads import generate_workload, get_workload
from repro.workloads.shapes import WorkloadSpec

_NAMES = ["matrixmul", "reduction", "vectoradd", "histogram"]

#: Fuzz seed whose per-lane inputs diverge at a hammock (partial masks).
DIVERGENT_SEED = 320
#: Fuzz seed whose loop-exit and hammock branches squash their guard.
GUARDED_SEED = 1009

#: A guard-squashed *write*: ``@P0 iadd`` fails its guard for one warp
#: (reads charged, write squashed).  Generated kernels guard only
#: branches, so this hand-written kernel covers the write-delta gate.
GUARDED_WRITE_ASM = """
.kernel guarded_write
.livein R0 R1
entry:
    ldg R3, [R0]
    setp P0, R3, 50
    @P0 iadd R4, R3, 1
    @!P0 iadd R4, R3, 2
    imul R5, R4, R4
    stg [R1], R5
    exit
"""

#: The four ``_sw_energy`` variants ``run_limit_study`` evaluates.
LIMIT_VARIANTS = [
    AllocationConfig(orf_entries=4, use_lrf=True, split_lrf=True),
    AllocationConfig(orf_entries=8, use_lrf=True, split_lrf=True),
    AllocationConfig(orf_entries=5, use_lrf=True, split_lrf=True),
    AllocationConfig(
        orf_entries=3,
        use_lrf=True,
        split_lrf=True,
        assume_persistent_strands=True,
    ),
]
LIMIT_MODEL = EnergyModel(orf_entries=3, split_lrf=True)
BASE_CONFIG = AllocationConfig(orf_entries=3, use_lrf=True, split_lrf=True)


def _divergent_inputs(spec: WorkloadSpec, lanes: int = 4):
    """Per-lane inputs offsetting the lowest live-in, forcing the
    kernel's hammocks to diverge."""
    warp_inputs = []
    for warp_input in spec.warp_inputs:
        base = dict(warp_input.live_in_values)
        key = min(base, key=lambda reg: reg.index)
        threads = []
        for lane in range(lanes):
            values = dict(base)
            values[key] = values[key] + 13 * lane
            threads.append(values)
        warp_inputs.append(DivergentWarpInput(threads))
    return warp_inputs


def _suite4() -> SuiteData:
    return SuiteData.build([get_workload(name) for name in _NAMES])


def _fuzz_divergent() -> SuiteData:
    spec = generate_workload(DIVERGENT_SEED)
    traces = build_divergent_traces(spec.kernel, _divergent_inputs(spec))
    lane_mask = (1 << 4) - 1
    assert any(
        event.active_mask not in (-1, lane_mask)
        for trace in traces.warp_traces
        for event in trace
    ), "fixture must diverge"
    return SuiteData([(spec, traces)])


def _fuzz_guarded() -> SuiteData:
    spec = generate_workload(GUARDED_SEED)
    traces = build_traces(spec.kernel, spec.warp_inputs)
    assert any(
        not event.guard_passed
        for trace in traces.warp_traces
        for event in trace
    ), "fixture must squash a guard"
    return SuiteData([(spec, traces)])


def _guarded_write() -> SuiteData:
    kernel = parse_kernel(GUARDED_WRITE_ASM)
    memory = Memory(global_mem={0: 10, 64: 200})
    inputs = [
        WarpInput({gpr(0): base, gpr(1): 900}, memory=memory)
        for base in (0, 64)
    ]
    spec = WorkloadSpec(
        name=kernel.name,
        suite="test",
        kernel=kernel,
        warp_inputs=inputs,
        description="guard-squashed write",
    )
    traces = build_traces(kernel, inputs)
    assert any(
        not event.guard_passed
        and event.instruction.gpr_write() is not None
        for trace in traces.warp_traces
        for event in trace
    ), "fixture must squash a write"
    return SuiteData([(spec, traces)])


DATASETS = {
    "suite4": _suite4,
    "fuzz-divergent": _fuzz_divergent,
    "fuzz-guarded": _fuzz_guarded,
    "guarded-write": _guarded_write,
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def data(request) -> SuiteData:
    return DATASETS[request.param]()


# -- the scalar oracle -----------------------------------------------------


def _size_config(base: AllocationConfig, size: int) -> AllocationConfig:
    return AllocationConfig(
        orf_entries=size,
        use_lrf=base.use_lrf,
        split_lrf=base.split_lrf,
        enable_partial_ranges=base.enable_partial_ranges,
        enable_read_operands=base.enable_read_operands,
        allow_forward_branches=base.allow_forward_branches,
    )


def _replay(events, driver) -> AccessCounters:
    account_trace(driver, events)
    return driver.counters


def scalar_collect(
    items, base_config: AllocationConfig
) -> Tuple[List[List[StrandExecution]], AccessCounters]:
    """``collect_strand_executions`` by per-event scalar replay.

    Every execution of every warp is replayed through the scalar
    drivers at every size; no signature dedup, no shared counters or
    energy tables.
    """
    per_warp: List[List[StrandExecution]] = []
    baseline = AccessCounters()
    memo: Dict = {}
    for spec, traces in items:
        strand_map = allocate_for_traces(
            spec.kernel, base_config, memo=memo
        ).partition.strand_of_position
        annotated = {
            size: allocate_for_traces(
                spec.kernel, _size_config(base_config, size), memo=memo
            ).kernel
            for size in SIZES
        }
        for trace in traces.warp_traces:
            account_trace(BaselineAccounting(baseline), trace)
            sequence = []
            for events in _split_executions(trace, strand_map):
                counters_by_size = {
                    0: _replay(events, BaselineAccounting(AccessCounters()))
                }
                for size in SIZES:
                    counters_by_size[size] = _replay(
                        events,
                        SoftwareAccounting(AccessCounters(), annotated[size]),
                    )
                sequence.append(
                    StrandExecution(
                        warp=len(per_warp),
                        strand_key=(
                            spec.name,
                            strand_map.get(events[0].ref.position, -1),
                        ),
                        counters_by_size=counters_by_size,
                    )
                )
            per_warp.append(sequence)
    return per_warp, baseline


def scalar_sw_energy(
    data: SuiteData, config: AllocationConfig, model: EnergyModel
) -> float:
    """``limit_study._sw_energy`` by per-event scalar replay."""
    total = AccessCounters()
    baseline = AccessCounters()
    for spec, traces in data.items:
        allocation = allocate_for_traces(spec.kernel, config, model=model)
        for trace in traces.warp_traces:
            account_trace(SoftwareAccounting(total, allocation.kernel), trace)
            account_trace(BaselineAccounting(baseline), trace)
    return limit_study._normalized(total, baseline, model)


def _ordered(counters: AccessCounters):
    """Counter items in insertion order (what ``compute_energy`` sums)."""
    return list(counters.counts.items())


# -- tests -----------------------------------------------------------------


def test_strand_execution_counters_match_scalar(data):
    compiled, baseline = collect_strand_executions(data.items, BASE_CONFIG)
    scalar, scalar_baseline = scalar_collect(data.items, BASE_CONFIG)

    assert _ordered(baseline) == _ordered(scalar_baseline)
    assert [len(sequence) for sequence in compiled] == [
        len(sequence) for sequence in scalar
    ]
    for fast_sequence, slow_sequence in zip(compiled, scalar):
        for fast, slow in zip(fast_sequence, slow_sequence):
            assert fast.warp == slow.warp
            assert fast.strand_key == slow.strand_key
            assert list(fast.counters_by_size) == list(
                slow.counters_by_size
            )
            for size, counters in slow.counters_by_size.items():
                assert _ordered(fast.counters_by_size[size]) == _ordered(
                    counters
                ), (fast.strand_key, size)


def _fresh(data: SuiteData) -> SuiteData:
    """The same traces under a fresh engine, so a study is computed
    rather than served from another test's study memo."""
    return SuiteData(data.items, scale=data.scale)


def test_variable_orf_result_matches_scalar(data, monkeypatch):
    result = run_variable_orf_study(_fresh(data))
    monkeypatch.setattr(
        variable_orf, "collect_strand_executions", scalar_collect
    )
    scalar = run_variable_orf_study(_fresh(data))
    assert result.fixed == scalar.fixed
    assert result.realistic == scalar.realistic
    assert result.oracle == scalar.oracle
    assert result.starved_fraction == scalar.starved_fraction


@pytest.mark.parametrize(
    "config",
    LIMIT_VARIANTS,
    ids=["4-as-3", "8-as-3", "5-as-3", "persistent"],
)
def test_limit_sw_energy_matches_scalar(data, config):
    assert limit_study._sw_energy(
        _fresh(data), config, LIMIT_MODEL
    ) == scalar_sw_energy(data, config, LIMIT_MODEL)


def test_energy_charged_once_per_signature(data, monkeypatch):
    """Executions sharing a signature share one energy table, so the
    study calls ``compute_energy`` once per unique (signature, size)."""
    per_warp, _ = collect_strand_executions(data.items, BASE_CONFIG)
    executions = [e for sequence in per_warp for e in sequence]
    unique = {id(e.counters_by_size) for e in executions}
    calls = []
    original = variable_orf.compute_energy

    def counting(counters, model):
        calls.append(counters)
        return original(counters, model)

    monkeypatch.setattr(variable_orf, "compute_energy", counting)
    for execution in executions:
        for size in (0,) + SIZES:
            execution.energy(size, LIMIT_MODEL)
            execution.energy(size, LIMIT_MODEL)
    assert len(calls) == len(unique) * (len(SIZES) + 1)
    assert len(unique) <= len(executions)
