"""Tests for the shared experiment data layer."""

import pytest

from repro.engine import ExperimentEngine
from repro.experiments import SuiteData
from repro.sim import Scheme, SchemeKind
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def data():
    return SuiteData.build(
        [get_workload(name) for name in ("vectoradd", "histogram")]
    )


class TestSuiteData:
    def test_builds_all_items(self, data):
        assert len(data.items) == 2
        assert data.dynamic_instructions > 0

    def test_aggregate_sums_workloads(self, data):
        scheme = Scheme(SchemeKind.SW_TWO_LEVEL, 3)
        counters, baseline = data.aggregate(scheme)
        per_item_total = 0.0
        for spec, traces in data.items:
            from repro.sim import evaluate_traces

            evaluation = evaluate_traces(traces, scheme)
            per_item_total += evaluation.counters.total_reads()
        assert counters.total_reads() == pytest.approx(per_item_total)
        assert baseline.total_reads() == pytest.approx(
            counters.total_reads()
        )

    def test_normalized_energy_in_unit_interval(self, data):
        for kind in (SchemeKind.SW_TWO_LEVEL, SchemeKind.HW_TWO_LEVEL):
            energy = data.normalized_energy(Scheme(kind, 3))
            assert 0.0 < energy <= 1.25

    def test_per_benchmark_keys(self, data):
        energies = data.per_benchmark_energy(
            Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True)
        )
        assert set(energies) == {"vectoradd", "histogram"}

    def test_default_build_uses_full_suite(self):
        # Construct lazily; just check the constructor path that loads
        # the registry (avoid tracing all 36 here — covered by the
        # benchmark harness).
        from repro.workloads import BENCHMARK_NAMES, all_workloads

        assert len(all_workloads()) == len(BENCHMARK_NAMES)

    def test_build_owns_an_engine(self):
        data = SuiteData.build([get_workload("vectoradd", 0.1)], scale=0.1)
        self._assert_second_aggregate_is_memo_hits(data)

    def test_direct_construction_owns_an_engine(self, data):
        fresh = SuiteData(data.items, scale=data.scale)
        assert fresh.engine is not data.engine
        self._assert_second_aggregate_is_memo_hits(fresh)

    @staticmethod
    def _assert_second_aggregate_is_memo_hits(data):
        assert isinstance(data.engine, ExperimentEngine)
        scheme = Scheme(SchemeKind.SW_TWO_LEVEL, 3)
        counters = data.engine.metrics.counters
        first = data.aggregate(scheme)
        misses = counters.get("record_misses", 0)
        hits = counters.get("record_memo_hits", 0)
        assert misses == len(data.items)
        assert data.aggregate(scheme) == first
        assert counters.get("record_misses", 0) == misses
        assert counters.get("record_memo_hits", 0) == hits + len(data.items)

    def test_baseline_model_independent(self, data):
        """The baseline only touches the MRF, so its energy is the same
        under every ORF size; normalization is therefore consistent."""
        small = data.normalized_energy(
            Scheme(SchemeKind.SW_TWO_LEVEL, 1)
        )
        large = data.normalized_energy(
            Scheme(SchemeKind.SW_TWO_LEVEL, 8)
        )
        assert small != large  # sizes genuinely differ
