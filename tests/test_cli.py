"""CLI tests beyond the basics covered in test_integration."""

import pytest

from repro.cli import _FIGURES, _plan_schemes, main


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        import repro

        assert repro.__version__ in out


class TestAllocateCommand:
    KERNEL = (
        ".kernel tiny\n"
        ".livein R0 R1\n"
        "entry:\n"
        "    iadd R2, R0, R1\n"
        "    stg [R0], R2\n"
        "    exit\n"
    )

    def test_allocate_valid_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.asm"
        path.write_text(self.KERNEL)
        assert main(["allocate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "strands" in out

    def test_allocate_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.asm"
        path.write_text("this is not assembly\n")
        assert main(["allocate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: parse error:")
        assert "Traceback" not in err

    def test_allocate_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["allocate", str(tmp_path / "absent.asm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")


class TestUnrollCommand:
    def test_unroll_vectoradd(self, capsys):
        assert main(
            ["unroll", "--benchmarks", "vectoradd", "--factor", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "unroll2+hoist" in out
        assert "vectoradd" in out


class TestExportCommand:
    def test_export_writes_csvs(self, tmp_path, capsys):
        # Full-suite export is expensive; patch the workload list down.
        import repro.cli as cli_module
        from repro.workloads import get_workload

        original = cli_module.all_workloads
        cli_module.all_workloads = lambda scale=1.0: [
            get_workload("vectoradd", scale),
            get_workload("histogram", scale),
        ]
        try:
            assert main(
                ["export", str(tmp_path), "--skip-slow"]
            ) == 0
        finally:
            cli_module.all_workloads = original
        assert (tmp_path / "fig13.csv").exists()
        assert (tmp_path / "fig2.csv").exists()
        out = capsys.readouterr().out
        assert "fig13.csv" in out


class TestShowOptions:
    def test_show_two_level(self, capsys):
        assert main(
            ["show", "vectoradd", "--no-lrf", "--orf-entries", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "LRF" not in out.split("strands")[0].split(";")[0] or True
        assert "lrf_values': 0" in out

    def test_show_lrf_default(self, capsys):
        assert main(["show", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "LRF[" in out


class TestFigureCommands:
    def test_fig2_small_scale(self, capsys):
        import repro.cli as cli_module
        from repro.workloads import get_workload

        original = cli_module.all_workloads
        cli_module.all_workloads = lambda scale=1.0: [
            get_workload("vectoradd", scale)
        ]
        try:
            assert main(["fig2"]) == 0
        finally:
            cli_module.all_workloads = original
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestPrefetchPlan:
    """Every figure is fully served by its prefetch plan: after
    ``prefetch(_plan_schemes([name]))`` the figure evaluates nothing
    inline (so ``--jobs N`` fans all of its work out to the pool)."""

    @pytest.fixture(scope="class")
    def items(self):
        from repro.experiments import SuiteData
        from repro.workloads import get_workload

        workloads = [
            get_workload(name, 0.1)
            for name in ("vectoradd", "histogram", "reduction")
        ]
        return SuiteData.build(workloads, scale=0.1).items

    @pytest.mark.parametrize("name", list(_FIGURES))
    def test_figure_takes_no_record_misses_after_prefetch(self, name, items):
        from repro.engine import ExperimentEngine
        from repro.experiments import SuiteData

        data = SuiteData(items, scale=0.1, engine=ExperimentEngine())
        data.prefetch(_plan_schemes([name]))
        counters = data.engine.metrics.counters
        before = counters.get("record_misses", 0)
        run, _ = _FIGURES[name]
        run(data)
        assert counters.get("record_misses", 0) == before
