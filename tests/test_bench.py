"""Benchmark harness: grid construction, aggregation, and determinism."""

from dataclasses import fields

import numpy as np
import pytest

from nlrm import DomainError
from nlrm.bench import BenchCell, report_csv_lines, run_bench, table1_grid


class TestGrid:
    def test_default_suite(self):
        grid = table1_grid()
        assert grid == [
            (200, 10), (200, 20), (200, 40),
            (400, 20), (400, 40), (400, 80),
            (800, 40), (800, 80), (800, 160),
        ]

    def test_single_size_gives_twelve_cells(self):
        grid = table1_grid(sizes=[200])
        assert len(grid) * 4 == 12

    def test_scaled_keeps_rank_ratios(self):
        grid = table1_grid(sizes=[100])
        assert grid[:3] == [(100, 5), (100, 10), (100, 20)]


class TestRunBench:
    def test_cell_aggregates(self):
        report = run_bench(
            [(30, 2)], methods=("tap", "ap", "mu", "hals"),
            trials=2, restarts=3, seed=1, max_iter=60,
        )
        assert len(report.cells) == 4
        for cell in report.cells:
            assert cell.error is None
            assert cell.min_rel_error <= cell.mean_rel_error <= cell.max_rel_error
            assert cell.trials == 2
        by_method = {c.method: c for c in report.cells}
        assert by_method["mu"].restarts == 3
        assert by_method["tap"].restarts == 1

    def test_deterministic_across_runs_and_workers(self):
        kwargs = dict(
            methods=("tap", "mu"), trials=2, restarts=2, seed=4, max_iter=40
        )
        r1 = run_bench([(25, 2), (20, 3)], **kwargs)
        r2 = run_bench([(25, 2), (20, 3)], **kwargs)
        for c1, c2 in zip(r1.cells, r2.cells):
            assert c1.mean_rel_error == c2.mean_rel_error
            assert c1.min_rel_error == c2.min_rel_error
            assert c1.max_rel_error == c2.max_rel_error

    def test_tap_and_ap_agree_per_cell(self):
        report = run_bench(
            [(40, 2)], methods=("tap", "ap"), trials=2, seed=7, max_iter=500
        )
        by_method = {c.method: c for c in report.cells}
        diff = abs(by_method["tap"].mean_rel_error - by_method["ap"].mean_rel_error)
        assert diff < 1e-3

    @pytest.mark.parametrize("grid", [[(10, 40)], [(10, 0)], [(20, 2), (0, 1)]])
    def test_bad_grid_rejected_before_any_cell(self, grid, monkeypatch):
        monkeypatch.setattr("nlrm.bench._run_cell", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(DomainError, match="invalid cell"):
            run_bench(grid)

    @pytest.mark.parametrize("tol", [True, "1e-6", None, 0.0, float("nan")])
    def test_bad_tolerance_rejected_before_any_cell(self, tol, monkeypatch):
        monkeypatch.setattr("nlrm.bench._run_cell", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(DomainError, match="rel_change_tol must be a finite number > 0"):
            run_bench([(10, 2)], tol=tol)

    def test_unknown_method_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("nlrm.bench._run_cell", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            run_bench([(10, 2)], methods=("tap", "bogus"))

    def test_csv_columns_are_cell_fields(self):
        report = run_bench([(20, 2)], methods=("tap", "mu"), restarts=2, seed=3, max_iter=0)
        lines = report_csv_lines(report)
        names = [f.name for f in fields(BenchCell) if f.name != "error"]
        assert lines[0].split(",") == names
        assert report.cells[0].error is not None       # TAP needs max_iter >= 1
        for cell, line in zip(report.cells, lines[1:]):
            for name, text in zip(names, line.split(",")):
                want = getattr(cell, name)
                got = type(want)(text)
                assert got == want or (np.isnan(got) and np.isnan(want))
        assert report.to_dict()["cells"][1] == vars(report.cells[1])

    def test_csv_lines(self):
        report = run_bench([(20, 2)], methods=("tap",), trials=1, seed=0, max_iter=30)
        lines = report_csv_lines(report)
        assert lines[0].startswith("family,m,n,rank,method")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "uniform" and fields[4] == "tap"
        assert np.isfinite(float(fields[5]))
