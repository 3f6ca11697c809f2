"""Command-line surface: flows, exit codes, determinism, thin-shell parity."""

import gc
import json
import warnings

import numpy as np
import pytest

from nlrm import (
    DomainError,
    InsufficientDataError,
    NlrmError,
    NumericError,
    ParseError,
    ShapeError,
    gen_uniform,
    write_matrix,
)
from nlrm import cli
from nlrm.cli import main
from nlrm.solvers import METHODS, IterationTrace, SolverConfig, TraceRecord, solve


def write_rank2_matrix(path):
    a = gen_uniform(12, 2, 0) @ gen_uniform(2, 9, 1)
    write_matrix(a, path, "csv")
    return a


def strip_timing(record):
    record = dict(record)
    record["seconds"] = None
    record["trace"] = [
        {k: (None if k == "seconds" else v) for k, v in row.items()}
        for row in record["trace"]
    ]
    return record


class TestApprox:
    def test_rank2_input_recovered(self, tmp_path, capsys):
        src = tmp_path / "a.csv"
        write_rank2_matrix(src)
        rc = main(
            ["approx", str(src), "--rank", "2",
             "--output", str(tmp_path / "y.csv"), "--trace", str(tmp_path / "r.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rel_error=" in out
        record = json.loads((tmp_path / "r.json").read_text())
        assert record["schema"] == 1
        assert record["rel_error_x"] < 1e-8

    def test_rank_zero_usage_error(self, tmp_path):
        src = tmp_path / "a.csv"
        write_rank2_matrix(src)
        assert main(["approx", str(src), "--rank", "0"]) == 2

    def test_missing_input(self, tmp_path):
        assert main(["approx", str(tmp_path / "nope.csv"), "--rank", "1"]) == 2

    def test_malformed_input(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("1,2\n3\n")
        assert main(["approx", str(src), "--rank", "1"]) == 2

    def test_deterministic_outputs(self, tmp_path):
        src = tmp_path / "a.csv"
        write_rank2_matrix(src)
        for tag in ("one", "two"):
            rc = main(
                ["approx", str(src), "--method", "hals", "--rank", "2", "--seed", "9",
                 "--output", str(tmp_path / f"y_{tag}.csv"),
                 "--trace", str(tmp_path / f"r_{tag}.json")]
            )
            assert rc == 0
        assert (tmp_path / "y_one.csv").read_bytes() == (tmp_path / "y_two.csv").read_bytes()
        # wall times are inherently run-dependent; everything else must match
        r1 = strip_timing(json.loads((tmp_path / "r_one.json").read_text()))
        r2 = strip_timing(json.loads((tmp_path / "r_two.json").read_text()))
        assert r1 == r2

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_library_call(self, tmp_path, method):
        src = tmp_path / "a.csv"
        a = write_rank2_matrix(src)
        main(["approx", str(src), "--method", method, "--rank", "2", "--tol", "1e-8",
              "--max-iter", "50", "--seed", "3", "--output", str(tmp_path / "y.csv")])
        lib = solve(method, a, SolverConfig(rank=2, max_iter=50, rel_change_tol=1e-8, seed=3))
        out_path = tmp_path / "lib.csv"
        write_matrix(lib.y, out_path, "csv")
        assert out_path.read_bytes() == (tmp_path / "y.csv").read_bytes()

    def test_capped_nmf_run_not_converged(self, tmp_path):
        src = tmp_path / "a.csv"
        write_matrix(gen_uniform(20, 15, 2), src, "csv")
        rc = main(["approx", str(src), "--method", "mu", "--rank", "3",
                   "--max-iter", "3", "--trace", str(tmp_path / "r.json")])
        assert rc == 0
        record = json.loads((tmp_path / "r.json").read_text())
        assert record["schema"] == 1
        assert record["iters"] == 4  # the initialization and three updates
        assert record["converged"] is False

    def test_nonpositive_tol_usage_error(self, tmp_path):
        src = tmp_path / "a.csv"
        write_rank2_matrix(src)
        assert main(["approx", str(src), "--rank", "1", "--tol", "0"]) == 2

    def test_directory_input_usage_error(self, tmp_path, capsys):
        assert main(["approx", str(tmp_path), "--rank", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("method", ["tap", "ap"])
    def test_zero_max_iter_projection_usage_error(self, tmp_path, capsys, method):
        src = tmp_path / "a.csv"
        write_rank2_matrix(src)
        rc = main(["approx", str(src), "--method", method, "--rank", "1", "--max-iter", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: projection solvers need max_iter >= 1\n"

    @pytest.mark.parametrize("method", ["mu", "hals"])
    def test_zero_max_iter_nmf_writes_initialization(self, tmp_path, method):
        src = tmp_path / "a.csv"
        write_rank2_matrix(src)
        rc = main(["approx", str(src), "--method", method, "--rank", "2", "--max-iter", "0",
                   "--output", str(tmp_path / "y.csv"), "--trace", str(tmp_path / "r.json")])
        assert rc == 0
        record = json.loads((tmp_path / "r.json").read_text())
        assert record["iters"] == 1 and record["converged"] is False
        assert (tmp_path / "y.csv").exists()

    def test_rank_above_min_dimension_usage_error(self, tmp_path, capsys):
        src = tmp_path / "a.csv"
        write_rank2_matrix(src)  # 12 x 9
        assert main(["approx", str(src), "--rank", "10"]) == 2
        assert "min(m, n) = 9" in capsys.readouterr().err

    def test_zero_matrix_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        write_matrix(np.zeros((4, 3)), path)
        assert main(["approx", str(path), "--rank", "1"]) == 2
        assert "cannot approximate a zero matrix" in capsys.readouterr().err

    def test_non_utf8_input_usage_error(self, tmp_path, capsys):
        src = tmp_path / "latin1.csv"
        src.write_bytes(b"1,2\n3,\xe9\n")
        assert main(["approx", str(src), "--rank", "1"]) == 2
        assert capsys.readouterr().err == f"error: {src}: not a UTF-8 text file\n"


class TestGen:
    def test_uniform_checksum_deterministic(self, tmp_path, capsys):
        lines = []
        for tag in ("one", "two"):
            rc = main(["gen", "--family", "uniform", "--m", "20", "--n", "20",
                       "--seed", "1", "--out", str(tmp_path / f"u_{tag}.csv")])
            assert rc == 0
            lines.append(capsys.readouterr().out.strip())
        assert lines[0] == lines[1]
        assert "sha256=" in lines[0]

    def test_output_file_closed_after_hashing(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["gen", "--family", "uniform", "--m", "3", "--n", "3",
                       "--out", str(tmp_path / "u.csv")])
            gc.collect()
        assert rc == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_separable_rank20_residual(self, tmp_path, capsys):
        rc = main(["gen", "--family", "separable_case1", "--sigma", "0",
                   "--seed", "2", "--out", str(tmp_path / "sep.csv")])
        assert rc == 0
        rc = main(["approx", str(tmp_path / "sep.csv"), "--rank", "20",
                   "--trace", str(tmp_path / "r.json")])
        assert rc == 0
        record = json.loads((tmp_path / "r.json").read_text())
        assert record["rel_error_x"] < 1e-8

    def test_zero_size_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--family", "uniform", "--m", "0", "--out", str(tmp_path / "u.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("family", ["separable_case1", "orthogonal_decomposable"])
    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_bad_sigma_usage_error(self, tmp_path, capsys, family, sigma):
        rc = main(["gen", "--family", family, "--sigma", sigma,
                   "--out", str(tmp_path / "g.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: sigma must be finite and >= 0")
        assert not (tmp_path / "g.csv").exists()

    def test_sigma_ignored_where_unused(self, tmp_path):
        rc = main(["gen", "--family", "uniform", "--m", "3", "--n", "3", "--sigma", "-1",
                   "--out", str(tmp_path / "u.csv")])
        assert rc == 0

    def test_separable_factors_written(self, tmp_path):
        from nlrm import gen_separable_case1, read_matrix

        b_path, c_path = tmp_path / "b.csv", tmp_path / "c.mtx"
        rc = main(["gen", "--family", "separable_case1", "--sigma", "0.1", "--seed", "2",
                   "--out", str(tmp_path / "sep.csv"),
                   "--out-b", str(b_path), "--out-c", str(c_path)])
        assert rc == 0
        a, b, c = gen_separable_case1(0.1, 2)
        assert np.array_equal(read_matrix(b_path), b)
        assert c_path.read_text().startswith("%%MatrixMarket")
        assert np.array_equal(read_matrix(c_path), c)
        assert np.array_equal(read_matrix(tmp_path / "sep.csv"), a)

    @pytest.mark.parametrize("family", ["uniform", "orthogonal_decomposable"])
    @pytest.mark.parametrize("flag", ["--out-b", "--out-c"])
    def test_factor_outputs_need_separable_family(self, tmp_path, capsys, family, flag):
        rc = main(["gen", "--family", family, "--m", "3", "--n", "3",
                   "--out", str(tmp_path / "g.csv"), flag, str(tmp_path / "f.csv")])
        assert rc == 2
        assert "separable_case1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_graph_similarity_needs_points(self, tmp_path, capsys):
        rc = main(["gen", "--family", "graph_similarity", "--out", str(tmp_path / "sim.csv")])
        assert rc == 2
        assert "--points" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    def test_graph_similarity_needs_ten_points(self, tmp_path):
        pts = tmp_path / "pts.csv"
        write_matrix(gen_uniform(5, 2, 3), pts, "csv")
        rc = main(["gen", "--family", "graph_similarity", "--points", str(pts),
                   "--out", str(tmp_path / "sim.csv")])
        assert rc == 2

    def test_graph_similarity_matrix(self, tmp_path):
        pts = tmp_path / "pts.csv"
        write_matrix(gen_uniform(15, 2, 4), pts, "csv")
        rc = main(["gen", "--family", "graph_similarity", "--points", str(pts),
                   "--out", str(tmp_path / "sim.mtx")])
        assert rc == 0
        from nlrm import read_matrix

        sim = read_matrix(tmp_path / "sim.mtx", "matrix_market_dense")
        assert sim.shape == (15, 15)
        assert np.array_equal(sim, sim.T)


class TestBench:
    def test_scaled_table1_single_size(self, tmp_path):
        rc = main(["bench", "--suite", "table1", "--sizes", "40", "--trials", "1",
                   "--restarts", "2", "--max-iter", "60",
                   "--output", str(tmp_path / "rep.json")])
        assert rc == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["schema"] == 1
        assert len(report["cells"]) == 12  # 3 ranks x 4 methods
        assert (tmp_path / "rep.csv").exists()
        tap = [c for c in report["cells"] if c["method"] == "tap"]
        ap = [c for c in report["cells"] if c["method"] == "ap"]
        for c_tap, c_ap in zip(tap, ap):
            assert abs(c_tap["mean_rel_error"] - c_ap["mean_rel_error"]) < 1e-3

    def test_grid_required(self, tmp_path):
        assert main(["bench", "--output", str(tmp_path / "rep.json")]) == 2

    def test_bad_cell(self, tmp_path):
        rc = main(["bench", "--sizes", "10", "--ranks", "40",
                   "--output", str(tmp_path / "rep.json")])
        assert rc == 2

    def test_ranks_with_table1_suite_rejected(self, tmp_path, capsys):
        rc = main(["bench", "--suite", "table1", "--sizes", "20", "--ranks", "7",
                   "--output", str(tmp_path / "rep.json")])
        assert rc == 2
        assert "--ranks" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_scale_option_removed(self, tmp_path):
        rc = main(["bench", "--suite", "table1", "--scale", "0.5",
                   "--output", str(tmp_path / "rep.json")])
        assert rc == 2
        assert not (tmp_path / "rep.json").exists()

    def test_unknown_method(self, tmp_path):
        rc = main(["bench", "--sizes", "10", "--ranks", "2", "--methods", "magic",
                   "--output", str(tmp_path / "rep.json")])
        assert rc == 2
        assert not (tmp_path / "rep.json").exists()


    @pytest.mark.parametrize(
        "flag, value",
        [("--trials", "0"), ("--restarts", "0"), ("--tol", "0"), ("--tol", "inf"),
         ("--max-iter", "-1")],
    )
    def test_bad_run_setting_usage_error(self, tmp_path, capsys, flag, value):
        rc = main(["bench", "--sizes", "10", "--ranks", "2", flag, value,
                   "--output", str(tmp_path / "rep.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "rep.json").exists()

    def test_zero_max_iter_fails_projection_cells_only(self, tmp_path):
        rc = main(["bench", "--sizes", "10", "--ranks", "2", "--restarts", "1",
                   "--max-iter", "0", "--output", str(tmp_path / "rep.json")])
        assert rc == 0
        cells = json.loads((tmp_path / "rep.json").read_text())["cells"]
        errors = {c["method"]: c["error"] for c in cells}
        assert errors["mu"] is None and errors["hals"] is None
        assert errors["tap"] == errors["ap"] == "DomainError: projection solvers need max_iter >= 1"


class TestDiag:
    def test_geometric_trace(self, tmp_path, capsys):
        trace = IterationTrace()
        for k in range(80):
            trace.append(TraceRecord(k, 0.5**k, 0.0, 0.0))
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"trace": trace.to_dicts()}))
        rc = main(["diag", "--trace", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        c_hat = float(out.split("c_hat=")[1].split()[0])
        assert abs(c_hat - 0.5) < 1e-6

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"trace": []}))
        assert main(["diag", "--trace", str(path)]) == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("{oops")
        assert main(["diag", "--trace", str(path)]) == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_bytes(b"\xff\xfe[\x00]\x00")
        assert main(["diag", "--trace", str(path)]) == 2
        assert "not a UTF-8 text file" in capsys.readouterr().err

    def test_repeated_iteration_usage_error(self, tmp_path, capsys):
        rows = [{"iteration": k // 2, "rel_error": 0.5**k} for k in range(20)]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(rows))
        assert main(["diag", "--trace", str(path)]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_constant_trace_insufficient(self, tmp_path):
        rows = [{"iteration": k, "rel_error": 0.3} for k in range(15)]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(rows))
        assert main(["diag", "--trace", str(path)]) == 2

    @pytest.mark.parametrize("field, text", [("rel_error", "Infinity"), ("seconds", "NaN"),
                                             ("min_entry", "-1e400"), ("iteration", "Infinity")])
    def test_non_finite_trace_usage_error(self, tmp_path, capsys, field, text):
        rows = [json.dumps({"iteration": k, "rel_error": 0.5**k}) for k in range(15)]
        rows[3] = rows[3][:-1] + f', "{field}": {text}}}'
        path = tmp_path / "trace.json"
        path.write_text("[" + ",".join(rows) + "]")
        assert main(["diag", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: malformed trace record: ")

    def test_solver_trace_flow(self, tmp_path, capsys):
        src = tmp_path / "a.csv"
        write_matrix(gen_uniform(60, 60, 5), src, "csv")
        rc = main(["approx", str(src), "--rank", "4", "--tol", "1e-12",
                   "--max-iter", "200", "--trace", str(tmp_path / "r.json")])
        assert rc == 0
        capsys.readouterr()
        rc = main(["diag", "--trace", str(tmp_path / "r.json")])
        assert rc == 0
        out = capsys.readouterr().out
        c_hat = float(out.split("c_hat=")[1].split()[0])
        assert 0.0 < c_hat < 1.0


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_method(self, tmp_path):
        src = tmp_path / "a.csv"
        write_rank2_matrix(src)
        assert main(["approx", str(src), "--method", "magic", "--rank", "1"]) == 2


class TestErrorMapping:
    """``main`` alone turns an error raised by a command into an exit code."""

    @pytest.mark.parametrize(
        "error",
        [NlrmError, ShapeError, DomainError, ParseError, InsufficientDataError,
         FileNotFoundError, PermissionError],
    )
    def test_usage_errors_exit_2(self, monkeypatch, capsys, error):
        def command(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_diag", command)
        assert main(["diag", "--trace", "unused.json"]) == 2
        assert capsys.readouterr().err == "error: boom\n"

    def test_numeric_error_exits_3(self, monkeypatch, capsys):
        def command(args):
            raise NumericError("boom")

        monkeypatch.setattr(cli, "cmd_diag", command)
        assert main(["diag", "--trace", "unused.json"]) == 3
        assert capsys.readouterr().err == "numeric error: boom\n"
