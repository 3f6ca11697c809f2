"""Command-line surface: flows, exit codes, determinism, thin-shell parity."""

import gc
import json
import warnings

import numpy as np
import pytest

from nlrm import gen_uniform, write_matrix
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

    def test_unknown_method(self, tmp_path):
        rc = main(["bench", "--sizes", "10", "--ranks", "2", "--methods", "magic",
                   "--output", str(tmp_path / "rep.json")])
        assert rc == 2
        assert not (tmp_path / "rep.json").exists()


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

    def test_constant_trace_insufficient(self, tmp_path):
        rows = [{"iteration": k, "rel_error": 0.3} for k in range(15)]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(rows))
        assert main(["diag", "--trace", str(path)]) == 2

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
