"""The four benchmark workloads: inputs, one op, a reference, and the checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned and been checked.  Inputs are a pure
function of the workload seed.  The reference for a seed is computed once,
through the library rather than the op's own path where the two differ (the
CLI workloads), and is itself checked against plain numpy: the rank-r error
can be no lower than the truncation bound from the singular values, and it
must match the error of the returned factors.

``mods`` is a dict of the freshly imported package modules by short name.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

GRID_BOUND = 1e-3     # TAP/AP agreement on Table-1 cells (acceptance criterion 02)


def read_csv_fast(path):
    """Independent CSV reader for the checks (not the package's reader)."""
    with open(path, "rb") as fh:
        data = fh.read()
    values = np.array(data.replace(b",", b" ").split(), dtype=np.float64)
    return values.reshape(data.count(b"\n"), -1)


def read_mtx_fast(path):
    """Independent reader for dense MatrixMarket files without comment lines."""
    with open(path, "rb") as fh:
        _banner, size, body = fh.read().split(b"\n", 2)
    rows, cols = (int(tok) for tok in size.split())
    return np.array(body.split(), dtype=np.float64).reshape(cols, rows).T


def truncation_floor(a, rank):
    """Smallest possible ||a - x||_F / ||a||_F over matrices x of rank <= rank."""
    s = np.linalg.svd(a, compute_uv=False)
    return math.sqrt(float(np.sum(s[rank:] ** 2))) / math.sqrt(float(np.sum(s ** 2)))


def check_solution(a, rank, res):
    """Plain-numpy checks of a projection-solver result; returns problems."""
    problems = []
    x = (res.x.u * res.x.s) @ res.x.v.T
    err = float(np.linalg.norm(a - x) / np.linalg.norm(a))
    if abs(err - res.rel_error_x) > 1e-9 * err:
        problems.append(f"rel_error_x {res.rel_error_x!r} but the factors give {err!r}")
    floor = truncation_floor(a, rank)
    if res.rel_error_x < floor * (1 - 1e-9):
        problems.append(f"rel_error_x {res.rel_error_x!r} below the rank-{rank} bound {floor!r}")
    if not (res.y >= 0).all():
        problems.append("y has negative entries")
    if not np.allclose(res.y, np.maximum(x, 0.0), rtol=0.0, atol=1e-12):
        problems.append("y is not the clamp of the rank-r iterate")
    return problems


def quiet(fn, *args):
    """Calls ``fn`` with its standard output kept in memory."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class ApproxFile:
    """``nlrm approx`` through ``cli.main`` on a matrix file.

    The reference is ``tap_solve`` on the in-memory matrix: file round trips
    are bit-exact, so the CLI must reproduce it bit for bit.
    """

    def matrix(self, mods, seed):
        raise NotImplementedError

    def prepare(self, mods, work, seed):
        a = self.matrix(mods, seed)
        paths = {k: os.path.join(work, k + ext) for k, ext in
                 (("a", self.ext), ("y", self.ext), ("r", ".json"))}
        matio = mods["matio"]
        matio.write_matrix(a, paths["a"], matio.format_for_path(paths["a"]))
        argv = ["approx", paths["a"], "--method", "tap", "--rank", str(self.rank),
                "--output", paths["y"], "--trace", paths["r"]]
        if self.max_iter is not None:
            argv += ["--max-iter", str(self.max_iter), "--tol", repr(self.tol)]
        return {"a": a, "paths": paths, "argv": argv}

    def config(self, mods):
        kwargs = {"rank": self.rank}
        if self.max_iter is not None:
            kwargs.update(max_iter=self.max_iter, rel_change_tol=self.tol)
        return mods["solvers"].SolverConfig(**kwargs)

    def run(self, mods, state):
        return quiet(mods["cli"].main, state["argv"])

    def reference(self, mods, state):
        res = mods["solvers"].tap_solve(state["a"], self.config(mods))
        return res, check_solution(state["a"], self.rank, res)

    def check(self, mods, state, out, ref, full_svd):
        """Problems with one op's output, and the rel_error_x it reports."""
        if out != 0:
            return [f"exit code {out}"], math.nan
        problems = []
        read_back = read_csv_fast if self.ext == ".csv" else read_mtx_fast
        y = read_back(state["paths"]["y"])
        if not (y >= 0).all():
            problems.append("written y has negative entries")
        if not np.array_equal(y, ref.y):
            problems.append("written y differs from the library result")
        with open(state["paths"]["r"]) as fh:
            record = json.load(fh)
        if record["rel_error_x"] != ref.rel_error_x:
            problems.append(f"rel_error_x {record['rel_error_x']!r} != {ref.rel_error_x!r}")
        if record["iters"] != len(ref.trace):
            problems.append(f"iters {record['iters']} != {len(ref.trace)}")
        if self.single_full_svd and full_svd != 1:
            problems.append(f"{full_svd} full-size SVDs, expected 1")
        return problems, record["rel_error_x"]


class ApproxCsv(ApproxFile):
    name, ext, full_shape = "approx-csv-800", ".csv", (800, 800)
    rank, max_iter, tol = 40, None, None
    single_full_svd = True

    def matrix(self, mods, seed):
        return mods["datagen"].gen_uniform(800, 800, seed)


class ApproxMtxHighRank(ApproxFile):
    """2r > n, so TAP takes its dense fallback: one full SVD per iteration."""

    name, ext, full_shape = "approx-mtx-highrank-300", ".mtx", (300, 300)
    # The default stopping rule ends this input after 24 to 26 iterations
    # depending on the seed; the op runs a fixed 25.
    rank, max_iter, tol = 160, 25, 1e-12
    single_full_svd = False

    def matrix(self, mods, seed):
        datagen = mods["datagen"]
        return datagen.gen_graph_similarity(datagen.gen_uniform(300, 2, seed))


class TapGraph:
    """``tap_solve`` on an in-memory graph-similarity matrix: no I/O at all."""

    name, full_shape = "tap-graph-1000", (1000, 1000)
    rank = 20
    # The default stopping rule ends this input after 57 to 81 iterations
    # depending on the seed, which would make op time a property of the seed;
    # the op runs a fixed 75 iterations instead.
    max_iter, tol = 75, 1e-12

    def prepare(self, mods, work, seed):
        datagen = mods["datagen"]
        a = datagen.gen_graph_similarity(datagen.gen_uniform(1000, 2, seed))
        cfg = mods["solvers"].SolverConfig(rank=self.rank, max_iter=self.max_iter,
                                           rel_change_tol=self.tol)
        return {"a": a, "cfg": cfg}

    def run(self, mods, state):
        return mods["solvers"].tap_solve(state["a"], state["cfg"])

    def reference(self, mods, state):
        res = mods["solvers"].tap_solve(state["a"], state["cfg"])
        return res, check_solution(state["a"], self.rank, res)

    def check(self, mods, state, out, ref, full_svd):
        problems = []
        if not (out.y >= 0).all():
            problems.append("y has negative entries")
        if not np.array_equal(out.y, ref.y):
            problems.append("y differs from the reference")
        if out.rel_error_x != ref.rel_error_x:
            problems.append(f"rel_error_x {out.rel_error_x!r} != {ref.rel_error_x!r}")
        if len(out.trace) != len(ref.trace):
            problems.append(f"iters {len(out.trace)} != {len(ref.trace)}")
        if full_svd != 1:
            problems.append(f"{full_svd} full-size SVDs, expected 1")
        return problems, out.rel_error_x


class BenchTable1:
    """``nlrm bench --suite table1 --sizes 200 --restarts 1``: all four methods.

    The reference is ``run_bench`` called directly on the same grid.
    """

    name, full_shape = "bench-table1-200", (200, 200)
    size = 200

    def prepare(self, mods, work, seed):
        out = os.path.join(work, "report.json")
        argv = ["bench", "--suite", "table1", "--sizes", str(self.size),
                "--restarts", "1", "--seed", str(seed), "--output", out]
        return {"seed": seed, "out": out, "argv": argv}

    def run(self, mods, state):
        return quiet(mods["cli"].main, state["argv"])

    def reference(self, mods, state):
        bench = mods["bench"]
        grid = bench.table1_grid(sizes=[self.size])
        report = bench.run_bench(grid, restarts=1, seed=state["seed"])
        cells = report.to_dict()["cells"]
        problems = self._cell_problems(cells)
        a = mods["datagen"].gen_uniform(self.size, self.size,
                                        mods["rng"].derive_seed(state["seed"], 0))
        for c in cells:
            floor = truncation_floor(a, c["rank"])
            if c["error"] is None and c["min_rel_error"] < floor * (1 - 1e-9):
                problems.append(f"{c['method']} r={c['rank']}: error below the rank bound {floor!r}")
        return cells, problems

    @staticmethod
    def _cell_problems(cells):
        problems = [f"cell {c['method']} r={c['rank']}: {c['error']}"
                    for c in cells if c["error"] is not None]
        by_method = {(c["rank"], c["method"]): c["mean_rel_error"] for c in cells}
        for (rank, method), err in by_method.items():
            if method == "tap" and (rank, "ap") in by_method:
                gap = abs(err - by_method[(rank, "ap")])
                if not gap < GRID_BOUND:
                    problems.append(f"r={rank}: TAP and AP differ by {gap:.3g}")
        return problems

    def check(self, mods, state, out, ref, full_svd):
        if out != 0:
            return [f"exit code {out}"], math.nan
        with open(state["out"]) as fh:
            cells = json.load(fh)["cells"]
        problems = self._cell_problems(cells)
        got = [(c["rank"], c["method"], c["mean_rel_error"]) for c in cells]
        want = [(c["rank"], c["method"], c["mean_rel_error"]) for c in ref]
        if got != want:
            problems.append("cell errors differ from the library run")
        return problems, sum(c["mean_rel_error"] for c in cells) / len(cells)


WORKLOADS = {w.name: w for w in (ApproxCsv(), TapGraph(), BenchTable1(), ApproxMtxHighRank())}
