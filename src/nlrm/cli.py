"""Command-line interface: approximate a matrix file, run benchmark grids,
generate datasets, and diagnose convergence traces.

The CLI is a thin shell over the library: all numeric work, and every
check of a value, happens in the modules it calls.  The CLI itself checks
only which options go together, which no library function sees.  ``main``
is the one place that maps errors to exit codes: 0 success, 3 for a
:class:`NumericError`, 2 for any other package error or an ``OSError``
(and for argparse's usage errors).
"""

import argparse
import hashlib
import sys

from . import bench as bench_mod
from . import matio
from .datagen import (
    gen_graph_similarity,
    gen_orthogonal_decomposable,
    gen_separable_case1,
    gen_uniform,
)
from .errors import NlrmError, NumericError
from .solvers import METHODS, SolverConfig, contraction_rate_estimate, solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlrm",
        description="Nonnegative low-rank matrix approximation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx", help="approximate a matrix file")
    p_approx.add_argument("input", help="matrix file (.csv or .mtx)")
    p_approx.add_argument("--method", choices=METHODS, default="tap")
    p_approx.add_argument("--rank", type=int, required=True)
    p_approx.add_argument("--tol", type=float, default=1e-6)
    p_approx.add_argument("--max-iter", type=int, default=1000)
    p_approx.add_argument("--seed", type=int, default=0, help="NMF initialization seed")
    p_approx.add_argument("--output", help="write the nonnegative approximation here")
    p_approx.add_argument("--trace", help="write the JSON result record here")
    p_approx.set_defaults(func=cmd_approx)

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    p_bench.add_argument("--suite", choices=["table1"], help="use the predefined grid")
    p_bench.add_argument("--sizes", type=int, nargs="+", help="square matrix sizes")
    p_bench.add_argument("--ranks", type=int, nargs="+", help="ranks (with --sizes)")
    p_bench.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--restarts", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--tol", type=float, default=1e-6)
    p_bench.add_argument("--max-iter", type=int, default=500)
    p_bench.add_argument("--output", required=True, help="report path (.json; .csv written alongside)")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=["uniform", "separable_case1", "orthogonal_decomposable", "graph_similarity"],
    )
    p_gen.add_argument("--out", required=True, help="output matrix file (.csv or .mtx)")
    p_gen.add_argument("--m", type=int, default=200)
    p_gen.add_argument("--n", type=int, default=200)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--sigma", type=float, default=0.0)
    p_gen.add_argument("--points", help="point-cloud file (n x 2 CSV) for graph_similarity")
    p_gen.add_argument("--out-b", help="also write the left factor (separable_case1)")
    p_gen.add_argument("--out-c", help="also write the right factor (separable_case1)")
    p_gen.set_defaults(func=cmd_gen)

    p_diag = sub.add_parser("diag", help="estimate the contraction rate of a trace")
    p_diag.add_argument("--trace", required=True, help="JSON result or trace-record list")
    p_diag.add_argument("--tail-fraction", type=float, default=0.5)
    p_diag.set_defaults(func=cmd_diag)

    return parser


def cmd_approx(args) -> int:
    cfg = SolverConfig(
        rank=args.rank,
        max_iter=args.max_iter,
        rel_change_tol=args.tol,
        seed=args.seed,
    )
    a = matio.read_matrix(args.input)
    result = solve(args.method, a, cfg)
    record = matio.result_record(args.method, args.rank, result)
    if args.output:
        matio.write_matrix(result.y, args.output)
    if args.trace:
        matio.write_json(record, args.trace)
    print(
        f"method={record['method']} rank={record['rank']} "
        f"rel_error={record['rel_error_x']:.6g} iters={record['iters']} "
        f"seconds={record['seconds']:.4g}"
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.suite == "table1":
        if args.ranks:
            return _usage_error("--suite table1 sets its own ranks; drop --ranks")
        grid = bench_mod.table1_grid(sizes=args.sizes)
        suite = "table1"
    elif args.sizes and args.ranks:
        grid = [(n, r) for n in args.sizes for r in args.ranks]
        suite = "custom"
    else:
        return _usage_error("provide --suite table1 or both --sizes and --ranks")

    report = bench_mod.run_bench(
        grid,
        methods=tuple(args.methods),
        trials=args.trials,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        max_iter=args.max_iter,
        suite=suite,
    )
    matio.write_json(report.to_dict(), args.output)
    csv_path = _sibling_csv(args.output)
    with open(csv_path, "w") as fh:
        fh.write("\n".join(bench_mod.report_csv_lines(report)) + "\n")
    failed = [c for c in report.cells if c.error is not None]
    for cell in failed:
        print(
            f"cell {cell.m}x{cell.n} r={cell.rank} {cell.method}: {cell.error}",
            file=sys.stderr,
        )
    print(
        f"bench suite={report.suite} cells={len(report.cells)} "
        f"failed={len(failed)} report={args.output} csv={csv_path}"
    )
    return EXIT_NUMERIC if failed and len(failed) == len(report.cells) else EXIT_OK


def cmd_gen(args) -> int:
    if (args.out_b or args.out_c) and args.family != "separable_case1":
        return _usage_error("--out-b and --out-c apply to --family separable_case1 only")
    if args.family == "uniform":
        matrix = gen_uniform(args.m, args.n, args.seed)
    elif args.family == "separable_case1":
        matrix, b_true, c_true = gen_separable_case1(args.sigma, args.seed)
        if args.out_b:
            matio.write_matrix(b_true, args.out_b)
        if args.out_c:
            matio.write_matrix(c_true, args.out_c)
    elif args.family == "orthogonal_decomposable":
        matrix = gen_orthogonal_decomposable(args.sigma, args.seed)
    else:
        if not args.points:
            return _usage_error("graph_similarity requires --points")
        points = matio.read_matrix(args.points)
        matrix = gen_graph_similarity(points)
    matio.write_matrix(matrix, args.out)
    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"{matrix.shape[0]}x{matrix.shape[1]} sha256={digest}")
    return EXIT_OK


def cmd_diag(args) -> int:
    trace = matio.read_trace(args.trace)
    c_hat, r_squared = contraction_rate_estimate(trace, args.tail_fraction)
    final = trace.records[-1]
    print(
        f"c_hat={c_hat:.6g} r_squared={r_squared:.6g} "
        f"iterations={len(trace)} final_rel_error={final.rel_error:.6g}"
    )
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _sibling_csv(path: str) -> str:
    return (path[: -len(".json")] if path.endswith(".json") else path) + ".csv"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with exit 2
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, NlrmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
