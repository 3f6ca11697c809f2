"""Benchmark of the nlrm package: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload approx-csv-800 --seed 1 --seconds 15 --trace 0

A run sets up ``SETUP_ROUNDS`` times (fresh import of the package, input
generation, file writes, one warm-up op) and reports the median as
``setup_s``.  It then computes the seed's reference result, and runs ops one
after another until their summed time reaches ``--seconds``.  Every op is
checked after its timer stops; a failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops and reports the per-layer split of the traced ones
(medians over ops) plus the tracing overhead.  The last line of standard
output is one JSON object; the lines before it are for people.  Each run
also writes its environment, metrics and per-op times to
``perfbench/_results/``, and a traced run writes its spans there as CSV.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 5
MIN_OPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_nlrm():
    """Imports the package afresh; returns its modules by short name."""
    for name in [n for n in sys.modules if n == "nlrm" or n.startswith("nlrm.")]:
        del sys.modules[name]
    pkg = importlib.import_module("nlrm")
    importlib.import_module("nlrm.cli")
    mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("nlrm.")}
    mods["nlrm"] = pkg
    return mods


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_name": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": blas_threads(),
        "nlrm_threads": os.environ.get("NLRM_THREADS"),
    }


def main(argv=None):
    args = parse_args(argv)
    threads = os.environ.get("NLRM_THREADS", "1")
    if not threads.isdigit() or int(threads) > 1:
        # The bench thread pool oversubscribes BLAS; the run would time the scheduler.
        print(f"error: NLRM_THREADS={threads!r}; unset it or set it to 1", file=sys.stderr)
        return 2
    if not (SRC / "nlrm").is_dir():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads at most the CPUs this process may run on.
    cpus = str(len(os.sched_getaffinity(0)))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", cpus)
    os.environ.setdefault("OMP_NUM_THREADS", cpus)
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, so only after the thread settings

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{wl.name}-{os.getpid()}"
    results = HERE / "_results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        return measure(wl, args, str(work), results)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def count_full(log, shape):
    return sum(1 for s in log.svd_shapes if tuple(s) == shape)


def measure(wl, args, work, results):
    env = environment(args)

    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = perf_counter()
        mods = load_nlrm()
        state = wl.prepare(mods, work, args.seed)
        wl.run(mods, state)
        rounds.append(perf_counter() - t0)

    rec = tracer.Recorder([wl.full_shape])
    instr = tracer.Instrumentation(mods, rec)
    instr.count()
    record_ops = mods["nlrm"].record_ops
    rec.begin_op(-1)
    with record_ops() as log:
        ref, ref_problems = wl.reference(mods, state)
    ref_iters, ref_full = rec.iters, count_full(log, wl.full_shape)

    times = {False: [], True: []}
    observed = []           # (rel_error_x, iters, full SVDs) of each passing op
    failures = []           # the first few failed ops, with their problems
    failed = 0
    busy = 0.0
    op = 0
    # Ops that fail at once add next to nothing to the summed op time, so the
    # loop also ends at a wall-clock deadline.
    deadline = perf_counter() + 2 * args.seconds + 30
    while (busy < args.seconds or op < MIN_OPS) and perf_counter() < deadline:
        traced = bool(args.trace) and op % 2 == 1
        rec.begin_op(op)
        if traced:
            instr.trace()
        raised = None
        with record_ops() as log:
            t0 = perf_counter()
            root = rec.open(tracer.ROOT) if traced else None
            try:
                out = wl.run(mods, state)
            except Exception:  # a failed op is counted and the loop goes on
                raised = traceback.format_exc()
            finally:
                if traced:
                    rec.close(root)
            dt = perf_counter() - t0
        if traced:
            instr.count()
        busy += dt
        times[traced].append(dt)

        full = count_full(log, wl.full_shape)
        if raised is not None:
            problems, err = [raised.strip().splitlines()[-1]], None
        else:
            problems, err = wl.check(mods, state, out, ref, full)
        problems = list(ref_problems) + problems
        if rec.iters != ref_iters:
            problems.append(f"{rec.iters} solver iterations, reference {ref_iters}")
        if full != ref_full:
            problems.append(f"{full} full-size SVDs, reference {ref_full}")
        if problems:
            failed += 1
            if len(failures) < 20:
                failures.append({"op": op, "traced": traced, "problems": problems,
                                 "traceback": raised})
        else:
            observed.append((err, rec.iters, full))
        op += 1
    instr.restore()

    attempted = op
    if args.trace:
        traced_ops = [k for k in range(op) if k % 2 == 1]
        split = tracer.median_split(list(rec.split(traced_ops).values()))
        if times[True] and times[False]:
            split["trace.overhead_s"] = median(times[True]) - median(times[False])
        metrics = {k: (v, tracer.LAYER_METRICS[k]) for k, v in split.items()}
        rec.write_csv(results / f"{wl.name}.spans.csv")
    else:
        rows = observed or [(0.0, 0, 0)]
        metrics = {
            "op_s_p50": (median(times[False]), "s"),
            "ops_per_s": ((attempted - failed) / busy, "1/s"),
            "setup_s": (median(rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "rel_error_x": (median(r[0] for r in rows), "ratio"),
            "iters": (median(r[1] for r in rows), "count"),
            "full_svd_per_op": (median(r[2] for r in rows), "count"),
        }

    record = {
        "environment": env,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "setup_rounds_s": rounds,
        "op_seconds": {"untraced": times[False], "traced": times[True]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
    }
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(env))
    n_timed = len(times[False])
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {attempted} ops attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.4g}); "
          f"op_s_p50 is the median of {n_timed} untraced ops")
    for k, (v, u) in metrics.items():
        print(f"  {k:28s} {v:14.6g} {u}")
    for f in failures[:5]:
        print(f"  FAILED op {f['op']}{' (traced)' if f['traced'] else ''}: "
              + "; ".join(f["problems"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
