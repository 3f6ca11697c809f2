"""Spans around the public functions of each nlrm module, and the per-layer split.

The package is instrumented from outside: every binding of a traced function
in the package's module namespaces (and ``SvdTriplet.reconstruct`` on its
class) is swapped for a wrapper while a traced op runs, then put back.  Each
call becomes a span (kind, start, end, parent span, op id) kept in memory
until the run ends.  A layer's self time is its span's duration minus the
part of that interval its child spans cover, so the self times of one op's
spans add up to the op's duration.

Outside traced ops only the four solver entry points are wrapped, by a
counter that adds up solver iterations; that costs one call per solve.
"""

import os
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter

# (module, attribute) -> per-layer metric that the call's self time counts
# toward.  thin_svd is split into full and core by the shape it is given.
TARGETS = {
    ("matio", "read_matrix"): "matio.read_s",
    ("matio", "write_matrix"): "matio.write_s",
    ("matio", "result_record"): "matio.json_s",
    ("matio", "nmf_result_record"): "matio.json_s",
    ("matio", "write_json"): "matio.json_s",
    ("matio", "read_trace"): "matio.json_s",
    ("linalg", "thin_svd"): None,
    ("linalg", "householder_qr"): "linalg.qr_s",
    ("linalg", "matmul"): "linalg.matmul_s",
    ("linalg", "as_matrix"): "linalg.as_matrix_s",
    ("linalg", "SvdTriplet.reconstruct"): "linalg.reconstruct_s",
    ("linalg", "frobenius_norm"): "linalg.norm_s",
    ("projections", "project_fixed_rank"): "projections.fixed_rank_s",
    ("projections", "tangent_project_structured"): "projections.tangent_s",
    ("projections", "retract_to_rank"): "projections.retract_s",
    ("projections", "project_nonnegative"): "projections.clamp_s",
    ("projections", "tangent_project_dense"): "projections.tangent_dense_s",
    ("solvers", "tap_solve"): "solvers.self_s",
    ("solvers", "ap_solve"): "solvers.self_s",
    ("solvers", "nmf_mu_solve"): "solvers.self_s",
    ("solvers", "nmf_hals_solve"): "solvers.self_s",
    ("datagen", "gen_uniform"): "datagen.gen_s",
    ("datagen", "gen_graph_similarity"): "datagen.gen_s",
    ("datagen", "gen_separable_case1"): "datagen.gen_s",
    ("datagen", "gen_orthogonal_decomposable"): "datagen.gen_s",
    ("rng", "random_uint64"): "datagen.gen_s",
    ("rng", "random_uniform"): "datagen.gen_s",
    ("rng", "uniform_matrix"): "datagen.gen_s",
    ("rng", "derive_seed"): "datagen.gen_s",
    ("bench", "run_bench"): "bench.self_s",
    ("bench", "table1_grid"): "bench.self_s",
    ("bench", "report_csv_lines"): "bench.self_s",
    ("cli", "main"): "cli.self_s",
}

SOLVER_METRICS = {
    "solvers.tap_solve": "solvers.tap_s",
    "solvers.ap_solve": "solvers.ap_s",
    "solvers.nmf_mu_solve": "solvers.mu_s",
    "solvers.nmf_hals_solve": "solvers.hals_s",
}

# Kinds whose calls are counted, and the metric that counts them.
CALL_COUNTS = {
    "linalg.householder_qr": "linalg.qr_calls",
    "linalg.matmul": "linalg.matmul_calls",
    "projections.tangent_project_dense": "projections.fallback_steps",
}

SVD_FULL, SVD_CORE = "linalg.thin_svd:full", "linalg.thin_svd:core"
ROOT = "op"

# Every per-layer metric, with its unit, in report order.
LAYER_METRICS = {
    "matio.read_s": "s", "matio.write_s": "s", "matio.json_s": "s",
    "matio.read_mb_per_s": "MB/s", "matio.write_mb_per_s": "MB/s",
    "matio.bytes_read": "bytes", "matio.bytes_written": "bytes",
    "linalg.svd_full_s": "s", "linalg.svd_full_calls": "count",
    "linalg.svd_core_s": "s", "linalg.svd_core_calls": "count",
    "linalg.qr_s": "s", "linalg.qr_calls": "count",
    "linalg.matmul_s": "s", "linalg.matmul_calls": "count",
    "linalg.matmul_gflop": "GFLOP",
    "linalg.as_matrix_s": "s", "linalg.reconstruct_s": "s", "linalg.norm_s": "s",
    "projections.fixed_rank_s": "s", "projections.tangent_s": "s",
    "projections.retract_s": "s", "projections.clamp_s": "s",
    "projections.tangent_dense_s": "s", "projections.fallback_steps": "count",
    "solvers.tap_s": "s", "solvers.ap_s": "s", "solvers.mu_s": "s",
    "solvers.hals_s": "s", "solvers.self_s": "s", "solvers.iter_ms": "ms",
    "solvers.untracked_s": "s",
    "datagen.gen_s": "s",
    "bench.self_s": "s", "bench.cells": "count", "bench.cell_errors": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.spans_per_op": "count",
}


def self_times(start, end, parent):
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the span."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            lo, hi = max(start[c], reach), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def solver_trace(out):
    """Iteration trace of a solver's return value (result object or NMF tuple)."""
    return out.trace if hasattr(out, "trace") else out[2]


class Recorder:
    """In-memory span store plus the per-op counters the wrappers feed."""

    def __init__(self, full_shapes):
        self.full_shapes = set(full_shapes)
        self.kind, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.stack = []
        self.notes = defaultdict(Counter)   # op id -> counters
        self.op_id = -1
        self.iters = 0                       # solver iterations of the current op

    def begin_op(self, op_id):
        self.op_id = op_id
        self.iters = 0

    def open(self, kind):
        i = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def note(self, key, value):
        self.notes[self.op_id][key] += value

    def split(self, op_ids):
        """Per-layer metrics of each op in ``op_ids`` (op id -> {metric: value})."""
        own = self_times(self.start, self.end, self.parent)
        per_op = {k: Counter() for k in op_ids}
        for i, kind in enumerate(self.kind):
            m = per_op.get(self.op[i])
            if m is None or kind == ROOT:
                continue
            m["trace.spans_per_op"] += 1
            if kind in SOLVER_METRICS:
                m[SOLVER_METRICS[kind]] += self.end[i] - self.start[i]
                m["solvers.self_s"] += own[i]
            elif kind in (SVD_FULL, SVD_CORE):
                tag = "full" if kind == SVD_FULL else "core"
                m[f"linalg.svd_{tag}_s"] += own[i]
                m[f"linalg.svd_{tag}_calls"] += 1
            else:
                m[KIND_METRIC[kind]] += own[i]
                if kind in CALL_COUNTS:
                    m[CALL_COUNTS[kind]] += 1
        out = {}
        for k, m in per_op.items():
            notes = self.notes.get(k, Counter())
            m.update({key: v for key, v in notes.items() if key in LAYER_METRICS})
            steps = notes.get("tap_steps", 0)
            m["solvers.iter_ms"] = 1e3 * notes.get("tap_after_init_s", 0.0) / steps if steps else 0.0
            for io, nbytes in (("read", "bytes_read"), ("write", "bytes_written")):
                secs = m[f"matio.{io}_s"]
                m[f"matio.{io}_mb_per_s"] = m[f"matio.{nbytes}"] / 1e6 / secs if secs > 0 else 0.0
            out[k] = m
        return out

    def write_csv(self, path):
        """Writes every span as one CSV row: op,span,parent,kind,start_s,end_s."""
        with open(path, "w") as fh:
            fh.write("op,span,parent,kind,start_s,end_s\n")
            for i, kind in enumerate(self.kind):
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},{kind},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


KIND_METRIC = {f"{mod}.{attr}": metric for (mod, attr), metric in TARGETS.items()}


def _note_matmul(rec, args, out, i):
    a, b = args[0], args[1]
    rec.note("linalg.matmul_gflop", 2e-9 * a.shape[0] * a.shape[1] * b.shape[1])


def _note_read(rec, args, out, i):
    rec.note("matio.bytes_read", os.path.getsize(args[0]))


def _note_write(rec, args, out, i):
    rec.note("matio.bytes_written", os.path.getsize(args[1]))


def _note_solver(rec, args, out, i):
    trace = solver_trace(out)
    rec.iters += len(trace)
    rec.note("solvers.untracked_s", (rec.end[i] - rec.start[i]) - trace.seconds)
    if rec.kind[i] == "solvers.tap_solve" and len(trace) > 1:
        rec.note("tap_after_init_s", trace.seconds - trace.records[0].seconds)
        rec.note("tap_steps", len(trace) - 1)


def _note_bench(rec, args, out, i):
    rec.note("bench.cells", len(out.cells))
    rec.note("bench.cell_errors", sum(c.error is not None for c in out.cells))


# Counters taken from a call's arguments or result, after its span closes.
_AFTER = {
    "linalg.matmul": _note_matmul,
    "matio.read_matrix": _note_read,
    "matio.write_matrix": _note_write,
    "bench.run_bench": _note_bench,
    **{kind: _note_solver for kind in SOLVER_METRICS},
}


def _span_wrapper(fn, kind, rec):
    after = _AFTER.get(kind)

    def traced(*args, **kwargs):
        if kind == "linalg.thin_svd":
            i = rec.open(SVD_FULL if args[0].shape in rec.full_shapes else SVD_CORE)
        else:
            i = rec.open(kind)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            after(rec, args, out, i)
        return out

    traced.__wrapped__ = fn
    return traced


def _count_wrapper(fn, rec):
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        rec.iters += len(solver_trace(out))
        return out

    counted.__wrapped__ = fn
    return counted


class Instrumentation:
    """Swaps the package's function bindings between plain, counted and traced.

    ``mods`` maps module short names (``"linalg"``, ...) to the imported
    modules.  Functions a later version of the package no longer has are
    skipped.
    """

    def __init__(self, mods, rec):
        originals = {}
        for (mod, attr), _ in TARGETS.items():
            holder = mods.get(mod)
            *path, name = attr.split(".")
            for part in path:
                holder = getattr(holder, part, None) if holder is not None else None
            fn = getattr(holder, name, None) if holder is not None else None
            if callable(fn):
                originals[id(fn)] = (f"{mod}.{attr}", fn)
        # every binding of a traced function: package namespaces and the class
        self.sites = []
        holders = list(mods.values()) + [mods["linalg"].SvdTriplet]  # reconstruct
        for holder in holders:
            for name, val in list(vars(holder).items()):
                if id(val) in originals:
                    kind, fn = originals[id(val)]
                    self.sites.append((holder, name, kind, fn))
        self.counted = {
            (h, n): _count_wrapper(fn, rec) if kind in SOLVER_METRICS else fn
            for h, n, kind, fn in self.sites
        }
        self.traced = {(h, n): _span_wrapper(fn, kind, rec) for h, n, kind, fn in self.sites}

    def _set(self, table):
        for (holder, name), fn in table.items():
            setattr(holder, name, fn)

    def count(self):
        self._set(self.counted)

    def trace(self):
        self._set(self.traced)

    def restore(self):
        self._set({(h, n): fn for h, n, _, fn in self.sites})


def median_split(splits):
    """Per-metric median over the traced ops' splits; every metric present."""
    return {
        name: median(s.get(name, 0.0) for s in splits) if splits else 0.0
        for name in LAYER_METRICS
    }
