"""Tests of the benchmark's span arithmetic and of tracing from outside the package."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracer  # noqa: E402


def test_self_times_nested_tree_adds_up_to_root():
    #   root [0, 10]
    #   ├── a [1, 4]
    #   │   └── d [2, 3]
    #   └── b [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    own = tracer.self_times(start, end, parent)
    assert own == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(own) == pytest.approx(end[0] - start[0])


def test_self_times_count_covered_time_once():
    #   root [0, 10] with children a [1, 4] and b [3, 6] overlapping on
    #   [3, 4], c [8, 12] running past the root's end, and e [11, 12]
    #   entirely outside it: covered is [1, 6] + [8, 10] = 7.
    start = [0.0, 1.0, 3.0, 8.0, 11.0]
    end = [10.0, 4.0, 6.0, 12.0, 12.0]
    parent = [-1, 0, 0, 0, 0]
    own = tracer.self_times(start, end, parent)
    assert own == pytest.approx([3.0, 3.0, 3.0, 4.0, 1.0])


def test_self_times_of_leaf_and_empty_input():
    assert tracer.self_times([], [], []) == []
    assert tracer.self_times([2.0], [2.5], [-1]) == pytest.approx([0.5])


def _modules():
    import nlrm
    import nlrm.cli  # noqa: F401 - imports every package module

    mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("nlrm.")}
    mods["nlrm"] = nlrm
    return mods


def test_traced_op_gives_same_bits_and_a_consistent_split():
    mods = _modules()
    solvers, datagen = mods["solvers"], mods["datagen"]
    a = datagen.gen_graph_similarity(datagen.gen_uniform(60, 2, 3))
    cfg = solvers.SolverConfig(rank=5, max_iter=12, rel_change_tol=1e-12)
    plain = solvers.tap_solve(a, cfg)

    rec = tracer.Recorder([a.shape])
    instr = tracer.Instrumentation(mods, rec)
    original = solvers.matmul
    try:
        rec.begin_op(0)
        instr.trace()
        root = rec.open(tracer.ROOT)
        traced = solvers.tap_solve(a, cfg)
        rec.close(root)
        instr.count()
        rec.begin_op(1)
        counted = solvers.tap_solve(a, cfg)
    finally:
        instr.restore()
    assert solvers.matmul is original

    for res in (traced, counted):
        assert res.rel_error_x == plain.rel_error_x
        assert len(res.trace) == len(plain.trace) == 12
        assert np.array_equal(res.y, plain.y)
    assert rec.iters == 12

    split = rec.split([0])[0]
    assert split["linalg.svd_full_calls"] == 1
    assert split["linalg.svd_core_calls"] == 11
    assert split["linalg.qr_calls"] == 22
    assert split["solvers.tap_s"] > 0
    own = tracer.self_times(rec.start, rec.end, rec.parent)
    assert sum(own) == pytest.approx(rec.end[root] - rec.start[root], rel=1e-9)
