"""Solver-level tests: fixed points, oracles, invariants, NMF baselines,
and the contraction-rate estimator."""

import warnings

import numpy as np
import pytest

from nlrm import (
    DomainError,
    InsufficientDataError,
    IterationTrace,
    ShapeError,
    SolverConfig,
    TangentFrame,
    TraceRecord,
    ap_solve,
    contraction_rate_estimate,
    frobenius_norm,
    gen_graph_similarity,
    gen_orthogonal_decomposable,
    gen_uniform,
    nmf_hals_solve,
    nmf_mu_solve,
    project_fixed_rank,
    project_nonnegative,
    solve,
    tangent_project_dense,
    tap_solve,
)
from nlrm import linalg, solvers
from nlrm.instrument import record_ops
from nlrm.linalg import apply_sign_convention, matmul
from nlrm.rng import random_uniform
from nlrm.solvers import (
    _NMF_EPS,
    METHODS,
    _hals_clamped_step,
    _hals_update,
    _iterate,
    _nmf_solve,
)
from test_linalg import spy_numpy_qr
from test_projections import complement_cases, touches_full_size


def low_rank_nonnegative(m, n, r, seed):
    return gen_uniform(m, r, seed) @ gen_uniform(r, n, seed + 1)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(rank=0)
        with pytest.raises(DomainError):
            SolverConfig(rank=2, max_iter=-1)
        with pytest.raises(DomainError):
            SolverConfig(rank=2, rel_change_tol=0.0)
        for value in (np.inf, np.nan):
            with pytest.raises(DomainError):
                SolverConfig(rank=2, rel_change_tol=value)

    @pytest.mark.parametrize("field, value", [
        ("rank", 2.5), ("rank", 2.0), ("rank", True), ("rank", "2"),
        ("max_iter", 3.0), ("max_iter", False), ("seed", 1.5), ("seed", True),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        kwargs = {"rank": 2, field: value}
        with pytest.raises(DomainError, match=f"^{field} must be an integer, got "):
            SolverConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(rank=np.int64(2), max_iter=np.int32(4), seed=np.uint64(3))
        assert nmf_mu_solve(gen_uniform(6, 5, 0), cfg).trace.iterations[-1] <= 4
        assert SolverConfig(rank=2, seed=None).seed is None

    @pytest.mark.parametrize("value", [True, False, "1e-6", None, [1e-6], 1e-6j])
    def test_non_real_tolerance_rejected(self, value):
        with pytest.raises(DomainError, match="^rel_change_tol must be a finite number > 0, got "):
            SolverConfig(rank=2, rel_change_tol=value)

    def test_numpy_float_tolerance_accepted(self):
        for tol in (np.float32(1e-6), np.float64(1e-6)):
            cfg = SolverConfig(rank=2, rel_change_tol=tol)
            assert cfg.rel_change_tol == tol
            assert ap_solve(gen_uniform(6, 5, 0), cfg).trace.iterations

    def test_zero_max_iter_rejected_by_projection_solvers(self):
        cfg = SolverConfig(rank=2, max_iter=0)
        with pytest.raises(DomainError):
            ap_solve(gen_uniform(5, 5, 0), cfg)


class TestApSolve:
    def test_fixed_point_one_iteration(self):
        a = low_rank_nonnegative(12, 9, 3, 0)
        res = ap_solve(a, SolverConfig(rank=3))
        assert len(res.trace) == 1
        assert res.converged
        assert res.rel_error_x < 1e-10

    def test_long_run_oracle(self):
        a = gen_uniform(6, 5, 2)
        res = ap_solve(a, SolverConfig(rank=2, rel_change_tol=1e-6))
        ref = ap_solve(a, SolverConfig(rank=2, max_iter=10_000, rel_change_tol=1e-16))
        assert abs(res.rel_error_x - ref.rel_error_x) < 1e-6

    def test_negative_input_warns(self):
        a = gen_uniform(6, 6, 3) - 0.2
        with pytest.warns(RuntimeWarning):
            ap_solve(a, SolverConfig(rank=2, max_iter=20))

    @pytest.mark.parametrize("run", [
        tap_solve,
        nmf_hals_solve,
        lambda a, cfg: solve("tap", a, cfg),
    ], ids=["tap_solve", "nmf_hals_solve", "solve"])
    def test_negative_input_warning_names_the_caller(self, run):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(a, SolverConfig(rank=1, max_iter=5, seed=0))
        assert [str(w.message) for w in caught] == [
            "input matrix has negative entries; proceeding anyway"
        ]
        assert caught[0].category is RuntimeWarning
        assert caught[0].filename == __file__

    def test_nonfinite_input_rejected(self):
        a = gen_uniform(4, 4, 4)
        a[0, 0] = np.inf
        from nlrm import NumericError

        with pytest.raises(NumericError):
            ap_solve(a, SolverConfig(rank=1))

    def test_result_consistency(self):
        a = gen_uniform(20, 15, 5)
        res = ap_solve(a, SolverConfig(rank=4))
        assert (res.y >= 0).all()
        recomputed = frobenius_norm(a - res.x.reconstruct()) / frobenius_norm(a)
        assert abs(recomputed - res.rel_error_x) < 1e-12

    def test_trace_monotone_time_and_indices(self):
        a = gen_uniform(25, 20, 6)
        res = ap_solve(a, SolverConfig(rank=3, max_iter=30, rel_change_tol=1e-12))
        iters = res.trace.iterations
        assert iters == sorted(iters) and len(set(iters)) == len(iters)
        secs = [rec.seconds for rec in res.trace.records]
        assert all(b >= a_ for a_, b in zip(secs, secs[1:]))

    @pytest.mark.parametrize("method", METHODS)
    def test_max_iter_cap_not_converged(self, method):
        from nlrm import gen_graph_similarity

        # no method reaches its stopping rule in 3 steps here, so max_iter ends the run
        a = gen_graph_similarity(gen_uniform(120, 2, 30) * 5.0)
        res = solve(method, a, SolverConfig(rank=3, max_iter=3, rel_change_tol=1e-300, seed=0))
        assert not res.converged
        assert res.trace.iterations[-1] == 3

    def test_overflowing_input_norm_rejected(self):
        from nlrm import NumericError

        with np.errstate(over="ignore"), pytest.raises(NumericError, match="overflows"):
            ap_solve(np.full((4, 4), 1e200), SolverConfig(rank=1))

    def test_overflowing_input_raises_numeric_error_under_warnings_as_errors(self):
        from nlrm import NumericError

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflows"):
                tap_solve(np.full((4, 4), 1e200), SolverConfig(rank=1))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError, match="^input matrix must be 2-D, got ndim=1$"):
            tap_solve(np.ones(5), SolverConfig(rank=1))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            solve("bogus", gen_uniform(4, 4, 0), SolverConfig(rank=1))


class TestTapSolve:
    def test_fixed_point_one_iteration(self):
        a = low_rank_nonnegative(10, 14, 2, 7)
        res = tap_solve(a, SolverConfig(rank=2))
        assert len(res.trace) == 1
        assert res.converged
        assert res.rel_error_x < 1e-10

    def test_matches_dense_reference_step_for_step(self):
        a = gen_uniform(30, 25, 8)
        r = 4
        steps = 12
        got = []
        tap_solve(
            a,
            SolverConfig(rank=r, max_iter=steps, rel_change_tol=1e-16),
            on_iterate=lambda k, x, y: got.append(x.copy()),
        )
        x = project_fixed_rank(a, r)
        want = [x.reconstruct()]
        y = project_nonnegative(want[-1])
        for _ in range(steps - 1):
            dense = tangent_project_dense(TangentFrame(x.u, x.v), y)
            x = project_fixed_rank(dense, r)
            want.append(x.reconstruct())
            y = project_nonnegative(want[-1])
        assert len(got) == steps
        for g, w in zip(got, want):
            assert frobenius_norm(g - w) < 1e-9

    def test_equivalence_with_ap(self):
        for seed in range(4):
            a = gen_uniform(40, 30, 40 + seed)
            cfg = SolverConfig(rank=3, max_iter=5000, rel_change_tol=1e-10)
            diff = abs(tap_solve(a, cfg).rel_error_x - ap_solve(a, cfg).rel_error_x)
            assert diff < 1e-4

    def test_scale_equivariance(self):
        a = gen_uniform(18, 15, 9)
        alpha = 3.7
        cfg = SolverConfig(rank=3, max_iter=25, rel_change_tol=1e-14)
        base, scaled = [], []
        tap_solve(a, cfg, on_iterate=lambda k, x, y: base.append(x.copy()))
        tap_solve(alpha * a, cfg, on_iterate=lambda k, x, y: scaled.append(x.copy()))
        assert len(base) == len(scaled)
        for b, s in zip(base, scaled):
            assert frobenius_norm(s - alpha * b) / frobenius_norm(s) < 1e-10

    def test_symmetric_input_keeps_iterates_symmetric(self):
        a = low_rank_nonnegative(30, 30, 5, 10)
        a = a + a.T
        worst = []

        def hook(k, x, y):
            worst.append(max(np.abs(x - x.T).max(), np.abs(y - y.T).max()))

        for solve in (tap_solve, ap_solve):
            worst.clear()
            solve(a, SolverConfig(rank=4, max_iter=25, rel_change_tol=1e-14), on_iterate=hook)
            assert max(worst) < 1e-9

    def test_rank_too_large(self):
        with pytest.raises(ShapeError):
            tap_solve(gen_uniform(6, 5, 11), SolverConfig(rank=6))

    def test_large_rank_fallback_matches_ap_limit(self):
        # 2r > min(m, n): the dense tangent step keeps the method exact.
        a = gen_uniform(12, 9, 12)
        cfg = SolverConfig(rank=5, max_iter=4000, rel_change_tol=1e-11)
        diff = abs(tap_solve(a, cfg).rel_error_x - ap_solve(a, cfg).rel_error_x)
        assert diff < 1e-6


def asymmetric_twin(a):
    """``a`` with entry (0, 1) moved by one ulp, which keeps its runs off the
    symmetric route."""
    twin = a.copy()
    twin[0, 1] = np.nextafter(twin[0, 1], np.inf)
    return twin


def symmetric_route_cases():
    """Criterion 08's similarity matrices at r = 3, and a 300-point graph at
    r = 160, where TAP takes the dense fallback every step."""
    from test_acceptance import _point_clouds

    cases = {name: (gen_graph_similarity(pts), 3, 30) for name, pts in _point_clouds().items()}
    cases["graph-300-r160"] = (gen_graph_similarity(gen_uniform(300, 2, 41)), 160, 25)
    return cases


class TestSymmetricRoute:
    """An exactly symmetric input truncates through ``eigh``; its twin is the oracle."""

    @pytest.mark.parametrize("solve", [tap_solve, ap_solve])
    @pytest.mark.parametrize("name", sorted(symmetric_route_cases()))
    def test_matches_asymmetric_twin_per_iteration(self, name, solve):
        a, r, steps = symmetric_route_cases()[name]
        cfg = SolverConfig(rank=r, max_iter=steps, rel_change_tol=1e-300)
        got = solve(a, cfg).trace.rel_errors
        want = solve(asymmetric_twin(a), cfg).trace.rel_errors
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_full_size_decomposition_count(self, monkeypatch):
        a = gen_graph_similarity(gen_uniform(60, 2, 42) * 5.0)
        cfg = SolverConfig(rank=4, max_iter=10, rel_change_tol=1e-300)
        with record_ops() as log:
            tap_solve(a, cfg)
        assert [s for s in log.svd_shapes if s == a.shape] == [a.shape]

        def explode(*args, **kwargs):
            raise AssertionError("gesdd called")

        monkeypatch.setattr(np.linalg, "svd", explode)
        with record_ops() as log:
            res = ap_solve(a, cfg)
        assert log.svd_shapes == [a.shape] * len(res.trace) == [a.shape] * 10

    @pytest.mark.parametrize("solve", [tap_solve, ap_solve])
    def test_other_inputs_never_take_the_symmetric_route(self, monkeypatch, solve):
        def explode(*args, **kwargs):
            raise AssertionError("symmetric route taken")

        monkeypatch.setattr("nlrm.linalg._eigh_svd", explode)
        a = gen_graph_similarity(gen_uniform(30, 2, 43))
        inner = a.copy()
        inner[2, 3] += 1.0  # first row and column still match
        for inp, r in ((asymmetric_twin(a), 4), (asymmetric_twin(a), 20), (inner, 4),
                       (gen_uniform(30, 20, 44), 4)):
            solve(inp, SolverConfig(rank=r, max_iter=5))


def gram_route_cases():
    """Asymmetric inputs of criteria 01, 02 and 09, a wide and a tall input, and
    TAP's dense fallback (2r > min(m, n)): (matrix, rank, max_iter)."""
    return {
        "criterion-01-r40": (gen_uniform(200, 200, 0), 40, 1000),
        "criterion-02-small": (gen_uniform(40, 30, 100), 3, 3000),
        "criterion-09-clean": (gen_orthogonal_decomposable(0.0, 13), 10, 1000),
        "wide-30x200": (gen_uniform(30, 200, 45), 4, 30),
        "tall-200x30": (gen_uniform(200, 30, 46), 4, 30),
        "dense-fallback-12x9": (gen_uniform(12, 9, 12), 5, 30),
        "dense-fallback-9x14": (gen_uniform(9, 14, 51), 5, 30),
        "dense-fallback-20x20": (gen_uniform(20, 20, 52), 12, 30),
    }


class TestGramRoute:
    """An asymmetric input truncates through the Gram matrix unless it is ill-conditioned."""

    @staticmethod
    def full_size_gesdd_calls(monkeypatch, shape):
        calls = []
        real_svd = np.linalg.svd

        def counted(x, *args, **kwargs):
            if x.shape == shape:
                calls.append(shape)
            return real_svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @pytest.mark.parametrize("solve", [tap_solve, ap_solve])
    @pytest.mark.parametrize("name", sorted(gram_route_cases()))
    def test_well_conditioned_input_never_reaches_gesdd(self, monkeypatch, name, solve):
        a, r, max_iter = gram_route_cases()[name]
        gesdd = self.full_size_gesdd_calls(monkeypatch, a.shape)
        with record_ops() as log:
            res = solve(a, SolverConfig(rank=r, max_iter=max_iter))
        assert gesdd == []
        full = [shape for shape in log.svd_shapes if shape == a.shape]
        dense_steps = solve is ap_solve or 2 * r > min(a.shape)
        assert len(full) == (len(res.trace) if dense_steps else 1)
        assert not res.degenerate_rank

    @pytest.mark.parametrize("solve", [tap_solve, ap_solve])
    def test_rank_deficient_input_takes_gesdd(self, monkeypatch, solve):
        a = low_rank_nonnegative(30, 20, 4, 47)
        gesdd = self.full_size_gesdd_calls(monkeypatch, a.shape)
        with record_ops() as log:
            res = solve(a, SolverConfig(rank=6))
        assert len(gesdd) == len([shape for shape in log.svd_shapes if shape == a.shape]) >= 1
        assert res.degenerate_rank
        assert res.rel_error_x < 1e-10

    @pytest.mark.parametrize("solve", [tap_solve, ap_solve])
    @pytest.mark.parametrize("weight, ratio, gesdd_runs", [(2e-3, 3.3e-4, True),
                                                           (2e-2, 3.2e-3, False)])
    def test_guard_picks_the_route(self, monkeypatch, solve, weight, ratio, gesdd_runs):
        # a planted rank-4 product plus a small tail; its s_4 / s_1 is near ``ratio``,
        # on either side of GRAM_MIN_RATIO = 1e-3
        u = gen_uniform(25, 4, 48) * [1.0, 0.5, 0.2, weight]
        a = u @ gen_uniform(4, 18, 49) + 1e-6 * gen_uniform(25, 18, 50)
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s[3] / s[0], ratio, rtol=0.05)
        gesdd = self.full_size_gesdd_calls(monkeypatch, a.shape)
        with record_ops() as log:
            solve(a, SolverConfig(rank=4, max_iter=3))
        full = [shape for shape in log.svd_shapes if shape == a.shape]
        assert len(gesdd) == (len(full) if gesdd_runs else 0)


def dense_fallback_errors(a, r, steps, symmetric):
    """Per-iteration errors of TAP's dense fallback through the reference formula."""
    x = project_fixed_rank(a, r, symmetric=symmetric)
    errors = []
    for k in range(steps):
        if k:
            dense = tangent_project_dense(TangentFrame(x.u, x.v), project_nonnegative(x_dense))
            x = project_fixed_rank(dense, r, symmetric=symmetric)
        x_dense = x.reconstruct()
        errors.append(frobenius_norm(a - x_dense) / frobenius_norm(a))
    return errors


class TestComplementStep:
    """TAP's dense fallback projects through the complement basis its last
    truncation returned; the reference formula is the oracle."""

    @pytest.mark.parametrize("name", sorted(complement_cases()))
    def test_errors_match_reference_loop(self, name):
        a, r, sym, _ = complement_cases()[name]
        got = tap_solve(a, SolverConfig(rank=r, max_iter=20, rel_change_tol=1e-300))
        want = dense_fallback_errors(a, r, 20, sym)
        np.testing.assert_allclose(got.trace.rel_errors, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.trace.rel_errors, want, rtol=1e-10)  # gesdd's are ~1e-5
        assert min(rec.min_entry for rec in got.trace.records) < 0   # the clamp is active

    @pytest.mark.parametrize("name", sorted(complement_cases()))
    def test_one_step_touches_full_size_three_times(self, name):
        # two products of the tangent step and the reconstruction (four and
        # one through the reference formula)
        a, r, _, _ = complement_cases()[name]
        logs = []
        for steps in (1, 2):
            with record_ops() as log:
                tap_solve(a, SolverConfig(rank=r, max_iter=steps, rel_change_tol=1e-300))
            logs.append(log)
        step = logs[1].matmul_shapes[len(logs[0].matmul_shapes):]
        assert len(touches_full_size(step, *a.shape)) == 3
        assert logs[1].svd_shapes == [a.shape] * 2


def old_eigh_truncation(a, r):
    """The symmetric truncation as it was: all eigenpairs sorted, signed and
    sign-normalized, then the top ``r`` sliced and copied."""
    lam, u = np.linalg.eigh(a)
    order = np.argsort(-np.abs(lam), kind="stable")
    lam, u = lam[order], u[:, order]
    u, v = apply_sign_convention(u, u * np.where(lam < 0.0, -1.0, 1.0))
    return tuple(np.ascontiguousarray(t[..., :r]) for t in (u, np.abs(lam), v))


def test_symmetric_truncation_keeps_old_bits():
    from test_acceptance import _point_clouds

    inputs = [gen_graph_similarity(pts) for pts in _point_clouds().values()]
    inputs.append(gen_graph_similarity(gen_uniform(1000, 2, 53) * 5.0))
    for a in inputs:
        for r in (3, 20):
            got = project_fixed_rank(a, r, symmetric=True)
            for g, w in zip(got, old_eigh_truncation(a, r)):
                assert g.flags.c_contiguous and g.shape == w.shape
                assert g.tobytes() == w.tobytes()


class TestCholeskyQrSteps:
    """TAP's tangent QRs run CholeskyQR2 where their inputs allow it; the same
    run with Householder QRs alone is the oracle."""

    @pytest.mark.parametrize("name", ["graph-300", "uniform-200"])
    def test_errors_match_householder_only_run(self, monkeypatch, name):
        a = {"graph-300": lambda: gen_graph_similarity(gen_uniform(300, 2, 54)),
             "uniform-200": lambda: gen_uniform(200, 200, 0)}[name]()
        cfg = SolverConfig(rank=10, max_iter=40, rel_change_tol=1e-300)
        householder = spy_numpy_qr(monkeypatch)
        got = tap_solve(a, cfg).trace.rel_errors
        if name == "graph-300":
            assert householder == []
        else:   # QR inputs with a condition number near 1e12: a Cholesky fails every step
            assert len(householder) >= len(got) - 1
        monkeypatch.setattr(linalg, "_cholesky_qr2", lambda q: None)
        want = tap_solve(a, cfg).trace.rel_errors
        assert len(got) == len(want) == 40
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSymmetricGramRoute:
    """An exactly symmetric input takes the top-r Gram route where
    ``GRAM_PARTIAL_RATIO * r <= n``; its own ``eigh`` runs above that rank and
    in TAP's dense fallback."""

    @staticmethod
    def spy_eigh_svd(monkeypatch):
        calls = []
        real = linalg._eigh_svd

        def counted(a, rank=None, complement=False):
            calls.append((a.shape, complement))
            return real(a, rank, complement)

        monkeypatch.setattr(linalg, "_eigh_svd", counted)
        return calls

    @staticmethod
    def graph(n, seed):
        a = gen_graph_similarity(gen_uniform(n, 2, seed))
        assert np.array_equal(a, a.T)
        return a

    @pytest.mark.parametrize("solve", [tap_solve, ap_solve])
    def test_low_rank_never_calls_eigh_of_the_input(self, monkeypatch, solve):
        a = self.graph(400, 55)
        assert linalg.GRAM_PARTIAL_RATIO * 5 <= len(a)
        calls = self.spy_eigh_svd(monkeypatch)
        res = solve(a, SolverConfig(rank=5, max_iter=6, rel_change_tol=1e-300))
        assert len(res.trace) == 6 and calls == []

    @pytest.mark.parametrize("solve", [tap_solve, ap_solve])
    def test_high_rank_calls_it_on_every_full_size_truncation(self, monkeypatch, solve):
        a = self.graph(400, 55)
        assert linalg.GRAM_PARTIAL_RATIO * 40 > len(a) >= 2 * 40
        calls = self.spy_eigh_svd(monkeypatch)
        res = solve(a, SolverConfig(rank=40, max_iter=6, rel_change_tol=1e-300))
        assert len(res.trace) == 6
        assert calls == [(a.shape, False)] * (1 if solve is tap_solve else 6)

    def test_dense_fallback_calls_it_with_a_complement(self, monkeypatch):
        a = self.graph(60, 56)
        calls = self.spy_eigh_svd(monkeypatch)
        res = tap_solve(a, SolverConfig(rank=40, max_iter=6, rel_change_tol=1e-300))
        assert len(res.trace) == 6
        assert calls == [(a.shape, True)] * 6


class TestNmf:
    def test_mu_recovers_planted_factorization(self):
        a = low_rank_nonnegative(30, 20, 3, 13)
        _, _, trace = nmf_mu_solve(
            a, SolverConfig(rank=3, max_iter=5000, rel_change_tol=1e-12, seed=0)
        )
        assert trace.records[-1].rel_error < 1e-3

    def test_hals_recovers_planted_factorization(self):
        a = low_rank_nonnegative(30, 20, 3, 14)
        _, _, trace = nmf_hals_solve(
            a, SolverConfig(rank=3, max_iter=5000, rel_change_tol=1e-12, seed=0)
        )
        assert trace.records[-1].rel_error < 1e-3

    @pytest.mark.parametrize("solve", [nmf_mu_solve, nmf_hals_solve])
    def test_zero_iterations_returns_initialization(self, solve):
        a = gen_uniform(9, 7, 15)
        b, c, trace = solve(a, SolverConfig(rank=2, max_iter=0, seed=5))
        draws = random_uniform(5, 9 * 2 + 2 * 7)
        assert np.array_equal(b.ravel(), draws[: 9 * 2])
        assert np.array_equal(c.ravel(), draws[9 * 2 :])
        assert len(trace) == 1 and trace.records[0].iteration == 0

    @pytest.mark.parametrize("solve", [nmf_mu_solve, nmf_hals_solve])
    def test_factors_nonnegative_and_objective_monotone(self, solve):
        a = gen_uniform(25, 18, 16)
        b, c, trace = solve(
            a, SolverConfig(rank=4, max_iter=300, rel_change_tol=1e-12, seed=1)
        )
        assert (b >= 0).all() and (c >= 0).all()
        errs = trace.rel_errors
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_mu_error_at_least_tap(self):
        a = gen_uniform(200, 200, 17)
        tap_err = tap_solve(a, SolverConfig(rank=10)).rel_error_x
        _, _, trace = nmf_mu_solve(
            a, SolverConfig(rank=10, max_iter=300, rel_change_tol=1e-9, seed=2)
        )
        assert trace.records[-1].rel_error >= tap_err

    def test_hals_error_band_r20(self):
        a = gen_uniform(200, 200, 18)
        tap_err = tap_solve(a, SolverConfig(rank=20)).rel_error_x
        _, _, trace = nmf_hals_solve(
            a, SolverConfig(rank=20, max_iter=300, rel_change_tol=1e-9, seed=3)
        )
        err = trace.records[-1].rel_error
        assert 0.42 <= err <= 0.43
        assert err > tap_err

    def test_seed_required(self):
        with pytest.raises(DomainError):
            nmf_mu_solve(gen_uniform(5, 5, 19), SolverConfig(rank=2, seed=None))


# Reference oracle for the in-place HALS sweep: the update as it was written
# with a fresh product and temporaries per column and row, kept verbatim.
def oracle_hals_update(a_mat, b, c):
    w = matmul(a_mat, c.T)          # m x r
    s = matmul(c, c.T)              # r x r
    for j in range(b.shape[1]):
        b[:, j] = np.maximum(
            0.0, b[:, j] + (w[:, j] - matmul(b, s[:, j : j + 1])[:, 0]) / max(s[j, j], _NMF_EPS)
        )
    w2 = matmul(b.T, a_mat)         # r x n
    s2 = matmul(b.T, b)             # r x r
    for j in range(c.shape[0]):
        c[j, :] = np.maximum(
            0.0, c[j, :] + (w2[j, :] - matmul(s2[j : j + 1, :], c)[0, :]) / max(s2[j, j], _NMF_EPS)
        )


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# name -> (m, n, rank, seed); "square" is also the case where the clamp acts
HALS_CASES = {
    "tall": (40, 12, 5, 1),
    "wide": (12, 40, 5, 2),
    "square": (30, 30, 6, 3),
    "rank_one": (20, 15, 1, 4),
    "full_rank_tall": (25, 10, 10, 5),
    "full_rank_wide": (10, 25, 10, 6),
}


class TestHalsAgainstOracle:
    @pytest.mark.parametrize("name", sorted(HALS_CASES))
    def test_run_bits_and_op_log(self, name):
        m, n, r, seed = HALS_CASES[name]
        a = gen_uniform(m, n, seed)
        cfg = SolverConfig(rank=r, max_iter=60, rel_change_tol=1e-12, seed=seed + 100)
        with record_ops() as log:
            b, c, trace = nmf_hals_solve(a, cfg)
        with record_ops() as oracle_log:
            want_b, want_c, want_trace = _nmf_solve(a, cfg, oracle_hals_update)
        assert_same_bits(b, want_b)
        assert_same_bits(c, want_c)
        assert_same_bits(trace.rel_errors, want_trace.rel_errors)
        assert_same_bits(
            [rec.min_entry for rec in trace.records],
            [rec.min_entry for rec in want_trace.records],
        )
        assert log.matmul_shapes == oracle_log.matmul_shapes

    def test_clamp_acts_in_square_case(self):
        m, n, r, seed = HALS_CASES["square"]
        b, c, _ = nmf_hals_solve(
            gen_uniform(m, n, seed),
            SolverConfig(rank=r, max_iter=60, rel_change_tol=1e-12, seed=seed + 100),
        )
        assert (b == 0.0).any() and (c == 0.0).any()

    def test_zero_row_of_c_takes_the_eps_guard(self):
        a = gen_uniform(15, 11, 7)
        draws = random_uniform(8, 15 * 4 + 4 * 11)
        b = draws[: 15 * 4].reshape(15, 4).copy()
        c = draws[15 * 4 :].reshape(4, 11).copy()
        c[2] = 0.0  # s_22 = 0 in the first sweep over b
        want_b, want_c = b.copy(), c.copy()
        for _ in range(5):
            with record_ops() as log:
                _hals_update(a, b, c)
            with record_ops() as oracle_log:
                oracle_hals_update(a, want_b, want_c)
            assert_same_bits(b, want_b)
            assert_same_bits(c, want_c)
            assert log.matmul_shapes == oracle_log.matmul_shapes
        assert np.isfinite(b).all() and np.isfinite(c).all()

    @pytest.mark.parametrize("s_jj", [0.0, 2.0])
    def test_clamped_step_keeps_signed_zeros(self, s_jj):
        x = np.array([-0.0, -0.0, 0.0, 1.0, -1.0, 5e-324])
        w = np.array([-0.0, 0.0, -0.0, 3.0, 0.5, -0.0])
        p = np.array([0.0, 0.0, 0.0, 4.0, 0.25, 0.0])
        want = np.maximum(0.0, x + (w - p) / max(s_jj, _NMF_EPS))
        _hals_clamped_step(x, w, s_jj, p)
        assert_same_bits(x, want)
        assert np.signbit(x[0])


def traced_iterates(monkeypatch, method, a, cfg):
    """``method``'s trace on ``a`` and the dense iterate of each of its records:
    TAP's and AP's through ``on_iterate``, MU's and HALS's as ``b @ c`` before
    the first update and after each one."""
    dense = []
    if method in ("tap", "ap"):
        run = tap_solve if method == "tap" else ap_solve
        trace = run(a, cfg, on_iterate=lambda k, x, y: dense.append(x.copy())).trace
        return trace, dense

    def recording(update):
        def run(a_mat, b, c):
            if not dense:
                dense.append(matmul(b, c))
            update(a_mat, b, c)
            dense.append(matmul(b, c))
        return run

    nmf_solve = solvers._nmf_solve
    monkeypatch.setattr(solvers, "_nmf_solve",
                        lambda a, cfg, update: nmf_solve(a, cfg, recording(update)))
    return solve(method, a, cfg).trace, dense


def direct_errors(a, dense):
    return [frobenius_norm(a - x) / frobenius_norm(a) for x in dense]


ERROR_CASES = {  # name -> (input, rank), every error of every method >= 0.1
    "graph-300-r160": (lambda: gen_graph_similarity(gen_uniform(300, 2, 3)), 160),  # TAP fallback
    "graph-400-r20": (lambda: gen_graph_similarity(gen_uniform(400, 2, 4)), 20),
    "uniform-200-r10": (lambda: gen_uniform(200, 200, 5), 10),
    "uniform-200-r40": (lambda: gen_uniform(200, 200, 6), 40),
}


class TestErrorEvaluation:
    """Trace errors come from ``||A||^2 - 2<A, X> + ||X||^2`` while they are
    at least 0.1, and from ``||A - X||`` below that.  Exact fits keep stopping
    on FIXED_POINT_TOL after one iteration through the direct formula:
    ``TestApSolve::test_fixed_point_one_iteration``,
    ``TestTapSolve::test_fixed_point_one_iteration`` and, through the CLI,
    ``TestGen::test_orthogonal_decomposable_exact_through_approx``."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", sorted(ERROR_CASES))
    def test_expanded_errors_match_direct_formula(self, monkeypatch, name, method):
        make, r = ERROR_CASES[name]
        a = make()
        cfg = SolverConfig(rank=r, max_iter=12, rel_change_tol=1e-300, seed=1)
        trace, dense = traced_iterates(monkeypatch, method, a, cfg)
        assert len(dense) == len(trace) == 13 - (method in ("tap", "ap"))
        assert min(trace.rel_errors) >= 0.1
        np.testing.assert_allclose(trace.rel_errors, direct_errors(a, dense), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("method", ["tap", "ap"])
    def test_low_noise_errors_are_direct_bits(self, monkeypatch, method):
        a = low_rank_nonnegative(40, 30, 4, 21) + 1e-5 * gen_uniform(40, 30, 23)
        cfg = SolverConfig(rank=4, max_iter=10, rel_change_tol=1e-300)
        trace, dense = traced_iterates(monkeypatch, method, a, cfg)
        assert max(trace.rel_errors) < 1e-5
        assert_same_bits(trace.rel_errors, direct_errors(a, dense))

    @pytest.mark.parametrize("method", ["mu", "hals"])
    def test_nmf_errors_crossing_the_cut(self, monkeypatch, method):
        a = low_rank_nonnegative(40, 30, 4, 21)
        cfg = SolverConfig(rank=4, max_iter=200, rel_change_tol=1e-300, seed=0)
        trace, dense = traced_iterates(monkeypatch, method, a, cfg)
        got, want = np.array(trace.rel_errors), np.array(direct_errors(a, dense))
        small = got < 0.1
        assert 0 < small.sum() < len(got)
        np.testing.assert_allclose(got[~small], want[~small], rtol=1e-13, atol=0)
        assert_same_bits(got[small], want[small])

    def test_overflowing_expansion_takes_the_direct_formula(self):
        # ||A||^2 = 1.2e308 is finite, but 2<A, X> overflows for X = s A, s >= 0.75
        a = gen_uniform(8, 6, 3)
        a *= np.sqrt(1.2e308 / np.vdot(a, a))
        scales = (0.8, 0.78, 0.76)
        cfg = SolverConfig(rank=1, max_iter=3, rel_change_tol=1e-300)
        _, _, trace = _iterate(a, cfg, 1, lambda a, k: a * scales[k - 1])
        want = [frobenius_norm(a - a * s) / frobenius_norm(a) for s in scales]
        assert min(want) >= 0.1
        assert_same_bits(trace.rel_errors, want)

    def test_no_difference_inside_the_loop(self, monkeypatch):
        a = gen_graph_similarity(gen_uniform(400, 2, 1))
        events = []
        norm = solvers.frobenius_norm
        monkeypatch.setattr(solvers, "frobenius_norm",
                            lambda arr: events.append(("norm", arr.shape)) or norm(arr))
        res = tap_solve(a, SolverConfig(rank=8, max_iter=10, rel_change_tol=1e-300),
                        on_iterate=lambda k, x, y: events.append(("iterate", k)))
        assert 0.8 < res.rel_error_x < 0.9
        # ||A|| before the loop and rel_error_y's ||A - Y|| after it, nothing between
        assert events == ([("norm", a.shape)] + [("iterate", k) for k in range(1, 11)]
                          + [("norm", a.shape)])

    def test_seconds_cover_the_min(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(solvers, "perf_counter", lambda: clock[0])

        class SlowMin(np.ndarray):
            def min(self, *args, **kwargs):
                clock[0] += 1.0
                return super().min(*args, **kwargs)

        def step(a, k):
            clock[0] += 0.25
            return (a * 0.5).view(SlowMin)

        # the error repeats, so the relative-change rule stops the run at k = 2
        cfg = SolverConfig(rank=1, max_iter=3, rel_change_tol=1e-300)
        _, _, trace = _iterate(gen_uniform(8, 6, 3), cfg, 1, step)
        assert [rec.seconds for rec in trace.records] == [1.25, 2.5]


def geometric_trace(ratio=0.5, length=80):
    trace = IterationTrace()
    for k in range(length):
        trace.append(TraceRecord(k, ratio**k, 0.0, 0.0))
    return trace


class TestContractionRateEstimate:
    def test_exact_geometric(self):
        c_hat, r_squared = contraction_rate_estimate(geometric_trace(), 0.5)
        assert abs(c_hat - 0.5) < 1e-6
        assert r_squared > 0.9999

    def test_constant_trace_insufficient(self):
        trace = IterationTrace()
        for k in range(20):
            trace.append(TraceRecord(k, 0.25, 0.0, 0.0))
        with pytest.raises(InsufficientDataError):
            contraction_rate_estimate(trace, 0.5)

    def test_solver_trace_contracts(self):
        a = gen_uniform(200, 200, 22)
        res = tap_solve(a, SolverConfig(rank=10, max_iter=300, rel_change_tol=1e-13))
        c_hat, r_squared = contraction_rate_estimate(res.trace, 0.5)
        assert c_hat < 1.0
        assert r_squared > 0.9

    def test_short_trace_rejected(self):
        with pytest.raises(InsufficientDataError):
            contraction_rate_estimate(geometric_trace(length=9), 0.5)

    def test_bad_tail_fraction(self):
        with pytest.raises(DomainError):
            contraction_rate_estimate(geometric_trace(), 0.0)
