"""Kernel-level tests: products, QR, SVD, norms, and their conventions."""

import warnings

import numpy as np
import pytest

from nlrm import (
    NumericError,
    ShapeError,
    frobenius_norm,
    gen_graph_similarity,
    gen_uniform,
    householder_qr,
    matmul,
    project_fixed_rank,
    record_ops,
    thin_svd,
)
from nlrm import linalg


def naive_matmul(a, b):
    """Triple-loop reference product, independent of the library path."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def jacobi_eigenvalues(sym, max_rotations=5000, tol=1e-14):
    """Classical Jacobi eigenvalue iteration for a small symmetric matrix."""
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    scale = max(1.0, np.abs(a).max())
    for _ in range(max_rotations):
        off = np.abs(a - np.diag(np.diag(a)))
        p, q = np.unravel_index(np.argmax(off), off.shape)
        if off[p, q] <= tol * scale:
            break
        tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
        t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
        c = 1.0 / np.hypot(1.0, t)
        s = t * c
        j = np.eye(n)
        j[p, p] = c
        j[q, q] = c
        j[p, q] = s
        j[q, p] = -s
        a = j.T @ a @ j
    return np.sort(np.diag(a))[::-1]


class TestMatmul:
    def test_identity(self):
        b = gen_uniform(3, 4, 0)
        assert np.array_equal(matmul(np.eye(3), b), b)

    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(matmul(a, b), [[2.0], [4.0]])

    def test_against_triple_loop(self):
        a = gen_uniform(7, 5, 1) - 0.5
        b = gen_uniform(5, 3, 2) - 0.5
        assert np.abs(matmul(a, b) - naive_matmul(a, b)).max() < 1e-13

    def test_associativity(self):
        for seed in range(5):
            a = gen_uniform(6, 4, seed)
            b = gen_uniform(4, 7, seed + 50)
            c = gen_uniform(7, 3, seed + 100)
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert frobenius_norm(left - right) / frobenius_norm(left) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_one_dimensional_operand_rejected(self):
        with pytest.raises(ShapeError, match="^matmul operands must be 2-D$"):
            matmul(np.ones((2, 3)), np.ones(3))


class TestHouseholderQr:
    def test_orthonormal_input(self):
        q0, _ = householder_qr(gen_uniform(10, 4, 3) - 0.5)
        q, r = householder_qr(q0)
        np.testing.assert_allclose(q, q0, atol=1e-12)
        np.testing.assert_allclose(r, np.eye(4), atol=1e-12)

    def test_zero_matrix(self):
        q, r = householder_qr(np.zeros((6, 3)))
        np.testing.assert_array_equal(r, np.zeros((3, 3)))
        np.testing.assert_array_equal(q, np.eye(6, 3))

    def test_reconstruction(self):
        a = gen_uniform(20, 4, 4)
        q, r = householder_qr(a)
        assert frobenius_norm(q @ r - a) / frobenius_norm(a) < 1e-12

    def test_q_orthonormal_and_r_triangular(self):
        a = gen_uniform(15, 6, 5) - 0.5
        q, r = householder_qr(a)
        assert np.abs(q.T @ q - np.eye(6)).max() < 1e-12
        assert np.array_equal(np.tril(r, -1), np.zeros((6, 6)))
        assert (np.diag(r) >= 0).all()

    def test_deterministic(self):
        a = gen_uniform(12, 5, 6)
        q1, r1 = householder_qr(a)
        q2, r2 = householder_qr(a.copy())
        assert np.array_equal(q1, q2) and np.array_equal(r1, r2)

    def test_rank_deficient_accepted(self):
        a = gen_uniform(10, 2, 7)
        wide = np.hstack([a, a])  # rank 2, four columns
        q, r = householder_qr(wide)
        assert frobenius_norm(q @ r - wide) / frobenius_norm(wide) < 1e-12

    def test_wide_input_rejected(self):
        with pytest.raises(ShapeError):
            householder_qr(np.ones((3, 5)))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError, match="^householder_qr input must be 2-D$"):
            householder_qr(np.ones(3))


class TestThinSvd:
    def test_diagonal(self):
        t = thin_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(t.s, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(t.u, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(t.v, np.eye(3), atol=1e-14)

    def test_rank_one(self):
        x = gen_uniform(8, 1, 8)[:, 0]
        y = gen_uniform(6, 1, 9)[:, 0]
        t = thin_svd(np.outer(x, y))
        np.testing.assert_allclose(
            t.s[0], np.linalg.norm(x) * np.linalg.norm(y), rtol=1e-12
        )
        assert np.abs(t.s[1:]).max() < 1e-12 * t.s[0]

    def test_against_jacobi_oracle(self):
        a = gen_uniform(12, 9, 10) - 0.25
        oracle = np.sqrt(np.clip(jacobi_eigenvalues(a.T @ a), 0.0, None))
        np.testing.assert_allclose(thin_svd(a).s, oracle, rtol=0, atol=1e-9)

    def test_reconstruction_bound(self):
        for seed in range(5):
            a = gen_uniform(11, 14, seed + 20) - 0.5
            t = thin_svd(a)
            err = frobenius_norm(a - t.reconstruct())
            assert err / max(1.0, frobenius_norm(a)) < 1e-10

    def test_sign_convention(self):
        t = thin_svd(gen_uniform(9, 7, 11) - 0.5)
        lead = np.argmax(np.abs(t.u), axis=0)
        assert (t.u[lead, np.arange(t.u.shape[1])] > 0).all()

    def test_symmetric_psd_u_equals_v(self):
        b = gen_uniform(10, 10, 12) - 0.5  # full rank, so no arbitrary null-space basis
        t = thin_svd(b @ b.T)
        assert np.abs(t.u - t.v).max() < 1e-9

    def test_deterministic(self):
        a = gen_uniform(10, 10, 13)
        t1 = thin_svd(a)
        t2 = thin_svd(a.copy())
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.s, t2.s)
        assert np.array_equal(t1.v, t2.v)

    def test_nonfinite_rejected(self):
        a = np.ones((3, 3))
        a[1, 1] = np.nan
        with pytest.raises(NumericError):
            thin_svd(a)

    def test_no_rows_gives_no_triplets(self):
        u, s, v = thin_svd(np.zeros((0, 3)))
        assert (u.shape, s.shape, v.shape) == ((0, 0), (0,), (3, 0))

    def test_backend_failure_wrapped(self, monkeypatch):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", explode)
        with pytest.raises(NumericError):
            thin_svd(np.ones((3, 3)))


def symmetric_cases():
    """Symmetric inputs for the eigh route, by name."""
    cases = {}
    for seed, n in ((14, 7), (15, 20), (16, 45)):
        b = gen_uniform(n, n, seed) - 0.5
        cases[f"random-{n}"] = b + b.T
    cases["graph-zero-diagonal"] = gen_graph_similarity(gen_uniform(40, 2, 17) * 3.0)
    c = gen_uniform(12, 3, 18)
    cases["rank-3-indefinite"] = (c * [1.0, -2.0, 3.0]) @ c.T
    cases["one-by-one"] = np.array([[-2.5]])
    cases["zeros"] = np.zeros((5, 5))
    return cases


class TestThinSvdSymmetric:
    @pytest.mark.parametrize("name", sorted(symmetric_cases()))
    def test_matches_gesdd(self, name):
        a = symmetric_cases()[name]
        t = thin_svd(a, symmetric=True)
        s = thin_svd(a).s
        np.testing.assert_allclose(t.s, s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(t.reconstruct(), a, rtol=0, atol=1e-12)
        # Both routes are backward stable, so their rank-r truncations agree
        # to rounding times the truncation's condition number s_1 / gap:
        # 1e-12, or that first-order bound where the gap is narrower.
        eps = np.finfo(np.float64).eps
        for r in range(1, len(s)):
            gap = s[r - 1] - s[r]
            if gap > 0:
                got = project_fixed_rank(a, r, symmetric=True).reconstruct()
                want = project_fixed_rank(a, r).reconstruct()
                bound = max(1e-12, eps * s[0] ** 2 / gap)
                np.testing.assert_allclose(got, want, rtol=0, atol=bound)

    def test_indefinite_input_has_negative_eigenvalues(self):
        # the graph case's zero diagonal makes its trace, the sum of eigenvalues, zero
        u, s, v = thin_svd(symmetric_cases()["graph-zero-diagonal"], symmetric=True)
        flipped = (u * v).sum(axis=0) < 0
        assert flipped.any() and not flipped.all()
        np.testing.assert_array_equal(np.abs(u), np.abs(v))

    def test_order_by_magnitude_ties_keep_ascending_eigenvalues(self):
        u, s, v = thin_svd(np.diag([-1.0, 1.0, 2.0]), symmetric=True)
        np.testing.assert_array_equal(s, [2.0, 1.0, 1.0])
        np.testing.assert_array_equal(np.abs(u), np.eye(3)[:, [2, 0, 1]])
        np.testing.assert_array_equal(v, u * [1.0, -1.0, 1.0])

    def test_sign_convention_and_logging(self):
        a = symmetric_cases()["random-20"]
        with record_ops() as log:
            u, _, _ = thin_svd(a, symmetric=True)
        assert log.svd_shapes == [(20, 20)]
        lead = np.argmax(np.abs(u), axis=0)
        assert (u[lead, np.arange(20)] > 0).all()

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="^symmetric thin_svd needs a square input, got 3x4$"):
            thin_svd(np.ones((3, 4)), symmetric=True)

    def test_backend_failure_wrapped(self, monkeypatch):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", explode)
        with pytest.raises(NumericError, match=r"\(lapack syevd, shape 3x3\)$"):
            thin_svd(np.ones((3, 3)), symmetric=True)


def planted(m, n, seed):
    """A uniform rank-10 product plus 0.05 times uniform noise."""
    return gen_uniform(m, 10, seed) @ gen_uniform(10, n, seed + 1) + 0.05 * gen_uniform(
        m, n, seed + 2
    )


def gram_cases():
    """Asymmetric, well-conditioned inputs for the Gram route: (matrix, rank)."""
    return {
        "wide-40x3000": (planted(40, 3000, 20), 10),
        "tall-3000x40": (planted(3000, 40, 23), 10),
        "square-uniform-150": (gen_uniform(150, 150, 26), 15),
        "full-rank-wide-8x30": (gen_uniform(8, 30, 27) - 0.5, 8),
    }


def planted_spectrum(m, n, s, seed):
    """``Q1 diag(s) Q2'`` with orthonormal Q1 (m x k), Q2 (n x k) from QR of uniforms."""
    k = len(s)
    q1 = householder_qr(gen_uniform(m, k, seed) - 0.5).q
    q2 = householder_qr(gen_uniform(n, k, seed + 1) - 0.5).q
    return (q1 * s) @ q2.T


def gesdd_cases():
    """Asymmetric inputs whose rank-r truncation the guard sends to gesdd."""
    return {
        "rank-4-product-at-6": (gen_uniform(20, 4, 28) @ gen_uniform(4, 15, 29), 6),
        "ratio-below-guard": (planted_spectrum(12, 9, [1.0, 0.5, 0.2, 5e-4, 1e-5], 33), 4),
        "gram-overflows": (gen_uniform(12, 9, 30) * 1e160, 3),
        "gram-underflows": (gen_uniform(9, 12, 31) * 1e-160, 3),
        "zeros": (np.zeros((4, 6)), 2),
    }


def explode_on_svd(monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("gesdd called")

    monkeypatch.setattr(np.linalg, "svd", explode)


class TestThinSvdGram:
    @pytest.mark.parametrize("name", sorted(gram_cases()))
    def test_matches_gesdd_truncation(self, name, monkeypatch):
        a, r = gram_cases()[name]
        full = thin_svd(a)
        want = (full.u[:, :r] * full.s[:r]) @ full.v[:, :r].T
        explode_on_svd(monkeypatch)
        with record_ops() as log:
            t = thin_svd(a, rank=r)
        assert log.svd_shapes == [a.shape]
        assert (t.u.shape, t.s.shape, t.v.shape) == ((a.shape[0], r), (r,), (a.shape[1], r))
        assert all(x.flags.c_contiguous for x in t)
        np.testing.assert_allclose(t.s, full.s[:r], rtol=1e-12, atol=0)
        assert frobenius_norm(t.reconstruct() - want) / frobenius_norm(want) < 1e-12
        for side in (t.u, t.v):
            assert np.abs(side.T @ side - np.eye(r)).max() < 1e-12
        lead = np.argmax(np.abs(t.u), axis=0)
        assert (t.u[lead, np.arange(r)] > 0).all()

    def test_ratio_just_above_guard_takes_gram_route(self, monkeypatch):
        a = planted_spectrum(12, 9, [1.0, 0.5, 0.2, 2e-3, 1e-5], 33)
        want = planted_spectrum(12, 9, [1.0, 0.5, 0.2, 2e-3, 0.0], 33)
        explode_on_svd(monkeypatch)
        t = thin_svd(a, rank=4)
        np.testing.assert_allclose(t.s, [1.0, 0.5, 0.2, 2e-3], rtol=1e-11)
        np.testing.assert_allclose(t.reconstruct(), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(gesdd_cases()))
    def test_guard_falls_back_to_gesdd(self, name):
        # gesdd's own truncation, bit for bit, is what the fallback returns
        a, r = gesdd_cases()[name]
        full = thin_svd(a)
        with record_ops() as log:
            t = thin_svd(a, rank=r)
        assert log.svd_shapes == [a.shape]
        for got, want in zip(t, full):
            np.testing.assert_array_equal(got, want[..., :r])

    def test_rank_out_of_range(self):
        for r in (0, 4):
            with pytest.raises(ShapeError, match=f"^rank must satisfy 1 <= rank <= min.*got {r}$"):
                thin_svd(np.ones((3, 5)), rank=r)

    def test_backend_failure_wrapped(self, monkeypatch):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", explode)
        with pytest.raises(NumericError, match=r"\(lapack syevd, shape 4x7\)$"):
            thin_svd(gen_uniform(4, 7, 32), rank=2)


def top_route_cases():
    """Asymmetric inputs with ``GRAM_PARTIAL_RATIO * rank <= min(m, n)``: (matrix, rank)."""
    ties = [1.0] * 30 + list(np.geomspace(0.9, 0.05, 30))      # 30 equal top values
    return {
        "wide-200x20000": (planted(200, 20000, 70), 10),
        "tall-20000x200": (planted(20000, 200, 73), 10),
        "square-uniform-800": (gen_uniform(800, 800, 76), 40),
        "30-equal-top-820x800": (planted_spectrum(820, 800, ties, 77), 40),
    }


def old_gram_truncation(a, r):
    """The Gram route as it ran with one full ``eigh``, step for step."""
    wide = a.shape[0] <= a.shape[1]
    g = a @ a.T if wide else a.T @ a
    lam, q = np.linalg.eigh(g)
    lam, w = lam[: -r - 1 : -1], q[:, : -r - 1 : -1]
    s = np.sqrt(lam)
    other = (a.T @ w if wide else a @ w) / s
    u, v = linalg.apply_sign_convention(*((w, other) if wide else (other, w)))
    return [np.ascontiguousarray(x) for x in (u, s, v)]


def spy_syevr(monkeypatch):
    """Ranks that the top-r eigensolve is called with from now on."""
    real, ranks = linalg._lapacke_dsyevr(), []

    def spied(*args):
        ranks.append(args[10] - args[9] + 1)      # IU - IL + 1
        return real(*args)

    monkeypatch.setattr(linalg, "_lapacke_dsyevr", lambda: spied)
    return ranks


@pytest.mark.skipif(linalg._lapacke_dsyevr() is None, reason="numpy's LAPACK has no dsyevr")
class TestThinSvdTopRank:
    @pytest.mark.parametrize("name", sorted(top_route_cases()))
    def test_matches_gesdd_truncation(self, name, monkeypatch):
        a, r = top_route_cases()[name]
        full = thin_svd(a)
        want = (full.u[:, :r] * full.s[:r]) @ full.v[:, :r].T
        explode_on_svd(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigh called"))
        with record_ops() as log:
            t = thin_svd(a, rank=r)
        assert log.svd_shapes == [a.shape]
        assert (t.u.shape, t.s.shape, t.v.shape) == ((a.shape[0], r), (r,), (a.shape[1], r))
        assert all(x.flags.c_contiguous for x in t)
        np.testing.assert_allclose(t.s, full.s[:r], rtol=1e-12, atol=0)
        assert frobenius_norm(t.reconstruct() - want) / frobenius_norm(want) < 1e-12
        for side in (t.u, t.v):
            assert np.abs(side.T @ side - np.eye(r)).max() < 1e-12
        lead = np.argmax(np.abs(t.u), axis=0)
        assert (t.u[lead, np.arange(r)] > 0).all()

    def test_cutoff(self, monkeypatch):
        a = gen_uniform(300, 200, 78)
        ranks = spy_syevr(monkeypatch)
        thin_svd(a, rank=10)            # 20 * 10 == 200: top r
        thin_svd(a, rank=11)            # one above the cutoff: full eigh
        thin_svd(a, rank=5, complement=True)
        assert linalg.GRAM_PARTIAL_RATIO == 20 and ranks == [10]

    @pytest.mark.parametrize("name", sorted(top_route_cases()))
    def test_without_the_binding_keeps_the_full_eigh_bits(self, name, monkeypatch):
        a, r = top_route_cases()[name]
        monkeypatch.setattr(linalg, "_lapacke_dsyevr", lambda: None)
        for got, want in zip(thin_svd(a, rank=r), old_gram_truncation(a, r)):
            assert got.tobytes() == want.tobytes()

    def test_lapack_failure_wrapped(self, monkeypatch):
        real = linalg._lapacke_dsyevr()     # runs, then reports info = 2
        monkeypatch.setattr(linalg, "_lapacke_dsyevr", lambda: lambda *args: real(*args) or 2)
        with pytest.raises(NumericError, match=r"\(lapack syevr, shape 200x300\)$"):
            thin_svd(gen_uniform(200, 300, 79), rank=10)

    def test_guard_falls_back_to_gesdd(self, monkeypatch):
        a = planted_spectrum(200, 300, [1.0] * 9 + [5e-4], 80)
        full = thin_svd(a)
        ranks = spy_syevr(monkeypatch)
        with record_ops() as log:
            t = thin_svd(a, rank=10)
        assert ranks == [10] and log.svd_shapes == [a.shape]
        for got, want in zip(t, full):
            np.testing.assert_array_equal(got, want[..., :10])


@pytest.mark.skipif(np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
                    != "scipy-openblas", reason="numpy is not built on scipy-openblas")
def test_scipy_openblas_numpy_binds_dsyevr():
    assert linalg._lapacke_dsyevr() is not None


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((4, 5))) == 0.0

    def test_identity(self):
        assert frobenius_norm(np.eye(4)) == 2.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_norm(np.full((4, 4), 1e200)) == np.inf
