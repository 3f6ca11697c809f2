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
