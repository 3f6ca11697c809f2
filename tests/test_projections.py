"""Projection and tangent-space tests, including the structured/dense
equivalence that the tangent-space solver relies on."""

import numpy as np
import pytest

from nlrm import (
    ShapeError,
    TangentFrame,
    frobenius_norm,
    gen_graph_similarity,
    gen_uniform,
    householder_qr,
    project_fixed_rank,
    project_nonnegative,
    record_ops,
    retract_to_rank,
    tangent_project_dense,
    tangent_project_structured,
    thin_svd,
)
from nlrm import linalg
from nlrm.rng import random_uniform


def random_frame(m, n, r, seed):
    """Random orthonormal (u, v) pair via QR of centered uniforms."""
    u, _ = householder_qr(gen_uniform(m, r, seed) - 0.5)
    v, _ = householder_qr(gen_uniform(n, r, seed + 7919) - 0.5)
    return TangentFrame(u, v)


class TestProjectFixedRank:
    def test_exact_rank_input(self):
        a = gen_uniform(12, 3, 0) @ gen_uniform(3, 10, 1)
        t = project_fixed_rank(a, 3)
        assert frobenius_norm(a - t.reconstruct()) / frobenius_norm(a) < 1e-10

    def test_diagonal(self):
        t = project_fixed_rank(np.diag([5.0, 3.0, 1.0]), 2)
        np.testing.assert_allclose(t.s, [5.0, 3.0])
        err = frobenius_norm(np.diag([5.0, 3.0, 1.0]) - t.reconstruct())
        np.testing.assert_allclose(err, 1.0, rtol=1e-12)

    def test_residual_equals_tail_singular_values(self):
        a = gen_uniform(15, 10, 2) - 0.3
        t = project_fixed_rank(a, 4)
        residual = frobenius_norm(a - t.reconstruct())
        tail = np.sqrt((thin_svd(a).s[4:] ** 2).sum())
        assert abs(residual - tail) < 1e-10

    def test_optimality_against_random_competitors(self):
        a = gen_uniform(12, 9, 3)
        r = 3
        best = frobenius_norm(a - project_fixed_rank(a, r).reconstruct())
        for seed in range(50):
            competitor = (gen_uniform(12, r, 100 + seed) - 0.5) @ (
                gen_uniform(r, 9, 200 + seed) - 0.5
            )
            assert best <= frobenius_norm(a - competitor) + 1e-12

    def test_rank_out_of_range(self):
        a = gen_uniform(5, 4, 4)
        with pytest.raises(ShapeError):
            project_fixed_rank(a, 0)
        with pytest.raises(ShapeError):
            project_fixed_rank(a, 5)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError, match="^project_fixed_rank input must be 2-D$"):
            project_fixed_rank(np.ones(5), 1)


class TestProjectNonnegative:
    def test_nonnegative_unchanged(self):
        a = gen_uniform(6, 5, 5)
        assert np.array_equal(project_nonnegative(a), a)

    def test_hand_example(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        np.testing.assert_array_equal(
            project_nonnegative(a), [[0.0, 2.0], [0.0, 0.0]]
        )

    def test_idempotent_exactly(self):
        a = gen_uniform(8, 8, 6) - 0.5
        once = project_nonnegative(a)
        assert np.array_equal(project_nonnegative(once), once)

    def test_same_bits_as_the_scalar_clamp(self):
        a = gen_uniform(50, 40, 8) - 0.5
        a[::3, ::2], a[1::3, 1::2] = 0.0, -0.0
        assert np.signbit(a[a == 0]).any() and not np.signbit(a[a == 0]).all()
        assert project_nonnegative(a).tobytes() == np.maximum(a, 0.0).tobytes()

    def test_closest_among_random_nonnegative(self):
        a = gen_uniform(7, 6, 7) - 0.5
        dist = frobenius_norm(a - project_nonnegative(a))
        for seed in range(100):
            b = gen_uniform(7, 6, 300 + seed)
            assert dist <= frobenius_norm(a - b)


class TestTangentProjectDense:
    def test_base_point_is_fixed(self):
        x = project_fixed_rank(gen_uniform(12, 10, 8), 3)
        frame = TangentFrame(x.u, x.v)
        y = x.reconstruct()
        assert (
            frobenius_norm(tangent_project_dense(frame, y) - y)
            / frobenius_norm(y)
            < 1e-11
        )

    def test_coordinate_frame_zeroes_complement_block(self):
        m, n, r = 7, 6, 2
        frame = TangentFrame(np.eye(m, r), np.eye(n, r))
        y = gen_uniform(m, n, 9) - 0.5
        expected = y.copy()
        expected[r:, r:] = 0.0
        np.testing.assert_allclose(tangent_project_dense(frame, y), expected, atol=1e-14)

    def test_idempotent(self):
        frame = random_frame(20, 16, 3, 10)
        y = gen_uniform(20, 16, 11) - 0.5
        once = tangent_project_dense(frame, y)
        twice = tangent_project_dense(frame, once)
        assert frobenius_norm(twice - once) < 1e-11

    def test_self_adjoint(self):
        frame = random_frame(14, 12, 4, 12)
        y = gen_uniform(14, 12, 13) - 0.5
        z = gen_uniform(14, 12, 14) - 0.5
        lhs = float(np.sum(tangent_project_dense(frame, y) * z))
        rhs = float(np.sum(y * tangent_project_dense(frame, z)))
        assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-10

    def test_residual_orthogonal_to_projections(self):
        frame = random_frame(15, 11, 3, 15)
        y = gen_uniform(15, 11, 16) - 0.5
        z = gen_uniform(15, 11, 17) - 0.5
        residual = y - tangent_project_dense(frame, y)
        inner = float(np.sum(residual * tangent_project_dense(frame, z)))
        assert abs(inner) < 1e-10 * frobenius_norm(y) * frobenius_norm(z)

    def test_shape_mismatch(self):
        frame = random_frame(10, 8, 2, 18)
        with pytest.raises(ShapeError):
            tangent_project_dense(frame, np.ones((8, 10)))

    @pytest.mark.parametrize("project", [tangent_project_dense, tangent_project_structured])
    def test_one_dimensional_operand_rejected(self, project):
        u, v = random_frame(10, 8, 2, 18)
        with pytest.raises(ShapeError, match="^tangent projection operands must be 2-D$"):
            project(TangentFrame(u, v[:, 0]), np.ones((10, 8)))

    @pytest.mark.parametrize("project", [tangent_project_dense, tangent_project_structured])
    def test_frame_rank_mismatch_rejected(self, project):
        u, _ = random_frame(10, 8, 2, 18)
        _, v = random_frame(10, 8, 3, 19)
        with pytest.raises(ShapeError, match="^frame rank mismatch: u has 2 columns, v has 3$"):
            project(TangentFrame(u, v), np.ones((10, 8)))


def sparse_low_rank(m, n, k, seed):
    """A rank-``k`` product of sparse uniform factors plus ``1e-4`` noise on its
    zeros: ``s_r < 1e-3 s_1`` for every ``r > k``, so truncations take ``gesdd``."""
    b, c = gen_uniform(m, k, seed), gen_uniform(k, n, seed + 1)
    b[b < 0.4] = 0.0
    c[c < 0.4] = 0.0
    a = b @ c
    return a + 1e-4 * gen_uniform(m, n, seed + 2) * (a == 0.0)


def complement_cases():
    """Inputs with 2r > min(m, n) on each full-size truncation route:
    ``(matrix, rank, symmetric, route)``."""
    graph = gen_graph_similarity(gen_uniform(40, 2, 60) * 3.0)
    return {
        "symmetric-40": (graph, 24, True, "symmetric"),
        "gram-wide-20x50": (gen_uniform(20, 50, 61), 12, False, "gram"),
        "gram-tall-50x20": (gen_uniform(50, 20, 62), 12, False, "gram"),
        "gram-square-30": (gen_uniform(30, 30, 63), 18, False, "gram"),
        "gesdd-wide-14x30": (sparse_low_rank(14, 30, 3, 64), 9, False, "gesdd"),
        "gesdd-tall-30x14": (sparse_low_rank(30, 14, 3, 65), 9, False, "gesdd"),
        "gesdd-square-20": (sparse_low_rank(20, 20, 3, 69), 12, False, "gesdd"),
    }


def spy_routes(monkeypatch):
    """Names of the routes that full-size truncations take from now on."""
    routes = []
    for name, route in (("_eigh_svd", "symmetric"), ("_gram_svd", "gram")):
        real = getattr(linalg, name)

        def spied(*args, _real=real, _route=route, **kwargs):
            out = _real(*args, **kwargs)
            routes.append(_route if out is not None else "gesdd")
            return out

        monkeypatch.setattr(linalg, name, spied)
    return routes


def touches_full_size(shapes, m, n):
    """Logged products with an ``m x n`` operand or result."""
    return [(p, k, q) for p, k, q in shapes if (m, n) in ((p, k), (k, q), (p, q))]


class TestTangentProjectComplement:
    """The dense step through the complement basis against the reference formula."""

    @pytest.mark.parametrize("name", sorted(complement_cases()))
    def test_matches_reference_on_every_route(self, monkeypatch, name):
        a, r, sym, route = complement_cases()[name]
        routes = spy_routes(monkeypatch)
        x, comp = project_fixed_rank(a, r, symmetric=sym, complement=True)
        assert routes == [route]
        side = min(a.shape)
        basis = np.hstack([x.u if a.shape[0] <= a.shape[1] else x.v, comp])
        assert comp.shape == (side, side - r)
        np.testing.assert_allclose(basis.T @ basis, np.eye(side), rtol=0, atol=1e-12)
        frame = TangentFrame(x.u, x.v)
        for y in (project_nonnegative(x.reconstruct()), gen_uniform(*a.shape, 67)):
            want = tangent_project_dense(frame, y)
            got = tangent_project_dense(frame, y, comp)
            assert frobenius_norm(got - want) / frobenius_norm(want) < 1e-12

    @pytest.mark.parametrize("name", sorted(complement_cases()))
    def test_two_products_touch_full_size(self, name):
        a, r, sym, _ = complement_cases()[name]
        x, comp = project_fixed_rank(a, r, symmetric=sym, complement=True)
        y = project_nonnegative(x.reconstruct())
        for basis, count in ((comp, 2), (None, 4)):
            with record_ops() as log:
                tangent_project_dense(TangentFrame(x.u, x.v), y, basis)
            assert len(touches_full_size(log.matmul_shapes, *a.shape)) == count

    @pytest.mark.parametrize("shape, symmetric", [((9, 14), False), ((14, 9), False),
                                                  ((12, 12), False), ((12, 12), True)])
    def test_full_rank_complement_is_empty_and_step_returns_y(self, shape, symmetric):
        a = gen_uniform(*shape, 68)
        if symmetric:
            a = a + a.T
        r = min(shape)
        x, comp = project_fixed_rank(a, r, symmetric=symmetric, complement=True)
        assert comp.shape == (r, 0)
        y = gen_uniform(*shape, 69)
        assert np.array_equal(tangent_project_dense(TangentFrame(x.u, x.v), y, comp), y)

    def test_complement_shape_checked(self):
        x, comp = project_fixed_rank(gen_uniform(10, 16, 70), 6, complement=True)
        frame = TangentFrame(x.u, x.v)
        with pytest.raises(ShapeError, match="complement has shape"):
            tangent_project_dense(frame, np.ones((10, 16)), comp[:, 1:])
        with pytest.raises(ShapeError, match="needs a rank"):
            thin_svd(gen_uniform(10, 16, 70), complement=True)


class TestTangentProjectStructured:
    def test_matches_dense_on_random_pairs(self):
        for seed in range(40):
            r = 1 + seed % 8
            m = 2 * r + 2 + (seed * 13) % 30
            n = 2 * r + 2 + (seed * 7) % 25
            frame = random_frame(m, n, r, 400 + seed)
            y = gen_uniform(m, n, 500 + seed) - 0.5
            dense = tangent_project_dense(frame, y)
            fact = tangent_project_structured(frame, y)
            rel = frobenius_norm(fact.reconstruct() - dense) / max(
                frobenius_norm(dense), 1e-300
            )
            assert rel < 1e-10

    def test_factors_orthonormal(self):
        frame = random_frame(25, 21, 4, 19)
        y = gen_uniform(25, 21, 20) - 0.5
        fact = tangent_project_structured(frame, y)
        assert np.abs(fact.left.T @ fact.left - np.eye(8)).max() < 1e-11
        assert np.abs(fact.right.T @ fact.right - np.eye(8)).max() < 1e-11

    def test_column_space_input_gives_zero_r_block(self):
        # y = u @ w lies in span(u), so the left QR input vanishes.
        frame = random_frame(16, 12, 3, 21)
        y = frame.u @ (gen_uniform(3, 12, 22) - 0.5)
        fact = tangent_project_structured(frame, y)
        assert np.abs(fact.core[3:, :3]).max() < 1e-12
        dense = tangent_project_dense(frame, y)
        assert frobenius_norm(fact.reconstruct() - dense) < 1e-10 * frobenius_norm(y)

    def test_rank_above_half_min_dimension_rejected(self):
        frame = random_frame(10, 12, 6, 31)
        y = gen_uniform(10, 2, 32) @ gen_uniform(2, 12, 33)
        with pytest.raises(ShapeError, match=r"2r <= min\(m, n\) = 10, got r=6"):
            tangent_project_structured(frame, y)

    def test_rank_at_half_min_dimension_orthonormal(self):
        frame = random_frame(10, 12, 5, 34)
        fact = tangent_project_structured(frame, gen_uniform(10, 12, 35) - 0.5)
        assert np.abs(fact.left.T @ fact.left - np.eye(10)).max() < 1e-11
        assert np.abs(fact.right.T @ fact.right - np.eye(10)).max() < 1e-11

    def test_zero_input(self):
        frame = random_frame(9, 7, 2, 23)
        fact = tangent_project_structured(frame, np.zeros((9, 7)))
        assert np.array_equal(fact.core, np.zeros((4, 4)))
        assert frobenius_norm(fact.reconstruct()) == 0.0


class TestRetractToRank:
    def test_diagonal_core(self):
        frame = random_frame(10, 9, 2, 24)
        y = gen_uniform(10, 9, 25) - 0.5
        fact = tangent_project_structured(frame, y)
        core = np.diag([4.0, 3.0, 2.0, 1.0])
        t = retract_to_rank(fact._replace(core=core), 2)
        np.testing.assert_allclose(t.s, [4.0, 3.0])

    def test_matches_dense_projection(self):
        for seed in range(20):
            r = 2 + seed % 5
            m, n = 2 * r + 5 + seed % 20, 2 * r + 3 + seed % 15
            frame = random_frame(m, n, r, 600 + seed)
            y = gen_uniform(m, n, 700 + seed) - 0.5
            fact = tangent_project_structured(frame, y)
            got = retract_to_rank(fact, r).reconstruct()
            want = project_fixed_rank(tangent_project_dense(frame, y), r).reconstruct()
            assert frobenius_norm(got - want) / frobenius_norm(want) < 1e-9

    def test_zero_core(self):
        frame = random_frame(8, 8, 2, 26)
        fact = tangent_project_structured(frame, np.zeros((8, 8)))
        t = retract_to_rank(fact, 2)
        np.testing.assert_array_equal(t.s, np.zeros(2))
        assert frobenius_norm(t.reconstruct()) == 0.0

    def test_never_touches_full_size(self):
        m, n, r = 40, 35, 4
        frame = random_frame(m, n, r, 27)
        y = gen_uniform(m, n, 28) - 0.5
        fact = tangent_project_structured(frame, y)
        with record_ops() as log:
            retract_to_rank(fact, r)
        assert all(shape == (2 * r, 2 * r) for shape in log.svd_shapes)
        for rows, inner, cols in log.matmul_shapes:
            assert (rows, cols) != (m, n)

    def test_rank_out_of_range(self):
        frame = random_frame(8, 8, 2, 29)
        fact = tangent_project_structured(frame, gen_uniform(8, 8, 30))
        with pytest.raises(ShapeError):
            retract_to_rank(fact, 5)
