"""Projection and tangent-space tests, including the structured/dense
equivalence that the tangent-space solver relies on."""

import numpy as np
import pytest

from nlrm import (
    ShapeError,
    TangentFrame,
    frobenius_norm,
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
