"""Generator determinism and structure."""

import tracemalloc

import numpy as np
import pytest

from nlrm import (
    DomainError,
    NumericError,
    ShapeError,
    gen_graph_similarity,
    gen_orthogonal_decomposable,
    gen_uniform,
    project_fixed_rank,
)
from nlrm.datagen import _orthogonal_factors
from nlrm.rng import random_uint64


class TestGenUniform:
    def test_deterministic(self):
        assert np.array_equal(gen_uniform(17, 23, 5), gen_uniform(17, 23, 5))

    def test_different_seeds_differ(self):
        assert not np.array_equal(gen_uniform(8, 8, 0), gen_uniform(8, 8, 1))

    def test_range(self):
        a = gen_uniform(50, 40, 6)
        assert (a >= 0.0).all() and (a < 1.0).all()

    def test_sample_mean(self):
        a = gen_uniform(100, 100, 7)
        assert 0.48 <= a.mean() <= 0.52

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            gen_uniform(0, 4, 0)

    def test_negative_draw_count_rejected(self):
        with pytest.raises(ValueError, match="^count and offset must be nonnegative$"):
            random_uint64(0, -1)


class TestGenOrthogonalDecomposable:
    def test_basis_is_orthogonal(self):
        b, _ = _orthogonal_factors(11)
        gram = b.T @ b
        off = gram - np.diag(np.diag(gram))
        assert np.array_equal(off, np.zeros((10, 10)))  # disjoint supports
        np.testing.assert_allclose(np.diag(gram), np.ones(10), rtol=0, atol=1e-15)

    def test_noise_free_rank_ten(self):
        a = gen_orthogonal_decomposable(0.0, 12)
        assert a.shape == (100, 30)
        t = project_fixed_rank(a, 10)
        residual = np.linalg.norm(a - t.reconstruct()) / np.linalg.norm(a)
        assert residual < 1e-10

    def test_nonnegative_output(self):
        assert (gen_orthogonal_decomposable(0.08, 13) >= 0.0).all()

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(DomainError):
            gen_orthogonal_decomposable(sigma, 0)

    def test_noise_shares_factors(self):
        clean = gen_orthogonal_decomposable(0.0, 14)
        noisy = gen_orthogonal_decomposable(0.05, 14)
        diff = noisy - clean
        assert (diff >= 0.0).all() and diff.max() <= 0.05

    def test_deterministic(self):
        assert np.array_equal(
            gen_orthogonal_decomposable(0.04, 32), gen_orthogonal_decomposable(0.04, 32)
        )


class TestGenGraphSimilarity:
    def test_symmetric_zero_diagonal(self):
        pts = gen_uniform(25, 2, 15)
        a = gen_graph_similarity(pts)
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.zeros(25))

    def test_entries_in_unit_interval(self):
        a = gen_graph_similarity(gen_uniform(30, 2, 16))
        off = a[~np.eye(30, dtype=bool)]
        assert (off > 0.0).all() and (off <= 1.0).all()

    def test_identical_points_maximal_similarity(self):
        pts = gen_uniform(12, 2, 17)
        pts[3] = pts[7]
        a = gen_graph_similarity(pts)
        assert a[3, 7] == 1.0

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            gen_graph_similarity(gen_uniform(5, 2, 18))

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(ShapeError, match="^points must be 2-D, got ndim=1$"):
            gen_graph_similarity(np.ones(12))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_points_rejected(self, bad):
        pts = gen_uniform(20, 2, 21)
        pts[4, 1] = bad
        with pytest.raises(NumericError, match="^points contains non-finite entries$"):
            gen_graph_similarity(pts)

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError, match="local scale is zero$"):
            gen_graph_similarity(np.ones((10, 2)))

    @pytest.mark.parametrize("n", [40, 400, 1000])
    def test_same_bits_as_the_sorted_expression(self, n):
        def sorted_expression(points):      # the generator before it worked in place
            diffs = points[:, None, :] - points[None, :, :]
            sq_dist = np.einsum("ijk,ijk->ij", diffs, diffs)
            scale = np.sqrt(np.sort(sq_dist, axis=1)[:, 9])
            a = np.exp(-sq_dist / np.outer(scale, scale))
            np.fill_diagonal(a, 0.0)
            return a

        pts = gen_uniform(n, 2, n) * 5.0
        pts[n // 2] = pts[n // 3]                   # a coincident pair: a zero distance off the diagonal
        assert gen_graph_similarity(pts).tobytes() == sorted_expression(pts).tobytes()

    def test_peak_memory_is_three_squares(self):
        pts = gen_uniform(400, 2, 22)
        tracemalloc.start()
        try:
            gen_graph_similarity(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 400**2 * 8

    def test_feeds_solver_and_stays_symmetric(self):
        from nlrm import SolverConfig, tap_solve

        pts = np.vstack([gen_uniform(20, 2, 19), gen_uniform(20, 2, 20) + 3.0])
        a = gen_graph_similarity(pts)
        worst = []
        tap_solve(
            a,
            SolverConfig(rank=2, max_iter=15, rel_change_tol=1e-14),
            on_iterate=lambda k, x, y: worst.append(np.abs(x - x.T).max()),
        )
        assert max(worst) < 1e-9

