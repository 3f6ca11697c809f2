"""Deterministic generators for the synthetic dataset families.

All randomness is drawn from the counter-based stream in :mod:`nlrm.rng`,
so a (family, seed) pair pins the dataset bit-for-bit on every platform.
"""

import itertools
import math

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import as_matrix, matmul
from .rng import random_uniform, uniform_matrix


def gen_uniform(m: int, n: int, seed: int) -> np.ndarray:
    """``m x n`` matrix of i.i.d. uniform [0, 1) entries."""
    if m < 1 or n < 1:
        raise ShapeError(f"dimensions must be positive, got {m}x{n}")
    return uniform_matrix(m, n, seed)


def gen_separable_case1(sigma: float, seed: int):
    """Separable 200 x 210 matrix with an identity block and midpoint columns.

    ``B`` is 200 x 20 uniform; ``C = [I_20, H']`` where the 190 columns of
    ``H'`` hold all index pairs (i < j, lexicographic) with two entries of
    0.5, so columns 21..210 of ``B @ C`` are midpoints of columns of B.
    Noise with level ``sigma`` pushes each midpoint column away from the
    mean column of B; the first 20 columns stay noise-free.

    Returns ``(a, b_true, c_true)``.
    """
    _check_sigma(sigma)
    b = uniform_matrix(200, 20, seed)
    hprime = np.zeros((20, 190))
    for col, (i, j) in enumerate(itertools.combinations(range(20), 2)):
        hprime[i, col] = 0.5
        hprime[j, col] = 0.5
    c = np.hstack([np.eye(20), hprime])
    a = matmul(b, c)
    if sigma > 0:
        mean_col = b.mean(axis=1)
        a[:, 20:] += sigma * (a[:, 20:] - mean_col[:, None])
    return a, b, c


def gen_orthogonal_decomposable(sigma: float, seed: int) -> np.ndarray:
    """100 x 30 product of an orthogonal nonnegative basis and uniform weights.

    The basis ``B`` (100 x 10) has one block of 10 rows per column with
    uniform entries normalized to unit length; disjoint supports make
    ``B.T @ B`` exactly diagonal.  Returns ``B @ C + sigma * noise`` with
    ``C`` 10 x 30 uniform and uniform [0, 1) noise.
    """
    _check_sigma(sigma)
    b, c = _orthogonal_factors(seed)
    a = matmul(b, c)
    if sigma > 0:
        a += sigma * random_uniform(seed, 100 * 30, offset=100 + 10 * 30).reshape(100, 30)
    return a


def _check_sigma(sigma):
    # NaN fails the chained comparison too
    if not 0 <= sigma < math.inf:
        raise DomainError(f"sigma must be finite and >= 0, got {sigma}")


def _orthogonal_factors(seed: int):
    """The (b, c) pair behind :func:`gen_orthogonal_decomposable`."""
    draws = random_uniform(seed, 100 + 10 * 30)
    b = np.zeros((100, 10))
    for j in range(10):
        block = draws[10 * j : 10 * (j + 1)]
        b[10 * j : 10 * (j + 1), j] = block / np.linalg.norm(block)
    c = draws[100:].reshape(10, 30)
    return b, c


def gen_graph_similarity(points) -> np.ndarray:
    """Locally scaled similarity matrix of a 2-D point cloud.

    ``A[i, j] = exp(-||x_i - x_j||^2 / (s_i * s_j))`` off the diagonal with
    ``s_i`` the distance from point i to its 9th-nearest neighbor; the
    diagonal is zero.  The result is symmetric with entries in (0, 1].
    """
    pts = as_matrix(points, "points")
    n = pts.shape[0]
    if n < 10:
        raise DomainError(
            f"need at least 10 points (9th neighbor undefined), got {n}"
        )
    diffs = pts[:, None, :] - pts[None, :, :]
    sq_dist = np.einsum("ijk,ijk->ij", diffs, diffs)
    scale = np.sqrt(np.sort(sq_dist, axis=1)[:, 9])
    if (scale == 0.0).any():
        raise DomainError(
            "a point coincides with its 9th neighbor; local scale is zero"
        )
    a = np.exp(-sq_dist / np.outer(scale, scale))
    np.fill_diagonal(a, 0.0)
    return a

