"""Deterministic generators for the synthetic dataset families.

All randomness is drawn from the counter-based stream in :mod:`nlrm.rng`,
so a (family, seed) pair pins the dataset bit-for-bit on every platform.
"""

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


def gen_orthogonal_decomposable(sigma: float, seed: int) -> np.ndarray:
    """100 x 30 product of an orthogonal nonnegative basis and uniform weights.

    The basis ``B`` (100 x 10) has one block of 10 rows per column with
    uniform entries normalized to unit length; disjoint supports make
    ``B.T @ B`` exactly diagonal.  Returns ``B @ C + sigma * noise`` with
    ``C`` 10 x 30 uniform and uniform [0, 1) noise.
    """
    if not 0 <= sigma < math.inf:  # NaN fails the chained comparison too
        raise DomainError(f"sigma must be finite and >= 0, got {sigma}")
    b, c = _orthogonal_factors(seed)
    a = matmul(b, c)
    if sigma > 0:
        a += sigma * random_uniform(seed, 100 * 30, offset=100 + 10 * 30).reshape(100, 30)
    return a


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
    a = np.einsum("ijk,ijk->ij", diffs, diffs)     # squared distances, made the result in place
    del diffs                                       # so at most 3 n**2 floats live at once
    scale = np.sqrt(np.partition(a, 9, axis=1)[:, 9])
    if (scale == 0.0).any():
        raise DomainError(
            "a point coincides with its 9th neighbor; local scale is zero"
        )
    a /= -np.outer(scale, scale)                    # the bits of -a / outer: signs are exact
    np.exp(a, out=a)
    np.fill_diagonal(a, 0.0)
    return a

