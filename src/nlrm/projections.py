"""Projections onto the fixed-rank manifold, the nonnegative orthant, and
tangent spaces of the fixed-rank manifold.

The dense tangent projection of Y at a rank-r point with singular frame
(U, V) is ``U U' Y + Y V V' - U U' Y V V'``.  The structured routine
produces the same operator factored as ``[U Q] M [V Qh]'`` from two thin
QR factorizations and a 2r x 2r core, which is what lets the solver
replace a full SVD per iteration with an SVD of the small core.

Where 2r > min(m, n) the structured form does not exist and the solver
evaluates the projection densely.  Given an orthonormal basis C of the
complement of U (m <= n), ``I - U U' = C C'`` turns the operator into
``Y - C (C'Y - (C'Y V) V')``; with D the complement of V (m > n) it is
``Y - (Y D - U (U' Y D)) D'``.  That is about 4 (m - r) n (m + r) flops
(or 4 m (n - r)(n + r)) against the reference formula's
8 r m n + 2 r^2 (m + n), and two products with an m x n operand or
result instead of four.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import ShapeError
from .linalg import (
    SvdTriplet,
    apply_sign_convention,
    householder_qr,
    matmul,
    thin_svd,
)


class TangentFrame(NamedTuple):
    """Orthonormal singular bases (u: m x r, v: n x r) of a rank-r base point."""

    u: np.ndarray
    v: np.ndarray


class TangentFactored(NamedTuple):
    """Tangent projection factored as ``left @ core @ right.T``.

    ``left = [U Q]`` and ``right = [V Qh]`` are m x 2r and n x 2r; ``core``
    is the 2r x 2r block matrix ``[[U'YV, Rh'], [R, 0]]``.
    """

    left: np.ndarray
    core: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Dense tangent projection represented by the factors."""
        return matmul(matmul(self.left, self.core), self.right.T)


def project_fixed_rank(a: np.ndarray, rank: int, symmetric: bool = False,
                       complement: bool = False):
    """Best rank-``rank`` approximation of ``a`` in Frobenius norm.

    Returns the top-``rank`` singular triplet from :func:`thin_svd`;
    reconstruction gives the closest matrix of rank at most ``rank``.
    ``symmetric=True`` takes the ``eigh`` route, which truncates the
    symmetric completion of ``a``'s lower triangle: exactly ``a`` when
    ``a == a.T``.  Otherwise the Gram route runs where it is accurate.
    ``complement=True`` returns ``(triplet, c)`` with the complement basis
    that :func:`tangent_project_dense` takes.
    """
    if a.ndim != 2:
        raise ShapeError("project_fixed_rank input must be 2-D")
    return thin_svd(a, symmetric=symmetric, rank=rank, complement=complement)


def project_nonnegative(a: np.ndarray) -> np.ndarray:
    """Entrywise clamp at zero; nearest nonnegative matrix in Frobenius norm."""
    return np.maximum(a, 0.0)


def tangent_project_dense(
    frame: TangentFrame, y: np.ndarray, complement: Optional[np.ndarray] = None
) -> np.ndarray:
    """Orthogonal projection of ``y`` onto the tangent space at ``frame``.

    Without ``complement`` this is the reference implementation that forms
    the dense m x n result; the structured variant below must agree with
    it.  ``complement`` is an orthonormal basis of the complement of ``u``'s
    columns when m <= n, of ``v``'s when m > n (``thin_svd(...,
    complement=True)`` returns it), and gives the same operator through
    fewer products (module docstring).
    """
    u, v = frame
    _check_frame_shapes(frame, y)
    if complement is not None:
        m, n = y.shape
        side = min(m, n)
        if complement.shape != (side, side - u.shape[1]):
            raise ShapeError(
                f"complement has shape {complement.shape}, expected {(side, side - u.shape[1])}"
            )
        if m <= n:
            cty = matmul(complement.T, y)                   # (m - r) x n
            return y - matmul(complement, cty - matmul(matmul(cty, v), v.T))
        yd = matmul(y, complement)                          # m x (n - r)
        return y - matmul(yd - matmul(u, matmul(u.T, yd)), complement.T)
    uty = matmul(u.T, y)            # r x n
    yv = matmul(y, v)               # m x r
    utyv = matmul(uty, v)           # r x r
    return matmul(u, uty) + matmul(yv - matmul(u, utyv), v.T)


def tangent_project_structured(frame: TangentFrame, y: np.ndarray) -> TangentFactored:
    """Factored tangent projection from two thin QRs and a 2r x 2r core.

    QR inputs are computed as ``Y V - U (U' Y V)`` and the transposed
    analogue so no m x n projector is ever formed.  ``[U Q]`` and ``[V Qh]``
    need 2r orthonormal columns, so 2r > min(m, n) raises :class:`ShapeError`;
    use :func:`tangent_project_dense` there.
    """
    u, v = frame
    _check_frame_shapes(frame, y)
    r = u.shape[1]
    if 2 * r > min(y.shape):
        raise ShapeError(
            f"structured tangent step needs 2r <= min(m, n) = {min(y.shape)}, got r={r}"
        )

    yv = matmul(y, v)                        # m x r
    utyv = matmul(u.T, yv)                   # r x r, equals U'YV
    q, rmat = householder_qr(yv - matmul(u, utyv))

    ytu = matmul(y.T, u)                     # n x r
    qh, rhat = householder_qr(ytu - matmul(v, utyv.T))

    core = np.zeros((2 * r, 2 * r))
    core[:r, :r] = utyv
    core[:r, r:] = rhat.T
    core[r:, :r] = rmat
    return TangentFactored(np.hstack([u, q]), core, np.hstack([v, qh]))


def retract_to_rank(t: TangentFactored, rank: int) -> SvdTriplet:
    """Best rank-``rank`` approximation of a factored tangent vector.

    Takes the SVD of the small core and maps it through the orthonormal
    side factors, so no m x n intermediate is formed or decomposed.
    """
    core_dim = t.core.shape[0]
    if not 1 <= rank <= core_dim:
        raise ShapeError(
            f"rank must satisfy 1 <= rank <= core dimension {core_dim}, got {rank}"
        )
    psi, gamma, phi = thin_svd(t.core)
    u = matmul(t.left, psi[:, :rank])
    v = matmul(t.right, phi[:, :rank])
    u, v = apply_sign_convention(u, v)
    return SvdTriplet(u, np.ascontiguousarray(gamma[:rank]), v)


def _check_frame_shapes(frame: TangentFrame, y: np.ndarray) -> None:
    u, v = frame
    if u.ndim != 2 or v.ndim != 2 or y.ndim != 2:
        raise ShapeError("tangent projection operands must be 2-D")
    if u.shape[1] != v.shape[1]:
        raise ShapeError(
            f"frame rank mismatch: u has {u.shape[1]} columns, v has {v.shape[1]}"
        )
    if y.shape != (u.shape[0], v.shape[0]):
        raise ShapeError(
            f"y has shape {y.shape}, expected {(u.shape[0], v.shape[0])}"
        )
