"""Dense linear algebra kernels with deterministic output conventions.

Everything operates on 2-D float64 arrays in row-major order and is a pure
function of its inputs.  Determinism matters: solver runs are compared
bit-for-bit, so QR and SVD results are sign-normalized instead of being
left to whatever the backend produced.

Conventions:

* QR: thin factorization with a nonnegative diagonal of R (signs absorbed
  into Q).  A zero input yields R = 0 and Q equal to the leading columns
  of the identity.
* SVD: thin factorization, singular values nonincreasing, and each left
  singular vector's largest-magnitude entry made positive (the matching
  right vector is flipped with it).  Exactly equal singular values keep
  the backend's order.  A symmetric matrix may instead be decomposed by
  one ``eigh``: singular values are the eigenvalues' magnitudes and each
  right vector is its left vector times the eigenvalue's sign.
* Rank-r truncation of any other matrix: the top r eigenpairs of the
  smaller Gram matrix (``A A'`` or ``A' A``) give one side and
  ``s = sqrt(lambda)``; the other side is recovered by one product and a
  division by ``s``.  Where ``s_r / s_1`` is below ``GRAM_MIN_RATIO`` the
  truncation is ``gesdd``'s instead.  The routes agree to rounding
  amplified by ``s_1 / s_r`` (measured in ROADMAP.md, Findings), not bit
  for bit.
"""

from typing import NamedTuple, Optional

import numpy as np

from . import instrument
from .errors import NumericError, ShapeError

# Smallest s_rank / s_1 at which thin_svd truncates through the Gram matrix
# (see _gram_svd); measured agreement with gesdd is in ROADMAP.md, Findings.
GRAM_MIN_RATIO = 1e-3
# Gram eigenvalues below this carry subnormal rounding of the squared entries.
_GRAM_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


class QrFactors(NamedTuple):
    """Thin QR factors: ``q`` has orthonormal columns, ``r`` is upper triangular."""

    q: np.ndarray
    r: np.ndarray


class SvdTriplet(NamedTuple):
    """Factored matrix ``u @ diag(s) @ v.T`` with orthonormal ``u``, ``v``."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Dense matrix represented by the triplet."""
        return matmul(self.u * self.s, self.v.T)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NumericError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(m)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` with shape checking and call logging."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul dimension mismatch: {a.shape[0]}x{a.shape[1]} by "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    instrument.log_matmul(a.shape[0], a.shape[1], b.shape[1])
    return a @ b


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries; ``inf``, silently, on overflow."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(a))


def householder_qr(a: np.ndarray) -> QrFactors:
    """Thin QR of a tall (or square) matrix via Householder reflections.

    The diagonal of R is made nonnegative by flipping column signs of Q,
    so the factorization is a deterministic function of the input.  Rank
    deficiency is accepted; the all-zero input returns identity columns
    for Q by convention.
    """
    m, n = _require_2d(a, "householder_qr input")
    if m < n:
        raise ShapeError(f"householder_qr needs rows >= cols, got {m}x{n}")
    if not a.any():
        return QrFactors(np.eye(m, n), np.zeros((n, n)))
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q = q * signs
    r = np.triu(r * signs[:, None])
    return QrFactors(q, r)


def thin_svd(a: np.ndarray, symmetric: bool = False, rank: Optional[int] = None) -> SvdTriplet:
    """Thin SVD with the package sign convention: ``min(m, n)`` triplets, or
    the top ``rank`` of them.

    With ``symmetric=True`` the square input is decomposed by one
    ``eigh``, which reads only its lower triangle, so a matrix that is
    symmetric up to rounding is decomposed as that triangle's symmetric
    completion.  Eigenpairs are ordered by |lambda|, descending, with a
    stable sort: equal magnitudes keep ``eigh``'s ascending order, so
    -c precedes c.  The triplet is ``(u, |lambda|, u * sign lambda)``
    (sign +1 at lambda = 0).

    Otherwise, with ``rank`` given, the top ``rank`` triplets come from one
    ``eigh`` of the smaller Gram matrix (see :func:`_gram_svd`) unless
    ``s_rank < GRAM_MIN_RATIO * s_1``, where squaring the condition number
    would lose accuracy; then, and with ``rank=None``, ``gesdd`` runs.
    Every route is logged as one ``(m, n)`` decomposition.

    Raises :class:`NumericError` if the iterative backend fails to
    converge (the backend does not report its iteration count; the error
    carries the routine name and shape instead).
    """
    m, n = _require_2d(a, "thin_svd input")
    if symmetric and m != n:
        raise ShapeError(f"symmetric thin_svd needs a square input, got {m}x{n}")
    if rank is not None and not 1 <= rank <= min(m, n):
        raise ShapeError(
            f"rank must satisfy 1 <= rank <= min(m, n) = {min(m, n)}, got {rank}"
        )
    if not np.isfinite(a).all():
        raise NumericError("thin_svd input contains non-finite entries")
    instrument.log_svd(m, n)
    u, s, v = _decompose(a, symmetric, rank)
    u, v = apply_sign_convention(u, v)
    if rank is not None:
        u, s, v = (np.ascontiguousarray(x[..., :rank]) for x in (u, s, v))
    return SvdTriplet(u, s, v)


def _decompose(a: np.ndarray, symmetric: bool, rank: Optional[int]):
    """``(u, s, v)`` by :func:`thin_svd`'s route; a backend failure is a :class:`NumericError`."""
    routine = "syevd"
    try:
        if symmetric:
            usv = _eigh_svd(a)
        else:
            usv = None if rank is None else _gram_svd(a, rank)
        if usv is None:
            routine = "gesdd"
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            usv = u, s, vt.T
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD did not converge (lapack {routine}, shape {a.shape[0]}x{a.shape[1]})"
        ) from exc
    return usv


def _eigh_svd(a: np.ndarray):
    """``(u, s, v)`` of a symmetric matrix, from one ``eigh``."""
    lam, u = np.linalg.eigh(a)
    order = np.argsort(-np.abs(lam), kind="stable")
    lam, u = lam[order], u[:, order]
    return u, np.abs(lam), u * np.where(lam < 0.0, -1.0, 1.0)


def _gram_svd(a: np.ndarray, rank: int):
    """Top-``rank`` ``(u, s, v)`` from one ``eigh`` of ``A A'`` (m <= n) or ``A' A``.

    The Gram matrix's eigenvectors are one side; ``s = sqrt(lambda)`` and the
    other side is ``A' U / s`` (or ``A V / s``).  Returns ``None`` where the
    Gram matrix overflows, or its ``rank``-th eigenvalue is below
    ``GRAM_MIN_RATIO**2`` times the largest or near underflow: there its
    rounding, ``eps * s_1**2``, is no longer small against ``s_rank**2``.
    """
    wide = a.shape[0] <= a.shape[1]
    with np.errstate(over="ignore"):
        g = a @ a.T if wide else a.T @ a
    if not np.isfinite(g).all():
        return None
    lam, w = np.linalg.eigh(g)
    lam, w = lam[: -rank - 1 : -1], w[:, : -rank - 1 : -1]
    if not lam[-1] > max(GRAM_MIN_RATIO**2 * lam[0], _GRAM_FLOOR):
        return None
    s = np.sqrt(lam)
    other = (a.T @ w if wide else a @ w) / s
    return (w, s, other) if wide else (other, s, w)


def apply_sign_convention(u: np.ndarray, v: np.ndarray):
    """Flip (u, v) column pairs so each u column's largest-|entry| is positive.

    Joint flips leave ``u @ diag(s) @ v.T`` unchanged; this only pins the
    representative among equivalent factorizations.
    """
    if u.shape[1] == 0:
        return u, v
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[lead, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return u * signs, v * signs


def _require_2d(a: np.ndarray, name: str):
    if not hasattr(a, "ndim") or a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D")
    return a.shape
