"""Dense linear algebra kernels with deterministic output conventions.

Everything operates on 2-D float64 arrays in row-major order and is a pure
function of its inputs.  Determinism matters: solver runs are compared
bit-for-bit, so QR and SVD results are sign-normalized instead of being
left to whatever the backend produced.

Conventions:

* QR: thin factorization with a nonnegative diagonal of R (signs absorbed
  into Q), by CholeskyQR2 where the input is well conditioned, else by
  Householder reflections.  A zero input yields R = 0 and Q equal to the
  leading columns of the identity.
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
  for bit.  Where the Gram matrix has at least ``GRAM_PARTIAL_RATIO * r``
  rows, only its top r eigenpairs are computed, by LAPACK ``dsyevr`` from
  the OpenBLAS numpy loads; a numpy without that symbol runs the full
  ``eigh`` instead, so the last bits depend on the numpy build.
* Complement: a rank-r truncation can also return an orthonormal basis of
  the rest of its shorter side (``U``'s side when ``m <= n``), which every
  route has computed anyway.  It carries no sign convention: only the
  projector ``C C' = I - U U'`` it gives is used.
"""

import ctypes
import functools
from typing import NamedTuple, Optional

import numpy as np

from . import instrument
from .errors import NumericError, ShapeError

# Smallest s_rank / s_1 at which thin_svd truncates through the Gram matrix
# (see _gram_svd); measured agreement with gesdd is in ROADMAP.md, Findings.
GRAM_MIN_RATIO = 1e-3
# Gram eigenvalues below this carry subnormal rounding of the squared entries.
_GRAM_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# A Gram matrix with at least this many rows per kept eigenpair computes only
# those (dsyevr); below it the full eigh is faster (ROADMAP.md, Findings).
GRAM_PARTIAL_RATIO = 20


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
    """Thin QR of a tall (or square) matrix: CholeskyQR2, else Householder.

    CholeskyQR2 runs two rounds of ``R_i = chol(Q'Q)'``, ``Q <- Q R_i^-1``
    from ``Q = A`` and returns ``R = R_2 R_1``: products of ``Q`` with n x n
    matrices in place of Householder's column sweeps, about 3x faster at
    1000 x 20 (ROADMAP.md, Findings).  Where a Cholesky fails, or ``Q`` is
    not finite or has ``max|Q'Q - I| > 1e-12`` (ill-conditioned or
    rank-deficient inputs), Householder reflections (``numpy.linalg.qr``)
    run instead.  The diagonal of R is nonnegative on both routes (a
    Cholesky factor's is positive; Householder's signs are flipped into Q),
    so the factorization is a deterministic function of the input.  Rank
    deficiency is accepted; the all-zero input returns identity columns for
    Q by convention.  The routes agree to rounding, not bit for bit.
    """
    m, n = _require_2d(a, "householder_qr input")
    if m < n:
        raise ShapeError(f"householder_qr needs rows >= cols, got {m}x{n}")
    if not a.any():
        return QrFactors(np.eye(m, n), np.zeros((n, n)))
    factors = _cholesky_qr2(a)
    if factors is not None:
        return factors
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q = q * signs
    r = np.triu(r * signs[:, None])
    return QrFactors(q, r)


def _cholesky_qr2(a: np.ndarray) -> Optional[QrFactors]:
    """CholeskyQR2 factors of ``a``, or None where a Cholesky fails or ``Q`` is
    not finite or not orthonormal to 1e-12 per entry of ``Q'Q``."""
    n = a.shape[1]
    q, r = a, np.eye(n)
    try:
        for _ in range(2):
            ri = np.linalg.cholesky(q.T @ q).T
            q = q @ np.linalg.inv(ri)    # numpy has no triangular solve; ri is n x n
            r = ri @ r
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(q).all() or np.abs(q.T @ q - np.eye(n)).max() > 1e-12:
        return None
    return QrFactors(q, r)


def thin_svd(a: np.ndarray, symmetric: bool = False, rank: Optional[int] = None,
             complement: bool = False):
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
    eigensolve of the smaller Gram matrix (see :func:`_gram_svd`): the top
    ``rank`` eigenpairs alone when ``GRAM_PARTIAL_RATIO * rank <= min(m, n)``
    and numpy's LAPACK exports ``dsyevr``, else a full ``eigh``.  Where
    ``s_rank < GRAM_MIN_RATIO * s_1``, squaring the condition number would
    lose accuracy; then, and with ``rank=None``, ``gesdd`` runs.  Every route
    is logged as one ``(m, n)`` decomposition.

    With ``complement=True`` (``rank`` required) the result is the pair
    ``(triplet, c)``: ``c`` is an orthonormal basis of the orthogonal
    complement of ``u``'s columns when ``m <= n``, of ``v``'s when ``m > n``,
    with ``min(m, n) - rank`` columns.  Every route has computed a complete
    basis of that side already (the other eigenvectors, or the trailing
    columns of ``gesdd``'s square factor), so this costs no more work.

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
    if complement and rank is None:
        raise ShapeError("a complement basis needs a rank")
    if not np.isfinite(a).all():
        raise NumericError("thin_svd input contains non-finite entries")
    instrument.log_svd(m, n)
    u, s, v, comp = _decompose(a, symmetric, rank, complement)
    u, v = apply_sign_convention(u, v)
    if rank is not None:
        u, s, v = (np.ascontiguousarray(x[..., :rank]) for x in (u, s, v))
    return (SvdTriplet(u, s, v), comp) if complement else SvdTriplet(u, s, v)


def _decompose(a: np.ndarray, symmetric: bool, rank: Optional[int], complement: bool):
    """``(u, s, v, c)`` by :func:`thin_svd`'s route, ``c`` None unless ``complement``;
    a backend failure is a :class:`NumericError`."""
    routine = "syevd"
    try:
        if symmetric:
            usvc = _eigh_svd(a, rank, complement)
        else:
            usvc = None if rank is None else _gram_svd(a, rank, complement)
        if usvc is None:
            routine = "gesdd"
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            comp = None
            if complement:      # the shorter side's factor is square
                comp = u[:, rank:] if a.shape[0] <= a.shape[1] else vt[rank:].T
            usvc = u, s, vt.T, comp
    except np.linalg.LinAlgError as exc:
        raise _not_converged(routine, a.shape) from exc
    return usvc


def _not_converged(routine: str, shape) -> NumericError:
    return NumericError(f"SVD did not converge (lapack {routine}, shape {shape[0]}x{shape[1]})")


def _eigh_svd(a: np.ndarray, rank: Optional[int] = None, complement: bool = False):
    """``(u, s, v, c)`` of a symmetric matrix from one ``eigh``: the top ``rank``
    triplets (all by default) and, with ``complement``, the other eigenvectors."""
    lam, q = np.linalg.eigh(a)
    order = np.argsort(-np.abs(lam), kind="stable")
    keep = order[:rank]
    lam, u = lam[keep], q[:, keep]
    comp = q[:, order[rank:]] if complement else None
    return u, np.abs(lam), u * np.where(lam < 0.0, -1.0, 1.0), comp


def _gram_svd(a: np.ndarray, rank: int, complement: bool = False):
    """Top-``rank`` ``(u, s, v, c)`` from the eigenpairs of ``A A'`` (m <= n) or ``A' A``.

    The Gram matrix's eigenvectors are one side; ``s = sqrt(lambda)`` and the
    other side is ``A' U / s`` (or ``A V / s``).  Where the Gram matrix has at
    least ``GRAM_PARTIAL_RATIO * rank`` rows and no complement is asked for,
    :func:`_top_eigh` computes the top ``rank`` eigenpairs alone; otherwise,
    or where numpy's LAPACK lacks ``dsyevr``, one full ``eigh`` runs.  With
    ``complement``, ``c`` holds the other eigenvectors, else it is None.
    Returns ``None`` where the Gram matrix overflows, or its ``rank``-th
    eigenvalue is below ``GRAM_MIN_RATIO**2`` times the largest or near
    underflow: there its rounding, ``eps * s_1**2``, is no longer small
    against ``s_rank**2``.
    """
    wide = a.shape[0] <= a.shape[1]
    with np.errstate(over="ignore"):
        g = a @ a.T if wide else a.T @ a
    if not np.isfinite(g).all():
        return None
    partial = (not complement and GRAM_PARTIAL_RATIO * rank <= len(g)
               and g.dtype == np.float64)
    syevr = _lapacke_dsyevr() if partial else None
    if syevr is not None:
        lam, w = _top_eigh(syevr, g, rank, a.shape)
    else:
        lam, q = np.linalg.eigh(g)
        lam, w = lam[: -rank - 1 : -1], q[:, : -rank - 1 : -1]
    if not lam[-1] > max(GRAM_MIN_RATIO**2 * lam[0], _GRAM_FLOOR):
        return None
    s = np.sqrt(lam)
    other = (a.T @ w if wide else a @ w) / s
    comp = q[:, : q.shape[1] - rank] if complement else None
    return (w, s, other, comp) if wide else (other, s, w, comp)


def _top_eigh(syevr, g: np.ndarray, rank: int, shape):
    """The ``rank`` largest eigenvalues of symmetric ``g`` (C-contiguous float64,
    overwritten), descending, and their eigenvectors as columns, by ``dsyevr``
    with ``RANGE='I'``; a LAPACK failure is a :class:`NumericError` for ``shape``."""
    n = len(g)
    lam, z = np.empty(n), np.empty((rank, n))
    found, isuppz = np.zeros(1, np.int64), np.empty(2 * rank, np.int64)
    # column-major: g reads the same either way, and each row of z is an eigenvector
    info = syevr(102, b"V", b"I", b"L", n, g.ctypes.data, n, 0.0, 0.0, n - rank + 1, n, 0.0,
                 found.ctypes.data, lam.ctypes.data, z.ctypes.data, n, isuppz.ctypes.data)
    if info != 0 or found[0] != rank:
        raise _not_converged("syevr", shape)
    return lam[rank - 1 :: -1], z[::-1].T


@functools.cache
def _lapacke_dsyevr():
    """``LAPACKE_dsyevr`` (64-bit integers) from the OpenBLAS that numpy links,
    bound on first use; None where numpy's LAPACK does not export it."""
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_dsyevr64_
    except (OSError, AttributeError):
        return None
    i64, f64, ptr, char = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_char
    fn.argtypes = [ctypes.c_int, char, char, char, i64, ptr, i64, f64, f64, i64, i64, f64,
                   ptr, ptr, ptr, i64, ptr]
    fn.restype = i64
    return fn


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
