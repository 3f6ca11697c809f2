"""Iteration drivers for nonnegative low-rank approximation.

All four solvers run one loop (``_iterate``) and differ only in their
initialization and update.  ``ap_solve`` projects back onto the
fixed-rank manifold with a full SVD of the dense iterate every step,
while ``tap_solve`` projects onto the tangent space at the previous
iterate first and retracts through a 2r x 2r core, so when 2r <= min(m, n)
the only full-size SVD is the initialization (above that rank each step
falls back to a dense tangent projection, through the complement basis
that the previous truncation returned, and a full SVD).  Both then clamp
at zero.  Every full-size truncation is one ``eigh`` instead of an SVD:
of its smaller Gram matrix, top r eigenpairs alone where
``GRAM_PARTIAL_RATIO * r <= min(m, n)``, unless that would lose accuracy
and ``gesdd`` runs (see :func:`nlrm.linalg.thin_svd`).  An exactly
symmetric input is instead truncated by one ``eigh`` of the matrix itself
where that top-r route cannot run: above that rank, or in TAP's dense
fallback, which needs the complement basis.  NMF baselines
(multiplicative updates and HALS) and the empirical contraction-rate
estimator round out the comparison tooling; ``solve`` runs any solver by
name.
"""

import math
import sys
import warnings
from dataclasses import dataclass, field
from numbers import Integral, Real
from time import perf_counter
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import instrument
from .errors import DomainError, InsufficientDataError, NumericError
from .linalg import GRAM_PARTIAL_RATIO, SvdTriplet, as_matrix, frobenius_norm, matmul
from .projections import (
    TangentFrame,
    project_fixed_rank,
    project_nonnegative,
    retract_to_rank,
    tangent_project_dense,
    tangent_project_structured,
)
from .rng import random_uniform

# Relative error below which an iterate is accepted as an exact fixed point.
# The relative-change rule alone cannot terminate at machine-precision
# errors (successive values fluctuate at the 1e-16 level), so rank-deficient
# nonnegative inputs would spin until max_iter without this floor.
FIXED_POINT_TOL = 1e-12

# Relative errors at or above this are taken from ||A||^2 - 2<A, X> + ||X||^2,
# two dot products that write nothing, in place of ||A - X||.  The expansion's
# relative deviation grows like eps ||A||^2 / ||A - X||^2: about 1e-14 at
# errors of 0.2-0.85, 8e-11 at 1e-3 and 5e-2 at 1e-7 (ROADMAP.md, Findings),
# so smaller errors, FIXED_POINT_TOL's among them, keep the direct formula.
_EXPANDED_ERROR_MIN = 0.1

_LOG_FLOOR = 1e-15  # error differences at or below this are noise, not signal


@dataclass
class SolverConfig:
    """Run parameters shared by all solvers.

    ``seed`` is only consumed by the NMF baselines (factor initialization).
    ``max_iter = 0`` is allowed there and returns the initialization
    unchanged; the projection solvers need at least one iteration.
    ``rank``, ``max_iter`` and a given ``seed`` must be integers and
    ``rel_change_tol`` a real number (numpy's included, ``bool`` not).
    """

    rank: int
    max_iter: int = 1000
    rel_change_tol: float = 1e-6
    seed: Optional[int] = None

    def __post_init__(self):
        for name in ("rank", "max_iter", "seed"):
            value = getattr(self, name)
            if name == "seed" and value is None:
                continue
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.rank < 1:
            raise DomainError(f"rank must be >= 1, got {self.rank}")
        if self.max_iter < 0:
            raise DomainError(f"max_iter must be >= 0, got {self.max_iter}")
        tol = self.rel_change_tol
        if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < math.inf:
            raise DomainError(f"rel_change_tol must be a finite number > 0, got {tol!r}")


class TraceRecord(NamedTuple):
    iteration: int
    rel_error: float
    seconds: float      # cumulative wall time of the iterations: step, error and min
    min_entry: float    # smallest entry of the current iterate


@dataclass
class IterationTrace:
    """Per-iteration error/time records of a solver run.

    ``converged`` is set by the solver loop when its stopping rule ended
    the run; a run that is not ``converged`` is one that ``max_iter`` ended.
    """

    records: list = field(default_factory=list)
    converged: bool = False

    def append(self, record: TraceRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise DomainError("trace iteration indices must be strictly increasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def iterations(self):
        return [rec.iteration for rec in self.records]

    @property
    def rel_errors(self):
        return [rec.rel_error for rec in self.records]

    @property
    def seconds(self) -> float:
        """Total wall time of the run (0 for an empty trace)."""
        return self.records[-1].seconds if self.records else 0.0

    def to_dicts(self):
        return [rec._asdict() for rec in self.records]

    @classmethod
    def from_dicts(cls, rows):
        """Trace from ``to_dicts`` rows: a non-integer ``iteration`` or a non-numeric
        field (booleans are neither) raises :class:`TypeError`, a non-finite one
        :class:`DomainError`."""
        trace = cls()
        for row in rows:
            values = (row["iteration"], row["rel_error"],
                      row.get("seconds", 0.0), row.get("min_entry", 0.0))
            if not all(isinstance(v, kind) and not isinstance(v, bool)
                       for v, kind in zip(values, (int, Real, Real, Real))):
                raise TypeError(f"expected an integer iteration and numeric fields, got {row}")
            rec = TraceRecord(int(values[0]), *map(float, values[1:]))
            if not all(map(math.isfinite, rec[1:])):
                raise DomainError(f"non-finite value in record {rec}")
            trace.append(rec)
        return trace


@dataclass
class ApproximationResult:
    """Final iterates and diagnostics of a projection solver run.

    ``x`` is the rank-r iterate (may carry tiny negative entries), ``y``
    its nonnegative clamp.  Errors are reported against the input for
    both; comparisons with published tables use ``rel_error_x``.
    """

    x: SvdTriplet
    y: np.ndarray
    rel_error_x: float
    rel_error_y: float
    trace: IterationTrace
    degenerate_rank: bool

    @property
    def converged(self) -> bool:
        return self.trace.converged


class NmfResult(NamedTuple):
    """Factors and trace of an NMF run; unpacks as ``(b, c, trace)``.

    Reads like :class:`ApproximationResult`: the approximation ``y`` is
    ``b @ c``, nonnegative already, so both errors are its error.
    """

    b: np.ndarray
    c: np.ndarray
    trace: IterationTrace
    degenerate_rank = False

    @property
    def y(self) -> np.ndarray:
        return matmul(self.b, self.c)

    @property
    def rel_error_x(self) -> float:
        return self.trace.records[-1].rel_error

    rel_error_y = rel_error_x

    @property
    def converged(self) -> bool:
        return self.trace.converged


def ap_solve(
    a: np.ndarray,
    cfg: SolverConfig,
    on_iterate: Optional[Callable] = None,
) -> ApproximationResult:
    """Alternating projections with a full truncated SVD every iteration.

    Iterates ``X <- best_rank_r(Y)``, ``Y <- clamp(X)`` from ``X = best
    rank r of A``.  Each truncation is one ``eigh`` of the iterate's Gram
    matrix where that is accurate, else ``gesdd``; where ``a`` is exactly
    symmetric and ``GRAM_PARTIAL_RATIO * r > n``, it is one ``eigh`` of the
    iterate itself.  ``on_iterate(k, x_dense, y)``, when given, is called
    after every iteration (used by tests to inspect iterates).
    """
    return _project_solve(a, cfg, use_tangent=False, on_iterate=on_iterate)


def tap_solve(
    a: np.ndarray,
    cfg: SolverConfig,
    on_iterate: Optional[Callable] = None,
) -> ApproximationResult:
    """Alternating projections through the tangent space of the last iterate.

    After the initial full-size truncated SVD, each step projects Y onto
    the tangent space at X (two thin QRs) and retracts via the SVD of the
    2r x 2r core, so no further m x n SVD is performed.  That holds when
    2r <= min(m, n); above that rank each step evaluates the projection
    densely and truncates it with a full SVD, as :func:`ap_solve` does.
    That dense step computes ``Y - C (C'Y - (C'Y V) V')`` (m <= n) or
    ``Y - (Y D - U (U'Y D)) D'`` (m > n), where C (D) is the complement of
    U (V) that the previous truncation returned along with X: about
    4 (m - r) n (m + r) flops against 8 r m n + 2 r^2 (m + n) for the
    reference formula of :func:`nlrm.projections.tangent_project_dense`.
    The initial and the fallback truncations each run one ``eigh`` in place
    of that SVD: of the Gram matrix, unless ``gesdd`` is needed for
    accuracy (:func:`nlrm.linalg.thin_svd`), or of the matrix itself when
    ``a`` is square, exactly equal to ``a.T`` and ``GRAM_PARTIAL_RATIO * r
    > n``, as in every dense-fallback run of such an input.
    """
    return _project_solve(a, cfg, use_tangent=True, on_iterate=on_iterate)


def _project_solve(a, cfg, use_tangent, on_iterate):
    if cfg.max_iter < 1:
        raise DomainError("projection solvers need max_iter >= 1")
    r = cfg.rank
    x = y = comp = None
    sym = fallback = False

    def truncate(b):
        nonlocal x, comp
        if fallback:
            x, comp = project_fixed_rank(b, r, symmetric=sym, complement=True)
        else:
            x = project_fixed_rank(b, r, symmetric=sym)

    def step(a, k):
        nonlocal x, y, sym, fallback
        if k == 1:
            m, n = a.shape
            # Where 2r > min(m, n), [U Q] cannot have 2r orthonormal columns:
            # TAP evaluates the same operator densely, through the complement
            # basis that each of its truncations then also returns.
            fallback = use_tangent and 2 * r > min(m, n)
            # An exactly symmetric input sends every full-size truncation
            # through eigh where the top-r Gram route cannot run: r is too
            # large a share of n for dsyevr, which covers the dense fallback
            # and its complement.  Later truncation inputs are symmetric only
            # up to rounding; eigh reads one triangle, which truncates its
            # symmetric completion.  The first row against the first column
            # rejects most other inputs in O(n).
            sym = (GRAM_PARTIAL_RATIO * r > min(m, n) and m == n
                   and np.array_equal(a[0], a[:, 0]) and np.array_equal(a, a.T))
            truncate(a)
        elif not use_tangent:
            truncate(y)
        elif fallback:
            truncate(tangent_project_dense(TangentFrame(x.u, x.v), y, comp))
        else:
            x = retract_to_rank(tangent_project_structured(TangentFrame(x.u, x.v), y), r)
        x_dense = x.reconstruct()
        y = project_nonnegative(x_dense)
        return x_dense

    hook = None if on_iterate is None else (lambda k, x_dense: on_iterate(k, x_dense, y))
    a, norm_a, trace = _iterate(a, cfg, 1, step, hook)
    return ApproximationResult(
        x=x,
        y=y,
        rel_error_x=trace.records[-1].rel_error,
        rel_error_y=frobenius_norm(a - y) / norm_a,
        trace=trace,
        degenerate_rank=bool(x.s[0] == 0.0 or x.s[-1] <= 1e-13 * x.s[0]),
    )


_NMF_EPS = 1e-12  # additive guard against zero denominators


def nmf_mu_solve(a: np.ndarray, cfg: SolverConfig) -> NmfResult:
    """Multiplicative-update NMF for ``a ~ b @ c`` with b, c >= 0.

    One run from the uniform(0, 1) initialization drawn from ``cfg.seed``;
    restart protocols live in the benchmark harness.  Returns an
    :class:`NmfResult` ``(b, c, trace)``; the trace records the
    initialization as iteration 0.
    """

    def update(a_mat, b, c):
        b *= matmul(a_mat, c.T) / (matmul(b, matmul(c, c.T)) + _NMF_EPS)
        c *= matmul(b.T, a_mat) / (matmul(matmul(b.T, b), c) + _NMF_EPS)

    return _nmf_solve(a, cfg, update)


def nmf_hals_solve(a: np.ndarray, cfg: SolverConfig) -> NmfResult:
    """Hierarchical ALS NMF: cyclic column/row updates clamped at zero.

    Same calling convention as :func:`nmf_mu_solve`.
    """
    return _nmf_solve(a, cfg, _hals_update)


def _hals_update(a, b, c):
    """One HALS sweep over the columns of ``b``, then the rows of ``c``, in place.

    Each column (row) product goes into one reused buffer and is logged as
    the m x r x 1 (1 x r x n) matmul it is.
    """
    (m, r), n = b.shape, c.shape[1]
    w = matmul(a, c.T)          # m x r
    s = matmul(c, c.T)          # r x r
    col = np.empty(m)
    for j in range(r):
        instrument.log_matmul(m, r, 1)
        np.dot(b, s[:, j], out=col)
        _hals_clamped_step(b[:, j], w[:, j], s[j, j], col)
    w2 = matmul(b.T, a)         # r x n
    s2 = matmul(b.T, b)         # r x r
    row = np.empty(n)
    for j in range(r):
        instrument.log_matmul(1, r, n)
        np.dot(s2[j], c, out=row)
        _hals_clamped_step(c[j], w2[j], s2[j, j], row)


def _hals_clamped_step(x, w, s_jj, p):
    """``x <- max(0, x + (w - p) / max(s_jj, eps))`` in place; ``p`` is overwritten.

    The operations run in the expression's order, so the bits are those of
    evaluating it with temporaries; ``0.0`` stays the first argument of
    ``maximum``, which decides the sign of a zero result.
    """
    np.subtract(w, p, out=p)
    np.divide(p, max(s_jj, _NMF_EPS), out=p)
    np.add(x, p, out=p)
    np.maximum(0.0, p, out=x)


def _nmf_solve(a, cfg, update):
    if cfg.seed is None:
        raise DomainError("NMF initialization requires cfg.seed")
    b = c = None

    def step(a, k):
        nonlocal b, c
        if k == 0:
            m, n = a.shape
            r = cfg.rank
            draws = random_uniform(cfg.seed, m * r + r * n)
            b = draws[: m * r].reshape(m, r).copy()
            c = draws[m * r :].reshape(r, n).copy()
        else:
            update(a, b, c)
        return matmul(b, c)

    _, _, trace = _iterate(a, cfg, 0, step)
    return NmfResult(b, c, trace)


def _iterate(a, cfg, first, step, on_iterate=None):
    """The iteration loop every solver runs.

    ``step(a, k)`` returns the dense iterate of iteration ``k``: the
    initialization at ``k == first``, one update after that.  Each
    iteration is timed and traced; the run ends on the stopping rule, which
    marks the trace ``converged``, or else at ``cfg.max_iter``.  A record's
    error comes from two dot products while the previous record's was at
    least ``_EXPANDED_ERROR_MIN``, and from ``A - X`` when it or the
    expansion falls below that or is not finite.  Returns the validated
    input, its Frobenius norm and the trace.
    """
    a = as_matrix(a, "input matrix")
    if (a < 0).any():
        warnings.warn(
            "input matrix has negative entries; proceeding anyway",
            RuntimeWarning,
            stacklevel=_outside_stacklevel(),
        )
    norm_a = frobenius_norm(a)
    if norm_a == 0.0:
        raise DomainError("cannot approximate a zero matrix (relative error undefined)")
    if norm_a == math.inf:
        raise NumericError("input matrix norm overflows float64 (relative error undefined)")

    sq_norm_a = float(np.vdot(a, a))
    eps = float(np.finfo(np.float64).eps)
    trace = IterationTrace()
    elapsed = 0.0
    prev = math.inf  # the initialization has no relative change to test
    for k in range(first, cfg.max_iter + 1):
        tic = perf_counter()
        dense = step(a, k)
        err = math.nan
        if prev >= _EXPANDED_ERROR_MIN:
            sq = sq_norm_a - 2.0 * float(np.vdot(a, dense)) + float(np.vdot(dense, dense))
            err = math.sqrt(max(sq, 0.0)) / norm_a
        if not _EXPANDED_ERROR_MIN <= err < math.inf:
            err = frobenius_norm(a - dense) / norm_a
        min_entry = float(dense.min())
        elapsed += perf_counter() - tic
        trace.append(TraceRecord(k, err, elapsed, min_entry))
        if on_iterate is not None:
            on_iterate(k, dense)
        if err < FIXED_POINT_TOL or abs(err - prev) / max(err, eps) < cfg.rel_change_tol:
            trace.converged = True
            break
        prev = err
    return a, norm_a, trace


def _outside_stacklevel():
    """The ``stacklevel`` that names the caller's first frame outside this
    module, whether it called a solver directly or through :func:`solve`."""
    frame, level = sys._getframe(1), 1
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


METHODS = ("tap", "ap", "mu", "hals")


def solve(method: str, a: np.ndarray, cfg: SolverConfig):
    """Run the solver named ``method`` (one of :data:`METHODS`) on ``a``.

    The solver functions are looked up at call time, so a module attribute
    rebound by a profiler is the one that runs.
    """
    solvers = {"tap": tap_solve, "ap": ap_solve, "mu": nmf_mu_solve, "hals": nmf_hals_solve}
    if method not in solvers:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return solvers[method](a, cfg)


def contraction_rate_estimate(trace: IterationTrace, tail_fraction: float):
    """Empirical linear-convergence rate from the tail of an error trace.

    Uses the final trace error as the limit proxy and fits a least-squares
    line to ``log |e_k - e_last|`` over the tail window, keeping records
    whose distance to the limit exceeds 1e-15.  The absolute value matters:
    iterates started from the unconstrained best rank-r point approach the
    limit from below, so the excess error may be negative while its
    magnitude still decays geometrically.  Returns ``(c_hat, r_squared)``
    where ``c_hat`` is the exponentiated slope per iteration.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise DomainError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    n = len(trace)
    if n < 10:
        raise InsufficientDataError(f"trace has {n} records; need at least 10")

    errors = np.asarray(trace.rel_errors, dtype=np.float64)
    iters = np.asarray(trace.iterations, dtype=np.float64)
    window = slice(n - math.ceil(tail_fraction * n), n)
    excess = np.abs(errors[window] - errors[-1])
    usable = excess > _LOG_FLOOR
    if int(usable.sum()) < 3:
        raise InsufficientDataError(
            f"only {int(usable.sum())} usable points in the tail window; need at least 3"
        )
    x = iters[window][usable]
    y = np.log(excess[usable])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(residuals @ residuals)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), float(r_squared)
