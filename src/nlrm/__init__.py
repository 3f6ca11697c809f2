"""Nonnegative low-rank matrix approximation.

Approximates a nonnegative matrix by a nonnegative matrix of fixed rank r
via alternating projections between the fixed-rank manifold and the
nonnegative orthant.  The tangent-space variant (``tap_solve``) reaches
the same accuracy as the direct method (``ap_solve``) while replacing the
per-iteration full SVD with two thin QRs and a 2r x 2r SVD, as long as
2r <= min(m, n); above that rank each step runs a full SVD.  Each
full-size truncation picks its route from the input: one ``eigh`` of the
smaller Gram matrix of a well-conditioned input, ``gesdd`` otherwise, or
one ``eigh`` of an exactly symmetric input where the top-r Gram route
cannot run.  NMF baselines, dataset generators, matrix I/O and a
benchmark harness are included; see the ``nlrm`` command-line tool.
"""

from .bench import BenchCell, BenchReport, run_bench, table1_grid
from .datagen import (
    gen_graph_similarity,
    gen_orthogonal_decomposable,
    gen_separable_case1,
    gen_uniform,
)
from .errors import (
    DomainError,
    InsufficientDataError,
    NlrmError,
    NumericError,
    ParseError,
    ShapeError,
)
from .instrument import OpLog, record_ops
from .linalg import (
    QrFactors,
    SvdTriplet,
    as_matrix,
    frobenius_norm,
    householder_qr,
    matmul,
    thin_svd,
)
from .matio import read_matrix, write_matrix
from .projections import (
    TangentFactored,
    TangentFrame,
    project_fixed_rank,
    project_nonnegative,
    retract_to_rank,
    tangent_project_dense,
    tangent_project_structured,
)
from .solvers import (
    ApproximationResult,
    IterationTrace,
    NmfResult,
    SolverConfig,
    TraceRecord,
    ap_solve,
    contraction_rate_estimate,
    nmf_hals_solve,
    nmf_mu_solve,
    solve,
    tap_solve,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationResult",
    "BenchCell",
    "BenchReport",
    "DomainError",
    "InsufficientDataError",
    "IterationTrace",
    "NlrmError",
    "NmfResult",
    "NumericError",
    "OpLog",
    "ParseError",
    "QrFactors",
    "ShapeError",
    "SolverConfig",
    "SvdTriplet",
    "TangentFactored",
    "TangentFrame",
    "TraceRecord",
    "ap_solve",
    "as_matrix",
    "contraction_rate_estimate",
    "frobenius_norm",
    "gen_graph_similarity",
    "gen_orthogonal_decomposable",
    "gen_separable_case1",
    "gen_uniform",
    "householder_qr",
    "matmul",
    "nmf_hals_solve",
    "nmf_mu_solve",
    "project_fixed_rank",
    "project_nonnegative",
    "read_matrix",
    "record_ops",
    "retract_to_rank",
    "run_bench",
    "solve",
    "table1_grid",
    "tangent_project_dense",
    "tangent_project_structured",
    "tap_solve",
    "thin_svd",
    "write_matrix",
]
