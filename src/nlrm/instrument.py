"""Operation recording for cost-structure assertions.

The tangent-space solver gets its speed from never touching the full
``m x n`` problem with an SVD after initialization; tests assert that by
recording the shapes every kernel call sees.  Recording is off unless a
``record_ops()`` context is active, and is meant for single-threaded
diagnostic use.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class OpLog:
    """Shapes observed while a ``record_ops`` context was active.

    ``svd_shapes`` has one entry per full or core decomposition, SVD or ``eigh``.
    """

    matmul_shapes: list = field(default_factory=list)  # (rows_a, inner, cols_b)
    svd_shapes: list = field(default_factory=list)     # (rows, cols)


_active: list = []


def log_matmul(rows: int, inner: int, cols: int) -> None:
    for log in _active:
        log.matmul_shapes.append((rows, inner, cols))


def log_svd(rows: int, cols: int) -> None:
    for log in _active:
        log.svd_shapes.append((rows, cols))


@contextmanager
def record_ops():
    """Collects kernel-call shapes into an :class:`OpLog` while active."""
    log = OpLog()
    _active.append(log)
    try:
        yield log
    finally:
        _active.remove(log)
