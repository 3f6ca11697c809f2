"""Matrix and result-file I/O.

Two matrix formats are supported: headerless comma-separated values
(row-major) and the MatrixMarket dense "array" format (column-major, as
the format requires).  Values are written with 17 significant digits so a
read of a write reproduces every float64 bit-for-bit.  Result files are
JSON with a versioned schema.
"""

import json

import numpy as np

from .errors import ParseError
from .linalg import as_matrix
from .solvers import IterationTrace

RESULT_SCHEMA = 1

CSV = "csv"
MATRIX_MARKET = "matrix_market_dense"
_FORMATS = (CSV, MATRIX_MARKET)

_MM_BANNER = "%%MatrixMarket matrix array real general"


def write_matrix(m, path, format: str = CSV) -> None:
    """Write a matrix to ``path`` in the given format."""
    m = as_matrix(m, "matrix")
    if format == CSV:
        _write_csv(m, path)
    elif format == MATRIX_MARKET:
        _write_matrix_market(m, path)
    else:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")


def read_matrix(path, format: str = CSV) -> np.ndarray:
    """Read a matrix from ``path``; parse errors name the offending line."""
    if format == CSV:
        return _read_csv(path)
    if format == MATRIX_MARKET:
        return _read_matrix_market(path)
    raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")


def format_for_path(path) -> str:
    """Pick a format from a file extension (.mtx -> MatrixMarket, else CSV)."""
    return MATRIX_MARKET if str(path).lower().endswith(".mtx") else CSV


def _write_csv(m, path):
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join("%.17g" % val for val in row))
            fh.write("\n")


def _read_csv(path):
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                )
            rows.append([_parse_value(tok, path, lineno) for tok in fields])
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def _write_matrix_market(m, path):
    rows, cols = m.shape
    with open(path, "w") as fh:
        fh.write(_MM_BANNER + "\n")
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):       # array format is column-major
            for i in range(rows):
                fh.write("%.17g\n" % m[i, j])


def _read_matrix_market(path):
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    banner = lines[0].strip().split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise ParseError(f"{path}: line 1: not a MatrixMarket header")
    obj, fmt, field, symmetry = (tok.lower() for tok in banner[1:])
    if obj != "matrix":
        raise ParseError(f"{path}: line 1: unsupported object {obj!r}")
    if fmt != "array":
        raise ParseError(
            f"{path}: line 1: only dense 'array' format is supported, got {fmt!r}"
        )
    if field != "real":
        raise ParseError(f"{path}: line 1: unsupported field {field!r}")
    if symmetry != "general":
        raise ParseError(f"{path}: line 1: unsupported symmetry {symmetry!r}")

    lineno = 1
    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    if idx >= len(lines):
        raise ParseError(f"{path}: missing size line")
    size_tokens = lines[idx].split()
    if len(size_tokens) != 2:
        raise ParseError(
            f"{path}: line {idx + 1}: size line must be 'rows cols', got {lines[idx]!r}"
        )
    try:
        rows, cols = int(size_tokens[0]), int(size_tokens[1])
    except ValueError:
        raise ParseError(f"{path}: line {idx + 1}: non-integer size entry") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"{path}: line {idx + 1}: dimensions must be positive")

    values = []
    for lineno in range(idx + 1, len(lines)):
        for tok in lines[lineno].split():
            values.append(_parse_value(tok, path, lineno + 1))
    if len(values) != rows * cols:
        raise ParseError(
            f"{path}: expected {rows * cols} values, found {len(values)}"
        )
    return np.array(values, dtype=np.float64).reshape(cols, rows).T


def _parse_value(token, path, lineno):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-numeric token {token!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"{path}: line {lineno}: non-finite value {token!r}")
    return value


def result_record(method: str, rank: int, result) -> dict:
    """JSON-ready record of a solver result (``ApproximationResult`` or ``NmfResult``)."""
    return {
        "schema": RESULT_SCHEMA,
        "method": method,
        "rank": rank,
        "rel_error_x": result.rel_error_x,
        "rel_error_y": result.rel_error_y,
        "iters": len(result.trace),
        "seconds": result.trace.seconds,
        "converged": result.converged,
        "degenerate_rank": result.degenerate_rank,
        "trace": result.trace.to_dicts(),
    }


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_trace(path) -> IterationTrace:
    """Load an iteration trace from a result record or a bare record list."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    rows = payload.get("trace") if isinstance(payload, dict) else payload
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{path}: no trace records found")
    try:
        return IterationTrace.from_dicts(rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed trace record: {exc}") from None
