"""Matrix and result-file I/O.

Two matrix formats are supported: headerless comma-separated values
(row-major) and the MatrixMarket dense "array" format (column-major, as
the format requires).  Values are written with 17 significant digits so a
read of a write reproduces every float64 bit-for-bit.  Result files are
JSON with a versioned schema.
"""

import json

import numpy as np

from .errors import ParseError, ShapeError
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
    if 0 in m.shape:
        # neither format's reader accepts an empty matrix, so the round trip would break
        raise ShapeError(
            f"cannot write a {m.shape[0]}x{m.shape[1]} matrix; both dimensions must be positive"
        )
    if format == CSV:
        _write_csv(m, path)
    elif format == MATRIX_MARKET:
        _write_matrix_market(m, path)
    else:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")


def read_matrix(path, format: str = CSV) -> np.ndarray:
    """Read a matrix from ``path``; parse errors name the offending line."""
    if format == CSV:
        reader = _read_csv
    elif format == MATRIX_MARKET:
        reader = _read_matrix_market
    else:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")
    try:
        return reader(path)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None


def format_for_path(path) -> str:
    """Pick a format from a file extension (.mtx -> MatrixMarket, else CSV)."""
    return MATRIX_MARKET if str(path).lower().endswith(".mtx") else CSV


# Writers format one row (CSV) or one column (MatrixMarket) per ``%`` call
# from Python floats: the same "%.17g" per value, so the bytes do not depend
# on the grouping, and only one row's or column's text is held at a time.

def _write_csv(m, path):
    template = ",".join(["%.17g"] * m.shape[1]) + "\n"
    with open(path, "w") as fh:
        for row in m:
            fh.write(template % tuple(row.tolist()))


def _read_csv(path):
    rows = None             # grown by doubling; the first ``nrows`` are filled
    nrows = 0
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                rows = np.empty((64, width))
            elif len(fields) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                )
            if nrows == len(rows):
                rows = np.concatenate([rows, np.empty_like(rows)])
            values = _floats(fields)
            if values is None:
                values = [_parse_value(tok, path, lineno) for tok in fields]
            rows[nrows] = values
            nrows += 1
    if not nrows:
        raise ParseError(f"{path}: no data rows")
    return rows[:nrows].copy()


def _write_matrix_market(m, path):
    rows, cols = m.shape
    template = "%.17g\n" * rows
    with open(path, "w") as fh:
        fh.write(_MM_BANNER + "\n")
        fh.write(f"{rows} {cols}\n")
        for col in m.T:             # array format is column-major
            fh.write(template % tuple(col.tolist()))


def _read_matrix_market(path):
    with open(path, encoding="utf-8") as fh:
        lines = []              # banner, "%" comment lines, size line
        for line in iter(fh.readline, ""):
            lines.append(line)
            if not line.lstrip().startswith("%"):
                break
        body = fh.read()
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

    tokens = body.split()
    values = _floats(tokens) if len(tokens) == rows * cols else None
    if values is None:
        # a bad token is reported before a wrong count, with its line number
        values = []
        for lineno, text in enumerate(body.split("\n"), start=idx + 2):
            for tok in text.split():
                values.append(_parse_value(tok, path, lineno))
        if len(values) != rows * cols:
            raise ParseError(
                f"{path}: expected {rows * cols} values, found {len(values)}"
            )
        values = np.array(values, dtype=np.float64)
    return values.reshape(cols, rows).T


def _floats(tokens):
    """All ``tokens`` as float64 in one pass, or None if one is not a finite number.

    Python's ``float`` is the grammar ``_parse_value`` applies, so this accepts
    exactly the tokens it accepts; on None, callers rerun ``_parse_value`` per
    token for its line-numbered message.
    """
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


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
