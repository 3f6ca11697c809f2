"""Matrix and result-file I/O.

Two matrix formats are supported: headerless comma-separated values
(row-major) and the MatrixMarket dense "array" format (column-major, as
the format requires); a file's name picks its format unless the caller
names one.  Values are written with 17 significant digits so a read of a
write reproduces every float64 bit-for-bit.  Both formats are read with
``np.loadtxt`` from an open file, which holds about the output array and
not the file text, and written with ``np.savetxt``.  When numpy rejects an
input, a per-token pass with Python's ``float`` either names the offending
line or reads the rare token only ``float`` accepts (``1_0``, non-ASCII
digits).  Result files are JSON with a versioned schema.
"""

import json
import warnings

import numpy as np

from .errors import ParseError, ShapeError
from .linalg import as_matrix
from .solvers import IterationTrace

RESULT_SCHEMA = 1

CSV = "csv"
MATRIX_MARKET = "matrix_market_dense"
_FORMATS = (CSV, MATRIX_MARKET)

_MM_BANNER = "%%MatrixMarket matrix array real general"


def write_matrix(m, path, format: str | None = None) -> None:
    """Write a matrix to ``path`` in ``format``, by default ``format_for_path(path)``."""
    m = as_matrix(m, "matrix")
    format = format_for_path(path) if format is None else format
    if 0 in m.shape:
        # neither format's reader accepts an empty matrix, so the round trip would break
        raise ShapeError(
            f"cannot write a {m.shape[0]}x{m.shape[1]} matrix; both dimensions must be positive"
        )
    # a file, not a path: savetxt would compress a path ending in ".gz" or ".bz2"
    if format == CSV:
        with open(path, "w") as fh:
            np.savetxt(fh, m, fmt="%.17g", delimiter=",")
    elif format == MATRIX_MARKET:
        rows, cols = m.shape
        with open(path, "w") as fh:
            # array format is column-major; each row of m.T is one column's lines
            np.savetxt(fh, m.T, fmt="%.17g", delimiter="\n",
                       header=f"{_MM_BANNER}\n{rows} {cols}", comments="")
    else:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")


def read_matrix(path, format: str | None = None) -> np.ndarray:
    """Read a matrix from ``path``; parse errors name the offending line.

    ``format`` defaults to ``format_for_path(path)``; an explicit one wins.
    """
    format = format_for_path(path) if format is None else format
    reader = {CSV: _read_csv, MATRIX_MARKET: _read_matrix_market}.get(format)
    if reader is None:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")
    try:
        return reader(path)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None


def format_for_path(path) -> str:
    """Pick a format from a file extension (.mtx -> MatrixMarket, else CSV)."""
    return MATRIX_MARKET if str(path).lower().endswith(".mtx") else CSV


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        values = _loadtxt(fh, ",")
        if values is not None:
            return values
        fh.seek(0)
        rows = []
        width = None
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


def _read_matrix_market(path):
    with open(path, encoding="utf-8") as fh:
        lines = []              # banner, "%" comment lines, size line
        for line in iter(fh.readline, ""):
            lines.append(line)
            if not line.lstrip().startswith("%"):
                break
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

        start = fh.tell()
        values = _loadtxt(fh, None)
        if values is None or values.size != rows * cols:
            # a bad token is reported before a wrong count, with its line number
            fh.seek(start)
            values = []
            for lineno, text in enumerate(fh.read().split("\n"), start=idx + 2):
                for tok in text.split():
                    values.append(_parse_value(tok, path, lineno))
            if len(values) != rows * cols:
                raise ParseError(
                    f"{path}: expected {rows * cols} values, found {len(values)}"
                )
            values = np.array(values, dtype=np.float64)
    return values.reshape(cols, rows).T


def _loadtxt(fh, delimiter):
    """The rest of ``fh`` as a 2-D float64 array, or None if numpy rejects it.

    numpy reads the tokens Python's ``float`` reads, to the same bits, except
    ``1_0`` and non-ASCII digits.  None also stands for no data and for a
    non-finite value; callers then rerun ``_parse_value`` per token, which
    raises its line-numbered message or reads those rare tokens.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # "input contained no data"
            values = np.loadtxt(fh, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:      # also UnicodeDecodeError; the per-token pass raises it again
        return None
    return values if values.size and np.isfinite(values).all() else None


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
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    rows = payload.get("trace") if isinstance(payload, dict) else payload
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{path}: no trace records found")
    try:
        return IterationTrace.from_dicts(rows)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed trace record: {exc}") from None
