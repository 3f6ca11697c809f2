"""Matrix and result-file I/O.

Two matrix formats are supported: headerless comma-separated values
(row-major) and the MatrixMarket dense "array" format (column-major, as
the format requires); a file's name picks its format unless the caller
names one.  This module writes and parses the MatrixMarket header and
routes each file; ``nlrm.matrixtext``, imported on the first read or
write, turns the numbers into text and back.  A file that it declines
(spaces around a value, ``1_0``, non-ASCII digits, a bad token, a ragged
row) is read again by one line pass for both formats, in which numpy
calls ``float`` on each token and the line of the first bad one is named.
An input that cannot seek, such as a pipe, is read into memory once, so
both routes can read it.

Result files are JSON with a versioned schema.  An output that replaces an
existing regular file of the user's own is unlinked and created anew rather
than truncated, and any other path (a symlink, a hard link, a device) is
written in place, as ``open_output`` says.
"""

import io
import json
import math
import os
import stat

import numpy as np

from .errors import ParseError, ShapeError
from .linalg import as_matrix
from .solvers import IterationTrace

RESULT_SCHEMA = 1

CSV = "csv"
MATRIX_MARKET = "matrix_market_dense"
_FORMATS = (CSV, MATRIX_MARKET)

_MM_BANNER = "%%MatrixMarket matrix array real general"
_LINE_BATCH = 8192              # tokens of '%.17g' a line-pass batch holds, about


def write_matrix(m, path, format: str | None = None) -> None:
    """Write a matrix to ``path`` in ``format``, by default ``format_for_path(path)``."""
    from . import matrixtext        # on first use: see its docstring
    m = as_matrix(m, "matrix")
    format = format_for_path(path) if format is None else format
    if 0 in m.shape:
        # neither format's reader accepts an empty matrix, so the round trip would break
        raise ShapeError(
            f"cannot write a {m.shape[0]}x{m.shape[1]} matrix; both dimensions must be positive"
        )
    if format == CSV:
        header, values, per_line = b"", m, m.shape[1]
    elif format == MATRIX_MARKET:
        # array format is column-major, one value a line: m.T's C order is m's column order
        header, values, per_line = f"{_MM_BANNER}\n{m.shape[0]} {m.shape[1]}\n".encode(), m.T, 1
    else:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")
    with open_output(path) as fh:
        fh.buffer.write(header)
        matrixtext.write_blocks(fh.buffer, values, per_line)


def open_output(path):
    """Open ``path`` for writing text, as ``open(path, "w")`` does.

    An existing regular file that the effective user and group own and may
    write, with one link and no set-id or sticky bit, is unlinked and
    created anew with its permission bits instead of truncated: ext4
    (``auto_da_alloc``) flushes a truncated and rewritten file to disk on
    close, which a new file does not wait for.  Any other path, and a file
    the user may not unlink, is opened in place, so symlinks and hard links
    write through to the file they name.
    """
    try:
        st = os.lstat(path)
    except OSError:                         # no such file; open() reports any other error
        st = None
    if (
        st is not None and hasattr(os, "geteuid")
        and stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and not st.st_mode & 0o7000
        and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
        and os.access(path, os.W_OK)
    ):
        try:
            os.unlink(path)
        except OSError:                     # e.g. a directory the user may not write
            pass
        else:
            mode = stat.S_IMODE(st.st_mode)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
            try:
                os.fchmod(fd, mode)         # os.open's mode passes through the umask
            except OSError:
                os.close(fd)
                raise
            return os.fdopen(fd, "w")
    return open(path, "w")


def read_matrix(path, format: str | None = None) -> np.ndarray:
    """Read a matrix from ``path``; parse errors name the offending line.

    ``format`` defaults to ``format_for_path(path)``; an explicit one wins.
    """
    from . import matrixtext        # on first use: see its docstring

    format = format_for_path(path) if format is None else format
    if format not in _FORMATS:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")
    try:
        with _open_binary(path) as raw, io.TextIOWrapper(raw, encoding="utf-8") as fh:
            lineno, shape = (0, None) if format == CSV else _read_header(fh, path)
            start = fh.tell()
            values = (matrixtext.read_blocks(raw, csv=True) if shape is None
                      else matrixtext.read_body(raw, lineno, shape[0] * shape[1]))
            if values is None:
                fh.seek(start)
                values = _read_lines(fh, path, lineno, shape)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None
    return values if shape is None else values.reshape(shape[::-1]).T     # column-major


def format_for_path(path) -> str:
    """Pick a format from a file extension (.mtx -> MatrixMarket, else CSV)."""
    return MATRIX_MARKET if str(path).lower().endswith(".mtx") else CSV


def _open_binary(path):
    """``path`` opened for binary reads that may seek back: an input that
    cannot seek, such as a pipe, is read into memory once."""
    raw = open(path, "rb")
    if raw.seekable():
        return raw
    with raw:
        return io.BytesIO(raw.read())


def _read_header(fh, path):
    """The MatrixMarket header at the start of ``fh``: its number of lines and ``(rows, cols)``."""
    first = fh.readline()
    if not first:
        raise ParseError(f"{path}: empty file")
    banner = first.split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise ParseError(f"{path}: line 1: not a MatrixMarket header")
    obj, fmt, field, symmetry = (tok.lower() for tok in banner[1:])
    if obj != "matrix":
        raise ParseError(f"{path}: line 1: unsupported object {obj!r}")
    if fmt != "array":
        raise ParseError(f"{path}: line 1: only dense 'array' format is supported, got {fmt!r}")
    if field != "real":
        raise ParseError(f"{path}: line 1: unsupported field {field!r}")
    if symmetry != "general":
        raise ParseError(f"{path}: line 1: unsupported symmetry {symmetry!r}")
    # skip "%" comment lines; the first other line is the size line
    for lineno, size_line in enumerate(iter(fh.readline, ""), start=2):
        if not size_line.lstrip().startswith("%"):
            break
    else:
        raise ParseError(f"{path}: missing size line")
    size_tokens = size_line.split()
    if len(size_tokens) != 2:
        raise ParseError(
            f"{path}: line {lineno}: size line must be 'rows cols', got {size_line!r}"
        )
    try:
        rows, cols = int(size_tokens[0]), int(size_tokens[1])
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-integer size entry") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"{path}: line {lineno}: dimensions must be positive")
    return lineno, (rows, cols)


def _read_lines(fh, path, lineno, shape):
    """The values on the lines of text file ``fh`` after line ``lineno``.

    CSV (``shape`` None) skips blank lines and gives ``(rows, width)``;
    MatrixMarket splits at whitespace and gives ``rows * cols`` values.  A
    batch of lines that numpy's ``float`` calls reject, or a ragged one, is
    read again by ``_walk``, which raises the first error in line order.
    """
    chunks, width = [], None
    while batch := fh.readlines(16 * _LINE_BATCH):     # whole lines
        values = None
        if shape is not None:
            values = _floats("".join(batch).split())
        else:
            rows = [line for line in map(str.strip, batch) if line]
            width = width or (rows[0].count(",") + 1 if rows else None)
            if all(row.count(",") == width - 1 for row in rows):
                values = _floats(",".join(rows).split(","))
        if values is None:
            values = _walk(batch, path, lineno, shape, width)
        chunks.append(values)
        lineno += len(batch)
    values = np.concatenate(chunks) if chunks else np.empty(0)
    if shape is None:
        if width is None:
            raise ParseError(f"{path}: no data rows")
        return values.reshape(-1, width)
    if values.size != shape[0] * shape[1]:
        raise ParseError(f"{path}: expected {shape[0] * shape[1]} values, found {values.size}")
    return values


def _floats(tokens):
    """``tokens`` as float64 by ``float``, or None if one is not a finite number."""
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _walk(batch, path, lineno, shape, width):
    """``_read_lines`` on ``batch`` one line at a time, raising the first error's message."""
    values = []
    for lineno, line in enumerate(batch, start=lineno + 1):
        if shape is None:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                )
        else:
            fields = line.split()
        for token in fields:
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric token {token!r}") from None
            if not math.isfinite(values[-1]):
                raise ParseError(f"{path}: line {lineno}: non-finite value {token!r}")
    return np.array(values, dtype=np.float64)


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
    text = json.dumps(obj, indent=2, allow_nan=False)  # NaN and Infinity are not JSON
    with open_output(path) as fh:
        fh.write(text + "\n")


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
