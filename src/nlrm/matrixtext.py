"""Exact matrix text: float64 to ``'%.17g'`` text and back, a block at a time.

``matio`` imports this module on the first matrix read or write, so a
process that touches no matrix file holds none of its tables.

Writing gives each value the bytes of ``'%.17g' % x``.  Zeros and
``1e-4 <= |x| < 1e17``, which ``%g`` prints in fixed notation, are computed
in numpy: ``x * 10**(16 - e)`` is formed exactly by Dekker's TwoProduct and
rounded half to even to 17 digits.  Other values take one ``%`` a block.

Reading cuts a file into blocks after their last value separator, and one
flatnonzero per block finds separators, points and exponent marks.  A
token ``[+-]d*[.d*][(e|E)[+-]d{1,3}]`` of 1 to 23 digits whose digits make
an integer ``n < 10**19`` becomes ``n``, read from three unaligned 8-byte
words by Lemire's eight-digit SWAR, and a decimal exponent ``q``; then
``n * 10**q`` is rounded once from a double-double product.  Where that
rounding is unsure, and for the rest of ``float``'s grammar, the value is
``float(token)``, so a read of a write gives back every bit.  Any other
token, a ragged CSV row or a wrong MatrixMarket count makes the readers
return None, and ``matio`` then reads the file by its line pass.
"""

import itertools
import math
import os
import re
from fractions import Fraction

import numpy as np

_BLOCK = 8192                   # values written a block: each temporary stays in cache
_U = np.uint64


def _split(a):
    """Veltkamp's split: ``a == hi + lo`` with each half at most 26 bits wide."""
    c = a * 134217729.0         # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])       # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)
# x >= 10**e iff x >= _TENS[e + 4]: the least double at or above each power of ten
_TENS = np.array([t if t >= Fraction(10) ** p else math.nextafter(t, math.inf)
                  for p in range(-4, 18) for t in [float(Fraction(10) ** p)]])
_ASCII4 = sum((np.arange(10000, dtype=_U) // _U(10**(3 - j)) % _U(10) + _U(48)) << _U(8 * j)
              for j in range(4))                            # "%04d" % i as the low 4 bytes
_FIRST = np.tril(np.full((33, 32), 255, np.uint8), -1).view(_U)  # row i: bytes 0..i-1 of a row
_DOT, _MINUS = ((np.eye(33, 32, dtype=np.uint8) * ord(c)).view(_U) for c in ".-")  # c at byte i


def write_blocks(out, values, per_line):
    """Write ``values`` in C order to binary file ``out``, ``per_line`` to a line."""
    for start in range(0, values.size, _BLOCK):
        block = values.flat[start:start + _BLOCK]
        seps = np.full(block.size, ord(","), _U)
        seps[per_line - 1 - start % per_line::per_line] = ord("\n")
        out.write(_format_block(block, seps))


def _ascii8(x):
    """Eight digits of each ``x < 10**8``, first digit in the lowest byte."""
    hi = x // 10000
    return _ASCII4.take(hi) | _ASCII4.take(x - hi * 10000) << _U(32)


def _last_nonzero(z):
    """Index of the last byte of eight digits ``z`` that is not "0", negative if none is."""
    # each byte of z ^ "00000000" is at most 9, so rounding to float64 cannot reach the next
    return (((z ^ _U(0x3030303030303030)).astype(np.float64).view(np.int64) >> 52) - 1023) >> 3


def _format_block(v, seps):
    """The bytes of ``'%.17g' % x`` and then byte ``sep``, for each ``x, sep`` in ``v, seps``."""
    # each value gets a 32-byte row; bytes that are not text are 0 (or, from '%', spaces)
    ax = np.abs(v)
    fixed = (ax == 0) | (ax >= 1e-4) & (ax < 1e17)
    if fixed.all():
        out = _fixed_rows(v)
    else:
        out = np.zeros((v.size, 4), _U)
        out[fixed] = _fixed_rows(v[fixed])
        rest = tuple(v[~fixed].tolist())   # '%.17g' gives at most 24 bytes: pad them to 32
        text = b"%-24.17g\0\0\0\0\0\0\0\0" * len(rest) % rest
        out[~fixed] = np.frombuffer(text, _U).reshape(-1, 4)
    out[:, 3] |= seps << _U(56)
    return out.tobytes().translate(None, b"\0 ")     # drop what is not text


def _fixed_rows(v):
    """``_format_block``'s rows for zeros and ``1e-4 <= |x| < 1e17``, computed exactly.

    ``x * 10**(16 - e) == hi + lo`` by Dekker's TwoProduct (numpy fuses no
    operations); ``hi`` is an even integer, so ``hi + rint(lo)`` rounds half to even.
    """
    ax = np.abs(v)
    zero = ax == 0
    x = np.where(zero, 1.0, ax)
    e = np.clip(np.floor(np.log10(x)), -4, 16).astype(np.intp)     # log10 may round across e
    e -= x < _TENS.take(e + 4)
    e += x >= _TENS.take(e + 5)
    k = 16 - e
    hi = x * _POW10.take(k)
    x_hi, x_lo = _split(x)
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    # d < 10**17: no double just below 1e-3, ..., 1e17 rounds up to that power at 17 digits
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    d[zero] = 0                 # with e = 0 this prints "0"
    # bytes 3..23 hold "0000" and d's digits; a point at byte p shifts the rest right by one
    head, lead = d // 10**8, d // 10**16
    mid, tail = _ascii8(head - lead * 10**8), _ascii8(d - head * 10**8)
    first = _ASCII4.take(lead) << _U(32) | _U(ord("0") << 24)
    row = np.stack([first, mid, tail, np.zeros_like(mid)], 1)
    shifted = row << _U(8)
    shifted.ravel()[1:] |= row.ravel()[:-1] >> _U(56)
    last = np.maximum(np.maximum(9 + _last_nonzero(tail), 1 + _last_nonzero(mid)), 0)
    end = 9 + last                              # past the last nonzero digit, point included
    p = 8 + e
    begin = np.minimum(7, 7 + e)                # "0.000" for e = -4, the first digit for e >= 0
    out = row & _FIRST.take(p, 0) & ~_FIRST.take(begin, 0)
    out |= shifted & _FIRST.take(end, 0) & ~_FIRST.take(p + 1, 0)
    out |= _DOT.take(np.where(end > p + 1, p, 32), 0)
    out |= _MINUS.take(np.where(np.signbit(v), begin - 1, 32), 0)
    return out


_EOL = re.compile(rb"\r\n|\r|\n")     # the line ends of text mode's universal newlines
_HEAD = 1 << 13                 # bytes first searched for a MatrixMarket header's line ends


def read_body(raw, lines, count):
    """The ``count`` values after the first ``lines`` lines of binary file ``raw``, or None."""
    raw.seek(0)
    head = raw.read(_HEAD)
    # search the whole buffer each time, so a "\r\n" split between reads is one line end
    while len(ends := [m.end() for m in itertools.islice(_EOL.finditer(head), lines)]) < lines:
        if not (more := raw.read(len(head))):      # twice the buffer, or the file ends
            return None
        head += more
    raw.seek(ends[-1])
    values = read_blocks(raw, csv=False, count=count)
    return None if values is None or values.size != count else values


_PAD = 32                       # zero bytes before and after a block in its buffer
_READ_MIN, _READ_MAX = 1 << 13, 1 << 18     # bytes read at a time: a 32nd of the file, within these
_Q_MIN, _Q_MAX = -307, 289      # n * 10**q is normal and finite for every n < 10**19


def _pow10_table():
    """Rows ``(hi, lo, hi_hi, hi_lo, k)``: ``10**q == (hi + lo) * 2**k`` to 2**-105, hi in [1, 2]."""
    rows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            k = (10**q).bit_length() - 1
            mant = (10**q << 120) >> k
        else:
            k = -(10**-q).bit_length()
            mant = (1 << (120 - k)) // 10**-q
        hi = float(mant)
        rows.append((hi, float(mant - int(hi)), k))
    hi, lo, k = np.array(rows).T
    hi, lo = hi * 2.0**-120, lo * 2.0**-120
    return np.stack([hi, lo, *_split(hi), k])


def _window_masks():
    """For a mantissa of ``lf`` fraction and ``li`` integer digits in the 24-byte
    window that ends where its fraction ends (or one byte after its integer),
    with the point at byte ``23 - lf``: the mask of its digit bytes, in column
    ``24 * lf + li``, and the mask of the bytes below the point, in column ``lf``."""
    byte = np.arange(24)
    point = 23 - np.arange(24)[:, None, None]
    digits = (byte >= point - np.arange(24)[:, None]) & (byte != point)
    def as_words(mask):
        return np.where(mask, 0xFF, 0).astype(np.uint8).view(np.uint64).reshape(-1, 3).T.copy()

    return as_words(digits), as_words(byte < point[:, 0])


_P10 = _pow10_table()
_DIGITS, _BELOW_POINT = _window_masks()
_EXP = np.array([0] + [(1 << 32) - (1 << 8 * (4 - d)) for d in (1, 2, 3)] + [0], np.uint64)
_TOKEN = re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")   # float()'s, less "_", inf, nan
_MM_SPACE = np.zeros(256, bool)
_MM_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True         # str.split()'s ASCII spaces


def _words(words, at, k):
    """Rows of ``k`` little-endian 8-byte words, a column for each byte offset in ``at``."""
    shift = ((at & 7) << 3).astype(np.uint64)
    w = words.take((at >> 3) + np.arange(k + 1)[:, None])
    low = w[:-1] >> shift
    w[1:] <<= 64 - shift
    low |= w[1:]
    return low


def _digit_value(x):
    """Lemire's SWAR value of eight digit bytes, 0x00 counting as 0."""
    x = (x & np.uint64(0x0F0F0F0F0F0F0F0F)) * np.uint64(2561) >> np.uint64(8)
    x = (x & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(6553601) >> np.uint64(16)
    return (x & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(42949672960001) >> np.uint64(32)


def _not_digits(x, mask):
    """Where a byte of ``x`` that ``mask`` keeps is not an ASCII digit; ``x`` is masked.

    Lemire's check, byte by byte: a digit gives 0x33.  ``mask`` is overwritten.
    """
    hi = np.uint64(0xF0F0F0F0F0F0F0F0)
    check = (x + np.uint64(0x0606060606060606)) & hi
    check >>= np.uint64(4)
    check |= x & hi
    mask &= np.uint64(0x3333333333333333)
    return check != mask


def read_blocks(fh, csv, count=None):
    """The values in the rest of binary file ``fh``, or None for the slower route.

    CSV gives a ``(rows, width)`` array, MatrixMarket a flat one of at most
    ``count`` values.  None means a token outside ``float``'s grammar or
    longer than a read, a ragged CSV row, too many MatrixMarket values, too
    many tokens for ``float`` or no value at all.
    """
    here = fh.tell()
    size = fh.seek(0, os.SEEK_END) - here      # also for an in-memory buffer, which has no fileno
    fh.seek(here)
    step = min(max(size // 32 & -8, _READ_MIN), _READ_MAX)
    buf = np.zeros(2 * step + 2 * _PAD, np.uint8)
    words = buf.view(np.uint64)
    # a value takes a digit and a separator, so a count the file cannot hold is not allocated
    out = np.empty(min(count or 0, size // 2 + 1))
    total = done = 0
    width, in_line = None, 0        # CSV: the row width and the values of the unfinished row
    end = _PAD
    while True:
        n = fh.readinto(memoryview(buf)[end:end + step])
        if not n:
            if end == _PAD:
                break
            buf[end] = 10           # a final line end where the file has none
            n = 1
        end += n
        parsed = _parse_block(buf, words, end, csv, in_line == 0)
        if parsed is None:
            return None
        values, eol, cut = parsed
        if end - cut >= step:       # a token longer than a read
            return None
        if csv and values.size:
            rows = np.flatnonzero(eol)
            if rows.size:
                lengths = np.diff(rows, prepend=-1)
                lengths[0] += in_line
                width = lengths[0] if width is None else width
                if (lengths != width).any():
                    return None
                in_line = values.size - 1 - rows[-1]
            else:
                in_line += values.size
        done += cut - _PAD
        if total + values.size > out.size:
            if count is not None:
                return None
            # room for what the rest of the file holds at this density, or a 16th more
            rest = max(int((total + values.size) * (size - done) / done), total // 16)
            out.resize(total + values.size + rest + 64, refcheck=False)
        out[total:total + values.size] = values
        total += values.size
        buf[_PAD:_PAD + end - cut] = buf[cut:end]
        end = _PAD + end - cut
    if not total or in_line:
        return None
    out.resize(total, refcheck=False)
    return out.reshape(-1, width) if csv else out


def _parse_block(buf, words, end, csv, line_start):
    """The values of the tokens that end in ``buf[_PAD:end]``, or None.

    Returns ``(values, eol, cut)``: ``eol`` marks the CSV values that end a
    row, and ``cut`` is the offset just past the block's last value separator.
    """
    # token ends, points and exponent marks: the pieces between them are digit runs
    seps = _separators(buf[_PAD:end], csv) + _PAD
    kind = buf.take(seps)
    ends = np.flatnonzero(kind < 46 if csv else kind <= 32)   # pieces that end a token
    if not ends.size:
        return np.empty(0), None, _PAD
    te = seps.take(ends)
    kv = kind.take(ends)
    if not csv and not _MM_SPACE.take(kv).all():
        return None
    first = np.empty_like(ends)
    first[0] = 0
    first[1:] = ends[:-1] + 1
    ts = np.empty_like(te)
    ts[0] = _PAD
    ts[1:] = te[:-1] + 1
    cut = te[-1] + 1
    if csv:
        eol = kv == 10
        te -= eol & (buf.take(te - 1) == 13)       # "\r\n" ends a row as "\n" does
        starts_row = np.empty_like(eol)
        starts_row[0] = line_start
        starts_row[1:] = eol[:-1]
        keep = (te != ts) | ~(eol & starts_row)     # drop blank rows
    else:
        eol = None
        keep = te != ts                             # runs of spaces
    if not keep.all():
        ends, first, ts, te = ends[keep], first[keep], ts[keep], te[keep]
        eol = eol[keep] if csv else None

    # -?d*[.d*][(e|E)[+-]d+]: li integer and lf fraction digits, the mantissa ending at me
    has_dot = kind.take(first) == 46
    has_e = kind.take(first + has_dot) > 46
    bad = (ends - first) != has_dot.astype(np.intp) + has_e
    pe = seps.take(ends - 1)
    me = np.where(has_e, pe, te)
    int_end = np.where(has_dot, seps.take(first), me)
    del seps, kind, ends, first                     # before the widest temporaries
    sign = buf.take(ts)
    neg = sign == 45
    li = int_end - ts - (neg | (sign == 43))
    lf = me - int_end - has_dot
    n, not_digits = _mantissas(words, me + 1 - has_dot, li, lf)
    bad |= not_digits
    q = -lf
    if has_e.any():
        ie = np.flatnonzero(has_e)
        exponent, not_digits = _exponents(buf, words, pe.take(ie) + 1, te.take(ie))
        q[ie] += exponent
        bad[ie] |= not_digits
    q -= _Q_MIN
    bad |= q.view(np.uint64) > _Q_MAX - _Q_MIN
    values, unsure = _scale(n, _P10.take(q, axis=1, mode="clip"))
    np.negative(values, out=values, where=neg)

    # the rest goes to float(); more than a 16th of a block sends the file to the slower route
    redo = np.flatnonzero(bad | unsure)
    if redo.size > values.size // 16 + 16:
        return None
    for i in redo:
        token = buf[ts[i]:te[i]].tobytes()
        if not _TOKEN.fullmatch(token):
            return None
        values[i] = float(token)
        if not math.isfinite(values[i]):
            return None
    return values, eol, cut


def _separators(block, csv):
    """Offsets in ``block`` of value separators, points and exponent marks."""
    mask = (block | 32) == 101                      # e or E
    mask |= block == 46
    if csv:
        mask |= block == 44
        mask |= block == 10
    else:
        mask |= block <= 32
    return np.flatnonzero(mask)


def _mantissas(words, end, li, lf):
    """The uint64 digits of each mantissa of ``li`` integer and ``lf`` fraction
    digits that ends before offset ``end`` (past its point, if it has none),
    and where that is not 1 to 19 significant digits in all."""
    bad = (li + lf - 1).view(np.uint64) > 22        # no digit, or more than the window
    lf = np.minimum(lf, 23)
    x = _words(words, end - 24, 3)
    mask = _DIGITS.take(np.minimum(li, 23) + 24 * lf, axis=1)
    x &= mask
    bad |= _not_digits(x, mask).any(0)
    low = x & _BELOW_POINT.take(lf, axis=1)         # drop the point: shift the integer up a byte
    x ^= low
    x |= low << np.uint64(8)
    x[1:] |= low[:2] >> np.uint64(56)
    c = _digit_value(x)
    bad |= c[0] >= 1000                             # n >= 10**19
    np.minimum(c[0], 999, out=c[0])
    return (c[0] * np.uint64(10**8) + c[1]) * np.uint64(10**8) + c[2], bad


def _exponents(buf, words, at, stop):
    """The value of each exponent ``[+-]d{1,3}`` at ``buf[at:stop]``, and where it is not one."""
    sign = buf.take(at)
    digits = stop - at - ((sign == 43) | (sign == 45))
    mask = _EXP.take(np.clip(digits, 0, 4))
    x = (_words(words, stop - 8, 1)[0] >> np.uint64(32)) & mask   # the last four bytes
    bad = _not_digits(x, mask) | ((digits - 1).view(np.uint64) > 2)
    x &= np.uint64(0x0F0F0F0F)
    x = (x * np.uint64(10) + (x >> np.uint64(8))) & np.uint64(0x00FF00FF)
    x = ((x * np.uint64(100) + (x >> np.uint64(16))) & np.uint64(0xFFFF)).astype(np.intp)
    return np.where(sign == 45, -x, x), bad


def _scale(n, p):
    """``n * 10**q`` rounded to float64 from ``_P10``'s columns ``p``, and where that is unsure.

    The double-double product is within 2**-100 of the exact one, so its
    rounding is float()'s unless it lies within 2**-30 ulp of a midpoint
    (+-1/2 ulp, or -1/4 ulp below a power of two).
    """
    hi, lo, hi_hi, hi_lo, k = p
    a = n.astype(np.float64)
    a_rest = (n - a.astype(np.uint64)).view(np.int64).astype(np.float64)    # exact
    prod = a * hi
    a_hi, a_lo = _split(a)
    err = ((a_hi * hi_hi - prod) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo   # TwoProduct
    err += a * lo + a_rest * hi
    r = prod + err
    f = ((prod - r) + err) / np.spacing(r)          # the rest, in ulps of r
    unsure = np.abs(np.abs(np.abs(f) - 0.375) - 0.125) < 2.0**-30
    with np.errstate(over="ignore"):                # only a token sent to float() overflows
        return np.ldexp(r, k.astype(np.intp)), unsure
