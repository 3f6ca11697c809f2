"""File round-trips and parse-error reporting for matrix and trace I/O."""

import json
import math
import os
import stat
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from nlrm import (
    ParseError,
    ShapeError,
    gen_graph_similarity,
    gen_uniform,
    read_matrix,
    write_matrix,
)
from nlrm import matio, matrixtext
from nlrm.cli import main
from nlrm.matio import format_for_path, read_trace, write_json
from nlrm.matrixtext import _BLOCK


class TestCsv:
    def test_round_trip_bit_identical(self, tmp_path):
        m = gen_uniform(5, 4, 0) - 0.5
        path = tmp_path / "m.csv"
        write_matrix(m, path, "csv")
        back = read_matrix(path, "csv")
        assert np.array_equal(back, m)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="line 2"):
            read_matrix(path, "csv")

    def test_non_numeric_token_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            read_matrix(path, "csv")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(ParseError, match="line 2"):
            read_matrix(path, "csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_matrix(path, "csv")


class TestMatrixMarket:
    def test_round_trip_bit_identical(self, tmp_path):
        m = gen_uniform(6, 3, 1) * 1e-7 - 3e-8
        path = tmp_path / "m.mtx"
        write_matrix(m, path, "matrix_market_dense")
        back = read_matrix(path, "matrix_market_dense")
        assert np.array_equal(back, m)

    def test_header_written(self, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix(gen_uniform(2, 2, 2), path, "matrix_market_dense")
        assert path.read_text().splitlines()[0] == (
            "%%MatrixMarket matrix array real general"
        )

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "% a comment\n"
            "2 2\n1\n2\n3\n4\n"
        )
        np.testing.assert_array_equal(
            read_matrix(path, "matrix_market_dense"), [[1.0, 3.0], [2.0, 4.0]]
        )

    def test_coordinate_format_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5.0\n"
        )
        with pytest.raises(ParseError, match="array"):
            read_matrix(path, "matrix_market_dense")

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
        with pytest.raises(ParseError, match="expected 4"):
            read_matrix(path, "matrix_market_dense")

    def test_bad_banner(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("hello\n")
        with pytest.raises(ParseError, match="line 1"):
            read_matrix(path, "matrix_market_dense")

    def test_column_major_layout(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "m.mtx"
        write_matrix(m, path, "matrix_market_dense")
        values = [float(v) for v in path.read_text().splitlines()[2:]]
        assert values == [1.0, 3.0, 2.0, 4.0]


class TestFormatSelection:
    def test_extension_mapping(self):
        assert format_for_path("x.mtx") == "matrix_market_dense"
        assert format_for_path("x.MTX") == "matrix_market_dense"
        assert format_for_path("x.csv") == "csv"
        assert format_for_path("x.txt") == "csv"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            write_matrix(np.ones((2, 2)), tmp_path / "m.bin", "binary")

    def test_unknown_read_format_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(np.ones((2, 2)), path)
        with pytest.raises(ParseError, match=r"^unknown format 'bogus'; expected one of \("):
            read_matrix(path, "bogus")

    def test_default_format_follows_extension(self, tmp_path):
        m = gen_uniform(5, 3, 8) - 0.5
        path = tmp_path / "x.mtx"
        write_matrix(m, path)
        assert path.read_text().startswith("%%MatrixMarket matrix array real general\n5 3\n")
        assert np.array_equal(read_matrix(path), m)
        assert np.array_equal(read_matrix(path, "matrix_market_dense"), m)
        csv_path = tmp_path / "x.csv"
        write_matrix(m, csv_path)
        assert np.array_equal(read_matrix(csv_path, "csv"), m)

    def test_explicit_format_wins(self, tmp_path):
        m = gen_uniform(4, 2, 9)
        path = tmp_path / "x.mtx"
        write_matrix(m, path, "csv")
        assert path.read_text().count(",") == 4
        assert np.array_equal(read_matrix(path, "csv"), m)
        with pytest.raises(ParseError, match="line 1"):
            read_matrix(path)


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        payload = {
            "schema": 1,
            "trace": [
                {"iteration": 1, "rel_error": 0.5, "seconds": 0.1, "min_entry": -0.01},
                {"iteration": 2, "rel_error": 0.25, "seconds": 0.2, "min_entry": 0.0},
            ],
        }
        path = tmp_path / "res.json"
        path.write_text(json.dumps(payload))
        trace = read_trace(path)
        assert trace.rel_errors == [0.5, 0.25]

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([{"iteration": 0, "rel_error": 1.0}]))
        assert len(read_trace(path)) == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "res.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_trace(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "res.json"
        path.write_text(json.dumps({"trace": []}))
        with pytest.raises(ParseError):
            read_trace(path)


OUTPUT_WRITERS = {
    "csv": lambda path: write_matrix(np.eye(2), path, "csv"),
    "matrix_market": lambda path: write_matrix(np.eye(2), path, "matrix_market_dense"),
    "json": lambda path: write_json({"schema": 1, "x": [0.5]}, path),
}
NOT_ROOT = pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0,
    reason="the superuser bypasses file and directory permissions",
)


@pytest.mark.parametrize("writer", sorted(OUTPUT_WRITERS))
class TestOutputFiles:
    """An existing regular file is replaced; every other path is written in place."""

    @staticmethod
    def fresh_bytes(tmp_path, writer):
        path = tmp_path / "fresh"
        OUTPUT_WRITERS[writer](path)
        return path.read_bytes()

    def test_regular_file_replaced_with_its_mode(self, tmp_path, writer):
        path = tmp_path / "out"
        path.write_text("old\n")
        path.chmod(0o640)
        umask = os.umask(0o077)     # would give 0o600 if the old bits were not kept
        try:
            with open(path) as old:     # holds the old inode, so its number is not reused
                OUTPUT_WRITERS[writer](path)
                assert os.fstat(old.fileno()).st_ino != path.stat().st_ino
                assert old.read() == "old\n"
        finally:
            os.umask(umask)
        assert path.read_bytes() == self.fresh_bytes(tmp_path, writer)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_symlink_writes_through_to_its_target(self, tmp_path, writer):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("old\n")
        link.symlink_to(target)
        OUTPUT_WRITERS[writer](link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self.fresh_bytes(tmp_path, writer)

    def test_hard_link_rewritten_in_place(self, tmp_path, writer):
        path, other = tmp_path / "out", tmp_path / "other"
        path.write_text("old\n")
        os.link(path, other)
        inode = path.stat().st_ino
        OUTPUT_WRITERS[writer](path)
        assert path.stat().st_ino == inode
        assert path.read_bytes() == other.read_bytes() == self.fresh_bytes(tmp_path, writer)

    def test_devnull(self, writer):
        OUTPUT_WRITERS[writer](os.devnull)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @NOT_ROOT
    def test_read_only_file_refused(self, tmp_path, writer):
        path = tmp_path / "out"
        path.write_text("old\n")
        path.chmod(0o444)
        with pytest.raises(PermissionError):
            OUTPUT_WRITERS[writer](path)
        assert path.read_text() == "old\n"

    @NOT_ROOT
    def test_file_in_read_only_directory_rewritten_in_place(self, tmp_path, writer):
        folder = tmp_path / "ro"
        folder.mkdir()
        path = folder / "out"
        path.write_text("old\n")
        inode = path.stat().st_ino
        folder.chmod(0o555)
        try:
            OUTPUT_WRITERS[writer](path)
        finally:
            folder.chmod(0o755)
        assert path.stat().st_ino == inode
        assert path.read_bytes() == self.fresh_bytes(tmp_path, writer)


@pytest.mark.parametrize("write, error", [
    (lambda path: write_matrix(np.zeros((0, 3)), path, "csv"), ShapeError),
    (lambda path: write_matrix(np.zeros((2, 0)), path, "matrix_market_dense"), ShapeError),
    (lambda path: write_json({"x": float("nan")}, path), ValueError),
])
def test_rejected_output_leaves_existing_file_untouched(tmp_path, write, error):
    path = tmp_path / "out"
    path.write_text("old\n")
    inode = path.stat().st_ino
    with pytest.raises(error):
        write(path)
    assert path.read_text() == "old\n" and path.stat().st_ino == inode


@NOT_ROOT
def test_read_only_output_exits_2(tmp_path):
    src, out = tmp_path / "a.csv", tmp_path / "y.csv"
    write_matrix(gen_uniform(4, 3, 0), src)
    out.write_text("old\n")
    out.chmod(0o444)
    assert main(["approx", str(src), "--rank", "1", "--output", str(out)]) == 2
    assert out.read_text() == "old\n"


# Reference oracles for the one-pass readers and the block writer: the
# per-token parser and per-value "%.17g" writer they replaced, kept verbatim.

def oracle_write_csv(m, path):
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join("%.17g" % val for val in row))
            fh.write("\n")


def oracle_read_csv(path):
    rows = []
    width = None
    with open(path, encoding="utf-8") as fh:
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
            rows.append([oracle_parse_value(tok, path, lineno) for tok in fields])
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def oracle_write_matrix_market(m, path):
    rows, cols = m.shape
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):
            for i in range(rows):
                fh.write("%.17g\n" % m[i, j])


def oracle_read_matrix_market(path):
    with open(path, encoding="utf-8") as fh:
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
            values.append(oracle_parse_value(tok, path, lineno + 1))
    if len(values) != rows * cols:
        raise ParseError(
            f"{path}: expected {rows * cols} values, found {len(values)}"
        )
    return np.array(values, dtype=np.float64).reshape(cols, rows).T


def oracle_parse_value(token, path, lineno):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-numeric token {token!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"{path}: line {lineno}: non-finite value {token!r}")
    return value


ORACLES = {
    "csv": (oracle_read_csv, oracle_write_csv),
    "matrix_market_dense": (oracle_read_matrix_market, oracle_write_matrix_market),
}

EDGE_VALUES = np.array([
    [-0.0, 0.0, 5e-324, -5e-324],
    [2.2250738585072014e-308, 2.225073858507201e-308, 1e-310, -3.5e-320],
    [1.7976931348623157e308, -1.7976931348623157e308, 1.0, -2.0],
    [1e15, 4503599627370496.0, 9007199254740993.0, 0.1],
    [123456789.0, -7.0, 1 / 3, 2.5e-8],
])


def random_bit_patterns(shape, seed):
    """Finite float64 values drawn uniformly over bit patterns (all exponents)."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=shape, dtype=np.uint64)
    values = bits.view(np.float64)
    return np.where(np.isfinite(values), values, 0.5)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def oracle_message(reader, path):
    with pytest.raises(ParseError) as info:
        reader(path)
    return str(info.value)


@pytest.mark.parametrize("fmt", sorted(ORACLES))
class TestAgainstOracle:
    @pytest.mark.parametrize("case", ["edges", "one_by_one", "random_bits", "uniform"])
    def test_write_bytes_and_read_bits(self, tmp_path, fmt, case):
        m = {
            "edges": EDGE_VALUES,
            "one_by_one": np.array([[5e-324]]),
            "random_bits": random_bit_patterns((150, 7), 11),  # every exponent
            "uniform": gen_uniform(30, 20, 4),
        }[case]
        oracle_read, oracle_write = ORACLES[fmt]
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        write_matrix(m, ours, fmt)
        oracle_write(m, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        back = read_matrix(ours, fmt)
        assert_same_bits(back, oracle_read(ours))
        assert_same_bits(back, m)

    def test_compressed_suffix_written_as_text(self, tmp_path, fmt):
        m = gen_uniform(3, 2, 6)
        ours, theirs = tmp_path / "m.csv.gz", tmp_path / "theirs"
        write_matrix(m, ours, fmt)
        ORACLES[fmt][1](m, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_zero_size_rejected_on_write(self, tmp_path, fmt):
        for shape in [(3, 0), (0, 3), (0, 0)]:
            path = tmp_path / f"z{shape[0]}{shape[1]}"
            with pytest.raises(ShapeError):
                write_matrix(np.zeros(shape), path, fmt)
            assert not path.exists()


# The block formatter against the per-value "%.17g" oracle writers above.
# Sequences are laid out in the order a format writes them, so that whole
# blocks of _BLOCK values can be made all fixed-notation, all '%' or mixed.

def in_write_order(seq, shape, fmt):
    """A matrix whose values, in the order ``fmt`` writes them, are ``seq``."""
    rows, cols = shape
    return seq.reshape(rows, cols) if fmt == "csv" else seq.reshape(cols, rows).T


def powers_of_ten_and_neighbours():
    centres = np.array([float(f"1e{k}") for k in range(-30, 31)] + [1e-4, 1e16, 1e17])
    values = np.concatenate([centres, np.nextafter(centres, 0), np.nextafter(centres, np.inf)])
    tiny, big = np.nextafter(0, 1), np.finfo(np.float64).max
    return np.concatenate([values, -values, [0.0, -0.0, tiny, -tiny, big, -big]])


def dyadic_ties(rng, per_exponent):
    """Dyadic values whose 17-digit rounding is an exact tie, for exponents -4 to 15.

    For odd ``o``, ``x = o / 2**(k + 1)`` gives ``x * 10**k = o * 5**k / 2``, an
    odd number of halves; ``o`` is drawn so that this has 17 integer digits.
    """
    out = []
    for k in range(1, 21):
        low, high = 2 * 10**16 // 5**k, min(2 * 10**17 // 5**k, 2**53)
        odd = rng.integers(low // 2, high // 2, per_exponent) * 2 + 1
        out.append(odd / 2.0 ** (k + 1))
    return np.concatenate(out)


def fixed_notation_values(rng, n):
    """Values in 1e-4 <= |x| < 1e17, spread over every decimal exponent."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4, 17, n).clip(-4, 16.99)


def exponent_notation_values(rng, n):
    """Nonzero values below 1e-4 or at least 1e17 in magnitude, subnormals included."""
    exponents = np.concatenate([rng.uniform(-320, -4.01, n - n // 2), rng.uniform(17, 308, n // 2)])
    values = 10.0 ** exponents
    return rng.permutation(values * rng.choice([-1.0, 1.0], n))


def writer_sequence(case, n, rng):
    if case == "fixed_then_exponent_then_mixed":       # whole blocks of each kind
        mixed = np.concatenate([fixed_notation_values(rng, n // 2),
                                exponent_notation_values(rng, n // 4),
                                powers_of_ten_and_neighbours(), dyadic_ties(rng, 20),
                                np.zeros(50), -np.zeros(50)])
        seq = np.concatenate([fixed_notation_values(rng, _BLOCK),
                              exponent_notation_values(rng, _BLOCK), rng.permutation(mixed)])
    elif case == "edges":
        seq = powers_of_ten_and_neighbours()
    elif case == "ties":
        seq = dyadic_ties(rng, n // 20 + 1)
    elif case == "integers":
        seq = np.concatenate([rng.integers(-2**53, 2**53, n // 2).astype(np.float64),
                              rng.integers(-10**6, 10**6, n // 2).astype(np.float64),
                              [float(10**k) for k in range(23)]])
    else:
        seq = random_bit_patterns(n, 12)
    return np.resize(seq, n)


@pytest.mark.parametrize("fmt", sorted(ORACLES))
class TestBlockWriterAgainstOracle:
    @pytest.mark.parametrize("case", ["fixed_then_exponent_then_mixed", "edges", "ties",
                                      "integers", "random_bits"])
    def test_bytes_and_bits(self, tmp_path, fmt, case):
        # 3 rows of a width that is no divisor of the block: rows cross block ends
        shape = (3, (2 * _BLOCK + _BLOCK // 2) // 3)
        seq = writer_sequence(case, shape[0] * shape[1], np.random.default_rng(13))
        self.assert_matches_oracle(tmp_path, fmt, in_write_order(seq, shape, fmt))

    @pytest.mark.parametrize("shape", [(1, 1), (1, _BLOCK + 7), (_BLOCK + 7, 1), (1, 5), (5, 1)])
    def test_vector_shapes(self, tmp_path, fmt, shape):
        seq = writer_sequence("fixed_then_exponent_then_mixed", 3 * _BLOCK,
                              np.random.default_rng(14))[-shape[0] * shape[1]:]
        self.assert_matches_oracle(tmp_path, fmt, in_write_order(seq, shape, fmt))

    @staticmethod
    def assert_matches_oracle(tmp_path, fmt, m):
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        write_matrix(m, ours, fmt)
        ORACLES[fmt][1](m, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        assert_same_bits(read_matrix(ours, fmt), m)


def gather_scatter_format_block(v, seps):
    """``matrixtext._format_block`` as it ran before its all-fixed fast path."""
    ax = np.abs(v)
    fixed = (ax == 0) | (ax >= 1e-4) & (ax < 1e17)
    out = np.zeros((v.size, 4), np.uint64)
    out[fixed] = matrixtext._fixed_rows(v[fixed])
    if not fixed.all():
        rest = tuple(v[~fixed].tolist())
        out[~fixed] = np.frombuffer(b"%-24.17g\0\0\0\0\0\0\0\0" * len(rest) % rest,
                                    np.uint64).reshape(-1, 4)
    out[:, 3] |= seps << np.uint64(56)
    return out.tobytes().translate(None, b"\0 ")


@pytest.mark.parametrize("case", ["all-fixed", "one-exponent", "all-exponent"])
def test_block_bytes_as_before_whether_or_not_all_are_fixed(case):
    rng = np.random.default_rng(17)
    v = fixed_notation_values(rng, 1000)
    v[:2] = 0.0, -0.0
    if case == "one-exponent":
        v[500] = 1e-5
    elif case == "all-exponent":
        v = exponent_notation_values(rng, 1000)
    seps = np.full(v.size, ord(","), np.uint64)
    seps[99::100] = ord("\n")
    got = matrixtext._format_block(v, seps)
    assert got == gather_scatter_format_block(v, seps)
    assert got == b"".join(b"%.17g%c" % pair for pair in zip(v.tolist(), seps.tolist()))


@pytest.mark.parametrize("shift", [-0.75, 0.75])
def test_exponent_exact_however_log10_rounds(tmp_path, monkeypatch, shift):
    # the writer trusts floor(log10 |x|) to within one; push it off by one for most values
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    seq = writer_sequence("fixed_then_exponent_then_mixed", 3 * _BLOCK, np.random.default_rng(16))
    TestBlockWriterAgainstOracle.assert_matches_oracle(tmp_path, "csv", seq.reshape(3, -1))


def test_no_double_rounds_up_to_a_power_of_ten():
    # the writer's 17-digit integers stay below 10**17 because of this
    for p in range(-4, 18):
        below = float(Fraction(10) ** p)
        if below >= Fraction(10) ** p:
            below = math.nextafter(below, 0)
        assert Fraction("%.17g" % below) < Fraction(10) ** p


def test_dyadic_ties_are_exact_ties():
    for x in dyadic_ties(np.random.default_rng(15), 3).tolist():
        scaled = [Fraction(x) * 10**k for k in range(1, 21)]
        assert any(10**16 <= v < 10**17 and v.denominator == 2 for v in scaled), x


@pytest.mark.parametrize("fmt", sorted(ORACLES))
@pytest.mark.parametrize("shape", [(800, 800), (20, 100_000)])
def test_write_memory_stays_bounded(tmp_path, fmt, shape):
    m = gen_uniform(*shape, 8)
    tracemalloc.start()
    try:
        write_matrix(m, tmp_path / "m", fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20     # about 3.4 MB; one whole-matrix text buffer would be 13-64 MB


CSV_TEXTS = {
    "crlf": "1,-0\r\n5e-324,1.7976931348623157e308\r\n",
    "blank_lines": "\n1,2\n\n  \n3,4\n\n",
    "grammar": " +1.5 ,.5,5.,1_0,-0.0,1E3\n2,3,4,5,6,7\n",
    "one_by_one": "2.5\n",
    "no_final_newline": "1,2\n3,4",
    "cr_only": "1,2\r3,4\r",
}

MM_HEADER = "%%MatrixMarket matrix array real general\n"
MM_TEXTS = {
    "crlf": "%%MatrixMarket matrix array real general\r\n2 1\r\n-0\r\n5e-324\r\n",
    "comments": MM_HEADER + "% one\n  % two\n%\n2 2\n1\n2\n3\n4\n",
    "blank_and_shared_lines": MM_HEADER + "2 3\n\n1 2\n 3\t4 \n\n5\n6\n\n",
    "grammar": MM_HEADER + "2 2\n+1.5\n.5\n1_0\n1E3\n",
    "one_by_one": MM_HEADER + "1 1\n1.7976931348623157e308\n",
    "upper_case_banner": "%%MatrixMarket MATRIX Array REAL General\n1 2\n1\n2",
}


class TestReadTextsAgainstOracle:
    @pytest.mark.parametrize("name", sorted(CSV_TEXTS))
    def test_csv(self, tmp_path, name):
        path = tmp_path / "m.csv"
        path.write_bytes(CSV_TEXTS[name].encode())
        assert_same_bits(read_matrix(path, "csv"), oracle_read_csv(path))

    @pytest.mark.parametrize("name", sorted(MM_TEXTS))
    def test_matrix_market(self, tmp_path, name):
        path = tmp_path / "m.mtx"
        path.write_bytes(MM_TEXTS[name].encode())
        got = read_matrix(path, "matrix_market_dense")
        want = oracle_read_matrix_market(path)
        assert_same_bits(got, want)
        assert got.strides == want.strides


CSV_ERRORS = {
    "bad_token_middle_line": "1,2\n3,oops\n5,6\n",
    "nan": "1,2\nnan,4\n5,6\n",
    "inf": "1,2\n3,-inf\n5,6\n",
    "overflow": "1,2\n3,1e400\n5,6\n",
    "ragged_row": "1,2\n3\n5,6\n",
    "too_wide_row": "1,2\n3,4,5\n5,6\n",
    "empty_field": "1,2\n3,\n5,6\n",
    "bad_token_before_ragged_row": "1,2\n3,x\n5\n",
    "bad_token_last_line": "1,2\n3,x\n",
    "ragged_last_row": "1,2\n3\n",
    "second_bad_token_on_line": "1,2\n3,4\n5,6,\n",
    "empty_file": "",
    "blank_lines_only": "\n \n",
}

MM_ERRORS = {
    "empty_file": "",
    "bad_banner": "%%MatrixMarket matrix\n2 2\n",
    "unsupported_field": "%%MatrixMarket matrix array complex general\n1 1\n1\n",
    "unsupported_object": "%%MatrixMarket vector array real general\n1 1\n1\n",
    "unsupported_symmetry": "%%MatrixMarket matrix array real symmetric\n1 1\n1\n",
    "bad_token_middle_line": MM_HEADER + "2 2\n1\noops\n3\n4\n",
    "bad_token_last_line": MM_HEADER + "2 1\n1\nx\n",
    "nan": MM_HEADER + "2 2\n1\n2\nnan\n4\n",
    "inf": MM_HEADER + "2 2\n1\ninf\n3\n4\n",
    "overflow": MM_HEADER + "2 2\n1\n2\n1e400\n4\n",
    "empty_field": MM_HEADER + "2 2\n1\n3,\n3\n4\n",
    "too_few_values": MM_HEADER + "2 2\n1\n2\n3\n",
    "too_many_values": MM_HEADER + "2 2\n1\n2\n3\n4\n5\n",
    "no_values": MM_HEADER + "2 2\n",
    "bad_token_and_too_many": MM_HEADER + "2 2\n1\n2\n3\n4\n5 x\n",
    "bad_token_and_too_few": MM_HEADER + "% c\n2 2\n1\n\n2 x\n",
    "bad_token_after_crlf_and_cr": MM_HEADER + "2 2\r\n1\r\n\r2\rx\n4\n",
    "comment_in_body": MM_HEADER + "1 1\n% late comment\n1\n",
    "bad_size_line": MM_HEADER + "2\n1\n2\n",
    "missing_size_line": MM_HEADER + "% only comments\n",
    "non_integer_size": MM_HEADER + "2 x\n1\n",
    "zero_size": MM_HEADER + "0 2\n",
    "count_far_above_file": MM_HEADER + "100000 100000\n1\n",
    "count_beyond_any_array": MM_HEADER + "10000000000 10000000000\n1\n",
}


class TestErrorsAgainstOracle:
    @pytest.mark.parametrize("name", sorted(CSV_ERRORS))
    def test_csv(self, tmp_path, name):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_ERRORS[name])
        want = oracle_message(oracle_read_csv, path)
        with pytest.raises(ParseError) as info:
            read_matrix(path, "csv")
        assert str(info.value) == want

    @pytest.mark.parametrize("name", sorted(MM_ERRORS))
    def test_matrix_market(self, tmp_path, name):
        path = tmp_path / "bad.mtx"
        path.write_text(MM_ERRORS[name])
        want = oracle_message(oracle_read_matrix_market, path)
        with pytest.raises(ParseError) as info:
            read_matrix(path, "matrix_market_dense")
        assert str(info.value) == want


class TestReaderResources:
    def test_matrix_market_read_memory_bounded_by_output(self, tmp_path):
        m = gen_uniform(200, 150, 5)
        path = tmp_path / "m.mtx"
        write_matrix(m, path, "matrix_market_dense")
        tracemalloc.start()
        try:
            back = read_matrix(path, "matrix_market_dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_bits(back, m)
        assert peak < 3 * m.nbytes

    @pytest.mark.parametrize("fmt, text", [
        ("csv", ""),
        ("csv", "\n \n\n"),
        ("matrix_market_dense", ""),
        ("matrix_market_dense", MM_HEADER + "2 2\n"),
        ("matrix_market_dense", MM_HEADER + "2 2\n\n \n"),
    ])
    def test_no_data_raises_without_warning(self, tmp_path, fmt, text):
        path = tmp_path / "m"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError):
                read_matrix(path, fmt)


# Token pool of the differential test: values written with repr, and tokens
# that one reader might take and the other not.
ODD_TOKENS = ["1_0", "\u0661", "\xa01.5\xa0", "\t2\t", "nan", "inf", "1e400", "",
              "%", "#1", "0x1", "\ufeff1"]
BLANK_LINES = ["", " ", "\t", " \t "]


def random_token(rng, odd_rate):
    if rng.random() < odd_rate:
        return ODD_TOKENS[rng.integers(len(ODD_TOKENS))]
    kind = rng.integers(4)
    if kind == 0:
        return repr(float(random_bit_patterns((), rng.integers(2**32))))
    if kind == 1:
        return repr(float(rng.integers(-9, 10)))
    if kind == 2:
        return repr(-0.0)
    return repr(float(rng.random()))


def join_lines(rng, lines, head=0):
    """Lines joined by one random line ending, with blank lines mixed in after ``head``."""
    out = lines[:head]
    for line in lines[head:]:
        while rng.random() < 0.1:
            out.append(BLANK_LINES[rng.integers(len(BLANK_LINES))])
        out.append(line)
    eol = ["\n", "\r\n", "\r"][rng.integers(3)]
    return eol.join(out) + (eol if rng.random() < 0.8 else "")


def random_csv_text(rng):
    rows, cols = rng.integers(1, 5), rng.integers(1, 4)
    odd_rate = [0.0, 0.03, 0.2][rng.integers(3)]
    lines = []
    for _ in range(rows):
        width = cols + (rng.integers(-1, 2) if rng.random() < 0.05 else 0)
        lines.append(",".join(random_token(rng, odd_rate) for _ in range(width)))
    return join_lines(rng, lines)


def random_matrix_market_text(rng):
    rows, cols = rng.integers(1, 4), rng.integers(1, 4)
    odd_rate = [0.0, 0.03, 0.2][rng.integers(3)]
    count = rows * cols + (rng.integers(-1, 2) if rng.random() < 0.1 else 0)
    tokens = [random_token(rng, odd_rate) for _ in range(count)]
    lines = [MM_HEADER.strip()] + ["% comment"] * rng.integers(2) + [f"{rows} {cols}"]
    head = len(lines)
    while tokens:
        per_line = rng.integers(1, 4)
        lines.append(" ".join(tokens[:per_line]))
        tokens = tokens[per_line:]
    return join_lines(rng, lines, head)


def read_outcome(read, path):
    """Shape, strides and bytes of what a reader returns, or its ParseError text."""
    try:
        m = read(path)
    except ParseError as exc:
        return str(exc)
    return m.shape, m.strides, m.tobytes()


@pytest.mark.parametrize("fmt, make_text", [
    ("csv", random_csv_text),
    ("matrix_market_dense", random_matrix_market_text),
])
def test_reader_matches_oracle_on_generated_files(tmp_path, fmt, make_text):
    rng = np.random.default_rng(2024)
    oracle_read = ORACLES[fmt][0]
    mismatches, read_ok = [], 0
    for case in range(2000):
        text = make_text(rng)
        path = tmp_path / f"m{case}"    # a new file: rewriting one would flush it each time
        path.write_bytes(text.encode())
        got = read_outcome(lambda p: read_matrix(p, fmt), path)
        if got != read_outcome(oracle_read, path):
            mismatches.append(text)
        read_ok += not isinstance(got, str)
    assert mismatches == []
    assert 200 < read_ok < 1800        # both outcomes are well exercised


# The block reader against Python's float(), token by token.  Small reads make
# rows and tokens cross block ends; a reader that sends the file on to
# the line pass fails these tests, so every value comes from the block reader or
# from its own float() calls.

def near_midpoint(x, digits):
    """The midpoint above ``x``, rounded to ``digits`` significant digits."""
    mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
    return format(mid, f".{digits - 1}e")


def reader_stress_tokens(rng):
    bits = random_bit_patterns(600, int(rng.integers(2**32))).tolist()
    mantissas = [str(rng.integers(10**18, 10**19, dtype=np.uint64))[: rng.integers(1, 20)]
                 for _ in range(600)]
    twenty_digits = [str(rng.integers(10**19, 2**64, dtype=np.uint64)) for _ in range(40)]
    powers = [math.ldexp(1.0, int(k)) for k in rng.integers(-1074, 1024, 200)]
    tokens = (
        [repr(x) for x in bits] + ["%.17g" % x for x in bits]
        + [f"{m}e{e}" for m, e in zip(mantissas, rng.integers(-340, 321, 600))]
        + [f"-{m[:1]}.{m[1:] or 0}E{e:+d}" for m, e in zip(mantissas, rng.integers(-340, 321, 600))]
        + [f"{m[:k]}.{m[k:]}" for m in mantissas[:300] for k in [rng.integers(len(m) + 1)]]
        + [str(2**53 + int(v)) for v in rng.integers(0, 2**62, 200)]          # ties above 2**53
        + [near_midpoint(abs(x), int(d)) for x, d in zip(bits[:200], rng.integers(15, 20, 200))
           if 1e-300 < abs(x) < 1e300]
        + [repr(y) for p in powers for y in (math.nextafter(p, 0), p, math.nextafter(p, math.inf))]
        + [near_midpoint(math.nextafter(p, 0), 17) for p in powers if 1e-300 < p < 1e300]
        + [str(k) for k in range(-300, 301)] + twenty_digits + [f"{t}e-30" for t in twenty_digits]
        + ["-0", "0", "-0.0", "0.000", "0.000123456789012345678", "0.0000000000000000000001",
           "00000000000000000000000123", "1234567890123456789", "12345678901234567890",
           "9999999999999999999", "10000000000000000000", "-18446744073709551615",
           "1e308", "1.7976931348623157e+308", "1.7976931348623158e308", "2.2250738585072014e-308",
           "2.2250738585072011e-308", "4.9406564584124654e-324", "5e-324", "2.4703282292062328e-324",
           "2.4703282292062327E-324", "1e-400", "1E5", "1e+05", "1E-5", "+1.5", ".5", "5.", "-.5e1",
           "1e0005", "9007199254740993", "9007199254740992.5", "123.456e-310", "1e289", "1e290"]
    )
    return [t for t in tokens if math.isfinite(float(t))]


def write_tokens(path, tokens, fmt, width=7):
    """``tokens`` as a CSV of ``width`` columns or a MatrixMarket body, with varied line ends."""
    tokens = tokens[: len(tokens) // width * width]
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            for r in range(0, len(tokens), width):
                eol = "\r\n" if r % 3 else "\n"
                fh.write(",".join(tokens[r:r + width]) + eol + ("" if r % 5 else eol))
        else:
            fh.write(f"{MM_HEADER}% c\n{len(tokens) // width} {width}\n")
            fh.write("".join(t + ["\n", "\r\n", " ", "\t\x0b ", "\n\n"][i % 5]
                             for i, t in enumerate(tokens)))
    want = np.array([float(t) for t in tokens])
    return in_write_order(want, (len(tokens) // width, width), fmt)


READER_TOKENS = reader_stress_tokens(np.random.default_rng(2025))


def hard_cases(max_rel=2.0**-110):
    """Tokens ``p`` e ``q`` of 19 digits within ``max_rel`` of a midpoint between doubles.

    A convergent ``p/k`` of ``2**(e-1) / 10**q`` with odd ``k`` in
    (2**53, 2**54) puts ``p * 10**q`` next to the midpoint ``k * 2**(e-1)``,
    closer than any double-double product can tell apart.
    """
    tokens = []
    for q in list(range(-300, -22)) + list(range(23, 280)):
        ten = Fraction(10) ** q
        e = math.floor(math.log2(500 * ten)) + 1
        x = Fraction(2) ** (e - 1) / ten
        a, b, h0, h1, k0, k1 = x.numerator, x.denominator, 0, 1, 1, 0
        while b and k1 < 2**54 and h1 < 10**19:
            t, (a, b) = a // b, (b, a % b)
            h0, h1, k0, k1 = h1, t * h1 + h0, k1, t * k1 + k0
            if 2**53 < k1 < 2**54 and k1 % 2 and h1 < 10**19:
                mid = k1 * Fraction(2) ** (e - 1)
                if 0 < abs(h1 * ten - mid) < max_rel * mid:
                    tokens.append(f"{h1}e{q}")
    return tokens


def no_line_pass(*args):
    raise AssertionError("the block reader gave the file to the line pass")


@pytest.mark.parametrize("fmt", sorted(ORACLES))
class TestBlockReaderAgainstFloat:
    @pytest.mark.parametrize("read_size", [64, 256])
    def test_bits_of_every_token(self, tmp_path, monkeypatch, fmt, read_size):
        want = write_tokens(tmp_path / "m", READER_TOKENS, fmt)
        monkeypatch.setattr(matrixtext, "_READ_MIN", read_size)
        monkeypatch.setattr(matrixtext, "_READ_MAX", read_size)
        monkeypatch.setattr(matio, "_read_lines", no_line_pass)
        got = read_matrix(tmp_path / "m", fmt)
        assert_same_bits(got, want)
        assert got.strides == want.strides

    def test_hard_cases_near_midpoints(self, tmp_path, monkeypatch, fmt):
        tokens = hard_cases()
        assert len(tokens) >= 40
        want = write_tokens(tmp_path / "m", tokens, fmt, width=4)
        monkeypatch.setattr(matrixtext, "_READ_MIN", 64)     # few tokens a block: all go to float()
        monkeypatch.setattr(matrixtext, "_READ_MAX", 64)
        monkeypatch.setattr(matio, "_read_lines", no_line_pass)
        assert_same_bits(read_matrix(tmp_path / "m", fmt), want)

    def test_unsure_values_come_from_float(self, tmp_path, monkeypatch, fmt):
        scale = matrixtext._scale

        def every_third_unsure(n, p):
            values, unsure = scale(n, p)
            unsure[::3] = True
            values[unsure] = np.nan        # float() must replace each of them
            return values, unsure

        want = write_tokens(tmp_path / "m", READER_TOKENS, fmt)
        monkeypatch.setattr(matrixtext, "_scale", every_third_unsure)
        monkeypatch.setattr(matrixtext, "_READ_MIN", 64)
        monkeypatch.setattr(matrixtext, "_READ_MAX", 64)
        monkeypatch.setattr(matio, "_read_lines", no_line_pass)
        assert_same_bits(read_matrix(tmp_path / "m", fmt), want)

    def test_all_unsure_sends_the_file_to_the_line_pass(self, tmp_path, monkeypatch, fmt):
        scale = matrixtext._scale
        monkeypatch.setattr(matrixtext, "_scale", lambda n, p: (scale(n, p)[0] * np.nan, n >= 0))
        want = write_tokens(tmp_path / "m", READER_TOKENS, fmt)
        assert_same_bits(read_matrix(tmp_path / "m", fmt), want)

    def test_token_longer_than_a_read(self, tmp_path, monkeypatch, fmt):
        tokens = ["0." + "3" * 100, "1.5", "-2", "0.25"] * 7
        want = write_tokens(tmp_path / "m", tokens, fmt)
        monkeypatch.setattr(matrixtext, "_READ_MIN", 64)
        monkeypatch.setattr(matrixtext, "_READ_MAX", 64)
        assert_same_bits(read_matrix(tmp_path / "m", fmt), want)


@pytest.mark.parametrize("body", ["1\x0b2\x0c\n3\x1f4\n", "1\x012\n3 4\n", "1\x002\n3 4\n"])
def test_control_bytes_in_a_matrix_market_body(tmp_path, body):
    # str.split() takes \x0b, \x0c and \x1c-\x1f as spaces, and \x00-\x08 as text
    path = tmp_path / "m.mtx"
    path.write_bytes((MM_HEADER + "2 2\n" + body).encode())
    assert read_outcome(lambda p: read_matrix(p, "matrix_market_dense"), path) == \
        read_outcome(oracle_read_matrix_market, path)


@pytest.mark.parametrize("fmt, make_text", [
    ("csv", random_csv_text),
    ("matrix_market_dense", random_matrix_market_text),
])
def test_small_reads_match_oracle_on_generated_files(tmp_path, monkeypatch, fmt, make_text):
    # rows, blank lines and bad tokens that cross block ends keep the oracle's outcome
    monkeypatch.setattr(matrixtext, "_READ_MIN", 16)
    monkeypatch.setattr(matrixtext, "_READ_MAX", 16)
    rng = np.random.default_rng(2026)
    mismatches = []
    for case in range(300):
        text = make_text(rng)
        path = tmp_path / f"m{case}"
        path.write_bytes(text.encode())
        if read_outcome(lambda p: read_matrix(p, fmt), path) != read_outcome(ORACLES[fmt][0], path):
            mismatches.append(text)
    assert mismatches == []


@pytest.mark.parametrize("shape", [(800, 800), (20, 100_000)])
def test_csv_read_memory_bounded_by_output(tmp_path, shape):
    m = gen_uniform(*shape, 9)
    write_matrix(m, tmp_path / "m.csv")
    tracemalloc.start()
    try:
        back = read_matrix(tmp_path / "m.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_bits(back, m)
    assert peak < 2 * m.nbytes


def read_through_pipe(tmp_path, data, fmt):
    """``read_matrix`` on a FIFO that a writer thread fills with ``data``."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(data), daemon=True)
    writer.start()
    try:
        return read_matrix(pipe, fmt)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_csv_pipe_read(tmp_path):
    m = gen_uniform(40, 30, 10)
    write_matrix(m, tmp_path / "m.csv")
    assert_same_bits(read_through_pipe(tmp_path, (tmp_path / "m.csv").read_bytes(), "csv"), m)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_matrix_market_pipe_read(tmp_path):
    m = gen_uniform(40, 30, 11)
    write_matrix(m, tmp_path / "m.mtx")
    back = read_through_pipe(tmp_path, (tmp_path / "m.mtx").read_bytes(), "matrix_market_dense")
    assert_same_bits(back, m)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("fmt, name", [("csv", name) for name in sorted(CSV_ERRORS)]
                         + [("matrix_market_dense", name) for name in sorted(MM_ERRORS)])
def test_every_bad_pipe_reads_as_its_file(tmp_path, fmt, name):
    data = (CSV_ERRORS if fmt == "csv" else MM_ERRORS)[name].encode()
    path = tmp_path / "bad"
    path.write_bytes(data)
    want = oracle_message(lambda p: read_matrix(p, fmt), path)
    with pytest.raises(ParseError) as info:
        read_through_pipe(tmp_path, data, fmt)
    assert str(info.value) == want.replace(str(path), str(tmp_path / "pipe"))


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("cut", [0, 1])
def test_long_matrix_market_header_keeps_the_block_route(tmp_path, monkeypatch, eol, cut):
    m = gen_uniform(30, 20, 12)
    write_matrix(m, tmp_path / "m.mtx")
    banner, body = (tmp_path / "m.mtx").read_bytes().split(b"\n", 1)
    eol = eol.encode()
    comment = b"%" + b"c" * (81 - len(eol)) + eol
    head = banner + eol + comment * ((matrixtext._HEAD - len(banner)) // len(comment) - 1)
    # a line whose end starts at byte _HEAD - 2 + cut: with cut 1 and CRLF ends,
    # the "\r\n" straddles the end of the first read
    head += b"%" + b"c" * (matrixtext._HEAD - 3 + cut - len(head)) + eol
    path = tmp_path / "long.mtx"
    path.write_bytes(head + comment * 150 + body)      # about 20 KB of header
    monkeypatch.setattr(matio, "_read_lines", no_line_pass)
    assert_same_bits(read_matrix(path), m)


def spy_block_route(monkeypatch):
    """What the block reader returns, call by call, as ``read_matrix`` runs."""
    returned = []
    for name in ("read_blocks", "read_body"):
        def spy(*args, real=getattr(matrixtext, name), **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]
        monkeypatch.setattr(matrixtext, name, spy)
    return returned


def line_pass_text(rng, kind):
    """Tokens that the block reader gives to the line pass, a file of them and its shape."""
    if kind == "comma_space_csv":
        tokens = ["%.17g" % x for x in rng.random(800 * 800).tolist()]
        lines = [", ".join(tokens[i:i + 800]) for i in range(0, len(tokens), 800)]
        return tokens, lines, (800, 800)
    if kind == "long_digits_mtx":       # a 4th of the tokens have 20-25 digits
        digits = rng.integers(20, 26, 60 * 40)
        tokens = [f"{x:.{d - 1}e}" if i % 4 == 0 else repr(x)
                  for i, (x, d) in enumerate(zip(rng.standard_normal(60 * 40).tolist(), digits))]
        return tokens, [MM_HEADER.strip(), "60 40", *tokens], (60, 40)
    odd = ["1_0", "\u0663", "\xa01.5\xa0", "-2_5e-1_0", "\xa0\u0661\u0662"]   # float() reads these
    tokens = [odd[i % 5] if i % 3 == 0 else repr(x) for i, x in enumerate(rng.random(900).tolist())]
    return tokens, [",".join(tokens[i:i + 30]) for i in range(0, len(tokens), 30)], (30, 30)


@pytest.mark.parametrize("kind, fmt", [("comma_space_csv", "csv"),
                                       ("long_digits_mtx", "matrix_market_dense"),
                                       ("odd_tokens_csv", "csv")])
def test_line_pass_reads_floats_bits(tmp_path, monkeypatch, kind, fmt):
    tokens, lines, shape = line_pass_text(np.random.default_rng(2027), kind)
    path = tmp_path / "m"
    path.write_bytes("\n".join(lines).encode() + b"\n")
    returned = spy_block_route(monkeypatch)
    got = read_matrix(path, fmt)
    assert returned and returned[-1] is None      # the line pass read the file
    assert_same_bits(got, in_write_order(np.array([float(t) for t in tokens]), shape, fmt))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["a.csv", "g.mtx"])
def test_benchmark_inputs_take_the_block_route(tmp_path, monkeypatch, seed, name):
    # the input files of the approx-csv-800 and approx-mtx-highrank-300 workloads
    if name == "a.csv":
        m = gen_uniform(800, 800, seed)
    else:
        m = gen_graph_similarity(gen_uniform(300, 2, seed))
    write_matrix(m, tmp_path / name)
    monkeypatch.setattr(matio, "_read_lines", no_line_pass)
    assert_same_bits(read_matrix(tmp_path / name), m)


@pytest.mark.parametrize("fmt, make_text", [
    ("csv", random_csv_text),
    ("matrix_market_dense", random_matrix_market_text),
])
def test_line_pass_batches_match_oracle_on_generated_files(tmp_path, monkeypatch, fmt, make_text):
    # batches of one or two lines: errors, blank lines and ragged rows in any batch
    monkeypatch.setattr(matio, "_LINE_BATCH", 1)
    rng = np.random.default_rng(2028)
    mismatches = []
    for case in range(300):
        text = make_text(rng)
        path = tmp_path / f"m{case}"
        path.write_bytes(text.encode())
        if read_outcome(lambda p: read_matrix(p, fmt), path) != read_outcome(ORACLES[fmt][0], path):
            mismatches.append(text)
    assert mismatches == []
