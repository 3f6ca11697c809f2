"""File round-trips and parse-error reporting for matrix and trace I/O."""

import json
import locale
import tracemalloc
import warnings

import numpy as np
import pytest

from nlrm import ParseError, ShapeError, gen_uniform, read_matrix, write_matrix
from nlrm.matio import format_for_path, read_trace


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


# Reference oracles for the one-pass readers and row-template writers: the
# per-token parser and per-value "%.17g" writer they replaced, kept verbatim.

def oracle_write_csv(m, path):
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join("%.17g" % val for val in row))
            fh.write("\n")


def oracle_read_csv(path):
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


@pytest.mark.skipif(
    locale.getpreferredencoding(False).lower() not in ("utf-8", "utf8"),
    reason="the oracles decode with the locale's encoding; the files are UTF-8",
)
@pytest.mark.parametrize("fmt, make_text", [
    ("csv", random_csv_text),
    ("matrix_market_dense", random_matrix_market_text),
])
def test_reader_matches_oracle_on_generated_files(tmp_path, fmt, make_text):
    rng = np.random.default_rng(2024)
    oracle_read = ORACLES[fmt][0]
    path = tmp_path / "m"
    mismatches, read_ok = [], 0
    for _ in range(2000):
        text = make_text(rng)
        path.write_bytes(text.encode())
        got = read_outcome(lambda p: read_matrix(p, fmt), path)
        if got != read_outcome(oracle_read, path):
            mismatches.append(text)
        read_ok += not isinstance(got, str)
    assert mismatches == []
    assert 200 < read_ok < 1800        # both outcomes are well exercised
