"""write_matrix_csv writes every value as '%.17g' % v, through the compiled
formatter of _csv.c and through the Python fallback alike; read_matrix_csv
reads through the parser of _csv.c exactly what np.loadtxt reads."""

import ctypes
import io
import os
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf import matrix_csv, read_matrix_csv, write_matrix_csv
from enkpf.compiled import load

_COMPILED = matrix_csv._csv_formatter()
needs_compiled = pytest.mark.skipif(_COMPILED is None, reason="_csv.c could not be built here")


def _expected(matrix) -> bytes:
    q, n = matrix.shape
    rows = "".join(",".join("%.17g" % v for v in row) + "\n" for row in matrix.tolist())
    return f"{q},{n}\n{rows}".encode()


def _written(matrix) -> bytes:
    buf = io.StringIO()
    write_matrix_csv(buf, matrix)
    return buf.getvalue().encode()


def _bits(words) -> np.ndarray:
    return np.asarray(words, dtype=np.uint64).view(np.float64)


def _edge_values() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
    near = [powers, below, np.nextafter(below, 0), above, np.nextafter(above, np.inf)]
    # 2^50 + j/4 for odd j has an 18th significant digit of exactly 5:
    # the ties that round half to even
    ties = [2.0**50 + j / 4 for j in range(1, 16, 2)] + [2.0**51 - 0.25, 2.0**51 - 0.75]
    special = [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
               2.0**53 - 2, 2.0**53 + 2, np.inf, -np.inf, np.nan,
               _bits([0xFFF8000000000000])[0]]  # a NaN with the sign bit set
    return np.concatenate([*near, ties, special])


@needs_compiled
@pytest.mark.parametrize("values", ["random_bits", "every_exponent", "edges"])
def test_compiled_formatter_matches_python_format(values):
    gen = np.random.default_rng(5)
    if values == "random_bits":
        matrix = _bits(gen.integers(0, 2**64, size=10**5, dtype=np.uint64)).reshape(250, 400)
    elif values == "every_exponent":
        exponent = np.repeat(np.arange(2047, dtype=np.uint64), 50) << np.uint64(52)
        sign = gen.integers(0, 2, exponent.size, dtype=np.uint64) << np.uint64(63)
        mantissa = gen.integers(0, 2**52, exponent.size, dtype=np.uint64)
        matrix = _bits(sign | exponent | mantissa).reshape(2047, 50)
    else:
        matrix = _edge_values()[None, :]
    assert _written(matrix) == _expected(matrix)


@pytest.mark.parametrize("shape", [(1, 7), (9, 1), (3, 4)])
def test_every_target_gets_the_same_bytes(shape, tmp_path, capsysbinary):
    matrix = np.random.default_rng(6).standard_normal(shape) * 1e5
    matrix.flat[0] = -0.0
    expected = _expected(matrix)
    write_matrix_csv(tmp_path / "m.csv", matrix)
    assert (tmp_path / "m.csv").read_bytes() == expected
    assert _written(matrix) == expected
    write_matrix_csv(sys.stdout, matrix)
    print("after", flush=True)  # text written after the body follows it
    assert capsysbinary.readouterr().out == expected + b"after\n"
    assert np.array_equal(read_matrix_csv(tmp_path / "m.csv"), matrix)


def test_python_fallback_gives_the_same_bytes(monkeypatch):
    matrix = _edge_values()[None, :]
    compiled = _written(matrix)
    monkeypatch.setattr(matrix_csv, "_csv_formatter", lambda: None)
    assert _written(matrix) == compiled == _expected(matrix)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_formatter_is_the_path_taken_when_a_compiler_exists(monkeypatch):
    assert _COMPILED is not None

    def python_rows(*args):
        raise AssertionError("the Python rows ran although _csv.c is built")

    monkeypatch.setattr(matrix_csv, "_write_rows", python_rows)
    assert _written(np.eye(2)) == b"2,2\n1,0\n0,1\n"


# read_matrix_csv: the parser of _csv.c against the np.loadtxt path

_PARSER = matrix_csv._csv_parser()
needs_parser = pytest.mark.skipif(_PARSER is None, reason="_csv.c could not be built here")


def _compiled_read(text: bytes) -> np.ndarray:
    header = matrix_csv._STRICT_HEADER.match(text)
    data = _PARSER(text, header.end(), int(header[1]), int(header[2]))
    assert data is not None, "the compiled parser refused the body"
    return data


def _raw_parse(body: bytes, q: int, n: int) -> tuple[int, np.ndarray]:
    """csv_parse's return value for a bare body, and what it wrote."""
    parse = load("_csv").csv_parse
    parse.argtypes = [ctypes.c_char_p, ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_void_p]
    parse.restype = ctypes.c_long
    out = np.empty((q, n))
    return parse(body, len(body), q, n, out.ctypes.data), out


def _loadtxt_read(text: bytes, tmp_path) -> np.ndarray:
    path = tmp_path / "reference.csv"
    path.write_bytes(text)
    return matrix_csv._read_rows(path)


def _assert_bitwise_equal(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _body(tokens, width=None) -> bytes:
    width = width or len(tokens)
    rows = [",".join(tokens[i : i + width]) for i in range(0, len(tokens), width)]
    return f"{len(rows)},{width}\n".encode() + "".join(row + "\n" for row in rows).encode()


def _finite_edges() -> np.ndarray:
    edges = _edge_values()
    return edges[np.isfinite(edges)]


@needs_parser
def test_parser_reads_random_bit_patterns_as_loadtxt_does(tmp_path):
    words = np.random.default_rng(7).integers(0, 2**64, size=10**5, dtype=np.uint64)
    matrix = _bits(words).reshape(250, 400)
    matrix[~np.isfinite(matrix)] = 0.0  # the writer's inf and nan are fallback-only
    text = _written(matrix)
    got = _compiled_read(text)
    _assert_bitwise_equal(got, _loadtxt_read(text, tmp_path))
    _assert_bitwise_equal(got, matrix)


@needs_parser
def test_parser_reads_edge_values_as_loadtxt_does(tmp_path):
    text = _written(_finite_edges()[None, :])
    _assert_bitwise_equal(_compiled_read(text), _loadtxt_read(text, tmp_path))


_SPELLINGS = [".5", "5.", "+1", "-1", "1E+05", "1e-05", "+.5E5", "-0", "-0.0", "0e999", "007.50",
              "00000.000012345", "9007199254740993", "1125899906842624.125",
              "1234567890123456789", "12345678901234567890000", "1234567890123456789e-40",
              "0.1234567890123456789", "9999999999999999999", "18446744073709551615"]


@needs_parser
@pytest.mark.parametrize("form", [f"%.{k}g" for k in range(1, 21)] + ["repr"])
def test_parser_reads_every_width_as_loadtxt_does(form, tmp_path):
    gen = np.random.default_rng(8)
    values = np.concatenate([_finite_edges(),
                             gen.standard_normal(2000) * 10.0 ** gen.uniform(-40, 40, 2000)])
    tokens = [repr(v) if form == "repr" else form % v for v in values.tolist()]
    text = _body(tokens + _SPELLINGS)
    _assert_bitwise_equal(_compiled_read(text), _loadtxt_read(text, tmp_path))


def _midpoint_tokens(values) -> list[str]:
    """For each double and the next one up, their exact midpoint rounded to
    17 to 25 significant digits, and each of those +-1 in its last digit."""
    tokens = []
    with localcontext() as ctx:
        ctx.prec = 1200  # every double and midpoint is exact
        for lower in values.tolist():
            mid = (Decimal(lower) + Decimal(np.nextafter(lower, np.inf))) / 2
            for k in range(17, 26):
                mantissa, exponent = f"{mid:.{k - 1}e}".split("e")
                digits = int(mantissa.replace(".", ""))
                tokens += [f"{digits + step}e{int(exponent) - k + 1}" for step in (-1, 0, 1)]
    return tokens


@needs_parser
def test_parser_reads_decimals_near_midpoints_as_loadtxt_does(tmp_path):
    # Where the decimal exponent is negative, the parser rounds from the 128
    # leading bits of a product unless they fall within 2 units below one
    # half, and divides exactly otherwise. Between 2^49 and 2^54 every
    # midpoint has at most 19 significant digits, so those tokens hold
    # exact ties, some padded with zeros to 25 digits.
    gen = np.random.default_rng(9)
    values = np.concatenate([np.abs(gen.standard_normal(150)) * 10.0 ** gen.uniform(-15, 18, 150),
                             2.0 ** gen.uniform(49, 54, 100)])
    text = _body(_midpoint_tokens(values), width=27)
    _assert_bitwise_equal(_compiled_read(text), _loadtxt_read(text, tmp_path))


@needs_parser
def test_a_benchmark_style_forecast_takes_no_slow_value():
    # as perfbench/cases.py builds an update_cli forecast: a smooth field
    # around mean 2.3, sd 3.6, written with %.17g
    gen = np.random.default_rng([0, 1208])
    noise = gen.standard_normal((40, 400))
    members = (2.3 + 3.6 * gen.standard_normal(40))[:, None] + (
        noise + np.roll(noise, 1, axis=0) + np.roll(noise, -1, axis=0)) / np.sqrt(3)
    body = "".join(",".join("%.17g" % v for v in row) + "\n" for row in members.tolist())
    slow, data = _raw_parse(body.encode(), 40, 400)
    assert slow == 0
    _assert_bitwise_equal(data, members)


# beyond the exact tiers: a nonzero digit after the 19th significant one, or
# an exponent outside them; each is read by Python's float
_SLOW = ["0.10000000000000000555", "12345678901234567891", "1e-400", "1e400", "-1e400",
         "2.2250738585072009e-308", "4.9406564584124654e-324", "1.7976931348623157e308",
         "1e-32", "123e99999999999999"]


@needs_parser
def test_values_beyond_the_exact_tiers_take_the_slow_tier(tmp_path):
    body = (",".join(["1.5", *_SLOW, "-2"]) + "\n").encode()
    assert _raw_parse(body, 1, len(_SLOW) + 2)[0] == len(_SLOW)
    text = _body(["1.5", *_SLOW, "-2"])
    _assert_bitwise_equal(_compiled_read(text), _loadtxt_read(text, tmp_path))


# bodies only np.loadtxt reads; read_matrix_csv gives what np.loadtxt gives
_FALLBACK_ONLY = {
    "spaces": "2,2\n1, 2\n 3,4 \n",
    "comment": "2,2\n1,2 # first\n# between\n3,4\n",
    "blank_line": "2,2\n1,2\n\n3,4\n",
    "crlf": "2,2\r\n1,2\r\n3,4\r\n",
    "inf_nan": "2,2\ninf,-inf\nnan,1\n",
    "no_final_newline": "2,2\n1,2\n3,4",
    "header_spaces": " 2, 2\n1,2\n3,4\n",
}


@pytest.mark.parametrize("text", _FALLBACK_ONLY.values(), ids=_FALLBACK_ONLY.keys())
def test_inputs_only_loadtxt_accepts_read_as_before(text, tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    _assert_bitwise_equal(read_matrix_csv(path), matrix_csv._read_rows(path))


_BAD_BODIES = {
    "bad_value": ("3,3\n1,2,3\n4,x,6\n7,8,9\n",
                  "bad.csv, line 3, column 2: could not convert string 'x' to float64"),
    "ragged": ("3,3\n1,2,3\n4,5\n7,8,9\n",
               "ragged.csv, line 3: the number of columns changed from 3 to 2;"),
    "short": ("3,3\n1,2,3\n4,5,6\n", "does not match header (3, 3)"),
    "long": ("1,3\n1,2,3\n4,5,6\n", "does not match header (1, 3)"),
    "wider": ("2,2\n1,2,3\n4,5,6\n", "does not match header (2, 2)"),
    "header": ("3;3\n1,2,3\n", "bad matrix header '3;3'"),
    "empty_value": ("1,3\n1,,3\n", "line 2, column 2: could not convert string ''"),
    "huge_header": ("99999999999,99999999999\n1\n", "does not match header"),
}


@pytest.mark.parametrize("text, expected", _BAD_BODIES.values(), ids=_BAD_BODIES.keys())
def test_every_error_reads_as_without_the_parser(text, expected, tmp_path, monkeypatch):
    name = "ragged.csv" if "ragged" in expected else "bad.csv"
    path = tmp_path / name
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as compiled:
        read_matrix_csv(path)
    monkeypatch.setattr(matrix_csv, "_csv_parser", lambda: None)
    with pytest.raises(ValueError) as fallback:
        read_matrix_csv(path)
    assert str(compiled.value) == str(fallback.value)
    assert expected in str(compiled.value) and "at row" not in str(compiled.value)


@needs_parser
def test_compiled_parser_is_the_path_taken_when_it_builds(tmp_path, monkeypatch):
    def loadtxt_rows(*args):
        raise AssertionError("np.loadtxt ran although _csv.c is built")

    monkeypatch.setattr(matrix_csv, "_read_rows", loadtxt_rows)
    write_matrix_csv(tmp_path / "m.csv", np.eye(3) * 0.1)
    assert np.array_equal(read_matrix_csv(tmp_path / "m.csv"), np.eye(3) * 0.1)


# Generated bodies: values from the parser's grammar, then mutations that
# take the body out of it, except +-1e308, which stays in it

_DIGITS = st.text("0123456789", min_size=1, max_size=22)
_SIGN = st.sampled_from(["", "+", "-"])
_FRACTION = st.text("0123456789", max_size=22).map(lambda digits: "." + digits)
_GRAMMAR_VALUE = st.builds(
    lambda sign, mantissa, exponent: sign + mantissa + exponent,
    _SIGN,
    st.one_of(  # d+(.d*)? or .d+
        st.builds(lambda whole, fraction: whole + fraction, _DIGITS,
                  st.one_of(st.just(""), _FRACTION)),
        _DIGITS.map(lambda digits: "." + digits),
    ),
    st.one_of(st.just(""), st.builds(lambda e, sign, digits: e + sign + digits,
                                     st.sampled_from("eE"), _SIGN,
                                     st.text("0123456789", min_size=1, max_size=4))),
)
_WRITTEN_VALUE = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v)
_MUTATIONS = ["space", "crlf", "underscore", "non_ascii_digit", "ragged", "huge", "inf_nan"]


@st.composite
def _bodies(draw):
    """A matrix CSV and whether its body is in the parser's grammar."""
    q, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cells = [draw(st.one_of(_GRAMMAR_VALUE, _WRITTEN_VALUE)) for _ in range(q * n)]
    mutations = draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2))
    newline = "\r\n" if "crlf" in mutations else "\n"
    for kind in mutations:
        k = draw(st.integers(0, q * n - 1))
        if kind == "space":
            cells[k] = draw(st.sampled_from([" " + cells[k], cells[k] + " "]))
        elif kind == "underscore":
            cells[k] = cells[k][:1] + "_" + cells[k][1:]
        elif kind == "non_ascii_digit":
            cells[k] += draw(st.sampled_from(["\u0661", "\uff11"]))
        elif kind == "huge":
            cells[k] = draw(st.sampled_from(["1e308", "-1e308"]))
        elif kind == "inf_nan":
            cells[k] = draw(st.sampled_from(["inf", "-inf", "nan", "+nan"]))
    rows = [cells[i * n : (i + 1) * n] for i in range(q)]
    if "ragged" in mutations:
        row = rows[draw(st.integers(0, q - 1))]
        row[:] = row[:-1] if n > 1 else row * 2
    body = "".join(",".join(row) + newline for row in rows)
    return f"{q},{n}\n{body}".encode(), set(mutations) <= {"huge"}


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.csv"


@needs_parser
@settings(max_examples=200, derandomize=True, deadline=None)
@given(_bodies())
def test_generated_bodies_read_as_loadtxt_reads_them(fuzz_path, generated):
    # read_matrix_csv gives np.loadtxt's values or raises its message, and a
    # body in the grammar is read by the compiled parser itself
    text, in_grammar = generated
    fuzz_path.write_bytes(text)
    if in_grammar:
        _assert_bitwise_equal(_compiled_read(text), matrix_csv._read_rows(fuzz_path))
    try:
        got = read_matrix_csv(fuzz_path)
    except ValueError as err:
        with mock.patch.object(matrix_csv, "_csv_parser", lambda: None):
            with pytest.raises(ValueError) as fallback:
                read_matrix_csv(fuzz_path)
        assert str(err) == str(fallback.value)
    else:
        _assert_bitwise_equal(got, matrix_csv._read_rows(fuzz_path))


# The codec built with AddressSanitizer and UndefinedBehaviorSanitizer
# (tests/csv_driver.c): each body, matrix and output sits in a heap block of
# exactly its size, so a read of even one byte past a body (the eight-byte
# digit scan) or a write past the reserved output ends the run.


def _grammar_bodies(gen) -> list[tuple[bytes, int, int]]:
    """Bodies in the parser's grammar whose last value has runs of 1 to 40
    digits, so that a run ends at every distance from the body's end that
    an eight-byte load could overrun, plus bodies the parser refuses, each
    with its (q, n)."""

    def digits(k):
        return "".join(map(str, gen.integers(0, 10, k)))

    bodies = []
    for length in range(1, 41):
        for token in (digits(length), "-." + digits(length), digits(length) + ".",
                      digits(length // 2 + 1) + "." + digits(length), "0." + "0" * length + "1",
                      digits(length) + "e-" + digits(2)):
            bodies.append((("1.5," + token + "\n").encode(), 1, 2))
    for spelling in _SPELLINGS + _SLOW:
        bodies.append(((spelling + "\n").encode(), 1, 1))
    for refused in ["12345678", "1234567812345678", "1,2\n3", "1e\n", "1" * 30 + ",\n", "\n", ""]:
        bodies.append((refused.encode(), 1, 1))
    return bodies


@needs_parser
def test_codec_under_address_and_undefined_behaviour_sanitizers(tmp_path, sanitized_build):
    driver = sanitized_build("csv_driver", "_csv")
    gen = np.random.default_rng(10)
    random_bits = _bits(gen.integers(0, 2**64, size=10**5, dtype=np.uint64)).reshape(250, 400)
    edges = _edge_values()[None, :]
    # alone in a matrix, a value of each decimal exponent with its stores
    # reaching furthest past its text
    formats = [edges, random_bits, *(np.array([[-1.2345678901234567 * 10.0**x]]) for x in range(-5, 18))]
    random_bits = np.where(np.isfinite(random_bits), random_bits, 0.0)
    edges = _finite_edges()[None, :]
    parses = [(_expected(random_bits).split(b"\n", 1)[1], 250, 400),
              (_expected(edges).split(b"\n", 1)[1], 1, edges.size), *_grammar_bodies(gen)]

    manifest = []
    for k, (body, q, n) in enumerate(parses):
        (tmp_path / f"body{k}").write_bytes(body)
        manifest.append(f"parse {q} {n} {tmp_path / f'body{k}'} {tmp_path / f'parsed{k}'}")
    for k, matrix in enumerate(formats):
        (tmp_path / f"matrix{k}").write_bytes(np.ascontiguousarray(matrix).tobytes())
        manifest.append(f"format {matrix.shape[0]} {matrix.shape[1]} {tmp_path / f'matrix{k}'} "
                        f"{tmp_path / f'formatted{k}'}")
    (tmp_path / "manifest").write_text("\n".join(manifest) + "\n")
    run = subprocess.run([str(driver), str(tmp_path / "manifest")], capture_output=True, text=True,
                         env=dict(os.environ, ASAN_OPTIONS="detect_leaks=0"))
    assert run.returncode == 0, run.stderr[-3000:]

    for k, (body, q, n) in enumerate(parses):
        parsed = (tmp_path / f"parsed{k}").read_bytes()
        status = int(np.frombuffer(parsed[:8], np.int64)[0])
        expected_status, expected = _raw_parse(body, q, n)
        assert status == expected_status, body[:80]
        if status >= 0:
            _assert_bitwise_equal(np.frombuffer(parsed[8:]).reshape(q, n), expected)
    for k, matrix in enumerate(formats):
        assert (tmp_path / f"formatted{k}").read_bytes() == _expected(matrix).split(b"\n", 1)[1]
