"""write_matrix_csv writes every value as '%.17g' % v, through the compiled
formatter of _csv.c and through the Python fallback alike."""

import io
import shutil
import sys

import numpy as np
import pytest

from enkpf import experiment, read_matrix_csv, write_matrix_csv

_COMPILED = experiment._csv_formatter()
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
    monkeypatch.setattr(experiment, "_csv_formatter", lambda: None)
    assert _written(matrix) == compiled == _expected(matrix)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_formatter_is_the_path_taken_when_a_compiler_exists(monkeypatch):
    assert _COMPILED is not None

    def python_rows(*args):
        raise AssertionError("the Python rows ran although _csv.c is built")

    monkeypatch.setattr(experiment, "_write_rows", python_rows)
    assert _written(np.eye(2)) == b"2,2\n1,0\n0,1\n"
