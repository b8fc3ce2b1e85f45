"""The matrix-CSV format: a line 'q,N', then q lines of N values, each '%.17g' % v.
_csv.c formats and parses the common case; the Python writer and np.loadtxt
are its references, take every other input and place each refusal."""

from __future__ import annotations

import ctypes
import functools
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .compiled import load as load_library

__all__ = ["write_matrix_csv", "read_matrix_csv"]


@contextmanager
def _text_out(target):
    """`target` itself when it is an open text stream, else the file at that
    path, opened for writing; its directory is created only when missing."""
    if hasattr(target, "write"):
        yield target
        return
    try:
        fh = open(target, "w")
    except FileNotFoundError:
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        fh = open(target, "w")
    with fh:
        yield fh


def write_matrix_csv(target, matrix: np.ndarray):
    """(q, N) matrix as CSV: first line 'q,N', then q comma-separated rows.

    `target` is a path or an open text stream, as for every writer here.
    Every value is written as '%.17g' % v. The formatter of _csv.c does
    that where it builds, into one buffer that goes to the stream's binary
    layer when it has one; otherwise each row is %-formatted in Python,
    with the same bytes.
    """
    matrix = np.asarray(matrix, dtype=float)
    q, n = matrix.shape
    format_body = _csv_formatter()
    with _text_out(target) as fh:
        fh.write(f"{q},{n}\n")
        if format_body is None:
            _write_rows(fh, matrix)
            return
        body = format_body(matrix)
        if hasattr(fh, "buffer"):
            fh.flush()
            fh.buffer.write(body)
        else:
            fh.write(str(body, "ascii"))


def _write_rows(fh, matrix):
    """The Python path of write_matrix_csv, and the reference the compiled
    formatter is tested against."""
    # one %-format per row of Python floats writes the '%.17g' digits without a
    # format call per numpy scalar, which took half the writer's time
    row_format = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    for row in matrix:
        fh.write(row_format % tuple(row.tolist()))


@functools.cache
def _csv_formatter():
    """csv_format of _csv.c as a function from a (q, N) matrix to a
    memoryview of its CSV body, or None where it cannot be built or loaded
    (see enkpf.compiled)."""
    dll = load_library("_csv")
    if dll is None:
        return None
    fmt, width = dll.csv_format, ctypes.c_long.in_dll(dll, "csv_field_max").value
    fmt.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_void_p]
    fmt.restype = ctypes.c_long

    def format_body(matrix):
        x = np.ascontiguousarray(matrix, dtype=np.float64)
        q, n = x.shape
        buf = np.empty(width * x.size, np.uint8)
        size = fmt(x.ctypes.data, q, n, buf.ctypes.data)
        return memoryview(buf)[:size]

    return format_body


def read_matrix_csv(path) -> np.ndarray:
    """The matrix write_matrix_csv wrote at `path`. Every error names the
    path, and one in a body line names that line as well.

    The parser of _csv.c reads a body in the form the writer gives it:
    q lines of N values, each '[-+]?(d+(.d*)?|.d+)([eE][-+]?d+)?', with ','
    between values and '\n' after each line. Anything else (spaces,
    comments, blank lines, CRLF, inf or nan, another shape), and every
    input where it cannot be built, goes to np.loadtxt, which reads the
    same values bitwise and raises every error.
    """
    parse_body = _csv_parser()
    if parse_body is not None:
        with open(path, "rb") as fh:
            text = fh.read()
        header = _STRICT_HEADER.match(text)
        if header is not None:
            data = parse_body(text, header.end(), int(header[1]), int(header[2]))
            if data is not None:
                return data
    return _read_rows(path)


_STRICT_HEADER = re.compile(rb"(\d+),(\d+)\n")
# ASCII digits only, unlike int(), which also takes '1_0' and other scripts'
# digits; spaces around each number are allowed, as np.loadtxt allows them
# around a value
_HEADER = re.compile(r"(\d+)\s*,\s*(\d+)", re.ASCII)
_TOKEN = re.compile(rb"[^,\n]*")
_OFFSET_BITS = np.uint64(2**51 - 1)


@functools.cache
def _csv_parser():
    """csv_parse of _csv.c as a function of the file's bytes, the offset of
    the body and the header's (q, N) that gives the (q, N) matrix, or None
    where the body is not in the parser's form; or None itself where _csv.c
    cannot be built or loaded (see enkpf.compiled)."""
    dll = load_library("_csv")
    if dll is None:
        return None
    parse = dll.csv_parse
    parse.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_void_p]
    parse.restype = ctypes.c_long

    def parse_body(text, start, q, n):
        body = np.frombuffer(text, np.uint8, offset=start)
        if not 0 < 2 * q * n <= body.size:  # every value takes two bytes or more
            return None
        data = np.empty((q, n))
        slow = parse(body.ctypes.data, body.size, q, n, data.ctypes.data)
        if slow < 0:
            return None
        if slow:
            # a value outside the parser's exact tiers is a NaN whose low
            # 51 bits give the offset of its text in the body
            flat = data.reshape(-1)
            bits = flat.view(np.uint64)
            for k in np.flatnonzero(np.isnan(flat)):
                flat[k] = float(_TOKEN.match(text, start + int(bits[k] & _OFFSET_BITS))[0])
        return data

    return parse_body


def _read_rows(path) -> np.ndarray:
    """The np.loadtxt path of read_matrix_csv, and the reference the
    compiled parser is tested against."""
    with open(path) as fh:
        header = fh.readline().strip()
        shape = _HEADER.fullmatch(header)
        if shape is None:
            raise ValueError(f"{path}, line 1: bad matrix header {header!r}")
        q, n = int(shape[1]), int(shape[2])
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ValueError(_refusal(path, err)) from err
    if data.shape != (q, n):
        raise ValueError(f"{path}: matrix body {data.shape} does not match header ({q}, {n})")
    return data


# numpy's place of a refused value, ' at row k, column c.' at the end, or of
# a ragged row, ' at row k' before '; '; its row counts data rows, from 0 in
# the first and from 1 in the second
_NUMPY_ROW = re.compile(r" at row \d+(?:, column (\d+)\.$|(?=; ))")


def _refusal(path, err) -> str:
    """np.loadtxt's message `err` about the body of `path`, placed at the
    file line and, where numpy names it, the (1-based) column."""
    message, line = str(err), _refused_line(path)
    numpy_row = _NUMPY_ROW.search(message)
    if line and numpy_row:
        message = message[: numpy_row.start()] + message[numpy_row.end() :]
        if numpy_row[1]:
            line += f", column {numpy_row[1]}"
    return f"{path}{line}: {message}"


def _refused_line(path) -> str:
    """', line k' for the first body line of a matrix CSV that np.loadtxt
    refuses: one with a value that is not a number, or with another number
    of values than the first body line. Blank lines and '#' comments are
    skipped as np.loadtxt skips them."""
    width = None
    with open(path) as fh:
        next(fh)
        for number, line in enumerate(fh, 2):
            text = line.split("#")[0]
            if not text.strip():
                continue
            cells = text.split(",")
            width = width or len(cells)
            if len(cells) != width or not all(map(_loadtxt_reads, cells)):
                return f", line {number}"
    return ""


def _loadtxt_reads(cell: str) -> bool:
    """Whether np.loadtxt reads `cell` as a float: Python's float reads it
    without its surrounding whitespace, and it is ASCII without '_' (float
    also takes non-ASCII digits and '_' between digits; numpy does not)."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True
