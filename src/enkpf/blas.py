"""OpenBLAS thread policy: the analysis runs on one BLAS thread.

The analysis multiplies and factors matrices of tens by hundreds of
entries. At that size OpenBLAS's worker threads cost more than they save:
waking them dominates each call, and between calls the idle workers spin
on the other cores. On a 2-vCPU Xeon guest a Lorenz-96 cycle (q = 40,
N = 400) took a median 44 ms of wall time and 97 ms of CPU with the default
two threads, and 26 ms of wall time and 26 ms of CPU with one.

`single_thread()` is a context manager that sets every OpenBLAS copy
loaded into the process (numpy and scipy each bundle their own) to one
thread and gives each copy its previous count back on exit. It steps aside
when OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set, since
OpenBLAS sized its pools from that variable at load time and it is the
user's choice, and when no OpenBLAS is loaded (another BLAS, or no
/proc/self/maps to find it in). Nothing happens at import, so a program
that embeds enkpf keeps its own BLAS settings outside the scope.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from pathlib import Path

__all__ = ["single_thread", "openblas_pools"]

USER_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# (prefix, suffix) of the thread-count symbols: numpy's copy has 64-bit
# integers and the "64_" suffix, scipy's copy has neither, and a plain
# OpenBLAS build has no "scipy_" prefix
_SYMBOLS = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in Path(path).name.lower() and path not in found:
                    found.append(path)
    except OSError:
        return []
    return found


def openblas_pools() -> list[tuple]:
    """(get_num_threads, set_num_threads) of each OpenBLAS copy loaded now."""
    pools = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


class _Policy:
    """The process-wide pool sizes, shared by every scope in the process.

    Only the outermost of nested or concurrent scopes changes them: it saves
    each copy's count and sets 1, and the last scope to exit restores the
    saved counts. The copies are looked up on the first outermost entry;
    enkpf imports numpy and scipy.linalg at import, so both are loaded by then.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._pools = None
        self._saved: list[tuple] = []

    def enter(self):
        with self._lock:
            if self._depth == 0 and not any(os.environ.get(v) for v in USER_VARS):
                if self._pools is None:
                    self._pools = openblas_pools()
                self._saved = [(put, get()) for get, put in self._pools]
                for put, n in self._saved:
                    if n != 1:
                        put(1)
            self._depth += 1

    def exit(self):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, n in self._saved:
                    if n != 1:
                        put(n)
                self._saved = []


_POLICY = _Policy()


@contextmanager
def single_thread():
    """Run the body with every loaded OpenBLAS copy on one thread (see the
    module docstring for when this does nothing). Cheap and safe to nest;
    also usable as a function decorator."""
    _POLICY.enter()
    try:
        yield
    finally:
        _POLICY.exit()
