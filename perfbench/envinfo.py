"""The environment a result was measured in.

Records nproc, the CPU model, Python/numpy/scipy versions, the BLAS thread
variables, and for every OpenBLAS copy loaded into this process its live
thread count and the kernel (core) it chose at load time. The OpenBLAS
queries are read-only; the benchmark never sets a thread count, so a
thread policy in the program shows up here. The run adds the share of CPU
time the hypervisor stole while it measured, which explains slow runs on
a shared host.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# symbol names differ between the 64-bit-integer copy numpy bundles and
# the 32-bit one scipy bundles, and again in a plain OpenBLAS build
_THREADS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CORE_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def _loaded_openblas() -> list[Path]:
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
    return [Path(p) for p in found]


def _symbol(lib, names, restype):
    for name in names:
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def openblas_copies() -> list[dict]:
    """One entry per loaded OpenBLAS: owner package, threads, core name."""
    copies = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(str(path))
        threads = _symbol(lib, _THREADS_SYMBOLS, ctypes.c_int)
        core = _symbol(lib, _CORE_SYMBOLS, ctypes.c_char_p)
        copies.append(
            {
                # numpy.libs/... -> numpy, scipy.libs/... -> scipy
                "owner": path.parent.name.split(".")[0],
                "library": path.name,
                "threads": threads() if threads else None,
                "core": core().decode() if core else None,
            }
        )
    return copies


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def numpy_simd() -> list[str]:
    """CPU features numpy found and may dispatch its loops on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return []
    return sorted(k for k, v in __cpu_features__.items() if v)


def cpu_ticks() -> tuple[int, int] | None:
    """Cumulative (steal, total) CPU ticks of the machine. Steal is time a
    hypervisor gave this machine's CPUs to someone else."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def steal_frac(before, after) -> float | None:
    """Share of CPU time stolen between two cpu_ticks() readings."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def environment() -> dict:
    """The full record printed beside every result."""
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "openblas": openblas_copies(),
    }


def platform_key(env: dict) -> dict:
    """What must match for bitwise reference digests to apply: library
    versions, the OpenBLAS kernels picked at load time, and the SIMD
    features numpy dispatches on."""
    return {
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "openblas_cores": sorted(f"{c['owner']}:{c['core']}" for c in env["openblas"]),
        "numpy_simd": numpy_simd(),
    }
