"""Builds and loads the package's C helpers: _l96.c, the Lorenz-96 Euler
loop, _csv.c, the matrix-CSV formatter and parser, and _rng.c, the
standard normal draws of enkpf.rng.

Nothing is built at import: each caller loads its library on first use,
once per process, and runs its Python path where it gets None.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

# no -ffast-math and no FMA contraction: either would change bits; no
# -march=native: the cached library must run on any CPU of its architecture,
# and per-function target clones (see _l96.c) use the wider vector units
# where the CPU has them
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
# after the source: _rng.c calls libm's exp and log1p, the functions numpy's
# normal sampler calls, so each library names libm as a dependency
LIBS = ("-lm",)


def load(stem: str) -> ctypes.CDLL | None:
    """The library built from <stem>.c next to this module, or None where it
    cannot be built or loaded.

    The library goes to __pycache__ next to the source as
    <stem>-<digest>.so, named by a hash of the source, the compile command
    and LIBS. A build holds an exclusive lock on __pycache__/<stem>.lock,
    so processes that start at once compile once and each load a complete
    library; the compiler writes a temporary file that os.replace
    publishes. After publishing, the builder deletes the <stem> libraries
    of other digests and the temporary files of killed builds.
    """
    command = compile_command()
    source = Path(__file__).with_name(f"{stem}.c")
    try:
        import fcntl

        build = " ".join([*command, *LIBS]).encode()
        digest = hashlib.sha256(source.read_bytes() + build).hexdigest()
        lib = source.parent / "__pycache__" / f"{stem}-{digest[:16]}.so"
        if not lib.exists():
            lib.parent.mkdir(exist_ok=True)
            with open(lib.parent / f"{stem}.lock", "w") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                if not lib.exists():
                    _build(command, source, lib)
        return ctypes.CDLL(str(lib))
    except (ImportError, OSError, subprocess.SubprocessError):
        return None


def compile_command() -> list[str]:
    """The compiler and flags every library is built with, before the
    output and source arguments: Python's configured CC, else cc."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        cc = ["cc"]
    return [*cc, *_FLAGS]


def _build(command, source: Path, lib: Path):
    stem = source.stem
    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=f"{stem}-", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run([*command, "-o", tmp, str(source), *LIBS], check=True, capture_output=True)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # every other build of this stem holds the lock, so what is left is stale
    for stale in [*lib.parent.glob(f"{stem}-*.so"), *lib.parent.glob(f"{stem}-*.tmp")]:
        if stale != lib:
            stale.unlink(missing_ok=True)
