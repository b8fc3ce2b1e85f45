"""The loader of the package's C helpers (enkpf.compiled)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import enkpf
from enkpf import compiled

PACKAGE = Path(enkpf.__file__).resolve().parent


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_first_build_removes_stale_libraries(tmp_path):
    root = tmp_path / "site"
    shutil.copytree(PACKAGE, root / "enkpf", ignore=shutil.ignore_patterns("__pycache__"))
    cache = root / "enkpf" / "__pycache__"
    cache.mkdir()
    stale = [cache / "_l96-0000000000000000.so", cache / "_l96-killedbuild.tmp"]
    other_stem = cache / "_csv-0000000000000000.so"
    for path in [*stale, other_stem]:
        path.write_bytes(b"")
    child = subprocess.run(
        [sys.executable, "-c", "from enkpf import compiled; print(compiled.load('_l96') is not None)"],
        env=dict(os.environ, PYTHONPATH=str(root)),
        capture_output=True, text=True, check=True,
    )
    assert child.stdout.split() == ["True"]
    assert not [path for path in stale if path.exists()]
    assert len(list(cache.glob("_l96-*.so"))) == 1
    assert other_stem.exists()  # only the stem that was built is cleaned


def test_every_c_source_ships_with_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text())
    package_data = pyproject["tool"]["setuptools"]["package-data"]["enkpf"]
    sources = sorted(path.name for path in PACKAGE.glob("_*.c"))
    assert sources and set(sources) <= set(package_data)


@pytest.mark.skipif(shutil.which(compiled.compile_command()[0]) is None, reason="no C compiler")
@pytest.mark.parametrize("source", sorted(PACKAGE.glob("*.c")), ids=lambda path: path.name)
def test_c_sources_compile_without_warnings(source, tmp_path):
    command = [*compiled.compile_command(), "-Wall", "-Wextra", "-Werror"]
    build = subprocess.run([*command, "-o", str(tmp_path / "lib.so"), str(source)],
                           capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
