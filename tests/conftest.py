"""Shared test setup.

One hypothesis profile for the whole suite: examples are derived from each
test's name, not drawn afresh, and no example database is written, so every
run of the suite tries the same inputs. A test's own @settings still set its
example count.

The `sanitized_build` fixture builds a C driver under tests/ with package C
sources, with AddressSanitizer and UndefinedBehaviorSanitizer.
"""

import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import settings

from enkpf import compiled

settings.register_profile("enkpf", derandomize=True, deadline=None, database=None)
settings.load_profile("enkpf")

_SANITIZE = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g"]
_TESTS = Path(__file__).resolve().parent
_PACKAGE = Path(compiled.__file__).resolve().parent


@pytest.fixture
def sanitized_build(tmp_path):
    """build(driver, *stems): the executable of tests/<driver>.c linked with
    the package's <stem>.c sources, built with the loader's compiler and
    optimization flags plus the sanitizers, -Wall -Wextra -Werror and the
    loader's libraries. Skips the test where there is no compiler or no
    sanitizer runtime."""
    cc = compiled.compile_command()
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    if subprocess.run([cc[0], *_SANITIZE, "-o", str(tmp_path / "probe"), str(probe)],
                      capture_output=True).returncode != 0:
        pytest.skip("the compiler has no AddressSanitizer or UndefinedBehaviorSanitizer runtime")
    flags = [flag for flag in cc[1:] if flag not in ("-shared", "-fPIC")]

    def build(driver: str, *stems: str) -> Path:
        executable = tmp_path / driver
        sources = [str(_TESTS / f"{driver}.c"), *(str(_PACKAGE / f"{stem}.c") for stem in stems)]
        run = subprocess.run([cc[0], *flags, *_SANITIZE, "-Wall", "-Wextra", "-Werror",
                              "-o", str(executable), *sources, *compiled.LIBS],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return executable

    return build
