"""Start-up: enkpf takes its LAPACK from scipy's compiled extension without
importing scipy.linalg, and a process serving `enkpf update` requests keeps
its freed heap instead of faulting it back in on every request."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import enkpf
from enkpf import write_matrix_csv

SRC = str(Path(enkpf.__file__).resolve().parent.parent)


def _python(script: str, *args: str) -> str:
    """stdout of `script` run in a fresh interpreter that imports enkpf from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _update_inputs(tmp_path, q=40, n=400):
    """A forecast of q components and n members, every second one observed."""
    gen = np.random.default_rng(1601)
    write_matrix_csv(tmp_path / "ens.csv", 2.3 + gen.standard_normal((q, n)))
    rows = [f"{c},{gen.standard_normal():.17g},0.5" for c in range(1, q + 1, 2)]
    (tmp_path / "obs.csv").write_text("component,value,noise_variance\n" + "\n".join(rows) + "\n")
    return [
        "update", "--ensemble", str(tmp_path / "ens.csv"), "--obs", str(tmp_path / "obs.csv"),
        "--gamma", "auto", "--taper", "gaspari_cohn", "--taper-support", "10",
        "--taper-topology", "ring", "--seed", "3", "--out", str(tmp_path / "out.csv"),
    ]


def test_update_leaves_scipy_linalg_unimported(tmp_path):
    argv = _update_inputs(tmp_path, q=8, n=30)
    script = (
        "import contextlib, io, json, sys\n"
        "from pathlib import Path\n"
        "import enkpf.cli, enkpf.lapack\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = enkpf.cli.main(json.loads(sys.argv[1]))\n"
        "loaded = sorted(m for m in ('scipy', 'scipy.linalg') if m in sys.modules)\n"
        "import scipy.linalg\n"
        "same = Path(enkpf.lapack._flapack.__file__).samefile(scipy.linalg._flapack.__file__)\n"
        "print(json.dumps([code, loaded, same]))\n"
    )
    code, loaded, same = json.loads(_python(script, json.dumps(argv)))
    assert code == 0 and loaded == [] and same


_FACTOR_AND_SOLVE = (
    "import hashlib, importlib.util, sys\n"
    "import numpy as np\n"
    "if sys.argv[1] == 'miss':  # the locator finds no scipy package\n"
    "    find = importlib.util.find_spec\n"
    "    importlib.util.find_spec = lambda name, *a: None if name == 'scipy' else find(name, *a)\n"
    "from enkpf import lapack\n"
    "h = hashlib.sha256()\n"
    "gen = np.random.default_rng(77)\n"
    "for n in (1, 2, 5, 20, 64):\n"
    "    a = gen.standard_normal((n, n + 3))\n"
    "    a = a @ a.T + 1e-3 * np.eye(n)\n"
    "    b = gen.standard_normal((n, 7))\n"
    "    for order in ('C', 'F'):\n"
    "        c, _ = lapack.dpotrf(np.asarray(a, order=order), lower=1)\n"
    "        x, _ = lapack.dpotrs(c, np.asarray(b, order=order), lower=1)\n"
    "        z, _ = lapack.dtrtrs(c, np.asarray(b, order=order), lower=1, trans=1)\n"
    "        for out in (c, x, z):\n"
    "            h.update(out.tobytes(order='A') + str(out.flags.f_contiguous).encode())\n"
    "print(h.hexdigest(), 'scipy.linalg' in sys.modules)\n"
)


def test_fallback_import_gives_the_same_bits():
    by_file = _python(_FACTOR_AND_SOLVE, "hit").split()
    by_scipy = _python(_FACTOR_AND_SOLVE, "miss").split()
    assert by_file[1] == "False" and by_scipy[1] == "True"
    assert by_file[0] == by_scipy[0]


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the malloc thresholds are pinned on glibc only",
)
def test_update_requests_do_not_fault_their_heap_back_in(tmp_path):
    # a fresh interpreter: the test process's own allocations would raise
    # glibc's dynamic thresholds and hide a missing policy
    argv = _update_inputs(tmp_path)
    script = (
        "import contextlib, io, json, resource, sys\n"
        "import enkpf.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "faults = []\n"
        "for i in range(60):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert enkpf.cli.main(argv) == 0\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(json.dumps(faults[10:]))\n"
    )
    faults = json.loads(_python(script, json.dumps(argv)))
    assert len(faults) == 50 and max(faults) <= 10, faults
