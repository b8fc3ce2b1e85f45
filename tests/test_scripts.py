"""The example scripts run end to end on small settings.

Each runs in a fresh interpreter from an empty working directory, reads
its shipped config relative to its own location and, without --out,
writes no files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import enkpf

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("lorenz96_comparison.py", ["--cycles", "2"]),
        ("kdv_curvature_study.py", ["--seeds", "1"]),
        ("diversity_sweep.py", ["--members", "10"]),
    ],
    ids=["lorenz96_comparison", "kdv_curvature_study", "diversity_sweep"],
)
def test_script_runs(tmp_path, script, args):
    src = str(Path(enkpf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []
