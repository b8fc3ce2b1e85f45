"""The OpenBLAS thread policy: one thread inside the scope, the previous
counts back outside it, and no change when the user set a thread variable."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import enkpf
import enkpf.cli
import enkpf.experiment
from enkpf import blas

POOLS = blas.openblas_pools()

pytestmark = pytest.mark.skipif(
    not POOLS, reason="no OpenBLAS copy loaded: another BLAS, or no /proc/self/maps to find it"
)


def _counts():
    return [get() for get, _ in POOLS]


@pytest.fixture
def two_threads(monkeypatch):
    """Every pool at 2 threads, the policy active; the old counts come back after."""
    for var in blas.USER_VARS:
        monkeypatch.delenv(var, raising=False)
    before = _counts()
    for _, put in POOLS:
        put(2)
    yield
    for (_, put), n in zip(POOLS, before):
        put(n)


def test_scope_runs_on_one_thread_and_restores(two_threads):
    with blas.single_thread():
        assert _counts() == [1] * len(POOLS)
    assert _counts() == [2] * len(POOLS)


def test_scope_restores_when_the_body_raises(two_threads):
    with pytest.raises(RuntimeError):
        with blas.single_thread():
            raise RuntimeError("body failed")
    assert _counts() == [2] * len(POOLS)


def test_nested_scopes_restore_once_outermost_exits(two_threads):
    with blas.single_thread():
        with blas.single_thread():
            assert _counts() == [1] * len(POOLS)
        assert _counts() == [1] * len(POOLS)
    assert _counts() == [2] * len(POOLS)


def test_concurrent_scopes_leave_the_pools_restored(two_threads):
    inside = []

    def work():
        for _ in range(200):
            with blas.single_thread():
                inside.append(_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(inside) == 800 and all(c == [1] * len(POOLS) for c in inside)
    assert _counts() == [2] * len(POOLS)


def test_run_and_cli_handlers_run_inside_the_scope(two_threads, monkeypatch, tmp_path):
    seen = []

    def recording(original):
        def wrapper(*args, **kwargs):
            seen.append(_counts())
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(enkpf.experiment, "rmse", recording(enkpf.experiment.rmse))
    monkeypatch.setattr(enkpf.experiment, "ess", recording(enkpf.experiment.ess))
    cfg = enkpf.experiment_config_from_dict(
        {
            "model": {"kind": "lorenz96", "q": 8, "lead_time": 0.05},
            "observation": {"noise_variance": 0.5},
            "ensemble_size": 10,
            "cycles": 2,
        }
    )
    enkpf.run_experiment(cfg)
    enkpf.diversity_sweep(priors=("gaussian",), observations=("y1",), dims=(10,),
                          gamma_grid=(0.0, 1.0))
    summary = tmp_path / "cycles.csv"
    summary.write_text(enkpf.CYCLES_HEADER + "\n1,0,1,1,1,0.5,0.1,0.2,0\n")
    monkeypatch.setattr(enkpf.cli, "summarize", recording(enkpf.cli.summarize))
    assert enkpf.cli.main(["summarize", "--in", str(summary), "--out", str(tmp_path / "s.csv")]) == 0
    assert len(seen) == 2 + 2 + 1 and all(c == [1] * len(POOLS) for c in seen)
    assert _counts() == [2] * len(POOLS)


def test_user_thread_variable_leaves_pools_untouched(tmp_path):
    script = (
        "import json\n"
        "from enkpf import blas\n"
        "pools = blas.openblas_pools()\n"
        "for _, put in pools:\n"
        "    put(2)\n"
        "with blas.single_thread():\n"
        "    inside = [get() for get, _ in pools]\n"
        "print(json.dumps([len(pools), inside]))\n"
    )
    src = str(Path(enkpf.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in blas.USER_VARS}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    found, inside = json.loads(proc.stdout)
    assert found >= 1 and inside == [2] * found
