import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enkpf import models
from enkpf import (
    DivergenceError,
    Ensemble,
    KdVConfig,
    Lorenz96Config,
    kdv_initial,
    kdv_profile,
    kdv_propagate,
    kdv_truth,
    lorenz96_drift,
    lorenz96_initial,
    lorenz96_propagate,
)
from enkpf.compiled import compile_command, load


def test_drift_equilibrium():
    assert np.all(lorenz96_drift(np.full(12, 8.0), 8.0) == 0.0)


def test_drift_from_rest():
    assert np.all(lorenz96_drift(np.zeros(7), 8.0) == 8.0)


def test_drift_hand_stencil():
    # component 1: (x2 - x3) x4 - x1 + 8 = (2 - 3) * 4 - 1 + 8 = 3, cyclically
    d = lorenz96_drift(np.array([1.0, 2.0, 3.0, 4.0]), 8.0)
    assert np.array_equal(d, [3.0, 5.0, 11.0, 1.0])


def test_propagate_zero_duration_is_identity():
    cfg = Lorenz96Config()
    x = np.linspace(-1, 1, 40)
    assert np.array_equal(lorenz96_propagate(x, cfg, 0.0), x)


def test_propagate_keeps_equilibrium():
    cfg = Lorenz96Config(q=10)
    x = np.full(10, 8.0)
    assert np.array_equal(lorenz96_propagate(x, cfg, 0.2), x)


def test_propagate_single_step_from_rest():
    cfg = Lorenz96Config(q=6)
    out = lorenz96_propagate(np.zeros(6), cfg, 0.001)
    assert np.allclose(out, 0.008, rtol=0, atol=0)


def test_propagate_matches_per_column():
    cfg = Lorenz96Config(q=8)
    gen = np.random.default_rng(0)
    block = gen.standard_normal((8, 3))
    joint = lorenz96_propagate(block, cfg, 0.1)
    for j in range(3):
        single = lorenz96_propagate(block[:, j], cfg, 0.1)
        assert np.array_equal(joint[:, j], single)


def test_stacked_truth_matches_separate_calls_at_benchmark_shape():
    # the cycling loop advances [ensemble | truth] in one call; at the paper's
    # main shape (q = 40, N = 400) each column must equal its own run
    cfg = Lorenz96Config()
    gen = np.random.default_rng(6)
    ens, truth = lorenz96_initial(gen, 400), gen.standard_normal(40)
    joint = lorenz96_propagate(np.column_stack((ens.states, truth)), cfg)
    assert np.array_equal(joint[:, :400], lorenz96_propagate(ens, cfg).states)
    assert np.array_equal(joint[:, 400], lorenz96_propagate(truth, cfg))


def _euler_reference(x, cfg, steps):
    for _ in range(steps):
        x = x + cfg.dt * lorenz96_drift(x, cfg.forcing)
    return x


@pytest.mark.parametrize("q", [4, 5, 40])
def test_propagate_bitwise_matches_drift_euler(q):
    # q=4 is the smallest allowed stencil: the three wrap rows of the padded
    # buffer then copy three of the four state rows
    cfg = Lorenz96Config(q=q)
    steps = 60
    gen = np.random.default_rng(q)
    vector = 3.0 * gen.standard_normal(q)
    matrix = 3.0 * gen.standard_normal((q, 7))
    for state in (vector, matrix, Ensemble(matrix)):
        x = state.states if isinstance(state, Ensemble) else state
        before = x.copy()
        out = lorenz96_propagate(state, cfg, steps * cfg.dt)
        assert type(out) is type(state)
        got = out.states if isinstance(out, Ensemble) else out
        assert np.array_equal(got, _euler_reference(x, cfg, steps))
        assert np.array_equal(x, before)


_KERNEL = models._l96_kernel()
needs_kernel = pytest.mark.skipif(_KERNEL is None, reason="the C kernel could not be built here")
_SOURCE = Path(models.__file__).with_name("_l96.c")
BLOCK = int(re.search(r"#define L96_BLOCK (\d+)", _SOURCE.read_text()).group(1))


@needs_kernel
@pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 401])
@pytest.mark.parametrize("q", [4, 5, 40, 100])
def test_kernel_matches_numpy_loop_bitwise(q, m):
    # m around the block width covers a lone partial block, one full block
    # and a full block followed by a one-column block
    x = 3.0 * np.random.default_rng(q * 1000 + m).standard_normal((q, m))
    before = x.copy()
    got = _KERNEL(x, 80, 0.001, 8.0)
    assert np.array_equal(got, models._euler_numpy(x, 80, 0.001, 8.0))
    assert np.array_equal(x, before)


@needs_kernel
def test_kernel_takes_zero_steps_and_any_layout():
    cfg = Lorenz96Config()
    x = np.random.default_rng(7).standard_normal((40, 2 * BLOCK + 3))
    assert np.array_equal(lorenz96_propagate(x, cfg, 0.0), x)
    for state in (np.asfortranarray(x), np.arange(40 * 9).reshape(40, 9) % 7, x[:, ::2]):
        before = state.copy()
        got = lorenz96_propagate(state, cfg)
        assert np.array_equal(got, models._euler_numpy(np.asarray(state, float), 400, 0.001, 8.0))
        assert np.array_equal(state, before)


# Each build of _l96.c the host can run: the shipped clones, whose resolver
# picks one by CPUID, each target of the clone list alone, and the plain
# build without the attribute, which compilers without clones produce
_CLONE_LIST = re.search(r"__attribute__\(\(target_clones\(([^)]*)\)\)\)", _SOURCE.read_text())
_TARGETS = [t for t in re.findall(r'"([^"]*)"', _CLONE_LIST[1]) if t != "default"]


def _cpu_flags() -> set[str]:
    try:
        flags = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
    except OSError:
        return set()
    return set(flags[1].split()) if flags else set()


def _raw_kernel(dll):
    kernel = dll.l96_euler
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
                       ctypes.c_double, ctypes.c_double, ctypes.c_void_p]
    kernel.restype = None
    return kernel


@pytest.fixture(scope="module", params=["clones", *_TARGETS, "plain"])
def build(request, tmp_path_factory):
    if _KERNEL is None:
        pytest.skip("the C kernel could not be built here")
    if request.param == "clones":
        return _raw_kernel(load("_l96"))
    if request.param == "plain":
        attribute = ""
    else:
        missing = set(request.param.split(",")) - _cpu_flags()
        if missing:
            pytest.skip(f"this CPU lacks {', '.join(sorted(missing))}")
        attribute = f'__attribute__((target("{request.param}")))'
    root = tmp_path_factory.mktemp(request.param.replace(",", "_"))
    source = root / "_l96.c"
    source.write_text(_SOURCE.read_text().replace(_CLONE_LIST[0], attribute))
    subprocess.run([*compile_command(), "-o", str(root / "lib.so"), str(source)],
                   check=True, capture_output=True)
    return _raw_kernel(ctypes.CDLL(str(root / "lib.so")))


def _run(kernel, x, work):
    out = np.array(x, order="C")
    q, m = out.shape
    kernel(out.ctypes.data, q, m, 80, 0.001, 8.0, work.ctypes.data)
    return out


def _assert_bitwise_equal(got, expected):
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 401])
@pytest.mark.parametrize("q", [4, 5, 40])
def test_every_build_matches_numpy_loop_bitwise(build, q, m):
    x = 3.0 * np.random.default_rng(q * 1000 + m).standard_normal((q, m))
    got = _run(build, x, np.empty(2 * q * BLOCK + 8))
    _assert_bitwise_equal(got, models._euler_numpy(x, 80, 0.001, 8.0))


@pytest.mark.parametrize("offset", range(8))
def test_every_build_aligns_its_slabs_inside_the_workspace(build, offset):
    # the workspace starts `offset` doubles past a page boundary, so past a
    # 64-byte one as well, and is fenced by guard values on both sides
    q, m, guard = 40, BLOCK + 1, -7.25
    size = 2 * q * BLOCK + 8
    fenced = np.full(size + 1024, guard)
    page = 8 + (-(fenced.ctypes.data + 64) % 4096) // 8
    start = page + offset
    x = 3.0 * np.random.default_rng(offset).standard_normal((q, m))
    got = _run(build, x, fenced[start : start + size])
    _assert_bitwise_equal(got, models._euler_numpy(x, 80, 0.001, 8.0))
    written = np.flatnonzero(fenced != guard)
    # the slabs start at the first 64-byte boundary and end inside the workspace
    assert written[0] == (page + 8 if offset else page)
    assert written[-1] < start + size


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
def test_divergence_is_raised_on_either_path(compiled, monkeypatch):
    if compiled and _KERNEL is None:
        pytest.skip("the C kernel could not be built here")
    if not compiled:
        monkeypatch.setattr(models, "_l96_kernel", lambda: None)
    # one diverging column among BLOCK + 1 finite ones, in the second block
    x = np.random.default_rng(8).standard_normal((4, BLOCK + 2))
    x[:, -1] = [1e100, -1e100, 1e100, 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            lorenz96_propagate(x, Lorenz96Config(q=4), 0.01)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_is_the_path_taken_when_a_compiler_exists(monkeypatch):
    assert _KERNEL is not None

    def numpy_loop(*args):
        raise AssertionError("the numpy loop ran although the kernel is built")

    monkeypatch.setattr(models, "_euler_numpy", numpy_loop)
    lorenz96_propagate(np.zeros(40), Lorenz96Config())


_CHILD = """
import hashlib, sys
import numpy as np
from enkpf import Lorenz96Config, lorenz96_propagate, models
x = np.random.default_rng(9).standard_normal((40, 401))
out = lorenz96_propagate(x, Lorenz96Config())
print(models._l96_kernel() is not None, hashlib.sha256(out.tobytes()).hexdigest())
"""


def _package_copy(tmp_path):
    root = tmp_path / "site"
    shutil.copytree(_SOURCE.parent, root / "enkpf", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _expected_digest():
    x = np.random.default_rng(9).standard_normal((40, 401))
    return hashlib.sha256(models._euler_numpy(x, 400, 0.001, 8.0).tobytes()).hexdigest()


def _start_child(root, **env):
    env = dict(os.environ, PYTHONPATH=str(root), **env)
    return subprocess.Popen([sys.executable, "-c", _CHILD], env=env, stdout=subprocess.PIPE,
                            text=True)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_concurrent_first_builds_each_load_the_kernel(tmp_path):
    # two processes find an empty __pycache__ at once; the build lock lets
    # one compile and publish with os.replace, and both load the library
    root = _package_copy(tmp_path)
    children = [_start_child(root) for _ in range(2)]
    outputs = [child.communicate()[0].split() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs == [["True", _expected_digest()]] * 2
    cache = root / "enkpf" / "__pycache__"
    assert len(list(cache.glob("_l96-*.so"))) == 1
    assert not list(cache.glob("_l96-*.tmp"))


@pytest.mark.parametrize("broken", ["source", "compiler", "cache_directory"])
def test_numpy_loop_runs_where_the_kernel_cannot_be_built(tmp_path, broken):
    root = _package_copy(tmp_path)
    env = {}
    if broken == "source":
        (root / "enkpf" / "_l96.c").write_text("this is not C\n")
    elif broken == "compiler":
        env["PATH"] = str(tmp_path)  # no compiler to be found
    else:
        # a file where __pycache__ belongs: the library cannot be written,
        # as in a read-only install
        (root / "enkpf" / "__pycache__").write_text("")
    child = _start_child(root, **env)
    output = child.communicate()[0].split()
    assert child.returncode == 0
    assert output == ["False", _expected_digest()]


def test_propagate_accepts_ensembles():
    cfg = Lorenz96Config(q=5)
    gen = np.random.default_rng(1)
    ens = Ensemble(gen.standard_normal((5, 4)))
    out = lorenz96_propagate(ens, cfg, 0.05)
    assert isinstance(out, Ensemble)
    assert out.states.shape == (5, 4)


def test_propagate_rejects_misaligned_duration():
    cfg = Lorenz96Config()
    with pytest.raises(ValueError):
        lorenz96_propagate(np.zeros(40), cfg, 0.0015)


def test_propagate_signals_divergence():
    # a constant state only decays (the advection difference cancels), so the
    # blow-up needs unequal components; amplitude 1e100 overflows in two steps
    cfg = Lorenz96Config(q=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            lorenz96_propagate(np.array([1e100, -1e100, 1e100, 0.0]), cfg, 0.01)


def test_euler_local_error_is_second_order():
    # one Euler step differs from a Runge-Kutta reference by O(dt^2):
    # halving dt must quarter the defect
    gen = np.random.default_rng(2)
    x = gen.standard_normal(12) + 2.0

    def rk4(x, dt):
        k1 = lorenz96_drift(x, 8.0)
        k2 = lorenz96_drift(x + 0.5 * dt * k1, 8.0)
        k3 = lorenz96_drift(x + 0.5 * dt * k2, 8.0)
        k4 = lorenz96_drift(x + dt * k3, 8.0)
        return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    errs = []
    for dt in (1e-3, 5e-4):
        euler = lorenz96_propagate(x, Lorenz96Config(q=12, dt=dt), dt)
        errs.append(np.linalg.norm(euler - rk4(x, dt)))
    ratio = errs[1] / errs[0]
    assert 0.2 <= ratio <= 0.3


def test_lorenz96_initial_reproducible():
    a = lorenz96_initial(np.random.default_rng(3), 10, q=6)
    b = lorenz96_initial(np.random.default_rng(3), 10, q=6)
    c = lorenz96_initial(np.random.default_rng(4), 10, q=6)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_lorenz96_initial_moments():
    ens = lorenz96_initial(np.random.default_rng(5), 100_000, q=8)
    x = ens.states
    n = x.shape[1]
    assert np.all(np.abs(x.mean(axis=1)) <= 3.0 / np.sqrt(n))
    cov = np.cov(x)
    se = np.sqrt((1.0 + np.eye(8)) / n)  # var of cov entries for unit normals
    assert np.all(np.abs(cov - np.eye(8)) <= 3.0 * se)


def test_kdv_config_validation():
    with pytest.raises(ValueError):
        KdVConfig(grid_points=100)  # not a power of two
    with pytest.raises(ValueError):
        KdVConfig(internal_dt=3e-4)  # does not divide the lead time
    grid = KdVConfig().grid
    assert grid[0] == -1.0
    assert grid.size == 128
    assert np.allclose(np.diff(grid), 2.0 / 128)


def test_kdv_constant_field_fixed_point():
    cfg = KdVConfig()
    x = np.full(128, 0.7)
    out = kdv_propagate(x, cfg, 0.01)
    assert np.allclose(out, 0.7, rtol=0, atol=1e-13)


def test_kdv_mean_conserved():
    cfg = KdVConfig()
    gen = np.random.default_rng(6)
    x = np.exp(-cfg.grid**2 / 0.04) + 0.1 * gen.standard_normal(128)
    m0 = x.mean()
    for _ in range(10):  # 10 leads = 1000 internal steps
        x = kdv_propagate(x, cfg)
    assert abs(x.mean() - m0) <= 1e-10


def test_kdv_dealias_zeroes_top_modes():
    cfg = KdVConfig()
    x = kdv_truth(cfg)
    out = kdv_propagate(x, cfg, 0.01)
    spec = np.abs(np.fft.rfft(out))
    cutoff = 128 // 3
    assert spec[cutoff + 1 :].max() <= 1e-12 * spec.max()
    loud = kdv_propagate(x, KdVConfig(dealias=False), 0.01)
    loud_spec = np.abs(np.fft.rfft(loud))
    assert loud_spec[cutoff + 1 :].max() > spec[cutoff + 1 :].max()


@pytest.mark.parametrize("dealias", [True, False])
def test_kdv_stacked_truth_matches_separate_calls(dealias):
    # the FFTs and RK4 stages act column by column, so stacking the truth
    # onto the ensemble changes no bit of either
    cfg = KdVConfig(grid_points=128, dealias=dealias)
    ens, truth = kdv_initial(cfg, 16), kdv_truth(cfg)
    joint = kdv_propagate(np.column_stack((ens.states, truth)), cfg)
    assert np.array_equal(joint[:, :16], kdv_propagate(ens, cfg).states)
    assert np.array_equal(joint[:, 16], kdv_propagate(truth, cfg))


def test_kdv_soliton_transport():
    # 2 kappa^2 sech^2(kappa (s - s0 - 4 kappa^2 t)) solves the equation;
    # fine internal steps keep the translated shape to 1e-3 in max norm
    kappa, s0 = 8.0, -0.5
    cfg = KdVConfig(internal_dt=1e-6, lead_time=1e-3)
    s = cfg.grid

    def soliton(center):
        d = (s - center + 1.0) % 2.0 - 1.0
        return 2 * kappa**2 / np.cosh(kappa * d) ** 2

    state = kdv_propagate(soliton(s0), cfg)
    assert np.max(np.abs(state - soliton(s0 + 4 * kappa**2 * 1e-3))) <= 1e-3


def test_kdv_deterministic():
    cfg = KdVConfig()
    x = kdv_truth(cfg) + 0.05
    assert np.array_equal(kdv_propagate(x, cfg), kdv_propagate(x, cfg))


def test_kdv_profile_values():
    assert kdv_profile(0.0, 0.17) == 1.0
    assert kdv_profile(0.2, 0.2) == np.exp(-1.0)


def test_kdv_initial_quantile_widths():
    cfg = KdVConfig()
    ens = kdv_initial(cfg, 16)
    assert ens.states.shape == (128, 16)
    # s = 0 sits at grid index 64; every member peaks at exactly 1 there
    assert np.all(ens.states[64] == 1.0)
    lo, hi = np.log(0.05), np.log(0.3)
    widths = np.exp(lo + (np.arange(1, 17) - 0.5) / 16.0 * (hi - lo))
    expect = kdv_profile(cfg.grid[:, None], widths[None, :])
    assert np.allclose(ens.states, expect, rtol=0, atol=0)


def test_kdv_truth_is_midrange_bump():
    cfg = KdVConfig()
    truth = kdv_truth(cfg)
    assert np.array_equal(truth, kdv_profile(cfg.grid, 0.2))
    assert truth[64] == 1.0
