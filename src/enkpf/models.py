"""Testbed dynamics: the 40-variable cyclic advection model and a periodic
Korteweg-de Vries solver, plus their initial-ensemble constructions.

Both propagators accept a (q,) state, a (q, N) matrix, or an Ensemble and
are bitwise deterministic. Divergence (NaN/overflow) raises DivergenceError.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .compiled import load as load_library
from .ensemble import Ensemble
from .errors import DivergenceError
from .schema import check_fields

__all__ = [
    "Lorenz96Config",
    "KdVConfig",
    "lorenz96_drift",
    "lorenz96_propagate",
    "lorenz96_initial",
    "kdv_propagate",
    "kdv_profile",
    "kdv_initial",
    "kdv_truth",
]


def _step_count(duration: float, dt: float) -> int:
    n = int(round(duration / dt))
    if duration < 0 or abs(n * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise ValueError(f"duration {duration} is not a nonnegative multiple of the step {dt}")
    return n


@dataclass(frozen=True)
class Lorenz96Config:
    """Cyclic quadratic advection with constant forcing, forward Euler."""

    q: int = 40
    forcing: float = 8.0
    dt: float = 0.001
    lead_time: float = 0.4

    def __post_init__(self):
        check_fields(self)
        if self.q < 4:
            raise ValueError("need at least 4 components for the cyclic stencil")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.lead_time > 0:
            raise ValueError("lead_time must be positive")
        _step_count(self.lead_time, self.dt)


@dataclass(frozen=True)
class KdVConfig:
    """Periodic KdV on [-1, 1), solved by Strang splitting: exact linear
    phase in spectral space around a dealiased RK4 step for the nonlinearity."""

    grid_points: int = 128
    internal_dt: float = 1e-4
    lead_time: float = 0.01
    dealias: bool = True

    def __post_init__(self):
        check_fields(self)
        gp = self.grid_points
        if gp < 4 or gp & (gp - 1) != 0:
            raise ValueError("grid_points must be a power of two")
        if not self.internal_dt > 0:
            raise ValueError("internal_dt must be positive")
        if not self.lead_time > 0:
            raise ValueError("lead_time must be positive")
        _step_count(self.lead_time, self.internal_dt)

    @property
    def grid(self) -> np.ndarray:
        """Collocation points, spacing 2/q, left endpoint included."""
        return -1.0 + 2.0 * np.arange(self.grid_points) / self.grid_points


def lorenz96_drift(x: np.ndarray, forcing: float = 8.0) -> np.ndarray:
    """dX_k = (X_{k+1} - X_{k-2}) X_{k-1} - X_k + forcing, indices cyclic.

    Acts along axis 0, so a (q, N) matrix advances all members at once.
    This is the reference formula: lorenz96_propagate evaluates the same
    operations in place and matches Euler steps of it bitwise.
    """
    return (np.roll(x, -1, axis=0) - np.roll(x, 2, axis=0)) * np.roll(x, 1, axis=0) - x + forcing


def _as_matrix(state):
    if isinstance(state, Ensemble):
        return state.states, "ensemble"
    x = np.asarray(state, dtype=float)
    return (x[:, None], "vector") if x.ndim == 1 else (x, "matrix")


def _wrap(x, form):
    if form == "ensemble":
        return Ensemble(x)
    return x[:, 0] if form == "vector" else x


def lorenz96_propagate(state, cfg: Lorenz96Config, duration: float | None = None):
    """Advance by forward Euler steps of cfg.dt over the given duration.

    The steps run in the compiled kernel of _l96.c where a C compiler can
    build it, and in a numpy loop otherwise. Both evaluate the drift in the
    operation order of lorenz96_drift, so either result is bitwise equal to
    repeating x = x + dt * lorenz96_drift(x, forcing). The input is not
    modified.
    """
    x, form = _as_matrix(state)
    q = cfg.q
    if x.shape[0] != q:
        raise ValueError(f"state dimension {x.shape[0]} != configured q {q}")
    steps = _step_count(cfg.lead_time if duration is None else duration, cfg.dt)
    out = (_l96_kernel() or _euler_numpy)(x, steps, cfg.dt, cfg.forcing)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("lorenz96 state became non-finite")
    return _wrap(out, form)


@functools.cache
def _l96_kernel():
    """The Euler loop of _l96.c as a drop-in for _euler_numpy, or None where
    the kernel cannot be built or loaded (see enkpf.compiled)."""
    dll = load_library("_l96")
    if dll is None:
        return None
    kernel, block = dll.l96_euler, ctypes.c_long.in_dll(dll, "l96_block").value
    c_long, c_double, c_void_p = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
    kernel.argtypes = [c_void_p, c_long, c_long, c_long, c_double, c_double, c_void_p]
    kernel.restype = None

    def euler(x, steps, dt, forcing):
        out = np.array(x, dtype=np.float64, order="C")
        q, m = out.shape
        # two (q, block) slabs, plus the 64 bytes the kernel may skip to
        # start them on a cache line
        work = np.empty(2 * q * block + 8)
        kernel(out.ctypes.data, q, m, steps, dt, forcing, work.ctypes.data)
        return out

    return euler


def _euler_numpy(x, steps, dt, forcing):
    """The Euler loop without a compiler, and the reference the kernel is
    tested against.

    The state sits in rows 2..q+1 of one padded (q+3, M) buffer. Rows 0-1
    repeat x[q-2], x[q-1] and row q+2 repeats x[0], so the cyclic neighbours
    x[k+1], x[k-2] and x[k-1] are plain row slices. Each step refreshes the
    three wrap rows and evaluates the drift into one preallocated temporary.
    """
    q = x.shape[0]
    dt, forcing = np.float64(dt), np.float64(forcing)
    pad = np.empty((q + 3, x.shape[1]))
    body = pad[2 : q + 2]
    body[...] = x
    ahead, back2, back1 = pad[3 : q + 3], pad[0:q], pad[1 : q + 1]
    low_wrap, low_source, high_wrap, high_source = pad[0:2], pad[q : q + 2], pad[q + 2], pad[2]
    d = np.empty_like(body)
    # a step is eight calls on small arrays, where per-call dispatch weighs:
    # bind the functions once and pass `out` positionally
    copyto, subtract, multiply, add = np.copyto, np.subtract, np.multiply, np.add
    for _ in range(steps):
        copyto(low_wrap, low_source)
        copyto(high_wrap, high_source)
        subtract(ahead, back2, d)
        multiply(d, back1, d)
        subtract(d, body, d)
        add(d, forcing, d)
        multiply(dt, d, d)
        add(body, d, body)
    return body


def lorenz96_initial(gen: np.random.Generator, n_members: int, q: int = 40) -> Ensemble:
    """Standard-normal initial ensemble; truth draws come from the same law."""
    return Ensemble(gen.standard_normal((q, n_members)))


def _kdv_wavenumbers(q: int) -> np.ndarray:
    # domain length 2, so mode m carries angular wavenumber pi*m
    return np.pi * np.arange(q // 2 + 1, dtype=float)


def kdv_propagate(state, cfg: KdVConfig, duration: float | None = None):
    """Strang-split KdV: u_t + u_xxx + 3 (u^2)_x = 0, periodic on [-1, 1).

    Each internal step applies a half linear phase exp(i k^3 dt / 2) to every
    spectral mode, a full RK4 step of the nonlinear term (with the top third
    of modes zeroed when dealiasing is on), and another half phase. The zero
    mode is invariant under both substeps, so the spatial mean is conserved
    to rounding.
    """
    x, form = _as_matrix(state)
    q = cfg.grid_points
    if x.shape[0] != q:
        raise ValueError(f"state dimension {x.shape[0]} != grid_points {q}")
    steps = _step_count(cfg.lead_time if duration is None else duration, cfg.internal_dt)
    dt = cfg.internal_dt
    k = _kdv_wavenumbers(q)[:, None]
    half_phase = np.exp(1j * k**3 * dt / 2.0)
    keep = np.ones(q // 2 + 1, dtype=bool)
    if cfg.dealias:
        keep = np.arange(q // 2 + 1) <= q // 3
    mask = keep[:, None]

    def nonlinear(fx):
        u = np.fft.irfft(fx, n=q, axis=0)
        w = np.fft.rfft(u * u, axis=0)
        return -3j * k * np.where(mask, w, 0.0)

    f = np.fft.rfft(x, axis=0).astype(complex)
    for _ in range(steps):
        f = f * half_phase
        k1 = nonlinear(f)
        k2 = nonlinear(f + 0.5 * dt * k1)
        k3 = nonlinear(f + 0.5 * dt * k2)
        k4 = nonlinear(f + dt * k3)
        f = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if cfg.dealias:
            f = np.where(mask, f, 0.0)
        f = f * half_phase
    out = np.fft.irfft(f, n=q, axis=0)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("kdv state became non-finite")
    return _wrap(out, form)


def kdv_profile(s, width: float) -> np.ndarray:
    """Gaussian bump exp(-s^2 / width^2) used for initial conditions."""
    s = np.asarray(s, dtype=float)
    return np.exp(-(s**2) / width**2)


def kdv_initial(cfg: KdVConfig, n_members: int) -> Ensemble:
    """Width-uncertain bump ensemble: log widths sit at the midpoint
    quantiles (j - 1/2)/N of the uniform law on [log 0.05, log 0.3]."""
    lo, hi = np.log(0.05), np.log(0.3)
    j = np.arange(1, n_members + 1)
    widths = np.exp(lo + (j - 0.5) / n_members * (hi - lo))
    s = cfg.grid
    return Ensemble(kdv_profile(s[:, None], widths[None, :]))


def kdv_truth(cfg: KdVConfig, width: float = 0.2) -> np.ndarray:
    return kdv_profile(cfg.grid, width)
