"""Ensemble container, sample moments, and covariance tapering.

States live in columns: a (q, N) matrix holds N particles of dimension q.
Tapering multiplies the sample covariance elementwise with a distance-based
correlation matrix to suppress spurious long-range correlations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .schema import check_fields

__all__ = [
    "Ensemble",
    "MomentEstimate",
    "TaperSpec",
    "NO_TAPER",
    "component_distances",
    "gaspari_cohn",
    "taper_matrix",
    "sample_moments",
    "tapered_covariance",
]


@dataclass(frozen=True)
class Ensemble:
    """A (q, N) matrix of particles; column j is member x_j."""

    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2:
            raise ValueError("ensemble states must be a 2-d (q, N) array")
        q, n = states.shape
        if q < 1 or n < 2:
            raise ValueError(f"degenerate ensemble: need q >= 1, N >= 2, got shape {states.shape}")
        if not np.all(np.isfinite(states)):
            raise ValueError("ensemble states must be finite")
        object.__setattr__(self, "states", states)

    @property
    def q(self) -> int:
        return self.states.shape[0]

    @property
    def n_members(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class MomentEstimate:
    mean: np.ndarray
    cov: np.ndarray


TaperKind = Literal["none", "triangular", "gaspari_cohn"]
Topology = Literal["line", "ring"]


@dataclass(frozen=True)
class TaperSpec:
    """Covariance taper: `none`, `triangular` (range = support), or
    `gaspari_cohn` (half-support = support, zero beyond twice that).

    topology decides the inter-component distance: `line` uses |i - k|,
    `ring` wraps around, d = min(|i - k|, q - |i - k|).
    """

    kind: TaperKind = "none"
    support: float = 0.0
    topology: Topology = "line"

    def __post_init__(self):
        check_fields(self)
        if self.kind != "none" and not self.support > 0:
            raise ValueError("taper support must be positive")


NO_TAPER = TaperSpec()


def component_distances(q: int, topology: str) -> np.ndarray:
    idx = np.arange(q, dtype=float)
    d = np.abs(idx[:, None] - idx[None, :])
    if topology == "ring":
        d = np.minimum(d, q - d)
    return d


def gaspari_cohn(r) -> np.ndarray:
    """Fifth-order piecewise-rational compactly supported correlation.

    Argument is distance over the half-support; the function is 1 at 0 and
    identically zero for r >= 2.
    """
    r = np.abs(np.asarray(r, dtype=float))
    out = np.zeros_like(r)
    near = r <= 1.0
    rn = r[near]
    out[near] = 1.0 - (5.0 / 3.0) * rn**2 + (5.0 / 8.0) * rn**3 + 0.5 * rn**4 - 0.25 * rn**5
    far = (r > 1.0) & (r < 2.0)
    rf = r[far]
    # just below r = 2 the polynomial cancels to rounding noise, which can be
    # negative; the function itself is nonnegative there
    out[far] = np.maximum(
        0.0,
        4.0
        - 5.0 * rf
        + (5.0 / 3.0) * rf**2
        + (5.0 / 8.0) * rf**3
        - 0.5 * rf**4
        + (1.0 / 12.0) * rf**5
        - (2.0 / 3.0) / rf,
    )
    return out


def taper_matrix(spec: TaperSpec, q: int) -> np.ndarray:
    """The (q, q) elementwise taper; symmetric PSD with unit diagonal."""
    if q < 1:
        raise ValueError("q must be positive")
    if spec.kind == "none":
        return np.ones((q, q))
    d = component_distances(q, spec.topology)
    if spec.kind == "triangular":
        return np.maximum(0.0, 1.0 - d / spec.support)
    return gaspari_cohn(d / spec.support)


def sample_moments(ens: Ensemble) -> MomentEstimate:
    """Sample mean and covariance (divisor N - 1), covariance symmetrized."""
    x = ens.states
    n = x.shape[1]
    mean = x.mean(axis=1)
    dev = x - mean[:, None]
    cov = dev @ dev.T / (n - 1)
    return MomentEstimate(mean=mean, cov=0.5 * (cov + cov.T))


def tapered_covariance(ens: Ensemble, spec: TaperSpec) -> MomentEstimate:
    """Sample moments with the covariance multiplied elementwise by the taper.

    The Schur product of the PSD sample covariance with a PSD taper stays
    PSD, and the unit taper diagonal leaves variances untouched. A sample
    covariance that overflowed raises np.linalg.LinAlgError, which names it.
    """
    mom = sample_moments(ens)
    if not np.isfinite(mom.cov).all():
        raise np.linalg.LinAlgError("forecast covariance is not finite")
    if spec.kind == "none":
        return mom
    return MomentEstimate(mean=mom.mean, cov=mom.cov * _cached_taper(spec, ens.q))


@functools.lru_cache(maxsize=8)
def _cached_taper(spec: TaperSpec, q: int) -> np.ndarray:
    """taper_matrix(spec, q), built once per (spec, q) and read-only, since
    every cycle and request shares it."""
    taper = taper_matrix(spec, q)
    taper.flags.writeable = False
    return taper
