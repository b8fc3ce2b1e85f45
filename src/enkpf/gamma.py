"""Choosing the bridge parameter, and closed-form weight-variance analysis.

The adaptive rule picks the smallest gamma on a fixed grid whose update keeps
enough weight diversity, assuming diversity grows with gamma. Diversity is
measured by ess or div of the mixture weights, deterministic given the
forecast.

weight_variance_exact gives N^2 Var of a normalized mixture weight under a
Gaussian forecast with known moments; weight_variance_asymptotic is its
leading (1 - gamma)^2 term near gamma = 1. Both support effective-sample-size
predictions via ess ~ N / (1 + N^2 Var).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtrs

from .ensemble import Ensemble
from .mixture import _mixture_from_cov, _tempered_stage
from .observation import LinearGaussianObservation, kalman_gain
from .resampling import div, ess, weights_from_log
from .schema import check_fields

__all__ = [
    "GammaPolicy",
    "DEFAULT_GAMMA_GRID",
    "select_gamma",
    "weight_variance_exact",
    "weight_variance_asymptotic",
]

DEFAULT_GAMMA_GRID = tuple(k / 15.0 for k in range(16))

Mode = Literal["fixed", "adaptive_ess", "adaptive_div"]

# the diversity measure of each adaptive mode, in effective members
MEASURES = {"adaptive_ess": ess, "adaptive_div": div}


@dataclass(frozen=True)
class GammaPolicy:
    """How to pick gamma each update.

    mode `fixed` uses `gamma` as is; the adaptive modes binary-search `grid`
    (ascending, spanning 0 to 1) for the smallest value whose diversity
    fraction reaches band[0], probing at most `max_probes` grid points.
    band[1] is an advisory upper edge, only reported when exceeded.
    """

    mode: Mode = "adaptive_ess"
    gamma: float | None = None
    band: tuple[float, float] = (0.25, 0.5)
    grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    max_probes: int = 4

    def __post_init__(self):
        check_fields(self)
        if self.mode == "fixed":
            if self.gamma is None or not 0.0 <= self.gamma <= 1.0:
                raise ValueError("fixed mode needs gamma in [0, 1]")
        if not 0.0 <= self.band[0] <= self.band[1] <= 1.0:
            raise ValueError("band must be (low, high) with 0 <= low <= high <= 1")
        grid = self.grid
        if len(grid) < 2 or grid[0] != 0.0 or grid[-1] != 1.0 or list(grid) != sorted(grid):
            raise ValueError("grid must be ascending and span 0 to 1")
        if self.max_probes < 1:
            raise ValueError("max_probes must be positive")

    @classmethod
    def fixed(cls, gamma: float) -> "GammaPolicy":
        return cls(mode="fixed", gamma=gamma)


# Where the probe identity may stand in for the exact build. A probe is
# measured by the exact build instead when its fraction lies within
# _BAND_GUARD of band[0], so that rounding cannot move the choice; when an
# eigenvalue 1 + gamma lam_i leaves (0, _IDENTITY_RANGE] or their ratio
# exceeds it, where the exact build rounds its stage-one residual by
# eps (1 + gamma lam_max) or cannot factor, and its weights or failure must
# stay the update's; and when a log weight exceeds _LOGW_MAX, which each
# computation rounds by eps |log w| in its own way.
_BAND_GUARD = 1e-9
_IDENTITY_RANGE = 1e4
_LOGW_MAX = 1e5


def select_gamma(
    ens: Ensemble,
    obs: LinearGaussianObservation,
    policy: GammaPolicy,
    cov: np.ndarray,
):
    """Binary-search the policy grid for the smallest acceptable gamma.

    `cov` is the tapered forecast covariance P. Returns (gamma, probes):
    probes lists each evaluated (gamma, diversity fraction) pair. If no
    probed value reaches the lower band edge, falls back to gamma = 1.
    Assumes the diversity fraction is nondecreasing in gamma.

    A probe builds no mixture. With S = H P H', R = L L',
    L^-1 S L^-T = U Lam U' and E = U' L^-1 (y - H X), the log weight of
    member j at any gamma < 1 is, up to a constant in j,
        log w_j = -1/2 sum_i c_i E_ij^2,
        c_i = (1 - gamma) / ((1 - gamma) gamma lam_i^2 + (1 + gamma lam_i)^2).
    The stage-one residual y - H nu_j is R (gamma S + R)^-1 (y - H x_j), and
    H qcov H' + R / (1 - gamma) is diagonal in the basis L U, so both the
    residual and the innovation covariance of the weights reduce to the
    eigenvalues. At gamma = 0, c_i = 1 gives the particle-filter weights.
    One eigendecomposition per update serves every probe; a probe outside
    the identity's limits (above) is measured with the exact build.
    """
    if policy.mode == "fixed":
        return policy.gamma, ()
    measure = MEASURES[policy.mode]
    grid, tau0, n = policy.grid, policy.band[0], ens.n_members
    basis = _probe_basis(ens, obs, cov)
    lo, hi = 0, len(grid) - 1
    probes, chosen = [], grid[-1]
    while lo < hi and len(probes) < policy.max_probes:
        mid = (lo + hi) // 2
        gamma = grid[mid]
        frac = None if basis is None else _fast_fraction(*basis, gamma, measure, n)
        if frac is None or abs(frac - tau0) <= _BAND_GUARD:
            frac = measure(_mixture_from_cov(ens.states, cov, obs, gamma).weights) / n
        probes.append((gamma, frac))
        if frac >= tau0:
            # later probes all lie left of this one, so the last to qualify is the smallest
            chosen, hi = gamma, mid
        else:
            lo = mid + 1
    return chosen, tuple(probes)


def _probe_basis(ens, obs, cov):
    """(lam, e2) of the probe identity: the ascending eigenvalues of
    L^-1 H P H' L^-T (R = L L') and the squared entries of the (r, N)
    whitened innovations E = U' L^-1 (y - H X) in that eigenbasis U. None
    when the whitened covariance overflows."""
    chol = obs._chol_R
    half, _ = dtrtrs(chol, obs.hp_ht(cov), lower=1)
    white, _ = dtrtrs(chol, half.T, lower=1)  # L^-1 S L^-T, S being symmetric
    if not np.all(np.isfinite(white)):
        return None
    lam, u = np.linalg.eigh(0.5 * (white + white.T))
    m, _ = dtrtrs(chol, u, lower=1, trans=1)  # L^-T U, so that E = M' (y - H X)
    e = m.T @ (obs.y[:, None] - obs.apply_h(ens.states))
    return lam, e * e


def _fast_fraction(lam, e2, gamma, measure, n):
    """Diversity fraction at gamma < 1 from the probe identity, or None
    outside _IDENTITY_RANGE and _LOGW_MAX (or for a NaN log weight)."""
    low, high = 1.0 + gamma * lam[0], 1.0 + gamma * lam[-1]
    if not (low > 0.0 and high <= _IDENTITY_RANGE * min(low, 1.0)):
        return None
    c = (1.0 - gamma) / ((1.0 - gamma) * gamma * lam**2 + (1.0 + gamma * lam) ** 2)
    logw = -0.5 * (c @ e2)  # nonpositive, as c and e2 are
    if not -logw.min() <= _LOGW_MAX:
        return None
    return measure(weights_from_log(logw)) / n


def _weight_quadratic(cov, mean, obs, gamma):
    """Coefficients (C, d) of the log mixture weight as a quadratic in the
    forecast deviation: log w = -1/2 (x - mean)' C (x - mean) + d'(x - mean) + const."""
    gain, qcov = _tempered_stage(cov, obs, gamma)
    a = (1.0 - gamma) * obs.hp_ht(qcov) + obs.R
    b = np.eye(obs.r) - obs.apply_h(gain)
    core = b.T @ cho_solve(cho_factor(0.5 * (a + a.T), lower=True), b)
    core = (1.0 - gamma) * 0.5 * (core + core.T)
    c_mat = obs.ht_m_h(core)
    d_vec = obs.ht_apply(core @ (obs.y - obs.apply_h(mean)))
    return c_mat, d_vec


def weight_variance_exact(
    cov: np.ndarray, mean: np.ndarray, obs: LinearGaussianObservation, gamma: float
) -> float:
    """N^2 Var of a normalized mixture weight for a N(mean, cov) forecast.

    Closed form from Gaussian moments of exp(-1/2 x'Cx + d'x): the value is
    det(P C + I) det(2 P C + I)^{-1/2}
        exp(d' [(C + P^{-1}/2)^{-1} - (C + P^{-1})^{-1}] d) - 1,
    nonnegative, and exactly 0 at gamma = 1 where weights are uniform.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    cov = np.asarray(cov, dtype=float)
    q = cov.shape[0]
    np.linalg.cholesky(cov)  # rejects non-SPD forecast covariance
    c_mat, d_vec = _weight_quadratic(cov, mean, obs, gamma)
    pc = cov @ c_mat
    sign1, logdet1 = np.linalg.slogdet(pc + np.eye(q))
    sign2, logdet2 = np.linalg.slogdet(2.0 * pc + np.eye(q))
    if sign1 <= 0 or sign2 <= 0:
        raise np.linalg.LinAlgError("weight variance determinant lost positivity")
    p_inv = np.linalg.inv(cov)
    quad = d_vec @ np.linalg.solve(c_mat + 0.5 * p_inv, d_vec)
    quad -= d_vec @ np.linalg.solve(c_mat + p_inv, d_vec)
    return float(np.exp(logdet1 - 0.5 * logdet2 + quad) - 1.0)


def weight_variance_asymptotic(
    cov: np.ndarray, mean: np.ndarray, obs: LinearGaussianObservation, gamma: float
) -> float:
    """Leading-order N^2 Var near gamma = 1: (1 - gamma)^2 times a fixed
    functional of the forecast moments and the full-gain residual operator."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    cov = np.asarray(cov, dtype=float)
    r = obs.r
    k1 = kalman_gain(cov, obs)
    b = np.eye(r) - obs.apply_h(k1)
    rinv_b = cho_solve(cho_factor(obs.R, lower=True), b)
    g = b.T @ rinv_b
    hph = obs.hp_ht(cov)
    m = g @ hph @ g
    innov = obs.y - obs.apply_h(np.asarray(mean, dtype=float))
    value = 0.5 * np.trace(hph @ m) + innov @ m @ innov
    return float((1.0 - gamma) ** 2 * value)
