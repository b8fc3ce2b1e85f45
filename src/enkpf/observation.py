"""Linear-Gaussian observation model: y = Hx + eps, eps ~ N(0, R).

H is kept in selection form whenever each observation reads one state
component (the usual case here); a dense matrix is the fallback. All gains
go through Cholesky solves of the r x r innovation covariance, never an
explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

__all__ = [
    "LinearGaussianObservation",
    "log_likelihood",
    "gaussian_innovation_loglik",
    "kalman_gain",
    "scaled_gain",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class LinearGaussianObservation:
    y: np.ndarray
    R: np.ndarray
    state_dim: int
    indices: np.ndarray | None = None
    H: np.ndarray | None = None

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        R = np.asarray(self.R, dtype=float)
        if R.ndim == 0:
            R = R.reshape(1, 1)
        r = y.shape[0]
        if y.ndim != 1 or not np.all(np.isfinite(y)):
            raise ValueError("y must be a finite vector")
        if R.shape != (r, r) or not np.allclose(R, R.T, atol=1e-12 * max(1.0, np.abs(R).max())):
            raise ValueError("R must be a symmetric (r, r) matrix")
        if (self.indices is None) == (self.H is None):
            raise ValueError("provide exactly one of indices / H")
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=int)
            if idx.shape != (r,):
                raise ValueError("indices must have one entry per observation")
            if np.any(idx < 0) or np.any(idx >= self.state_dim):
                raise ValueError("observation indices out of range")
            object.__setattr__(self, "indices", idx)
        else:
            H = np.asarray(self.H, dtype=float)
            if H.shape != (r, self.state_dim):
                raise ValueError("H must be (r, state_dim)")
            if np.any(np.all(H == 0.0, axis=1)):
                raise ValueError("H must have no all-zero rows")
            object.__setattr__(self, "H", H)
        # fails loudly now rather than inside a filter step if R is not SPD
        chol_R = cholesky(0.5 * (R + R.T), lower=True)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "R", 0.5 * (R + R.T))
        object.__setattr__(self, "_chol_R", chol_R)

    @classmethod
    def from_indices(cls, indices, R, y, state_dim):
        return cls(y=y, R=R, state_dim=state_dim, indices=indices)

    @classmethod
    def from_matrix(cls, H, R, y):
        H = np.asarray(H, dtype=float)
        return cls(y=y, R=R, state_dim=H.shape[1], H=H)

    @property
    def r(self) -> int:
        return self.y.shape[0]

    def apply_h(self, x: np.ndarray) -> np.ndarray:
        """H @ x for a (q,) vector, (q, N) ensemble, or (q, q) matrix rows."""
        if self.indices is not None:
            return x[self.indices]
        return self.H @ x

    def ht_apply(self, v: np.ndarray) -> np.ndarray:
        """H' @ v, scattering observation-space rows back to state space."""
        if self.indices is not None:
            out = np.zeros((self.state_dim,) + v.shape[1:], dtype=float)
            out[self.indices] = v
            return out
        return self.H.T @ v

    def p_ht(self, P: np.ndarray) -> np.ndarray:
        """P H' as a (q, r) matrix."""
        if self.indices is not None:
            return P[:, self.indices]
        return P @ self.H.T

    def hp_ht(self, P: np.ndarray) -> np.ndarray:
        """H P H' as an (r, r) matrix."""
        if self.indices is not None:
            return P[np.ix_(self.indices, self.indices)]
        return self.H @ P @ self.H.T

    def ht_m_h(self, M: np.ndarray) -> np.ndarray:
        """H' M H embedded in state space, (q, q)."""
        if self.indices is not None:
            out = np.zeros((self.state_dim, self.state_dim))
            out[np.ix_(self.indices, self.indices)] = M
            return out
        return self.H.T @ M @ self.H

    def draw_noise(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n columns of N(0, R) noise."""
        return self._chol_R @ gen.standard_normal((self.r, n))


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of the lower triangle of `a`, from LAPACK's
    dpotrf without scipy.linalg's wrapper and its finiteness check (the
    callers' inputs are finite), which took much of a small solve's time."""
    factor, info = dpotrf(a, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    return factor


def gaussian_innovation_loglik(diffs: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log N(diffs_j; 0, cov) for each column of the (r, n) matrix diffs."""
    L = _cholesky_lower(cov)
    z, _ = dtrtrs(L, diffs, lower=1)  # L's diagonal is positive: no singular case
    quad = np.einsum("ij,ij->j", z, z)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    r = cov.shape[0]
    return -0.5 * (r * _LOG_2PI + logdet + quad)


def log_likelihood(x: np.ndarray, obs: LinearGaussianObservation, temper: float = 1.0):
    """log of the (optionally tempered) observation density at state x.

    Tempering raises the likelihood to the power `temper`, i.e. inflates R
    by 1/temper. Accepts a single (q,) state or a (q, N) ensemble matrix.
    """
    if not 0.0 < temper <= 1.0:
        raise ValueError("temper must lie in (0, 1]")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("state must be finite")
    single = x.ndim == 1
    X = x[:, None] if single else x
    diffs = obs.y[:, None] - obs.apply_h(X)
    out = gaussian_innovation_loglik(diffs, obs.R / temper)
    return float(out[0]) if single else out


def kalman_gain(P: np.ndarray, obs: LinearGaussianObservation) -> np.ndarray:
    """K = P H' (H P H' + R)^{-1} via a Cholesky solve of the r x r system."""
    pht = obs.p_ht(P)
    s = obs.hp_ht(P) + obs.R
    gain_t, _ = dpotrs(_cholesky_lower(0.5 * (s + s.T)), pht.T, lower=1)
    return gain_t.T


def scaled_gain(P: np.ndarray, obs: LinearGaussianObservation, gamma: float) -> np.ndarray:
    """Gain of the gamma-scaled covariance, K(gamma P).

    Equal to P H'(H P H' + R / gamma)^{-1} for gamma > 0, and identically
    zero at gamma = 0 (the continuous limit).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return np.zeros((P.shape[0], obs.r))
    if gamma == 1.0:
        return kalman_gain(P, obs)
    return kalman_gain(gamma * P, obs)
