"""Core of the bridged ensemble update.

For a bridge parameter gamma in [0, 1], the forecast ensemble is first pulled
toward the observation with the gain of the gamma-scaled covariance. The
resulting particles are centers of a Gaussian mixture whose shared component
covariance absorbs the sampling noise of that tempered Kalman stage; mixture
weights then account for the remaining (1 - gamma) share of the likelihood.
Sampling from the posterior mixture happens in two noise stages so that
gamma = 1 reproduces a stochastic ensemble Kalman update and gamma = 0
reproduces a particle-filter reweighting/resampling, both exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, TaperSpec, tapered_covariance
from .observation import (
    LinearGaussianObservation,
    gaussian_innovation_loglik,
    kalman_gain,
    scaled_gain,
)
from .resampling import balanced_resample, weights_from_log
from .rng import RngNode

__all__ = [
    "GaussianMixtureUpdate",
    "PosteriorMixture",
    "build_mixture",
    "posterior_mixture",
    "sample_update",
]


@dataclass(frozen=True)
class GaussianMixtureUpdate:
    """Mixture representation of the analysis before sampling.

    means   (q, N): stage-one shifted particles, one mixture center each
    cov     (q, q): shared component covariance of the tempered stage
    weights (N,):   mixture weights
    gamma:          bridge parameter used
    gain1   (q, r): gain of the tempered stage, K(gamma * P)
    gain2   (q, r): gain of the residual stage, K((1 - gamma) * cov)
    """

    means: np.ndarray
    cov: np.ndarray
    weights: np.ndarray
    gamma: float
    gain1: np.ndarray
    gain2: np.ndarray


@dataclass(frozen=True)
class PosteriorMixture:
    """Fully assimilated analysis mixture: sum_j weights_j N(means_j, cov)."""

    means: np.ndarray
    cov: np.ndarray
    weights: np.ndarray


def _tempered_stage(cov, obs, gamma):
    """(gain1, qcov): the tempered gain K(gamma P) and the component
    covariance K R K' / gamma it leaves. Both are zero at gamma = 0, where
    `cov` is not read and may be None."""
    if gamma == 0.0:
        q = obs.state_dim
        return np.zeros((q, obs.r)), np.zeros((q, q))
    gain1 = scaled_gain(cov, obs, gamma)
    qcov = (gain1 @ obs.R @ gain1.T) / gamma
    return gain1, 0.5 * (qcov + qcov.T)


def _mixture_from_cov(states, cov, obs, gamma) -> GaussianMixtureUpdate:
    """build_mixture body, reusing a precomputed (tapered) covariance; at
    gamma = 0 (the particle filter) it reads no covariance and forms no gain.
    A gamma outside [0, 1] is rejected by scaled_gain."""
    n = states.shape[1]
    gain1, qcov = _tempered_stage(cov, obs, gamma)
    if gamma == 0.0:
        # both stages are empty: centers stay put, the residual gain is zero
        means, gain2 = states, gain1
    else:
        means = states + gain1 @ (obs.y[:, None] - obs.apply_h(states))
        gain2 = kalman_gain((1.0 - gamma) * qcov, obs)
    if gamma == 1.0:
        weights = np.full(n, 1.0 / n)
    else:
        # R/(1 - gamma) keeps the innovation covariance SPD for gamma < 1
        s = obs.hp_ht(qcov) + obs.R / (1.0 - gamma)
        logw = gaussian_innovation_loglik(obs.y[:, None] - obs.apply_h(means), s)
        weights = weights_from_log(logw)
    return GaussianMixtureUpdate(
        means=means, cov=qcov, weights=weights, gamma=float(gamma), gain1=gain1, gain2=gain2
    )


def build_mixture(
    ens: Ensemble,
    obs: LinearGaussianObservation,
    gamma: float,
    taper: TaperSpec,
) -> GaussianMixtureUpdate:
    """Tempered Kalman stage plus mixture weights for the forecast ensemble.

    At gamma = 0 the weights coincide with particle-filter weights; at
    gamma = 1 they are exactly uniform. Both endpoints are hard branches,
    not numerical limits.
    """
    return _mixture_from_cov(ens.states, tapered_covariance(ens, taper).cov, obs, gamma)


def posterior_mixture(
    mix: GaussianMixtureUpdate, obs: LinearGaussianObservation
) -> PosteriorMixture:
    """Analytic analysis mixture after the residual Kalman correction.

    Component centers move by gain2 times their innovation; the shared
    covariance contracts to (I - gain2 H) cov. At gamma = 0 this collapses
    to point masses at the forecast particles.
    """
    means = mix.means + mix.gain2 @ (obs.y[:, None] - obs.apply_h(mix.means))
    pu = mix.cov - mix.gain2 @ obs.apply_h(mix.cov)
    return PosteriorMixture(means=means, cov=0.5 * (pu + pu.T), weights=mix.weights)


def sample_update(
    mix: GaussianMixtureUpdate, obs: LinearGaussianObservation, rng: RngNode
) -> Ensemble:
    """Draw the analysis ensemble from the mixture in two noise stages.

    Resampling, stage-one noise, and stage-two noise each consume their own
    child stream of `rng`, so the draws for one stage never depend on gamma
    or on what the other stages consumed. An endpoint skips a noise stage
    and draws nothing for it: gamma = 1 has no stage two (gain2 is zero),
    and gamma = 0 has neither, which leaves particle-filter resampling.
    """
    gamma = mix.gamma
    n = mix.means.shape[1]
    idx = balanced_resample(mix.weights, rng.child("resample").generator())
    # take gives a C-ordered copy, so every gamma hands back the same memory layout
    x = mix.means.take(idx, axis=1)
    if gamma > 0.0:
        eps1 = obs.draw_noise(rng.child("eps1"), n)
        x = x + mix.gain1 @ (eps1 / np.sqrt(gamma))
    if 0.0 < gamma < 1.0:
        eps2 = obs.draw_noise(rng.child("eps2"), n)
        innov = obs.y[:, None] + eps2 / np.sqrt(1.0 - gamma) - obs.apply_h(x)
        x = x + mix.gain2 @ innov
    return Ensemble(x)
