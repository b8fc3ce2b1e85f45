"""The analysis step: the bridged update and its particle and Kalman endpoint filters."""

from __future__ import annotations

from dataclasses import dataclass

from .ensemble import Ensemble, TaperSpec, tapered_covariance
from .gamma import MEASURES, GammaPolicy, select_gamma
from .mixture import _mixture_from_cov, sample_update
from .observation import LinearGaussianObservation, kalman_gain
from .resampling import div, ess
from .rng import RngNode

__all__ = ["UpdateDiagnostics", "enkpf_update", "pf_update", "enkf_update"]


@dataclass(frozen=True)
class UpdateDiagnostics:
    """Per-update summary: bridge parameter and weight-diversity measures."""

    gamma: float
    ess: float
    div: float
    probes: tuple | None = None
    band_exceeded: bool = False


def enkpf_update(
    ens: Ensemble,
    obs: LinearGaussianObservation,
    policy: GammaPolicy,
    taper: TaperSpec,
    rng: RngNode,
):
    """One full bridged analysis step.

    gamma comes from the policy (fixed or adaptively selected on its grid,
    where the probes compute only weights); the mixture is built once, at
    that gamma. Returns (analysis ensemble, diagnostics).
    """
    cov = tapered_covariance(ens, taper).cov
    gamma, probes = select_gamma(ens, obs, policy, cov)
    mix = _mixture_from_cov(ens.states, cov, obs, gamma)
    out = sample_update(mix, obs, rng)
    e = ess(mix.weights)
    d = div(mix.weights)
    n = ens.n_members
    measure = MEASURES.get(policy.mode)  # None in fixed mode
    exceeded = measure is not None and measure(mix.weights) > policy.band[1] * n
    return out, UpdateDiagnostics(
        gamma=gamma, ess=e, div=d, probes=probes or None, band_exceeded=bool(exceeded)
    )


def pf_update(ens: Ensemble, obs: LinearGaussianObservation, rng: RngNode):
    """Bootstrap particle update, the bridged update at gamma = 0: a balanced
    resampling of the forecast by likelihood weights, with no noise stage.

    Returns (analysis ensemble, normalized weights, diagnostics). Raises
    DegenerateWeightsError when every likelihood underflows.
    """
    mix = _mixture_from_cov(ens.states, None, obs, 0.0)
    w = mix.weights
    return sample_update(mix, obs, rng), w, UpdateDiagnostics(gamma=0.0, ess=ess(w), div=div(w))


def enkf_update(
    ens: Ensemble, obs: LinearGaussianObservation, taper: TaperSpec, rng: RngNode
) -> Ensemble:
    """Stochastic (perturbed-observations) Kalman update with tapered covariance.

    Each member moves by K (y - H x_j + eps_j) with eps_j ~ N(0, R) drawn
    from the "eps1" child stream of `rng`, the stream the bridged update's
    stage-one noise uses.
    """
    gain = kalman_gain(tapered_covariance(ens, taper).cov, obs)
    eps = obs.draw_noise(rng.child("eps1"), ens.n_members)
    innov = obs.y[:, None] - obs.apply_h(ens.states) + eps
    return Ensemble(ens.states + gain @ innov)
