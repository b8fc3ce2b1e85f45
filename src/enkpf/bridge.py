"""Driver for the bridged update: pick gamma, build the mixture, sample."""

from __future__ import annotations

from .ensemble import Ensemble, TaperSpec, tapered_covariance
from .filters import UpdateDiagnostics
from .gamma import GammaPolicy, select_gamma
from .mixture import _mixture_from_cov, sample_update
from .observation import LinearGaussianObservation
from .resampling import div, ess
from .rng import RngNode

__all__ = ["enkpf_update"]


def enkpf_update(
    ens: Ensemble,
    obs: LinearGaussianObservation,
    policy: GammaPolicy,
    taper: TaperSpec,
    rng: RngNode,
):
    """One full bridged analysis step.

    gamma comes from the policy (fixed or adaptively selected on its grid);
    the probe evaluations and the final sampling share the same noise
    streams, so the realized update matches what the probes measured.
    Returns (analysis ensemble, diagnostics).
    """
    cov = tapered_covariance(ens, taper).cov
    gamma, probes, mix = select_gamma(ens, obs, policy, taper, rng=rng, cov=cov)
    if mix is None:  # fixed mode, or no probe qualified and gamma fell back to 1
        mix = _mixture_from_cov(ens.states, cov, obs, gamma)
    out = sample_update(mix, obs, rng)
    e = ess(mix.weights)
    d = div(mix.weights)
    n = ens.n_members
    measure = d if policy.mode == "adaptive_div" else e
    exceeded = policy.mode != "fixed" and measure > policy.band[1] * n
    return out, UpdateDiagnostics(
        gamma=gamma, ess=e, div=d, probes=probes or None, band_exceeded=bool(exceeded)
    )
