"""Driver for the bridged update: pick gamma, build the mixture, sample."""

from __future__ import annotations

from .ensemble import Ensemble, TaperSpec, tapered_covariance
from .filters import UpdateDiagnostics
from .gamma import MEASURES, GammaPolicy, select_gamma
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
    the probes measure the weights of the mixture that is then sampled (the
    chosen probe's own build; fixed mode and the fallback to 1 build it here).
    Returns (analysis ensemble, diagnostics).
    """
    cov = tapered_covariance(ens, taper).cov
    gamma, probes, mix = select_gamma(ens, obs, policy, cov)
    if mix is None:  # fixed mode, or no probe qualified and gamma fell back to 1
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
