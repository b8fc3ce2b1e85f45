"""Endpoint filters: bootstrap particle update and stochastic ensemble Kalman update."""

from __future__ import annotations

from dataclasses import dataclass

from .ensemble import Ensemble, TaperSpec, tapered_covariance
from .mixture import _mixture_from_cov, sample_update
from .observation import LinearGaussianObservation, kalman_gain
from .resampling import div, ess
from .rng import RngNode

__all__ = ["UpdateDiagnostics", "pf_update", "enkf_update"]


@dataclass(frozen=True)
class UpdateDiagnostics:
    """Per-update summary: bridge parameter and weight-diversity measures."""

    gamma: float
    ess: float
    div: float
    probes: tuple | None = None
    band_exceeded: bool = False


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
    eps = obs.draw_noise(rng.child("eps1").generator(), ens.n_members)
    innov = obs.y[:, None] - obs.apply_h(ens.states) + eps
    return Ensemble(ens.states + gain @ innov)
