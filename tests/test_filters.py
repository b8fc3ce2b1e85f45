import numpy as np
import pytest

from enkpf import (
    DegenerateWeightsError,
    Ensemble,
    LinearGaussianObservation,
    NO_TAPER,
    RngNode,
    enkf_update,
    kalman_gain,
    pf_update,
    sample_moments,
    tapered_covariance,
)


def scalar_obs(y, r_var, state_dim=1):
    return LinearGaussianObservation.from_indices([0], np.array([[r_var]]),
                                                  np.array([y]), state_dim)


def test_pf_identical_particles():
    ens = Ensemble(np.full((3, 6), 0.4))
    out, w, diag = pf_update(ens, scalar_obs(1.0, 1.0, 3), RngNode(0))
    assert np.allclose(w, 1 / 6)
    assert np.array_equal(out.states, ens.states)
    assert diag.ess == pytest.approx(6.0)
    assert diag.div == pytest.approx(6.0)
    assert diag.gamma == 0.0


def test_pf_extreme_weight_ratio():
    ens = Ensemble(np.array([[0.0, 10.0]]))
    out, w, _ = pf_update(ens, scalar_obs(0.0, 1.0), RngNode(1))
    # density ratio exp(-0)/exp(-50)
    assert w[0] / w[1] == pytest.approx(np.exp(50.0), rel=1e-9)
    assert w[1] < 1e-21
    assert np.all(out.states == 0.0)


def test_pf_symmetric_pair():
    ens = Ensemble(np.array([[-0.7, 0.7]]))
    _, w, _ = pf_update(ens, scalar_obs(0.0, 1.0), RngNode(2))
    assert np.allclose(w, [0.5, 0.5])


def test_pf_output_is_multiset_of_input():
    gen = np.random.default_rng(11)
    ens = Ensemble(gen.standard_normal((4, 25)))
    out, _, _ = pf_update(ens, scalar_obs(0.5, 0.3, 4), RngNode(3))
    in_cols = {tuple(c) for c in ens.states.T}
    assert all(tuple(c) in in_cols for c in out.states.T)


def test_pf_divergence_on_total_underflow():
    # so far away that the squared z-scores overflow: every log-density is -inf
    ens = Ensemble(np.array([[1e200, -1e200]]))
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateWeightsError):
            pf_update(ens, scalar_obs(0.0, 1e-8), RngNode(4))


def test_enkf_zero_spread_is_fixed_point():
    ens = Ensemble(np.full((2, 5), -1.2))
    out = enkf_update(ens, scalar_obs(3.0, 1.0, 2), NO_TAPER, RngNode(5))
    assert np.array_equal(out.states, ens.states)


def test_enkf_huge_noise_leaves_ensemble():
    gen = np.random.default_rng(6)
    ens = Ensemble(gen.standard_normal((1, 50)))
    out = enkf_update(ens, scalar_obs(0.0, 1e12), NO_TAPER, RngNode(6))
    scale = np.abs(ens.states).max()
    assert np.abs(out.states - ens.states).max() <= 1e-4 * scale


def test_enkf_conditional_mean_is_affine_map():
    # out = x + K (y - H x + eps), eps rebuilt from the same "eps1" stream
    gen = np.random.default_rng(7)
    ens = Ensemble(gen.standard_normal((3, 9)))
    obs = LinearGaussianObservation.from_indices(
        [0, 2], np.diag([0.5, 0.8]), np.array([1.0, -0.5]), 3)
    out = enkf_update(ens, obs, NO_TAPER, RngNode(7))
    K = kalman_gain(tapered_covariance(ens, NO_TAPER).cov, obs)
    eps = obs.draw_noise(RngNode(7).child("eps1").generator(), 9)
    assert np.any(eps != 0.0)
    expect = ens.states + K @ (obs.y[:, None] - ens.states[[0, 2], :] + eps)
    assert np.array_equal(out.states, expect)


def test_enkf_conjugate_posterior_moments():
    # prior N(0,1), R=1, y=1: posterior is N(0.5, 0.5)
    n = 100_000
    gen = RngNode(8).child("prior").generator()
    ens = Ensemble(gen.standard_normal((1, n)))
    out = enkf_update(ens, scalar_obs(1.0, 1.0), NO_TAPER, RngNode(8).child("upd"))
    m = out.states.mean()
    v = out.states.var(ddof=1)
    se_mean = np.sqrt(0.5 / n)
    se_var = 0.5 * np.sqrt(2.0 / (n - 1))
    assert abs(m - 0.5) <= 3 * se_mean
    assert abs(v - 0.5) <= 3 * se_var


def test_enkf_same_node_is_reproducible():
    gen = np.random.default_rng(9)
    states = gen.standard_normal((2, 12))
    obs = scalar_obs(0.3, 0.5, 2)
    a = enkf_update(Ensemble(states), obs, NO_TAPER, RngNode(10).child("u"))
    b = enkf_update(Ensemble(states), obs, NO_TAPER, RngNode(10).child("u"))
    assert np.array_equal(a.states, b.states)
