import numpy as np
import pytest

from enkpf import (
    Ensemble,
    GaussianMixtureUpdate,
    LinearGaussianObservation,
    NO_TAPER,
    RngNode,
    balanced_resample,
    build_mixture,
    gaussian_innovation_loglik,
    kalman_gain,
    log_likelihood,
    pf_update,
    posterior_mixture,
    sample_update,
    weights_from_log,
)
from enkpf.mixture import _mixture_from_cov


def scalar_obs(y, r_var, state_dim=1):
    return LinearGaussianObservation.from_indices([0], np.array([[r_var]]),
                                                  np.array([y]), state_dim)


class _ZeroGenerator:
    """Stands in for a Generator but returns zero noise and zero offsets."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0

    def uniform(self, *args, **kwargs):
        return 0.0


class _ZeroNode:
    def child(self, *keys):
        return self

    def generator(self):
        return _ZeroGenerator()

    def standard_normal(self, shape):
        return np.zeros(shape)


class _RecordingNode:
    """Wraps an RngNode and records the key path of every stream it hands out."""

    def __init__(self, node, drawn, path=()):
        self.node, self.drawn, self.path = node, drawn, path

    def child(self, *keys):
        return _RecordingNode(self.node.child(*keys), self.drawn, self.path + keys)

    def generator(self):
        self.drawn.append(self.path)
        return self.node.generator()

    def standard_normal(self, shape):
        self.drawn.append(self.path)
        return self.node.standard_normal(shape)


def test_build_mixture_scalar_case():
    # members +-sqrt(1/2) have sample variance exactly 1
    a = np.sqrt(0.5)
    ens = Ensemble(np.array([[-a, a]]))
    obs = scalar_obs(0.4, 1.0)
    mix = build_mixture(ens, obs, 0.5, NO_TAPER)
    assert np.allclose(mix.gain1, 1.0 / 3.0)
    assert np.allclose(mix.cov, 2.0 / 9.0)
    # weights proportional to a normal density with variance 2/9 + 2
    expect_nu = ens.states + (1.0 / 3.0) * (0.4 - ens.states)
    assert np.allclose(mix.means, expect_nu)
    d = 0.4 - expect_nu[0]
    logw = -0.5 * d**2 / (2.0 / 9.0 + 2.0)
    w = np.exp(logw - logw.max())
    assert np.allclose(mix.weights, w / w.sum(), rtol=0, atol=1e-14)


def test_mixture_weights_at_zero_match_particle_filter():
    gen = np.random.default_rng(0)
    ens = Ensemble(gen.standard_normal((4, 30)))
    obs = LinearGaussianObservation.from_indices(
        [0, 2], np.diag([0.5, 0.4]), np.array([1.2, -0.3]), 4)
    mix = build_mixture(ens, obs, 0.0, NO_TAPER)
    w_pf = weights_from_log(log_likelihood(ens.states, obs))
    assert np.allclose(mix.weights, w_pf, rtol=0, atol=1e-12)
    assert np.all(mix.cov == 0.0)
    assert np.array_equal(mix.means, ens.states)


def test_mixture_weights_at_one_are_uniform():
    gen = np.random.default_rng(1)
    ens = Ensemble(gen.standard_normal((3, 11)))
    obs = scalar_obs(2.0, 0.5, 3)
    mix = build_mixture(ens, obs, 1.0, NO_TAPER)
    assert np.all(mix.weights == 1.0 / 11.0)
    assert np.all(mix.gain2 == 0.0)


def test_build_mixture_rejects_bad_gamma():
    ens = Ensemble(np.array([[0.0, 1.0]]))
    obs = scalar_obs(0.0, 1.0)
    for gamma in (-0.1, 1.1):
        with pytest.raises(ValueError):
            build_mixture(ens, obs, gamma, NO_TAPER)


def test_posterior_collapses_at_zero():
    gen = np.random.default_rng(2)
    ens = Ensemble(gen.standard_normal((3, 8)))
    obs = scalar_obs(0.7, 0.5, 3)
    post = posterior_mixture(build_mixture(ens, obs, 0.0, NO_TAPER), obs)
    assert np.array_equal(post.means, ens.states)
    assert np.all(post.cov == 0.0)


def test_mixture_continuity_in_gamma():
    gen = np.random.default_rng(3)
    ens = Ensemble(gen.standard_normal((5, 20)))
    obs = LinearGaussianObservation.from_indices(
        [1, 3], np.diag([0.6, 0.9]), np.array([0.5, -1.0]), 5)
    for gamma in (0.1, 0.45, 0.8):
        m1 = build_mixture(ens, obs, gamma, NO_TAPER)
        m2 = build_mixture(ens, obs, gamma + 1e-6, NO_TAPER)
        assert np.abs(m1.weights - m2.weights).max() < 1e-3
        assert np.abs(m1.means - m2.means).max() < 1e-3
        assert np.abs(m1.cov - m2.cov).max() < 1e-3


def test_two_component_posterior_matches_grid_quadrature():
    # centers -1 and 1 with shared variance 0.2; residual noise variance
    # R/(1-gamma) = 0.5; y = 0.3. The mixture posterior's mean and variance
    # must match numeric integration of density * likelihood on a fine grid
    # (values below frozen from an independent quadrature, step 1e-4).
    nu = np.array([[-1.0, 1.0]])
    qcov = np.array([[0.2]])
    obs = scalar_obs(0.3, 0.25)
    gamma = 0.5
    s = qcov[0, 0] + obs.R[0, 0] / (1.0 - gamma)
    logw = gaussian_innovation_loglik(obs.y[:, None] - nu, np.array([[s]]))
    mix = GaussianMixtureUpdate(
        means=nu,
        cov=qcov,
        weights=weights_from_log(logw),
        gamma=gamma,
        gain1=np.zeros((1, 1)),
        gain2=kalman_gain((1.0 - gamma) * qcov, obs),
    )
    post = posterior_mixture(mix, obs)
    mean = float(post.weights @ post.means[0])
    var = float(post.cov[0, 0] + post.weights @ post.means[0] ** 2 - mean**2)
    assert abs(mean - 0.3743762426841852) < 1e-6
    assert abs(var - 0.5697354990881041) < 1e-6


def test_sample_update_at_zero_equals_pf():
    # gamma = 0 is the bootstrap particle filter: a balanced resampling of
    # the forecast by likelihood weights, with no noise added
    gen = np.random.default_rng(4)
    ens = Ensemble(gen.standard_normal((2, 40)))
    obs = scalar_obs(0.2, 0.3, 2)
    node = RngNode(77).child("upd")
    w = weights_from_log(log_likelihood(ens.states, obs))
    idx = balanced_resample(w, node.child("resample").generator())
    drawn = []
    mix = build_mixture(ens, obs, 0.0, NO_TAPER)
    out_mix = sample_update(mix, obs, _RecordingNode(node, drawn))
    assert np.array_equal(out_mix.states, ens.states[:, idx])
    assert drawn == [("resample",)]  # neither noise stage draws
    out_pf, w_pf, _ = pf_update(ens, obs, node)
    assert np.array_equal(out_pf.states, ens.states[:, idx])
    assert np.array_equal(w_pf, w)


def test_mixture_at_zero_needs_no_covariance():
    gen = np.random.default_rng(5)
    ens = Ensemble(gen.standard_normal((3, 12)))
    obs = scalar_obs(0.4, 0.6, 3)
    mix = _mixture_from_cov(ens.states, None, obs, 0.0)
    assert np.array_equal(mix.weights, build_mixture(ens, obs, 0.0, NO_TAPER).weights)
    assert np.all(mix.gain1 == 0.0) and np.all(mix.gain2 == 0.0)


def test_sample_update_noise_free_collapse():
    # symmetric two-member setup gives exactly uniform weights, so balanced
    # resampling is the identity; with all noise zeroed the draw lands on the
    # posterior component centers
    ens = Ensemble(np.array([[-2.0, 2.0]]))
    obs = scalar_obs(0.0, 1.0)
    mix = build_mixture(ens, obs, 0.4, NO_TAPER)
    assert np.allclose(mix.weights, 0.5)
    post = posterior_mixture(mix, obs)
    out = sample_update(mix, obs, _ZeroNode())
    assert np.allclose(out.states, post.means, rtol=0, atol=1e-15)


def test_sample_update_component_covariance():
    # all centers identical: every draw comes from one mixture component, so
    # the empirical covariance must match the analytic component covariance
    q, n, reps = 2, 500, 200
    gamma = 0.6
    P = np.array([[1.0, 0.3], [0.3, 0.5]])
    obs = scalar_obs(0.8, 0.5, 2)
    # hand-built mixture pieces, recomputed inline
    g1 = (gamma * P)[:, [0]] @ np.linalg.inv((gamma * P)[[0]][:, [0]] + obs.R)
    Q = g1 @ obs.R @ g1.T / gamma
    g2 = ((1 - gamma) * Q)[:, [0]] @ np.linalg.inv(
        ((1 - gamma) * Q)[[0]][:, [0]] + obs.R)
    pu_ref = Q - g2 @ Q[[0], :]
    center = np.array([0.4, -0.1])
    mix = GaussianMixtureUpdate(
        means=np.repeat(center[:, None], n, axis=1),
        cov=Q,
        weights=np.full(n, 1.0 / n),
        gamma=gamma,
        gain1=g1,
        gain2=g2,
    )
    assert np.allclose(posterior_mixture(mix, obs).cov, pu_ref, atol=1e-14)
    node = RngNode(91)
    draws = np.hstack([sample_update(mix, obs, node.child(r)).states for r in range(reps)])
    dev = draws - draws.mean(axis=1, keepdims=True)
    chat = dev @ dev.T / (draws.shape[1] - 1)
    m = draws.shape[1]
    for i in range(q):
        for k in range(q):
            se = np.sqrt((pu_ref[i, i] * pu_ref[k, k] + pu_ref[i, k] ** 2) / m)
            assert abs(chat[i, k] - pu_ref[i, k]) <= 3 * se
