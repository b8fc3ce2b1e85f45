import numpy as np
import pytest

import enkpf.bridge
import enkpf.gamma
import enkpf.mixture
from enkpf import (
    DEFAULT_GAMMA_GRID,
    Ensemble,
    GammaPolicy,
    LinearGaussianObservation,
    NO_TAPER,
    RngNode,
    build_mixture,
    div,
    enkpf_update,
    ess,
    select_gamma,
    tapered_covariance,
    weight_variance_asymptotic,
    weight_variance_exact,
)


def scalar_obs(y, r_var, state_dim=1):
    return LinearGaussianObservation.from_indices([0], np.array([[r_var]]),
                                                  np.array([y]), state_dim)


def untapered_cov(ens):
    return tapered_covariance(ens, NO_TAPER).cov


def test_default_grid():
    assert DEFAULT_GAMMA_GRID[0] == 0.0
    assert DEFAULT_GAMMA_GRID[-1] == 1.0
    assert len(DEFAULT_GAMMA_GRID) == 16
    assert DEFAULT_GAMMA_GRID[5] == pytest.approx(1.0 / 3.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        GammaPolicy(mode="bogus")
    with pytest.raises(ValueError):
        GammaPolicy(mode="fixed")  # needs gamma
    with pytest.raises(ValueError):
        GammaPolicy.fixed(1.2)
    with pytest.raises(ValueError):
        GammaPolicy(band=(0.6, 0.4))
    with pytest.raises(ValueError):
        GammaPolicy(band=(0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        GammaPolicy(grid=(0.0, 0.5))  # must end at 1
    with pytest.raises(ValueError):
        GammaPolicy(max_probes=0)
    assert GammaPolicy.fixed(0.05).gamma == 0.05


def test_fixed_mode_probes_nothing():
    ens = Ensemble(np.array([[0.0, 1.0, 2.0]]))
    policy = GammaPolicy.fixed(0.3)
    gamma, probes, mix = select_gamma(ens, scalar_obs(0.0, 1.0), policy, untapered_cov(ens))
    assert gamma == 0.3
    assert probes == ()
    assert mix is None


def test_selection_respects_probe_budget_and_band():
    gen = np.random.default_rng(0)
    for trial in range(25):
        q = int(gen.integers(1, 6))
        n = int(gen.integers(5, 60))
        ens = Ensemble(gen.standard_normal((q, n)) * gen.uniform(0.5, 2.0))
        obs = scalar_obs(float(gen.normal(0, 2)), float(gen.uniform(0.05, 1.0)), q)
        policy = GammaPolicy(mode="adaptive_ess", band=(0.4, 0.7))
        gamma, probes, mix = select_gamma(ens, obs, policy, untapered_cov(ens))
        assert len(probes) <= policy.max_probes
        assert all(g in policy.grid for g, _ in probes)
        qualifying = [g for g, frac in probes if frac >= 0.4]
        if qualifying:
            assert gamma == min(qualifying)
        else:
            assert gamma == 1.0
        # the contract: the returned value qualifies, or it is the fallback 1
        w = build_mixture(ens, obs, gamma, NO_TAPER).weights
        assert ess(w) >= 0.4 * n or gamma == 1.0
        # the returned mixture is the probe's own build at that gamma
        if qualifying:
            assert mix.gamma == gamma
            assert np.array_equal(mix.weights, w)
        else:
            assert mix is None


def test_selection_descends_to_small_gamma_when_diverse():
    # near-flat likelihood keeps every gamma diverse, so the search walks left
    gen = np.random.default_rng(1)
    ens = Ensemble(gen.standard_normal((1, 30)))
    obs = scalar_obs(0.0, 50.0)
    gamma, probes, _ = select_gamma(ens, obs, GammaPolicy(mode="adaptive_ess"), untapered_cov(ens))
    assert gamma == min(g for g, _ in probes)
    assert all(frac >= 0.25 for _, frac in probes)
    assert gamma <= 1.0 / 15.0


def test_selection_falls_back_to_one():
    # an observation hundreds of sigmas out leaves one dominant weight at
    # every probed gamma < 1, so nothing reaches the band and 1.0 is returned
    gen = np.random.default_rng(2)
    ens = Ensemble(gen.standard_normal((1, 20)))
    obs = scalar_obs(1000.0, 1.0)
    policy = GammaPolicy(mode="adaptive_ess", band=(0.99, 1.0))
    gamma, probes, mix = select_gamma(ens, obs, policy, untapered_cov(ens))
    assert gamma == 1.0
    assert mix is None
    assert len(probes) == 4
    assert all(frac < 0.99 for _, frac in probes)


def test_div_based_selection_runs():
    gen = np.random.default_rng(3)
    ens = Ensemble(gen.standard_normal((2, 25)))
    obs = scalar_obs(1.0, 0.5, 2)
    gamma, probes, _ = select_gamma(ens, obs, GammaPolicy(mode="adaptive_div"), untapered_cov(ens))
    assert 0.0 <= gamma <= 1.0
    assert probes


def _count_calls(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("mode", ["adaptive_ess", "adaptive_div"])
@pytest.mark.parametrize(
    "y, band, fall_back",
    # an observation hundreds of sigmas out qualifies no gamma < 1
    [(2.5, (0.25, 0.5), False), (1000.0, (0.99, 1.0), True)],
    ids=["chosen", "fallback"],
)
def test_update_builds_each_mixture_once(monkeypatch, mode, y, band, fall_back):
    # probes build through enkpf.gamma, the update itself through enkpf.bridge;
    # the bridge builds only when selection fell back to gamma = 1
    counter = {"_mixture_from_cov": 0}
    _count_calls(monkeypatch, enkpf.gamma, "_mixture_from_cov", counter)
    _count_calls(monkeypatch, enkpf.bridge, "_mixture_from_cov", counter)
    gen = np.random.default_rng(17)
    ens = Ensemble(gen.standard_normal((3, 40)))
    obs = scalar_obs(y, 0.2, 3)
    policy = GammaPolicy(mode=mode, band=band)
    _, diag = enkpf_update(ens, obs, policy, NO_TAPER, RngNode(4).child("u"))
    assert (diag.gamma == 1.0) == fall_back
    assert all(frac < band[0] for _, frac in diag.probes) == fall_back
    assert counter["_mixture_from_cov"] == len(diag.probes) + fall_back


@pytest.mark.parametrize("mode", ["fixed", "adaptive_ess", "adaptive_div"])
def test_update_computes_the_covariance_once(monkeypatch, mode):
    # selection probes with the covariance the update computed
    counter = {"tapered_covariance": 0}
    for module in (enkpf.bridge, enkpf.mixture):
        _count_calls(monkeypatch, module, "tapered_covariance", counter)
    gen = np.random.default_rng(17)
    ens = Ensemble(gen.standard_normal((3, 40)))
    policy = GammaPolicy.fixed(0.5) if mode == "fixed" else GammaPolicy(mode=mode)
    enkpf_update(ens, scalar_obs(2.5, 0.2, 3), policy, NO_TAPER, RngNode(4).child("u"))
    assert counter["tapered_covariance"] == 1


@pytest.mark.parametrize(
    "mode, measure", [("fixed", None), ("adaptive_ess", ess), ("adaptive_div", div)]
)
def test_band_exceeded_reads_the_mode_measure(mode, measure):
    gen = np.random.default_rng(17)
    ens = Ensemble(gen.standard_normal((3, 40)))
    obs = scalar_obs(2.0, 0.2, 3)
    band = (0.25, 0.5)
    policy = GammaPolicy.fixed(1.0) if mode == "fixed" else GammaPolicy(mode=mode, band=band)
    _, diag = enkpf_update(ens, obs, policy, NO_TAPER, RngNode(4).child("u"))
    w = build_mixture(ens, obs, diag.gamma, NO_TAPER).weights
    n = ens.n_members
    if measure is None:
        # the uniform weights at gamma = 1 pass band[1], but fixed mode has no band
        assert ess(w) / n > band[1]
        assert diag.band_exceeded is False
    else:
        # ess/N lies below band[1] and div/N above it, so the two measures disagree
        assert ess(w) / n < band[1] < div(w) / n
        assert diag.band_exceeded == (measure(w) / n > band[1])


def test_weight_variance_exact_scalar_formula():
    # transcription of the closed form for P=1, H=1, R=1, y - mean = 1,
    # gamma = 1/2: C = 0.2, d = 0.2
    obs = scalar_obs(1.0, 1.0)
    got = weight_variance_exact(np.array([[1.0]]), np.array([0.0]), obs, 0.5)
    expect = 1.2 / np.sqrt(1.4) * np.exp(0.04 * (1 / 0.7 - 1 / 1.2)) - 1.0
    assert got == pytest.approx(expect, abs=1e-12)


def test_weight_variance_zero_at_uniform_boundary():
    obs = scalar_obs(1.0, 1.0)
    assert weight_variance_exact(np.array([[1.0]]), np.array([0.0]), obs, 1.0) == 0.0
    assert weight_variance_asymptotic(np.array([[1.0]]), np.array([0.0]), obs, 1.0) == 0.0


def test_weight_variance_nonnegative():
    gen = np.random.default_rng(4)
    for _ in range(20):
        q = int(gen.integers(1, 5))
        A = gen.standard_normal((q, q))
        P = A @ A.T + 0.3 * np.eye(q)
        obs = LinearGaussianObservation.from_indices(
            [0], np.array([[float(gen.uniform(0.2, 2.0))]]), gen.normal(0, 2, 1), q)
        gamma = float(gen.uniform(0.0, 1.0))
        assert weight_variance_exact(P, gen.standard_normal(q), obs, gamma) >= 0.0


def test_weight_variance_rejects_singular_covariance():
    obs = scalar_obs(0.0, 1.0, 2)
    with pytest.raises(np.linalg.LinAlgError):
        weight_variance_exact(np.zeros((2, 2)), np.zeros(2), obs, 0.5)


def _fixed_3d_instance():
    gen = np.random.default_rng(7)
    A = gen.standard_normal((3, 3))
    P = A @ A.T + 0.5 * np.eye(3)
    obs = LinearGaussianObservation.from_matrix(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.diag([0.5, 0.8]),
        np.array([0.4, -0.3]),
    )
    return P, np.zeros(3), obs


def test_asymptotic_matches_exact_near_one():
    P, mu, obs = _fixed_3d_instance()
    ratio = weight_variance_asymptotic(P, mu, obs, 0.99) / weight_variance_exact(P, mu, obs, 0.99)
    assert 0.9 <= ratio <= 1.1


def test_weight_variance_quadratic_decay():
    P, mu, obs = _fixed_3d_instance()
    gammas = np.linspace(0.9, 0.99, 10)
    logv = np.log([weight_variance_exact(P, mu, obs, g) for g in gammas])
    slope = np.polyfit(np.log(1.0 - gammas), logv, 1)[0]
    assert abs(slope - 2.0) <= 0.1
