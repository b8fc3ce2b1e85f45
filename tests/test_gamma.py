import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enkpf.bridge
import enkpf.gamma
import enkpf.mixture
from enkpf import (
    DEFAULT_GAMMA_GRID,
    DegenerateWeightsError,
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
    assert GammaPolicy.fixed(0.05).gamma == 0.05


def test_fixed_mode_probes_nothing():
    ens = Ensemble(np.array([[0.0, 1.0, 2.0]]))
    policy = GammaPolicy.fixed(0.3)
    gamma, probes = select_gamma(ens, scalar_obs(0.0, 1.0), policy, untapered_cov(ens))
    assert gamma == 0.3
    assert probes == ()


def test_selection_respects_probe_budget_and_band():
    gen = np.random.default_rng(0)
    for trial in range(25):
        q = int(gen.integers(1, 6))
        n = int(gen.integers(5, 60))
        ens = Ensemble(gen.standard_normal((q, n)) * gen.uniform(0.5, 2.0))
        obs = scalar_obs(float(gen.normal(0, 2)), float(gen.uniform(0.05, 1.0)), q)
        policy = GammaPolicy(mode="adaptive_ess", band=(0.4, 0.7))
        gamma, probes = select_gamma(ens, obs, policy, untapered_cov(ens))
        assert len(probes) <= math.ceil(math.log2(len(policy.grid)))
        assert all(g in policy.grid for g, _ in probes)
        qualifying = [g for g, frac in probes if frac >= 0.4]
        if qualifying:
            assert gamma == min(qualifying)
        else:
            assert gamma == 1.0
        # the contract: the returned value qualifies, or it is the fallback 1
        w = build_mixture(ens, obs, gamma, NO_TAPER).weights
        assert ess(w) >= 0.4 * n or gamma == 1.0


def test_selection_descends_to_small_gamma_when_diverse():
    # near-flat likelihood keeps every gamma diverse, so the search walks left
    gen = np.random.default_rng(1)
    ens = Ensemble(gen.standard_normal((1, 30)))
    obs = scalar_obs(0.0, 50.0)
    gamma, probes = select_gamma(ens, obs, GammaPolicy(mode="adaptive_ess"), untapered_cov(ens))
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
    gamma, probes = select_gamma(ens, obs, policy, untapered_cov(ens))
    assert gamma == 1.0
    assert len(probes) == 4
    assert all(frac < 0.99 for _, frac in probes)


def test_div_based_selection_runs():
    gen = np.random.default_rng(3)
    ens = Ensemble(gen.standard_normal((2, 25)))
    obs = scalar_obs(1.0, 0.5, 2)
    gamma, probes = select_gamma(ens, obs, GammaPolicy(mode="adaptive_div"), untapered_cov(ens))
    assert 0.0 <= gamma <= 1.0
    assert probes


def _random_case(gen, dense, full_r, bimodal):
    """A forecast ensemble, an observation and its untapered covariance."""
    q = int(gen.integers(1, 9))
    n = int(gen.integers(3, 60))
    r = int(gen.integers(1, q + 3 if dense else q + 1))
    states = gen.standard_normal((q, n)) * gen.uniform(0.2, 3.0)
    if bimodal:
        states[:, : n // 2] += gen.uniform(2.0, 6.0, size=(q, 1))
    if full_r:
        a = gen.standard_normal((r, r))
        noise = a @ a.T + gen.uniform(0.05, 1.0) * np.eye(r)
    else:
        noise = np.diag(gen.uniform(0.05, 2.0, r))
    y = gen.normal(0.0, 2.0, r)
    if dense:
        obs = LinearGaussianObservation.from_matrix(gen.standard_normal((r, q)), noise, y)
    else:
        obs = LinearGaussianObservation.from_indices(gen.choice(q, r, replace=False), noise, y, q)
    ens = Ensemble(states)
    return ens, obs, untapered_cov(ens)


def _reference_search(ens, obs, policy, cov):
    """select_gamma as it was when every probe built its whole mixture."""
    measure = enkpf.gamma.MEASURES[policy.mode]
    grid, tau0 = policy.grid, policy.band[0]
    lo, hi = 0, len(grid) - 1
    probes, chosen = [], grid[-1]
    while lo < hi:
        mid = (lo + hi) // 2
        mix = enkpf.mixture._mixture_from_cov(ens.states, cov, obs, grid[mid])
        frac = measure(mix.weights) / ens.n_members
        probes.append((grid[mid], frac))
        if frac >= tau0:
            chosen, hi = grid[mid], mid
        else:
            lo = mid + 1
    return chosen, tuple(probes)


@settings(max_examples=80)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dense=st.booleans(),
    full_r=st.booleans(),
    bimodal=st.booleans(),
)
def test_probe_identity_matches_the_built_mixture(seed, dense, full_r, bimodal):
    # the closed-form probe weights measure what the whole build measures
    ens, obs, cov = _random_case(np.random.default_rng(seed), dense, full_r, bimodal)
    lam, e2 = enkpf.gamma._probe_basis(ens, obs, cov)
    n = ens.n_members
    for gamma in DEFAULT_GAMMA_GRID[:-1]:
        weights = enkpf.mixture._mixture_from_cov(ens.states, cov, obs, gamma).weights
        for measure in (ess, div):
            fast = enkpf.gamma._fast_fraction(lam, e2, gamma, measure, n)
            assert fast is not None
            assert abs(fast - measure(weights) / n) <= 1e-12


def test_selection_matches_the_build_per_probe_search():
    for seed in range(200):
        gen = np.random.default_rng(seed)
        ens, obs, cov = _random_case(gen, seed % 2 == 1, seed % 3 == 0, seed % 4 >= 2)
        mode = ("adaptive_ess", "adaptive_div")[seed % 2]
        low = float(gen.uniform(0.05, 0.95))
        policy = GammaPolicy(mode=mode, band=(low, max(low, 0.5)))
        gamma, probes = select_gamma(ens, obs, policy, cov)
        ref_gamma, ref_probes = _reference_search(ens, obs, policy, cov)
        assert gamma == ref_gamma
        assert [g for g, _ in probes] == [g for g, _ in ref_probes]
        for (_, frac), (_, ref) in zip(probes, ref_probes):
            assert abs(frac - ref) <= 1e-12


@pytest.mark.parametrize("widen", [False, True])
def test_band_guard_routes_probes_through_the_build(monkeypatch, widen):
    # a probe within the guard of band[0] is measured again by the exact build;
    # a guard as wide as the unit interval sends every probe there
    if widen:
        monkeypatch.setattr(enkpf.gamma, "_BAND_GUARD", 1.0)
    counter = {"_mixture_from_cov": 0}
    _count_calls(monkeypatch, enkpf.gamma, "_mixture_from_cov", counter)
    ens, obs, cov = _random_case(np.random.default_rng(5), True, True, True)
    policy = GammaPolicy(mode="adaptive_ess", band=(0.3, 0.5))
    gamma, probes = select_gamma(ens, obs, policy, cov)
    assert counter["_mixture_from_cov"] == (len(probes) if widen else 0)
    if widen:
        assert (gamma, probes) == _reference_search(ens, obs, policy, cov)


_FORECAST = np.random.default_rng(12).standard_normal((6, 25))


def _outcome(search, ens, obs, policy, cov):
    """(gamma, probed grid points), or the type and message of the error."""
    try:
        gamma, probes = search(ens, obs, policy, cov)
    except (ValueError, DegenerateWeightsError) as err:
        return type(err), str(err)
    return gamma, [g for g, _ in probes]


@pytest.mark.parametrize(
    "states, indices, y, variances",
    [
        # the component is observed twice with a noise variance below the
        # rounding of its spread, so gamma H P H' + R is singular in floating
        # point while every log weight at gamma > 0 stays small
        (3.0 * _FORECAST[:1], [0, 0], [0.0, 0.0], [1e-17, 1e-17]),
        # an observation 1e150 away makes every log weight about -1e299
        (_FORECAST, [2, 3], [1e150, 5.72], [3.0, 3.0]),
        # a spread of 1e150 over a noise variance of 5e-324 overflows the
        # whitened covariance
        (1e150 * _FORECAST, [5, 2, 5], [1e150, 1e150, -2.85], [1e-300, 5e-324, 7.5]),
    ],
    ids=["singular_innovation", "far_observation", "overflowing_whitening"],
)
def test_extreme_inputs_select_as_the_build_per_probe_search(states, indices, y, variances):
    # where the probe identity cannot settle a probe, the exact build does,
    # so the choice and any refusal are the build-per-probe search's own
    ens = Ensemble(states)
    obs = LinearGaussianObservation.from_indices(indices, np.diag(variances), np.array(y), ens.q)
    policy = GammaPolicy(mode="adaptive_ess")
    cov = untapered_cov(ens)
    with np.errstate(all="ignore"):
        expected = _outcome(_reference_search, ens, obs, policy, cov)
        assert _outcome(select_gamma, ens, obs, policy, cov) == expected


def _count_calls(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("mode", ["fixed", "adaptive_ess", "adaptive_div"])
@pytest.mark.parametrize(
    "y, band, fall_back",
    # an observation hundreds of sigmas out qualifies no gamma < 1
    [(2.5, (0.25, 0.5), False), (1000.0, (0.99, 1.0), True)],
    ids=["chosen", "fallback"],
)
def test_update_builds_each_mixture_once(monkeypatch, mode, y, band, fall_back):
    # probes compute weights only; the update builds the one mixture it samples
    counter = {"_mixture_from_cov": 0}
    _count_calls(monkeypatch, enkpf.gamma, "_mixture_from_cov", counter)
    _count_calls(monkeypatch, enkpf.bridge, "_mixture_from_cov", counter)
    gen = np.random.default_rng(17)
    ens = Ensemble(gen.standard_normal((3, 40)))
    obs = scalar_obs(y, 0.2, 3)
    policy = GammaPolicy.fixed(0.5) if mode == "fixed" else GammaPolicy(mode=mode, band=band)
    _, diag = enkpf_update(ens, obs, policy, NO_TAPER, RngNode(4).child("u"))
    if mode != "fixed":
        assert (diag.gamma == 1.0) == fall_back
        assert all(frac < band[0] for _, frac in diag.probes) == fall_back
    assert counter["_mixture_from_cov"] == 1


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
