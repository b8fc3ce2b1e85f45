import numpy as np
import pytest

from enkpf import (
    LinearGaussianObservation,
    RngNode,
    kalman_gain,
    log_likelihood,
    scaled_gain,
)


def scalar_obs(y, r_var, state_dim=1, index=0):
    return LinearGaussianObservation.from_indices([index], np.array([[r_var]]),
                                                  np.array([y]), state_dim)


def test_loglik_at_the_observation():
    obs = scalar_obs(y=0.7, r_var=1.0)
    assert np.isclose(log_likelihood(np.array([0.7]), obs), -0.5 * np.log(2 * np.pi))


def test_loglik_half_variance_value():
    # log phi(0; 1, 0.5) = -0.5 log(pi) - 1
    obs = scalar_obs(y=0.0, r_var=0.5)
    assert np.isclose(log_likelihood(np.array([1.0]), obs), -0.5 * np.log(np.pi) - 1.0)


def test_loglik_temper_scales_differences():
    gen = np.random.default_rng(3)
    obs = LinearGaussianObservation.from_indices(
        [0, 2], np.diag([0.5, 2.0]), np.array([0.3, -1.0]), 4)
    x1 = gen.standard_normal(4)
    x2 = gen.standard_normal(4)
    for temper in (0.2, 0.55, 0.9):
        lhs = log_likelihood(x1, obs, temper) - log_likelihood(x2, obs, temper)
        rhs = temper * (log_likelihood(x1, obs) - log_likelihood(x2, obs))
        assert np.isclose(lhs, rhs)


def test_loglik_rejects_nonfinite_state():
    obs = scalar_obs(y=0.0, r_var=1.0)
    with pytest.raises(ValueError):
        log_likelihood(np.array([np.inf]), obs)


def test_loglik_matrix_argument_matches_columns():
    obs = LinearGaussianObservation.from_indices(
        [1, 3], np.diag([0.4, 0.9]), np.array([0.0, 1.0]), 5)
    gen = np.random.default_rng(8)
    states = gen.standard_normal((5, 6))
    batch = log_likelihood(states, obs)
    single = [log_likelihood(states[:, j], obs) for j in range(6)]
    assert np.allclose(batch, single)


def test_kalman_gain_scalar():
    obs = scalar_obs(y=0.0, r_var=1.0)
    assert np.allclose(kalman_gain(np.array([[1.0]]), obs), 0.5)
    assert np.all(kalman_gain(np.array([[0.0]]), obs) == 0.0)


def test_kalman_gain_partial_observation():
    obs = LinearGaussianObservation.from_matrix(
        np.array([[1.0, 0.0]]), np.array([[0.5]]), np.array([0.0]))
    K = kalman_gain(np.eye(2), obs)
    assert np.allclose(K, np.array([[2.0 / 3.0], [0.0]]))


def test_gain_solves_normal_equations():
    gen = np.random.default_rng(4)
    for _ in range(10):
        q, r = 7, 3
        A = gen.standard_normal((q, q))
        P = A @ A.T + 0.1 * np.eye(q)
        H = gen.standard_normal((r, q))
        R = np.diag(gen.uniform(0.2, 2.0, r))
        obs = LinearGaussianObservation.from_matrix(H, R, gen.standard_normal(r))
        K = kalman_gain(P, obs)
        resid = K @ (H @ P @ H.T + R) - P @ H.T
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(P @ H.T)


def test_scaled_gain_endpoints():
    gen = np.random.default_rng(5)
    A = gen.standard_normal((4, 4))
    P = A @ A.T + 0.2 * np.eye(4)
    obs = LinearGaussianObservation.from_indices(
        [0, 3], np.diag([1.0, 0.7]), np.array([0.1, -0.4]), 4)
    assert np.array_equal(scaled_gain(P, obs, 1.0), kalman_gain(P, obs))
    assert np.all(scaled_gain(P, obs, 0.0) == 0.0)


def test_scaled_gain_equals_inflated_noise_form():
    # P H' (H P H' + R/g)^-1 written directly, vs the reduced-covariance gain
    gen = np.random.default_rng(6)
    gamma = 0.37
    for _ in range(10):
        A = gen.standard_normal((6, 6))
        P = A @ A.T + 0.1 * np.eye(6)
        H = gen.standard_normal((2, 6))
        R = np.diag(gen.uniform(0.3, 1.5, 2))
        obs = LinearGaussianObservation.from_matrix(H, R, np.zeros(2))
        direct = P @ H.T @ np.linalg.inv(H @ P @ H.T + R / gamma)
        K = scaled_gain(P, obs, gamma)
        assert np.linalg.norm(K - direct) <= 1e-10 * np.linalg.norm(direct)


def test_scaled_gain_continuous_in_gamma():
    gen = np.random.default_rng(7)
    A = gen.standard_normal((5, 5))
    P = A @ A.T + 0.3 * np.eye(5)
    obs = LinearGaussianObservation.from_indices(
        [1, 4], np.diag([0.5, 0.5]), np.zeros(2), 5)
    for gamma in (0.1, 0.5, 0.9):
        d = scaled_gain(P, obs, gamma + 1e-6) - scaled_gain(P, obs, gamma)
        assert np.linalg.norm(d) < 1e-4


def test_selection_form_matches_dense_matrix():
    gen = np.random.default_rng(9)
    idx = [0, 2, 3]
    H = np.zeros((3, 5))
    H[np.arange(3), idx] = 1.0
    R = np.diag([0.5, 1.0, 2.0])
    y = gen.standard_normal(3)
    sel = LinearGaussianObservation.from_indices(idx, R, y, 5)
    dense = LinearGaussianObservation.from_matrix(H, R, y)
    A = gen.standard_normal((5, 5))
    P = A @ A.T + 0.1 * np.eye(5)
    x = gen.standard_normal(5)
    assert np.allclose(log_likelihood(x, sel, 0.7), log_likelihood(x, dense, 0.7))
    assert np.allclose(kalman_gain(P, sel), kalman_gain(P, dense))
    assert np.allclose(sel.apply_h(x), dense.apply_h(x))
    assert np.allclose(sel.hp_ht(P), dense.hp_ht(P))


def test_observation_validation():
    with pytest.raises(Exception):
        # R not positive definite
        LinearGaussianObservation.from_indices([0], np.array([[-1.0]]), np.array([0.0]), 2)
    with pytest.raises(ValueError):
        LinearGaussianObservation.from_indices([5], np.array([[1.0]]), np.array([0.0]), 2)
    with pytest.raises(ValueError):
        LinearGaussianObservation.from_matrix(
            np.array([[0.0, 0.0]]), np.array([[1.0]]), np.array([0.0]))


def test_draw_noise_covariance():
    obs = LinearGaussianObservation.from_indices(
        [0, 1], np.array([[2.0, 0.6], [0.6, 1.0]]), np.zeros(2), 2)
    eps = obs.draw_noise(RngNode(10), 200_000)
    cov = np.cov(eps)
    assert np.allclose(cov, obs.R, atol=0.02)


def _allclose_verdict(R):
    """The symmetry test LinearGaussianObservation used to run on every R."""
    return np.allclose(R, R.T, atol=1e-12 * max(1.0, np.abs(R).max()))


def _build_message(R):
    try:
        LinearGaussianObservation.from_indices([0, 1, 2], R, np.zeros(3), 3)
    except ValueError as err:
        return str(err)
    return None


_INF, _NAN = np.inf, np.nan
_SPECIAL_R = {
    "asymmetric": [[2.0, 0.5, 0.0], [0.4, 2.0, 0.0], [0.0, 0.0, 2.0]],
    "asymmetric_within_tolerance": [[2.0, 0.5, 0.0], [0.5 + 1e-13, 2.0, 0.0], [0.0, 0.0, 2.0]],
    "nan_diagonal": [[_NAN, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "nan_mirrored": [[1.0, _NAN, 0.0], [_NAN, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "inf_diagonal": [[_INF, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "minus_inf_mirrored": [[1.0, -_INF, 0.0], [-_INF, 1.0, 0.0], [0.0, 0.0, 1.0]],
    # an infinite entry makes the tolerance infinite, so a finite mirror passes
    "inf_against_finite": [[1.0, _INF, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "inf_against_minus_inf": [[1.0, _INF, 0.0], [-_INF, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "inf_and_nan": [[_INF, _NAN, 0.0], [_NAN, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


# numpy warns when an infinite entry makes the tolerance infinite
_INF_TOLERANCE = pytest.mark.filterwarnings("ignore:One of rtol or atol is not valid")


@_INF_TOLERANCE
@pytest.mark.parametrize("name", sorted(_SPECIAL_R))
def test_symmetry_check_keeps_the_allclose_verdict_and_message(name):
    R = np.array(_SPECIAL_R[name])
    symmetric = _allclose_verdict(R)
    expected = ("R must be a symmetric (r, r) matrix" if not symmetric
                else None if np.isfinite(R).all() else "array must not contain infs or NaNs")
    assert _build_message(R) == expected


@_INF_TOLERANCE
def test_symmetry_check_matches_allclose_on_random_special_entries():
    gen = np.random.default_rng(19)
    values = np.array([0.0, 1.0, -2.5, 1e300, -1e-300, _INF, -_INF, _NAN])
    for _ in range(2000):
        R = values[gen.integers(0, values.size, (3, 3))]
        if gen.random() < 0.5:
            R = np.triu(R) + np.triu(R, 1).T
        if gen.random() < 0.3:
            R = R + np.diag(gen.standard_normal(3))
        symmetric = _allclose_verdict(R)
        message = _build_message(R)
        assert (message != "R must be a symmetric (r, r) matrix") == symmetric, R


def test_with_y_shares_the_factor_and_checks_only_y():
    R = np.array([[2.0, 0.6], [0.6, 1.0]])
    obs = LinearGaussianObservation.from_indices([0, 2], R, np.zeros(2), 3)
    new = obs.with_y([0.5, -1.0])
    fresh = LinearGaussianObservation.from_indices([0, 2], R, [0.5, -1.0], 3)
    assert new._chol_R is obs._chol_R and new.R is obs.R and new.indices is obs.indices
    assert np.array_equal(new._chol_R, fresh._chol_R) and np.array_equal(new.y, fresh.y)
    assert np.array_equal(obs.y, np.zeros(2))
    with pytest.raises(ValueError, match="finite vector"):
        obs.with_y([np.nan, 0.0])
    with pytest.raises(ValueError, match="2 entries"):
        obs.with_y([1.0, 2.0, 3.0])


@pytest.mark.filterwarnings("ignore:One of rtol or atol is not valid")
def test_nonfinite_noise_covariance_is_named():
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        LinearGaussianObservation.from_indices([0], np.array([[np.inf]]), np.array([0.0]), 2)
