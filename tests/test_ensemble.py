import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf import ensemble
from enkpf import (
    Ensemble,
    NO_TAPER,
    TaperSpec,
    gaspari_cohn,
    sample_moments,
    taper_matrix,
    tapered_covariance,
)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.zeros((3,)))
    with pytest.raises(ValueError):
        Ensemble(np.zeros((3, 1)))  # need at least two members
    with pytest.raises(ValueError):
        Ensemble(np.array([[np.nan, 0.0]]))
    ens = Ensemble(np.zeros((3, 5)))
    assert ens.q == 3 and ens.n_members == 5


def test_sample_moments_two_particles():
    m = sample_moments(Ensemble(np.array([[0.0, 2.0]])))
    assert m.mean[0] == 1.0
    assert m.cov[0, 0] == 2.0  # divisor N-1


def test_sample_moments_identical_columns():
    m = sample_moments(Ensemble(np.full((4, 7), 1.3)))
    assert np.all(m.cov == 0.0)


def test_sample_moments_square_corners():
    states = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    m = sample_moments(Ensemble(states))
    assert np.allclose(m.mean, [0.5, 0.5])
    assert np.allclose(m.cov, np.eye(2) / 3.0)


def test_triangular_taper_values():
    spec = TaperSpec(kind="triangular", support=10.0, topology="line")
    C = taper_matrix(spec, 30)
    assert C[0, 0] == 1.0
    assert C[0, 5] == 0.5
    assert np.all(C[0, 10:21] == 0.0)


def test_gaspari_cohn_endpoints():
    assert gaspari_cohn(0.0) == 1.0
    assert gaspari_cohn(2.0) == 0.0
    assert gaspari_cohn(2.5) == 0.0
    # both piecewise branches meet at r=1
    assert np.isclose(gaspari_cohn(1.0), 5.0 / 24.0, atol=1e-15)


def test_gaspari_cohn_continuity_at_breaks():
    for r0 in (1.0, 2.0):
        below = gaspari_cohn(r0 - 1e-9)
        above = gaspari_cohn(r0 + 1e-9)
        assert abs(below - above) < 1e-7
    # tighter check from one-sided limits of the closed forms
    assert abs(gaspari_cohn(np.nextafter(1.0, 0.0)) - 5.0 / 24.0) < 1e-12
    assert abs(gaspari_cohn(np.nextafter(2.0, 3.0)) - 0.0) < 1e-12


def test_gaspari_cohn_nonnegative_below_support_edge():
    # the closed form cancels to rounding noise here; 1 / 0.5000000000000001
    # once gave -3.3e-16 in a half-support-0.5 taper matrix
    r = np.array([1.0 / np.nextafter(0.5, 1.0), np.nextafter(2.0, 0.0), 1.9999999])
    assert np.all(gaspari_cohn(r) >= 0.0)


def test_taper_matrix_none_is_all_ones():
    assert np.all(taper_matrix(NO_TAPER, 6) == 1.0)


def test_taper_matrix_invariants():
    for spec in (
        TaperSpec(kind="triangular", support=4.0, topology="line"),
        TaperSpec(kind="gaspari_cohn", support=3.0, topology="ring"),
    ):
        C = taper_matrix(spec, 17)
        assert np.all(np.diag(C) == 1.0)
        assert np.array_equal(C, C.T)
        assert np.all((0.0 <= C) & (C <= 1.0))


def test_ring_taper_is_circulant():
    C = taper_matrix(TaperSpec(kind="gaspari_cohn", support=5.0, topology="ring"), 23)
    for i in range(1, 23):
        assert np.array_equal(C[i], np.roll(C[0], i))


def test_ring_gc_support_cutoff():
    # cyclic distance beyond 2c is exactly zero
    C = taper_matrix(TaperSpec(kind="gaspari_cohn", support=10.0, topology="ring"), 40)
    d = np.minimum(np.abs(np.arange(40)[:, None] - np.arange(40)[None, :]),
                   40 - np.abs(np.arange(40)[:, None] - np.arange(40)[None, :]))
    assert np.all(C[d > 20] == 0.0)
    assert np.all(C[d <= 19] > 0.0)


def test_invalid_taper_support():
    with pytest.raises(ValueError):
        TaperSpec(kind="triangular", support=0.0, topology="line")
    with pytest.raises(ValueError):
        TaperSpec(kind="gaspari_cohn", support=-1.0, topology="ring")
    with pytest.raises(ValueError):
        TaperSpec(kind="boxcar", support=1.0, topology="line")


def test_tapered_covariance_none_matches_sample_moments():
    gen = np.random.default_rng(0)
    ens = Ensemble(gen.standard_normal((6, 12)))
    a = sample_moments(ens)
    b = tapered_covariance(ens, NO_TAPER)
    assert np.array_equal(a.cov, b.cov)
    assert np.array_equal(a.mean, b.mean)


def test_cached_taper_is_the_fresh_taper_and_read_only():
    spec = TaperSpec(kind="gaspari_cohn", support=10.0, topology="ring")
    cached = ensemble._cached_taper(spec, 40)
    assert ensemble._cached_taper(spec, 40) is cached
    fresh = taper_matrix(spec, 40)
    assert np.array_equal(cached.view(np.uint64), fresh.view(np.uint64))
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 1] = 0.0
    fresh[0, 1] = 0.0  # the public function still gives a matrix of the caller's own
    ens = Ensemble(np.random.default_rng(2).standard_normal((40, 9)))
    tapered = tapered_covariance(ens, spec).cov
    assert np.array_equal(tapered, sample_moments(ens).cov * taper_matrix(spec, 40))


def test_tapered_covariance_keeps_diagonal():
    gen = np.random.default_rng(1)
    ens = Ensemble(gen.standard_normal((10, 8)))
    spec = TaperSpec(kind="gaspari_cohn", support=2.0, topology="line")
    plain = sample_moments(ens).cov
    tapered = tapered_covariance(ens, spec).cov
    assert np.allclose(np.diag(tapered), np.diag(plain), rtol=0, atol=0)


def test_tapered_covariance_positive_semidefinite():
    # Schur product of PSD factors is PSD; a wrapped kernel is guaranteed PSD
    # only while its zero radius (2c for gaspari_cohn, c for triangular) stays
    # within half the ring circumference, so ring supports are drawn there
    gen = np.random.default_rng(2)
    for trial in range(20):
        q = int(gen.integers(4, 30))
        n = int(gen.integers(2, 25))
        ens = Ensemble(gen.standard_normal((q, n)) * gen.uniform(0.1, 3.0))
        if trial % 2 == 0:
            spec = TaperSpec(kind="gaspari_cohn", support=float(gen.uniform(0.5, q / 4.0)),
                             topology="ring")
        else:
            spec = TaperSpec(kind="triangular", support=float(gen.uniform(0.5, 20.0)),
                             topology="line")
        taper = taper_matrix(spec, q)
        assert np.linalg.eigvalsh(taper).min() >= -1e-8 * q
        cov = tapered_covariance(ens, spec).cov
        vals = np.linalg.eigvalsh(cov)
        assert vals.min() >= -1e-8 * max(np.trace(cov), 1e-30)


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(min_value=2, max_value=25),
    support=st.floats(min_value=0.5, max_value=30.0),
    kind=st.sampled_from(["triangular", "gaspari_cohn"]),
    topology=st.sampled_from(["line", "ring"]),
)
def test_taper_matrix_bounds_property(q, support, kind, topology):
    C = taper_matrix(TaperSpec(kind=kind, support=support, topology=topology), q)
    assert C.shape == (q, q)
    assert np.all(np.diag(C) == 1.0)
    assert np.all((C >= 0.0) & (C <= 1.0))
    assert np.array_equal(C, C.T)
