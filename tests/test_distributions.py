import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc
from scipy.stats import norm

from feature_rows import feature_rows

from robustchow import distributions
from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import FilterParams, robust_chow
from robustchow.distributions import (EPS_FLOOR, compute_delta, compute_tmax,
                                      from_config, gaussian_descriptor,
                                      gaussian_moment_matrix,
                                      gaussian_monomial_map,
                                      hypercube_descriptor,
                                      hypercube_moment_matrix,
                                      log_concave_descriptor, make_tail_bound)
from robustchow.errors import ConfigError, IntegralDiverges, NonMultilinearBasis, UnknownFamily
from robustchow.intersection_learner import make_cover
from robustchow.ltf_learner import LTF, estimate_threshold
from robustchow.polybasis import TILE_ROWS, enumerate_basis, eval_monomials_batch


# --- tail bounds ---------------------------------------------------------

def test_tail_q1_exact_gaussian():
    q = make_tail_bound("gaussian-chaos", 1)
    # exact linear tail: Pr[|x1| >= T] = 2(1 - Phi(T)) <= exp(-T^2/2)
    for t in (0.5, 1.0, 2.0, 3.0):
        assert q(t) == pytest.approx(math.exp(-t * t / 2))
        assert 2 * (1 - norm.cdf(t)) <= q(t) + 1e-12


def test_tail_degree2_form():
    q = make_tail_bound("gaussian-chaos", 2)
    t = 3.0
    assert q(t) == pytest.approx(min(1.0, math.exp(2 - (2 / (2 * math.e)) * t)))
    assert q(0.1) == 1.0  # clipped at 1


def test_tail_monotone_nonincreasing():
    for fam, d in (("gaussian-chaos", 1), ("gaussian-chaos", 3), ("log-concave-chaos", 2)):
        q = make_tail_bound(fam, d)
        ts = np.linspace(0.01, 50, 300)
        vals = q(ts)
        assert (np.diff(vals) <= 1e-15).all()


def test_tail_unknown_family():
    with pytest.raises(UnknownFamily):
        make_tail_bound("cauchy-chaos", 1)


# --- delta ---------------------------------------------------------------

def test_delta_exact_gaussian_linear():
    # oracle: for Q(T) = exp(-T^2/2), delta = eps t0^2/2 + exp(-t0^2/2)
    # with t0 = sqrt(2 ln(1/eps)); at eps = 0.01 this is 0.0560517...
    q = make_tail_bound("gaussian-chaos", 1)
    val = compute_delta(q, 0.01)
    t0 = math.sqrt(2 * math.log(100.0))
    oracle = 0.01 * t0 * t0 / 2 + math.exp(-t0 * t0 / 2)
    assert val == pytest.approx(oracle, rel=1e-5)
    assert val == pytest.approx(0.0560517, abs=2e-6)


def test_delta_matches_quadrature_degree2():
    q = make_tail_bound("gaussian-chaos", 2)
    eps = 0.05
    val = compute_delta(q, eps)
    oracle, _ = integrate.quad(lambda t: t * min(eps, q(t)), 0, 500, limit=300)
    assert val == pytest.approx(oracle, rel=1e-4)


def test_delta_increasing_in_eps():
    q = make_tail_bound("gaussian-chaos", 2)
    vals = [compute_delta(q, e) for e in (0.01, 0.02, 0.05, 0.1)]
    assert vals == sorted(vals)


@pytest.mark.parametrize("family", ["gaussian-chaos", "hypercube-chaos", "log-concave-chaos"])
def test_delta_closed_form_is_checked_by_quadrature(monkeypatch, family):
    # the quadrature agrees with the closed form to far better than the
    # 5e-5 it allows, so a closed form 1e-3 off raises and 1e-6 off passes
    tail = make_tail_bound(family, 2)
    for scale, raises in ((1.0 + 1e-3, True), (1.0 + 1e-6, False)):
        monkeypatch.setattr(distributions, "gammaincc",
                            lambda a, u, scale=scale: scale * gammaincc(a, u))
        if raises:
            with pytest.raises(IntegralDiverges, match="disagrees with quadrature"):
                compute_delta(tail, 0.05)
        else:
            compute_delta(tail, 0.05)


def test_delta_quadrature_error_estimate_is_checked(monkeypatch):
    # a 2-node rule against a 1-node one misses the tolerance by far
    monkeypatch.setattr(distributions, "_GAUSS_LEGENDRE",
                        tuple(np.polynomial.legendre.leggauss(k) for k in (2, 1)))
    with pytest.raises(IntegralDiverges, match="did not converge"):
        compute_delta(make_tail_bound("gaussian-chaos", 2), 0.05)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(["gaussian-chaos", "hypercube-chaos", "log-concave-chaos"]),
       d=st.integers(1, 4), c=st.one_of(st.none(), st.floats(0.05, 3.0)),
       eps=st.floats(1e-4, 0.5))
def test_delta_is_the_closed_form(family, d, c, eps):
    tail = make_tail_bound(family, d, c)
    p, c, off = tail.power, tail.c, tail.offset
    t0 = ((off + math.log(1.0 / eps)) / c) ** (1.0 / p)
    closed = (eps * t0 * t0 / 2.0 + math.exp(off) * c ** (-2.0 / p) / p * gamma_fn(2.0 / p)
              * gammaincc(2.0 / p, off + math.log(1.0 / eps)))
    assert compute_delta(tail, eps) == pytest.approx(closed, rel=1e-12)


def test_normal_quantiles_are_scipy_norm_ppf():
    # the learners invert Phi with scipy.special.ndtri, bit for bit norm.ppf
    rng = np.random.default_rng(0)
    for labels in [rng.uniform(-1.0, 1.0, 7) for _ in range(50)] + [np.ones(3), -np.ones(3)]:
        mean = np.clip(np.mean(labels), -1.0 + 1e-9, 1.0 - 1e-9)
        sample = LabeledSampleSet(np.zeros((labels.size, 1)), labels)
        assert estimate_threshold(sample) == norm.ppf((mean + 1.0) / 2.0)
    for k, dim, delta in ((1, 1, 0.25), (1, 1, 0.9), (2, 1, 0.75), (2, 2, 0.75)):
        cover = make_cover(k, dim, delta)
        assert cover.thresholds.max() == norm.ppf(1.0 - delta / (8.0 * k))


# --- T_max ---------------------------------------------------------------

def test_tmax_linear_paper_value():
    # smallest T with exp(-(T/(2 sqrt(l)))^2/2) <= eps/(10 l):
    # T = 2 sqrt(l) sqrt(2 ln(10 l / eps)); at l=3, eps=0.1 this is 11.70
    q = make_tail_bound("gaussian-chaos", 1)
    val = compute_tmax(q, 0.1, 3)
    oracle = 2 * math.sqrt(3) * math.sqrt(2 * math.log(10 * 3 / 0.1))
    assert val == pytest.approx(oracle, rel=1e-5)
    assert val == pytest.approx(11.7000, abs=2e-3)


def test_tmax_hypercube_is_sqrt_ell():
    # pruning is off on the cube, so the descriptor pins T_max to sqrt(ell)
    for n, d in ((15, 1), (4, 2), (6, 3)):
        dist = hypercube_descriptor(n, d, 0.1)
        assert dist.t_max == math.sqrt(dist.ell)


def bisect_tmax(tail, eps, ell):
    """Reference: doubling plus bisection to relative 1e-7 on the T_max
    tail condition, as compute_tmax ran before its closed form."""
    root_ell = math.sqrt(ell)
    target = eps / (10.0 * ell)
    scale = 2.0 * root_ell
    if tail(root_ell / scale) <= target:
        return root_ell
    lo, hi = root_ell, 2.0 * root_ell
    while tail(hi / scale) > target:
        lo, hi = hi, hi * 2.0
    while (hi - lo) > 1e-7 * hi:
        mid = 0.5 * (lo + hi)
        if tail(mid / scale) <= target:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("family", ["gaussian-chaos", "hypercube-chaos",
                                    "log-concave-chaos"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tmax_closed_form_matches_bisection(family, d):
    q = make_tail_bound(family, d)
    for eps in (1e-4, 0.01, 0.05, 0.1, 0.5):
        for ell in (2, 21, 455, 2024):
            val = compute_tmax(q, eps, ell)
            assert val == pytest.approx(bisect_tmax(q, eps, ell), rel=1e-7)
            assert val >= math.sqrt(ell)
            if val > math.sqrt(ell):
                # the tail condition holds with equality at the crossing
                target = eps / (10.0 * ell)
                assert q(val / (2.0 * math.sqrt(ell))) == pytest.approx(target, rel=1e-12)


def test_tmax_decreasing_in_eps():
    q = make_tail_bound("gaussian-chaos", 1)
    vals = [compute_tmax(q, e, 11) for e in (0.01, 0.05, 0.1, 0.2)]
    assert vals == sorted(vals, reverse=True)


# --- moment matrices -----------------------------------------------------

def test_gaussian_moments_small_exact():
    # oracle: E[x^s] for N(0,1) is (s-1)!! for even s, 0 for odd
    b = enumerate_basis(1, 2)  # 1, x, x^2
    sigma = gaussian_moment_matrix(b)
    oracle = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 3]], dtype=float)
    assert np.allclose(sigma, oracle)


def test_gaussian_moments_vs_quadrature():
    b = enumerate_basis(2, 2)
    sigma = gaussian_moment_matrix(b)
    # spot-check E[x1^2 x2^2] = 1, E[x1^4] = 3, E[x1^3 x2] = 0
    i11 = b.index_of((1, 1))
    i20 = b.index_of((2, 0))
    assert sigma[i11, i11] == pytest.approx(1.0)
    assert sigma[i20, i20] == pytest.approx(3.0)
    assert sigma[i20, i11] == pytest.approx(0.0)

    def mom(k):
        val, _ = integrate.quad(lambda x: x ** k * norm.pdf(x), -12, 12)
        return val

    assert sigma[i20, i20] == pytest.approx(mom(4), abs=1e-9)


def test_gaussian_moments_psd_and_symmetric():
    b = enumerate_basis(3, 2)
    sigma = gaussian_moment_matrix(b)
    assert np.allclose(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma).min() > 0


def test_hypercube_moments_identity():
    b = enumerate_basis(4, 2, multilinear=True)
    assert np.array_equal(hypercube_moment_matrix(b), np.eye(b.ell))


def test_hypercube_moments_reject_powers():
    b = enumerate_basis(2, 2)
    with pytest.raises(NonMultilinearBasis):
        hypercube_moment_matrix(b)


# --- descriptors ---------------------------------------------------------

def test_gaussian_descriptor_fields():
    d = gaussian_descriptor(5, 2, 0.05)
    assert d.basis.n == 5 and d.basis.d == 2 and d.ell == 21
    assert d.gamma == 0.0
    assert d.prune_enabled
    assert d.delta > 0 and d.t_max > math.sqrt(d.ell)


def test_descriptor_eps_zero_uses_floor():
    d0 = gaussian_descriptor(4, 1, 0.0)
    dfloor = gaussian_descriptor(4, 1, EPS_FLOOR)
    assert d0.delta == pytest.approx(dfloor.delta)
    assert d0.t_max == pytest.approx(dfloor.t_max)


def test_descriptor_sampling_moments_match():
    d = gaussian_descriptor(3, 2, 0.05)
    pts = d.sample(200_000, 123)
    phi = eval_monomials_batch(d.basis, pts)
    emp = phi.T @ phi / len(pts)
    assert np.max(np.abs(emp - d.sigma)) < 0.15  # loose MC check


def test_descriptor_sample_deterministic():
    d = gaussian_descriptor(3, 1, 0.05)
    assert np.array_equal(d.sample(100, 9), d.sample(100, 9))
    assert not np.array_equal(d.sample(100, 9), d.sample(100, 10))


def test_hypercube_descriptor_sampler_and_pruning():
    d = hypercube_descriptor(6, 1, 0.05)
    pts = d.sample(500, 4)
    assert set(np.unique(pts)) == {-1.0, 1.0}
    assert not d.prune_enabled
    assert d.t_max == pytest.approx(math.sqrt(d.ell))


def test_whitener_pseudoinverse():
    d = gaussian_descriptor(3, 2, 0.05)
    isqrt, null = d.whitener()
    # Sigma is full rank here: isqrt @ Sigma @ isqrt = I, no null directions
    assert null.shape[1] == 0
    assert np.allclose(isqrt @ d.sigma @ isqrt, np.eye(d.ell), atol=1e-8)


@pytest.mark.parametrize("n,d", [(1, 1), (1, 5), (2, 3), (4, 2), (3, 4), (12, 3)])
def test_gaussian_monomial_map_factors_the_moment_matrix(n, d):
    b = enumerate_basis(n, d)
    c = gaussian_monomial_map(b)
    assert np.allclose(c @ c.T, gaussian_moment_matrix(b), rtol=1e-12, atol=0)
    # graded: a monomial has no Hermite component of higher degree
    degree = b.exponents.sum(axis=1)
    assert not np.any(c[degree[:, None] < degree[None, :]])


@pytest.mark.parametrize("n,d", [(1, 5), (3, 3), (5, 2)])
def test_hermite_rows_map_to_monomial_rows(n, d):
    b = enumerate_basis(n, d)
    pts = np.random.default_rng(n + d).standard_normal((300, n)) * 1.5
    mono = eval_monomials_batch(b, pts)
    mapped = feature_rows(gaussian_descriptor(n, d, 0.1), pts) @ gaussian_monomial_map(b).T
    assert np.allclose(mapped, mono, rtol=1e-12, atol=1e-12 * np.abs(mono).max())


def test_descriptor_featurizers_and_maps():
    g = gaussian_descriptor(3, 2, 0.05)
    pts = g.sample(5, 0)
    assert g.family == "gaussian"
    # the degree-2 Hermite rows of x are (x_i^2 - 1) / sqrt(2) and x_i x_j
    rows = feature_rows(g, pts)
    assert np.allclose(rows[:, g.basis.index_of((2, 0, 0))], (pts[:, 0] ** 2 - 1) / math.sqrt(2))
    assert np.allclose(rows[:, g.basis.index_of((0, 1, 1))], pts[:, 1] * pts[:, 2])
    assert g.monomial_map() is g.monomial_map()
    h = hypercube_descriptor(4, 2, 0.05)
    cube = h.sample(5, 0)
    assert np.array_equal(feature_rows(h, cube), eval_monomials_batch(h.basis, cube))
    assert np.array_equal(h.monomial_map(), np.eye(h.ell))
    lc = log_concave_descriptor(3, 2, g.sigma, 0.0, 0.05)
    assert np.allclose(feature_rows(lc, pts),
                       eval_monomials_batch(g.basis, pts) @ lc.whitener()[0])
    assert np.allclose(lc.monomial_map() @ lc.monomial_map().T, g.sigma, atol=1e-12)


def test_gaussian_descriptors_share_read_only_constants():
    a, b = gaussian_descriptor(5, 2, 0.01), gaussian_descriptor(5, 2, 0.2)
    assert a.basis is b.basis and a.sigma is b.sigma
    assert a.whitener() is b.whitener() and a.monomial_map() is b.monomial_map()
    assert a.delta != b.delta and a.t_max != b.t_max
    isqrt, null = a.whitener()
    for shared in (a.basis.exponents, a.sigma, isqrt, null, a.monomial_map()):
        with pytest.raises(ValueError, match="read-only"):
            shared += 1


def _chow_at_6_3():
    dist = gaussian_descriptor(6, 3, 0.1)
    plant = LTF(np.eye(6)[0], 0.3)
    pts = dist.sample(3_000, 5)
    clean = LabeledSampleSet(pts, plant.evaluate(pts).astype(np.float64))
    bad = corrupt(clean, plant, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, 6)
    return dist, robust_chow(bad, dist, FilterParams(eps=0.1))


def test_robust_chow_is_bit_identical_on_a_cold_and_a_warm_cache():
    distributions._gaussian_constants.cache_clear()
    cold_dist, cold = _chow_at_6_3()
    warm_dist, warm = _chow_at_6_3()
    assert warm_dist.sigma is cold_dist.sigma   # the second run hit the cache
    assert cold.provenance["filtered"] > 0
    assert cold.chi.tobytes() == warm.chi.tobytes()
    assert np.array_equal(cold.keep_mask, warm.keep_mask)
    assert cold.provenance == warm.provenance


@pytest.mark.parametrize("coords", ["hermite", "monomial", "whitened", "whitened-null"])
def test_featurize_is_feature_major(coords):
    # every descriptor streams the rows h(x) of consecutive points as
    # (ell, width) blocks, each feature's values contiguous across the
    # tile's points: the layout the filter's syrks and gemvs read
    g = gaussian_descriptor(3, 2, 0.05)
    pts = g.sample(2049, 0)
    if coords == "hermite":
        dist = g
    elif coords == "monomial":
        dist = hypercube_descriptor(3, 2, 0.05)
        pts = dist.sample(2049, 0)
    else:   # "whitened-null": every x_2 monomial has zero moments
        table = g.sigma.copy()
        if coords == "whitened-null":
            on_x2 = g.basis.exponents[:, 1] > 0
            table[on_x2] = table[:, on_x2] = 0.0
        dist = log_concave_descriptor(3, 2, table, 0.0, 0.05)
    for m in (1, 7, 2049):
        tiles = list(dist.feature_tiles(pts[:m]))
        assert [cols.start for cols, _ in tiles] == list(range(0, m, TILE_ROWS))
        assert tiles[-1][0].stop == m
        for cols, block in tiles:
            width = cols.stop - cols.start
            assert block.shape == (dist.ell, width) and block.strides[1] == 8


def test_log_concave_descriptor_builds():
    b = enumerate_basis(3, 1)
    table = gaussian_moment_matrix(b)

    def sampler(count, rng):
        return rng.standard_normal((count, 3))

    d = log_concave_descriptor(3, 1, table, 0.05, 0.05, sampler=sampler)
    assert d.family == "log-concave" and d.tail == make_tail_bound("log-concave-chaos", 1)
    assert d.gamma == pytest.approx(0.05)
    pts = d.sample(1000, 0)
    assert pts.shape == (1000, 3)


def test_from_config_roundtrip_and_errors():
    d = from_config({"family": "gaussian", "n": 4, "d": 1}, 0.05)
    assert d.basis.n == 4
    h = from_config({"family": "hypercube", "n": 3, "d": 1}, 0.05)
    assert h.basis.multilinear
    with pytest.raises(ConfigError, match="family"):
        from_config({"family": "pareto", "n": 2, "d": 1}, 0.05)
    with pytest.raises(ConfigError, match="moments_file"):
        from_config({"family": "log-concave", "n": 2, "d": 1}, 0.05)


@pytest.mark.parametrize("table", [np.eye(3), np.triu(np.ones((4, 4))), -np.eye(4),
                                   np.zeros((4, 4))],
                         ids=["wrong-shape", "asymmetric", "not-psd", "zero"])
def test_from_config_bad_moment_table_is_config_error(tmp_path, table):
    path = tmp_path / "m.csv"
    np.savetxt(path, table, delimiter=",")
    with pytest.raises(ConfigError, match="moments_file"):
        from_config({"family": "log-concave", "n": 3, "d": 1,
                     "moments_file": str(path)}, 0.05)
