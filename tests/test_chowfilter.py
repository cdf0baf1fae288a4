import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustchow import chowfilter
from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import (BLOCK_ROWS, ChowEstimate, FilterParams,
                                   _filter, _survivor_sums, _threshold_cut,
                                   _top_eigenpair,
                                   chow_distance, empirical_chow, prune_mask,
                                   robust_chow)
from robustchow.distributions import (gaussian_descriptor, hypercube_descriptor,
                                      log_concave_descriptor)
from robustchow.errors import AllPointsPruned, BasisMismatch, NoThresholdFound
from robustchow.ltf_learner import LTF
from robustchow.polybasis import eval_monomials_batch

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def ltf_instance(n=10, m=20_000, theta=0.0, eps=0.1, seed=0):
    dist = gaussian_descriptor(n, 1, eps)
    v = np.zeros(n)
    v[0] = 1.0
    f = LTF(v, theta)
    pts = dist.sample(m, seed)
    return dist, f, LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))


def prune_keep(s, dist):
    """The prune rule's keep mask on a sample set, featurized by the descriptor."""
    return prune_mask(dist.featurize(s.points), dist)


def two_cluster_attack(n=6, m=10_000, seed=0):
    """Two chow_attack clusters in different directions: two cuts."""
    dist, f, s = ltf_instance(n=n, m=m, eps=0.1, seed=seed)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, seed + 100)
    return dist, corrupt(bad, f, 0.1, AdversaryStrategy("chow_attack", rho=0.6), dist, seed + 200)


def dense_filter(s, dist, params):
    """The filter without row blocks, downdates or orthonormal featurizers:
    whiten the whole monomial matrix, prune rows that are extreme or have
    mass in Sigma's null directions, rebuild the survivors' Gram matrix
    every pass, average a survivor copy of the monomial rows."""
    phi = eval_monomials_batch(dist.basis, s.points)
    isqrt, null_vectors = dist.whitener()
    z = phi @ isqrt
    alive = prune_mask(z, dist)
    if null_vectors.shape[1] > 0:
        alive &= np.abs(phi @ null_vectors).max(axis=1) <= 1e-8 * np.linalg.norm(phi, axis=1)
    break_level = chowfilter.C_BREAK * (dist.gamma + dist.delta + params.eps)
    while True:
        z_alive = z[alive]
        lam, v = _top_eigenpair(z_alive.T @ z_alive / len(z_alive))
        if lam - 1.0 <= break_level:
            break
        _, keep = _threshold_cut(np.abs(np.einsum("ij,j->i", z_alive, v)), dist, params.eps)
        alive[np.nonzero(alive)[0][~keep]] = False
    return alive, s.labels[alive] @ phi[alive] / alive.sum()


def assert_matches_dense(s, dist, params):
    """Same survivors as the dense whitened-monomial reference, and chi
    within 1e-12 of its monomial mean."""
    est = robust_chow(s, dist, params)
    alive, chi = dense_filter(s, dist, params)
    assert np.array_equal(est.keep_mask, alive)
    assert np.allclose(est.chi, chi, rtol=0, atol=1e-12)
    return est


# --- FilterParams / ChowEstimate ------------------------------------------

def test_filterparams_eps_range():
    FilterParams(eps=0.0)
    FilterParams(eps=0.33)
    with pytest.raises(ValueError):
        FilterParams(eps=0.34)
    with pytest.raises(ValueError):
        FilterParams(eps=-0.01)


def test_chow_estimate_rejects_nonfinite():
    dist = gaussian_descriptor(3, 1, 0.1)
    chi = np.zeros(dist.ell)
    chi[0] = float("nan")
    with pytest.raises(ValueError):
        ChowEstimate(chi, dist.basis, dist, {})


def test_chow_estimate_json_roundtrip():
    dist = gaussian_descriptor(3, 1, 0.1)
    chi = np.array([0.1, ROOT_2_OVER_PI, 0.0, 0.0])
    est = ChowEstimate(chi, dist.basis, dist, {"iterations": 2})
    data = est.to_json()
    assert data["n"] == 3 and data["d"] == 1
    back = ChowEstimate.from_json(data, dist=dist)
    assert np.allclose(back.chi, chi)
    assert back.dist is dist
    assert back.provenance == {"iterations": 2}


# --- eigen paths -----------------------------------------------------------

def power_eigenpair(monkeypatch, m):
    """_top_eigenpair on its power-iteration path."""
    with monkeypatch.context() as patch:
        patch.setattr(chowfilter, "DENSE_EIG_MAX", 0)
        return _top_eigenpair(m)


def test_top_eigenpair_dense_small():
    m = np.diag([1.0, 5.0, 2.0])
    lam, v = _top_eigenpair(m)
    assert lam == pytest.approx(5.0)
    assert np.allclose(np.abs(v), [0, 1, 0], atol=1e-12)


def test_dense_and_power_paths_agree(monkeypatch):
    rng = np.random.default_rng(5)
    for trial in range(5):
        a = rng.standard_normal((40, 40))
        m = a @ a.T  # PSD with distinct top eigenvalue almost surely
        lam_d, v_d = _top_eigenpair(m)
        lam_p, v_p = power_eigenpair(monkeypatch, m)
        assert lam_p == pytest.approx(lam_d, rel=1e-6)
        assert abs(abs(float(v_d @ v_p)) - 1.0) < 1e-6


def test_power_iteration_sign_convention(monkeypatch):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, 30))
    m = a @ a.T
    _, v_d = _top_eigenpair(m)
    _, v_p = power_eigenpair(monkeypatch, m)
    # both fix the largest-magnitude component positive, so vectors match exactly
    assert np.allclose(v_d, v_p, atol=1e-6)


# --- prune -----------------------------------------------------------------

def test_prune_keeps_typical_removes_extreme():
    dist, f, s = ltf_instance(n=5, m=2000, seed=3)
    assert prune_keep(s, dist).all()  # gaussian bulk survives

    far = s.points.copy()
    far[0] = 1e6  # monomial norm blows past T_max^2/2
    s_far = LabeledSampleSet(far, s.labels.copy())
    keep = prune_keep(s_far, dist)
    assert not keep[0] and keep[1:].all()
    # robust_chow starts its filter from the same mask and reports the
    # pruned row in its provenance and keep mask
    est = robust_chow(s_far, dist, FilterParams(eps=0.05))
    assert est.provenance["pruned"] == 1
    assert not est.keep_mask[0]


def test_prune_disabled_on_hypercube():
    dist = hypercube_descriptor(4, 1, 0.1)
    pts = dist.sample(500, 0)
    s = LabeledSampleSet(pts, np.ones(500))
    assert prune_keep(s, dist).sum() == 500
    assert robust_chow(s, dist, FilterParams(eps=0.1)).provenance["pruned"] == 0


def test_prune_all_points_error():
    dist, f, s = ltf_instance(n=4, m=50)
    s_far = LabeledSampleSet(s.points + 1e6, s.labels)
    # the rule itself only marks rows; an all-outlier block is legal
    assert not prune_keep(s_far, dist).any()
    with pytest.raises(AllPointsPruned):
        robust_chow(s_far, dist, FilterParams(eps=0.1))


# --- row blocks and Gram downdates -------------------------------------------

def test_downdated_gram_matches_rebuilt(monkeypatch):
    dist, bad = two_cluster_attack()
    seen = []
    real = chowfilter._top_eigenpair

    def spy(m_mat, **kw):
        seen.append(m_mat.copy())
        return real(m_mat, **kw)

    monkeypatch.setattr(chowfilter, "_top_eigenpair", spy)
    est = robust_chow(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["iterations"] == len(seen) >= 3  # two cuts, then converged
    h = dist.featurize(bad.points[est.keep_mask])
    rebuilt = h.T @ h
    downdated = seen[-1] * est.provenance["used"]
    assert np.abs(downdated - rebuilt).max() <= 1e-12 * np.abs(rebuilt).max()


def test_blocks_match_dense_filter_with_partial_last_block():
    dist, bad = two_cluster_attack(m=2 * BLOCK_ROWS + 123, seed=1)
    est = assert_matches_dense(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["iterations"] >= 3


def test_blocks_match_dense_filter_below_one_block():
    dist, bad = two_cluster_attack(m=BLOCK_ROWS // 2, seed=2)
    est = assert_matches_dense(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["filtered"] > 0


def test_whole_blocks_of_far_outliers_are_pruned():
    dist, f, s = ltf_instance(n=4, m=4 * BLOCK_ROWS, seed=6)
    run = slice(BLOCK_ROWS - 100, 3 * BLOCK_ROWS + 100)  # blocks 1 and 2 whole
    far = s.points.copy()
    far[run] = 1e6
    est = assert_matches_dense(LabeledSampleSet(far, s.labels), dist, FilterParams(eps=0.1))
    assert est.provenance["pruned"] == 2 * BLOCK_ROWS + 200
    assert not est.keep_mask[run].any()


def test_overflowed_rows_are_pruned_without_poisoning_chi():
    dist = gaussian_descriptor(3, 3, 0.05)
    pts = dist.sample(2000, 0)
    pts[5, 0] = 1e110  # x^3 overflows to inf in the monomial row
    s = LabeledSampleSet(pts, np.where(pts[:, 0] >= 0, 1.0, -1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        est = robust_chow(s, dist, FilterParams(eps=0.05))
    assert est.provenance["pruned"] == 1 and not est.keep_mask[5]
    assert np.isfinite(est.chi).all()


def test_identical_points_share_one_decision():
    # The cluster's last member is the sample's last row, where a BLAS gemv
    # may round differently from the other rows and split the cluster.
    for seed in range(10):
        dist, f, s = ltf_instance(n=20, m=4003, eps=0.1, seed=seed)
        bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, seed + 50)
        pts, labels = bad.points.copy(), bad.labels.copy()
        first = np.nonzero(bad.corrupted_mask)[0][0]
        pts[-1], labels[-1] = pts[first], labels[first]
        est = robust_chow(LabeledSampleSet(pts, labels), dist, FilterParams(eps=0.1))
        assert not est.keep_mask[np.all(pts == pts[first], axis=1)].any()


@pytest.mark.parametrize("d", [2, 3])
def test_gaussian_hermite_filter_matches_dense_whitened_filter(d):
    # Hermite rows are a rotation of the whitened monomial rows: same
    # prune, same spectrum, same |scores|, so the same survivors
    dist = gaussian_descriptor(5, d, 0.1)
    pts = dist.sample(BLOCK_ROWS + 700, 10 + d)
    f = LTF(np.r_[1.0, np.zeros(4)], 0.3)
    s = LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, 20 + d)
    far = bad.points.copy()
    far[:3] = 50.0  # beyond the prune radius at every degree
    est = assert_matches_dense(LabeledSampleSet(far, bad.labels), dist, FilterParams(eps=0.1))
    assert est.provenance["pruned"] == 3 and est.provenance["filtered"] > 0


def test_null_direction_rows_are_pruned():
    # Gaussian moments with every x_2 monomial zeroed: the law of
    # (x_1, 0, x_3). Rows with x_2 != 0 have mass in Sigma's null space.
    gauss = gaussian_descriptor(3, 2, 0.1)
    on_x2 = gauss.basis.exponents[:, 1] > 0
    table = gauss.sigma.copy()
    table[on_x2] = 0.0
    table[:, on_x2] = 0.0
    dist = log_concave_descriptor(3, 2, table, 0.0, 0.1)
    assert dist.whitener()[1].shape[1] == int(on_x2.sum())
    pts = gauss.sample(3000, 7)
    pts[:, 1] = 0.0
    stray = np.arange(0, 3000, 100)
    pts[stray, 1] = 0.01
    s = LabeledSampleSet(pts, np.where(pts[:, 0] >= 0.2, 1.0, -1.0))
    h = dist.featurize(pts)
    assert np.all(np.isfinite(h))
    assert np.allclose(np.linalg.norm(h[stray], axis=1), dist.t_max)
    assert not prune_keep(s, dist)[stray].any()
    est = assert_matches_dense(s, dist, FilterParams(eps=0.1))
    assert est.provenance["pruned"] == stray.size
    assert not est.keep_mask[stray].any() and est.keep_mask.sum() == 3000 - stray.size


def test_hypercube_blocks_match_dense_filter():
    dist = hypercube_descriptor(6, 2, 0.1)
    pts = dist.sample(BLOCK_ROWS + 500, 3)
    f = LTF(np.r_[1.0, np.zeros(5)], 0.0)
    s = LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, 4)
    est = assert_matches_dense(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["pruned"] == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 5),
       m=st.integers(200, 3 * BLOCK_ROWS // 2), perm_seed=st.integers(0, 2 ** 16))
def test_row_permutation_permutes_keep_mask(seed, n, m, perm_seed):
    dist, bad = two_cluster_attack(n=n, m=m, seed=seed)
    perm = np.random.default_rng(perm_seed).permutation(m)
    shuffled = LabeledSampleSet(bad.points[perm], bad.labels[perm])
    params = FilterParams(eps=0.1)
    a = robust_chow(bad, dist, params)
    b = robust_chow(shuffled, dist, params)
    assert np.array_equal(b.keep_mask, a.keep_mask[perm])
    assert a.provenance["iterations"] == b.provenance["iterations"]
    assert np.allclose(a.chi, b.chi, rtol=0, atol=1e-12)


# --- threshold rule --------------------------------------------------------

def test_threshold_cut_finds_outlier_band():
    dist = gaussian_descriptor(6, 1, 0.1)
    rng = np.random.default_rng(0)
    scores = np.abs(rng.standard_normal(5000))
    scores[:500] = 9.0  # 10% far outliers, Q1(9) ~ 2.6e-18
    t, keep = _threshold_cut(scores, dist, 0.1)
    assert t is not None and 1.0 < t <= 9.0
    assert keep.sum() <= 4500  # outlier block removed
    assert not keep[:500].any()


def test_threshold_cut_rejects_clean_gaussian_scores():
    dist = gaussian_descriptor(6, 1, 0.1)
    rng = np.random.default_rng(1)
    scores = np.abs(rng.standard_normal(5000))
    # clean scores never beat 4 Q_1(T) + 3 eps / T_max^2
    with pytest.raises(NoThresholdFound):
        _threshold_cut(scores, dist, 0.1)


def unique_searchsorted_cut(scores, dist, eps):
    """The cut rule with np.unique candidates and searchsorted counts, as a
    reference for the single-sort version."""
    order = np.sort(scores)
    candidates = np.unique(order)
    candidates = candidates[candidates > 0.0]
    if candidates.size == 0:
        raise NoThresholdFound("all projections are zero")
    frac = (scores.size - np.searchsorted(order, candidates, side="left")) / scores.size
    valid = frac >= 4.0 * dist.tail(candidates) + 3.0 * eps / dist.t_max ** 2
    if not valid.any():
        raise NoThresholdFound("no sample value satisfies the tail-excess test")
    t_cut = float(candidates[np.nonzero(valid)[0][-1]])
    return t_cut, scores < t_cut


@pytest.mark.parametrize("seed", range(6))
def test_threshold_cut_matches_unique_searchsorted_rule(seed):
    dist = gaussian_descriptor(6, 1, 0.1)
    rng = np.random.default_rng(seed)
    m = 3000
    # coarse grid ties, a zero-heavy block and tied outlier clusters
    scores = np.round(np.abs(rng.standard_normal(m)), 1 + seed % 3)
    scores[rng.choice(m, m // 3, replace=False)] = 0.0
    for value, size in ((6.5, 150), (8.0, 90 * (seed % 2)), (9.0, 40)):
        scores[rng.choice(m, size, replace=False)] = value
    # the outlier clusters merged into one tie; a prefix; clean scores;
    # nothing but zeros; one positive score among zeros
    cases = (scores, np.minimum(scores, 7.0), scores[:7],
             np.abs(rng.standard_normal(m)), np.zeros(10), np.r_[np.zeros(50), 3.0])
    cut = 0
    for s in cases:
        try:
            want_t, want_keep = unique_searchsorted_cut(s, dist, 0.1)
        except NoThresholdFound as err:
            with pytest.raises(NoThresholdFound, match=str(err)):
                _threshold_cut(s, dist, 0.1)
            continue
        t, keep = _threshold_cut(s, dist, 0.1)
        assert t == want_t and np.array_equal(keep, want_keep)
        cut += 1
    assert cut >= 2


def test_threshold_prefers_largest_valid():
    dist = gaussian_descriptor(6, 1, 0.1)
    rng = np.random.default_rng(2)
    scores = np.abs(rng.standard_normal(4000))
    scores[:400] = 7.0
    scores[400:800] = 5.0
    t, _ = _threshold_cut(scores, dist, 0.1)
    assert t is not None
    assert t > 5.0  # cuts only the 7-band, the largest threshold that works


# --- empirical and robust estimates ----------------------------------------

def test_empirical_chow_matches_direct_mean():
    dist, f, s = ltf_instance(n=4, m=3000, seed=9)
    est = empirical_chow(s, dist)
    phi = eval_monomials_batch(dist.basis, s.points)
    oracle = s.labels @ phi / len(s)
    assert np.allclose(est.chi, oracle)


def test_clean_chow_sign_x1():
    dist, f, s = ltf_instance(n=10, m=100_000, theta=0.0, eps=0.1, seed=12)
    est = robust_chow(s, dist, FilterParams(eps=0.0))
    expect = np.zeros(dist.ell)
    expect[1] = ROOT_2_OVER_PI
    assert np.max(np.abs(est.chi - expect)) < 0.02


def test_robust_chow_removes_chow_attack():
    dist, f, s = ltf_instance(n=10, m=20_000, theta=0.0, eps=0.1, seed=21)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, 22)
    clean_ref = empirical_chow(s, dist)
    raw = empirical_chow(bad, dist)
    filt = robust_chow(bad, dist, FilterParams(eps=0.1))
    assert chow_distance(raw, clean_ref) > 0.4
    assert chow_distance(filt, clean_ref) < 0.1
    # at least 2/3 of planted points removed
    prov = filt.provenance
    assert prov["filtered"] + prov["pruned"] >= (2 / 3) * int(bad.corrupted_mask.sum())


def test_filtered_error_is_dimension_independent():
    # The paper's headline: the filtered error does not grow with n. With
    # m = 500 ell the sqrt(ell / m) sampling floor is the same at every n,
    # so the filtered error stays at it, while the raw mean is dragged
    # toward the attack cluster at whitened radius 0.9 T_max / sqrt(2).
    per_row, seeds = 500, 3
    floor = math.sqrt(1.0 / per_row)
    excess, raw_per_tmax, raw = [], [], []
    for n in (10, 40, 160):
        errs, raws = [], []
        for seed in range(seeds):
            dist, f, s = ltf_instance(n=n, m=per_row * (n + 1), eps=0.05, seed=seed)
            bad = corrupt(s, f, 0.05, AdversaryStrategy("chow_attack", rho=0.9), dist,
                          seed + 100)
            truth = np.zeros(dist.ell)
            truth[1] = ROOT_2_OVER_PI
            truth = ChowEstimate(truth, dist.basis, dist)
            errs.append(chow_distance(robust_chow(bad, dist, FilterParams(eps=0.05)), truth))
            raws.append(chow_distance(empirical_chow(bad, dist), truth))
        excess.append(np.mean(errs) - floor)
        raw.append(np.mean(raws))
        raw_per_tmax.append(raw[-1] / dist.t_max)
    assert max(abs(e) for e in excess) <= 0.35 * floor, excess
    assert raw[1] > 1.8 * raw[0] and raw[2] > 1.8 * raw[1], raw
    assert max(raw_per_tmax) <= 1.1 * min(raw_per_tmax), raw_per_tmax


def test_robust_chow_soundness_on_clean_data():
    dist, f, s = ltf_instance(n=8, m=30_000, theta=0.3, eps=0.05, seed=31)
    est = robust_chow(s, dist, FilterParams(eps=0.05))
    prov = est.provenance
    assert prov["filtered"] + prov["pruned"] <= 0.02 * len(s)
    assert not prov["degraded"]
    assert not prov["cap_reached"]


def test_robust_chow_provenance_schema():
    dist, f, s = ltf_instance(n=5, m=5000)
    est = robust_chow(s, dist, FilterParams(eps=0.05))
    for key in ("samples_in", "pruned", "filtered", "used", "iterations",
                "final_lambda", "degraded", "cap_reached"):
        assert key in est.provenance
    assert est.provenance["samples_in"] == 5000
    assert est.provenance["used"] == 5000 - est.provenance["pruned"] - est.provenance["filtered"]


def test_robust_chow_min_samples():
    dist, f, s = ltf_instance(n=5, m=200)
    small = LabeledSampleSet(s.points[:5], s.labels[:5])
    with pytest.raises(ValueError):
        robust_chow(small, dist, FilterParams(eps=0.1))


def test_robust_chow_deterministic():
    dist, f, s = ltf_instance(n=6, m=8000, seed=2)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, 3)
    a = robust_chow(bad, dist, FilterParams(eps=0.1))
    b = robust_chow(bad, dist, FilterParams(eps=0.1))
    assert np.array_equal(a.chi, b.chi)


def test_filter_iteration_converges_on_clean():
    dist, f, s = ltf_instance(n=6, m=10_000, eps=0.05, seed=14)
    est = robust_chow(s, dist, FilterParams(eps=0.05))
    prov = est.provenance
    # the first spectral step already sits below the break level
    assert prov["iterations"] == 1 and prov["filtered"] == 0
    assert prov["final_lambda"] <= 10.0 * (dist.gamma + dist.delta + 0.05)
    assert est.keep_mask.all()


def test_filter_iteration_cuts_attack_cluster():
    dist, f, s = ltf_instance(n=6, m=10_000, eps=0.1, seed=15)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, 16)
    est = robust_chow(bad, dist, FilterParams(eps=0.1))
    prov = est.provenance
    assert prov["iterations"] >= 2  # at least one cut before convergence
    assert prov["pruned"] == 0  # rho < 1 places the cluster inside the prune radius
    assert prov["filtered"] >= 1
    cut = ~est.keep_mask
    assert cut.sum() == prov["filtered"]
    assert bad.corrupted_mask[cut].mean() > 0.5


def test_filter_degrades_when_no_cut_qualifies(monkeypatch):
    # On the hypercube at n=6, d=1 no score can pass the tail-excess test
    # (see the README's filter section); a break level low enough to demand
    # a cut ends the loop degraded with nothing filtered.
    monkeypatch.setattr(chowfilter, "C_BREAK", 0.01)
    dist = hypercube_descriptor(6, 1, 0.1)
    f = LTF(np.eye(6)[0], 0.0)
    pts = dist.sample(20_000, 0)
    s = LabeledSampleSet(pts, f.evaluate(pts))
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, 1)
    prov = robust_chow(bad, dist, FilterParams(eps=0.1)).provenance
    assert prov["degraded"] and not prov["cap_reached"]
    assert prov["filtered"] == 0


def test_filter_stops_at_iteration_cap(monkeypatch):
    dist, bad = two_cluster_attack()
    uncapped = robust_chow(bad, dist, FilterParams(eps=0.1)).provenance
    monkeypatch.setattr(chowfilter, "MAX_ITERATIONS", 1)
    prov = robust_chow(bad, dist, FilterParams(eps=0.1)).provenance
    assert prov["cap_reached"] and not prov["degraded"]
    assert prov["iterations"] == 1
    assert 0 < prov["filtered"] < uncapped["filtered"]


def test_survivor_sums_then_filter_is_robust_chow():
    dist, f, s = ltf_instance(n=6, m=2 * BLOCK_ROWS + 77, seed=2)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, 3)
    bad.points[[5, BLOCK_ROWS + 9]] = 1e6   # one pruned row in each of two blocks
    h = dist.featurize(bad.points)
    alive, gram, label_sum = _survivor_sums(h, dist, bad.labels)
    assert np.array_equal(alive, prune_mask(h, dist)) and (~alive).sum() == 2
    live = h[alive]
    assert np.allclose(gram, live.T @ live, rtol=1e-12, atol=0)
    assert np.allclose(label_sum, bad.labels[alive] @ live, rtol=0, atol=1e-9)
    # without labels: the same mask and Gram matrix, no label sum
    bare_alive, bare_gram, bare_sum = _survivor_sums(h, dist)
    assert np.array_equal(bare_alive, alive) and np.array_equal(bare_gram, gram)
    assert bare_sum is None
    est = _filter(h, bad.labels, alive, gram, label_sum, dist, 0.1)
    ref = robust_chow(bad, dist, FilterParams(eps=0.1))
    assert est.provenance == ref.provenance and ref.provenance["filtered"] > 0
    assert np.array_equal(est.keep_mask, ref.keep_mask)
    assert np.array_equal(est.chi, ref.chi)


@pytest.mark.parametrize("n", [2, 6, 9])
def test_hypercube_degree1_filter_is_the_plain_mean(monkeypatch, n):
    # every hypercube score is at most sqrt(n + 1) < 3.30, where the
    # degree-1 tail bound is still 1, so even a zero break level cuts nothing
    monkeypatch.setattr(chowfilter, "C_BREAK", 0.0)
    dist = hypercube_descriptor(n, 1, 0.1)
    f = LTF(np.eye(n)[0], 0.0)
    pts = dist.sample(4000, n)
    bad = corrupt(LabeledSampleSet(pts, f.evaluate(pts)), f, 0.1,
                  AdversaryStrategy("chow_attack"), dist, n + 1)
    est = robust_chow(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["filtered"] == 0 and est.provenance["pruned"] == 0
    assert np.allclose(est.chi, empirical_chow(bad, dist).chi, rtol=0, atol=1e-12)


def test_robust_chow_featurizes_once(monkeypatch):
    dist, f, s = ltf_instance(n=6, m=8000, seed=5)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, 6)
    rows = []
    real = dist.featurize

    def counted(points):
        out = real(points)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(dist, "featurize", counted)
    est = robust_chow(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["iterations"] >= 2  # pruning and several passes, one featurization
    assert rows == [8000]


def test_robust_chow_never_prunes_nan_rows():
    dist, f, s = ltf_instance(n=5, m=5000, seed=4)
    s.points[7, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        LabeledSampleSet(s.points, s.labels)
    # a set mutated after construction is refused too, not counted as pruned
    with pytest.raises(ValueError, match="finite"):
        robust_chow(s, dist, FilterParams(eps=0.05))
    hyper = hypercube_descriptor(4, 1, 0.05)
    cube = LabeledSampleSet(hyper.sample(500, 0), np.ones(500))
    cube.points[3, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        robust_chow(cube, hyper, FilterParams(eps=0.05))


# --- chow distance ----------------------------------------------------------

def test_chow_distance_zero_and_symmetry():
    dist, f, s = ltf_instance(n=4, m=2000)
    a = empirical_chow(s, dist)
    assert chow_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    b = empirical_chow(LabeledSampleSet(s.points[:1000], s.labels[:1000]), dist)
    assert chow_distance(a, b) == pytest.approx(chow_distance(b, a))


def test_chow_distance_identity_sigma_is_euclidean():
    dist = hypercube_descriptor(3, 1, 0.1)
    chi_a = np.array([0.0, 0.3, 0.0, 0.0])
    chi_b = np.array([0.0, 0.0, 0.4, 0.0])
    a = ChowEstimate(chi_a, dist.basis, dist, {})
    b = ChowEstimate(chi_b, dist.basis, dist, {})
    assert chow_distance(a, b) == pytest.approx(0.5)  # sigma = identity


def test_chow_distance_reuses_the_descriptor_whitener(monkeypatch):
    dist, f, s = ltf_instance(n=4, m=2000)
    ests = [empirical_chow(LabeledSampleSet(s.points[k:], s.labels[k:]), dist)
            for k in (0, 500, 1000)]
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    dists = [chow_distance(ests[i], ests[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert calls == [(dist.ell, dist.ell)]
    assert min(dists) > 0.0
    # a second descriptor with equal moments measures the same distance
    other = empirical_chow(LabeledSampleSet(s.points[1000:], s.labels[1000:]),
                           gaussian_descriptor(4, 1, 0.1))
    assert chow_distance(ests[0], other) == pytest.approx(dists[2], rel=1e-12)


def test_chow_distance_basis_mismatch():
    d1 = gaussian_descriptor(3, 1, 0.1)
    d2 = gaussian_descriptor(4, 1, 0.1)
    a = ChowEstimate(np.zeros(d1.ell), d1.basis, d1, {})
    b = ChowEstimate(np.zeros(d2.ell), d2.basis, d2, {})
    with pytest.raises(BasisMismatch):
        chow_distance(a, b)
    # same basis, different moments
    d3 = log_concave_descriptor(3, 1, 2.0 * d1.sigma, 0.0, 0.1)
    c = ChowEstimate(np.zeros(d3.ell), d3.basis, d3, {})
    with pytest.raises(BasisMismatch, match="moments"):
        chow_distance(a, c)
