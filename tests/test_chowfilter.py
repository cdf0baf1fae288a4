import json
import math

import numpy as np
import pytest

from robustchow import chowfilter
from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import (ChowEstimate, FilterParams,
                                   _threshold_cut, _top_eigenpair,
                                   chow_distance, empirical_chow, prune_mask,
                                   recommended_sample_count, robust_chow)
from robustchow.distributions import gaussian_descriptor, hypercube_descriptor
from robustchow.errors import (AllPointsPruned, BasisMismatch,
                               DimensionMismatch, NoThresholdFound)
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
    """The prune rule's keep mask on a sample set, featurized and whitened."""
    phi = eval_monomials_batch(dist.basis, s.points)
    return prune_mask(phi, phi @ dist.whitener()[0], dist)


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
        ChowEstimate(chi, dist.basis, dist.sigma, {})


def test_chow_estimate_json_roundtrip(tmp_path):
    dist = gaussian_descriptor(3, 1, 0.1)
    chi = np.array([0.1, ROOT_2_OVER_PI, 0.0, 0.0])
    est = ChowEstimate(chi, dist.basis, dist.sigma, {"iterations": 2})
    data = est.to_json()
    assert data["n"] == 3 and data["d"] == 1
    back = ChowEstimate.from_json(data, sigma=dist.sigma)
    assert np.allclose(back.chi, chi)
    path = tmp_path / "est.json"
    est.dump(path)
    assert json.loads(path.read_text())["provenance"]["iterations"] == 2


# --- eigen paths -----------------------------------------------------------

def test_top_eigenpair_dense_small():
    m = np.diag([1.0, 5.0, 2.0])
    lam, v = _top_eigenpair(m, method="dense")
    assert lam == pytest.approx(5.0)
    assert np.allclose(np.abs(v), [0, 1, 0], atol=1e-12)


def test_dense_and_power_paths_agree():
    rng = np.random.default_rng(5)
    for trial in range(5):
        a = rng.standard_normal((40, 40))
        m = a @ a.T  # PSD with distinct top eigenvalue almost surely
        lam_d, v_d = _top_eigenpair(m, method="dense")
        lam_p, v_p = _top_eigenpair(m, method="power")
        assert lam_p == pytest.approx(lam_d, rel=1e-6)
        assert abs(abs(float(v_d @ v_p)) - 1.0) < 1e-6


def test_power_iteration_sign_convention():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, 30))
    m = a @ a.T
    _, v_d = _top_eigenpair(m, method="dense")
    _, v_p = _top_eigenpair(m, method="power")
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
    with pytest.raises(AllPointsPruned):
        prune_keep(s_far, dist)
    with pytest.raises(AllPointsPruned):
        robust_chow(s_far, dist, FilterParams(eps=0.1))


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
    small = s.subset(np.arange(5))
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


def test_robust_chow_features_match_featurizing():
    dist, f, s = ltf_instance(n=6, m=8000, seed=2)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, 3)
    phi = eval_monomials_batch(dist.basis, bad.points)
    a = robust_chow(bad, dist, FilterParams(eps=0.1))
    b = robust_chow(bad, dist, FilterParams(eps=0.1), features=phi)
    assert np.array_equal(a.chi, b.chi)
    assert np.array_equal(a.keep_mask, b.keep_mask)
    with pytest.raises(DimensionMismatch):
        robust_chow(bad, dist, FilterParams(eps=0.1), features=phi[:-1])


def test_robust_chow_featurizes_once(monkeypatch):
    dist, f, s = ltf_instance(n=6, m=8000, seed=5)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, 6)
    rows = []
    real = chowfilter.eval_monomials_batch

    def counted(basis, points):
        out = real(basis, points)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(chowfilter, "eval_monomials_batch", counted)
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
    b = empirical_chow(s.subset(np.arange(1000)), dist)
    assert chow_distance(a, b) == pytest.approx(chow_distance(b, a))


def test_chow_distance_identity_sigma_is_euclidean():
    dist = hypercube_descriptor(3, 1, 0.1)
    chi_a = np.array([0.0, 0.3, 0.0, 0.0])
    chi_b = np.array([0.0, 0.0, 0.4, 0.0])
    a = ChowEstimate(chi_a, dist.basis, dist.sigma, {})
    b = ChowEstimate(chi_b, dist.basis, dist.sigma, {})
    assert chow_distance(a, b) == pytest.approx(0.5)  # sigma = identity


def test_chow_distance_basis_mismatch():
    d1 = gaussian_descriptor(3, 1, 0.1)
    d2 = gaussian_descriptor(4, 1, 0.1)
    a = ChowEstimate(np.zeros(d1.ell), d1.basis, d1.sigma, {})
    b = ChowEstimate(np.zeros(d2.ell), d2.basis, d2.sigma, {})
    with pytest.raises(BasisMismatch):
        chow_distance(a, b)


def test_recommended_sample_count_caps():
    dist = gaussian_descriptor(10, 1, 0.1)
    m = recommended_sample_count(dist, 0.1)
    assert 10_000 <= m <= 1_000_000
    d2 = gaussian_descriptor(8, 2, 0.01)
    assert recommended_sample_count(d2, 0.01) == 1_000_000  # theory scale hits the cap
