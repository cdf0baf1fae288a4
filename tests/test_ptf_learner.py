import math

import numpy as np
import pytest

from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import (ChowEstimate, _survivor_sums, chow_distance,
                                   empirical_chow, robust_chow, sample_floor)
from robustchow.distributions import gaussian_descriptor
from robustchow.errors import AllPointsPruned, ConfigError
from robustchow.harness import score
from robustchow.ltf_learner import LTF
from robustchow import ptf_learner
from robustchow.polybasis import Polynomial, enumerate_basis
from robustchow.ptf_learner import (PBF, PTF, chow_reconstruct, default_xi,
                                    learn_ptf, make_sampling_oracle)

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def sign_x1_chow(dist):
    chi = np.zeros(dist.ell)
    chi[1] = ROOT_2_OVER_PI
    return ChowEstimate(chi, dist.basis, dist, {"analytic": True})


def noiseless_oracle(dist, m=200_000, seed=999):
    def oracle(pbf):
        pts = dist.sample(m, seed)
        s = LabeledSampleSet(pts, pbf.evaluate(pts))
        return empirical_chow(s, dist)
    return oracle


# --- projection and types -----------------------------------------------------

def test_pbf_evaluate_clamp_examples():
    # the identity polynomial, so evaluate is the clamp itself
    pbf = PBF(Polynomial(enumerate_basis(1, 1), np.array([0.0, 1.0])), 0.5)
    vals = pbf.evaluate(np.array([[0.5], [-3.0], [1.0]]))
    assert vals.tolist() == [0.5, -1.0, 1.0]


def test_pbf_grid_enforced():
    b = enumerate_basis(2, 1)
    good = np.array([0.5, -0.25, 0.0])
    PBF(Polynomial(b, good), 0.5)
    bad = np.array([0.3, 0.0, 0.0])
    with pytest.raises(ValueError):
        PBF(Polynomial(b, bad), 0.5)


def test_pbf_evaluate_clamps():
    b = enumerate_basis(1, 1)
    pbf = PBF(Polynomial(b, np.array([0.0, 1.0])), 0.5)
    vals = pbf.evaluate(np.array([[0.3], [5.0], [-5.0]]))
    assert vals.tolist() == [0.3, 1.0, -1.0]


def test_ptf_sign_zero_is_plus():
    b = enumerate_basis(1, 1)
    f = PTF(Polynomial(b, np.array([0.0, 1.0])))
    assert f.evaluate(np.array([[0.0]]))[0] == 1.0


def test_ptf_rejects_zero_polynomial():
    b = enumerate_basis(1, 1)
    with pytest.raises(ValueError):
        PTF(Polynomial(b, np.zeros(2)))


def test_ptf_json_roundtrip():
    b = enumerate_basis(3, 2)
    rng = np.random.default_rng(0)
    f = PTF(Polynomial(b, rng.standard_normal(b.ell)))
    g = PTF.from_json(f.to_json())
    pts = rng.standard_normal((100, 3))
    assert np.array_equal(f.evaluate(pts), g.evaluate(pts))
    assert g.poly.basis.same_layout(b) and np.array_equal(g.poly.coeffs, f.poly.coeffs)


def test_ptf_json_multilinear_flag():
    b = enumerate_basis(3, 1, multilinear=True)
    f = PTF(Polynomial(b, np.ones(b.ell)))
    data = f.to_json()
    assert data["multilinear"] is True
    assert PTF.from_json(data).poly.basis.multilinear


# --- chow_reconstruct -----------------------------------------------------------

def test_reconstruct_stops_immediately_when_matched():
    dist = gaussian_descriptor(3, 1, 0.01)
    b = dist.basis
    xi = 0.1
    coeffs = np.zeros(b.ell)
    coeffs[1] = 0.5  # on the xi/2 grid
    pbf = PBF(Polynomial(b, coeffs), xi)
    oracle = noiseless_oracle(dist)
    target = oracle(pbf)
    out = chow_reconstruct(target, dist, xi, oracle)
    assert out.provenance["iterations"] <= 1
    final = oracle(out)
    assert chow_distance(final, target) <= 4 * xi


def test_reconstruct_zero_when_xi_huge():
    dist = gaussian_descriptor(3, 1, 0.01)
    target = sign_x1_chow(dist)
    norm_target = chow_distance(target,
                                ChowEstimate(np.zeros(dist.ell), dist.basis, dist, {}))
    xi = 2 * norm_target / 4.0 + 0.05
    out = chow_reconstruct(target, dist, min(xi, 0.99), noiseless_oracle(dist))
    assert not np.any(out.q.coeffs)
    assert out.provenance["iterations"] == 0


def test_reconstruct_sign_x1_l1_bound(monkeypatch):
    # frozen example: xi=0.05, noiseless oracle -> L1 distance <= 0.15 to
    # sign(x1).  Needs the descent driven down to the achieved-Chow-error
    # scale (~0.015), so the stopping constant is lowered to 0.3; the
    # default C_STOP_DEFAULT=4 halts at residual 0.2 where L1 is ~0.48.
    monkeypatch.setattr(ptf_learner, "C_STOP_DEFAULT", 0.3)
    dist = gaussian_descriptor(3, 1, 0.0)
    target = sign_x1_chow(dist)
    out = chow_reconstruct(target, dist, 0.05, noiseless_oracle(dist))
    pts = dist.sample(100_000, 77)
    truth = np.where(pts[:, 0] >= 0, 1.0, -1.0)
    l1 = float(np.mean(np.abs(truth - out.evaluate(pts))))
    assert l1 <= 0.15


def test_reconstruct_grid_and_weight_invariants():
    dist = gaussian_descriptor(4, 1, 0.0)
    target = sign_x1_chow(dist)
    xi = 0.1
    out = chow_reconstruct(target, dist, xi, noiseless_oracle(dist))
    ratios = out.q.coeffs / (xi / 2.0)
    assert np.allclose(ratios, np.round(ratios), atol=1e-9)
    assert np.abs(np.round(ratios)).sum() <= 4 / xi ** 2 + 16


def test_reconstruct_chow_faithfulness():
    dist = gaussian_descriptor(4, 1, 0.0)
    target = sign_x1_chow(dist)
    xi = 0.08
    oracle = noiseless_oracle(dist)
    out = chow_reconstruct(target, dist, xi, oracle)
    measured = oracle(out)
    assert chow_distance(measured, target) <= 3 * 4.0 * xi


# --- sampling oracle --------------------------------------------------------------

def test_sampling_oracle_relabels_with_hypothesis():
    # the oracle labels every point with the supplied PBF, so a label-flip
    # adversary has no effect beyond point placement
    dist = gaussian_descriptor(3, 1, 0.1)
    b = dist.basis
    coeffs = np.zeros(b.ell)
    coeffs[1] = 0.5
    pbf = PBF(Polynomial(b, coeffs), 0.5)
    oracle_flip = make_sampling_oracle(dist, 0.1, AdversaryStrategy("random_flip"),
                                       50_000, seed=4)
    oracle_none = make_sampling_oracle(dist, 0.0, AdversaryStrategy("none"),
                                       50_000, seed=4)
    est_flip = oracle_flip(pbf)
    est_none = oracle_none(pbf)
    assert chow_distance(est_flip, est_none) < 0.05


def spy_on_corrupt(monkeypatch, moved):
    """Record every sample the oracle's adversary hands back."""
    real = ptf_learner.corrupt

    def spy(*args):
        out = real(*args)
        moved.append(out)
        return out

    monkeypatch.setattr(ptf_learner, "corrupt", spy)


def test_sampling_oracle_keeps_one_clean_pool(monkeypatch):
    dist = gaussian_descriptor(3, 2, 0.05)
    coeffs = np.zeros(dist.ell)
    coeffs[1] = 0.5
    pbf = PBF(Polynomial(dist.basis, coeffs), 0.5)
    pools = []
    real_featurize = dist.featurize

    def remember(points):
        out = real_featurize(points)
        if not pools:
            pools.append((points, out))
        return out

    monkeypatch.setattr(dist, "featurize", remember)
    oracle = make_sampling_oracle(dist, 0.0, AdversaryStrategy("none"), 20_000, seed=9)
    a = oracle(pbf)
    c = oracle(pbf)
    assert np.array_equal(a.chi, c.chi)  # one pool serves every call

    moved = []
    spy_on_corrupt(monkeypatch, moved)
    pools.clear()
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), 5000, seed=2)
    oracle(pbf)
    (pts, h), = pools
    clean = real_featurize(pts)
    assert h.tobytes() == clean.tobytes()
    oracle(pbf)
    assert h.tobytes() == clean.tobytes()
    first, second = (np.flatnonzero(s.corrupted_mask) for s in moved)
    assert first.size == second.size == 250
    assert not np.array_equal(first, second)

    def fails(*args, **kwargs):
        raise RuntimeError("filter failed")

    monkeypatch.setattr(ptf_learner, "_filter", fails)
    with pytest.raises(RuntimeError):
        oracle(pbf)
    # the moved rows are swapped back even when the filter raises
    assert h.tobytes() == clean.tobytes()


def test_sampling_oracle_matches_robust_chow_on_each_moved_sample(monkeypatch):
    # The oracle corrects its pool's prune mask and Gram matrix by the moved
    # rows; a fresh robust_chow on the same moved sample is the reference.
    dist = gaussian_descriptor(3, 2, 0.05)
    m, eps = 3000, 0.05
    pools = []
    real_sample, real_featurize = dist.sample, dist.featurize

    def far_pool(count, seed):
        pts = real_sample(count, seed)
        pts[:3] = 1e4   # pool rows 0, 1 and 2 are pruned
        return pts

    def remember(points):
        out = real_featurize(points)
        if not pools:
            pools.append((points.copy(), out))
        return out

    real_corrupt = ptf_learner.corrupt
    moved = []

    def adversary(clean, f, eps_, strategy, dist_, seed):
        out = real_corrupt(clean, f, eps_, strategy, dist_, seed)
        free = np.flatnonzero(~out.corrupted_mask)[3:]
        out.points[0] = 0.25        # lands on a pruned pool row
        out.points[free[0]] = 1e4   # pruned where it lands
        out.points[free[1]] = 1e200  # its degree-2 features overflow
        out.corrupted_mask[[0, free[0], free[1]]] = True
        moved.append(out)
        return out

    real_filter = ptf_learner._filter
    sums = []

    def spy(h, labels, alive, gram, label_sum, *args):
        sums.append((alive.copy(), gram.copy(), label_sum.copy()))
        return real_filter(h, labels, alive, gram, label_sum, *args)

    monkeypatch.setattr(dist, "sample", far_pool)
    monkeypatch.setattr(dist, "featurize", remember)
    monkeypatch.setattr(ptf_learner, "corrupt", adversary)
    monkeypatch.setattr(ptf_learner, "_filter", spy)
    oracle = make_sampling_oracle(dist, eps, AdversaryStrategy("chow_attack"), m, seed=5)
    coeffs = np.zeros(dist.ell)
    coeffs[0], coeffs[1] = -0.25, 0.5
    queries = [coeffs, 2 * coeffs, np.zeros(dist.ell)]
    with np.errstate(over="ignore", invalid="ignore"):
        for q in queries:
            est = oracle(PBF(Polynomial(dist.basis, q), 0.5))
            ref = robust_chow(moved[-1], dist, ptf_learner.FilterParams(eps=eps))
            # the corrected sums are the moved sample's survivor sums
            alive, gram, label_sum = sums[-1]
            fresh = _survivor_sums(real_featurize(moved[-1].points), dist, moved[-1].labels)
            assert np.array_equal(alive, fresh[0])
            for got, want in ((gram, fresh[1]), (label_sum, fresh[2])):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(est.keep_mask, ref.keep_mask)
            for key in ("iterations", "pruned", "filtered", "degraded", "cap_reached"):
                assert est.provenance[key] == ref.provenance[key], key
            assert np.allclose(est.chi, ref.chi, rtol=0, atol=1e-12)
            assert est.keep_mask[0] and not est.keep_mask[1:3].any()
            assert est.provenance["pruned"] == 4 and est.provenance["filtered"] > 0
    (pts, h), = pools
    clean = real_featurize(pts)
    assert h.tobytes() == clean.tobytes()

    def fails(*args, **kwargs):
        raise RuntimeError("filter failed")

    monkeypatch.setattr(ptf_learner, "_filter", fails)
    with pytest.raises(RuntimeError), np.errstate(over="ignore", invalid="ignore"):
        oracle(PBF(Polynomial(dist.basis, coeffs), 0.5))
    assert h.tobytes() == clean.tobytes()


def test_sampling_oracle_draws_its_pool_once_at_build(monkeypatch):
    dist = gaussian_descriptor(3, 2, 0.05)
    draws = []
    real_sample = dist.sample

    def counted(count, seed):
        draws.append(count)
        return real_sample(count, seed)

    monkeypatch.setattr(dist, "sample", counted)
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), 3000, seed=4)
    assert draws == [3000]
    coeffs = np.zeros(dist.ell)
    coeffs[1] = 0.5
    for _ in range(3):
        oracle(PBF(Polynomial(dist.basis, coeffs), 0.5))
    assert draws == [3000]


def test_sampling_oracle_rejects_a_pool_below_the_filter_floor():
    dist = gaussian_descriptor(4, 2, 0.05)
    floor = sample_floor(dist)
    with pytest.raises(ValueError, match="at least"):
        make_sampling_oracle(dist, 0.05, AdversaryStrategy("none"), floor - 1, seed=0)
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("none"), floor, seed=0)
    coeffs = np.zeros(dist.ell)
    coeffs[1] = 0.5
    assert oracle(PBF(Polynomial(dist.basis, coeffs), 0.5)).provenance["samples_in"] == floor


def test_sampling_oracle_keeps_the_filter_input_checks(monkeypatch):
    dist = gaussian_descriptor(3, 2, 0.05)
    coeffs = np.zeros(dist.ell)
    coeffs[1] = 0.5
    pbf = PBF(Polynomial(dist.basis, coeffs), 0.5)
    real_corrupt = ptf_learner.corrupt

    def nan_adversary(*args):
        out = real_corrupt(*args)
        out.points[np.flatnonzero(out.corrupted_mask)[0], 1] = np.nan
        return out

    monkeypatch.setattr(ptf_learner, "corrupt", nan_adversary)
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), 2000, seed=1)
    with pytest.raises(ValueError, match="finite"):
        oracle(pbf)
    monkeypatch.setattr(ptf_learner, "corrupt", real_corrupt)
    monkeypatch.setattr(dist, "sample", lambda count, seed: np.full((count, 3), 1e4))
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("none"), 2000, seed=1)
    with pytest.raises(AllPointsPruned):
        oracle(pbf)


def test_learn_ptf_takes_a_zero_oracle_pool_literally():
    dist = gaussian_descriptor(3, 1, 0.0)
    pts = dist.sample(2000, 1)
    s = LabeledSampleSet(pts, np.where(pts[:, 0] >= 0, 1.0, -1.0))
    with pytest.raises(ValueError, match="at least"):
        learn_ptf(s, dist, 1, 0.0, m_oracle=0)


def test_sampling_oracle_featurizes_each_draw_once(monkeypatch):
    dist = gaussian_descriptor(4, 2, 0.05)
    m = 20_000
    budget = int(0.05 * m)
    rows = []
    real = dist.featurize

    def counted(points):
        out = real(points)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(dist, "featurize", counted)
    coeffs = np.zeros(dist.ell)
    coeffs[1] = 0.5
    coeffs[dist.basis.index_of((2, 0, 0, 0))] = 0.25
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), m, seed=3)
    pbf = PBF(Polynomial(dist.basis, coeffs), 0.5)
    ests = [oracle(pbf), oracle(pbf)]
    # the pool once and each call's moved rows once; the labels and the
    # filter both reuse the oracle's features
    assert rows == [m, budget, budget]
    assert [est.provenance["samples_in"] for est in ests] == [m, m]


def test_sampling_oracle_labels_and_features_match_its_points(monkeypatch):
    # the oracle labels in the descriptor's Hermite coordinates through
    # C^T q; labels and rows must still be those of the points it hands on
    dist = gaussian_descriptor(3, 2, 0.05)
    coeffs = np.zeros(dist.ell)
    coeffs[0], coeffs[1] = -0.25, 0.5
    coeffs[dist.basis.index_of((2, 0, 0))] = 0.25
    pbf = PBF(Polynomial(dist.basis, coeffs), 0.5)
    moved, seen = [], []
    spy_on_corrupt(monkeypatch, moved)
    real = ptf_learner._filter

    def spy(h, labels, *args):
        # the oracle swaps the pool's clean rows back after the call
        seen.append((labels.copy(), h.copy()))
        return real(h, labels, *args)

    monkeypatch.setattr(ptf_learner, "_filter", spy)
    make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), 5000, seed=2)(pbf)
    (s,), ((labels, h),) = moved, seen
    assert s.corrupted_mask.sum() == 250
    assert np.allclose(labels, pbf.evaluate(s.points), rtol=0, atol=1e-12)
    assert np.allclose(h, dist.featurize(s.points), rtol=0, atol=1e-12)


# --- default_xi --------------------------------------------------------------------

def test_default_xi_bounds():
    dist = gaussian_descriptor(8, 2, 0.05)
    assert 0.02 <= default_xi(dist, 0.05, 100_000) <= 0.5
    # floors at 0.02 once the robust and statistical terms are negligible
    assert default_xi(dist, 0.0, 10 ** 9, achieved_excess=0.0) == pytest.approx(0.02)


def test_default_xi_uses_achieved_excess():
    dist = gaussian_descriptor(8, 2, 0.05)
    loose = default_xi(dist, 0.05, 100_000)
    tight = default_xi(dist, 0.05, 100_000, achieved_excess=0.01)
    assert tight < loose


# --- learn_ptf ----------------------------------------------------------------------

def test_learn_ptf_degree_mismatch():
    dist = gaussian_descriptor(4, 2, 0.0)
    s = LabeledSampleSet(dist.sample(500, 0), np.ones(500))
    with pytest.raises(ConfigError):
        learn_ptf(s, dist, 1, 0.0)


def test_learn_ptf_planted_ltf_clean():
    dist = gaussian_descriptor(10, 1, 0.0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(10)
    v /= np.linalg.norm(v)
    f = LTF(v, 0.2)
    pts = dist.sample(100_000, 6)
    s = LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))
    out = learn_ptf(s, dist, 1, 0.0, seed=7)
    assert score(out, f, dist, 100_000, 8) <= 0.05


def test_learn_ptf_degree2_with_attack():
    dist = gaussian_descriptor(5, 2, 0.05)
    coeffs = np.zeros(dist.ell)
    coeffs[0] = -1.0
    e = [0] * 5
    e[0] = 2
    coeffs[dist.basis.index_of(tuple(e))] = 1.0
    f = PTF(Polynomial(dist.basis, coeffs))
    pts = dist.sample(60_000, 16)
    clean = LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))
    bad = corrupt(clean, f, 0.05, AdversaryStrategy("chow_attack"), dist, 17)
    out = learn_ptf(bad, dist, 2, 0.05,
                    oracle_strategy=AdversaryStrategy("chow_attack"), seed=18)
    assert score(out, f, dist, 100_000, 19) <= 0.35


def test_learn_ptf_reports_provenance(monkeypatch):
    dist = gaussian_descriptor(4, 2, 0.05)
    coeffs = np.zeros(dist.ell)
    coeffs[0] = -1.0
    coeffs[dist.basis.index_of((2, 0, 0, 0))] = 1.0
    f = PTF(Polynomial(dist.basis, coeffs))
    pts = dist.sample(20_000, 16)
    clean = LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))
    bad = corrupt(clean, f, 0.05, AdversaryStrategy("chow_attack"), dist, 17)
    calls = []
    real = ptf_learner.make_sampling_oracle

    def counting(*args):
        oracle = real(*args)

        def counted(pbf):
            calls.append(oracle(pbf))
            return calls[-1]
        return counted

    monkeypatch.setattr(ptf_learner, "make_sampling_oracle", counting)
    out = learn_ptf(bad, dist, 2, 0.05,
                    oracle_strategy=AdversaryStrategy("chow_attack"), seed=18)
    prov = out.provenance
    target = ptf_learner.robust_chow(bad, dist, ptf_learner.FilterParams(eps=0.05))
    assert prov["target"] == target.provenance
    assert prov["target"]["filtered"] > 0
    assert prov["oracle_calls"] == len(calls) == prov["iterations"] + 1
    # each oracle estimate's filter record, in call order
    keys = ("iterations", "pruned", "filtered", "degraded", "cap_reached")
    assert prov["oracle_filters"] == [{k: est.provenance[k] for k in keys} for est in calls]
    assert any(entry["filtered"] > 0 for entry in prov["oracle_filters"])
    assert isinstance(prov["stalled"], bool) and isinstance(prov["cap_reached"], bool)
    assert math.isfinite(prov["final_residual"])
    # the record rides along: it is not part of equality or the JSON form
    assert out == PTF(out.poly)
    assert "provenance" not in out.to_json()


def test_pbf_to_ptf_halving_property():
    # pointwise: 1{sign(q) != f} <= |f - P_1(q)|, so the Monte-Carlo means obey it
    dist = gaussian_descriptor(4, 1, 0.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    f = LTF(v, 0.1)
    coeffs = np.round(rng.standard_normal(dist.ell) / 0.05) * 0.05
    pbf = PBF(Polynomial(dist.basis, coeffs), 0.1)
    pts = dist.sample(100_000, 4)
    truth = f.evaluate(pts)
    signs = np.where(pbf.margin(pts) >= 0, 1.0, -1.0)
    disagree = float(np.mean(signs != truth))
    l1 = float(np.mean(np.abs(truth - pbf.evaluate(pts))))
    assert disagree <= l1 + 1e-12
