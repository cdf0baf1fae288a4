import math
import tracemalloc

import numpy as np
import pytest

from feature_rows import feature_rows

from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import (ChowEstimate, _survivor_sums, chow_distance,
                                   empirical_chow, robust_chow, sample_floor)
from robustchow.distributions import (gaussian_descriptor, hypercube_descriptor,
                                      log_concave_descriptor)
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


def stretched_descriptor():
    """n = 1, d = 1 with Sigma = 400 I: Sigma^{-1/2} = I / 20 makes each
    update 20 times smaller than the whitened residual, so grid rounding
    can swallow a step whose residual sits far above the stop level."""
    return log_concave_descriptor(1, 1, 400.0 * np.eye(2), 0.0, 0.01)


def scripted_oracle(dist, answers):
    """An oracle that returns the given Chow vectors in turn, the last one
    from then on, and records each query."""
    calls = []

    def oracle(pbf):
        calls.append(pbf)
        chi = answers[min(len(calls), len(answers)) - 1]
        return ChowEstimate(np.asarray(chi, dtype=np.float64), dist.basis, dist,
                            {"answer": len(calls)})
    return oracle, calls


@pytest.mark.parametrize("xi, target, answers, iterations, stalled, cap_reached, x", [
    # residual 0.49 > 4 xi, but the update, 0.0175 per coordinate, is under
    # half a grid step (0.025): no move can lower the potential
    (0.1, [7.0, 7.0], [[0.0, 0.0]], 0, True, False, 0.0),
    # the update +0.04 nudges x up one step; the next answer turns it to
    # -0.04, which would undo that nudge
    (0.1, [0.0, 0.0], [[0.0, -16.0], [0.0, 16.0]], 1, True, False, 0.05),
    # the residual stays at 3.8 > 4 xi and every update, +0.19, nudges x one
    # more step up, until the cap int(4 / xi^2 + 16) = 32
    (0.5, [0.0, 38.0], [[0.0, -38.0]], 32, False, True, 8.0),
])
def test_reconstruct_exits_on_stall_and_cap(xi, target, answers, iterations, stalled,
                                            cap_reached, x):
    dist = stretched_descriptor()
    oracle, calls = scripted_oracle(dist, answers)
    out = chow_reconstruct(ChowEstimate(np.asarray(target), dist.basis, dist), dist, xi,
                           oracle)
    prov = out.provenance
    assert (prov["iterations"], prov["stalled"], prov["cap_reached"]) == (
        iterations, stalled, cap_reached)
    assert prov["final_residual"] > ptf_learner.C_STOP_DEFAULT * xi
    assert prov["oracle_calls"] == iterations + 1 == len(calls)
    assert prov["oracle_filters"] == [{"answer": i + 1} for i in range(len(calls))]
    # x's coefficient, after as many one-step nudges as iterations
    assert out.q.coeffs.tolist() == [0.0, x]


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


def spy_on_moved_rows(monkeypatch, moved):
    """Record the rows the oracle's adversary moves on each call, with the
    moved sample: the pool's points with those rows put in place."""
    real = ptf_learner.corrupted_rows

    def spy(clean, *args):
        idx, points, labels = real(clean, *args)
        sample = clean.points.copy()
        sample[idx] = points
        moved.append((idx, sample))
        return idx, points, labels

    monkeypatch.setattr(ptf_learner, "corrupted_rows", spy)


def test_sampling_oracle_keeps_one_clean_pool(monkeypatch):
    dist = gaussian_descriptor(3, 2, 0.05)
    coeffs = np.zeros(dist.ell)
    coeffs[1] = 0.5
    pbf = PBF(Polynomial(dist.basis, coeffs), 0.5)
    pools = []
    real_sample = dist.sample

    def remember(count, seed):
        pools.append(real_sample(count, seed))
        return pools[-1]

    monkeypatch.setattr(dist, "sample", remember)
    oracle = make_sampling_oracle(dist, 0.0, AdversaryStrategy("none"), 20_000, seed=9)
    a = oracle(pbf)
    c = oracle(pbf)
    assert np.array_equal(a.chi, c.chi)  # one pool serves every call

    moved = []
    spy_on_moved_rows(monkeypatch, moved)
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), 5000, seed=2)
    pts = pools[-1]
    clean = pts.copy()
    oracle(pbf)
    assert pts.tobytes() == clean.tobytes()
    oracle(pbf)
    assert pts.tobytes() == clean.tobytes()
    first, second = (idx for idx, _ in moved)
    assert first.size == second.size == 250
    assert not np.array_equal(first, second)

    def fails(*args, **kwargs):
        raise RuntimeError("filter failed")

    monkeypatch.setattr(ptf_learner, "_filter", fails)
    with pytest.raises(RuntimeError):
        oracle(pbf)
    # the moved points are swapped back even when the filter raises
    assert pts.tobytes() == clean.tobytes()


def test_sampling_oracle_matches_robust_chow_on_each_moved_sample(monkeypatch):
    # The oracle corrects its pool's prune mask and Gram matrix by the moved
    # rows; a fresh robust_chow on the same moved sample is the reference.
    dist = gaussian_descriptor(3, 2, 0.05)
    m, eps = 3000, 0.05
    pools = []
    real_sample = dist.sample

    def far_pool(count, seed):
        pts = real_sample(count, seed)
        pts[:3] = 1e4   # pool rows 0, 1 and 2 are pruned
        pools.append(pts.copy())
        return pts

    real_rows = ptf_learner.corrupted_rows
    moved = []

    def adversary(clean, f, eps_, strategy, dist_, seed):
        idx, points, labels = real_rows(clean, f, eps_, strategy, dist_, seed)
        sample = clean.points.copy()
        sample[idx] = points
        mask = np.zeros(len(clean), dtype=bool)
        mask[idx] = True
        free = np.flatnonzero(~mask)[3:]
        sample[0] = 0.25        # lands on a pruned pool row
        sample[free[0]] = 1e4   # pruned where it lands
        sample[free[1]] = 1e200  # its degree-2 features overflow
        mask[[0, free[0], free[1]]] = True
        moved.append(sample)
        idx = np.flatnonzero(mask)
        return idx, sample[idx], np.ones(idx.size)   # the oracle relabels them

    real_filter = ptf_learner._filter
    sums = []

    def spy(tiles, labels, alive, norm2, gram, label_sum, *args):
        sums.append((tiles.args[0], alive.copy(), norm2.copy(), gram.copy(),
                     label_sum.copy(), labels.copy()))
        return real_filter(tiles, labels, alive, norm2, gram, label_sum, *args)

    monkeypatch.setattr(dist, "sample", far_pool)
    monkeypatch.setattr(ptf_learner, "corrupted_rows", adversary)
    monkeypatch.setattr(ptf_learner, "_filter", spy)
    oracle = make_sampling_oracle(dist, eps, AdversaryStrategy("chow_attack"), m, seed=5)
    coeffs = np.zeros(dist.ell)
    coeffs[0], coeffs[1] = -0.25, 0.5
    queries = [coeffs, 2 * coeffs, np.zeros(dist.ell)]
    with np.errstate(over="ignore", invalid="ignore"):
        for q in queries:
            est = oracle(PBF(Polynomial(dist.basis, q), 0.5))
            pool, alive, norm2, gram, label_sum, labels = sums[-1]
            sample = LabeledSampleSet(moved[-1], np.zeros(m))
            sample.labels = labels   # the oracle's; a pruned row's may be NaN
            ref = robust_chow(sample, dist, ptf_learner.FilterParams(eps=eps))
            # the corrected sums are the moved sample's survivor sums; the
            # label sum comes from the Gram matrix, so it agrees to rounding
            fresh = _survivor_sums(dist.feature_tiles(sample.points), dist, labels)
            assert np.array_equal(alive, fresh[0])
            assert np.array_equal(norm2, fresh[1], equal_nan=True)
            for got, want in ((gram, fresh[2]), (label_sum, fresh[3])):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(est.keep_mask, ref.keep_mask)
            for key in ("iterations", "pruned", "filtered", "degraded", "cap_reached"):
                assert est.provenance[key] == ref.provenance[key], key
            assert np.allclose(est.chi, ref.chi, rtol=0, atol=1e-12)
            assert est.keep_mask[0] and not est.keep_mask[1:3].any()
            assert est.provenance["pruned"] == 4 and est.provenance["filtered"] > 0
            # the pool's clean points are back in place after each call
            assert pool.tobytes() == pools[0].tobytes()

    def fails(*args, **kwargs):
        raise RuntimeError("filter failed")

    monkeypatch.setattr(ptf_learner, "_filter", fails)
    with pytest.raises(RuntimeError), np.errstate(over="ignore", invalid="ignore"):
        oracle(PBF(Polynomial(dist.basis, coeffs), 0.5))
    assert pool.tobytes() == pools[0].tobytes()


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
    floor = sample_floor(dist.ell)
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
    real_rows = ptf_learner.corrupted_rows

    def nan_adversary(*args):
        idx, points, labels = real_rows(*args)
        points = points.copy()
        points[0, 1] = np.nan
        return idx, points, labels

    monkeypatch.setattr(ptf_learner, "corrupted_rows", nan_adversary)
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), 2000, seed=1)
    with pytest.raises(ValueError, match="finite"):
        oracle(pbf)
    monkeypatch.setattr(ptf_learner, "corrupted_rows", real_rows)
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


def test_sampling_oracle_featurizes_the_pool_once_then_only_the_rows_it_reads(monkeypatch):
    dist = gaussian_descriptor(4, 2, 0.05)
    m = 20_000
    budget = int(0.05 * m)
    streamed = []
    real_tiles = dist.feature_tiles

    def feature_tiles(points, rows=None):
        streamed.append(len(points) if rows is None else len(rows))
        return real_tiles(points, rows)

    monkeypatch.setattr(dist, "feature_tiles", feature_tiles)
    coeffs = np.zeros(dist.ell)
    coeffs[1] = 0.5
    coeffs[dist.basis.index_of((2, 0, 0, 0))] = 0.25
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), m, seed=3)
    pbf = PBF(Polynomial(dist.basis, coeffs), 0.5)
    # the pool streams once, at build
    assert streamed == [m]
    for _ in range(2):
        streamed.clear()
        est = oracle(pbf)
        prov = est.provenance
        assert prov["samples_in"] == m
        # streamed: the moved rows' old points, which leave the sums, and
        # their new ones; the clipped survivors (|q| > 1 for about 10% of
        # the pool here, and at the attack point); each scoring pass's
        # candidates, then its cut rows, which leave the sums
        assert streamed[:2] == [budget, budget] and budget < streamed[2] < m // 5
        assert streamed[3:] == [r for p in prov["passes"] for r in (p["scored"], p["removed"])
                                if r]
        assert sum(p["removed"] for p in prov["passes"]) == prov["filtered"] > 0
        assert 0 < max(streamed[3:]) < m // 4


def test_sampling_oracle_labels_and_features_match_its_points(monkeypatch):
    # the oracle labels by q itself, clip(q(x)); labels and rows must be
    # those of the points it hands on, bit for bit, gathered rows included
    dist = gaussian_descriptor(3, 2, 0.05)
    coeffs = np.zeros(dist.ell)
    coeffs[0], coeffs[1] = -0.25, 0.5
    coeffs[dist.basis.index_of((2, 0, 0))] = 0.25
    pbf = PBF(Polynomial(dist.basis, coeffs), 0.5)
    moved, seen = [], []
    spy_on_moved_rows(monkeypatch, moved)
    real = ptf_learner._filter

    def spy(tiles, labels, *args):
        # the oracle swaps the pool's clean points back after the call
        sample = tiles.args[0]
        h = np.concatenate([block.copy() for _, block in tiles()], axis=1).T
        odd = np.arange(1, len(sample), 2)
        h_odd = np.concatenate([block.copy() for _, block in tiles(odd)], axis=1).T
        seen.append((sample.copy(), labels.copy(), h, h_odd))
        return real(tiles, labels, *args)

    monkeypatch.setattr(ptf_learner, "_filter", spy)
    make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), 5000, seed=2)(pbf)
    ((idx, points),), ((sample, labels, h, h_odd),) = moved, seen
    assert idx.size == 250
    assert np.array_equal(sample, points)
    assert np.array_equal(labels, pbf.evaluate(points))
    assert np.array_equal(h, feature_rows(dist, points))
    assert np.array_equal(h_odd, h[1::2])


@pytest.mark.parametrize("family", ["gaussian", "hypercube", "uniform cube"])
def test_sampling_oracle_label_sum_is_the_direct_sum(monkeypatch, family):
    # The oracle sums the survivors' labels as gram w less the clipped
    # survivors' h(x) (q(x) - clip(q(x))), with w = C^T q. Against the
    # direct sum of clip(q(x)) h(x) over the survivors, entry i agrees to
    # 1e-13 of sum_x |h_i(x)| (|h(x)| . |w|), the size of the terms gram w
    # adds up: a moved cluster far out in whitened coordinates (the uniform
    # cube's sits at norm ~22,000) cancels most of its q(x) against its
    # clip, and the sum keeps that rounding (1.7e-11 of its largest entry
    # there, 1e-14 on the Gaussian). Queries are a sparse and a dense q,
    # moved rows are clipped and, off the hypercube, dropped by the prune.
    dist = {"gaussian": lambda: gaussian_descriptor(3, 2, 0.05),
            "hypercube": lambda: hypercube_descriptor(4, 2, 0.05),
            "uniform cube": lambda: uniform_cube_descriptor(3, 2, 0.05)}[family]()
    real_rows, real_filter = ptf_learner.corrupted_rows, ptf_learner._filter
    moved, sums = [], []

    def adversary(clean, f, eps, strategy, dist_, seed):
        idx, points, labels = real_rows(clean, f, eps, strategy, dist_, seed)
        if family != "hypercube":
            points = points.copy()
            points[:5] = 1e4   # pruned where they land
        moved.append(idx)
        return idx, points, labels

    def spy(tiles, labels, alive, norm2, gram, label_sum, *args):
        sums.append((tiles.args[0].copy(), labels.copy(), alive.copy(), label_sum.copy()))
        return real_filter(tiles, labels, alive, norm2, gram, label_sum, *args)

    monkeypatch.setattr(ptf_learner, "corrupted_rows", adversary)
    monkeypatch.setattr(ptf_learner, "_filter", spy)
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack", rho=0.9),
                                  5000, seed=3)
    sparse = np.zeros(dist.ell)
    sparse[0], sparse[1] = -0.25, 1.5
    dense = np.round(np.random.default_rng(4).standard_normal(dist.ell) * 2.0) * 0.25
    dense[dense == 0.0] = 0.25
    moved_clipped = []
    for coeffs in (sparse, dense):
        pbf = PBF(Polynomial(dist.basis, coeffs), 0.5)
        oracle(pbf)
        points, labels, alive, label_sum = sums[-1]
        is_moved = np.isin(np.arange(len(points)), moved[-1])
        clipped = alive & (np.abs(pbf.margin(points)) > 1.0)
        moved_clipped.append(clipped[is_moved].any())
        assert clipped[~is_moved].any()
        assert (family == "hypercube") == alive[is_moved].all()
        h = feature_rows(dist, points[alive])
        direct = labels[alive] @ h
        scale = np.abs(h).T @ (np.abs(h) @ np.abs(dist.monomial_map().T @ coeffs))
        assert (np.abs(label_sum - direct) <= 1e-13 * scale).all()
    assert any(moved_clipped)


def test_sampling_oracle_stores_no_feature_matrix(monkeypatch):
    # building the oracle and one call stream the pool's features and keep
    # none: the (m, ell) matrix would take m * ell * 8 = 14.4 MB here, and
    # both peak below a quarter of it. The pool points (m * n * 8 bytes) are
    # the oracle's input and are drawn before tracing. At m = 2e4 the peak
    # reads about 0.28 of the matrix: one tile buffer with its factor table
    # and gather buffer is 1.1 MB whatever m is.
    dist = gaussian_descriptor(8, 2, 0.05)
    dist.monomial_map()
    m = 40_000
    pool = dist.sample(m, 3)
    monkeypatch.setattr(dist, "sample", lambda count, seed: pool)
    coeffs = np.zeros(dist.ell)
    coeffs[0] = -0.5
    coeffs[dist.basis.index_of((2,) + (0,) * 7)] = 0.5
    tracemalloc.start()
    try:
        oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), m, seed=3)
        est = oracle(PBF(Polynomial(dist.basis, coeffs), 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * dist.ell * 8 / 4
    assert est.provenance["filtered"] > 0 and est.provenance["passes"][0]["scored"] < m // 4


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
    # each oracle estimate's whole filter record, in call order
    assert prov["oracle_filters"] == [est.provenance for est in calls]
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


# --- a non-Gaussian leg: the uniform law on a cube, through a moment table -------

SQRT3 = math.sqrt(3.0)


def uniform_cube_descriptor(n, d, eps, gamma=0.0):
    """The uniform law on [-sqrt(3), sqrt(3)]^n (mean 0, unit variance), a
    log-concave law, described by its closed-form moment table: coordinates
    are independent with E[x^p] = 3^(p/2) / (p + 1) for even p and 0 for odd
    p. gamma > 0 perturbs the table by D M D with D = diag(sqrt(1 + gamma u)),
    u in [-1, 1], so every entry is off by a relative error of at most gamma
    and the table stays PSD."""
    basis = enumerate_basis(n, d)
    p = basis.exponents[:, None, :] + basis.exponents[None, :, :]
    table = np.where(p % 2 == 0, 3.0 ** (p / 2) / (p + 1), 0.0).prod(axis=2)
    if gamma:
        scale = np.sqrt(1.0 + gamma * np.random.default_rng(11).uniform(-1, 1, basis.ell))
        table = scale[:, None] * table * scale[None, :]
    return log_concave_descriptor(n, d, table, gamma, eps,
                                  sampler=lambda count, rng: rng.uniform(-SQRT3, SQRT3,
                                                                         (count, n)))


def uniform_cube_instance(gamma, seed, m=20_000, eps=0.05):
    """sign(x1^2 - 0.8) on the uniform cube at n = 6, d = 2, with a rho = 0.9
    chow_attack cluster. At eps = 0.05 the default constants give delta ~
    34,178 and T_max ~ 35,348, so the paper's guarantee is vacuous at this m;
    the checks below are what the filter and the learner do in practice."""
    dist = uniform_cube_descriptor(6, 2, eps, gamma)
    assert round(dist.delta) == 34_178 and round(dist.t_max) == 35_348
    coeffs = np.zeros(dist.ell)
    coeffs[0] = -0.8
    coeffs[dist.basis.index_of((2, 0, 0, 0, 0, 0))] = 1.0
    plant = PTF(Polynomial(dist.basis, coeffs))
    pts = dist.sample(m, seed)
    clean = LabeledSampleSet(pts, plant.evaluate(pts))
    bad = corrupt(clean, plant, eps, AdversaryStrategy("chow_attack", rho=0.9), dist, seed + 100)
    return dist, plant, bad


@pytest.mark.parametrize("gamma", [0.0, 0.05])
def test_uniform_cube_filter_removes_the_attack_cluster(gamma):
    for seed in (1, 2):
        dist, _, bad = uniform_cube_instance(gamma, seed)
        est = robust_chow(bad, dist, ptf_learner.FilterParams(eps=0.05))
        assert not (est.keep_mask & bad.corrupted_mask).any()
        assert est.keep_mask[~bad.corrupted_mask].all()


@pytest.mark.parametrize("gamma", [0.0, 0.05])
def test_uniform_cube_learn_ptf(gamma):
    for seed in (1, 2):
        dist, plant, bad = uniform_cube_instance(gamma, seed)
        hyp = learn_ptf(bad, dist, 2, 0.05, seed=seed,
                        oracle_strategy=AdversaryStrategy("chow_attack", rho=0.9))
        assert score(hyp, plant, dist, 100_000, 5) <= 0.1
