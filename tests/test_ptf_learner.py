import math

import numpy as np
import pytest

from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import ChowEstimate, chow_distance, empirical_chow
from robustchow.distributions import gaussian_descriptor
from robustchow.errors import ConfigError
from robustchow.harness import score
from robustchow.ltf_learner import LTF
from robustchow import adversary, chowfilter, polybasis, ptf_learner
from robustchow.polybasis import Polynomial, enumerate_basis
from robustchow.ptf_learner import (PBF, PTF, chow_reconstruct, default_xi,
                                    learn_ptf, make_sampling_oracle,
                                    project_p1)

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def sign_x1_chow(dist):
    chi = np.zeros(dist.ell)
    chi[1] = ROOT_2_OVER_PI
    return ChowEstimate(chi, dist.basis, dist.sigma, {"analytic": True})


def noiseless_oracle(dist, m=200_000, seed=999):
    def oracle(pbf):
        pts = dist.sample(m, seed)
        s = LabeledSampleSet(pts, pbf.evaluate(pts))
        return empirical_chow(s, dist)
    return oracle


# --- projection and types -----------------------------------------------------

def test_project_p1_examples():
    assert project_p1(0.5) == 0.5
    assert project_p1(-3.0) == -1.0
    assert project_p1(1.0) == 1.0


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
                                ChowEstimate(np.zeros(dist.ell), dist.basis, dist.sigma, {}))
    xi = 2 * norm_target / 4.0 + 0.05
    out = chow_reconstruct(target, dist, min(xi, 0.99), noiseless_oracle(dist))
    assert not np.any(out.q.coeffs)
    assert out.provenance["iterations"] == 0


def test_reconstruct_sign_x1_l1_bound():
    # frozen example: xi=0.05, noiseless oracle -> L1 distance <= 0.15 to
    # sign(x1).  Needs the descent driven down to the achieved-Chow-error
    # scale (~0.015), so the stopping constant is passed explicitly; the
    # default c_stop=4 halts at residual 0.2 where L1 is ~0.48.
    dist = gaussian_descriptor(3, 1, 0.0)
    target = sign_x1_chow(dist)
    out = chow_reconstruct(target, dist, 0.05, noiseless_oracle(dist), c_stop=0.3)
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
    assert np.abs(out.integer_weights).sum() <= 4 / xi ** 2 + 16


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


def test_sampling_oracle_fresh_batches():
    dist = gaussian_descriptor(3, 1, 0.0)
    b = dist.basis
    coeffs = np.zeros(b.ell)
    coeffs[1] = 0.5
    pbf = PBF(Polynomial(b, coeffs), 0.5)
    oracle = make_sampling_oracle(dist, 0.0, AdversaryStrategy("none"), 20_000, seed=9)
    a = oracle(pbf)
    c = oracle(pbf)
    assert not np.array_equal(a.chi, c.chi)  # new draw every call


def test_sampling_oracle_featurizes_each_draw_once(monkeypatch):
    dist = gaussian_descriptor(4, 2, 0.05)
    m = 20_000
    budget = int(0.05 * m)
    rows = []
    real = polybasis.eval_monomials_batch

    def counted(basis, points):
        out = real(basis, points)
        rows.append(out.shape[0])
        return out

    for module in (polybasis, adversary, chowfilter, ptf_learner):
        monkeypatch.setattr(module, "eval_monomials_batch", counted)
    coeffs = np.zeros(dist.ell)
    coeffs[1] = 0.5
    oracle = make_sampling_oracle(dist, 0.05, AdversaryStrategy("chow_attack"), m, seed=3)
    est = oracle(PBF(Polynomial(dist.basis, coeffs), 0.5))
    # the draw once, the moved rows once, and otherwise only the single rows
    # of the adversary's bisection; the filter reuses the oracle's features
    assert rows.count(m) == 1 and rows.count(budget) == 1
    assert len(rows) > 2 and all(r == 1 for r in rows if r not in (m, budget))
    assert sum(rows) == m + budget + (len(rows) - 2)
    assert est.provenance["samples_in"] == m


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
