import math

import numpy as np
import pytest
from scipy.stats import norm

from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import ChowEstimate
from robustchow.distributions import EPS_FLOOR, gaussian_descriptor
from robustchow.errors import ZeroChowVector
from robustchow import ltf_learner
from robustchow.harness import make_corrupted_source, score
from robustchow.ltf_learner import (LTF, LTFConfig, RejectionParams,
                                    _rejection_mask, _whiten_accepted,
                                    constant_ltf, estimate_threshold, learn_ltf,
                                    recover_ab, refine_extreme, refine_moderate,
                                    weak_learn_ltf)


def plant(n=8, theta=0.4, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return LTF(v, theta)


def clean_set(f, dist, m, seed):
    pts = dist.sample(m, seed)
    return LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))


# --- LTF type --------------------------------------------------------------

def test_ltf_unit_norm_enforced():
    with pytest.raises(ValueError):
        LTF(np.array([1.0, 1.0]), 0.0)


def test_ltf_evaluate_sign_zero_positive():
    f = LTF(np.array([1.0, 0.0]), 0.0)
    assert f.evaluate(np.array([[0.0, 3.0]]))[0] == 1.0


def test_ltf_json_roundtrip():
    f = plant(5, -0.7, 3)
    g = LTF.from_json(f.to_json())
    assert np.allclose(g.v, f.v)
    assert g.theta == f.theta


def test_constant_ltf():
    c = constant_ltf(4, 1)
    assert c.theta == ltf_learner.CONSTANT_THETA
    pts = np.random.default_rng(0).standard_normal((50, 4))
    assert (c.evaluate(pts) == 1.0).all()
    neg = constant_ltf(4, -1)
    assert (neg.evaluate(pts) == -1.0).all()
    # the two constants are negatives of each other, as learn_ltf's output is
    assert np.array_equal(neg.v, -c.v) and neg.theta == -c.theta


# --- threshold estimation ----------------------------------------------------

def test_estimate_threshold_symmetry():
    pts = np.zeros((4, 1))
    s = LabeledSampleSet(pts, np.array([1.0, -1.0, 1.0, -1.0]))
    assert estimate_threshold(s) == pytest.approx(0.0)


def test_estimate_threshold_phi_inverse():
    # label mean 2 Phi(1) - 1 must invert to exactly 1.0
    mean = 2 * norm.cdf(1.0) - 1
    m = 200_000
    n_pos = round((mean + 1) / 2 * m)
    labels = np.concatenate([np.ones(n_pos), -np.ones(m - n_pos)])
    s = LabeledSampleSet(np.zeros((m, 1)), labels)
    assert estimate_threshold(s) == pytest.approx(1.0, abs=1e-4)


def test_estimate_threshold_clamps_degenerate():
    s = LabeledSampleSet(np.zeros((10, 1)), np.ones(10))
    val = estimate_threshold(s)
    assert math.isfinite(val)
    assert val == pytest.approx(norm.ppf(1 - 5e-10))


# --- rejection sampling ------------------------------------------------------

def test_rejection_acceptance_at_zero_margin():
    rp = RejectionParams(np.array([1.0, 0.0]), 0.0, 0.5)
    acc = rp.acceptance(np.array([[0.0, 7.0]]))
    assert acc[0] == pytest.approx(1.0)


def test_rejection_rate_formula():
    # expected rate sigma * exp(-theta^2 / (2 (1 - sigma^2)))
    rp = RejectionParams(np.array([1.0, 0.0]), 0.8, 0.6)
    oracle = 0.6 * math.exp(-0.64 / (2 * (1 - 0.36)))
    assert rp.expected_rate() == pytest.approx(oracle)


@pytest.mark.parametrize("theta,sigma", [(0.0, 0.5), (0.7, 0.4), (-0.5, 0.7)])
def test_rejection_empirical_rate_and_moments(theta, sigma):
    n = 4
    rng = np.random.default_rng(11)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rp = RejectionParams(v, theta, sigma)
    m = 200_000
    pts = np.random.default_rng(5).standard_normal((m, n))
    acc = pts[_rejection_mask(pts, rp, np.random.default_rng(17))]
    rate = len(acc) / m
    expect = rp.expected_rate()
    se = math.sqrt(expect * (1 - expect) / m)
    assert abs(rate - expect) < 4 * se
    # accepted law along v: N(-theta, sigma^2)
    t = acc @ v
    assert abs(t.mean() + theta) < 5 * sigma / math.sqrt(len(acc))
    assert t.var() == pytest.approx(sigma ** 2, rel=0.1)
    # orthogonal directions stay standard
    w = np.zeros(n)
    w[np.argmin(np.abs(v))] = 1.0
    w = w - (w @ v) * v
    w /= np.linalg.norm(w)
    u = acc @ w
    assert abs(u.mean()) < 5 / math.sqrt(len(acc))
    assert u.var() == pytest.approx(1.0, rel=0.1)


def test_whiten_accepted_restores_identity_covariance():
    n = 3
    v = np.array([1.0, 0.0, 0.0])
    rp = RejectionParams(v, 0.5, 0.5)
    pts = np.random.default_rng(3).standard_normal((400_000, n))
    acc = pts[_rejection_mask(pts, rp, np.random.default_rng(4))]
    white = _whiten_accepted(acc, rp)
    cov = np.cov(white.T)
    assert np.allclose(cov, np.eye(n), atol=0.05)
    assert np.allclose(white.mean(axis=0), 0.0, atol=0.05)


def test_rejection_sigma_range_enforced():
    with pytest.raises(ValueError):
        RejectionParams(np.array([1.0]), 0.0, 1.0)


# --- localization algebra ----------------------------------------------------

def test_recover_ab_inverts_forward_map():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.uniform(0.05, 1.0)
        b = math.sqrt(1 - a * a) * rng.uniform(0.0, 0.99)
        a = math.sqrt(1 - b * b)
        sigma = rng.uniform(0.05, 0.95)
        c_perp = b / math.sqrt((a * sigma) ** 2 + b ** 2)
        a_hat, b_hat = recover_ab(c_perp, sigma)
        assert a_hat == pytest.approx(a, abs=1e-9)
        assert b_hat == pytest.approx(b, abs=1e-9)


def test_recover_ab_zero_misalignment():
    a, b = recover_ab(0.0, 0.5)
    assert (a, b) == (1.0, 0.0)


# --- weak learner ------------------------------------------------------------

def test_weak_learner_exact_chow_inversion():
    # supply data whose empirical Chow is exactly (0, sqrt(2/pi) e1):
    # the degree-1 block must invert to v = e1, theta = 0
    dist = gaussian_descriptor(6, 1, 0.01)
    f = LTF(np.eye(6)[0], 0.0)
    s = clean_set(f, dist, 100_000, 8)
    out = weak_learn_ltf(s, dist, 0.0)
    assert abs(out.theta) < 0.02
    assert float(out.v @ f.v) > 0.999


def test_weak_learner_planted_clean():
    dist = gaussian_descriptor(20, 1, 0.0)
    f = plant(20, 0.5, 4)
    s = clean_set(f, dist, 100_000, 5)
    out = weak_learn_ltf(s, dist, 0.0)
    assert score(out, f, dist, 100_000, 6) <= 0.03


def test_weak_learner_under_attack():
    dist = gaussian_descriptor(10, 1, 0.1)
    f = plant(10, 0.3, 7)
    s = clean_set(f, dist, 50_000, 9)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, 10)
    out = weak_learn_ltf(bad, dist, 0.1)
    # O(eps sqrt(log 1/eps)) scale: generous cap 5 * 0.1 * sqrt(log 10)
    assert score(out, f, dist, 100_000, 11) <= 5 * 0.1 * math.sqrt(math.log(10))


def test_weak_learner_constant_target():
    dist = gaussian_descriptor(5, 1, 0.01)
    f = constant_ltf(5, 1)
    s = clean_set(f, dist, 20_000, 1)
    out = weak_learn_ltf(s, dist, 0.01)
    pts = dist.sample(1000, 2)
    assert (out.evaluate(pts) == 1.0).all()


def test_weak_learner_exactly_zero_chow_vector():
    # every sign pattern of {-1, 1}^3, ten times over, all labelled +1:
    # sum_i y_i x_i is exactly 0, so there is no direction to normalize
    cube = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T
    pts = np.tile(cube, (10, 1))
    s = LabeledSampleSet(pts, np.ones(len(pts)))
    with pytest.raises(ZeroChowVector, match="exactly zero"):
        weak_learn_ltf(s, gaussian_descriptor(3, 1, 0.01), 0.01)


# --- refinement stages ---------------------------------------------------------

@pytest.fixture
def small_config(monkeypatch):
    """Smaller budgets; the accept targets are ltf_learner constants."""
    monkeypatch.setattr(ltf_learner, "ACCEPT_TARGET", 12_000)
    monkeypatch.setattr(ltf_learner, "EXTREME_ACCEPT_TARGET", 2_000)
    return LTFConfig(batch_cap=120_000, extreme_batch_cap=60_000, holdout_size=6_000)


def test_refine_moderate_improves_direction(small_config):
    n = 8
    dist = gaussian_descriptor(n, 1, 0.01)
    f = plant(n, 0.4, 12)
    source = make_corrupted_source(f, dist, 0.0, AdversaryStrategy("none"))
    # start from a slightly wrong direction
    rng = np.random.default_rng(13)
    v0 = f.v + 0.15 * rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    u_new = refine_moderate(source, v0, f.theta, 0.3, 0.01, seed=14,
                            config=small_config)
    v_new = u_new / np.linalg.norm(u_new)
    assert float(v_new @ f.v) > float(v0 @ f.v)  # alignment improved
    # u = 2 phi(theta) (a v_prev + b w) with a^2 + b^2 = 1 and w _|_ v_prev
    assert np.linalg.norm(u_new) == pytest.approx(2 * norm.pdf(f.theta), rel=1e-9)


def test_refine_extreme_runs_and_returns_state(small_config):
    n = 5
    dist = gaussian_descriptor(n, 1, 0.005)
    f = plant(n, 2.2, 21)
    source = make_corrupted_source(f, dist, 0.0, AdversaryStrategy("none"))
    u0 = 2 * norm.pdf(2.2) * f.v
    u_cand = refine_extreme(source, 2.2, 0.005, u0, seed=3, config=small_config)
    assert np.isfinite(u_cand).all()
    assert np.linalg.norm(u_cand) == pytest.approx(2 * norm.pdf(2.2), rel=1e-9)


def never_called(m, seed):
    raise AssertionError("samples were drawn where none should be")


@pytest.mark.parametrize("delta_prev", [0.0, -0.1, 1.5, math.nan])
def test_refine_moderate_rejects_delta_prev_out_of_range(delta_prev):
    with pytest.raises(ValueError, match="delta_prev"):
        refine_moderate(never_called, np.r_[1.0, 0.0], 0.4, delta_prev, 0.01,
                        seed=0, config=LTFConfig())


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan])
def test_refine_extreme_rejects_nonpositive_theta(theta):
    with pytest.raises(ValueError, match="theta > 0"):
        refine_extreme(never_called, theta, 0.01, np.r_[0.1, 0.0], seed=0,
                       config=LTFConfig())


def _delta_after_step(delta, eps_eff):
    return ltf_learner.LOOP_C * eps_eff * math.sqrt(max(1.0, math.log(delta / eps_eff)))


def test_delta_recursion_allows_at_most_one_step():
    """learn_ltf localizes only while the recursion halves the bound: once
    below eps_eff = 0.2, never from 0.2 up, and never a second time."""
    grid = np.concatenate([[0.0], np.geomspace(1e-12, 0.01, 400),
                           np.linspace(0.01, 1 / 3, 4000, endpoint=False), [0.2]])
    for eps in grid:
        eps_eff = max(float(eps), EPS_FLOOR)
        delta0 = min(ltf_learner.DELTA0_CAP, ltf_learner.WEAK_C * eps_eff
                     * math.sqrt(max(1.0, math.log(1.0 / eps_eff))))
        delta1 = _delta_after_step(delta0, eps_eff)
        assert (delta1 < delta0 / 2) == (eps_eff < 0.2), eps
        assert _delta_after_step(delta1, eps_eff) >= delta1 / 2, eps


def _branch_start(eps):
    """Smallest theta0 with theta0 e^{theta0^2/2} >= REGIME_KAPPA sqrt(log(1/eps))/eps."""
    rhs = ltf_learner.REGIME_KAPPA * math.sqrt(math.log(1.0 / eps)) / eps
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid * math.exp(mid * mid / 2) < rhs else (lo, mid)
    return hi


def test_extreme_trials_cannot_reach_their_acceptance_floor():
    """Where learn_ltf skips localization (theta0 past the branch start and
    short of the constant branch), a refine_extreme trial would accept at
    most its clean rate plus every corrupted point; that stays under the
    3 eps it needs, by half, at each b it can guess and its smallest shift
    a theta0 (the rate falls as the shift grows)."""
    worst = 0.0
    for eps in np.geomspace(1e-4, 1 / 3, 120, endpoint=False):
        step = 1.0 / math.log(1.0 / eps)
        bs = step * np.arange(int(ltf_learner.B_CAP / step) + 1)
        # the constant branch takes every theta0 with 2 Phibar(theta0) <= CONST_MARGIN eps
        top = float(norm.isf(ltf_learner.CONST_MARGIN * eps / 2))
        for theta0 in np.linspace(_branch_start(eps), top, 80):
            for b in bs:
                a = math.sqrt(1.0 - b * b)
                rp = RejectionParams(np.r_[1.0], a * theta0, min(0.9, 1.0 / theta0))
                worst = max(worst, (rp.expected_rate() + eps) / (3.0 * eps))
    print(f"largest expected acceptance over the 3 eps floor: {worst:.3f}")
    assert worst < 0.5


# --- full learner ----------------------------------------------------------------

def test_learn_ltf_clean_small(small_config):
    n = 8
    dist = gaussian_descriptor(n, 1, 0.01)
    f = plant(n, 0.4, 31)
    s = clean_set(f, dist, 60_000, 32)
    source = make_corrupted_source(f, dist, 0.0, AdversaryStrategy("none"))
    out = learn_ltf(s, dist, 0.01, source=source, seed=33, config=small_config)
    assert score(out, f, dist, 100_000, 34) <= 0.05


def test_learn_ltf_under_attack(small_config):
    n = 8
    dist = gaussian_descriptor(n, 1, 0.05)
    f = plant(n, 0.4, 41)
    strategy = AdversaryStrategy("chow_attack", rho=0.9)
    source = make_corrupted_source(f, dist, 0.05, strategy)
    s = source(60_000, 42)
    out = learn_ltf(s, dist, 0.05, source=source, seed=43, config=small_config)
    assert score(out, f, dist, 100_000, 44) <= 0.5  # 10 eps
    assert abs(out.theta - f.theta) < 0.35 or abs(out.theta) < ltf_learner.CONSTANT_THETA


def test_learn_ltf_negative_threshold(small_config):
    n = 6
    dist = gaussian_descriptor(n, 1, 0.02)
    f = plant(n, -0.6, 51)
    source = make_corrupted_source(f, dist, 0.0, AdversaryStrategy("none"))
    s = source(50_000, 52)
    out = learn_ltf(s, dist, 0.02, source=source, seed=53, config=small_config)
    assert out.theta < 0
    assert score(out, f, dist, 100_000, 54) <= 0.05


def test_learn_ltf_holdout_picks_the_constant(small_config):
    # random_flip at eps 0.05 leaves 1 - |mean| near 2 eps = 0.1, above
    # CONST_MARGIN * eps, so learn_ltf does not return the constant at once:
    # holdout selection picks it among the candidates
    n = 5
    dist = gaussian_descriptor(n, 1, 0.05)
    f = constant_ltf(n, -1)
    source = make_corrupted_source(f, dist, 0.05, AdversaryStrategy("random_flip"))
    s = source(30_000, 61)
    assert 1.0 - abs(float(np.mean(s.labels))) > ltf_learner.CONST_MARGIN * 0.05
    out = learn_ltf(s, dist, 0.05, source=source, seed=62, config=small_config)
    pts = dist.sample(5000, 63)
    assert float(np.mean(out.evaluate(pts) == -1.0)) > 0.95


def test_learn_ltf_nearly_constant_target_returns_the_constant_at_once():
    # at theta 3.5 only Phi(-3.5) = 2.3e-4 of the labels are -1, and the
    # attack adds +1 labels, so 1 - |mean| stays under CONST_MARGIN * eps:
    # the constant is returned before the weak learner, the step or the
    # holdout draws anything
    n, eps = 20, 0.01
    dist = gaussian_descriptor(n, 1, eps)
    f = plant(n, 3.5, 71)
    source = make_corrupted_source(f, dist, eps, AdversaryStrategy("chow_attack"))
    s = source(20_000, 72)
    assert 1.0 - abs(float(np.mean(s.labels))) <= ltf_learner.CONST_MARGIN * eps
    out = learn_ltf(s, dist, eps, source=never_called, seed=73)
    const = constant_ltf(n, 1.0)
    assert np.array_equal(out.v, const.v) and out.theta == const.theta


def test_learn_ltf_too_few_accepted_points_adds_no_candidate():
    # a localization step that accepts fewer rows than the filter's floor
    # (here about 70 of 82) is skipped; it must not raise out of learn_ltf
    n = 40
    dist = gaussian_descriptor(n, 1, 0.05)
    f = plant(n, 0.5, 0)
    source = make_corrupted_source(f, dist, 0.05, AdversaryStrategy("chow_attack"))
    s = source(100_000, 1)
    out = learn_ltf(s, dist, 0.05, source=source, seed=3,
                    config=LTFConfig(batch_cap=180, holdout_size=2000))
    assert score(out, f, dist, 100_000, 4) <= 0.5   # 10 eps


def test_learn_ltf_strongly_biased_target_draws_only_the_holdout():
    # theta0 lies past the branch start, so only the holdout is drawn: no
    # localization step, no trials
    n, eps = 20, 0.05
    dist = gaussian_descriptor(n, 1, eps)
    f = plant(n, 2.8, 81)
    source = make_corrupted_source(f, dist, eps, AdversaryStrategy("remove_informative"))
    s = source(100_000, 82)
    theta0 = estimate_threshold(s)
    assert theta0 >= _branch_start(eps)
    calls = []

    def counted(m, seed):
        calls.append(m)
        return source(m, seed)

    cfg = LTFConfig(batch_cap=100_000, extreme_batch_cap=100_000)
    out = learn_ltf(s, dist, eps, source=counted, seed=5, config=cfg)
    assert calls == [cfg.holdout_size]
    assert out.theta == theta0
    assert score(out, f, dist, 100_000, 83) <= 0.5   # 10 eps


def test_learn_ltf_deterministic_given_seed(small_config):
    n = 5
    dist = gaussian_descriptor(n, 1, 0.02)
    f = plant(n, 0.3, 71)
    source = make_corrupted_source(f, dist, 0.02, AdversaryStrategy("random_flip"))
    s = source(30_000, 72)
    a = learn_ltf(s, dist, 0.02, source=source, seed=73, config=small_config)
    b = learn_ltf(s, dist, 0.02, source=source, seed=73, config=small_config)
    assert np.array_equal(a.v, b.v) and a.theta == b.theta


def test_learn_ltf_is_odd_in_the_labels(small_config):
    # one path serves both signs: negating every label (training set and
    # source alike) must negate the output, up to rounding in ndtri
    n, eps = 8, 0.05
    dist = gaussian_descriptor(n, 1, eps)
    f = plant(n, -0.8, 91)
    source = make_corrupted_source(f, dist, eps, AdversaryStrategy("chow_attack", rho=0.9))
    s = source(60_000, 92)

    def negated(m, seed):
        batch = source(m, seed)
        return LabeledSampleSet(batch.points, -batch.labels, batch.corrupted_mask)

    out = learn_ltf(s, dist, eps, source=source, seed=93, config=small_config)
    mirror = learn_ltf(LabeledSampleSet(s.points, -s.labels, s.corrupted_mask), dist,
                       eps, source=negated, seed=93, config=small_config)
    assert out.theta < 0 < mirror.theta
    assert np.allclose(out.v, -mirror.v, rtol=0, atol=1e-12)
    assert out.theta == pytest.approx(-mirror.theta, rel=0, abs=1e-12)


# theta by eps, at criterion 9's settings: n = 20, m = 1e5, chow_attack with
# rho 0.9 and LTFConfig(batch_cap=1e5). The bound is C1 eps + C2 sqrt(n/m):
# O(eps), plus a sampling term small enough to bite at eps = 0.001 (0.0114).
CLAIM_THETAS = (0.0, 1.0, 1.5, 2.0, 2.25, -2.25)
CLAIM_EPS = (0.001, 0.01, 0.05)
CLAIM_C1, CLAIM_C2 = 10.0, 0.1


def test_learn_ltf_error_is_order_eps_across_thresholds():
    n, m = 20, 100_000
    cfg = LTFConfig(batch_cap=100_000, extreme_batch_cap=100_000)
    v = plant(n, 0.0, 2027).v
    misses = []
    for i, (theta, eps) in enumerate((t, e) for t in CLAIM_THETAS for e in CLAIM_EPS):
        dist = gaussian_descriptor(n, 1, eps)
        f = LTF(v, theta)
        source = make_corrupted_source(f, dist, eps, AdversaryStrategy("chow_attack", rho=0.9))
        s_train, s_learn, s_score = np.random.SeedSequence(1707, spawn_key=(i,)).spawn(3)
        out = learn_ltf(source(m, s_train), dist, eps, source=source, seed=s_learn, config=cfg)
        dis = score(out, f, dist, 1_000_000, s_score)
        print(f"theta={theta:+.2f} eps={eps}: disagreement {dis / eps:.2f} eps")
        if dis > CLAIM_C1 * eps + CLAIM_C2 * math.sqrt(n / m):
            misses.append((theta, eps, dis))
    assert misses == []
