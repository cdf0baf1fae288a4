"""End-to-end acceptance gate for the robust Chow pipeline.

One test per criterion, each printing a single `CRITERION nn: PASS/FAIL`
line (visible under pytest -s) with the measured quantities, so the suite
doubles as a checklist. Tolerances are fixed constants in the assertions;
every expected value is either analytic or a Monte-Carlo estimate with an
explicit standard-error budget.
"""

import hashlib
import math
import time

import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.stats import norm

from robustchow import (
    STRATEGIES,
    AdversaryStrategy,
    ExperimentConfig,
    FilterParams,
    Intersection,
    LabeledSampleSet,
    LTFConfig,
    RejectionParams,
    analytic_ltf_chow,
    chow_distance,
    chow_reconstruct,
    corrupt,
    default_xi,
    direction_correlation,
    empirical_chow,
    gaussian_descriptor,
    gaussian_moment_matrix,
    hypercube_moment_matrix,
    learn_intersection,
    learn_ltf,
    make_corrupted_source,
    make_sampling_oracle,
    plant_instance,
    robust_chow,
    run_experiment,
    score,
    weak_learn_ltf,
)
from robustchow.ltf_learner import LTF, _rejection_mask
from robustchow.polybasis import Polynomial, enumerate_basis, eval_monomials_batch
from robustchow.ptf_learner import PTF


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _unit(n: int, i: int = 0) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _random_unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_moment_engine():
    basis = enumerate_basis(3, 2)
    sigma = gaussian_moment_matrix(basis)

    n_mc = 1_000_000
    rng = np.random.default_rng(np.random.SeedSequence(101))
    pts = rng.standard_normal((n_mc, 3))
    phi = eval_monomials_batch(basis, pts)
    emp = phi.T @ phi / n_mc
    sq = phi * phi
    second = sq.T @ sq / n_mc
    var = np.maximum(second - emp * emp, 0.0)
    se = np.sqrt(var / n_mc)
    diff = np.abs(emp - sigma)
    # deterministic entries (constant*constant) must agree exactly
    ok_gauss = bool(np.all(diff <= 5.0 * se + 1e-12))
    worst = float(np.max(np.where(se > 0, diff / np.maximum(se, 1e-300), 0.0)))

    basis_ml = enumerate_basis(3, 2, multilinear=True)
    cube = hypercube_moment_matrix(basis_ml)
    ok_cube = bool(np.array_equal(cube, np.eye(basis_ml.ell)))

    _report(1, ok_gauss and ok_cube,
            f"gaussian n=3 d=2 vs 1e6-sample MC worst |diff|/SE = {worst:.2f} "
            f"(allowed 5); hypercube moment matrix exactly identity: {ok_cube}")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_whitening():
    dist = gaussian_descriptor(10, 2, 0.0)
    pts = dist.sample(100_000, np.random.SeedSequence(202))
    phi = eval_monomials_batch(dist.basis, pts)
    emp = phi.T @ phi / len(pts)
    isqrt, _ = dist.whitener()
    w = isqrt @ emp @ isqrt
    gap = float(np.max(np.abs(np.linalg.eigvalsh(w - np.eye(dist.basis.ell)))))
    _report(2, gap <= 0.05,
            f"spectral distance of whitened second moment to identity = {gap:.4f} "
            f"(allowed 0.05, n=10 d=2 m=1e5)")


# ------------------------------------------------------- criteria 3 and 4

@pytest.fixture(scope="module")
def clean_halfspace_n10():
    dist0 = gaussian_descriptor(10, 1, 0.0)
    v = _unit(10)
    hyp, clean = plant_instance("ltf", (v, 0.0), dist0, 100_000,
                                np.random.SeedSequence(303))
    analytic = analytic_ltf_chow(v, 0.0, dist0)
    baseline = robust_chow(clean, dist0, FilterParams(eps=0.0))
    return dist0, v, hyp, clean, analytic, baseline


def test_criterion_03_clean_chow_oracle(clean_halfspace_n10):
    dist0, v, hyp, clean, analytic, baseline = clean_halfspace_n10
    diff = float(np.max(np.abs(baseline.chi - analytic.chi)))
    slot = float(baseline.chi[1])
    _report(3, diff <= 0.02,
            f"sign(x1) degree-1 Chow entrywise error = {diff:.4f} (allowed 0.02); "
            f"x1 slot = {slot:.4f} vs sqrt(2/pi) = {math.sqrt(2 / math.pi):.4f}")


def test_criterion_04_filter_soundness(clean_halfspace_n10):
    dist0, v, hyp, clean, analytic, baseline = clean_halfspace_n10
    err0 = chow_distance(baseline, analytic)
    details = []
    ok = True
    for eps_declared in (0.05, 0.1):
        dist = gaussian_descriptor(10, 1, eps_declared)
        est = robust_chow(clean, dist, FilterParams(eps=eps_declared))
        prov = est.provenance
        removed_frac = (prov["pruned"] + prov["filtered"]) / prov["samples_in"]
        converged = not prov["degraded"] and not prov["cap_reached"]
        err = chow_distance(est, analytic_ltf_chow(v, 0.0, dist))
        ok = ok and removed_frac <= 0.02 and converged and err <= 2.0 * err0
        details.append(f"eps={eps_declared}: removed {removed_frac:.2%}, "
                       f"converged={converged}, err {err:.4f} vs 2x baseline {2 * err0:.4f}")
    _report(4, ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_filter_robustness():
    dist = gaussian_descriptor(10, 1, 0.1)
    v = _unit(10)
    analytic = analytic_ltf_chow(v, 0.0, dist)
    strategy = AdversaryStrategy("chow_attack", rho=0.9)
    passes = 0
    first_fail = ""
    for t in range(20):
        ss = np.random.SeedSequence(505, spawn_key=(t,))
        s_plant, s_adv = ss.spawn(2)
        hyp, clean = plant_instance("ltf", (v, 0.0), dist, 20_000, s_plant)
        bad = corrupt(clean, hyp, 0.1, strategy, dist, s_adv)
        raw = chow_distance(empirical_chow(bad, dist), analytic)
        est = robust_chow(bad, dist, FilterParams(eps=0.1))
        filt = chow_distance(est, analytic)
        removed = ~est.keep_mask
        n_removed = int(removed.sum())
        selectivity = (float((removed & bad.corrupted_mask).sum()) / n_removed
                       if n_removed else 0.0)
        good = raw >= 0.4 and filt <= 0.1 and selectivity >= 2.0 / 3.0
        if good:
            passes += 1
        elif not first_fail:
            first_fail = (f" (first fail: trial {t} raw={raw:.3f} filt={filt:.3f} "
                          f"selectivity={selectivity:.3f})")
    _report(5, passes >= 18,
            f"chow_attack rho=0.9 eps=0.1: {passes}/20 trials with raw >= 0.4, "
            f"filtered <= 0.1, >= 2/3 of removed points corrupted{first_fail}")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_chow_error_scaling():
    eps_grid = (0.01, 0.02, 0.05, 0.1)
    trials = 4
    v = _unit(10)
    ok = True
    details = []
    for tag in STRATEGIES:
        means, ses = [], []
        for eps in eps_grid:
            dist = gaussian_descriptor(10, 1, eps)
            analytic = analytic_ltf_chow(v, 0.0, dist)
            errs = []
            for t in range(trials):
                ss = np.random.SeedSequence(606, spawn_key=(STRATEGIES.index(tag),
                                                            eps_grid.index(eps), t))
                s_plant, s_adv = ss.spawn(2)
                hyp, clean = plant_instance("ltf", (v, 0.0), dist, 20_000, s_plant)
                bad = corrupt(clean, hyp, eps, AdversaryStrategy(tag, rho=0.9),
                              dist, s_adv)
                est = robust_chow(bad, dist, FilterParams(eps=eps))
                errs.append(chow_distance(est, analytic))
            means.append(float(np.mean(errs)))
            ses.append(float(np.std(errs, ddof=1) / math.sqrt(trials)))
        monotone = all(means[i + 1] >= means[i]
                       - 2.0 * math.hypot(ses[i], ses[i + 1])
                       for i in range(len(eps_grid) - 1))
        ratio = means[-1] / max(means[0], 1e-12)
        ok = ok and monotone and ratio <= 20.0
        details.append(f"{tag}: errs {['%.3f' % m for m in means]} ratio {ratio:.1f} "
                       f"monotone={monotone}")
    _report(6, ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_weak_ltf_learner():
    rng = np.random.default_rng(707)
    v = _random_unit(rng, 20)
    theta = 0.3
    worst_c = 0.0
    details = []
    for eps in (0.02, 0.05, 0.1):
        dist = gaussian_descriptor(20, 1, eps)
        worst = 0.0
        worst_tag = ""
        for tag in STRATEGIES:
            ss = np.random.SeedSequence(717, spawn_key=(STRATEGIES.index(tag),
                                                        int(eps * 1000)))
            s_plant, s_adv, s_score = ss.spawn(3)
            hyp, clean = plant_instance("ltf", (v, theta), dist, 50_000, s_plant)
            bad = corrupt(clean, hyp, eps, AdversaryStrategy(tag, rho=0.9),
                          dist, s_adv)
            w = weak_learn_ltf(bad, dist, eps)
            dis = score(w, hyp, dist, 100_000, s_score)
            if dis > worst:
                worst, worst_tag = dis, tag
        c_req = worst / (eps * math.sqrt(math.log(1.0 / eps)))
        worst_c = max(worst_c, c_req)
        details.append(f"eps={eps}: worst {worst:.4f} ({worst_tag}), C={c_req:.2f}")
    _report(7, worst_c <= 5.0,
            f"disagreement <= C eps sqrt(log 1/eps) with C = {worst_c:.2f} "
            f"(allowed 5); " + "; ".join(details))


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_rejection_sampler():
    rng = np.random.default_rng(808)
    n_draw = 200_000
    ok = True
    worst_line = ""
    worst_score = -1.0
    for trial in range(20):
        theta = float(rng.uniform(-1.2, 1.2))
        sigma = float(rng.uniform(0.4, 0.9))
        v = _random_unit(rng, 2)
        rp = RejectionParams(v, theta, sigma)
        pts = np.random.default_rng(
            np.random.SeedSequence(818, spawn_key=(trial,))).standard_normal((n_draw, 2))
        rej_rng = np.random.default_rng(np.random.SeedSequence(828, spawn_key=(trial,)))
        accepted = pts[_rejection_mask(pts, rp, rej_rng)]
        k = len(accepted)

        rate_true = rp.expected_rate()
        se_rate = math.sqrt(rate_true * (1.0 - rate_true) / n_draw)
        z_rate = abs(k / n_draw - rate_true) / se_rate

        t = accepted @ v
        z_mean = abs(float(np.mean(t)) - (-theta)) / (sigma / math.sqrt(k))
        se_var = sigma * sigma * math.sqrt(2.0 / (k - 1))
        z_var = abs(float(np.var(t, ddof=1)) - sigma * sigma) / se_var

        trial_ok = z_rate <= 3.0 and z_mean <= 4.0 and z_var <= 4.0
        ok = ok and trial_ok
        badness = max(z_rate / 3.0, z_mean / 4.0, z_var / 4.0)
        if badness > worst_score:
            worst_score = badness
            worst_line = (f"theta={theta:.2f} sigma={sigma:.2f}: z_rate={z_rate:.2f} "
                          f"z_mean={z_mean:.2f} z_var={z_var:.2f}")
    _report(8, ok, f"20 random (theta, sigma), worst case {worst_line} "
                   f"(limits 3, 4, 4 SE)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_optimal_ltf_learner():
    rng = np.random.default_rng(909)
    v = _random_unit(rng, 20)
    theta = 0.5
    strategy = AdversaryStrategy("chow_attack", rho=0.9)
    cfg = LTFConfig(batch_cap=100_000, extreme_batch_cap=100_000)
    trials = 2
    ratios = []
    details = []
    ok = True
    for eps in (0.01, 0.05, 0.1):
        dist = gaussian_descriptor(20, 1, eps)
        dis_vals = []
        for t in range(trials):
            ss = np.random.SeedSequence(919, spawn_key=(int(eps * 1000), t))
            s_plant, s_train, s_learn, s_score = ss.spawn(4)
            hyp, _ = plant_instance("ltf", (v, theta), dist, 1000, s_plant)
            source = make_corrupted_source(hyp, dist, eps, strategy)
            train = source(100_000, s_train)
            t0 = time.monotonic()
            learned = learn_ltf(train, dist, eps, source=source, seed=s_learn,
                                config=cfg)
            elapsed = time.monotonic() - t0
            dis_vals.append(score(learned, hyp, dist, 400_000, s_score))
            ok = ok and elapsed <= 300.0
        mean_dis = float(np.mean(dis_vals))
        ok = ok and mean_dis <= 10.0 * eps
        ratios.append(mean_dis / eps)
        details.append(f"eps={eps}: dis {mean_dis:.4f} (<= {10 * eps:.2f}), "
                       f"ratio {mean_dis / eps:.2f}")
    spread = max(ratios) / max(min(ratios), 1e-12)
    ok = ok and spread <= 2.0
    _report(9, ok, f"ratio spread {spread:.2f}x (allowed 2x); " + "; ".join(details))


# --------------------------------------------------------------- criterion 10

def _reconstruct_once(dist, eps, strategy, seed):
    """One full staged run: plant sign(x1^2-1), corrupt, estimate, rebuild."""
    basis = dist.basis
    coeffs = np.zeros(basis.ell)
    exp = np.zeros(8, dtype=np.int64)
    exp[0] = 2
    coeffs[0] = -1.0
    coeffs[basis.index_of(tuple(exp))] = 1.0
    plant = PTF(Polynomial(basis, coeffs))

    ss = np.random.SeedSequence(1010, spawn_key=seed)
    s_plant, s_adv, s_oracle, s_faith, s_score = ss.spawn(5)
    hyp, clean = plant_instance("ptf", plant, dist, 100_000, s_plant)
    bad = corrupt(clean, hyp, eps, strategy, dist, s_adv)

    target = robust_chow(bad, dist, FilterParams(eps=eps))
    xi = default_xi(dist, eps, len(bad),
                    achieved_excess=target.provenance.get("final_lambda"))
    oracle = make_sampling_oracle(dist, eps, strategy, 100_000, s_oracle)
    pbf = chow_reconstruct(target, dist, xi, oracle)
    learned = PTF(pbf.q)
    dis = score(learned, hyp, dist, 200_000, s_score)

    faith_oracle = make_sampling_oracle(dist, 0.0, AdversaryStrategy("none"),
                                        400_000, s_faith)
    faith = chow_distance(faith_oracle(pbf), target)
    return dis, faith, xi


def test_criterion_10_ptf_learner():
    runs = {0.0: 1, 0.01: 3, 0.05: 3}
    dis_by_eps = {}
    ok = True
    faith_detail = []
    for eps, n_runs in runs.items():
        dist = gaussian_descriptor(8, 2, eps)
        strategy = (AdversaryStrategy("none") if eps == 0.0
                    else AdversaryStrategy("chow_attack", rho=0.9))
        vals = []
        for t in range(n_runs):
            dis, faith, xi = _reconstruct_once(dist, eps, strategy,
                                               (int(eps * 1000), t))
            vals.append(dis)
            bound = 3.0 * 4.0 * xi
            ok = ok and faith <= bound
            faith_detail.append(f"{faith:.3f}<={bound:.2f}")
        dis_by_eps[eps] = vals

    d0 = dis_by_eps[0.0][0]
    m01 = float(np.mean(dis_by_eps[0.01]))
    m05 = float(np.mean(dis_by_eps[0.05]))
    se01 = float(np.std(dis_by_eps[0.01], ddof=1) / math.sqrt(3))
    se05 = float(np.std(dis_by_eps[0.05], ddof=1) / math.sqrt(3))
    sep = 2.0 * math.hypot(se01, se05)
    ok = ok and d0 <= 0.1 and m05 <= 0.35 and (m01 + sep) <= m05
    _report(10, ok,
            f"sign(x1^2-1) n=8: dis(0)={d0:.3f} (<=0.1), dis(0.01)={m01:.3f}, "
            f"dis(0.05)={m05:.3f} (<=0.35), separation {m05 - m01:.3f} > 2SE "
            f"{sep:.3f}; chow-faithfulness each run: {', '.join(faith_detail)}")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_intersection_learner():
    n, k, theta = 8, 2, 0.5
    true_span = np.stack([_unit(n, 0), _unit(n, 1)], axis=1)
    hyp = Intersection([LTF(_unit(n, 0), theta), LTF(_unit(n, 1), theta)])
    strategy = AdversaryStrategy("chow_attack", rho=0.9)
    m_score = 200_000
    results = {}
    elapsed_all = 0.0
    for eps in (0.005, 0.02):
        dist = gaussian_descriptor(n, 2, eps)
        ss = np.random.SeedSequence(1111, spawn_key=(int(eps * 1000),))
        s_train, s_learn, s_score = ss.spawn(3)
        source = make_corrupted_source(hyp, dist, eps, strategy)
        train = source(200_000, s_train)
        t0 = time.monotonic()
        learned = learn_intersection(train, k, eps, source=source,
                                     seed=int(s_learn.generate_state(1)[0]))
        elapsed_all += time.monotonic() - t0
        angle = math.degrees(float(np.max(subspace_angles(true_span,
                                                          learned.subspace))))
        dis = score(learned, hyp, dist, m_score, s_score)
        results[eps] = (angle, dis)
    angle02, dis02 = results[0.02]
    _, dis005 = results[0.005]
    se = 2.0 * math.sqrt(max(dis02, 1e-4) / m_score)
    ok = (angle02 <= 15.0 and dis02 <= 0.1 and dis005 <= dis02 + 2.0 * se
          and elapsed_all <= 300.0)
    _report(11, ok,
            f"k=2 n=8 theta=0.5: angle(eps=0.02) = {angle02:.2f} deg (<=15), "
            f"dis(0.02) = {dis02:.4f} (<=0.1), dis(0.005) = {dis005:.4f} "
            f"(non-increasing in eps), total {elapsed_all:.0f}s")


# --------------------------------------------------------------- criterion 12

def _resample_variation(pts, labels01, hyp, v, seed):
    """E|f - f'| (in the +-1 convention) after resampling the v-component."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(len(pts))
    moved = pts + np.outer(g - pts @ v, v)
    new01 = (np.asarray(hyp.evaluate(moved)) > 0).astype(np.float64)
    return 2.0 * float(np.mean(new01 != labels01))


def test_criterion_12_structural_diagnostic():
    n, m = 6, 200_000
    instances = [
        Intersection([LTF(_unit(n, 0), 0.5)]),
        Intersection([LTF(_unit(n, 0), 0.5), LTF(_unit(n, 1), 0.5)]),
    ]
    rng = np.random.default_rng(1212)
    gated = 0
    checked = 0
    violations = []
    worst_gated_var = 0.0
    for inst_idx, hyp in enumerate(instances):
        relevant = 1 + inst_idx
        pts = np.random.default_rng(
            np.random.SeedSequence(1222, spawn_key=(inst_idx,))).standard_normal((m, n))
        labels01 = (np.asarray(hyp.evaluate(pts)) > 0).astype(np.float64)
        samples = LabeledSampleSet(pts, labels01)

        directions = [_random_unit(rng, n) for _ in range(13)]
        for _ in range(8):
            w = np.zeros(n)
            w[relevant:] = rng.standard_normal(n - relevant)
            directions.append(w / np.linalg.norm(w))
        for _ in range(4):
            w = np.zeros(n)
            w[relevant:] = rng.standard_normal(n - relevant)
            w = w / np.linalg.norm(w)
            w = w + 0.02 * rng.standard_normal() * _unit(n, 0)
            directions.append(w / np.linalg.norm(w))

        for d_idx, v in enumerate(directions):
            checked += 1
            corr = direction_correlation(samples, v)
            if corr <= 0.01:
                gated += 1
                var = _resample_variation(pts, labels01, hyp, v,
                                          np.random.SeedSequence(1232,
                                                                 spawn_key=(inst_idx, d_idx)))
                worst_gated_var = max(worst_gated_var, var)
                if var > 0.15:
                    violations.append(f"inst{inst_idx} dir{d_idx}: corr={corr:.4f} "
                                      f"var={var:.3f}")
    ok = not violations and gated >= 10
    _report(12, ok,
            f"{checked} directions on k<=2 plants, {gated} with correlation <= 0.01, "
            f"max resampling variation among them {worst_gated_var:.4f} (allowed 0.15)"
            + (f"; violations: {violations}" if violations else ""))


# --------------------------------------------------------------- criterion 13

def test_criterion_13_determinism(tmp_path):
    configs = [
        ExperimentConfig(learner="chow", n=5, eps_grid=[0.0, 0.05],
                         strategies=["none", "chow_attack"], m_train=3000,
                         trials=2, seed=7),
        ExperimentConfig(learner="ltf", n=5, eps_grid=[0.05],
                         strategies=["random_flip"], m_train=40_000,
                         trials=1, seed=7),
        ExperimentConfig(learner="ptf", n=4, eps_grid=[0.02],
                         strategies=["random_flip"], m_train=5000, trials=1,
                         seed=7, plant={"coeffs": [0.0, 1.0, 0.0, 0.0, 0.0]}),
        ExperimentConfig(learner="intersection", n=5, k=1, eps_grid=[0.02],
                         strategies=["chow_attack"], m_train=20_000, trials=1,
                         seed=7, plant={"thetas": [0.5]}),
    ]
    details = []
    ok = True
    for cfg in configs:
        digests = []
        for rep in range(2):
            out = tmp_path / f"{cfg.learner}_{rep}.csv"
            run_experiment(cfg, str(out))
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        same = digests[0] == digests[1]
        ok = ok and same
        details.append(f"{cfg.learner}: {'identical' if same else 'DIFFERS'}")
    _report(13, ok, "same seed, repeated runs -> bit-identical CSV ("
            + ", ".join(details) + ")")
