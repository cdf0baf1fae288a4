import math

import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.stats import norm

from robustchow import intersection_learner
from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import ChowEstimate, FilterParams, empirical_chow, robust_chow
from robustchow.distributions import gaussian_descriptor
from robustchow.cli import main
from robustchow.errors import BasisMismatch, ConfigError, CoverTooLarge
from robustchow.harness import ExperimentConfig, make_corrupted_source
from robustchow.hypothesis_select import select_intersection_cover
from robustchow.intersection_learner import (
    COMBO_CAP,
    K_CAP,
    Cover,
    Degree2ChowMatrix,
    Intersection,
    Subspace,
    _sphere_net,
    build_degree2,
    default_cover_delta,
    direction_correlation,
    extract_subspace,
    learn_intersection,
    make_cover,
)
from robustchow.ltf_learner import LTF
from robustchow.polybasis import enumerate_basis


def unit(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def clean_source(f, dist):
    """Fresh uncorrupted batches labeled by f, for the tournament holdout."""
    return make_corrupted_source(f, dist, 0.0, AdversaryStrategy("none"))


def planted_pair_d2(n, theta):
    """Exact degree-2 Chow block of 1{x1 >= -theta} * 1{x2 >= -theta}.

    One-dimensional pieces: E[1{t >= -theta} t] = phi(theta) and
    E[1{t >= -theta} (t^2 - 1)] = -theta phi(theta); independence gives the
    products below, and y = 2 f01 - 1 doubles every centered moment.
    """
    p = norm.pdf(theta)
    c = norm.cdf(theta)
    vec1 = np.zeros(n)
    vec1[0] = vec1[1] = 2.0 * p * c
    mat2 = np.zeros((n, n))
    mat2[0, 0] = mat2[1, 1] = -2.0 * theta * p * c
    mat2[0, 1] = mat2[1, 0] = 2.0 * p * p
    return Degree2ChowMatrix(vec1, mat2)


# --- Intersection type ------------------------------------------------------------


def test_intersection_semantics():
    g = Intersection([LTF(unit(2, 0), 0.0), LTF(unit(2, 1), 0.0)])
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-2.0, -2.0], [0.0, 0.0]])
    assert np.array_equal(g.evaluate(pts), [1.0, -1.0, -1.0, -1.0, 1.0])
    assert np.allclose(g.margin(pts), [1.0, -1.0, -1.0, -2.0, 0.0])
    assert g.k == 2


def test_intersection_member_count_validation():
    with pytest.raises(ValueError):
        Intersection([])
    members = [LTF(unit(2, 0), float(t)) for t in range(4)]
    with pytest.raises(ValueError):
        Intersection(members)


def test_intersection_json_roundtrip():
    basis = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 2)))[0]
    g = Intersection([LTF(unit(5, 0), 0.3), LTF(unit(5, 2), -0.7)], subspace=basis)
    back = Intersection.from_json(g.to_json())
    pts = np.random.default_rng(4).standard_normal((500, 5))
    assert np.array_equal(g.evaluate(pts), back.evaluate(pts))
    assert np.allclose(back.subspace, basis)


# --- build_degree2 ----------------------------------------------------------------


def test_build_degree2_layout():
    # distinct value per slot, recovered from the flat vector by position
    n = 3
    basis = enumerate_basis(n, 2)
    chi = np.zeros(basis.ell)
    chi[0] = 0.7
    lin, sq, cross = {}, {}, {}
    for i in range(n):
        e = [0] * n
        e[i] = 1
        lin[i] = 0.1 * (i + 1)
        chi[basis.index_of(tuple(e))] = lin[i]
        e[i] = 2
        sq[i] = 0.5 + 0.01 * i
        chi[basis.index_of(tuple(e))] = sq[i]
        for j in range(i + 1, n):
            e2 = [0] * n
            e2[i] = e2[j] = 1
            cross[(i, j)] = 0.02 * (i + j + 1)
            chi[basis.index_of(tuple(e2))] = cross[(i, j)]

    d2 = build_degree2(ChowEstimate(chi, basis, None))
    for i in range(n):
        assert d2.vec1[i] == pytest.approx(lin[i])
        assert d2.mat2[i, i] == pytest.approx(sq[i] - 0.7)
        for j in range(i + 1, n):
            assert d2.mat2[i, j] == pytest.approx(cross[(i, j)])
    assert np.array_equal(d2.mat2, d2.mat2.T)


def test_build_degree2_constant_target():
    # exact Chow of f == +1: E[x_i] = 0, E[x_i x_j] = delta_ij, so the
    # centering wipes the quadratic block
    n = 4
    basis = enumerate_basis(n, 2)
    chi = np.zeros(basis.ell)
    chi[0] = 1.0
    for i in range(n):
        e = [0] * n
        e[i] = 2
        chi[basis.index_of(tuple(e))] = 1.0
    d2 = build_degree2(ChowEstimate(chi, basis, None))
    assert np.allclose(d2.vec1, 0.0)
    assert np.allclose(d2.mat2, 0.0)


def test_build_degree2_shifted_halfspace_diagonal():
    # y = sign(x1 + 1): diagonal entry (0,0) is E[y (x1^2 - 1)] = -2 phi(1),
    # cross-checked against direct quadrature
    from scipy.integrate import quad

    theta = 1.0
    expected, _ = quad(lambda t: np.sign(t + theta) * (t * t - 1.0) * norm.pdf(t),
                       -12.0, 12.0)
    assert expected == pytest.approx(-2.0 * theta * norm.pdf(theta), abs=1e-9)
    assert expected == pytest.approx(-0.4839414, abs=1e-6)

    n = 3
    basis = enumerate_basis(n, 2)
    chi = np.zeros(basis.ell)
    chi0 = 2.0 * norm.cdf(theta) - 1.0
    chi[0] = chi0
    e = [0] * n
    e[0] = 1
    chi[basis.index_of(tuple(e))] = 2.0 * norm.pdf(theta)
    for i in range(n):
        e = [0] * n
        e[i] = 2
        chi[basis.index_of(tuple(e))] = chi0 + (expected if i == 0 else 0.0)
    d2 = build_degree2(ChowEstimate(chi, basis, None))
    assert d2.mat2[0, 0] == pytest.approx(-0.4839414, abs=1e-6)
    assert d2.vec1[0] == pytest.approx(2.0 * norm.pdf(theta))
    assert np.allclose(d2.mat2 - np.diag(np.diag(d2.mat2)), 0.0)


def loop_degree2(chow):
    """The per-entry index_of loop build_degree2 replaced, as a reference."""
    basis, n = chow.basis, chow.basis.n
    vec1, mat2 = np.zeros(n), np.zeros((n, n))
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        vec1[i] = chow.chi[basis.index_of(unit)]
        unit[i] = 2
        mat2[i, i] = chow.chi[basis.index_of(unit)] - chow.chi[0]
        unit[i] = 1
        for j in range(i + 1, n):
            unit[j] = 1
            mat2[i, j] = mat2[j, i] = chow.chi[basis.index_of(unit)]
            unit[j] = 0
    return vec1, (mat2 + mat2.T) / 2.0


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (5, 2), (8, 2), (4, 3), (3, 4)])
def test_build_degree2_matches_index_loop(n, d):
    basis = enumerate_basis(n, d)
    chi = np.random.default_rng(n * 10 + d).standard_normal(basis.ell)
    d2 = build_degree2(ChowEstimate(chi, basis, None))
    vec1, mat2 = loop_degree2(ChowEstimate(chi, basis, None))
    assert d2.vec1.tobytes() == vec1.tobytes()
    assert d2.mat2.tobytes() == mat2.tobytes()


def test_build_degree2_rejects_wrong_basis():
    b1 = enumerate_basis(3, 1)
    with pytest.raises(BasisMismatch):
        build_degree2(ChowEstimate(np.zeros(b1.ell), b1, None))
    bm = enumerate_basis(3, 2, multilinear=True)
    with pytest.raises(BasisMismatch):
        build_degree2(ChowEstimate(np.zeros(bm.ell), bm, None))


# --- extract_subspace -------------------------------------------------------------


def test_extract_subspace_planted_pair_exact():
    n = 6
    d2 = planted_pair_d2(n, 0.5)
    sub = extract_subspace(d2, 2)
    assert sub.dim == 2
    truth = np.column_stack([unit(n, 0), unit(n, 1)])
    angles = subspace_angles(sub.basis, truth)
    assert angles.max() <= 1e-8

    # rank-2 structure: third-largest eigenvalue magnitude vanishes
    vals = np.sort(np.abs(np.linalg.eigvalsh(d2.mat2)))[::-1]
    assert vals[2] <= 1e-12


def test_extract_subspace_noise_floor():
    n = 5
    zero = Degree2ChowMatrix(np.zeros(n), np.zeros((n, n)))
    assert extract_subspace(zero, 2).dim == 0

    only_vec = Degree2ChowMatrix(0.3 * unit(n, 2), np.zeros((n, n)))
    sub = extract_subspace(only_vec, 2, noise_floor=0.01)
    assert sub.dim == 1
    assert abs(abs(sub.basis[:, 0] @ unit(n, 2)) - 1.0) <= 1e-12

    tiny_eig = Degree2ChowMatrix(np.zeros(n), 1e-9 * np.outer(unit(n, 0), unit(n, 0)))
    assert extract_subspace(tiny_eig, 2, noise_floor=1e-8).dim == 0


def test_extract_subspace_keeps_k_when_vec1_sits_off_the_eigenvectors():
    # theta = 0: mat2 has eigenvalues +-2 phi(0)^2 ~ 0.32, both above the
    # floor, and noise puts vec1 slightly outside their span. The stack then
    # has rank 3, but the relevant subspace of two halfspaces has dim 2.
    n = 6
    exact = planted_pair_d2(n, 0.0)
    d2 = Degree2ChowMatrix(exact.vec1 + 0.01 * unit(n, 2), exact.mat2)
    sub = extract_subspace(d2, 2, noise_floor=0.1)
    assert sub.dim == 2
    truth = np.column_stack([unit(n, 0), unit(n, 1)])
    assert math.degrees(subspace_angles(sub.basis, truth).max()) <= 1.0


def test_extract_subspace_rotation_equivariant():
    n = 5
    m = 200_000
    dist = gaussian_descriptor(n, 2, 0.0)
    rng = np.random.default_rng(17)
    pts = dist.sample(m, 800)
    f = Intersection([LTF(unit(n, 0), 0.5), LTF(unit(n, 1), 0.5)])
    labels = f.evaluate(pts)

    rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sub_a = extract_subspace(build_degree2(empirical_chow(
        LabeledSampleSet(pts, labels), dist)), 2, noise_floor=0.02)
    sub_b = extract_subspace(build_degree2(empirical_chow(
        LabeledSampleSet(pts @ rot.T, labels), dist)), 2, noise_floor=0.02)
    angles = subspace_angles(sub_b.basis, rot @ sub_a.basis)
    assert angles.max() <= math.radians(2.0)


def test_subspace_validation_and_projection():
    with pytest.raises(ValueError):
        Subspace(np.ones((4, 2)))
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
    sub = Subspace(basis)
    pts = np.random.default_rng(1).standard_normal((100, 4))
    assert sub.project(pts).shape == (100, 2)
    proj = sub.basis @ sub.basis.T
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    assert Subspace(np.zeros((4, 0))).dim == 0


# --- sphere nets and covers -------------------------------------------------------


@pytest.mark.parametrize("dim,res", [(2, 0.1)])
def test_sphere_net_covering(dim, res):
    net = _sphere_net(dim, res)
    assert np.allclose(np.linalg.norm(net, axis=1), 1.0)
    probes = np.random.default_rng(5).standard_normal((500, dim))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    cosines = np.clip(probes @ net.T, -1.0, 1.0).max(axis=1)
    assert np.arccos(cosines).max() <= res


def exact_1d_disagreement(s_dir, s_thr, m_dir, m_thr):
    """P_x~N(0,1) of {s_dir x <= s_thr} xor {m_dir x <= m_thr}, closed form."""
    if s_dir == m_dir:
        return abs(norm.cdf(s_thr) - norm.cdf(m_thr))
    # opposite orientations: one set is a left tail, the other a right tail
    left = norm.cdf(s_thr if s_dir > 0 else m_thr)
    right_start = -(m_thr if s_dir > 0 else s_thr)
    right = 1.0 - norm.cdf(right_start)
    overlap = max(0.0, norm.cdf(s_thr if s_dir > 0 else m_thr) - norm.cdf(right_start))
    return left + right - 2.0 * overlap


def test_make_cover_k1_dim1_brute_force():
    # every 1-D halfspace sits within 0.2 of some member, measured exactly
    # through the Gaussian CDF
    delta = 0.2
    cover = make_cover(1, 1, delta)
    dirs = cover.unit_matrix[:, 0]
    thrs = cover.thresholds
    rng = np.random.default_rng(9)
    for _ in range(100):
        s_dir = 1.0 if rng.random() < 0.5 else -1.0
        s_thr = float(1.5 * rng.standard_normal())
        accept_p = norm.cdf(s_thr)  # P(s_dir x <= s_thr) is symmetric in s_dir
        best = min(accept_p, 1.0 - accept_p)  # the two constants
        for d, t in zip(dirs, thrs):
            best = min(best, exact_1d_disagreement(s_dir, s_thr, d, t))
        assert best <= delta


def test_make_cover_counting_and_constants():
    cover = make_cover(1, 1, 0.25)
    assert len(cover) == cover.grid_size + 2
    assert len(cover) <= COMBO_CAP + 2
    pts = np.random.default_rng(2).standard_normal((50, 1))
    assert np.array_equal(cover[len(cover) - 2].evaluate(pts), np.ones(50))
    assert np.array_equal(cover[len(cover) - 1].evaluate(pts), -np.ones(50))


def test_make_cover_flat_indexing():
    cover = make_cover(2, 2, 0.9)
    g = cover.grid_size
    for flat in (0, 1, g, g + 3, g * g - 1):
        got = cover[flat]
        hi, lo = divmod(flat, g)
        assert np.allclose(got.halfspaces[0].v, -cover.unit_matrix[hi])
        assert got.halfspaces[0].theta == pytest.approx(cover.thresholds[hi])
        assert np.allclose(got.halfspaces[1].v, -cover.unit_matrix[lo])
        assert got.halfspaces[1].theta == pytest.approx(cover.thresholds[lo])
    with pytest.raises(IndexError):
        cover[g * g + 2]
    with pytest.raises(IndexError):
        cover[-1]


def test_make_cover_witness_completeness_k2(monkeypatch):
    # snap each planted member to the nearest direction and threshold in the
    # grid; the snapped intersection must stay within delta
    delta = 0.3
    monkeypatch.setattr(intersection_learner, "COMBO_CAP", 10 ** 9)
    cover = make_cover(2, 2, delta)
    net = np.unique(cover.unit_matrix, axis=0)
    grid_t = np.unique(cover.thresholds)
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((100_000, 2))
    for _ in range(30):
        members, snapped = [], []
        for _ in range(2):
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            thr = float(rng.uniform(-1.5, 1.5))
            members.append(LTF(-v, thr))
            snap_v = net[np.argmax(net @ v)]
            snap_t = grid_t[np.argmin(np.abs(grid_t - thr))]
            snapped.append(LTF(-snap_v, float(snap_t)))
        target = Intersection(members)
        witness = Intersection(snapped)
        dis = float(np.mean(target.evaluate(pts) != witness.evaluate(pts)))
        assert dis <= delta


def test_make_cover_validation():
    with pytest.raises(CoverTooLarge):
        make_cover(2, 2, 0.25)
    with pytest.raises(ValueError):
        make_cover(1, 1, 0.04)  # below the enumerable floor
    with pytest.raises(ValueError):
        make_cover(4, 2, 0.5)
    for k, dim in ((1, 2), (2, 3)):   # an intersection of k halfspaces has dim <= k
        with pytest.raises(ValueError, match="unsupported cover shape"):
            make_cover(k, dim, 0.5)
    # Theta = Phi^{-1}(1 - delta/(8k)) is negative above 4k = 4 at k = 1,
    # and undefined from 8k on; at 4k it is 0, a single threshold
    for delta in (16.0, 15.9, 5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="outside"):
            make_cover(1, 1, delta)
    assert np.array_equal(make_cover(1, 1, 4.0).thresholds, [0.0, 0.0])


@pytest.mark.parametrize("entry", ["Intersection", "make_cover",
                                   "select_intersection_cover",
                                   "ExperimentConfig.validate", "learn-intersection"])
def test_k_above_cap_rejected_at_every_entry(entry, capsys):
    k = K_CAP + 1
    if entry == "learn-intersection":
        assert main(["learn-intersection", "--n", "8", "--k", str(k)]) == 2
        assert capsys.readouterr().err.startswith("config error: k:")
        return
    holdout = LabeledSampleSet(np.zeros((3, 2)), np.ones(3))
    config = ExperimentConfig(learner="intersection", n=8, k=k, eps_grid=[0.02],
                              strategies=["none"], m_train=1_000)
    error, call = {
        "Intersection": (ValueError, lambda: Intersection([LTF(unit(2, 0), 0.0)] * k)),
        "make_cover": (ValueError, lambda: make_cover(k, 1, 0.5)),
        "select_intersection_cover":
            (ValueError, lambda: select_intersection_cover(np.eye(2), np.zeros(2), k, holdout)),
        "ExperimentConfig.validate": (ConfigError, config.validate),
    }[entry]
    with pytest.raises(error):
        call()


def test_default_cover_delta_properties():
    assert default_cover_delta(1, 1e-12) >= 0.05
    assert default_cover_delta(3, 0.3) <= 0.95
    assert default_cover_delta(1, 0.005) < default_cover_delta(1, 0.05)
    assert default_cover_delta(1, 0.02) < default_cover_delta(3, 0.02)


@pytest.mark.parametrize("k", [1, K_CAP])
def test_default_cover_fits_the_cap(k):
    # learn_intersection builds its cover once at the default delta, so
    # that delta must be legal for make_cover and its largest cover (dim k)
    # must fit COMBO_CAP at every eps
    for eps in np.linspace(0.0, 0.333, 334):
        delta = default_cover_delta(k, float(eps))
        assert intersection_learner.DELTA_FLOOR <= delta <= 4 * k
        assert len(make_cover(k, k, delta)) <= COMBO_CAP + 2


# --- direction_correlation --------------------------------------------------------


def test_direction_correlation_shifted_halfspace():
    # f01 = 1{x1 >= -1}, v = e1: the statistic is
    # hypot(phi(1), -phi(1)/sqrt(2)) = phi(1) sqrt(3/2) ~= 0.29635
    expected = norm.pdf(1.0) * math.sqrt(1.5)
    assert expected == pytest.approx(0.2963524, abs=1e-6)

    n = 4
    pts = np.random.default_rng(31).standard_normal((400_000, n))
    f01 = (pts[:, 0] >= -1.0).astype(np.float64)
    got = direction_correlation(LabeledSampleSet(pts, f01), unit(n, 0))
    assert got == pytest.approx(expected, abs=0.01)


def test_direction_correlation_orthogonal_direction():
    n = 4
    pts = np.random.default_rng(37).standard_normal((200_000, n))
    f01 = (pts[:, 0] >= -1.0).astype(np.float64)
    assert direction_correlation(LabeledSampleSet(pts, f01), unit(n, 1)) <= 0.01


def test_direction_correlation_validation():
    pts = np.zeros((10, 3))
    with pytest.raises(ValueError):
        direction_correlation(LabeledSampleSet(pts, np.ones(10)), np.ones(3))
    with pytest.raises(ValueError):
        direction_correlation(LabeledSampleSet(pts, -np.ones(10)), unit(3, 0))


# --- learn_intersection -----------------------------------------------------------


def test_learn_intersection_k1_reduces_to_ltf():
    n = 6
    dist = gaussian_descriptor(n, 2, 0.0)
    pts = dist.sample(60_000, 100)
    f = Intersection([LTF(unit(n, 0), 0.0)])
    out = learn_intersection(LabeledSampleSet(pts, f.evaluate(pts)), 1, 0.0,
                             source=clean_source(f, dist), m_tournament=10_000, seed=1)
    fresh = dist.sample(100_000, 101)
    dis = float(np.mean(out.evaluate(fresh) != f.evaluate(fresh)))
    assert dis <= 0.05


def test_learn_intersection_k2_planted_orthogonal():
    n = 8
    eps = 0.02
    dist = gaussian_descriptor(n, 2, eps)
    pts = dist.sample(100_000, 200)
    f = Intersection([LTF(unit(n, 0), 0.5), LTF(unit(n, 1), 0.5)])
    clean = LabeledSampleSet(pts, f.evaluate(pts))
    corr = corrupt(clean, f, eps, AdversaryStrategy("chow_attack"), dist, 201)

    source = make_corrupted_source(f, dist, eps, AdversaryStrategy("chow_attack"))
    out = learn_intersection(corr, 2, eps, source=source, m_tournament=10_000, seed=2)
    truth_span = np.column_stack([unit(n, 0), unit(n, 1)])
    angles = subspace_angles(out.subspace, truth_span)
    assert math.degrees(angles.max()) <= 15.0

    fresh = dist.sample(100_000, 202)
    dis = float(np.mean(out.evaluate(fresh) != f.evaluate(fresh)))
    assert dis <= 0.1


def test_learn_intersection_criterion_11_plant_pinned():
    """The criterion-11 plant at eps = 0.02 with that criterion's seeds. The
    winner and holdout error are those of the exhaustive tournament over
    every direction pair; the branch and bound must leave them unchanged
    while it histograms only part of the pairs."""
    n, k, theta, eps = 8, 2, 0.5, 0.02
    hyp = Intersection([LTF(unit(n, 0), theta), LTF(unit(n, 1), theta)])
    dist = gaussian_descriptor(n, 2, eps)
    s_train, s_learn, _ = np.random.SeedSequence(1111, spawn_key=(20,)).spawn(3)
    source = make_corrupted_source(hyp, dist, eps, AdversaryStrategy("chow_attack", rho=0.9))
    out = learn_intersection(source(200_000, s_train), k, eps, source=source,
                             seed=int(s_learn.generate_state(1)[0]))
    prov = out.provenance
    assert (prov["winner_index"], prov["holdout_error"]) == (58927, 0.01755)
    assert prov["pairs_total"] == math.comb(prov["directions"] + 1, 2)
    assert prov["pairs_scored"] < prov["pairs_total"]


PLANT_GRID = [(thetas, angle) for angle in (90, 60)
              for thetas in ((0.0, 0.0), (1.0, 1.0), (-0.5, 0.5), (0.5, 0.5), (0.0, 1.0))]


@pytest.mark.parametrize("index", range(len(PLANT_GRID)),
                         ids=[f"thetas{t}-{a}deg" for t, a in PLANT_GRID])
def test_learn_intersection_k2_plant_grid(index):
    # equal and mixed thresholds of both signs, normals at 90 and 60 degrees:
    # the subspace has dim k = 2 whether or not the second mat2 eigenvalue
    # clears the noise floor, so every cover fits the cap
    thetas, angle = PLANT_GRID[index]
    n, k, eps = 8, 2, 0.02
    a = math.radians(angle)
    v2 = math.cos(a) * unit(n, 0) + math.sin(a) * unit(n, 1)
    f = Intersection([LTF(unit(n, 0), thetas[0]), LTF(v2, thetas[1])])
    dist = gaussian_descriptor(n, 2, eps)
    s_train, s_learn, s_score = np.random.SeedSequence(1, spawn_key=(index,)).spawn(3)
    source = make_corrupted_source(f, dist, eps, AdversaryStrategy("chow_attack", rho=0.9))
    out = learn_intersection(source(200_000, s_train), k, eps, source=source,
                             seed=int(s_learn.generate_state(1)[0]))
    assert out.provenance["subspace_dim"] == 2
    truth_span = np.column_stack([unit(n, 0), unit(n, 1)])
    assert math.degrees(subspace_angles(out.subspace, truth_span).max()) <= 15.0
    fresh = dist.sample(100_000, s_score)
    assert float(np.mean(out.evaluate(fresh) != f.evaluate(fresh))) <= 0.1


def target_record(corrupted, eps):
    """The record of the target filter learn_intersection runs."""
    dist = gaussian_descriptor(corrupted.n, 2, eps)
    return robust_chow(corrupted, dist, FilterParams(eps)).provenance


def test_learn_intersection_provenance_records_the_cover():
    n = 4
    dist = gaussian_descriptor(n, 2, 0.0)
    pts = dist.sample(20_000, 500)
    f = Intersection([LTF(unit(n, 0), 0.3)])
    train = LabeledSampleSet(pts, f.evaluate(pts))
    out = learn_intersection(train, 1, 0.0, source=clean_source(f, dist),
                             m_tournament=5_000, seed=5)
    prov = out.provenance
    assert set(prov) == {"subspace_dim", "delta", "grid_size",
                         "directions", "thresholds_per_direction", "winner_index",
                         "holdout_error", "pairs_scored", "pairs_total", "target"}
    # the target filter's whole record, as learn_ptf keeps it
    assert prov["target"] == target_record(train, 0.0)
    # one cover, at the default delta: a 62-member grid on the dim-1 subspace
    assert prov["delta"] == default_cover_delta(1, 0.0)
    assert prov["subspace_dim"] == out.subspace.shape[1] == 1
    assert prov["grid_size"] == 62
    assert prov["directions"] * prov["thresholds_per_direction"] == prov["grid_size"]
    assert 0 <= prov["winner_index"] < prov["grid_size"]
    assert 0.0 <= prov["holdout_error"] <= 0.1
    # at k = 1 every direction is scored in one histogram
    assert prov["pairs_scored"] == prov["pairs_total"] == prov["directions"]
    assert "provenance" not in out.to_json()


def test_learn_intersection_takes_an_int_or_a_seed_sequence():
    # the holdout draws from SeedSequence(seed) either way, as in learn_ltf
    n = 4
    dist = gaussian_descriptor(n, 2, 0.0)
    pts = dist.sample(20_000, 500)
    f = Intersection([LTF(unit(n, 0), 0.3)])
    train = LabeledSampleSet(pts, f.evaluate(pts))
    a, b = (learn_intersection(train, 1, 0.0, source=clean_source(f, dist),
                               m_tournament=5_000, seed=seed)
            for seed in (5, np.random.SeedSequence(5)))
    assert [(h.v.tolist(), h.theta) for h in a.halfspaces] == \
        [(h.v.tolist(), h.theta) for h in b.halfspaces]


def test_learn_intersection_reads_a_seed_sequence_without_spending_it():
    # one SeedSequence object passed twice draws the same holdout both times
    n = 4
    dist = gaussian_descriptor(n, 2, 0.0)
    pts = dist.sample(20_000, 500)
    f = Intersection([LTF(unit(n, 0), 0.3)])
    train = LabeledSampleSet(pts, f.evaluate(pts))
    seed = np.random.SeedSequence(5)
    a, b = (learn_intersection(train, 1, 0.0, source=clean_source(f, dist),
                               m_tournament=5_000, seed=seed) for _ in range(2))
    assert a.provenance == b.provenance
    assert [(h.v.tolist(), h.theta) for h in a.halfspaces] == \
        [(h.v.tolist(), h.theta) for h in b.halfspaces]


def test_learn_intersection_constant_target():
    n = 4
    dist = gaussian_descriptor(n, 2, 0.0)
    pts = dist.sample(20_000, 400)
    const = Intersection([LTF(unit(n, 0), 1e9)])  # labels every point +1
    train = LabeledSampleSet(pts, np.ones(20_000))
    out = learn_intersection(train, 1, 0.0, source=clean_source(const, dist), seed=4)
    assert out.subspace.shape == (n, 0)
    assert set(out.provenance) == {"subspace_dim", "target"}
    assert out.provenance["target"] == target_record(train, 0.0)
    assert out.provenance["subspace_dim"] == 0
    fresh = dist.sample(5_000, 401)
    assert np.array_equal(out.evaluate(fresh), np.ones(5_000))


def test_lift_prediction_equality():
    # ambient evaluation must factor through the projection exactly
    n = 7
    rng = np.random.default_rng(41)
    basis = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    sub = Subspace(basis)
    g = Intersection([LTF(np.array([0.6, 0.8]), 0.3),
                      LTF(np.array([-1.0, 0.0]), 0.9)])
    lifted = []
    for member in g.halfspaces:
        v_amb = basis @ member.v
        lifted.append(LTF(v_amb / np.linalg.norm(v_amb), member.theta))
    h = Intersection(lifted)
    pts = rng.standard_normal((20_000, n))
    assert np.array_equal(h.evaluate(pts), g.evaluate(sub.project(pts)))
