import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feature_rows import feature_rows

from robustchow import chowfilter, ptf_learner
from robustchow.adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from robustchow.chowfilter import (ChowEstimate, FilterParams, _cut_floor, _filter,
                                   _pass_scores, _required, _score_floor, _survivor_sums,
                                   _threshold_cut,
                                   chow_distance, empirical_chow, prune_mask, robust_chow)
from robustchow.distributions import (gaussian_descriptor, hypercube_descriptor,
                                      log_concave_descriptor)
from robustchow.errors import (AllPointsPruned, BasisMismatch, ChowBoundViolated,
                               NoThresholdFound, RobustChowError)
from robustchow.ltf_learner import LTF
from robustchow.polybasis import TILE_ROWS, Polynomial, enumerate_basis, eval_monomials_batch
from robustchow.ptf_learner import PBF, make_sampling_oracle

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# Sample sizes below are multiples of this plus a remainder, so samples of
# degree >= 2 end in a partial featurization tile.
BLOCK_ROWS = 2 * TILE_ROWS


def ltf_instance(n=10, m=20_000, theta=0.0, eps=0.1, seed=0, d=1):
    dist = gaussian_descriptor(n, d, eps)
    v = np.zeros(n)
    v[0] = 1.0
    f = LTF(v, theta)
    pts = dist.sample(m, seed)
    return dist, f, LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))


def prune_keep(s, dist):
    """The prune rule's keep mask on a sample set, featurized by the descriptor."""
    h = feature_rows(dist, s.points)
    return prune_mask(np.einsum("ij,ij->i", h, h), dist)


def two_cluster_attack(n=6, m=10_000, seed=0):
    """Two chow_attack clusters in different directions: two cuts."""
    dist, f, s = ltf_instance(n=n, m=m, eps=0.1, seed=seed)
    bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, seed + 100)
    return dist, corrupt(bad, f, 0.1, AdversaryStrategy("chow_attack", rho=0.6), dist, seed + 200)


def dense_filter(s, dist, params):
    """The filter without one-pass sums, downdates or orthonormal featurizers:
    whiten the whole stored monomial matrix, prune rows that are extreme,
    overflowed or have mass in Sigma's null directions, rebuild the
    survivors' Gram matrix every pass, average a survivor copy of the
    monomial rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi = eval_monomials_batch(dist.basis, s.points)
        isqrt, null_vectors = dist.whitener()
        z = phi @ isqrt
        alive = prune_mask(np.einsum("ij,ij->i", z, z), dist)
        if null_vectors.shape[1] > 0:
            alive &= (np.abs(phi @ null_vectors).max(axis=1)
                      <= 1e-8 * np.linalg.norm(phi, axis=1))
    break_level = chowfilter.C_BREAK * (dist.gamma + dist.delta + params.eps)
    for _ in range(chowfilter.MAX_ITERATIONS):
        z_alive = z[alive]
        vals, vecs = np.linalg.eigh(z_alive.T @ z_alive / len(z_alive))
        lam, v = vals[-1], vecs[:, -1]
        if lam - 1.0 <= break_level:
            break
        scores = np.abs(np.einsum("ij,j->i", z_alive, v))
        _, keep = _threshold_cut(scores, dist, params.eps, scores.size)
        alive[np.nonzero(alive)[0][~keep]] = False
    return alive, s.labels[alive] @ phi[alive] / alive.sum()


def assert_matches_dense(s, dist, params, atol=1e-12):
    """Same survivors as the dense whitened-monomial reference, and chi
    within atol of its monomial mean."""
    with np.errstate(over="ignore", invalid="ignore"):
        est = robust_chow(s, dist, params)
    alive, chi = dense_filter(s, dist, params)
    assert np.array_equal(est.keep_mask, alive)
    assert np.allclose(est.chi, chi, rtol=0, atol=atol)
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


def test_chow_estimate_cauchy_schwarz_is_a_library_error():
    # |chi_i| <= 2 sqrt(Sigma_ii): data that breaks it is a learner failure,
    # not a ValueError the CLI would report as a config error
    dist = gaussian_descriptor(3, 1, 0.1)
    chi = np.zeros(dist.ell)
    chi[1] = 2.0
    ChowEstimate(chi, dist.basis, dist, {})
    chi[1] = 2.01
    with pytest.raises(ChowBoundViolated, match="Cauchy-Schwarz") as exc:
        ChowEstimate(chi, dist.basis, dist, {})
    assert isinstance(exc.value, RobustChowError) and not isinstance(exc.value, ValueError)
    ChowEstimate(chi, dist.basis, None, {})   # no reference law, no bound


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


def test_chow_estimate_rejects_a_dist_of_another_basis():
    # equal ell (6) but another (n, d): accepted silently once
    dist = gaussian_descriptor(2, 2, 0.1)
    with pytest.raises(BasisMismatch):
        ChowEstimate(np.zeros(6), enumerate_basis(5, 1), dist)
    # another ell: a BasisMismatch, not numpy's broadcast ValueError
    with pytest.raises(BasisMismatch):
        ChowEstimate(np.zeros(4), enumerate_basis(3, 1), dist)
    with pytest.raises(BasisMismatch):
        ChowEstimate(np.zeros(dist.ell), dist.basis, hypercube_descriptor(2, 2, 0.1))
    data = ChowEstimate(np.zeros(6), enumerate_basis(5, 1), None).to_json()
    with pytest.raises(BasisMismatch):
        ChowEstimate.from_json(data, dist=dist)


# --- eigenvector sign ---------------------------------------------------------

def test_filter_ignores_eigenvector_sign(monkeypatch):
    # every score is |h . v|: negating v negates each product and partial
    # sum exactly, so the cuts, the survivors and chi do not change
    dist, bad = two_cluster_attack()
    est = robust_chow(bad, dist, FilterParams(eps=0.1))
    real = np.linalg.eigh

    def negated(m_mat):
        vals, vecs = real(m_mat)
        return vals, -vecs

    monkeypatch.setattr(np.linalg, "eigh", negated)
    flipped = robust_chow(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["iterations"] >= 3  # two cuts, then converged
    assert np.array_equal(flipped.keep_mask, est.keep_mask)
    assert np.array_equal(flipped.chi, est.chi)
    assert flipped.provenance == est.provenance


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


# --- sample sizes, pruned runs and Gram downdates ----------------------------

def test_downdated_gram_matches_rebuilt(monkeypatch):
    dist, bad = two_cluster_attack()
    seen = []
    real = np.linalg.eigh

    def spy(m_mat):
        seen.append(m_mat.copy())
        return real(m_mat)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    est = robust_chow(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["iterations"] == len(seen) >= 3  # two cuts, then converged
    h = feature_rows(dist, bad.points[est.keep_mask])
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
    run = slice(BLOCK_ROWS - 100, 3 * BLOCK_ROWS + 100)
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


def test_identical_points_share_one_decision(monkeypatch):
    # Clones of one attack point fill the sample's last 8 rows, for every
    # residue of m mod 8: a BLAS gemv may round those tail rows differently
    # from the others and split the cluster at the cut. robust_chow and the
    # PTF oracle's filter must each cut every clone, at d = 1 and d = 3.
    real_rows = ptf_learner.corrupted_rows
    moved = []

    def tail_clones(clean, f, eps, strategy, dist, seed):
        # chow_attack moves every row it picks to one point x0; the last 8 move too
        idx, points, _ = real_rows(clean, f, eps, strategy, dist, seed)
        idx = np.union1d(idx, np.arange(len(clean) - 8, len(clean)))
        moved.append(idx)
        return idx, np.tile(points[0], (idx.size, 1)), np.ones(idx.size)

    monkeypatch.setattr(ptf_learner, "corrupted_rows", tail_clones)
    for d, n in ((1, 20), (3, 6)):
        for m in range(4000, 4008):
            dist, f, s = ltf_instance(n=n, m=m, eps=0.1, seed=m, d=d)
            bad = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, m + 50)
            pts, labels = bad.points.copy(), bad.labels.copy()
            first = np.nonzero(bad.corrupted_mask)[0][0]
            pts[-8:], labels[-8:] = pts[first], labels[first]
            est = robust_chow(LabeledSampleSet(pts, labels), dist, FilterParams(eps=0.1))
            assert not est.keep_mask[np.all(pts == pts[first], axis=1)].any(), (d, m)

            oracle = make_sampling_oracle(dist, 0.1, AdversaryStrategy("chow_attack"), m, m)
            coeffs = np.zeros(dist.ell)
            coeffs[1] = 0.5
            est = oracle(PBF(Polynomial(dist.basis, coeffs), 0.5))
            assert not est.keep_mask[moved[-1]].any(), (d, m)


def tile_scores(tiles, rows, v):
    """|h(x) . v| for the given rows, tile by tile, as a scoring pass takes
    them, but for every row given."""
    out = np.empty(len(rows))
    for cols, block in tiles(rows):
        np.einsum("ij,j->i", block.T, v, out=out[cols])
    return np.abs(out)


def test_a_clone_alone_in_its_tile_scores_as_in_a_full_tile():
    # einsum takes a contiguous one-row block by its reduction kernel, which
    # rounds unlike its per-row loop (at ell = 455 most one-row scores
    # differ in the last bits). A clone that lands alone in the last
    # candidate tile, or is the only candidate, must score as its clones in
    # a full tile do, or the cut can split their cluster.
    dist = gaussian_descriptor(12, 3, 0.05)
    m = TILE_ROWS + 40
    pts = dist.sample(m, 0)
    clones = np.array([5, 17, TILE_ROWS + 30])
    pts[clones] = 1.5 * pts[clones[0]]
    tiles = functools.partial(dist.feature_tiles, pts)
    alive, norm2, _, _ = _survivor_sums(tiles(), dist)
    v = np.random.default_rng(1).standard_normal(dist.ell)
    v /= np.linalg.norm(v)
    every = tile_scores(tiles, np.arange(m), v)
    assert every[clones[0]] == every[clones[1]] == every[clones[2]]
    # scores reach the cut only where these norms say: the first tile's
    # rows and the last clone (TILE_ROWS + 1 candidates), then that clone alone
    for chosen in (np.r_[np.arange(TILE_ROWS), clones[2]], clones[2:]):
        reach = np.zeros(m)
        reach[chosen] = np.inf
        rows, scores = _pass_scores(tiles, alive, reach, v, dist, 0.05, int(alive.sum()))
        assert np.array_equal(rows, chosen)
        assert scores.tobytes() == every[chosen].tobytes()


@functools.lru_cache(maxsize=None)
def scoring_family(name):
    """The descriptors the candidate test runs on."""
    if name == "log-concave d2":
        return null_direction_family()
    family, d = name.split(" d")
    make = gaussian_descriptor if family == "gaussian" else hypercube_descriptor
    return make(6 if family == "hypercube" else 4, int(d), 0.1)


def matrix_tiles(h):
    """A tile source over a fixed (ell, m) feature matrix that gathers the
    rows it is asked for into one reused buffer, as `feature_tiles` does."""
    def tiles(rows=None):
        rows = np.arange(h.shape[1]) if rows is None else rows
        buf = np.empty((h.shape[0], max(2, min(len(rows), TILE_ROWS))))
        for c0 in range(0, len(rows), TILE_ROWS):
            cols = slice(c0, min(c0 + TILE_ROWS, len(rows)))
            block = buf[:, :cols.stop - c0]
            block[...] = h[:, rows[cols]]
            yield cols, block
    return tiles


def cut_outcome(scores, rows, dist, eps, m):
    """(T, rows removed) of the cut on the given rows' scores, fractions
    over m rows, or the message of its NoThresholdFound."""
    try:
        t, keep = _threshold_cut(scores, dist, eps, m)
    except NoThresholdFound as err:
        return str(err)
    return t, rows[~keep].tolist()


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["gaussian d1", "gaussian d2", "gaussian d3",
                               "hypercube d1", "hypercube d2", "log-concave d2"]),
       m=st.integers(50, TILE_ROWS + 300), seed=st.integers(0, 2 ** 16),
       near=st.integers(0, 40), share=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
       scale=st.floats(0.5, 6.0), aim=st.sampled_from(["eigen", "near", "cluster"]),
       eps=st.sampled_from([0.0, 0.1]))
def test_candidate_scoring_matches_scoring_every_row(family, m, seed, near, share, scale,
                                                     aim, eps):
    # |h . v| <= |h| for the unit v: scoring only the rows whose norm can
    # reach the score floor gives the cut of scoring every row, the same T
    # and rows removed, or the same NoThresholdFound message. Rows are
    # featurized samples, some rescaled to within an ulp or two of the
    # candidate floor or of the cut floor, and a cluster of copies of one
    # row at scale x the candidate floor; v is the top eigenvector or
    # points at a near-floor row or the cluster.
    dist = scoring_family(family)
    rng = np.random.default_rng(seed)
    if family.startswith("log-concave"):
        pts = gaussian_descriptor(3, 2, 0.1).sample(m, seed) * np.r_[1.0, 0.0, 1.0]
        pts[rng.choice(m, m // 50, replace=False), 1] = 0.01   # null-direction mass
    else:
        pts = dist.sample(m, seed)
    h = feature_rows(dist, pts).T   # (ell, m), C-contiguous
    floor = _cut_floor(dist) * (1.0 - 1e-9)
    aims = {"eigen": None}
    if share:
        k = max(1, int(share * m))
        base = h[:, rng.integers(m)]
        base = base * (scale * floor / np.linalg.norm(base))
        h[:, :k] = base[:, None]
        aims["cluster"] = base
    near_rows = rng.choice(m, min(near, m), replace=False)
    for j, i in enumerate(near_rows):
        # within a few ulps of the candidate floor or of the cut floor
        target = floor if j % 2 else _cut_floor(dist)
        h[:, i] *= target / np.linalg.norm(h[:, i]) * (1.0 + (j % 5 - 2) * 2.0 ** -53)
        aims["near"] = h[:, i]
    tiles = matrix_tiles(h)
    alive, norm2, gram, _ = _survivor_sums(tiles(), dist)
    if not alive.any():
        return
    v = aims.get(aim)
    v = np.linalg.eigh(gram)[1][:, -1] if v is None else v / np.linalg.norm(v)
    v = np.ascontiguousarray(v)
    idx = np.flatnonzero(alive)
    rows, scores = _pass_scores(tiles, alive, norm2, v, dist, eps, idx.size)
    reach = idx[norm2[idx] >= (floor * (1.0 - 1e-9)) ** 2]
    score_floor = _score_floor(norm2, reach, dist, eps, idx.size)
    assert score_floor >= _cut_floor(dist)
    every = tile_scores(tiles, idx, v)
    left_out = ~np.isin(idx, rows)
    assert (np.sqrt(norm2[idx[left_out]]) < score_floor).all()
    assert (every[left_out] < score_floor).all()
    assert scores.tobytes() == every[~left_out].tobytes()
    assert cut_outcome(scores, rows, dist, eps, idx.size) == \
        cut_outcome(every, idx, dist, eps, idx.size)


def test_score_floor_rises_above_the_cut_floor_on_a_far_cluster():
    # A ptf-d2-like pass: at (n, d) = (8, 2) about one clean row in eight
    # reaches the cut floor, but a cut there needs 4 Q(T) ~ all rows. The
    # floor rises to where the cluster of 1% of the rows can hold a cut,
    # leaves out most rows at or above the cut floor and keeps the cut of
    # scoring every row, which removes the cluster.
    dist = gaussian_descriptor(8, 2, 0.01)
    m = 4 * TILE_ROWS + 77
    pts = dist.sample(m, 3)
    pts[: m // 100] = pts[0] * (6.0 / np.linalg.norm(pts[0]))
    h = feature_rows(dist, pts).T
    tiles = matrix_tiles(h)
    alive, norm2, gram, _ = _survivor_sums(tiles(), dist)
    v = np.ascontiguousarray(np.linalg.eigh(gram)[1][:, -1])
    low = _cut_floor(dist) * (1.0 - 1e-9)
    reach = np.flatnonzero(alive & (norm2 >= low ** 2))
    floor = _score_floor(norm2, reach, dist, 0.01, m)
    assert floor > 1.5 * _cut_floor(dist)
    rows, scores = _pass_scores(tiles, alive, norm2, v, dist, 0.01, m)
    assert m // 100 <= rows.size < reach.size / 4
    every = tile_scores(tiles, np.arange(m), v)
    outcome = cut_outcome(scores, rows, dist, 0.01, m)
    assert outcome == cut_outcome(every, np.arange(m), dist, 0.01, m)
    assert sorted(outcome[1]) == list(range(m // 100))


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["gaussian d1", "gaussian d2", "gaussian d3",
                               "hypercube d2", "log-concave d2"]),
       m=st.integers(1, 3000), below=st.integers(0, 30_000), seed=st.integers(0, 2 ** 16),
       spread=st.floats(0.0, 3.0), cluster=st.floats(0.0, 0.3),
       where=st.floats(1.0, 40.0), eps=st.sampled_from([0.0, 0.01, 0.1]))
def test_score_floor_is_below_every_score_the_cut_accepts(family, m, below, seed, spread,
                                                          cluster, where, eps):
    # The worst case for the floor is a score equal to its row's norm:
    # every such score that passes the tail test lies at or above it. m
    # rows reach the cut floor, their norms spread log-normally above it,
    # some of them clustered; `below` more rows count in the fractions only.
    dist = scoring_family(family)
    rng = np.random.default_rng(seed)
    low = _cut_floor(dist)
    norms = low * np.exp(spread * np.abs(rng.standard_normal(m)))
    norms[: int(cluster * m)] = where * low
    floor = _score_floor(norms ** 2, np.arange(m), dist, eps, m + below)
    assert floor >= low
    top = np.unique(norms)
    counts = m - np.searchsorted(np.sort(norms), top)
    valid = top[counts / (m + below) >= _required(top, dist, eps)]
    assert (valid >= floor).all()


def test_filter_records_each_pass(monkeypatch):
    dist, bad = two_cluster_attack()
    prov = robust_chow(bad, dist, FilterParams(eps=0.1)).provenance
    passes = prov["passes"]
    assert len(passes) == prov["iterations"] >= 3   # two cuts, then converged
    break_level = chowfilter.C_BREAK * (dist.gamma + dist.delta + 0.1)
    *cuts, last = passes
    for p in cuts:
        assert p["lambda"] > break_level and p["cut"] >= _cut_floor(dist)
        assert 0 < p["removed"] <= p["scored"] <= len(bad)
    assert last == {"lambda": prov["final_lambda"], "cut": None, "removed": 0, "scored": 0}
    assert last["lambda"] <= break_level
    assert sum(p["removed"] for p in passes) == prov["filtered"]
    lambdas = [p["lambda"] for p in passes]
    assert lambdas == sorted(lambdas, reverse=True)
    assert json.loads(json.dumps(prov)) == prov
    # the hypercube at n = 6, d = 1 scores no row at all: every norm is
    # sqrt(7), below the cut floor, so a pass that must cut ends degraded
    monkeypatch.setattr(chowfilter, "C_BREAK", 0.01)
    cube = hypercube_descriptor(6, 1, 0.1)
    pts = cube.sample(5000, 0)
    prov = robust_chow(LabeledSampleSet(pts, np.sign(pts[:, 0])), cube,
                       FilterParams(eps=0.1)).provenance
    assert prov["degraded"] and len(prov["passes"]) == 1
    assert prov["passes"][0]["scored"] == 0 and prov["passes"][0]["cut"] is None


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
    h = feature_rows(dist, pts)
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


def null_direction_family(eps=0.1):
    """Gaussian degree-2 moments with every x_2 monomial zeroed: the law of
    (x_1, 0, x_3), whose whitened rows have null directions."""
    gauss = gaussian_descriptor(3, 2, eps)
    table = gauss.sigma.copy()
    on_x2 = gauss.basis.exponents[:, 1] > 0
    table[on_x2] = 0.0
    table[:, on_x2] = 0.0
    return log_concave_descriptor(3, 2, table, 0.0, eps)


def attacked_sample(family, m, seed):
    """A chow_attack sample of m rows in one family at degree 2 and, off the
    hypercube (which never prunes), far and overflowed rows in several
    tiles. Returns (dist, sample, rows the prune must drop)."""
    dist = {"gaussian": lambda: gaussian_descriptor(5, 2, 0.1),
            "hypercube": lambda: hypercube_descriptor(6, 2, 0.1),
            "log-concave": null_direction_family}[family]()
    # the log-concave law lives on x_2 = 0, the attack cluster too
    on_law = np.r_[1.0, 0.0, 1.0] if family == "log-concave" else 1.0
    pts = gaussian_descriptor(dist.basis.n, 2, 0.1).sample(m, seed) * on_law \
        if family != "hypercube" else dist.sample(m, seed)
    f = LTF(np.eye(dist.basis.n)[0], 0.3)
    clean = LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))
    bad = corrupt(clean, f, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, seed + 1)
    if family == "hypercube":
        return dist, bad, np.zeros(0, dtype=np.int64)
    pts = bad.points * on_law
    rows = np.unique([r % m for r in (0, TILE_ROWS - 1, TILE_ROWS + 3,
                                      2 * TILE_ROWS + 5, 3 * TILE_ROWS, m - 1)])
    pts[rows[0::2]] = 1e6     # beyond the prune radius
    pts[rows[1::2], 0] = 1e200   # squares overflow: inf, and NaN once whitened
    if family == "log-concave":   # one more row, with mass in a null direction
        pts[TILE_ROWS // 2, 1] = 0.01
        rows = np.union1d(rows, TILE_ROWS // 2)
    return dist, LabeledSampleSet(pts, bad.labels), rows


@pytest.mark.parametrize("m", [TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 1])
@pytest.mark.parametrize("family", ["gaussian", "hypercube", "log-concave"])
def test_streamed_tiles_match_dense_filter(family, m):
    # m one below, at and one above a tile, and a one-row last tile; pruned
    # and overflowed rows in several tiles
    dist, bad, dropped = attacked_sample(family, m, m)
    # the downdate subtracts the cut rows from the sums, and the log-concave
    # cluster sits at whitened norm 9439 (T_max = 14833): chi keeps about
    # 1e-15 T_max of that cancellation (4.9e-12 at m = 6145, the same
    # before the rows were streamed)
    atol = 1e-15 * dist.t_max if family == "log-concave" else 1e-12
    est = assert_matches_dense(bad, dist, FilterParams(eps=0.1), atol)
    assert est.provenance["pruned"] == dropped.size
    # the hypercube keeps its chow_attack cluster (see the README)
    assert (est.provenance["filtered"] > 0) == (family != "hypercube")
    assert not est.keep_mask[dropped].any()


@pytest.mark.parametrize("cap", [1, chowfilter.MAX_ITERATIONS])
def test_two_clusters_match_dense_filter_capped_and_uncapped(monkeypatch, cap):
    monkeypatch.setattr(chowfilter, "MAX_ITERATIONS", cap)
    dist, bad = two_cluster_attack(m=3 * TILE_ROWS + 1, seed=3)
    est = assert_matches_dense(bad, dist, FilterParams(eps=0.1))
    assert est.provenance["cap_reached"] == (cap == 1)
    assert est.provenance["iterations"] >= (1 if cap == 1 else 3)


@pytest.mark.parametrize("family", ["gaussian", "hypercube", "log-concave"])
def test_a_changed_tile_leaves_the_next_tiles_whole(family):
    # a consumer may change a block it is handed, say zero a pruned row's
    # column, constant entry included; the tiles after it must still hold
    # their rows, constant row and all, though they reuse one buffer
    dist, bad, _ = attacked_sample(family, 3 * TILE_ROWS + 1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        want = feature_rows(dist, bad.points).T
        for cols, block in dist.feature_tiles(bad.points):
            assert np.array_equal(block, want[:, cols], equal_nan=True)
            block[:, 0] = 0.0


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
    t, keep = _threshold_cut(scores, dist, 0.1, scores.size)
    assert t is not None and 1.0 < t <= 9.0
    assert keep.sum() <= 4500  # outlier block removed
    assert not keep[:500].any()


def test_threshold_cut_rejects_clean_gaussian_scores():
    dist = gaussian_descriptor(6, 1, 0.1)
    rng = np.random.default_rng(1)
    scores = np.abs(rng.standard_normal(5000))
    # clean scores never beat 4 Q_1(T) + 3 eps / T_max^2
    with pytest.raises(NoThresholdFound):
        _threshold_cut(scores, dist, 0.1, scores.size)


def unique_searchsorted_cut(scores, dist, eps):
    """The cut rule with a full sort, np.unique candidates and searchsorted
    counts, as a reference for the cut, which sorts only the top scores.
    All-zero scores take the same message as any other sample without a
    cut: the filter scores 0 for every row that cannot reach the cut, so
    zero scores need not be zero projections."""
    order = np.sort(scores)
    candidates = np.unique(order)
    candidates = candidates[candidates > 0.0]
    if candidates.size == 0:
        raise NoThresholdFound("no sample value satisfies the tail-excess test")
    frac = (scores.size - np.searchsorted(order, candidates, side="left")) / scores.size
    valid = frac >= 4.0 * dist.tail(candidates) + 3.0 * eps / dist.t_max ** 2
    if not valid.any():
        raise NoThresholdFound("no sample value satisfies the tail-excess test")
    t_cut = float(candidates[np.nonzero(valid)[0][-1]])
    return t_cut, scores < t_cut


def assert_cut_matches_full_sort(scores, dist, eps):
    """_threshold_cut returns the full-sort reference's (T, keep) or raises
    its NoThresholdFound reason; returns T, or None when no cut exists."""
    try:
        want_t, want_keep = unique_searchsorted_cut(scores, dist, eps)
    except NoThresholdFound as err:
        with pytest.raises(NoThresholdFound, match=str(err)):
            _threshold_cut(scores, dist, eps, scores.size)
        return None
    t, keep = _threshold_cut(scores, dist, eps, scores.size)
    assert t == want_t and np.array_equal(keep, want_keep)
    return t


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
    cuts = [assert_cut_matches_full_sort(s, dist, 0.1) for s in cases]
    assert sum(t is not None for t in cuts) >= 2


def mixed_scores(m, seed, decimals, zero_frac, value, size):
    """|N(0, 1)| rounded to a grid (ties), a share of zeros and one tied
    cluster of `size` copies of `value`."""
    rng = np.random.default_rng(seed)
    scores = np.round(np.abs(rng.standard_normal(m)), decimals)
    scores[rng.random(m) < zero_frac] = 0.0
    scores[rng.choice(m, min(size, m), replace=False)] = value
    return scores


@functools.lru_cache(maxsize=None)
def cut_family(name):
    """One descriptor for each tail the cut reads."""
    if name == "log-concave d2":
        return log_concave_descriptor(6, 2, cut_family("gaussian d2").sigma, 0.0, 0.1)
    family, d = name.split(" d")
    make = gaussian_descriptor if family == "gaussian" else hypercube_descriptor
    return make(6, int(d), 0.1)


# the degree-1 Gaussian's crossing sqrt(2 ln 4): |N(0, 1)| scores and
# clusters up to 9 straddle it, and scaled by a family's crossing over this
# they straddle that family's
CROSSING_G1 = math.sqrt(2.0 * math.log(4.0))


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 6000), seed=st.integers(0, 2 ** 16), decimals=st.integers(0, 4),
       zero_frac=st.sampled_from([0.0, 0.3, 1.0]), value=st.floats(0.0, 9.0),
       size=st.integers(0, 3000), eps=st.sampled_from([0.0, 0.01, 0.1]),
       family=st.sampled_from(["gaussian d1", "gaussian d2", "gaussian d3",
                               "hypercube d2", "log-concave d2"]))
def test_threshold_cut_matches_full_sort(m, seed, decimals, zero_frac, value, size, eps,
                                         family):
    # tied clusters up to half of m below, at and above the crossing where
    # the tail bound falls to 1/4, plus one score at the crossing itself
    dist = cut_family(family)
    crossing = dist.tail.crossing(0.25)
    scores = mixed_scores(m, seed, decimals, zero_frac, value, size) * (crossing / CROSSING_G1)
    assert_cut_matches_full_sort(np.r_[scores, crossing], dist, eps)


@pytest.mark.parametrize("eps, scores, cuts", [
    pytest.param(0.1, mixed_scores(20_000, 1, 2, 0.0, 9.0, 2000), True, id="cluster above"),
    pytest.param(0.0, mixed_scores(20_000, 2, 3, 0.0, 3.0, 2000), True, id="cluster near"),
    pytest.param(0.1, mixed_scores(3000, 3, 3, 0.0, 3.0, 2000), True, id="two-thirds cluster"),
    # at eps 0 a tail of every score passes once Q(T) <= 1/4
    pytest.param(0.0, np.full(500, CROSSING_G1 * (1 + 1e-12)), True,
                 id="all above the crossing"),
    pytest.param(0.1, mixed_scores(20_000, 4, 8, 0.0, 0.0, 0), False, id="no valid threshold"),
    pytest.param(0.1, np.zeros(5000), False, id="all zero"),
])
def test_threshold_cut_sorts_only_the_tail_it_needs(monkeypatch, eps, scores, cuts):
    # no fraction exceeds 1, so no score whose tail bound is above 1/4 can
    # pass 4 Q(T) + 3 eps / T_max^2: the cut sorts once, and only the scores
    # at or above the crossing where the bound falls to 1/4
    dist = gaussian_descriptor(6, 1, 0.1)
    sorted_args = []
    real_sort = np.sort

    def counted(a, *args, **kwargs):
        sorted_args.append(np.array(a, copy=True))
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(chowfilter.np, "sort", counted)
    try:
        _threshold_cut(scores, dist, eps, scores.size)
    except NoThresholdFound:
        pass
    monkeypatch.undo()
    t = assert_cut_matches_full_sort(scores, dist, eps)
    assert (t is not None) == cuts
    inside = scores >= dist.tail.crossing(0.25) * (1.0 - 1e-9)
    assert len(sorted_args) == 1
    assert np.array_equal(np.sort(sorted_args[0]), np.sort(scores[inside]))
    assert (dist.tail(scores[~inside]) > 0.25).all()
    assert (dist.tail(scores[inside]) <= 0.25 * (1.0 + 1e-6)).all()


def test_threshold_prefers_largest_valid():
    dist = gaussian_descriptor(6, 1, 0.1)
    rng = np.random.default_rng(2)
    scores = np.abs(rng.standard_normal(4000))
    scores[:400] = 7.0
    scores[400:800] = 5.0
    t, _ = _threshold_cut(scores, dist, 0.1, scores.size)
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


def test_filtered_error_is_dimension_independent_at_degree_2():
    # The same claim at d = 2, at a fixed m = 1e5: against the clean
    # sample's own Chow vector the filtered error stays at about a quarter
    # of the sqrt(ell / m) sampling term for every n, while the raw mean of
    # the corrupted sample is off by thousands of times that.
    m, eps = 100_000, 0.05
    for n in (4, 8, 16, 24):
        dist, f, s = ltf_instance(n=n, m=m, eps=eps, seed=0, d=2)
        bad = corrupt(s, f, eps, AdversaryStrategy("chow_attack", rho=0.9), dist, 100)
        clean = empirical_chow(s, dist)
        err = chow_distance(robust_chow(bad, dist, FilterParams(eps=eps)), clean)
        raw = chow_distance(empirical_chow(bad, dist), clean)
        assert err <= 0.5 * math.sqrt(dist.ell / m), (n, err)
        assert raw >= 100.0 * err, (n, raw, err)


@pytest.mark.parametrize("n,d,eps", [(6, 2, 0.05), (12, 3, 0.05), (10, 1, 0.1)])
def test_filter_error_at_the_weakest_placement(n, d, eps):
    # chow_attack just under the break level, at whitened radius 0.95 r*
    # with r* = sqrt(C_BREAK (gamma + delta + eps) / eps): the eigen excess
    # eps r^2 stays below the break level, so no pass fires and the error is
    # about eps r. This pins the bound the filter meets today; a tighter
    # stop rule shows up as a smaller printed error.
    m = 100_000
    dist = gaussian_descriptor(n, d, eps)
    f = LTF(np.eye(n)[0], 0.5)
    pts = dist.sample(m, 1)
    s = LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))
    level = dist.gamma + dist.delta + eps
    r_star = math.sqrt(chowfilter.C_BREAK * level / eps)
    rho = 0.95 * r_star * math.sqrt(2.0) / dist.t_max
    bad = corrupt(s, f, eps, AdversaryStrategy("chow_attack", rho=rho), dist, 2)
    est = robust_chow(bad, dist, FilterParams(eps=eps))
    err = chow_distance(est, empirical_chow(s, dist))
    bound = math.sqrt(chowfilter.C_BREAK * eps * level) + 3.0 * math.sqrt(dist.ell / m)
    print(f"n={n} d={d} eps={eps}: r*={r_star:.1f}, whitened error {err:.3f} "
          f"(bound {bound:.3f}), rows removed "
          f"{est.provenance['pruned'] + est.provenance['filtered']}")
    assert err <= bound


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
    bad.points[[5, BLOCK_ROWS + 9]] = 1e6   # two pruned rows
    tiles = functools.partial(dist.feature_tiles, bad.points)
    alive, norm2, gram, label_sum = _survivor_sums(tiles(), dist, bad.labels)
    h = feature_rows(dist, bad.points)
    # the squared norms the prune reads, pruned rows included
    assert np.array_equal(norm2, np.einsum("ij,ij->i", h, h))
    assert np.array_equal(alive, prune_mask(norm2, dist)) and (~alive).sum() == 2
    live = h[alive]
    assert np.allclose(gram, live.T @ live, rtol=1e-12, atol=0)
    assert np.allclose(label_sum, bad.labels[alive] @ live, rtol=0, atol=1e-9)
    # without labels: the same mask, norms and Gram matrix, no label sum
    bare_alive, bare_norm2, bare_gram, bare_sum = _survivor_sums(tiles(), dist)
    assert np.array_equal(bare_alive, alive) and np.array_equal(bare_gram, gram)
    assert np.array_equal(bare_norm2, norm2) and bare_sum is None
    # the same tile source as robust_chow: the same estimate, bit for bit
    est = _filter(tiles, bad.labels, alive, norm2, gram, label_sum, dist, 0.1)
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


def test_robust_chow_stores_no_feature_matrix(monkeypatch):
    # the rows stream through one (ell, TILE_ROWS) buffer: the (m, ell)
    # matrix would take m * ell * 8 = 72.8 MB here, and the call peaks
    # below a quarter of it; after the sums, each pass streams only the rows
    # it scores and then the rows it cuts
    dist, f, s = ltf_instance(n=12, m=20_000, eps=0.05, seed=5, d=3)
    bad = corrupt(s, f, 0.05, AdversaryStrategy("chow_attack", rho=0.9), dist, 6)
    streamed = []
    real = dist.feature_tiles

    def counted(points, rows=None):
        streamed.append(len(points) if rows is None else len(rows))
        return real(points, rows)

    monkeypatch.setattr(dist, "feature_tiles", counted)
    tracemalloc.start()
    try:
        est = robust_chow(bad, dist, FilterParams(eps=0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(bad) * dist.ell * 8 / 4
    assert est.provenance["iterations"] >= 2 and est.provenance["filtered"] > 0
    passes = est.provenance["passes"]
    assert streamed[0] == len(bad)
    assert [r for r in streamed[1:] if r] == [r for p in passes
                                              for r in (p["scored"], p["removed"]) if r]
    assert sum(p["removed"] for p in passes) == est.provenance["filtered"]


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
    # a Gaussian descriptor arrives with its shared whitener built
    dists = [chow_distance(ests[i], ests[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert calls == []
    assert min(dists) > 0.0
    # a second descriptor with equal moments measures the same distance
    other = empirical_chow(LabeledSampleSet(s.points[1000:], s.labels[1000:]),
                           gaussian_descriptor(4, 1, 0.1))
    assert chow_distance(ests[0], other) == pytest.approx(dists[2], rel=1e-12)
    # a moment-table descriptor builds its whitener once, on first use
    lc = log_concave_descriptor(dist.basis.n, dist.basis.d, dist.sigma, 0.0, 0.1)
    lc_ests = [empirical_chow(LabeledSampleSet(s.points[k:], s.labels[k:]), lc)
               for k in (0, 500, 1000)]
    lc_dists = [chow_distance(lc_ests[i], lc_ests[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert calls == [(lc.ell, lc.ell)]
    assert lc_dists == pytest.approx(dists, rel=1e-9)


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
