import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustchow.adversary import LabeledSampleSet
from robustchow.errors import DimensionMismatch, EmptyHoldout
from robustchow import hypothesis_select, intersection_learner
from robustchow.hypothesis_select import (_bin_keys, disagreement, select,
                                          select_intersection_cover)
from robustchow.intersection_learner import make_cover
from robustchow.ltf_learner import LTF


def holdout_from(points, labels):
    return LabeledSampleSet(np.asarray(points, dtype=np.float64),
                            np.asarray(labels, dtype=np.float64))


def test_disagreement_exact_fractions():
    pts = np.array([[1.0], [2.0], [-3.0], [-0.5]])
    h = LTF(np.array([1.0]), 0.0)  # sign(x)
    s = holdout_from(pts, [1, 1, -1, -1])
    assert disagreement(h, s) == 0.0
    s2 = holdout_from(pts, [1, -1, -1, 1])
    assert disagreement(h, s2) == 0.5


def test_select_picks_minimum():
    pts = np.linspace(-2, 2, 101).reshape(-1, 1)
    truth = LTF(np.array([1.0]), 0.3)
    labels = truth.evaluate(pts).astype(np.float64)
    s = holdout_from(pts, labels)
    cands = [LTF(np.array([1.0]), t) for t in (-1.0, 0.0, 0.31, 1.0)]
    win, err = select(cands, s)
    assert win.theta == 0.31
    assert err <= 0.01


def test_select_tie_goes_to_lowest_index():
    pts = np.array([[1.0], [-1.0]])
    s = holdout_from(pts, [1, -1])
    same = LTF(np.array([1.0]), 0.0)
    cands = [same, LTF(np.array([1.0]), 1e-9)]
    win, err = select(cands, s)
    assert win is same
    assert err == 0.0


def test_select_empty_holdout():
    cands = [LTF(np.array([1.0]), 0.0)]
    empty = LabeledSampleSet(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(EmptyHoldout):
        select(cands, empty)
    with pytest.raises(ValueError, match="candidate set is empty"):
        select([], holdout_from([[1.0]], [1.0]))


def _cover_members(unit_matrix, thresholds):
    """halfspace g: unit . x <= t, as an LTF sign(-unit . x + t)."""
    return [LTF(-unit_matrix[g], float(thresholds[g]))
            for g in range(unit_matrix.shape[0])]


def _reference_cover_select(unit_matrix, thresholds, k, holdout, block=512):
    """The former float32 gemm tournament, kept as a reference: a matvec for
    k=1 and blocked Gram products F W F^T for k=2. Every partial sum is an
    integer count < 2^24, so it is exact."""
    m = len(holdout)
    g_count = unit_matrix.shape[0]
    inside = (holdout.labels > 0).astype(np.float32)
    y_weight = 1.0 - 2.0 * inside
    base = float(inside.sum())
    proj = unit_matrix @ holdout.points.T
    fires = (proj <= thresholds[:, None]).astype(np.float32)
    best_idx, best_count = 0, np.inf
    if k == 1:
        counts = base + fires @ y_weight
        j = int(np.argmin(counts))
        best_idx, best_count = j, float(counts[j])
    else:
        weighted = fires * y_weight[None, :]
        for start in range(0, g_count, block):
            rows = base + fires[start:start + block] @ weighted.T
            loc = int(np.argmin(rows))
            cand = float(rows.ravel()[loc])
            if cand < best_count:
                best_idx, best_count = start * g_count + loc, cand
    n_combos = g_count ** k
    count_plus = float((inside == 0.0).sum())
    count_minus = float((inside == 1.0).sum())
    if count_plus < best_count:
        best_idx, best_count = n_combos, count_plus
    if count_minus < best_count:
        best_idx, best_count = n_combos + 1, count_minus
    return best_idx, best_count / m


def _brute_force(unit_matrix, thresholds, k, holdout, block=64):
    """Every candidate evaluated: the k-fold AND of the members' LTF
    predictions, then the two constants; ties go to the lowest flat index.
    Predictions are bit-packed over the holdout (padding bits are 0 in the
    labels too, so they never mismatch), and the k = 2 grid is evaluated a
    block of first members at a time, so covers of thousands of members fit
    in memory."""
    fires = np.stack([h.evaluate(holdout.points) > 0
                      for h in _cover_members(unit_matrix, thresholds)])
    inside = holdout.labels > 0
    packed, target = np.packbits(fires, axis=1), np.packbits(inside)
    if k == 1:
        counts = np.bitwise_count(packed ^ target).sum(axis=1, dtype=np.int64)
    else:
        counts = np.concatenate([
            np.bitwise_count((packed[lo:lo + block, None] & packed[None]) ^ target)
            .sum(axis=-1, dtype=np.int64).ravel()
            for lo in range(0, fires.shape[0], block)])
    counts = np.concatenate([counts, [np.count_nonzero(~inside), np.count_nonzero(inside)]])
    flat = int(np.argmin(counts))
    return flat, int(counts[flat]) / len(holdout)


@pytest.mark.parametrize("k", [1, 2])
def test_cover_tournament_matches_brute_force(k):
    rng = np.random.default_rng(100 + k)
    n = 3
    g = 7
    unit = rng.standard_normal((g, n))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    thr = rng.uniform(-1.0, 1.5, size=g)
    pts = rng.standard_normal((400, n))
    labels = np.where((pts @ unit[2] <= thr[2]) & (pts @ unit[5] <= thr[5]), 1.0, -1.0)
    holdout = holdout_from(pts, labels)
    flat, err, _ = select_intersection_cover(unit, thr, k, holdout)
    assert (flat, err) == _brute_force(unit, thr, k, holdout)
    assert (flat, err) == _reference_cover_select(unit, thr, k, holdout)


LATTICE = np.arange(-4, 5) * 0.5   # coordinates and thresholds; exact sums


@st.composite
def grid_cover_cases(draw):
    """A grid-shaped member list over signed coordinate axes (so every
    projection is exact): 1-6 directions, repeats allowed, each with 1-5
    lattice thresholds, duplicates allowed, in shuffled member order. The
    holdout sits on the same lattice, so many points lie exactly on a
    threshold; labels are mixed, all +1 or all -1."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    dir_ids = draw(st.lists(st.integers(0, 2 * dim - 1), min_size=1, max_size=6))
    rows, thr = [], []
    for d in dir_ids:
        ts = draw(st.lists(st.sampled_from(LATTICE), min_size=1, max_size=5))
        rows += [axes[d]] * len(ts)
        thr += ts
    perm = draw(st.permutations(range(len(thr))))
    unit = np.array(rows)[perm]
    thresholds = np.array(thr, dtype=np.float64)[perm]
    m = draw(st.integers(1, 40))
    coords = draw(st.lists(st.sampled_from(LATTICE), min_size=m * dim,
                           max_size=m * dim))
    kind = draw(st.sampled_from(["mixed", "all+1", "all-1"]))
    if kind == "mixed":
        labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    else:
        labels = [1.0 if kind == "all+1" else -1.0] * m
    return unit, thresholds, k, holdout_from(np.reshape(coords, (m, dim)), labels)


@settings(max_examples=200, deadline=None)
@given(grid_cover_cases())
def test_cover_tournament_property_grid_members(case):
    unit, thr, k, holdout = case
    got = select_intersection_cover(unit, thr, k, holdout)[:2]
    assert got == _reference_cover_select(unit, thr, k, holdout)
    assert got == _brute_force(unit, thr, k, holdout)


def test_cover_tournament_point_on_threshold_fires():
    unit = np.array([[1.0], [1.0]])
    thr = np.array([-1.0, 0.0])
    holdout = holdout_from([[0.0], [0.5], [-2.0]], [1.0, -1.0, 1.0])
    # member 1 (x <= 0) fires on x = 0 and is perfect
    assert select_intersection_cover(unit, thr, 1, holdout)[:2] == (1, 0.0)


@pytest.mark.parametrize("k,dim,delta", [(1, 1, 0.5), (2, 1, 0.5), (2, 2, 0.95)])
def test_cover_tournament_matches_reference_on_seeded_covers(k, dim, delta, monkeypatch):
    monkeypatch.setattr(intersection_learner, "COMBO_CAP", 10 ** 9)
    cover = make_cover(k, dim, delta)
    rng = np.random.default_rng(1000 * k + dim)
    pts = rng.standard_normal((2000, dim))
    labels = np.where((pts[:, 0] <= 0.5) & (pts[:, -1] >= -0.3), 1.0, -1.0)
    labels[rng.random(2000) < 0.1] *= -1.0
    holdout = holdout_from(pts, labels)
    got = select_intersection_cover(cover.unit_matrix, cover.thresholds, k, holdout)[:2]
    assert got == _reference_cover_select(cover.unit_matrix, cover.thresholds, k, holdout)
    assert got[0] < cover.grid_size ** k     # a grid candidate beats both constants
    digits = np.unravel_index(got[0], (cover.grid_size,) * k)
    assert list(digits) == sorted(digits)    # members listed in ascending order


def test_cover_tournament_constant_wins_on_constant_labels():
    rng = np.random.default_rng(3)
    g = 4
    unit = rng.standard_normal((g, 2))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    thr = np.full(g, -50.0)  # every member fires almost never
    pts = rng.standard_normal((200, 2))
    holdout = holdout_from(pts, -np.ones(200))
    flat, err, _ = select_intersection_cover(unit, thr, 1, holdout)
    # all-minus constant is perfect; grid members also never fire -> all predict -1
    assert err == 0.0


def test_cover_tournament_empty_holdout():
    unit = np.eye(2)
    thr = np.zeros(2)
    empty = LabeledSampleSet(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(EmptyHoldout):
        select_intersection_cover(unit, thr, 1, empty)


def test_cover_tournament_bad_k():
    unit = np.eye(2)
    thr = np.zeros(2)
    s = holdout_from(np.zeros((3, 2)), [1, 1, 1])
    with pytest.raises(ValueError):
        select_intersection_cover(unit, thr, 4, s)


def test_cover_tournament_winner_lists_members_ascending():
    # np.unique sorts direction -e1 before +e1, so the best pair (members 0
    # and 2) has its lower-indexed member in the later direction
    unit = np.array([[1.0], [1.0], [-1.0]])
    thr = np.array([1.0, 3.0, 1.0])
    holdout = holdout_from([[-2.0], [0.0], [0.5], [2.0]], [-1.0, 1.0, 1.0, -1.0])
    got = select_intersection_cover(unit, thr, 2, holdout)[:2]
    assert got == (0 * 3 + 2, 0.0)          # min*G + max, not 2*G + 0
    assert got == _brute_force(unit, thr, 2, holdout)


@pytest.mark.parametrize("k", [1, 2])
def test_cover_tournament_scores_unordered_direction_tuples(k, monkeypatch):
    """The pair-histogram keys fed to bincount, m per direction tuple
    scored: all D at k = 1; at k = 2 at most the C(D+1, 2) unordered pairs,
    and on these labels the bound prunes some of them. The marginal counts
    the bound reads are bincounts too, so only prefix_counts' are counted."""
    fed = []
    bincount = np.bincount

    def counting_bincount(x, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "prefix_counts":
            fed.append(len(x))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting_bincount)
    rng = np.random.default_rng(5)
    d_count, m = 5, 60
    angles = np.linspace(0.0, np.pi, d_count, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    unit = np.repeat(dirs, 3, axis=0)
    thr = np.tile([-0.5, 0.0, 0.5], d_count)
    pts = rng.standard_normal((m, 2))
    holdout = holdout_from(pts, np.where(pts[:, 0] <= 0.3, 1.0, -1.0))
    *_, scored = select_intersection_cover(unit, thr, k, holdout)
    assert sum(fed) == scored * m
    if k == 1:
        assert sum(fed) == d_count * m
    else:
        assert sum(fed) < math.comb(d_count + 1, 2) * m


@pytest.mark.parametrize("shuffle", [False, True], ids=["planted", "shuffled"])
def test_cover_tournament_exact_under_pruning(shuffle):
    """make_cover(2, 2, 0.75) and 1000 holdout points labelled by the planted
    pair x1 >= -0.5, x2 >= -0.5 with 10% of the labels flipped: the bound
    prunes most direction pairs. With the labels shuffled no pair beats the
    constants by much, and nothing is pruned."""
    cover = make_cover(2, 2, 0.75)
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((1000, 2))
    labels = np.where((pts[:, 0] >= -0.5) & (pts[:, 1] >= -0.5), 1.0, -1.0)
    labels[rng.random(1000) < 0.1] *= -1.0
    if shuffle:
        labels = rng.permutation(labels)
    holdout = holdout_from(pts, labels)
    flat, err, scored = select_intersection_cover(cover.unit_matrix, cover.thresholds, 2,
                                                  holdout)
    assert (flat, err) == _reference_cover_select(cover.unit_matrix, cover.thresholds, 2,
                                                  holdout)
    assert (flat, err) == _brute_force(cover.unit_matrix, cover.thresholds, 2, holdout)
    pairs = math.comb(cover.directions + 1, 2)
    if shuffle:
        assert scored == pairs
    else:
        assert scored < pairs / 2


def test_cover_tournament_scores_pair_whose_bound_ties_the_best():
    # np.unique puts direction -1 first, and its lead goes first: it finds
    # the perfect pair (member 1, member 0) at flat index 1. Member 0 alone,
    # the pair (0, 0) at flat index 0, sits in the later lead +1. It fires
    # on the inside point and on no outside one, so its bound
    # max(1 - 1, 1 - 1) + max(0, 0 + 0 - 1) = 0 equals the best count. It
    # must still be scored, and it wins the tie by its lower index.
    unit = np.array([[1.0], [-1.0]])
    thr = np.array([-1.0, 2.0])             # member 0: x <= -1, member 1: x >= -2
    holdout = holdout_from([[-1.0], [1.0]], [1.0, -1.0])
    got = select_intersection_cover(unit, thr, 2, holdout)
    assert got == (0, 0.0, 3)
    assert got[:2] == _brute_force(unit, thr, 2, holdout)
    assert got[:2] == _reference_cover_select(unit, thr, 2, holdout)


def test_cover_tournament_rejects_nan_threshold():
    # a NaN threshold would rank past every edge and fire everywhere
    holdout = holdout_from(np.ones((3, 1)), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        select_intersection_cover(np.array([[1.0], [1.0]]), np.array([np.nan, -5.0]),
                                  1, holdout)


def test_cover_tournament_rejects_non_finite_direction():
    holdout = holdout_from(np.ones((3, 1)), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        select_intersection_cover(np.array([[np.inf], [1.0]]), np.zeros(2), 1, holdout)


def test_cover_tournament_rejects_extra_thresholds():
    holdout = holdout_from(np.ones((3, 1)), [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        select_intersection_cover(np.ones((2, 1)), np.zeros(3), 1, holdout)


def test_cover_tournament_rejects_missing_thresholds():
    holdout = holdout_from(np.ones((3, 1)), [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        select_intersection_cover(np.ones((3, 1)), np.zeros(2), 1, holdout)


@pytest.mark.parametrize("k", [1, 2])
def test_cover_tournament_rejects_an_empty_cover(k):
    holdout = holdout_from(np.ones((3, 2)), [1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="cover is empty"):
        select_intersection_cover(np.zeros((0, 2)), np.zeros(0), k, holdout)


def test_cover_tournament_rejects_holdout_of_wrong_dimension():
    holdout = holdout_from(np.ones((3, 2)), [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        select_intersection_cover(np.ones((2, 1)), np.zeros(2), 1, holdout)


def searchsorted_keys(proj, edges, width):
    """The keys `_bin_keys` must return: row * width + #{edges[row] < p}."""
    return np.stack([np.searchsorted(e, p, side="left") + r * width
                     for r, (e, p) in enumerate(zip(edges, proj))])


EXTREME_EDGES = [np.array([-1e308, 1e308]),            # the span overflows
                 np.array([-1e308, 0.0, 1e308]),
                 np.array([0.0, 5e-324]),              # 1 / span overflows
                 np.array([1.0, np.nextafter(1.0, 2.0)])]


@st.composite
def binning_cases(draw):
    """Rows of sorted thresholds, evenly spaced, uneven, single or extreme,
    and projections on every threshold, an ulp either side of one, far
    outside the grid (to +-inf), between thresholds and at random."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 80))
    edges, proj = [], []
    for _ in range(rows):
        kind = draw(st.sampled_from(["even", "uneven", "single", "extreme"]))
        if kind == "even":
            lo = draw(st.floats(-50.0, 50.0))
            e = np.linspace(lo, lo + draw(st.floats(1e-9, 100.0)), draw(st.integers(2, 60)))
        elif kind == "uneven":
            e = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=40)))
        elif kind == "single":
            e = np.array([draw(st.floats(-50.0, 50.0))])
        else:
            e = draw(st.sampled_from(EXTREME_EDGES))
        e = np.unique(e)
        pool = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                               (e[:-1] + e[1:]) / 2,
                               [-np.inf, -1e308, e[0] - 1e6, e[-1] + 1e6, 1e308, np.inf],
                               rng.choice(e, 8) + rng.standard_normal(8)])
        edges.append(e)
        proj.append(rng.choice(pool, cols))
    return edges, np.array(proj)


@settings(max_examples=300, deadline=None)
@given(binning_cases())
def test_bin_keys_are_searchsorted(case):
    edges, proj = case
    width = 2 + max(len(e) for e in edges)
    assert np.array_equal(_bin_keys(proj, edges, width), searchsorted_keys(proj, edges, width))


@st.composite
def random_cover_cases(draw):
    """A cover over signed coordinate axes (projections are exact) and a few
    random directions, enough of them to span several binning chunks. Each
    direction's thresholds are evenly spaced, uneven or single, and some
    thresholds repeat within a direction and across directions. Holdout
    coordinates sit on the thresholds (of either sign), an ulp either side
    of them, far outside the grid or at random."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(1, 2))
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    picked = draw(st.lists(st.integers(0, 2 * dim - 1), min_size=1, max_size=2 * dim,
                           unique=True))
    extra = rng.standard_normal((draw(st.integers(0, 4)), dim))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    shared = np.round(rng.uniform(-2.0, 2.0, 3), 2)
    rows, thr = [], []
    for v in np.concatenate([axes[picked], extra]):
        kind = draw(st.sampled_from(["even", "uneven", "single"]))
        if kind == "even":
            ts = np.linspace(-draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)),
                             draw(st.integers(2, 8)))
        elif kind == "uneven":
            ts = np.sort(rng.uniform(-3.0, 3.0, draw(st.integers(2, 6))))
        else:
            ts = rng.uniform(-2.0, 2.0, 1)
        ts = np.concatenate([ts, rng.choice(ts, draw(st.integers(0, 2))),
                             shared[:draw(st.integers(0, 3))]])
        rows += [v] * len(ts)
        thr += list(ts)
    perm = rng.permutation(len(thr))
    unit = np.array(rows)[perm]
    thresholds = np.array(thr)[perm]
    m = draw(st.integers(1, 60))
    t = np.concatenate([thresholds, -thresholds])
    pool = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                           [-1e6, 1e6], rng.standard_normal(len(t))])
    labels = rng.choice([-1.0, 1.0], m) if draw(st.booleans()) else np.full(m, -1.0)
    return unit, thresholds, k, holdout_from(rng.choice(pool, (m, dim)), labels)


@settings(max_examples=200, deadline=None)
@given(random_cover_cases())
def test_cover_tournament_property_random_covers(case):
    unit, thr, k, holdout = case
    binned = []

    def checked_bin_keys(proj, edges, width):
        keys = _bin_keys(proj, edges, width)
        binned.append(len(edges))
        assert np.array_equal(keys, searchsorted_keys(proj, edges, width))
        return keys

    with mock.patch.object(hypothesis_select, "_bin_keys", checked_bin_keys):
        got = select_intersection_cover(unit, thr, k, holdout)[:2]
    assert sum(binned) == len(np.unique(unit, axis=0))
    assert got == _reference_cover_select(unit, thr, k, holdout)
    assert got == _brute_force(unit, thr, k, holdout)


def test_cover_tournament_sorts_no_projections(monkeypatch):
    """Binning needs no sort: no argsort or sort in the tournament takes an
    array as long as a label side, as one over a direction's projections
    would."""
    sizes = []
    for name in ("argsort", "sort", "lexsort"):
        def spy(a, *args, _real=getattr(np, name), **kwargs):
            sizes.append(np.size(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    cover = make_cover(2, 2, 0.75)
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((8000, 2))
    labels = np.where((pts[:, 0] >= -0.5) & (pts[:, 1] >= -0.5), 1.0, -1.0)
    holdout = holdout_from(pts, labels)
    for k in (1, 2):
        select_intersection_cover(cover.unit_matrix, cover.thresholds, k, holdout)
    n_in = int(np.count_nonzero(labels > 0))
    assert sizes and max(sizes) <= cover.unit_matrix.shape[0] < min(n_in, 8000 - n_in)


def test_chunked_bins_equal_bins_of_the_whole_product(monkeypatch):
    # 12 signed axes of R^6, so the binning takes two chunks; each axis has
    # even or uneven thresholds, and every holdout coordinate sits on a
    # threshold (of either sign) or an ulp from one. At k = 1 the one
    # histogram takes every direction's keys, direction * width + bin, per
    # label side; decoded, they are the bins of one whole product.
    dim = 6
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    rng = np.random.default_rng(8)
    thr = [np.linspace(-1.5, 1.5, 7) if d % 2 else np.sort(rng.uniform(-2, 2, 5))
           for d in range(2 * dim)]
    unit = np.repeat(axes, [len(t) for t in thr], axis=0)
    thresholds = np.concatenate(thr)
    t = np.concatenate([thresholds, -thresholds])
    pool = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])
    pts = rng.choice(pool, (500, dim))
    labels = rng.choice([-1.0, 1.0], 500)
    fed = []
    bincount = np.bincount

    def spy(x, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "prefix_counts":
            fed.append((np.array(x), kwargs["minlength"]))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    select_intersection_cover(unit, thresholds, 1, holdout_from(pts, labels))
    directions, dir_of = np.unique(unit, axis=0, return_inverse=True)
    assert len(directions) > hypothesis_select._BIN_CHUNK
    edges = [np.unique(thresholds[dir_of == d]) for d in range(len(directions))]
    whole = directions @ pts.T
    for (keys, minlength), side in zip(fed, (labels < 0, labels > 0)):
        width = minlength // len(directions)
        bins = keys.reshape(len(directions), -1) - width * np.arange(len(directions))[:, None]
        expected = np.stack([np.searchsorted(e, p) for e, p in zip(edges, whole[:, side])])
        assert np.array_equal(bins, expected)
    assert len(fed) == 2
