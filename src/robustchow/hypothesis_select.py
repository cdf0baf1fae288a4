"""Pick the best hypothesis from a candidate list on a fresh holdout batch.

Plain empirical-risk minimization: corruption shifts every candidate's
empirical disagreement by at most eps, so the winner's true error is within
an additive O(eps) of the best candidate in the list.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .adversary import LabeledSampleSet
from .errors import DimensionMismatch, EmptyHoldout

# Largest k the cover tournament scores: a cover holds G^k candidates, and at
# k = 3 no subspace of dim >= 2 fits the intersection learner's COMBO_CAP.
K_CAP = 2
# Cover directions the tournament projects and bins at a time, so each
# block of projections and bins stays in cache.
_BIN_CHUNK = 8


def disagreement(hypothesis, s: LabeledSampleSet) -> float:
    pred = np.asarray(hypothesis.evaluate(s.points), dtype=np.float64)
    return float(np.mean(pred != s.labels))


def select(candidates: Sequence, holdout: LabeledSampleSet):
    """Winner among hypotheses exposing evaluate(points) -> ±1 (lowest
    empirical disagreement, ties to lowest index) and its empirical error."""
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    if len(holdout) == 0:
        raise EmptyHoldout("holdout batch is empty")
    best_idx = 0
    best_err = disagreement(candidates[0], holdout)
    for i in range(1, len(candidates)):
        err = disagreement(candidates[i], holdout)
        if err < best_err:
            best_idx, best_err = i, err
    return candidates[best_idx], best_err


def _bin_keys(proj: np.ndarray, edges: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Each projection p in row r of proj binned among the sorted
    thresholds edges[r]: its bin #{edges[r] < p}, as np.searchsorted(edges[r],
    p) gives it, returned as the key r * width + bin (width must exceed
    every len(edges[r]) + 1).

    A bin is guessed from its row's first edge and mean spacing (exact on
    evenly spaced edges up to rounding; with one edge, the sign of p - edge
    is the bin) and checked against the edges either side of it, in a
    table whose row r holds -inf, edges[r], then +inf up to width. Only
    the projections whose guess fails are searched for.
    """
    rows = len(edges)
    n_edges = np.array([len(e) for e in edges])[:, None]
    first = np.array([e[0] for e in edges])[:, None]
    table = np.full((rows, width), np.inf)
    table[:, 0] = -np.inf
    for row, e in zip(table, edges):
        row[1:len(e) + 1] = e
    # edges spanning the float range, or an ulp, may make an inf or NaN guess
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.array([(len(e) - 1) / (e[-1] - e[0]) if len(e) > 1 else 1.0
                          for e in edges])[:, None]
        guess = proj - first
        guess *= scale
    np.ceil(guess, out=guess)
    np.fmax(guess, 0.0, out=guess)              # fmax and fmin also take a NaN to 0
    np.fmin(guess, n_edges, out=guess)
    keys = guess.astype(np.intp)
    keys += np.arange(0, rows * width, width)[:, None]
    # a key is also where its bin's lower edge sits in the table; every
    # index is in range, and "clip" skips the check that "raise" makes
    bounds = table.ravel()
    found = np.take(bounds, keys, out=guess, mode="clip") < proj
    found &= proj <= np.take(bounds[1:], keys, out=guess, mode="clip")
    for r in np.flatnonzero(~found.all(axis=1)):
        miss = np.flatnonzero(~found[r])
        keys[r, miss] = r * width + np.searchsorted(edges[r], proj[r, miss])
    return keys


def select_intersection_cover(unit_matrix: np.ndarray,
                              thresholds: np.ndarray,
                              k: int,
                              holdout: LabeledSampleSet):
    """ERM over the full G^k grid of k-fold intersections without
    materializing hypothesis objects or the combo list.

    Grid member g fires on x when unit_matrix[g] . x <= thresholds[g]; the
    candidate with flat index r = sum_j digit_j G^(k-1-j) intersects members
    digit_0..digit_{k-1} and predicts +1 iff all fire. Two constant
    candidates, always-+1 and always--1, compete at flat indices G^k and
    G^k + 1. Returns (winner flat index, empirical error, direction tuples
    scored); ties go to the lowest index. An intersection does not depend
    on the order of its members, so every ordering of a member tuple has the
    same error and the lowest of their flat indices lists the members in
    ascending order (min G + max at k=2): the winner's digits never decrease.

    Members that share a direction differ only in their threshold, so
    whether a candidate fires on x depends only on x's bin among the sorted
    thresholds of each of its directions. With w = +1 on outside points and
    -1 on inside ones,
      mismatches(r) = #{y=+1} + sum of w over the points r fires on,
    which is a k-dimensional prefix sum of the joint bin histogram of w.
    Only unordered direction tuples are scored: one histogram per lead
    direction covers its pairs with every last direction from the lead on.
    Each scored direction tuple costs m histogram keys, with exact integer
    counts, and one count lookup per member tuple whose directions do not
    decrease. At k = 1 that is one histogram of all D directions.

    At k = 2 the scan is an exact branch and bound over the C(D+1, 2)
    direction pairs. Member g fires on in_g of the n_in inside points and
    out_g of the n_out outside ones, so the pair a, b mismatches at least
      max(n_in - in_a, n_in - in_b) + max(0, out_a + out_b - n_out)
    points: the inside points either member misses, plus the outside points
    that both members fire on by inclusion-exclusion. The points are
    projected and binned by arithmetic (`_bin_keys`), with no sort,
    _BIN_CHUNK directions at a time, so no (D, m) float matrix is held;
    each side's keys, direction * width + bin, are kept in the narrowest
    integer type that holds them, and a cumulative bincount of a chunk's
    bins gives these counts. A direction pair's bound is the least over its
    member pairs. Lead directions go in ascending order of their best pair
    bound, and a lead's histogram takes only the last directions whose pair
    bound is at most the best count found so far. A pair is skipped only
    when its bound is strictly above that count, so a pair that could tie
    is scored and the lowest-index tie rule holds. The third value returned
    counts the direction tuples histogrammed: D at k = 1, at most
    C(D+1, 2) at k = 2.
    """
    if len(holdout) == 0:
        raise EmptyHoldout("holdout batch is empty")
    if not 1 <= k <= K_CAP:
        raise ValueError(f"k must be between 1 and {K_CAP}, got {k}")
    unit_matrix = np.asarray(unit_matrix, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if (unit_matrix.ndim != 2 or unit_matrix.shape[1] != holdout.n
            or thresholds.shape != unit_matrix.shape[:1]):
        raise DimensionMismatch(
            f"cover has unit_matrix {unit_matrix.shape} and thresholds "
            f"{thresholds.shape}; expected (G, {holdout.n}) and (G,)")
    if unit_matrix.shape[0] == 0:
        raise ValueError("cover is empty: it has no members to score")
    if not (np.isfinite(unit_matrix).all() and np.isfinite(thresholds).all()):
        raise ValueError("cover directions and thresholds must be finite")
    m = len(holdout)
    g_count = unit_matrix.shape[0]
    directions, dir_of = np.unique(unit_matrix, axis=0, return_inverse=True)
    dir_of = dir_of.reshape(-1)
    d_count = directions.shape[0]
    order = np.argsort(dir_of, kind="stable")   # members grouped by direction
    dir_sorted = dir_of[order]
    start = np.searchsorted(dir_sorted, np.arange(d_count + 1))
    groups = [order[a:b] for a, b in zip(start[:-1], start[1:])]
    edges = [np.unique(thresholds[g]) for g in groups]
    width = 2 + max(len(e) for e in edges)     # bins 0..len(edges), padded past +inf

    # x falls in bin #{edges < v . x}, and the member with threshold
    # edges[r] fires on x iff that bin is <= r: the <= survives
    rank = np.empty(g_count, dtype=np.intp)
    for g, e in zip(groups, edges):
        rank[g] = np.searchsorted(e, thresholds[g])
    key_of = (dir_of * width + rank)[order]     # member in direction order -> key
    # w is +1 / -1, so its histogram is the difference of two unweighted
    # bincounts, one over the outside points and one over the inside ones:
    # with the outside points first, those are two column slices
    inside = holdout.labels > 0
    n_in = int(np.count_nonzero(inside))
    n_out = m - n_in
    points = np.concatenate((holdout.points[~inside], holdout.points[inside]))
    sides = (slice(0, n_out), slice(n_out, m))
    key_type = np.min_scalar_type(-d_count * width)   # every key is below D * width
    keys = [np.empty((d_count, n), dtype=key_type) for n in (n_out, n_in)]
    # below[side][d, r] counts the side's points at or below edge r of
    # direction d: the points a member with that threshold fires on
    below = [np.empty((d_count, width), dtype=np.intp) for _ in sides]
    for lo in range(0, d_count, _BIN_CHUNK):
        hi = min(lo + _BIN_CHUNK, d_count)
        local = _bin_keys(directions[lo:hi] @ points.T, edges[lo:hi], width)
        for side, side_keys, side_below in zip(sides, keys, below):
            np.add(local[:, side], lo * width, out=side_keys[lo:hi], casting="unsafe")
            if k == 2:
                counts = np.bincount(local[:, side].ravel(), minlength=(hi - lo) * width)
                np.cumsum(counts.reshape(hi - lo, width), axis=1, out=side_below[lo:hi])

    def prefix_counts(lead, lasts):
        """w-sums of every member tuple (lead member, member of a last
        direction): a row per lead member (one row at k = 1), a column per
        member of the directions in lasts, which ascend."""
        wanted = np.zeros(d_count, dtype=bool)
        wanted[lasts] = True
        cols = np.flatnonzero(wanted[dir_sorted])
        lo, hi = lasts[0], lasts[-1] + 1
        block = (hi - lo) * width
        rows = slice(lo, hi) if hi - lo == lasts.size else lasts   # no gather if none pruned
        hist = []
        for side_keys in keys:                  # widened to intp here only
            shift = -lo * width
            if lead is not None:
                shift = (side_keys[lead].astype(np.intp) - lead * width) * block + shift
            pair_keys = np.add(side_keys[rows], shift, dtype=np.intp)
            hist.append(np.bincount(pair_keys.ravel(), minlength=width ** (k - 1) * block))
        cum = (hist[0] - hist[1]).reshape(width ** (k - 1), hi - lo, width)
        np.cumsum(cum, axis=0, out=cum)
        np.cumsum(cum, axis=2, out=cum)
        lead_bins = rank[groups[lead]] if lead is not None else np.zeros(1, dtype=np.intp)
        return cum.reshape(-1)[lead_bins[:, None] * block + key_of[cols] - lo * width], cols

    if k == 1:                                  # one scan of every direction
        plan = [(None, np.zeros(d_count))]
    else:
        # members in direction order; int32 halves the traffic of the bound
        out, fired_in = (side_below.ravel()[key_of].astype(np.int32)
                         for side_below in below)
        over, miss = out - n_out, n_in - fired_in
        bound = np.full((d_count, d_count), np.inf)   # bound[a, b] for b >= a
        for a in range(d_count):
            in_a, from_a = slice(start[a], start[a + 1]), slice(start[a], None)
            both = over[in_a, None] + out[None, from_a]
            np.maximum(both, 0, out=both)       # outside points both members fire on
            both += np.maximum(miss[in_a, None], miss[None, from_a])
            bound[a, a:] = np.minimum.reduceat(both.min(axis=0), start[a:-1] - start[a])
        plan = [(a, bound[a]) for a in np.argsort(bound.min(axis=1), kind="stable")]
    best_idx, best_count, scored = 0, m + 1, 0
    for lead, row in plan:
        lasts = np.flatnonzero(row <= best_count)
        if not lasts.size:                      # leads ascend by best bound
            break
        scored += lasts.size
        counts, cols = prefix_counts(lead, lasts)
        low = int(counts.min())
        if n_in + low > best_count:
            continue
        # each entry at the minimum counts at the flat index of its members
        # in ascending order, the lowest among their orderings
        at = np.nonzero(counts == low)
        members = [order[cols[at[1]]]]
        if lead is not None:
            members.insert(0, groups[lead][at[0]])
        idx = int(np.ravel_multi_index(np.sort(members, axis=0), (g_count,) * k).min())
        if (n_in + low, idx) < (best_count, best_idx):
            best_idx, best_count = idx, n_in + low
    n_combos = g_count ** k
    if n_out < best_count:                      # predict +1 everywhere
        best_idx, best_count = n_combos, n_out
    if n_in < best_count:                       # predict -1 everywhere
        best_idx, best_count = n_combos + 1, n_in
    return best_idx, best_count / m, scored
