"""Pick the best hypothesis from a candidate list on a fresh holdout batch.

Plain empirical-risk minimization: corruption shifts every candidate's
empirical disagreement by at most eps, so the winner's true error is within
an additive O(eps) of the best candidate in the list.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .adversary import LabeledSampleSet
from .errors import DimensionMismatch, EmptyHoldout

# Largest k the cover tournament scores: a cover holds G^k candidates, and at
# k = 3 no subspace of dim >= 2 fits the intersection learner's COMBO_CAP.
K_CAP = 2


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
    G^k + 1. Returns (winner flat index, empirical error); ties go to the
    lowest index. An intersection does not depend on the order of its
    members, so every ordering of a member tuple has the same error and the
    lowest of their flat indices lists the members in ascending order
    (min G + max at k=2): the winner's digits never decrease.

    Members that share a direction differ only in their threshold, so
    whether a candidate fires on x depends only on x's bin among the sorted
    thresholds of each of its directions. With w = +1 on outside points and
    -1 on inside ones,
      mismatches(r) = #{y=+1} + sum of w over the points r fires on,
    which is a k-dimensional prefix sum of the joint bin histogram of w.
    Only unordered direction tuples are scored: one histogram per
    non-decreasing tuple of the first k-1 directions covers every last
    direction from the last lead direction on. That is C(D+k-1, k) m
    histogram keys for D distinct directions, with exact integer counts,
    and one count lookup per member tuple whose directions do not
    decrease: about G^k / k! when no direction holds many of the members.
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
    if not (np.isfinite(unit_matrix).all() and np.isfinite(thresholds).all()):
        raise ValueError("cover directions and thresholds must be finite")
    m = len(holdout)
    g_count = unit_matrix.shape[0]
    directions, dir_of = np.unique(unit_matrix, axis=0, return_inverse=True)
    dir_of = dir_of.reshape(-1)
    d_count = directions.shape[0]
    order = np.argsort(dir_of, kind="stable")   # members grouped by direction
    start = np.searchsorted(dir_of[order], np.arange(d_count + 1))
    groups = [order[a:b] for a, b in zip(start[:-1], start[1:])]
    edges = [np.unique(thresholds[g]) for g in groups]
    width = 1 + max(len(e) for e in edges)     # bins 0..len(edges), padded

    # x falls in bin searchsorted(edges, v . x, "left"), and the member with
    # threshold edges[r] fires on x iff that bin is <= r: the <= survives
    rank = np.empty(g_count, dtype=np.intp)
    for g, e in zip(groups, edges):
        rank[g] = np.searchsorted(e, thresholds[g])
    # w is +1 / -1, so its histogram is the difference of two unweighted
    # bincounts, one over the outside points and one over the inside ones:
    # with the outside points first, those are two column slices
    inside = holdout.labels > 0
    n_in = int(np.count_nonzero(inside))
    proj = directions @ holdout.points[np.argsort(inside, kind="stable")].T
    bins = np.stack([np.searchsorted(e, p, side="left") for e, p in zip(edges, proj)])
    keys = bins + (np.arange(d_count) * width)[:, None]
    n_out = m - n_in
    parts = [(bins[:, :n_out], keys[:, :n_out]), (bins[:, n_out:], keys[:, n_out:])]
    key_of = (dir_of * width + rank)[order]     # member in direction order -> key

    def prefix_counts(lead_dirs, lo):
        """Prefix sums of the w histogram over lead bins x (last dir >= lo, bin)."""
        block = (d_count - lo) * width
        hist = []
        for part_bins, part_keys in parts:
            lead = np.zeros(part_bins.shape[1], dtype=np.intp)
            for d in lead_dirs:
                lead = lead * width + part_bins[d]
            hist.append(np.bincount((part_keys[lo:] + (lead * block - lo * width)).ravel(),
                                    minlength=width ** (k - 1) * block))
        cum = (hist[0] - hist[1]).reshape((width,) * (k - 1) + (d_count - lo, width))
        for axis in range(cum.ndim):
            if axis != k - 1:                   # not the direction axis
                np.cumsum(cum, axis=axis, out=cum)
        return cum.reshape(-1)

    best_idx, best_count = 0, m + 1
    for lead_dirs in itertools.combinations_with_replacement(range(d_count), k - 1):
        lo = lead_dirs[-1] if lead_dirs else 0  # last members: directions >= lo
        pos = np.zeros((), dtype=np.intp)       # lead members -> lead bin tuple
        for d in lead_dirs:
            pos = pos[..., None] * width + rank[groups[d]]
        block = (d_count - lo) * width
        counts = prefix_counts(lead_dirs, lo)[pos[..., None] * block
                                              + key_of[start[lo]:] - lo * width]
        low = int(counts.min())
        if n_in + low > best_count:
            continue
        # each entry at the minimum counts at the flat index of its members
        # in ascending order, the lowest among their orderings
        at = np.unravel_index(np.flatnonzero(counts == low), counts.shape)
        members = [groups[d][i] for d, i in zip(lead_dirs, at)] + [order[start[lo] + at[-1]]]
        idx = int(np.ravel_multi_index(np.sort(members, axis=0), (g_count,) * k).min())
        if (n_in + low, idx) < (best_count, best_idx):
            best_idx, best_count = idx, n_in + low
    n_combos = g_count ** k
    if m - n_in < best_count:                   # predict +1 everywhere
        best_idx, best_count = n_combos, m - n_in
    if n_in < best_count:                       # predict -1 everywhere
        best_idx, best_count = n_combos + 1, n_in
    return best_idx, best_count / m
