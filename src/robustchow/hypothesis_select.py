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
from .errors import EmptyHoldout


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
    lowest index.

    Members that share a direction differ only in their threshold, so
    whether a candidate fires on x depends only on x's bin among the sorted
    thresholds of each of its directions. With w = +1 on outside points and
    -1 on inside ones,
      mismatches(r) = #{y=+1} + sum of w over the points r fires on,
    which is a k-dimensional prefix sum of the joint bin histogram of w.
    One histogram per tuple of the first k-1 directions covers every last
    direction at once: O(D^k m + G^k) work for D distinct directions, with
    exact integer counts.
    """
    if len(holdout) == 0:
        raise EmptyHoldout("holdout batch is empty")
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k}")
    m = len(holdout)
    g_count = unit_matrix.shape[0]
    directions, dir_of = np.unique(unit_matrix, axis=0, return_inverse=True)
    dir_of = dir_of.reshape(-1)
    d_count = directions.shape[0]
    groups = [np.flatnonzero(dir_of == d) for d in range(d_count)]
    edges = [np.unique(thresholds[g]) for g in groups]
    width = 1 + max(len(e) for e in edges)     # bins 0..len(edges), padded

    # x falls in bin searchsorted(edges, v . x, "left"), and the member with
    # threshold edges[r] fires on x iff that bin is <= r: the <= survives
    rank = np.empty(g_count, dtype=np.intp)
    for g, e in zip(groups, edges):
        rank[g] = np.searchsorted(e, thresholds[g])
    # w is +1 / -1, so its histogram is the difference of two unweighted
    # bincounts, one over the outside points and one over the inside ones
    inside = holdout.labels > 0
    n_in = int(np.count_nonzero(inside))
    last_key = (np.arange(d_count) * width)[:, None]
    parts = []
    for points in (holdout.points[~inside], holdout.points[inside]):
        proj = directions @ points.T
        bins = np.stack([np.searchsorted(e, p, side="left")
                         for e, p in zip(edges, proj)])
        parts.append((bins, bins + last_key))
    block = d_count * width                     # keys of one lead-bin tuple
    size = width ** (k - 1) * block
    last_col = dir_of * width + rank            # member -> its key

    def prefix_counts(lead_dirs):
        """Prefix sums of the w histogram over lead bins x (last dir, bin)."""
        hist = []
        for part_bins, part_keys in parts:
            lead = np.zeros(part_bins.shape[1], dtype=np.intp)
            for d in lead_dirs:
                lead = lead * width + part_bins[d]
            hist.append(np.bincount((part_keys + lead * block).ravel(),
                                    minlength=size))
        cum = (hist[0] - hist[1]).reshape((width,) * (k - 1) + (d_count, width))
        for axis in range(cum.ndim):
            if axis != k - 1:                   # not the direction axis
                np.cumsum(cum, axis=axis, out=cum)
        return cum.reshape(-1)

    best_idx, best_count = 0, m + 1
    for lead_dirs in itertools.product(range(d_count), repeat=k - 1):
        pos = np.zeros((), dtype=np.intp)       # lead members -> lead bin tuple
        prefix = np.zeros((), dtype=np.intp)    # lead members -> flat index / G
        for d in lead_dirs:
            pos = pos[..., None] * width + rank[groups[d]]
            prefix = prefix[..., None] * g_count + groups[d]
        counts = prefix_counts(lead_dirs)[pos[..., None] * block + last_col]
        loc = int(np.argmin(counts))            # lowest flat index in the block
        cand = n_in + int(counts.reshape(-1)[loc])
        idx = int(prefix.reshape(-1)[loc // g_count]) * g_count + loc % g_count
        if (cand, idx) < (best_count, best_idx):
            best_idx, best_count = idx, cand
    n_combos = g_count ** k
    if m - n_in < best_count:                   # predict +1 everywhere
        best_idx, best_count = n_combos, m - n_in
    if n_in < best_count:                       # predict -1 everywhere
        best_idx, best_count = n_combos + 1, n_in
    return best_idx, best_count / m
