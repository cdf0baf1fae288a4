"""Robust estimation of low-degree Chow parameters by iterative spectral
filtering.

Pipeline: prune points whose feature vector in orthonormal coordinates is
extreme, then repeatedly find the polynomial direction of largest excess
empirical second moment and cut its tail until the top eigenvalue falls
below the break level; the Chow vector is the label-weighted mean of the
survivors' features, mapped back to monomial coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversary import LabeledSampleSet
from .distributions import ReasonableDistribution
from .errors import AllPointsPruned, BasisMismatch, ChowBoundViolated, NoThresholdFound
from .polybasis import MonomialBasis, enumerate_basis, monomial_sum

# The break level is C_BREAK * (gamma + delta + eps); calibrated so clean
# Gaussian runs at m = 1e5 converge in a couple of iterations.
C_BREAK = 10.0
# Filter passes before robust_chow stops and flags cap_reached.
MAX_ITERATIONS = 200
# Norm bins per e-fold that `_score_floor` counts rows in.
_FLOOR_BINS = 64


@dataclass
class FilterParams:
    """The corruption rate eps the filter runs at."""

    eps: float

    def __post_init__(self):
        if not (0.0 <= self.eps < 1.0 / 3.0):
            raise ValueError(f"eps must lie in [0, 1/3), got {self.eps}")


@dataclass
class ChowEstimate:
    """Estimated Chow vector chi_i ~ E[f(X) m_i(X)] with run provenance."""

    chi: np.ndarray
    basis: MonomialBasis
    dist: Optional[ReasonableDistribution]  # the law chi was measured against
    provenance: dict = field(default_factory=dict)
    # boolean row mask over the input sample (True = kept); populated by
    # robust_chow for selectivity diagnostics, omitted from JSON
    keep_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        self.chi = np.asarray(self.chi, dtype=np.float64)
        if self.chi.shape != (self.basis.ell,):
            raise ValueError("chi length does not match basis size")
        if not np.all(np.isfinite(self.chi)):
            raise ValueError("chi has non-finite entries")
        if self.dist is not None:
            if not self.dist.basis.same_layout(self.basis):
                raise BasisMismatch("the estimate's basis differs from its distribution's")
            # |chi_i| = |E[f m_i]| <= sqrt(E[m_i^2]) since |f| <= 1; allow 2x
            # slack because empirical survivor moments sit above Sigma by up
            # to the filter's break level.
            bound = 2.0 * np.sqrt(np.diag(self.dist.sigma)) + 1e-6
            if np.any(np.abs(self.chi) > bound):
                raise ChowBoundViolated("chi violates the Cauchy-Schwarz bound")

    def to_json(self) -> dict:
        return {
            "n": self.basis.n,
            "d": self.basis.d,
            "multilinear": self.basis.multilinear,
            "chi": [float(v) for v in self.chi],
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_json(cls, data: dict, dist: Optional[ReasonableDistribution] = None):
        basis = enumerate_basis(int(data["n"]), int(data["d"]),
                                multilinear=bool(data.get("multilinear", False)))
        return cls(np.asarray(data["chi"], dtype=np.float64), basis, dist,
                   dict(data.get("provenance", {})))


def prune_mask(norm2: np.ndarray, dist: ReasonableDistribution) -> np.ndarray:
    """Boolean keep mask for the prune rule |h(x)|^2 < T_max^2 / 2.

    norm2 holds the squared norms of rows h(x) in the descriptor's
    orthonormal coordinates, m(x)^T Sigma^+ m(x). All-True for distributions
    that disable pruning (the hypercube). The mask may be all False: a
    block may be nothing but outliers.
    """
    if not dist.prune_enabled:
        return np.ones(norm2.shape[0], dtype=bool)
    return norm2 < dist.t_max ** 2 / 2.0


def _cut_floor(dist: ReasonableDistribution) -> float:
    """The least score the cut can take. A fraction is at most 1, so only a
    score where Q_d has fallen to 1/4 can qualify; the margin keeps a score
    that sits at that crossing up to rounding."""
    return dist.tail.crossing(0.25) * (1.0 - 1e-9)


def _required(t, dist: ReasonableDistribution, eps: float):
    """The fraction of rows a cut at T must take: 4 Q_d(T) + 3 eps / T_max^2."""
    return 4.0 * dist.tail(t) + 3.0 * eps / dist.t_max ** 2


def _score_floor(norm2: np.ndarray, rows: np.ndarray, dist: ReasonableDistribution,
                 eps: float, m: int) -> float:
    """A floor under every cut `_threshold_cut` can make on m rows, from the
    squared norms of the rows that reach `_cut_floor` (norm2[rows]).

    A cut T needs a fraction `_required`(T) of the m rows to score at least
    T, and a score is at most its row's norm (over 1 - 1e-9, for rounding),
    so it needs that many such norm bounds too. The bounds are counted in
    bins e^(1/_FLOOR_BINS) wide from `_cut_floor` up to T_max (the last bin
    also takes any bound above it), each placed a hair high so that
    rounding can only raise its bin: a T in bin i has at most the rows from
    bin i up, and needs at least the fraction required at the top of bin
    i. The floor is the bottom of the first bin where that can hold, or
    the top of the last bin when none can. When the rows are too many to
    rule out bin 0 (at d = 1 every row reaches the cut floor), the floor is
    the cut floor and no norm is read.
    """
    low = _cut_floor(dist)
    top = max(1, int(_FLOOR_BINS * math.log(dist.t_max / low)) + 1)
    edges = low * np.exp(np.arange(top + 2) / _FLOOR_BINS)
    need = _required(edges[1:] * (1.0 + 1e-9), dist, eps)   # need[i]: bin i's least
    if rows.size / m >= need[0]:
        return low
    bins = np.log(norm2[rows])
    bins *= 0.5 * _FLOOR_BINS
    bins -= _FLOOR_BINS * math.log(low * (1.0 - 1e-9) ** 2)
    np.clip(bins, 0, top, out=bins)
    above = np.cumsum(np.bincount(bins.astype(np.intp), minlength=top + 1)[::-1])[::-1]
    fits = np.flatnonzero(above / m >= need)
    return float(edges[fits[0] if fits.size else top + 1] * (1.0 - 1e-9))


def _threshold_cut(scores: np.ndarray, dist: ReasonableDistribution, eps: float, m: int):
    """Largest observed score T > 0 with frac{|p*| >= T} >= 4 Q_d(T) + 3 eps / T_max^2.

    Returns (T, keep_mask). Raises NoThresholdFound when no sample value
    qualifies. Only scores at or above `_cut_floor` can qualify. The tail
    is monotone, so those scores are the top ones, and they alone are
    sorted: a score's count inside them is its count over all scores. The
    fractions are over m rows: a caller may pass only the scores that can
    reach the floor, and the mask is over those.
    """
    top = np.sort(scores[scores >= _cut_floor(dist)])
    # the first copy of each value; every score in top is positive
    first = np.flatnonzero(np.r_[top[:1] > 0.0, top[1:] != top[:-1]])
    candidates = top[first]
    valid = np.flatnonzero((top.size - first) / m >= _required(candidates, dist, eps))
    if not valid.size:
        raise NoThresholdFound("no sample value satisfies the tail-excess test")
    t_cut = float(candidates[valid[-1]])
    return t_cut, scores < t_cut


def sample_floor(ell: int) -> int:
    """Fewest samples the filter accepts on ell monomials: max(50, 2 * ell)."""
    return max(50, 2 * ell)


def _survivor_sums(tiles, dist: ReasonableDistribution,
                   labels: Optional[np.ndarray] = None):
    """Prune mask, squared row norms, survivor Gram matrix and, given
    labels, survivor label sum (else None) from (cols, block) feature tiles
    in row order, each summed while in cache: norms, one syrk, one gemv.
    Pruned rows and their labels may have overflowed, so a tile that has
    any enters the products as a copy without them; no tile is written to.
    """
    keep_parts, norm_parts = [np.zeros(0, dtype=bool)], [np.zeros(0)]   # tiles may be none
    gram = np.zeros((dist.ell, dist.ell))
    label_sum = None if labels is None else np.zeros(dist.ell)
    for cols, block in tiles:
        norm_parts.append(norm2 := np.einsum("ij,ij->i", block.T, block.T))
        keep_parts.append(keep := prune_mask(norm2, dist))
        live = block if keep.all() else block.compress(keep, axis=1)
        gram += live @ live.T
        if labels is not None:
            label_sum += live @ labels[cols][keep]
    return np.concatenate(keep_parts), np.concatenate(norm_parts), gram, label_sum


def _pass_scores(tiles, alive: np.ndarray, norm2: np.ndarray, v: np.ndarray,
                 dist: ReasonableDistribution, eps: float, m: int):
    """The alive rows that can reach a cut on m rows, as indices, and their
    scores |h(x) . v|. For the unit v, |h . v| <= |h|, so a row whose norm
    is below `_score_floor` (less the cut's margin once more, for a product
    that rounds above its row's norm) cannot reach the cut and is not
    scored. tiles(rows) gathers the others; when every row can reach it
    (at d = 1, say), tiles() streams them in place. einsum scores every row
    by the same loop, so identical points tie exactly; BLAS gemv may round
    its last rows differently and split a cluster of identical outliers at
    the cut.
    """
    low = _cut_floor(dist)
    rows = np.flatnonzero(alive & (norm2 >= (low * (1.0 - 1e-9)) ** 2))
    floor = _score_floor(norm2, rows, dist, eps, m)
    if floor > low:
        rows = rows[norm2[rows] >= (floor * (1.0 - 1e-9)) ** 2]
    scores = np.empty(rows.size)
    for cols, block in tiles(None if rows.size == alive.size else rows):
        np.einsum("ij,j->i", block.T, v, out=scores[cols])
    return rows, np.abs(scores, out=scores)


def _filter(tiles, labels: np.ndarray, alive: np.ndarray, norm2: np.ndarray,
            gram: np.ndarray, label_sum: np.ndarray, dist: ReasonableDistribution,
            eps: float) -> ChowEstimate:
    """Filter to fixpoint from the survivor sums of `_survivor_sums`.

    Each pass takes the top eigenvector of the survivors' Gram matrix,
    scores only the survivors that can reach the cut (`_pass_scores`), on
    the tiles that tiles(rows) yields anew, and subtracts the cut rows,
    streamed again tile by tile, from both sums, which it updates in
    place along with `alive`. The provenance lists each pass: lambda*, the
    cut T (None when it made none), the rows it removed and scored.
    """
    m_in = alive.size
    m_cur = int(alive.sum())
    if m_cur == 0:
        raise AllPointsPruned("every sample exceeded the prune radius; "
                              "distribution parameters likely mismatch the data")
    n_pruned = m_in - m_cur
    break_level = C_BREAK * (dist.gamma + dist.delta + eps)

    degraded = False
    cap_reached = False
    last_lambda = math.nan
    passes = []
    for _ in range(MAX_ITERATIONS):
        # |h . v| ignores v's sign; a contiguous v takes einsum's faster loop
        vals, vecs = np.linalg.eigh(gram / m_cur)
        lambda_star, v_star = float(vals[-1]) - 1.0, np.ascontiguousarray(vecs[:, -1])
        passes.append(record := {"lambda": lambda_star, "cut": None, "removed": 0,
                                 "scored": 0})
        if lambda_star <= break_level:
            last_lambda = lambda_star
            break
        rows, scores = _pass_scores(tiles, alive, norm2, v_star, dist, eps, m_cur)
        record["scored"] = rows.size
        try:
            record["cut"], keep = _threshold_cut(scores, dist, eps, m_cur)
        except NoThresholdFound:
            degraded = True
            break
        last_lambda = lambda_star
        gone = rows[~keep]
        record["removed"] = int(gone.size)
        alive[gone] = False
        m_cur -= gone.size
        if m_cur == 0:
            raise AllPointsPruned("filter removed every sample")
        for cols, block in tiles(gone):
            gram -= block @ block.T
            label_sum -= block @ labels[gone[cols]]
    else:
        cap_reached = True

    chi = dist.monomial_map() @ (label_sum / m_cur)
    provenance = {
        "samples_in": m_in,
        "pruned": n_pruned,
        "filtered": m_in - n_pruned - m_cur,
        "used": m_cur,
        "iterations": len(passes),
        "final_lambda": None if math.isnan(last_lambda) else float(last_lambda),
        "degraded": degraded,
        "cap_reached": cap_reached,
        "passes": passes,
    }
    return ChowEstimate(chi, dist.basis, dist, provenance, keep_mask=alive)


def robust_chow(corrupted: LabeledSampleSet, dist: ReasonableDistribution,
                params: FilterParams) -> ChowEstimate:
    """Prune, filter to fixpoint, and average y * m(x) over the survivors.

    The rows h(x) in the descriptor's orthonormal coordinates stream
    through one reused tile buffer (`dist.feature_tiles`); no (m, ell)
    matrix is stored. One stream prunes and sums and keeps each row's
    squared norm (`_survivor_sums`); the filter loop (`_filter`) then
    streams, per scoring pass, only the survivors whose norm can reach the
    cut, and then only the rows it cuts. The label-weighted mean maps
    back to monomial coordinates through `dist.monomial_map()`.

    On the hypercube at degree 1 every row has norm sqrt(n + 1). For n <= 9
    that is below 3.30, the point where the tail bound Q_1 drops under 1,
    so no row can reach the cut: no pass scores a row, and the estimate is
    the plain label-weighted mean.
    """
    floor = sample_floor(dist.ell)
    if len(corrupted) < floor:
        raise ValueError(f"need at least {floor} samples, got {len(corrupted)}")
    pts, labels = corrupted.points, corrupted.labels
    if not np.isfinite(pts).all():
        raise ValueError("sample points must be finite")
    tiles = functools.partial(dist.feature_tiles, pts)
    alive, norm2, gram, label_sum = _survivor_sums(tiles(), dist, labels)
    return _filter(tiles, labels, alive, norm2, gram, label_sum, dist, params.eps)


def empirical_chow(s: LabeledSampleSet, dist: ReasonableDistribution) -> ChowEstimate:
    """Unfiltered label-weighted monomial mean, for comparisons."""
    chi = monomial_sum(dist.basis, s.points, s.labels) / len(s)
    # Corrupted inputs can push the raw mean past the clean Cauchy-Schwarz
    # box, so skip the dist validation here.
    est = ChowEstimate(chi, dist.basis, None)
    est.dist = dist
    return est


def chow_distance(a: ChowEstimate, b: ChowEstimate) -> float:
    """sup over normalized polynomials of |L_a(p) - L_b(p)|: the whitened
     l2 distance between the Chow vectors."""
    if not a.basis.same_layout(b.basis):
        raise BasisMismatch("Chow estimates use different bases")
    if a.dist is None or b.dist is None:
        raise BasisMismatch("Chow estimate lacks a reference distribution")
    if a.dist is not b.dist and not np.allclose(a.dist.sigma, b.dist.sigma,
                                                rtol=1e-9, atol=1e-12):
        raise BasisMismatch("Chow estimates whitened against different moments")
    isqrt, _ = a.dist.whitener()
    return float(np.linalg.norm(isqrt @ (a.chi - b.chi)))
