"""Robust estimation of low-degree Chow parameters by iterative spectral
filtering.

Pipeline: prune points whose feature vector in orthonormal coordinates is
extreme, then repeatedly find the polynomial direction of largest excess
empirical second moment and cut its tail until the top eigenvalue falls
below the break level; the Chow vector is the label-weighted mean of the
survivors' features, mapped back to monomial coordinates.
"""

from __future__ import annotations

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


def prune_mask(h: np.ndarray, dist: ReasonableDistribution) -> np.ndarray:
    """Boolean keep mask for the prune rule |h(x)|^2 < T_max^2 / 2.

    h holds rows in the descriptor's orthonormal coordinates, where the
    squared row norm is m(x)^T Sigma^+ m(x). All-True for distributions
    that disable pruning (the hypercube). The mask may be all False: the
    PTF oracle applies the rule to the moved rows alone, and they may be
    nothing but outliers.
    """
    if not dist.prune_enabled:
        return np.ones(h.shape[0], dtype=bool)
    return np.einsum("ij,ij->i", h, h) < dist.t_max ** 2 / 2.0


def _threshold_cut(scores: np.ndarray, dist: ReasonableDistribution, eps: float):
    """Largest observed score T > 0 with frac{|p*| >= T} >= 4 Q_d(T) + 3 eps / T_max^2.

    Returns (T, keep_mask). Raises NoThresholdFound when no sample value
    qualifies. Sorts only the k largest scores, and sorts more while no
    value above the rest qualifies.
    """
    m_cur = scores.shape[0]
    k = 4 * math.ceil(eps * m_cur) + 256
    while True:
        split = max(m_cur - k, 0)   # 0: a sort of every score
        part = np.partition(scores, split - 1)
        pivot, top = (part[split - 1] if split else 0.0), np.sort(part[split:])
        # a value above the pivot has its first copy in top, split places
        # before its position among all the sorted scores
        first = np.flatnonzero(np.r_[True, top[1:] != top[:-1]] & (top > pivot))
        candidates = top[first]
        required = 4.0 * dist.tail(candidates) + 3.0 * eps / dist.t_max ** 2
        valid = (m_cur - split - first) / m_cur >= required
        if valid.any():
            t_cut = float(candidates[np.nonzero(valid)[0][-1]])
            return t_cut, scores < t_cut
        if not split:
            raise NoThresholdFound("no sample value satisfies the tail-excess test"
                                   if first.size else "all projections are zero")
        k *= 4


def sample_floor(ell: int) -> int:
    """Fewest samples the filter accepts on ell monomials: max(50, 2 * ell)."""
    return max(50, 2 * ell)


def _survivor_sums(h: np.ndarray, dist: ReasonableDistribution,
                   labels: Optional[np.ndarray] = None):
    """Prune mask, survivor Gram h^T h and, given labels, survivor sum y h.

    h is feature-major, as `dist.featurize` stores it: h.T is C-contiguous,
    so the Gram matrix is one syrk and the label sum one gemv over every
    row. Pruned rows and their labels may have overflowed, so they never
    enter either sum: the rows are zeroed while the products run and
    restored afterwards, and their labels are replaced by zeros. The label
    sum is None without labels.
    """
    alive = prune_mask(h, dist)
    h_t, dead = h.T, np.flatnonzero(~alive)
    saved = h_t[:, dead]
    h_t[:, dead] = 0.0
    try:
        gram = h_t @ h
        label_sum = None if labels is None else h_t @ np.where(alive, labels, 0.0)
    finally:
        h_t[:, dead] = saved
    return alive, gram, label_sum


def _filter(h: np.ndarray, labels: np.ndarray, alive: np.ndarray, gram: np.ndarray,
            label_sum: np.ndarray, dist: ReasonableDistribution,
            eps: float) -> ChowEstimate:
    """Filter to fixpoint from the survivor sums of `_survivor_sums`.

    Each pass takes the top eigenvector of the survivors' Gram matrix,
    scores the rows by one einsum and subtracts the cut rows, gathered
    feature-major, from both sums, which it updates in place along with
    `alive`.
    """
    m_in = h.shape[0]
    m_cur = int(alive.sum())
    if m_cur == 0:
        raise AllPointsPruned("every sample exceeded the prune radius; "
                              "distribution parameters likely mismatch the data")
    n_pruned = m_in - m_cur
    break_level = C_BREAK * (dist.gamma + dist.delta + eps)

    iterations = 0
    degraded = False
    cap_reached = False
    last_lambda = math.nan
    while True:
        if iterations >= MAX_ITERATIONS:
            cap_reached = True
            break
        iterations += 1
        # |h . v| ignores v's sign; a contiguous v takes einsum's faster loop
        vals, vecs = np.linalg.eigh(gram / m_cur)
        lambda_star, v_star = float(vals[-1]) - 1.0, np.ascontiguousarray(vecs[:, -1])
        if lambda_star <= break_level:
            last_lambda = lambda_star
            break
        # einsum scores every row by the same loop, so identical points tie
        # exactly; BLAS gemv may round its last rows differently and split
        # a cluster of identical outliers at the cut.
        idx = np.nonzero(alive)[0]
        scores = np.abs(np.einsum("ij,j->i", h, v_star))[idx]
        try:
            _, keep = _threshold_cut(scores, dist, eps)
        except NoThresholdFound:
            degraded = True
            break
        last_lambda = lambda_star
        gone = idx[~keep]
        alive[gone] = False
        m_cur -= gone.size
        if m_cur == 0:
            raise AllPointsPruned("filter removed every sample")
        h_gone = h.T.take(gone, axis=1)
        gram -= h_gone @ h_gone.T
        label_sum -= h_gone @ labels[gone]

    chi = dist.monomial_map() @ (label_sum / m_cur)
    provenance = {
        "samples_in": m_in,
        "pruned": n_pruned,
        "filtered": m_in - n_pruned - m_cur,
        "used": m_cur,
        "iterations": iterations,
        "final_lambda": None if math.isnan(last_lambda) else float(last_lambda),
        "degraded": degraded,
        "cap_reached": cap_reached,
    }
    return ChowEstimate(chi, dist.basis, dist, provenance, keep_mask=alive)


def robust_chow(corrupted: LabeledSampleSet, dist: ReasonableDistribution,
                params: FilterParams) -> ChowEstimate:
    """Prune, filter to fixpoint, and average y * m(x) over the survivors.

    The rows h(x) in the descriptor's orthonormal coordinates
    (`dist.featurize`) are computed once, stored feature-major. One pass
    prunes them, then one syrk and one gemv sum the survivors' Gram matrix
    and label-weighted rows (`_survivor_sums`); the filter loop (`_filter`)
    then cuts from those sums. The label-weighted mean maps back to
    monomial coordinates through `dist.monomial_map()`.

    On the hypercube at degree 1 every row has norm sqrt(n + 1), so every
    score is at most sqrt(n + 1). For n <= 9 that is below 3.30, the point
    where the tail bound Q_1 drops under 1, so no cut can fire and the
    estimate is the plain label-weighted mean.
    """
    floor = sample_floor(dist.ell)
    if len(corrupted) < floor:
        raise ValueError(f"need at least {floor} samples, got {len(corrupted)}")
    if not np.isfinite(corrupted.points).all():
        raise ValueError("sample points must be finite")
    h = dist.featurize(corrupted.points)
    alive, gram, label_sum = _survivor_sums(h, dist, corrupted.labels)
    return _filter(h, corrupted.labels, alive, gram, label_sum, dist, params.eps)


def empirical_chow(s: LabeledSampleSet, dist: ReasonableDistribution) -> ChowEstimate:
    """Unfiltered label-weighted monomial mean, for comparisons."""
    chi = monomial_sum(dist.basis, s.points, s.labels) / len(s)
    # Corrupted inputs can push the raw mean past the clean Cauchy-Schwarz
    # box, so skip the dist validation here.
    est = ChowEstimate(chi, dist.basis, None,
                       {"samples_in": len(s), "used": len(s), "iterations": 0,
                        "pruned": 0, "filtered": 0, "degraded": False,
                        "cap_reached": False})
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
