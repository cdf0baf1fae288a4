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
from .errors import AllPointsPruned, BasisMismatch, NoThresholdFound
from .polybasis import MonomialBasis, enumerate_basis, eval_monomials_batch

DENSE_EIG_MAX = 2000
POWER_ITER_CAP = 10_000
# Power iteration stops once the eigen-residual falls below this fraction of
# the eigenvalue.
EIGEN_TOL = 1e-8
# The break level is C_BREAK * (gamma + delta + eps); calibrated so clean
# Gaussian runs at m = 1e5 converge in a couple of iterations.
C_BREAK = 10.0
# Filter passes before robust_chow stops and flags cap_reached.
MAX_ITERATIONS = 200
# Rows pruned and summed at a time; bounds the pruned-copy working set.
BLOCK_ROWS = 4096


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
            # |chi_i| = |E[f m_i]| <= sqrt(E[m_i^2]) since |f| <= 1; allow 2x
            # slack because empirical survivor moments sit above Sigma by up
            # to the filter's break level.
            bound = 2.0 * np.sqrt(np.diag(self.dist.sigma)) + 1e-6
            if np.any(np.abs(self.chi) > bound):
                raise ValueError("chi violates the Cauchy-Schwarz bound")

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


def _top_eigenpair(m_mat: np.ndarray):
    """Largest eigenvalue and eigenvector of a PSD symmetric matrix.

    Dense eigendecomposition up to DENSE_EIG_MAX, deterministic power
    iteration beyond. Eigenvector sign is fixed so both paths agree.
    """
    ell = m_mat.shape[0]
    if ell <= DENSE_EIG_MAX:
        vals, vecs = np.linalg.eigh(m_mat)
        lam, v = float(vals[-1]), vecs[:, -1]
    else:
        rng = np.random.default_rng(0x5EED)
        v = rng.standard_normal(ell)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(POWER_ITER_CAP):
            w = m_mat @ v
            nrm = float(np.linalg.norm(w))
            if nrm == 0.0:
                return 0.0, v
            v = w / nrm
            lam = float(v @ (m_mat @ v))
            # residual-based stop: loose eigenvalue stagnation converges
            # before the eigenvector does when the spectral gap is small
            if float(np.linalg.norm(m_mat @ v - lam * v)) <= EIGEN_TOL * max(1.0, abs(lam)):
                break
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        v = -v
    return lam, v


def prune_mask(h: np.ndarray, dist: ReasonableDistribution) -> np.ndarray:
    """Boolean keep mask for the prune rule |h(x)|^2 < T_max^2 / 2.

    h holds rows in the descriptor's orthonormal coordinates, where the
    squared row norm is m(x)^T Sigma^+ m(x). All-True for distributions
    that disable pruning (the hypercube). The mask may be all False:
    robust_chow applies the rule a row block at a time, and a block may
    hold nothing but outliers.
    """
    if not dist.prune_enabled:
        return np.ones(h.shape[0], dtype=bool)
    return np.einsum("ij,ij->i", h, h) < dist.t_max ** 2 / 2.0


def _threshold_cut(scores: np.ndarray, dist: ReasonableDistribution, eps: float):
    """Largest observed score T > 0 with frac{|p*| >= T} >= 4 Q_d(T) + 3 eps / T_max^2.

    Returns (T, keep_mask). Raises NoThresholdFound when no sample value
    qualifies.
    """
    m_cur = scores.shape[0]
    order = np.sort(scores)
    # sorted position of the first copy of each distinct positive score
    first = np.flatnonzero(np.r_[True, order[1:] != order[:-1]] & (order > 0.0))
    if first.size == 0:
        raise NoThresholdFound("all projections are zero")
    candidates = order[first]
    frac = (m_cur - first) / m_cur
    required = 4.0 * dist.tail(candidates) + 3.0 * eps / dist.t_max ** 2
    valid = frac >= required
    if not valid.any():
        raise NoThresholdFound("no sample value satisfies the tail-excess test")
    t_cut = float(candidates[np.nonzero(valid)[0][-1]])
    return t_cut, scores < t_cut


def sample_floor(dist: ReasonableDistribution) -> int:
    """Fewest samples the filter accepts: max(50, 2 * ell)."""
    return max(50, 2 * dist.ell)


def _survivor_sums(h: np.ndarray, dist: ReasonableDistribution,
                   labels: Optional[np.ndarray] = None):
    """Prune mask, survivor Gram h^T h and, given labels, survivor sum y h.

    One pass over the rows in blocks of BLOCK_ROWS; no pruned copy of the
    sample is kept. Pruned rows never enter either sum, so their features
    may have overflowed. The label sum is None without labels.
    """
    alive = np.empty(h.shape[0], dtype=bool)
    gram = np.zeros((dist.ell, dist.ell))
    label_sum = None if labels is None else np.zeros(dist.ell)
    for lo in range(0, h.shape[0], BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        h_b = h[rows]
        y_b = None if labels is None else labels[rows]
        keep = alive[rows] = prune_mask(h_b, dist)
        if not keep.all():
            h_b = h_b[keep]
            y_b = None if y_b is None else y_b[keep]
        gram += h_b.T @ h_b
        if y_b is not None:
            label_sum += y_b @ h_b
    return alive, gram, label_sum


def _filter(h: np.ndarray, labels: np.ndarray, alive: np.ndarray, gram: np.ndarray,
            label_sum: np.ndarray, dist: ReasonableDistribution,
            eps: float) -> ChowEstimate:
    """Filter to fixpoint from the survivor sums of `_survivor_sums`.

    Each pass takes the top eigenvector of the survivors' Gram matrix,
    scores the rows with one matrix-vector product and subtracts the cut
    rows from both sums, which it updates in place along with `alive`.
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
        lam_max, v_star = _top_eigenpair(gram / m_cur)
        lambda_star = lam_max - 1.0
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
        h_gone = h[gone]
        gram -= h_gone.T @ h_gone
        label_sum -= labels[gone] @ h_gone

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
    (`dist.featurize`) are computed once. One pass over them in row blocks
    prunes them and sums the survivors' Gram matrix and label-weighted
    rows (`_survivor_sums`); the filter loop (`_filter`) then cuts from
    those sums. The label-weighted mean maps back to monomial coordinates
    through `dist.monomial_map()`.

    On the hypercube at degree 1 every row has norm sqrt(n + 1), so every
    score is at most sqrt(n + 1). For n <= 9 that is below 3.30, the point
    where the tail bound Q_1 drops under 1, so no cut can fire and the
    estimate is the plain label-weighted mean.
    """
    floor = sample_floor(dist)
    if len(corrupted) < floor:
        raise ValueError(f"need at least {floor} samples, got {len(corrupted)}")
    if not np.isfinite(corrupted.points).all():
        raise ValueError("sample points must be finite")
    h = dist.featurize(corrupted.points)
    alive, gram, label_sum = _survivor_sums(h, dist, corrupted.labels)
    return _filter(h, corrupted.labels, alive, gram, label_sum, dist, params.eps)


def empirical_chow(s: LabeledSampleSet, dist: ReasonableDistribution) -> ChowEstimate:
    """Unfiltered label-weighted monomial mean, for comparisons."""
    phi = eval_monomials_batch(dist.basis, s.points)
    chi = (s.labels @ phi) / len(s)
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
