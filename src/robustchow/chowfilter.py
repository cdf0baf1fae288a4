"""Robust estimation of low-degree Chow parameters by iterative spectral
filtering.

Pipeline: prune points whose whitened monomial vector is extreme, then
repeatedly find the polynomial direction of largest excess empirical second
moment and cut its tail until the top eigenvalue falls below the break level;
the Chow vector is the plain label-weighted monomial mean of the survivors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversary import LabeledSampleSet
from .distributions import EPS_FLOOR, ReasonableDistribution
from .errors import (AllPointsPruned, BasisMismatch, DimensionMismatch,
                     NoThresholdFound)
from .polybasis import MonomialBasis, enumerate_basis, eval_monomials_batch

DENSE_EIG_MAX = 2000
POWER_ITER_CAP = 10_000
SAMPLE_COUNT_CAP = 10 ** 6


@dataclass
class FilterParams:
    """Knobs for the filtering loop.

    c_break multiplies (gamma + delta + eps) to form the break level; the
    default is calibrated so clean Gaussian runs at m = 1e5 converge in a
    couple of iterations.
    """

    eps: float
    c_break: float = 10.0
    eigen_tol: float = 1e-8
    max_iterations: int = 200
    min_samples: Optional[int] = None

    def __post_init__(self):
        if not (0.0 <= self.eps < 1.0 / 3.0):
            raise ValueError(f"eps must lie in [0, 1/3), got {self.eps}")
        if self.c_break <= 0:
            raise ValueError("c_break must be positive")
        if self.max_iterations < 1:
            raise ValueError("iteration cap must be >= 1")


@dataclass
class ChowEstimate:
    """Estimated Chow vector chi_i ~ E[f(X) m_i(X)] with run provenance."""

    chi: np.ndarray
    basis: MonomialBasis
    sigma_ref: Optional[np.ndarray]
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
        if self.sigma_ref is not None:
            # |chi_i| = |E[f m_i]| <= sqrt(E[m_i^2]) since |f| <= 1; allow 2x
            # slack because empirical survivor moments sit above Sigma by up
            # to the filter's break level.
            bound = 2.0 * np.sqrt(np.diag(self.sigma_ref)) + 1e-6
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
    def from_json(cls, data: dict, sigma: Optional[np.ndarray] = None) -> "ChowEstimate":
        basis = enumerate_basis(int(data["n"]), int(data["d"]),
                                multilinear=bool(data.get("multilinear", False)))
        return cls(np.asarray(data["chi"], dtype=np.float64), basis, sigma,
                   dict(data.get("provenance", {})))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)


def _top_eigenpair(m_mat: np.ndarray, tol: float = 1e-8, method: str = "auto"):
    """Largest eigenvalue and eigenvector of a PSD symmetric matrix.

    Dense eigendecomposition up to DENSE_EIG_MAX, deterministic power
    iteration beyond. Eigenvector sign is fixed so both paths agree.
    """
    ell = m_mat.shape[0]
    if method == "auto":
        method = "dense" if ell <= DENSE_EIG_MAX else "power"
    if method == "dense":
        vals, vecs = np.linalg.eigh(m_mat)
        lam, v = float(vals[-1]), vecs[:, -1]
    elif method == "power":
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
            if float(np.linalg.norm(m_mat @ v - lam * v)) <= tol * max(1.0, abs(lam)):
                break
    else:
        raise ValueError(f"unknown eigen method {method!r}")
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        v = -v
    return lam, v


def prune_mask(phi: np.ndarray, z: np.ndarray, dist: ReasonableDistribution) -> np.ndarray:
    """Boolean keep mask for the prune rule m(x)^T Sigma^+ m(x) < T_max^2 / 2.

    phi holds the rows m(x) and z = phi @ Sigma^{-1/2} their whitened form.
    Points with mass in Sigma's null directions are marked for removal too.
    All-True for distributions that disable pruning (the hypercube).
    """
    if not dist.prune_enabled:
        return np.ones(phi.shape[0], dtype=bool)
    _, null_vectors = dist.whitener()
    quad = np.einsum("ij,ij->i", z, z)
    keep = quad < dist.t_max ** 2 / 2.0
    if null_vectors.shape[1] > 0:
        null_part = np.abs(phi @ null_vectors).max(axis=1)
        scale = np.linalg.norm(phi, axis=1) + 1e-300
        keep &= null_part <= 1e-8 * scale
    if not keep.any():
        raise AllPointsPruned("every sample exceeded the prune radius; "
                              "distribution parameters likely mismatch the data")
    return keep


def _threshold_cut(scores: np.ndarray, dist: ReasonableDistribution, eps: float):
    """Largest observed score T > 0 with frac{|p*| >= T} >= 4 Q_d(T) + 3 eps / T_max^2.

    Returns (T, keep_mask). Raises NoThresholdFound when no sample value
    qualifies.
    """
    m_cur = scores.shape[0]
    order = np.sort(scores)
    candidates = np.unique(order)
    candidates = candidates[candidates > 0.0]
    if candidates.size == 0:
        raise NoThresholdFound("all projections are zero")
    counts = m_cur - np.searchsorted(order, candidates, side="left")
    frac = counts / m_cur
    required = 4.0 * dist.tail(candidates) + 3.0 * eps / dist.t_max ** 2
    valid = frac >= required
    if not valid.any():
        raise NoThresholdFound("no sample value satisfies the tail-excess test")
    t_cut = float(candidates[np.nonzero(valid)[0][-1]])
    return t_cut, scores < t_cut


def _filter_pass(z: np.ndarray, dist: ReasonableDistribution, params: FilterParams,
                 eig_method: str = "auto"):
    """One spectral step on pre-whitened rows z = Sigma^{-1/2} m(x)."""
    m_cur = z.shape[0]
    m_mat = (z.T @ z) / m_cur
    lam_max, v_star = _top_eigenpair(m_mat, tol=params.eigen_tol, method=eig_method)
    lambda_star = lam_max - 1.0
    break_level = params.c_break * (dist.gamma + dist.delta + params.eps)
    if lambda_star <= break_level:
        return lambda_star, v_star, None, None
    scores = np.abs(z @ v_star)
    t_cut, keep = _threshold_cut(scores, dist, params.eps)
    return lambda_star, v_star, t_cut, keep


def robust_chow(corrupted: LabeledSampleSet, dist: ReasonableDistribution,
                params: FilterParams, *, features: Optional[np.ndarray] = None) -> ChowEstimate:
    """Prune, filter to fixpoint, and average y * m(x) over the survivors.

    The rows m(x) are computed once and whitened once; pruning, every filter
    pass and the final mean all read that one pair. A caller that already
    holds the feature matrix passes it as `features`, shape (m, ell).
    """
    floor = params.min_samples
    if floor is None:
        floor = max(50, 2 * dist.ell)
    if len(corrupted) < floor:
        raise ValueError(f"need at least {floor} samples, got {len(corrupted)}")
    if not np.isfinite(corrupted.points).all():
        raise ValueError("sample points must be finite")
    m_in = len(corrupted)
    if features is None:
        phi = eval_monomials_batch(dist.basis, corrupted.points)
    elif features.shape != (m_in, dist.ell):
        raise DimensionMismatch(
            f"features have shape {features.shape}, expected ({m_in}, {dist.ell})")
    else:
        phi = features
    isqrt, _ = dist.whitener()
    z_all = phi @ isqrt
    alive = prune_mask(phi, z_all, dist)
    n_pruned = m_in - int(alive.sum())

    iterations = 0
    degraded = False
    cap_reached = False
    last_lambda = math.nan
    while True:
        if iterations >= params.max_iterations:
            cap_reached = True
            break
        iterations += 1
        try:
            lambda_star, _, t_cut, keep = _filter_pass(z_all[alive], dist, params)
        except NoThresholdFound:
            degraded = True
            break
        last_lambda = lambda_star
        if t_cut is None:
            break
        idx = np.nonzero(alive)[0]
        alive[idx[~keep]] = False
        if not alive.any():
            raise AllPointsPruned("filter removed every sample")

    n_used = int(alive.sum())
    chi = (corrupted.labels[alive] @ phi[alive]) / n_used
    provenance = {
        "samples_in": m_in,
        "pruned": n_pruned,
        "filtered": m_in - n_pruned - n_used,
        "used": n_used,
        "iterations": iterations,
        "final_lambda": None if math.isnan(last_lambda) else float(last_lambda),
        "degraded": degraded,
        "cap_reached": cap_reached,
    }
    return ChowEstimate(chi, dist.basis, dist.sigma, provenance, keep_mask=alive)


def empirical_chow(s: LabeledSampleSet, dist: ReasonableDistribution) -> ChowEstimate:
    """Unfiltered label-weighted monomial mean, for comparisons."""
    phi = eval_monomials_batch(dist.basis, s.points)
    chi = (s.labels @ phi) / len(s)
    # Corrupted inputs can push the raw mean past the clean Cauchy-Schwarz
    # box, so skip sigma_ref validation here.
    est = ChowEstimate(chi, dist.basis, None,
                       {"samples_in": len(s), "used": len(s), "iterations": 0,
                        "pruned": 0, "filtered": 0, "degraded": False,
                        "cap_reached": False})
    est.sigma_ref = dist.sigma
    return est


def chow_distance(a: ChowEstimate, b: ChowEstimate) -> float:
    """sup over normalized polynomials of |L_a(p) - L_b(p)|: the whitened
     l2 distance between the Chow vectors."""
    if not a.basis.same_layout(b.basis):
        raise BasisMismatch("Chow estimates use different bases")
    if a.sigma_ref is None or b.sigma_ref is None:
        raise BasisMismatch("Chow estimate lacks a reference moment matrix")
    if not np.allclose(a.sigma_ref, b.sigma_ref, rtol=1e-9, atol=1e-12):
        raise BasisMismatch("Chow estimates whitened against different moments")
    vals, vecs = np.linalg.eigh(a.sigma_ref)
    floor = vals.max() * 1e-10
    inv_root = np.where(vals > floor, 1.0 / np.sqrt(np.maximum(vals, floor)), 0.0)
    isqrt = (vecs * inv_root) @ vecs.T
    return float(np.linalg.norm(isqrt @ (a.chi - b.chi)))


def recommended_sample_count(dist: ReasonableDistribution, eps: float) -> int:
    """Desk-scale default for the sample budget, capped at SAMPLE_COUNT_CAP."""
    eps_eff = max(eps, EPS_FLOOR)
    raw = 20.0 * dist.basis.ell * dist.t_max ** 4 / eps_eff ** 2
    return int(min(SAMPLE_COUNT_CAP, max(10 ** 4, math.ceil(raw))))
