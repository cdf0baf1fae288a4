"""Learning degree-d polynomial threshold functions under nasty noise.

The robust Chow vector of the target pins down a bounded polynomial
hypothesis: starting from q = 0, repeatedly measure the Chow vector of the
clamped current polynomial on one pool of points, corrupted anew for each
query and self-labeled, and add half the whitened residual, with
coefficients snapped to a xi/2 grid. The clamp keeps the hypothesis
bounded, the grid the iterate count O(1/xi^2); the sign gives the PTF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from .chowfilter import (ChowEstimate, FilterParams, _filter, _survivor_sums,
                         prune_mask, robust_chow, sample_floor)
from .distributions import EPS_FLOOR, ReasonableDistribution
from .errors import ConfigError
from .polybasis import Polynomial

C_STOP_DEFAULT = 4.0
# Filter provenance kept from each oracle estimate, in call order.
ORACLE_FILTER_KEYS = ("iterations", "pruned", "filtered", "degraded", "cap_reached")


@dataclass
class PBF:
    """Polynomial bounded function h(x) = clamp(q(x), -1, 1) with q's
    coefficients on the grid_xi/2 grid."""

    q: Polynomial
    grid_xi: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.grid_xi < 1.0):
            raise ValueError(f"grid step must lie in (0, 1), got {self.grid_xi}")
        step = self.grid_xi / 2.0
        off = np.abs(self.q.coeffs / step - np.round(self.q.coeffs / step))
        if off.max(initial=0.0) > 1e-6:
            raise ValueError("coefficients are not on the xi/2 grid")

    def margin(self, points: np.ndarray) -> np.ndarray:
        return self.q(points)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.clip(self.margin(points), -1.0, 1.0)


@dataclass
class PTF:
    """f(x) = sign(q(x)), sign(0) = +1."""

    poly: Polynomial
    provenance: dict = field(default_factory=dict, compare=False)  # how learn_ptf ran

    def __post_init__(self):
        if not np.any(self.poly.coeffs != 0.0):
            raise ValueError("defining polynomial is identically zero")

    def margin(self, points: np.ndarray) -> np.ndarray:
        return self.poly(points)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.where(self.margin(points) >= 0.0, 1.0, -1.0)

    def to_json(self) -> dict:
        return {"n": self.poly.basis.n, "d": self.poly.basis.d,
                "multilinear": self.poly.basis.multilinear,
                "coeffs": [float(c) for c in self.poly.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "PTF":
        from .polybasis import enumerate_basis
        basis = enumerate_basis(int(data["n"]), int(data["d"]),
                                multilinear=bool(data.get("multilinear", False)))
        return cls(Polynomial(basis, np.asarray(data["coeffs"], dtype=np.float64)))


ChowOracle = Callable[[PBF], ChowEstimate]


def chow_reconstruct(target: ChowEstimate, dist: ReasonableDistribution, xi: float,
                     chow_oracle: ChowOracle) -> PBF:
    """Residual descent toward the target Chow vector.

    Each step queries the oracle for the Chow vector of the current clamped
    polynomial, whitens the residual, and when it is still above
    C_STOP_DEFAULT * xi adds half the residual polynomial (grid-rounded).
    When rounding swallows the whole half-step the loop moves one grid cell
    along the largest residual coordinate instead; it breaks out once even
    that single-cell move stops paying for itself. The iterate cap 4/xi^2 + 16 comes from the
    quadratic potential dropping by a fixed amount per non-stalled step.
    """
    if not (0.0 < xi < 1.0):
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    if not target.basis.same_layout(dist.basis):
        raise ConfigError("target Chow estimate and distribution bases differ")
    isqrt, _ = dist.whitener()
    step = xi / 2.0
    cap = int(4.0 / xi ** 2 + 16.0)
    coeffs = np.zeros(dist.basis.ell)
    chi_target = target.chi

    iterations = 0
    cap_reached = False
    stalled = False
    residual_norm = math.inf
    last_nudge = None
    oracle_filters = []
    while True:
        est = chow_oracle(PBF(Polynomial(dist.basis, coeffs), xi))
        oracle_filters.append({k: est.provenance[k] for k in ORACLE_FILTER_KEYS})
        chi_t = est.chi
        rho = isqrt @ (chi_target - chi_t)
        residual_norm = float(np.linalg.norm(rho))
        if residual_norm <= C_STOP_DEFAULT * xi:
            break
        if iterations >= cap:
            cap_reached = True
            break
        # polynomial with orthonormal coordinates rho has monomial
        # coefficients Sigma^{-1/2} rho
        update = isqrt @ rho
        proposed = np.round((coeffs + 0.5 * update) / step) * step
        if np.array_equal(proposed, coeffs):
            j = int(np.argmax(np.abs(update)))
            # a step-sized move only lowers the potential while the
            # coordinate residual exceeds step / 2
            if abs(update[j]) <= step / 2.0:
                stalled = True
                break
            direction = 1.0 if update[j] > 0 else -1.0
            if last_nudge == (j, -direction):
                stalled = True
                break
            proposed = coeffs.copy()
            proposed[j] += direction * step
            last_nudge = (j, direction)
        else:
            last_nudge = None
        coeffs = proposed
        iterations += 1

    # every pass of the loop queries the oracle once
    return PBF(Polynomial(dist.basis, coeffs), xi,
               {"iterations": iterations, "cap_reached": cap_reached,
                "stalled": stalled, "final_residual": residual_norm,
                "oracle_calls": iterations + 1, "oracle_filters": oracle_filters})


def make_sampling_oracle(dist: ReasonableDistribution, eps: float,
                         strategy: AdversaryStrategy, m_per_call: int,
                         seed) -> ChowOracle:
    """Chow oracle on one clean pool, corrupted anew per call, self-labeled.

    Building the oracle draws and featurizes m_per_call points and prunes
    them once, keeping the pool's prune mask and survivor Gram matrix; uniform
    convergence over clipped degree-d polynomials covers every query on
    that one pool, adaptive queries included. Each call lets the adversary
    move up to an eps-fraction of the points, then labels all of them by
    the queried hypothesis, so only placement (not labels) is corrupted.
    A copy of the pool's sums is then corrected by the moved rows: their
    old rows leave if they survived the prune, their new rows enter if
    they pass it. One gemv sums the survivors' labels and the filter loop
    runs as in `robust_chow`, which gives the same estimate on the moved
    sample up to summation order. The moved rows' features replace the
    pool's for the filter and are swapped back afterwards, also when the
    filter raises.
    """
    floor = sample_floor(dist)
    if m_per_call < floor:
        raise ValueError(f"oracle pool needs at least {floor} points, got {m_per_call}")
    stream = np.random.default_rng(seed)
    pts = dist.sample(m_per_call, stream.integers(0, 2 ** 63))
    h = dist.featurize(pts)
    pool_alive, pool_gram, _ = _survivor_sums(h, dist)

    def oracle(pbf: PBF) -> ChowEstimate:
        adv_seed = stream.integers(0, 2 ** 63)
        # q(x) = q . m(x) = (C^T q) . h(x) with m(x) = C h(x)
        weights = dist.monomial_map().T @ pbf.q.coeffs
        clean = LabeledSampleSet(pts, np.clip(h @ weights, -1.0, 1.0))
        moved = corrupt(clean, pbf, eps, strategy, dist, adv_seed)
        idx = np.flatnonzero(moved.corrupted_mask)
        if not np.isfinite(moved.points[idx]).all():
            raise ValueError("sample points must be finite")
        rows = dist.featurize(moved.points[idx])
        # the learner labels whatever points it is handed
        moved.labels[idx] = np.clip(rows @ weights, -1.0, 1.0)
        alive, gram = pool_alive.copy(), pool_gram.copy()
        old = h[idx[alive[idx]]]
        gram -= old.T @ old
        keep = alive[idx] = prune_mask(rows, dist)
        new = rows[keep]
        gram += new.T @ new
        saved = h[idx]
        try:
            h[idx] = rows
            # a view when nothing is pruned; pruned rows may have overflowed
            surv = slice(None) if alive.all() else alive
            label_sum = moved.labels[surv] @ h[surv]
            return _filter(h, moved.labels, alive, gram, label_sum, dist, eps)
        finally:
            h[idx] = saved

    return oracle


def default_xi(dist: ReasonableDistribution, eps: float, m: int,
               achieved_excess: Optional[float] = None) -> float:
    """Grid scale matched to the achieved Chow error.

    The error of the filtered estimate scales like
    sqrt(eps (gamma + excess + eps)) where excess is the spectral excess the
    filter actually terminated at, plus a sqrt(ell / m) sampling floor. The
    a-priori tail constant is a gross overestimate of the excess at low
    degree, so when the filter has run we use its reported final value.
    """
    eps_eff = max(eps, EPS_FLOOR)
    excess = dist.delta if achieved_excess is None else achieved_excess
    excess = min(dist.delta, max(float(excess), 0.0))
    robust_scale = math.sqrt(eps_eff * (dist.gamma + excess + eps_eff))
    sampling = math.sqrt(dist.basis.ell / m)
    return float(min(0.5, max(robust_scale, 1.5 * sampling, 0.02)))


def learn_ptf(corrupted: LabeledSampleSet, dist: ReasonableDistribution, d: int,
              eps: float, xi: Optional[float] = None,
              oracle_strategy: Optional[AdversaryStrategy] = None,
              m_oracle: Optional[int] = None, seed=0) -> PTF:
    """Robust Chow estimate of the target, then Chow reconstruction, then
    the sign of the reconstructed polynomial."""
    if dist.basis.d != d:
        raise ConfigError(f"distribution basis has degree {dist.basis.d}, wanted {d}")
    if dist.basis.multilinear and d != 1:
        raise ConfigError("hypercube path supports degree 1 only")
    target = robust_chow(corrupted, dist, FilterParams(eps=eps))
    if xi is None:
        xi = default_xi(dist, eps, len(corrupted),
                        achieved_excess=target.provenance.get("final_lambda"))
    strategy = oracle_strategy or AdversaryStrategy("none")
    m_call = min(len(corrupted), 100_000) if m_oracle is None else m_oracle
    oracle = make_sampling_oracle(dist, eps, strategy, m_call, seed)
    pbf = chow_reconstruct(target, dist, xi, oracle)
    coeffs = pbf.q.coeffs
    provenance = {"target": dict(target.provenance), **pbf.provenance}
    if not np.any(coeffs != 0.0):
        # reconstruction stopped at the zero polynomial: emit the constant
        # hypothesis matching the empirical label sign
        coeffs = np.zeros_like(coeffs)
        coeffs[0] = math.copysign(xi / 2.0, float(np.mean(corrupted.labels)) or 1.0)
    return PTF(Polynomial(dist.basis, coeffs), provenance)
