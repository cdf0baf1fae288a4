"""Learning degree-d polynomial threshold functions under nasty noise.

The robust Chow vector of the target pins down a bounded polynomial
hypothesis: starting from q = 0, repeatedly measure the Chow vector of the
clamped current polynomial on fresh (corrupted, self-labeled) points and add
half the whitened residual, with coefficients snapped to a xi/2 grid. The
clamp keeps the hypothesis bounded, the grid keeps the iterate count
O(1/xi^2), and the final sign gives the PTF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .adversary import AdversaryStrategy, LabeledSampleSet, corrupt
from .chowfilter import ChowEstimate, FilterParams, robust_chow
from .distributions import EPS_FLOOR, ReasonableDistribution
from .errors import ConfigError
from .polybasis import Polynomial, eval_monomials_batch

C_STOP_DEFAULT = 4.0


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

    @property
    def integer_weights(self) -> np.ndarray:
        return np.round(self.q.coeffs / (self.grid_xi / 2.0)).astype(np.int64)

    def margin(self, points: np.ndarray) -> np.ndarray:
        return self.q(points)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.clip(self.margin(points), -1.0, 1.0)


@dataclass
class PTF:
    """f(x) = sign(q(x)), sign(0) = +1."""

    poly: Polynomial

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


def project_p1(t):
    """Clamp to [-1, 1], elementwise on arrays."""
    return np.clip(t, -1.0, 1.0)


ChowOracle = Callable[[PBF], ChowEstimate]


def chow_reconstruct(target: ChowEstimate, dist: ReasonableDistribution, xi: float,
                     chow_oracle: ChowOracle, c_stop: float = C_STOP_DEFAULT) -> PBF:
    """Residual descent toward the target Chow vector.

    Each step queries the oracle for the Chow vector of the current clamped
    polynomial, whitens the residual, and when it is still above c_stop * xi
    adds half the residual polynomial (grid-rounded). When rounding swallows
    the whole half-step the loop moves one grid cell along the largest
    residual coordinate instead; it breaks out once even that single-cell
    move stops paying for itself. The iterate cap 4/xi^2 + 16 comes from the
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
    while True:
        pbf = PBF(Polynomial(dist.basis, coeffs), xi,
                  {"iterations": iterations, "cap_reached": cap_reached})
        chi_t = chow_oracle(pbf).chi
        rho = isqrt @ (chi_target - chi_t)
        residual_norm = float(np.linalg.norm(rho))
        if residual_norm <= c_stop * xi:
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

    return PBF(Polynomial(dist.basis, coeffs), xi,
               {"iterations": iterations, "cap_reached": cap_reached,
                "stalled": stalled, "final_residual": residual_norm})


def make_sampling_oracle(dist: ReasonableDistribution, eps: float,
                         strategy: AdversaryStrategy, m_per_call: int,
                         seed) -> ChowOracle:
    """Chow oracle backed by fresh corrupted points, self-labeled.

    The adversary moves up to an eps-fraction of the points, then the
    learner labels every point by the queried hypothesis, so only point
    placement (not labels) can be corrupted here. Each draw is featurized
    once: the oracle plays the sampling environment, so it knows which rows
    the adversary replaced and re-featurizes only those before relabeling
    and filtering.
    """
    base = np.random.SeedSequence(seed) if not isinstance(seed, np.random.SeedSequence) else seed
    # draws come from the second child seed; the first is left unused so a
    # given seed keeps giving the same stream
    _, stream_seed = base.spawn(2)
    stream = np.random.default_rng(stream_seed)

    def oracle(pbf: PBF) -> ChowEstimate:
        draw_seed = stream.integers(0, 2 ** 63)
        adv_seed = stream.integers(0, 2 ** 63)
        pts = dist.sample(m_per_call, draw_seed)
        phi = eval_monomials_batch(dist.basis, pts)
        clean = LabeledSampleSet(pts, np.clip(phi @ pbf.q.coeffs, -1.0, 1.0))
        moved = corrupt(clean, pbf, eps, strategy, dist, adv_seed)
        touched = moved.corrupted_mask
        if touched.any():
            phi[touched] = eval_monomials_batch(dist.basis, moved.points[touched])
        # the learner labels whatever points it is handed
        relabeled = LabeledSampleSet(moved.points, np.clip(phi @ pbf.q.coeffs, -1.0, 1.0),
                                     touched)
        return robust_chow(relabeled, dist, FilterParams(eps=eps), features=phi)

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
              chow_oracle: Optional[ChowOracle] = None,
              oracle_strategy: Optional[AdversaryStrategy] = None,
              m_oracle: Optional[int] = None, seed=0,
              c_stop: float = C_STOP_DEFAULT) -> PTF:
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
    if chow_oracle is None:
        strategy = oracle_strategy or AdversaryStrategy("none")
        m_call = m_oracle or min(len(corrupted), 100_000)
        chow_oracle = make_sampling_oracle(dist, eps, strategy, m_call, seed)
    pbf = chow_reconstruct(target, dist, xi, chow_oracle, c_stop=c_stop)
    coeffs = pbf.q.coeffs
    if not np.any(coeffs != 0.0):
        # reconstruction stopped at the zero polynomial: emit the constant
        # hypothesis matching the empirical label sign
        const = np.zeros_like(coeffs)
        const[0] = math.copysign(xi / 2.0, float(np.mean(corrupted.labels)) or 1.0)
        return PTF(Polynomial(dist.basis, const))
    return PTF(Polynomial(dist.basis, coeffs))
