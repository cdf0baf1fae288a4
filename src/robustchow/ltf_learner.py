"""Learning linear threshold functions under nasty noise on the Gaussian.

A weak hypothesis comes straight from the robust degree-1 Chow vector
(error O(eps sqrt(log(1/eps)))). Localization then boosts it to O(eps):
rejection sampling concentrates fresh samples near the current guess's
boundary, the restricted target is again an LTF whose Chow direction reveals
the misalignment, and closed-form geometry folds the correction back in.
The calibrated delta recursion allows at most one such step, and none for
very biased targets, where the constant candidate is already within O(eps).
Both signs of theta take the same path. Holdout selection picks among the
weak, constant and localized candidates, so it alone judges whether a
direction is only noise: such a direction loses to the constant there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .adversary import LabeledSampleSet
from .chowfilter import FilterParams, robust_chow, sample_floor
from .distributions import EPS_FLOOR, ReasonableDistribution, gaussian_descriptor
from .errors import AcceptanceTooLow, ZeroChowVector
from .hypothesis_select import select

CONSTANT_THETA = 1e6        # |theta| at or above this encodes a constant sign
EPS_PRIME_CAP = 0.3         # effective corruption rate fed to the filter
ACCEPT_TARGET = 50_000      # accepted points a moderate step draws for
EXTREME_ACCEPT_TARGET = 4_000  # accepted points an extreme trial draws for
# Branch-plumbing constants. The guarantees fix them only up to O(1), so they
# are calibrated here.
CONST_MARGIN = 0.25         # constant branch: 1 - |E f| <= margin * eps
REGIME_KAPPA = 1.0          # no localization once theta e^{theta^2/2} >= kappa sqrt(L)/eps
LOOP_C = 1.0                # delta recursion: delta' = c eps sqrt(log(delta/eps))
WEAK_C = 6.0                # initial bound: delta0 = c eps sqrt(log(1/eps))
DELTA0_CAP = 0.4
B_CAP = 0.25                # largest misalignment b an extreme trial guesses

SampleSource = Callable[[int, int], LabeledSampleSet]


def _seed_seq(seed) -> np.random.SeedSequence:
    """A learner's seed, an int or a SeedSequence, as a fresh SeedSequence:
    spawning advances a SeedSequence, so the caller's own object, passed
    twice, would give different draws."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(seed)


@dataclass
class LTF:
    """f(x) = sign(v . x + theta), with sign(0) = +1."""

    v: np.ndarray
    theta: float

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        if abs(np.linalg.norm(self.v) - 1.0) > 1e-10:
            raise ValueError("defining vector must be unit length")
        self.theta = float(self.theta)

    def margin(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.v + self.theta

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.where(self.margin(points) >= 0.0, 1.0, -1.0)

    def to_json(self) -> dict:
        return {"v": [float(c) for c in self.v], "theta": self.theta}

    @classmethod
    def from_json(cls, data: dict) -> "LTF":
        return cls(np.asarray(data["v"], dtype=np.float64), float(data["theta"]))


def constant_ltf(n: int, value: float) -> LTF:
    """The constant s = sign(value), with sign(0) = +1, as (s e_1,
    s CONSTANT_THETA), so the two constants are negatives of each other."""
    v = np.zeros(n)
    v[0] = 1.0 if value >= 0 else -1.0
    return LTF(v, CONSTANT_THETA * v[0])


@dataclass
class RejectionParams:
    """Accept x with probability exp(-(sigma^-2 - 1)(v.x + theta/(1-sigma^2))^2 / 2).

    On standard Gaussian input the overall acceptance rate is
    sigma * exp(-theta^2 / (2 (1 - sigma^2))) and the accepted law is
    N(-theta v, I - (1 - sigma^2) v v^T): localized to the slab around
    v . x = -theta with the v-direction variance shrunk to sigma^2.
    """

    v: np.ndarray
    theta: float
    sigma: float

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        if abs(np.linalg.norm(self.v) - 1.0) > 1e-8:
            raise ValueError("rejection direction must be unit length")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        self.theta = float(self.theta)

    def acceptance(self, points: np.ndarray) -> np.ndarray:
        t = np.asarray(points, dtype=np.float64) @ self.v
        shift = self.theta / (1.0 - self.sigma ** 2)
        coef = 1.0 / self.sigma ** 2 - 1.0
        return np.exp(-0.5 * coef * (t + shift) ** 2)

    def expected_rate(self) -> float:
        return self.sigma * math.exp(-self.theta ** 2 / (2.0 * (1.0 - self.sigma ** 2)))


@dataclass
class LTFConfig:
    """Sample budgets of the localization step and the holdout."""

    batch_cap: int = 400_000
    extreme_batch_cap: int = 200_000    # read only by refine_extreme
    holdout_size: int = 20_000


def estimate_threshold(s: LabeledSampleSet) -> float:
    """Invert E[sign(v.X + theta)] = 2 Phi(theta) - 1 on the empirical mean."""
    mean = float(np.clip(np.mean(s.labels), -1.0 + 1e-9, 1.0 - 1e-9))
    return float(ndtri((mean + 1.0) / 2.0))


def gaussian_pdf(theta: float) -> float:
    return math.exp(-theta * theta / 2.0) / math.sqrt(2.0 * math.pi)


def recover_ab(c_perp: float, sigma: float):
    """Invert the whitening distortion: the restricted Chow direction is
    (a sigma v + b w) normalized, whose perpendicular fraction is c_perp;
    solve for (a, b) with a^2 + b^2 = 1."""
    c_perp = min(max(c_perp, 0.0), 1.0 - 1e-12)
    kappa = sigma * c_perp / math.sqrt(1.0 - c_perp ** 2)
    a = 1.0 / math.sqrt(1.0 + kappa ** 2)
    return a, kappa * a


def _rejection_mask(points: np.ndarray, rp: RejectionParams, rng) -> np.ndarray:
    return rng.random(points.shape[0]) < rp.acceptance(points)


def _whiten_accepted(points: np.ndarray, rp: RejectionParams) -> np.ndarray:
    """Map accepted x to y = A^{-1/2}(x + theta v) ~ N(0, I), using the
    rank-one form A^{-1/2} = I + (1/sigma - 1) v v^T."""
    shifted = points + rp.theta * rp.v
    along = shifted @ rp.v
    return shifted + np.outer((1.0 / rp.sigma - 1.0) * along, rp.v)


def _chow_subbatch(batch: LabeledSampleSet, keep: np.ndarray, rp: RejectionParams,
                   eps_prime: float):
    """Robust degree-1 Chow of the restricted target in whitened coordinates."""
    y = _whiten_accepted(batch.points[keep], rp)
    gdist = gaussian_descriptor(y.shape[1], 1, eps_prime)
    est = robust_chow(LabeledSampleSet(y, batch.labels[keep]), gdist,
                      FilterParams(eps=eps_prime))
    return est.chi[1:]


def weak_learn_ltf(corrupted: LabeledSampleSet, dist: ReasonableDistribution,
                   eps: float) -> LTF:
    """Normalize the robust degree-1 Chow vector; threshold from the label mean."""
    u = robust_chow(corrupted, dist, FilterParams(eps=eps)).chi[1:]
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        raise ZeroChowVector("the degree-1 Chow vector is exactly zero")
    return LTF(u / nrm, estimate_threshold(corrupted))


def refine_moderate(source, v_prev: np.ndarray, theta: float, delta_prev: float,
                    eps: float, seed, config: LTFConfig):
    """One localization step in the moderate-bias regime.

    Returns u_new, an estimate of the degree-1 Chow vector 2 G(theta) v_true
    with error O(eps sqrt(log(delta_prev / eps))); delta_prev in (0, 1] is
    the error bound of the current direction v_prev.
    """
    if not (0.0 < delta_prev <= 1.0):
        raise ValueError(f"delta_prev out of range: {delta_prev}")
    eps_eff = max(eps, EPS_FLOOR)
    v_prev = np.asarray(v_prev, dtype=np.float64)
    sigma = min(0.5, delta_prev * math.exp(theta ** 2 / 2.0))
    sigma = max(sigma, 1e-6)
    rp = RejectionParams(v_prev, theta, sigma)

    rate_exp = rp.expected_rate()
    floor = sample_floor(v_prev.shape[0] + 1)
    m_batch = int(min(config.batch_cap,
                      max(4 * floor, math.ceil(ACCEPT_TARGET / max(rate_exp, 1e-6)))))
    draw_seed, rej_seed = _seed_seq(seed).spawn(2)
    batch = source(m_batch, draw_seed)
    keep = _rejection_mask(batch.points, rp, np.random.default_rng(rej_seed))
    rate_emp = float(keep.mean())
    if rate_emp < eps or keep.sum() < floor:
        raise AcceptanceTooLow(f"acceptance rate {rate_emp:.2e} too low at "
                               f"sigma={sigma:.2e}")

    eps_prime = min(EPS_PRIME_CAP, eps_eff / delta_prev)
    u_g = _chow_subbatch(batch, keep, rp, eps_prime)
    xhat = u_g / np.linalg.norm(u_g)
    par = float(xhat @ v_prev)
    c_perp = math.sqrt(max(0.0, 1.0 - par ** 2))
    a, b = recover_ab(c_perp, sigma)
    perp = xhat - par * v_prev
    perp_nrm = float(np.linalg.norm(perp))
    w = perp / perp_nrm if perp_nrm > 1e-12 else np.zeros_like(v_prev)
    if perp_nrm <= 1e-12:
        a, b = 1.0, 0.0
    return 2.0 * gaussian_pdf(theta) * (a * v_prev + b * w)


def refine_extreme(source, theta: float, eps: float, u: np.ndarray, seed,
                   config: LTFConfig):
    """One randomized trial for heavily biased targets; returns a candidate u.

    Guesses the misalignment magnitude b on a coarse grid, shifts the
    rejection threshold uniformly inside the guess's slack, and reads the
    correction direction from the restricted Chow vector. No learner calls
    it: where `learn_ltf` routes a target past localization (eps >= 1e-4),
    a trial's expected acceptance stays under its own 3 eps floor, so every
    trial raises `AcceptanceTooLow`.
    """
    if not theta > 0.0:
        raise ValueError(f"extreme branch needs theta > 0, got {theta}")
    eps_eff = max(eps, EPS_FLOOR)
    u = np.asarray(u, dtype=np.float64)
    v = u / np.linalg.norm(u)
    log_term = math.log(1.0 / eps_eff)
    guess_seed, draw_seed, rej_seed = _seed_seq(seed).spawn(3)
    rng = np.random.default_rng(guess_seed)

    step = 1.0 / log_term
    b = step * int(rng.integers(0, int(B_CAP / step) + 1))
    a = math.sqrt(1.0 - b ** 2)
    sigma = min(0.9, 1.0 / theta)
    s = float(rng.uniform(a * theta, a * theta + b))
    rp = RejectionParams(v, s, sigma)

    rate_exp = rp.expected_rate()
    floor = sample_floor(v.shape[0] + 1)
    m_batch = int(min(config.extreme_batch_cap,
                      max(4 * floor,
                          math.ceil(EXTREME_ACCEPT_TARGET / max(rate_exp, 1e-8)))))
    batch = source(m_batch, draw_seed)
    keep = _rejection_mask(batch.points, rp, np.random.default_rng(rej_seed))
    rate_emp = float(keep.mean())
    if rate_emp < 3.0 * eps or keep.sum() < floor:
        raise AcceptanceTooLow(f"trial acceptance rate {rate_emp:.2e} too low")

    eps_prime = min(EPS_PRIME_CAP, eps_eff / max(rate_emp, eps_eff))
    u_g = _chow_subbatch(batch, keep, rp, eps_prime)
    nrm = float(np.linalg.norm(u_g))
    if nrm < 1e-12:
        raise ZeroChowVector("restricted target has no usable Chow direction")
    xhat = u_g / nrm
    if b > step / 2.0:
        scale = math.sqrt((a * sigma) ** 2 + b ** 2)
        w = (xhat * scale - a * sigma * v) / b
        w = w - (w @ v) * v
        w_nrm = float(np.linalg.norm(w))
        w = w / w_nrm if w_nrm > 1e-12 else np.zeros_like(v)
        if w_nrm <= 1e-12:
            a, b = 1.0, 0.0
    else:
        a, b, w = 1.0, 0.0, np.zeros_like(v)
    return 2.0 * gaussian_pdf(theta) * (a * v + b * w)


def learn_ltf(corrupted: LabeledSampleSet, dist: ReasonableDistribution, eps: float,
              source: SampleSource, seed=0,
              config: Optional[LTFConfig] = None) -> LTF:
    """Constant branch, weak learner, at most one localization step, holdout
    selection. Targets O(eps) disagreement.

    The step runs unless the target is so biased that |theta| e^{theta^2/2}
    >= REGIME_KAPPA sqrt(log(1/eps))/eps, and only when the delta recursion
    halves the weak bound. It is symmetric in theta, so both signs take this
    one path. A step that accepts too few points (`AcceptanceTooLow`) adds no
    candidate. Holdout selection then picks among the weak, constant and
    localized hypotheses.

    source(m, seed) draws m fresh corrupted samples; the localization
    batch and the holdout come from it, never from `corrupted`.
    """
    config = config or LTFConfig()
    eps_eff = max(eps, EPS_FLOOR)
    n = corrupted.n
    mean = float(np.mean(corrupted.labels))
    theta0 = estimate_threshold(corrupted)
    constant = constant_ltf(n, mean)

    if 1.0 - abs(mean) <= CONST_MARGIN * eps:
        return constant

    s_branch, s_holdout = _seed_seq(seed).spawn(2)
    weak = weak_learn_ltf(corrupted, dist, eps)
    candidates = [weak, constant]
    branch_seed = int(s_branch.generate_state(1)[0])

    log_term = math.log(1.0 / eps_eff)
    extreme = (abs(theta0) * math.exp(theta0 ** 2 / 2.0)
               >= REGIME_KAPPA * math.sqrt(log_term) / eps_eff)
    delta0 = min(DELTA0_CAP, WEAK_C * eps_eff * math.sqrt(max(1.0, log_term)))
    delta_next = LOOP_C * eps_eff * math.sqrt(max(1.0, math.log(delta0 / eps_eff)))
    if not extreme and delta_next < delta0 / 2.0:
        try:
            u_new = refine_moderate(source, weak.v, theta0, delta0, eps,
                                    seed=branch_seed, config=config)
            candidates.append(LTF(u_new / np.linalg.norm(u_new), theta0))
        except AcceptanceTooLow:
            pass

    holdout = source(config.holdout_size, s_holdout)
    winner, _ = select(candidates, holdout)
    return winner
