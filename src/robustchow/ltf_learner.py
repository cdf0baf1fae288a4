"""Learning linear threshold functions under nasty noise on the Gaussian.

A weak hypothesis comes straight from the robust degree-1 Chow vector
(error O(eps sqrt(log(1/eps)))). Localization then boosts it to O(eps):
rejection sampling concentrates fresh samples near the current guess's
boundary, the restricted target is again an LTF whose Chow direction reveals
the misalignment, and closed-form geometry folds the correction back in.
Very biased targets get a randomized threshold-shift variant; all produced
candidates go through holdout selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.stats import norm as _norm

from .adversary import LabeledSampleSet
from .chowfilter import FilterParams, robust_chow
from .distributions import EPS_FLOOR, ReasonableDistribution, gaussian_descriptor
from .errors import AcceptanceTooLow, ZeroChowVector
from .hypothesis_select import select

CONSTANT_THETA = 1e6        # |theta| at or above this encodes a constant sign
EPS_PRIME_CAP = 0.3         # effective corruption rate fed to the filter
MIN_ACCEPTED = 50           # fewer accepted points than this aborts a step
ACCEPT_TARGET = 50_000      # accepted points a moderate step draws for
EXTREME_ACCEPT_TARGET = 4_000  # accepted points an extreme trial draws for
# Branch-plumbing constants. The guarantees fix them only up to O(1), so they
# are calibrated here.
CONST_MARGIN = 0.25         # constant branch: 1 - |E f| <= margin * eps
REGIME_KAPPA = 1.0          # extreme branch: theta e^{theta^2/2} >= kappa sqrt(L)/eps
LOOP_C = 1.0                # delta recursion: delta' = c eps sqrt(log(delta/eps))
WEAK_C = 6.0                # initial bound: delta0 = c eps sqrt(log(1/eps))
DELTA0_CAP = 0.4
B_CAP = 0.25                # largest misalignment b an extreme trial guesses
TRIAL_BUDGET_C = 50.0       # extreme trials: c log^2(1/eps)
MAX_MODERATE_ITERS = 25

SampleSource = Callable[[int, int], LabeledSampleSet]


def _seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
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

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def is_constant(self) -> bool:
        return abs(self.theta) >= CONSTANT_THETA / 2

    def margin(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.v + self.theta

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.where(self.margin(points) >= 0.0, 1.0, -1.0)

    def to_json(self) -> dict:
        return {"v": [float(c) for c in self.v], "theta": self.theta}

    @classmethod
    def from_json(cls, data: dict) -> "LTF":
        return cls(np.asarray(data["v"], dtype=np.float64), float(data["theta"]))


def constant_ltf(n: int, sign: float) -> LTF:
    v = np.zeros(n)
    v[0] = 1.0
    return LTF(v, CONSTANT_THETA if sign >= 0 else -CONSTANT_THETA)


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
class LocalizationState:
    """One localization step's bookkeeping: the new Chow estimate u, the
    error bound it was run at, and the recovered decomposition
    v_new = a * v_prev + b * w (a^2 + b^2 = 1)."""

    u: np.ndarray
    delta: float
    a: float
    b: float
    w: np.ndarray
    s: Optional[float] = None   # shifted rejection threshold, extreme branch

    def __post_init__(self):
        if not (0.0 < self.a <= 1.0 + 1e-12):
            raise ValueError(f"a out of range: {self.a}")
        if not (0.0 <= self.b < 1.0):
            raise ValueError(f"b out of range: {self.b}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta out of range: {self.delta}")


@dataclass
class LTFConfig:
    """Sample budgets of the localization steps and the holdout."""

    batch_cap: int = 400_000
    extreme_batch_cap: int = 200_000
    holdout_size: int = 20_000


def estimate_threshold(s: LabeledSampleSet) -> float:
    """Invert E[sign(v.X + theta)] = 2 Phi(theta) - 1 on the empirical mean."""
    mean = float(np.clip(np.mean(s.labels), -1.0 + 1e-9, 1.0 - 1e-9))
    return float(_norm.ppf((mean + 1.0) / 2.0))


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
    est = robust_chow(corrupted, dist, FilterParams(eps=eps))
    u = est.chi[1:]
    nrm = float(np.linalg.norm(u))
    floor = 10.0 * math.sqrt(corrupted.n / len(corrupted))
    theta = estimate_threshold(corrupted)
    if nrm < floor:
        # near-constant target: the direction is pure noise
        return constant_ltf(corrupted.n, np.sign(np.mean(corrupted.labels)) or 1.0)
    return LTF(u / nrm, theta)


def refine_moderate(source, v_prev: np.ndarray, theta: float, delta_prev: float,
                    eps: float, seed, config: LTFConfig):
    """One localization step in the moderate-bias regime.

    Returns (u_new, LocalizationState); u_new estimates the degree-1 Chow
    vector 2 G(theta) v_true with error O(eps sqrt(log(delta_prev / eps))).
    """
    eps_eff = max(eps, EPS_FLOOR)
    v_prev = np.asarray(v_prev, dtype=np.float64)
    sigma = min(0.5, delta_prev * math.exp(theta ** 2 / 2.0))
    sigma = max(sigma, 1e-6)
    rp = RejectionParams(v_prev, theta, sigma)

    rate_exp = rp.expected_rate()
    m_batch = int(min(config.batch_cap,
                      max(4 * MIN_ACCEPTED,
                          math.ceil(ACCEPT_TARGET / max(rate_exp, 1e-6)))))
    draw_seed, rej_seed = _seed_seq(seed).spawn(2)
    batch = source(m_batch, draw_seed)
    keep = _rejection_mask(batch.points, rp, np.random.default_rng(rej_seed))
    rate_emp = float(keep.mean())
    if rate_emp < eps or keep.sum() < MIN_ACCEPTED:
        raise AcceptanceTooLow(f"acceptance rate {rate_emp:.2e} too low at "
                               f"sigma={sigma:.2e}")

    eps_prime = min(EPS_PRIME_CAP, eps_eff / delta_prev)
    u_g = _chow_subbatch(batch, keep, rp, eps_prime)
    nrm = float(np.linalg.norm(u_g))
    if nrm < 10.0 * math.sqrt(v_prev.shape[0] / max(int(keep.sum()), 1)):
        raise ZeroChowVector("restricted target has no usable Chow direction")
    xhat = u_g / nrm
    par = float(xhat @ v_prev)
    c_perp = math.sqrt(max(0.0, 1.0 - par ** 2))
    a, b = recover_ab(c_perp, sigma)
    perp = xhat - par * v_prev
    perp_nrm = float(np.linalg.norm(perp))
    w = perp / perp_nrm if perp_nrm > 1e-12 else np.zeros_like(v_prev)
    if perp_nrm <= 1e-12:
        a, b = 1.0, 0.0
    u_new = 2.0 * gaussian_pdf(theta) * (a * v_prev + b * w)
    return u_new, LocalizationState(u_new, delta_prev, a, b, w)


def refine_extreme(source, theta: float, eps: float, delta: float,
                   u: np.ndarray, seed, config: LTFConfig):
    """One randomized trial for heavily biased targets.

    Guesses the misalignment magnitude b on a coarse grid, shifts the
    rejection threshold uniformly inside the guess's slack, and reads the
    correction direction from the restricted Chow vector. Any single trial
    succeeds only with inverse-polylog probability; the caller runs a budget
    of trials and lets holdout selection keep the good ones.
    """
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
    if sigma <= 0.0:
        raise ValueError("extreme branch needs theta > 0")
    s = float(rng.uniform(a * theta, a * theta + b))
    rp = RejectionParams(v, s, sigma)

    rate_exp = rp.expected_rate()
    m_batch = int(min(config.extreme_batch_cap,
                      max(4 * MIN_ACCEPTED,
                          math.ceil(EXTREME_ACCEPT_TARGET / max(rate_exp, 1e-8)))))
    batch = source(m_batch, draw_seed)
    keep = _rejection_mask(batch.points, rp, np.random.default_rng(rej_seed))
    rate_emp = float(keep.mean())
    if rate_emp < 3.0 * eps or keep.sum() < MIN_ACCEPTED:
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
    u_cand = 2.0 * gaussian_pdf(theta) * (a * v + b * w)
    return u_cand, LocalizationState(u_cand, max(min(delta, 1.0), 1e-12), a, b, w, s=s)


def _flip_labels(s: LabeledSampleSet) -> LabeledSampleSet:
    out = s.copy()
    out.labels = -out.labels
    return out


def learn_ltf(corrupted: LabeledSampleSet, dist: ReasonableDistribution, eps: float,
              source: SampleSource, seed=0,
              config: Optional[LTFConfig] = None) -> LTF:
    """Full pipeline: threshold estimate, branch routing, candidate
    generation, holdout selection. Targets O(eps) disagreement.

    source(m, seed) draws m fresh corrupted samples; the localization
    batches and the holdout come from it, never from `corrupted`.
    """
    config = config or LTFConfig()
    eps_eff = max(eps, EPS_FLOOR)
    n = corrupted.n
    mean = float(np.mean(corrupted.labels))
    theta0 = estimate_threshold(corrupted)

    if 1.0 - abs(mean) <= CONST_MARGIN * eps:
        return constant_ltf(n, 1.0 if mean >= 0 else -1.0)

    if theta0 < 0.0:
        flipped_src: SampleSource = lambda m, s: _flip_labels(source(m, s))
        mirror = learn_ltf(_flip_labels(corrupted), dist, eps,
                           source=flipped_src, seed=seed, config=config)
        return LTF(-mirror.v, -mirror.theta)

    s_branch, s_holdout = _seed_seq(seed).spawn(2)
    weak = weak_learn_ltf(corrupted, dist, eps)
    candidates = [weak, constant_ltf(n, 1.0 if mean >= 0 else -1.0)]
    branch_seed = int(s_branch.generate_state(1)[0])

    log_term = math.log(1.0 / eps_eff)
    extreme = (theta0 * math.exp(theta0 ** 2 / 2.0)
               >= REGIME_KAPPA * math.sqrt(log_term) / eps_eff)

    if not weak.is_constant:
        if not extreme:
            v_cur = weak.v
            delta = min(DELTA0_CAP, WEAK_C * eps_eff * math.sqrt(max(1.0, log_term)))
            for it in range(MAX_MODERATE_ITERS):
                delta_next = LOOP_C * eps_eff * math.sqrt(
                    max(1.0, math.log(delta / eps_eff)))
                if delta_next >= delta / 2.0:
                    break
                try:
                    u_new, _ = refine_moderate(source, v_cur, theta0, delta, eps,
                                               seed=branch_seed + it, config=config)
                except (AcceptanceTooLow, ZeroChowVector):
                    break
                v_cur = u_new / np.linalg.norm(u_new)
                candidates.append(LTF(v_cur, theta0))
                delta = delta_next
        else:
            budget = int(math.ceil(TRIAL_BUDGET_C * log_term ** 2))
            u0 = 2.0 * gaussian_pdf(theta0) * weak.v
            delta = min(1.0, WEAK_C * eps_eff * math.sqrt(max(1.0, log_term)))
            for t in range(budget):
                try:
                    u_cand, _ = refine_extreme(source, theta0, eps, delta, u0,
                                               seed=branch_seed + t, config=config)
                except (AcceptanceTooLow, ZeroChowVector):
                    continue
                nrm = float(np.linalg.norm(u_cand))
                if nrm > 1e-12:
                    candidates.append(LTF(u_cand / nrm, theta0))

    holdout = source(config.holdout_size, s_holdout)
    winner, _ = select(candidates, holdout)
    return winner
