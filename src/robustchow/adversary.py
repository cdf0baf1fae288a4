"""The nasty-noise adversary: sees the full clean labeled sample and replaces
up to an eps-fraction of (point, label) pairs before the learner runs.

The adversary is white-box: it receives the true hypothesis and the
distribution descriptor. corrupted_mask is carried for diagnostics and must
never be read by a learner. The one reader is the PTF sampling oracle, which
plays the sample source rather than the learner: it generates the pool
itself, so it knows which rows the adversary moved and reads the mask only
to relabel and re-featurize those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import ReasonableDistribution
from .errors import BudgetExceeded, InvalidHypothesis, UnknownStrategy
from .polybasis import eval_monomials_batch

STRATEGIES = ("none", "random_flip", "boundary_flip", "chow_attack", "remove_informative")


@dataclass
class LabeledSampleSet:
    """Points in R^n with labels in [-1, 1] (±1 for threshold targets)."""

    points: np.ndarray                      # (m, n)
    labels: np.ndarray                      # (m,)
    corrupted_mask: Optional[np.ndarray] = None  # (m,) bool, diagnostics only

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.points.ndim != 2 or self.labels.shape != (self.points.shape[0],):
            raise ValueError("points must be (m, n) with matching (m,) labels")
        bad = ~np.isfinite(self.points).all(axis=1)
        if bad.any():
            raise ValueError(f"points must be finite: {int(bad.sum())} row(s) hold NaN or "
                             f"infinity, first at sample index {int(np.argmax(bad))}")
        if not np.all(np.abs(self.labels) <= 1.0 + 1e-9):
            raise ValueError("labels must lie in [-1, 1]")
        if self.corrupted_mask is not None:
            self.corrupted_mask = np.asarray(self.corrupted_mask, dtype=bool)
            if self.corrupted_mask.shape != self.labels.shape:
                raise ValueError("corrupted_mask length mismatch")

    def __len__(self):
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def copy(self) -> "LabeledSampleSet":
        mask = None if self.corrupted_mask is None else self.corrupted_mask.copy()
        return LabeledSampleSet(self.points.copy(), self.labels.copy(), mask)

    def to_csv(self, path):
        """Header x1..xn,y[,corrupted]; floats at full round-trip precision,
        CRLF line ends."""
        header = [f"x{j+1}" for j in range(self.n)] + ["y"]
        columns = [self.points, self.labels[:, None]]
        fmt = ["%.17g"] * (self.n + 1)
        if self.corrupted_mask is not None:
            header.append("corrupted")
            columns.append(self.corrupted_mask[:, None])
            fmt.append("%d")
        np.savetxt(path, np.hstack(columns), fmt=fmt, delimiter=",",
                   newline="\r\n", header=",".join(header), comments="")

    @classmethod
    def from_csv(cls, path) -> "LabeledSampleSet":
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
        has_mask = header[-1] == "corrupted"
        n = len(header) - 1 - int(has_mask)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, :n], data[:, n], data[:, n + 1] != 0 if has_mask else None)


@dataclass
class AdversaryStrategy:
    """Catalog entry: tag plus placement parameters for the planted attacks.

    rho is the placement magnitude as a fraction of the prune radius
    T_max/sqrt(2) (in the whitened norm), so any rho < 1 survives Step 1
    pruning and must be caught by the spectral loop.
    """

    tag: str = "none"
    rho: float = 0.9

    def __post_init__(self):
        if self.tag not in STRATEGIES:
            raise UnknownStrategy(f"unknown strategy {self.tag!r}; catalog: {STRATEGIES}")
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")


def _attack_point(dist: ReasonableDistribution, direction: np.ndarray,
                  rho: float) -> np.ndarray:
    """Point x0 = c * u with whitened norm rho * T_max / sqrt(2).

    A degree-j monomial of c * u is c^j times its value at u. With z_j the
    degree-j block of m(u) (zero elsewhere) times Sigma^{-1/2}, the squared
    whitened norm of m(c * u) is the polynomial sum_{j,k} c^(j+k) z_j . z_k,
    and c is its smallest positive root at the target. On the hypercube the
    whitened norm is sqrt(ell) at every vertex, so the attack just takes the
    vertex nearest the direction.
    """
    if not dist.prune_enabled:
        return np.where(direction >= 0, 1.0, -1.0)
    isqrt, _ = dist.whitener()
    phi = eval_monomials_batch(dist.basis, direction[None, :])[0]
    degree = dist.basis.exponents.sum(axis=1)
    z = np.stack([np.where(degree == j, phi, 0.0) for j in range(dist.d + 1)]) @ isqrt
    gram = z @ z.T
    quad = np.zeros(2 * dist.d + 1)
    for j in range(dist.d + 1):
        quad[j:j + dist.d + 1] += gram[j]
    quad[0] -= (rho * dist.t_max / math.sqrt(2.0)) ** 2
    roots = np.polynomial.polynomial.polyroots(quad)
    positive = roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]
    if positive.size == 0:
        raise InvalidHypothesis("no attack point reaches the target whitened norm; "
                                "bad moment matrix or rho too small?")
    return float(positive.min()) * direction


def corrupt(clean: LabeledSampleSet, f, eps: float, strategy: AdversaryStrategy,
            dist: ReasonableDistribution, seed) -> LabeledSampleSet:
    """Replace exactly floor(eps * m) entries per the strategy.

    Everything not replaced is byte-identical to the input. The target
    hypothesis f must expose evaluate(points) and margin(points).
    """
    if not (0.0 <= eps < 1.0 / 3.0):
        raise ValueError(f"eps must lie in [0, 1/3), got {eps}")
    m = len(clean)
    budget = int(math.floor(eps * m))
    out = clean.copy()
    out.corrupted_mask = np.zeros(m, dtype=bool)
    if budget == 0 or strategy.tag == "none":
        return out
    rng = np.random.default_rng(seed)

    if strategy.tag == "random_flip":
        idx = rng.choice(m, size=budget, replace=False)
        out.labels[idx] = -out.labels[idx]
        out.corrupted_mask[idx] = True

    elif strategy.tag == "boundary_flip":
        margins = np.abs(np.asarray(f.margin(clean.points), dtype=np.float64))
        idx = np.argsort(margins, kind="stable")[:budget]
        out.labels[idx] = -out.labels[idx]
        out.corrupted_mask[idx] = True

    elif strategy.tag == "chow_attack":
        direction = rng.standard_normal(clean.n)
        direction /= np.linalg.norm(direction)
        x0 = _attack_point(dist, direction, strategy.rho)
        idx = rng.choice(m, size=budget, replace=False)
        out.points[idx] = x0
        # +1 labels push E[y * p(x)] up along the polynomial maximized at x0.
        out.labels[idx] = 1.0
        out.corrupted_mask[idx] = True

    elif strategy.tag == "remove_informative":
        margins = np.abs(np.asarray(f.margin(clean.points), dtype=np.float64))
        idx = np.argsort(-margins, kind="stable")[:budget]
        pool = dist.sample(50 * budget, rng.integers(0, 2**63))
        pool_margins = np.abs(np.asarray(f.margin(pool), dtype=np.float64))
        near = np.argsort(pool_margins, kind="stable")[:budget]
        out.points[idx] = pool[near]
        out.labels[idx] = np.asarray(f.evaluate(pool[near]), dtype=np.float64)
        out.corrupted_mask[idx] = True

    else:  # pragma: no cover - constructor already validated the tag
        raise UnknownStrategy(strategy.tag)

    touched = int(out.corrupted_mask.sum())
    if touched != budget:
        raise BudgetExceeded(f"adversary touched {touched} entries, budget {budget}")
    return out


def plant_instance(kind: str, params, dist: ReasonableDistribution, m: int, seed):
    """Draw m clean points and label them by a planted hypothesis.

    kind 'ltf': params (v, theta) or an LTF; 'ptf': a Polynomial or PTF;
    'intersection': sequence of (v, theta) pairs or an Intersection.
    Returns (hypothesis, clean LabeledSampleSet).
    """
    from .intersection_learner import Intersection
    from .ltf_learner import LTF
    from .ptf_learner import PTF

    if kind == "ltf":
        if isinstance(params, LTF):
            hyp = params
        else:
            v, theta = params
            v = np.asarray(v, dtype=np.float64)
            if abs(np.linalg.norm(v) - 1.0) > 1e-8:
                raise InvalidHypothesis(f"defining vector has norm {np.linalg.norm(v)}")
            hyp = LTF(v, float(theta))
    elif kind == "ptf":
        hyp = params if isinstance(params, PTF) else PTF(params)
        if hyp.poly.basis.n != dist.n:
            raise InvalidHypothesis("polynomial dimension does not match distribution")
    elif kind == "intersection":
        if isinstance(params, Intersection):
            hyp = params
        else:
            members = []
            for v, theta in params:
                v = np.asarray(v, dtype=np.float64)
                if abs(np.linalg.norm(v) - 1.0) > 1e-8:
                    raise InvalidHypothesis("intersection member has non-unit vector")
                members.append(LTF(v, float(theta)))
            hyp = Intersection(members)
    else:
        raise InvalidHypothesis(f"unknown plant kind {kind!r}")

    points = dist.sample(m, seed)
    labels = np.asarray(hyp.evaluate(points), dtype=np.float64)
    return hyp, LabeledSampleSet(points, labels)
