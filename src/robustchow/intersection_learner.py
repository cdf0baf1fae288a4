"""Learning intersections of k halfspaces under the Gaussian with nasty noise.

The degree-1 and degree-2 robust Chow parameters of an intersection are
supported on the span of its defining vectors, so the top of their spectrum
recovers a low-dimensional relevant subspace. Project onto it, enumerate a
grid cover of k-fold intersections there, and pick the cover member with the
lowest holdout disagreement. A direction-correlation diagnostic measures how
much degree-2 Chow mass a single direction carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.stats import norm as _norm

from .adversary import LabeledSampleSet
from .chowfilter import ChowEstimate, FilterParams, robust_chow
from .distributions import EPS_FLOOR, gaussian_descriptor
from .errors import BasisMismatch, CoverTooLarge
from .hypothesis_select import K_CAP, select_intersection_cover
from .ltf_learner import LTF, SampleSource, constant_ltf

COMBO_CAP = 300_000_000   # flat cover candidates the tournament will scan
DELTA_FLOOR = 0.05
DELTA_CEIL = 0.95
DELTA_CONST = 0.55        # calibration constant in the cover-resolution rate


@dataclass
class Intersection:
    """f(x) = +1 iff every member halfspace accepts x."""

    halfspaces: Sequence[LTF]
    subspace: Optional[np.ndarray] = None   # (n, dim) basis used to build it
    provenance: Optional[dict] = None       # how learn_intersection chose it

    def __post_init__(self):
        self.halfspaces = list(self.halfspaces)
        if not (1 <= len(self.halfspaces) <= K_CAP):
            raise ValueError(f"need between 1 and {K_CAP} halfspaces, "
                             f"got {len(self.halfspaces)}")

    @property
    def k(self) -> int:
        return len(self.halfspaces)

    def margin(self, points: np.ndarray) -> np.ndarray:
        margins = np.stack([h.margin(points) for h in self.halfspaces])
        return margins.min(axis=0)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.where(self.margin(points) >= 0.0, 1.0, -1.0)

    def indicator(self, points: np.ndarray) -> np.ndarray:
        return (self.evaluate(points) + 1.0) / 2.0

    def to_json(self) -> dict:
        out = {"halfspaces": [h.to_json() for h in self.halfspaces]}
        if self.subspace is not None:
            out["subspace"] = [[float(v) for v in col] for col in self.subspace.T]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Intersection":
        members = [LTF.from_json(h) for h in data["halfspaces"]]
        sub = data.get("subspace")
        basis = np.asarray(sub, dtype=np.float64).T if sub is not None else None
        return cls(members, subspace=basis)


@dataclass
class Degree2ChowMatrix:
    """vec1_i = E[y x_i]; mat2 off-diagonal E[y x_i x_j], diagonal
    E[y (x_i^2 - 1)] (centered so a constant target gives zero)."""

    vec1: np.ndarray
    mat2: np.ndarray

    def __post_init__(self):
        self.vec1 = np.asarray(self.vec1, dtype=np.float64)
        self.mat2 = np.asarray(self.mat2, dtype=np.float64)
        n = self.vec1.shape[0]
        if self.mat2.shape != (n, n):
            raise ValueError("vec1 and mat2 dimensions disagree")
        if not np.array_equal(self.mat2, self.mat2.T):
            raise ValueError("mat2 must be exactly symmetric")


@dataclass
class Subspace:
    basis: np.ndarray    # (n, dim), orthonormal columns; dim may be 0

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=np.float64)
        if self.basis.ndim != 2:
            raise ValueError("basis must be a 2-D column matrix")
        if self.dim > 0:
            gram = self.basis.T @ self.basis
            if np.abs(gram - np.eye(self.dim)).max() > 1e-10:
                raise ValueError("basis columns are not orthonormal")

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, points: np.ndarray) -> np.ndarray:
        """Coordinates of the projections, an (m, dim) array."""
        return np.asarray(points, dtype=np.float64) @ self.basis


def build_degree2(chow: ChowEstimate) -> Degree2ChowMatrix:
    """Split a degree>=2 Chow vector into its linear and quadratic parts."""
    basis = chow.basis
    if basis.d < 2 or basis.multilinear:
        raise BasisMismatch("need a dense basis of degree >= 2")
    n, exps, chi = basis.n, basis.exponents, chow.chi
    degree = exps.sum(axis=1)
    lin, quad = degree == 1, degree == 2
    vec1 = np.zeros(n)
    vec1[exps[lin].argmax(axis=1)] = chi[lin]
    # x_i x_j, or x_i^2 when i == j: i is the first variable of the
    # monomial, j the last
    i, j = exps[quad].argmax(axis=1), n - 1 - exps[quad][:, ::-1].argmax(axis=1)
    mat2 = np.zeros((n, n))
    mat2[i, j] = mat2[j, i] = chi[quad]
    mat2[np.diag_indices(n)] -= chi[0]
    return Degree2ChowMatrix(vec1, (mat2 + mat2.T) / 2.0)


def extract_subspace(d2: Degree2ChowMatrix, k: int,
                     noise_floor: float = 1e-8) -> Subspace:
    """Orthonormal span of vec1 and the k largest-|eigenvalue| directions of
    mat2, keeping only contributions above the noise floor."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = d2.vec1.shape[0]
    cols = []
    if np.linalg.norm(d2.vec1) >= noise_floor:
        cols.append(d2.vec1 / np.linalg.norm(d2.vec1))
    vals, vecs = np.linalg.eigh(d2.mat2)
    order = np.argsort(-np.abs(vals))[:k]
    for idx in order:
        if abs(vals[idx]) >= noise_floor:
            cols.append(vecs[:, idx])
    if not cols:
        return Subspace(np.zeros((n, 0)))
    stacked = np.column_stack(cols)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = s > 1e-10
    return Subspace(u[:, keep])


def _sphere_net(dim: int, resolution: float) -> np.ndarray:
    """Unit vectors covering S^{dim-1} to within the angular resolution."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        count = max(8, int(math.ceil(2.0 * math.pi / resolution)))
        ang = np.arange(count) * (2.0 * math.pi / count)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    # dim 3: Fibonacci sphere; covering radius ~ 2.7/sqrt(count)
    count = max(16, int(math.ceil((3.0 / resolution) ** 2)))
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    ang = golden * i
    return np.column_stack([r * np.cos(ang), r * np.sin(ang), z])


@dataclass
class Cover:
    """Lazy grid cover over R^dim: unit directions x thresholds, combined
    k at a time, plus the two constants at the top flat indices.

    A grid member (v, t) is the halfspace v . x <= t, i.e. the LTF
    sign(-v . x + t)."""

    k: int
    dim: int
    delta: float
    unit_matrix: np.ndarray   # (G, dim)
    thresholds: np.ndarray    # (G,)

    @property
    def grid_size(self) -> int:
        return self.unit_matrix.shape[0]

    @property
    def directions(self) -> int:
        return np.unique(self.unit_matrix, axis=0).shape[0]

    def __len__(self) -> int:
        return self.grid_size ** self.k + 2

    def _member(self, g: int) -> LTF:
        return LTF(-self.unit_matrix[g], float(self.thresholds[g]))

    def __getitem__(self, flat: int) -> Intersection:
        n_combos = self.grid_size ** self.k
        if flat == n_combos:
            return Intersection([constant_ltf(self.dim, +1.0)])
        if flat == n_combos + 1:
            return Intersection([constant_ltf(self.dim, -1.0)])
        if not (0 <= flat < n_combos):
            raise IndexError(flat)
        digits = []
        for _ in range(self.k):
            digits.append(flat % self.grid_size)
            flat //= self.grid_size
        return Intersection([self._member(g) for g in reversed(digits)])


def make_cover(k: int, dim: int, delta: float) -> Cover:
    """Grid cover fine enough that any k-fold intersection on R^dim is
    within disagreement delta of some member: directions on a net of
    angular resolution delta/(4k), thresholds on a delta/(4k) grid over
    [-Theta, Theta] with Theta = Phi^{-1}(1 - delta/(8k)), which needs
    DELTA_FLOOR <= delta <= 4k (Theta >= 0)."""
    if not (1 <= k <= K_CAP and 1 <= dim <= k + 1):
        raise ValueError(f"unsupported cover shape k={k}, dim={dim}")
    if not DELTA_FLOOR <= delta <= 4 * k:   # NaN fails too
        raise ValueError(f"delta {delta} outside [{DELTA_FLOOR}, 4k = {4 * k}]")
    resolution = delta / (4.0 * k)
    theta_max = float(_norm.ppf(1.0 - delta / (8.0 * k)))
    steps = int(math.ceil(2.0 * theta_max / resolution)) + 1
    grid_t = np.linspace(-theta_max, theta_max, steps)
    net = _sphere_net(dim, resolution)
    g_count = net.shape[0] * grid_t.shape[0]
    if g_count ** k > COMBO_CAP:
        raise CoverTooLarge(f"{g_count}^{k} cover candidates exceed the cap "
                            f"{COMBO_CAP}; raise delta")
    unit_matrix = np.repeat(net, grid_t.shape[0], axis=0)
    thresholds = np.tile(grid_t, net.shape[0])
    return Cover(k, dim, delta, unit_matrix, thresholds)


def default_cover_delta(k: int, eps: float) -> float:
    """Cover resolution from the theory rate eps^{1/11} k^{4/11} log^{3/11},
    with a calibrated leading constant and desk-scale clamps."""
    eps_eff = max(eps, EPS_FLOOR)
    raw = (DELTA_CONST * eps_eff ** (1.0 / 11.0) * k ** (4.0 / 11.0)
           * math.log(k / eps_eff) ** (3.0 / 11.0))
    return float(min(DELTA_CEIL, max(DELTA_FLOOR, raw)))


def direction_correlation(samples: LabeledSampleSet, v: np.ndarray) -> float:
    """Norm of (E[f01 (v.x)], E[f01 ((v.x)^2 - 1)]/sqrt(2)): the largest
    degree-<=2 Chow mass of the {0,1}-labeled target along direction v."""
    v = np.asarray(v, dtype=np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    if samples.labels.min(initial=0.0) < 0.0:
        raise ValueError("labels must be in {0, 1} indicator form")
    t = samples.points @ v
    term1 = float(np.mean(samples.labels * t))
    term2 = float(np.mean(samples.labels * (t * t - 1.0))) / math.sqrt(2.0)
    return math.hypot(term1, term2)


def learn_intersection(corrupted: LabeledSampleSet, k: int, eps: float,
                       source: SampleSource, delta_override: Optional[float] = None,
                       m_tournament: int = 20_000, seed=0) -> Intersection:
    """Subspace from robust degree-2 Chow parameters, then cover tournament
    on a fresh holdout drawn by source(m, seed) and projected, lifted back to
    ambient coordinates. The result's provenance records the subspace
    dimension, the cover that was searched (after any delta escalations) and
    the tournament's winner.

    At k=2 a dim-3 subspace fits COMBO_CAP only with a delta above
    DELTA_CEIL (delta_override 1.0 fits, 0.95 does not), so without an
    override it raises CoverTooLarge."""
    n = corrupted.n
    dist = gaussian_descriptor(n, 2, eps)
    est = robust_chow(corrupted, dist, FilterParams(eps=eps))
    d2 = build_degree2(est)
    floor = 3.0 * (math.sqrt(dist.basis.ell / len(corrupted)) + eps)
    sub = extract_subspace(d2, k, noise_floor=floor)

    mean = float(np.mean(corrupted.labels))
    if sub.dim == 0:
        const = Intersection([constant_ltf(n, 1.0 if mean >= 0 else -1.0)])
        const.subspace = np.zeros((n, 0))
        const.provenance = {"subspace_dim": 0}
        return const

    holdout = source(m_tournament, np.random.SeedSequence(seed).spawn(1)[0])
    projected = LabeledSampleSet(sub.project(holdout.points), holdout.labels)

    delta = delta_override if delta_override is not None else default_cover_delta(k, eps)
    cover = None
    escalations = 0
    while cover is None:
        try:
            cover = make_cover(k, sub.dim, delta)
        except CoverTooLarge:
            if delta >= DELTA_CEIL:
                raise
            delta = min(DELTA_CEIL, delta * 1.25)
            escalations += 1
    winner_idx, holdout_error = select_intersection_cover(
        cover.unit_matrix, cover.thresholds, k, projected)
    g = cover[winner_idx]

    lifted = []
    for member in g.halfspaces:
        v_amb = sub.basis @ member.v
        nrm = float(np.linalg.norm(v_amb))
        lifted.append(LTF(v_amb / nrm, member.theta))
    out = Intersection(lifted)
    out.subspace = sub.basis
    directions = cover.directions
    out.provenance = {
        "subspace_dim": sub.dim,
        "delta": delta,
        "delta_escalations": escalations,
        "grid_size": cover.grid_size,
        "directions": directions,
        "thresholds_per_direction": cover.grid_size // directions,
        "winner_index": winner_idx,
        "holdout_error": holdout_error,
    }
    return out
