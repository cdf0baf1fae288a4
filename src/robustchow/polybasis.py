"""Multi-index enumeration, monomial evaluation, and L2 geometry.

A MonomialBasis fixes the global coordinate system used by every estimator in
the package: all multi-indices of degree <= d over n variables, in graded
lexicographic order (degree first, then lexicographically descending exponent
tuples), with index 0 the constant monomial. Every coefficient vector, Chow
vector, and moment matrix in the package is indexed by this ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import comb

from .errors import DimensionMismatch, NegativeQuadraticForm, SizeCapExceeded

# Dense ell x ell matrices dominate memory, so refuse absurd bases outright.
DEFAULT_SIZE_CAP = 200_000
# Featurization tiles: at most TILE_ROWS rows and TILE_ENTRIES buffer
# entries (1 MiB), so a tile's (ell, rows) buffer stays in cache.
TILE_ROWS = 2048
TILE_ENTRIES = 1 << 17


def _exponents_of_degree(n, degree, max_exp):
    """Yield exponent tuples with given total degree, lexicographically descending."""
    if n == 1:
        if degree <= max_exp:
            yield (degree,)
        return
    for first in range(min(degree, max_exp), -1, -1):
        for rest in _exponents_of_degree(n - 1, degree - first, max_exp):
            yield (first,) + rest


@dataclass(frozen=True)
class MonomialBasis:
    """All multi-indices of degree <= d on R^n in graded lex order."""

    n: int
    d: int
    exponents: np.ndarray  # (ell, n) int array, row i = multi-index a^i
    multilinear: bool = False
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    # Featurization plan, one (lo, hi, parents, factors) entry per degree
    # block exponents[lo:hi]: monomial i is monomial parents[i - lo] times
    # power-table row factors[i - lo]. The parent drops the last variable
    # with a nonzero exponent, so m_i = (...(x_j1^p1 * x_j2^p2) ...) * x_jk^pk
    # is built in the same left-to-right order as a per-variable product.
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lookup = {tuple(int(e) for e in row): i for i, row in enumerate(self.exponents)}
        object.__setattr__(self, "_index", lookup)
        object.__setattr__(self, "plan", self._featurize_plan())

    def _featurize_plan(self) -> tuple:
        degrees = self.exponents.sum(axis=1)
        if degrees[0] != 0 or np.any(np.diff(degrees) < 0):
            raise ValueError("exponents must be graded with the constant monomial first")
        parents = np.zeros(self.ell, dtype=np.intp)
        factors = np.zeros(self.ell, dtype=np.intp)
        for i in range(1, self.ell):
            row = [int(e) for e in self.exponents[i]]
            j = max(k for k, e in enumerate(row) if e)
            factors[i] = (row[j] - 1) * self.n + j
            row[j] = 0
            parents[i] = self._index[tuple(row)]
        # degree blocks after the constant: [edges[k], edges[k + 1])
        edges = np.r_[np.flatnonzero(np.diff(degrees)) + 1, self.ell]
        return tuple((int(lo), int(hi), parents[lo:hi], factors[lo:hi])
                     for lo, hi in zip(edges[:-1], edges[1:]))

    @property
    def ell(self) -> int:
        return self.exponents.shape[0]

    def __len__(self):
        return self.ell

    def index_of(self, multi_index) -> int:
        """Position of an exponent tuple in the graded lex ordering."""
        key = tuple(int(e) for e in multi_index)
        if key not in self._index:
            raise DimensionMismatch(f"multi-index {key} not in basis (n={self.n}, d={self.d})")
        return self._index[key]

    def same_layout(self, other: "MonomialBasis") -> bool:
        return (
            self.n == other.n
            and self.d == other.d
            and self.multilinear == other.multilinear
        )


def enumerate_basis(n: int, d: int, multilinear: bool = False,
                    size_cap: int = DEFAULT_SIZE_CAP) -> MonomialBasis:
    """Build the degree-<=d monomial basis on R^n.

    multilinear=True keeps only 0/1 exponents (the hypercube basis, where
    x_j^2 = 1 makes higher powers redundant).
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if multilinear:
        ell = int(sum(comb(n, i, exact=True) for i in range(min(d, n) + 1)))
    else:
        ell = int(comb(n + d, d, exact=True))
    if ell > size_cap:
        raise SizeCapExceeded(f"basis size {ell} exceeds cap {size_cap}")
    max_exp = 1 if multilinear else d
    rows = []
    for degree in range(d + 1):
        rows.extend(_exponents_of_degree(n, degree, max_exp))
    exps = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    assert exps.shape[0] == ell
    return MonomialBasis(n=n, d=d, exponents=exps, multilinear=multilinear)


def eval_monomials_batch(basis: MonomialBasis, points) -> np.ndarray:
    """Evaluate the basis on an (m, n) array of points, returning (m, ell).

    Rows are processed in tiles. Each tile gets a table of coordinate powers
    and then one multiply per monomial: its parent's values times one power
    (see MonomialBasis.plan), filled a degree block at a time into an
    (ell, tile) buffer that is copied into the C-ordered output.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != basis.n:
        raise DimensionMismatch(f"points have shape {pts.shape}, basis expects (m, {basis.n})")
    m, n = pts.shape
    out = np.empty((m, basis.ell), dtype=np.float64)
    tile = max(1, min(TILE_ROWS, TILE_ENTRIES // basis.ell))
    max_exp = int(basis.exponents.max())
    buf = np.empty((basis.ell, min(m, tile)), dtype=np.float64)
    # powers[(p - 1) * n + j] = x_j ** p, built by repeated multiplication
    powers = np.empty((max_exp * n, buf.shape[1]), dtype=np.float64)
    buf[0] = 1.0
    for r0 in range(0, m, tile):
        rows = min(tile, m - r0)
        pw, vals = powers[:, :rows], buf[:, :rows]
        pw[:n] = pts[r0:r0 + rows].T
        for p in range(1, max_exp):
            np.multiply(pw[(p - 1) * n:p * n], pw[:n], out=pw[p * n:(p + 1) * n])
        for lo, hi, parents, factors in basis.plan:
            np.multiply(vals[parents], pw[factors], out=vals[lo:hi])
        out[r0:r0 + rows] = vals.T
    return out


@dataclass
class Polynomial:
    """Dense polynomial p(x) = sum_i coeffs[i] * m_i(x) over a fixed basis."""

    basis: MonomialBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.basis.ell,):
            raise DimensionMismatch(
                f"coefficient vector has shape {self.coeffs.shape}, basis needs ({self.basis.ell},)")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("polynomial coefficients must be finite")

    def __call__(self, points) -> np.ndarray:
        return eval_monomials_batch(self.basis, points) @ self.coeffs

    def scaled(self, alpha: float) -> "Polynomial":
        return Polynomial(self.basis, self.coeffs * alpha)

    def plus(self, other: "Polynomial") -> "Polynomial":
        if not self.basis.same_layout(other.basis):
            raise DimensionMismatch("cannot add polynomials over different bases")
        return Polynomial(self.basis, self.coeffs + other.coeffs)

    def to_json(self) -> str:
        return json.dumps({"n": self.basis.n, "d": self.basis.d,
                           "multilinear": self.basis.multilinear,
                           "coeffs": [float(c) for c in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "Polynomial":
        obj = json.loads(text)
        basis = enumerate_basis(int(obj["n"]), int(obj["d"]),
                                multilinear=bool(obj.get("multilinear", False)))
        coeffs = np.asarray(obj["coeffs"], dtype=np.float64)
        if coeffs.shape != (basis.ell,):
            raise DimensionMismatch(
                f"JSON has {coeffs.shape[0]} coefficients, basis needs {basis.ell}")
        return cls(basis, coeffs)


def l2_norm(p: Polynomial, moments: np.ndarray) -> float:
    """sqrt(c^T M c): the L2(D) norm of p when M is D's monomial moment matrix."""
    M = np.asarray(moments, dtype=np.float64)
    if M.shape != (p.basis.ell, p.basis.ell):
        raise DimensionMismatch(f"moment matrix shape {M.shape} vs basis size {p.basis.ell}")
    q = float(p.coeffs @ M @ p.coeffs)
    scale = max(1.0, float(np.abs(M).max()) * float(p.coeffs @ p.coeffs))
    if q < -1e-9 * scale:
        raise NegativeQuadraticForm(f"c^T M c = {q} < 0: moment matrix not PSD")
    return float(np.sqrt(max(q, 0.0)))
