"""Multi-index enumeration, monomial evaluation, and L2 geometry.

A MonomialBasis fixes the global coordinate system used by every estimator in
the package: all multi-indices of degree <= d over n variables, in graded
lexicographic order (degree first, then lexicographically descending exponent
tuples), with index 0 the constant monomial. Every coefficient vector, Chow
vector, and moment matrix in the package is indexed by this ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import comb

from .errors import DimensionMismatch, SizeCapExceeded

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
    # block exponents[lo:hi]: element i is element parents[i - lo] times
    # factor-table row factors[i - lo] (x_j^p, or He_p(x_j) / sqrt(p!)). The
    # parent drops the last variable with a nonzero exponent, so
    # m_i = (...(x_j1^p1 * x_j2^p2) ...) * x_jk^pk is built in the same
    # left-to-right order as a per-variable product.
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


def basis_size(n: int, d: int, multilinear: bool) -> int:
    """Number of monomials of degree <= d on R^n (0/1 exponents only when
    multilinear)."""
    if multilinear:
        return int(sum(comb(n, i, exact=True) for i in range(min(d, n) + 1)))
    return int(comb(n + d, d, exact=True))


def enumerate_basis(n: int, d: int, multilinear: bool = False) -> MonomialBasis:
    """Build the degree-<=d monomial basis on R^n.

    multilinear=True keeps only 0/1 exponents (the hypercube basis, where
    x_j^2 = 1 makes higher powers redundant).
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    ell = basis_size(n, d, multilinear)
    if ell > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"basis size {ell} exceeds cap {DEFAULT_SIZE_CAP}")
    max_exp = 1 if multilinear else d
    rows = []
    for degree in range(d + 1):
        rows.extend(_exponents_of_degree(n, degree, max_exp))
    exps = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    assert exps.shape[0] == ell
    return MonomialBasis(n=n, d=d, exponents=exps, multilinear=multilinear)


def _power_table(pw, n, max_exp):
    """pw[(p - 1) * n + j] = x_j ** p, by repeated multiplication."""
    for p in range(1, max_exp):
        np.multiply(pw[(p - 1) * n:p * n], pw[:n], out=pw[p * n:(p + 1) * n])


def _hermite_table(pw, n, max_exp):
    """pw[(p - 1) * n + j] = He_p(x_j) / sqrt(p!), by the three-term
    recurrence h_{p+1} = (x h_p - sqrt(p) h_{p-1}) / sqrt(p + 1)."""
    x = pw[:n]
    for p in range(1, max_exp):
        nxt = pw[p * n:(p + 1) * n]
        np.multiply(x, pw[(p - 1) * n:p * n], out=nxt)
        nxt -= 1.0 if p == 1 else math.sqrt(p) * pw[(p - 2) * n:(p - 1) * n]
        nxt /= math.sqrt(p + 1)


def _featurize(basis: MonomialBasis, points, fill_table) -> np.ndarray:
    """Evaluate the products of per-variable factors that the basis plan
    names on an (m, n) array of points, returning (m, ell).

    Rows are processed in tiles. Each tile gets a table of per-variable
    factors (row (p - 1) * n + j holds the degree-p factor of x_j, filled by
    fill_table from row p = 1, which holds x itself) and then one multiply
    per basis element: its parent's values times one table row (see
    MonomialBasis.plan), filled a degree block at a time into an (ell, tile)
    buffer that is copied into the C-ordered output.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != basis.n:
        raise DimensionMismatch(f"points have shape {pts.shape}, basis expects (m, {basis.n})")
    m, n = pts.shape
    out = np.empty((m, basis.ell), dtype=np.float64)
    tile = max(1, min(TILE_ROWS, TILE_ENTRIES // basis.ell))
    max_exp = int(basis.exponents.max())
    buf = np.empty((basis.ell, min(m, tile)), dtype=np.float64)
    table = np.empty((max_exp * n, buf.shape[1]), dtype=np.float64)
    buf[0] = 1.0
    for r0 in range(0, m, tile):
        rows = min(tile, m - r0)
        tab, vals = table[:, :rows], buf[:, :rows]
        tab[:n] = pts[r0:r0 + rows].T
        fill_table(tab, n, max_exp)
        for lo, hi, parents, factors in basis.plan:
            np.multiply(vals[parents], tab[factors], out=vals[lo:hi])
        out[r0:r0 + rows] = vals.T
    return out


def eval_monomials_batch(basis: MonomialBasis, points) -> np.ndarray:
    """The monomials m(x) on an (m, n) array of points, (m, ell)."""
    return _featurize(basis, points, _power_table)


def eval_hermite_batch(basis: MonomialBasis, points) -> np.ndarray:
    """The normalized Hermite products h_a(x) = prod_j He_{a_j}(x_j) /
    sqrt(a_j!), one per multi-index of the basis, on an (m, n) array of
    points, (m, ell). They are orthonormal under N(0, I)."""
    return _featurize(basis, points, _hermite_table)


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
