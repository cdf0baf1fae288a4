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
# Points featurized per tile: the tile's factor table and the parent rows
# its multiplies read stay in cache while the tile is built.
TILE_ROWS = 2048


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
    # Featurization plan for the elements of degree >= 2 (degree 1 is x
    # itself): one (lo, hi, parent, factor) entry per run of elements that
    # share a degree, a first nonzero variable j and its power p. Element
    # lo + k is element parent + k times factor-table row factor =
    # (p - 1) * n + j (x_j^p, or He_p(x_j) / sqrt(p!)). The parent drops
    # x_j^p; in graded lex order the parents of a run are one contiguous
    # run of lower degree, in the same order. So m_i = x_j1^p1 * (x_j2^p2 *
    # (... * x_jk^pk)) is built right to left, from its last variable.
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lookup = {tuple(int(e) for e in row): i for i, row in enumerate(self.exponents)}
        object.__setattr__(self, "_index", lookup)
        object.__setattr__(self, "plan", self._featurize_plan())

    def _featurize_plan(self) -> tuple:
        degrees = self.exponents.sum(axis=1)
        if degrees[0] != 0 or np.any(np.diff(degrees) < 0):
            raise ValueError("exponents must be graded with the constant monomial first")
        if not np.array_equal(self.exponents[1:self.n + 1], np.eye(self.n)):
            raise ValueError("degree-1 exponents must list x_1, ..., x_n in order")
        runs = []
        for i in range(self.n + 1, self.ell):
            row = [int(e) for e in self.exponents[i]]
            j = next(k for k, e in enumerate(row) if e)
            factor = (row[j] - 1) * self.n + j
            row[j] = 0
            parent = self._index[tuple(row)]
            # element i extends the last run if it has the run's factor and
            # degree and its parent follows the run's last parent
            lo, hi, first, f = runs[-1] if runs else (0, 0, 0, -1)
            if f == factor and degrees[lo] == degrees[i] and parent == first + hi - lo:
                runs[-1] = (lo, i + 1, first, f)
            else:
                runs.append((i, i + 1, parent, factor))
        return tuple(runs)

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


def _points(basis: MonomialBasis, points) -> np.ndarray:
    """points as an (m, n) float array, n being the basis's."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != basis.n:
        raise DimensionMismatch(f"points have shape {pts.shape}, basis expects (m, {basis.n})")
    return pts


def _tiles(basis: MonomialBasis, pts, fill_table, runs, out=None):
    """Yield (cols, block) for each tile of TILE_ROWS points, block being the
    (ell, tile) features of pts[cols] that the given plan runs build.

    Each tile gets a table of per-variable factors (row (p - 1) * n + j
    holds the degree-p factor of x_j, filled by fill_table from row p = 1,
    which holds x itself), copies x into the degree-1 rows and then does
    one multiply per run (see MonomialBasis.plan): the run's parent rows
    times one table row. With an (ell, m) out, block is out[:, cols].
    Without one, every tile reuses one zeroed (ell, TILE_ROWS) buffer, so
    the rows no run writes read 0.
    """
    m, n = pts.shape
    buf = np.zeros((basis.ell, min(m, TILE_ROWS))) if out is None else out
    buf[0] = 1.0
    max_exp = int(basis.exponents.max())
    table = np.empty((max_exp * n, min(m, TILE_ROWS)), dtype=np.float64)
    for c0 in range(0, m, TILE_ROWS):
        cols = slice(c0, min(c0 + TILE_ROWS, m))
        width = cols.stop - c0
        block = buf[:, :width] if out is None else buf[:, cols]
        tab = table[:, :width]
        tab[:n] = pts[cols].T
        block[1:n + 1] = tab[:n]   # x^1 = He_1(x) = x
        fill_table(tab, n, max_exp)
        for lo, hi, parent, factor in runs:
            np.multiply(block[parent:parent + hi - lo], tab[factor], out=block[lo:hi])
        yield cols, block


def _featurize(basis: MonomialBasis, points, fill_table) -> np.ndarray:
    """Evaluate the products of per-variable factors that the basis plan
    names on an (m, n) array of points, returning (m, ell).

    The result is stored feature-major: it is the transpose view of one
    C-contiguous (ell, m) array, so each feature is a contiguous row there.
    `_tiles` writes it tile by tile with every run of the plan.
    """
    pts = _points(basis, points)
    out = np.empty((basis.ell, len(pts)), dtype=np.float64)
    for _ in _tiles(basis, pts, fill_table, basis.plan, out):
        pass
    return out.T


def eval_monomials_batch(basis: MonomialBasis, points) -> np.ndarray:
    """The monomials m(x) on an (m, n) array of points, (m, ell)."""
    return _featurize(basis, points, _power_table)


def eval_hermite_batch(basis: MonomialBasis, points) -> np.ndarray:
    """The normalized Hermite products h_a(x) = prod_j He_{a_j}(x_j) /
    sqrt(a_j!), one per multi-index of the basis, on an (m, n) array of
    points, (m, ell). They are orthonormal under N(0, I)."""
    return _featurize(basis, points, _hermite_table)


def monomial_sum(basis: MonomialBasis, points, weights) -> np.ndarray:
    """sum_i weights[i] m(x_i) over an (m, n) array of points, (ell,), tile
    by tile (`_tiles`), so the (m, ell) monomial matrix is never stored. It
    agrees with one product over all m rows to rounding, not bit for bit."""
    total = np.zeros(basis.ell)
    for cols, block in _tiles(basis, _points(basis, points), _power_table, basis.plan):
        total += block @ weights[cols]
    return total


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
        """p on an (m, n) array of points, (m,), tile by tile (`_tiles`), so
        the (m, ell) monomial matrix is never stored. Only the plan runs the
        nonzero coefficients need are built: walking the plan back, a run is
        kept when one of its elements is needed, and then its parents are.
        Where the monomial matrix is finite, the values are bit for bit its
        product with coeffs per TILE_ROWS slice (one product over all m rows
        may round a few rows differently, as BLAS splits them among
        threads); a zero coefficient adds 0 even where its monomial overflows.
        """
        need = self.coeffs != 0.0
        runs = []
        for lo, hi, parent, factor in reversed(self.basis.plan):
            if need[lo:hi].any():
                runs.append((lo, hi, parent, factor))
                need[parent:parent + hi - lo] = True
        pts = _points(self.basis, points)
        out = np.empty(len(pts), dtype=np.float64)
        for cols, block in _tiles(self.basis, pts, _power_table, runs[::-1]):
            out[cols] = block.T @ self.coeffs
        return out
