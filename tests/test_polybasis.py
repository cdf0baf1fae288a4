import math

import numpy as np
import pytest

from robustchow.errors import DimensionMismatch, SizeCapExceeded
from robustchow.polybasis import (TILE_ROWS, MonomialBasis, Polynomial,
                                  basis_size, enumerate_basis, eval_hermite_batch,
                                  eval_monomials_batch, monomial_sum)
from robustchow.ptf_learner import PTF


def test_enumerate_n2_d1_exact_order():
    b = enumerate_basis(2, 1)
    assert b.ell == 3
    assert [tuple(e) for e in b.exponents] == [(0, 0), (1, 0), (0, 1)]


def test_enumerate_counts():
    assert enumerate_basis(3, 2).ell == 10  # binomial(5,2)
    assert enumerate_basis(1, 3).ell == 4
    assert [tuple(e) for e in enumerate_basis(1, 3).exponents] == [(0,), (1,), (2,), (3,)]


def test_enumerate_counts_binomial_property():
    for n in (1, 2, 4, 7):
        for d in (1, 2, 3):
            b = enumerate_basis(n, d)
            assert b.ell == math.comb(n + d, d)


def test_graded_lex_ordering_property():
    b = enumerate_basis(4, 3)
    degs = b.exponents.sum(axis=1)
    assert (np.diff(degs) >= 0).all()  # graded
    assert tuple(b.exponents[0]) == (0, 0, 0, 0)  # constant first
    # within a degree block, ordering is deterministic lexicographic
    for deg in range(4):
        block = [tuple(e) for e in b.exponents[degs == deg]]
        assert block == sorted(block, reverse=True)


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        enumerate_basis(60, 5)


def test_multilinear_enumeration():
    b = enumerate_basis(3, 2, multilinear=True)
    assert b.exponents.max() == 1
    assert b.ell == 1 + 3 + 3  # constant, singletons, pairs


def per_column_reference(basis, pts):
    """The per-column kernel: for each monomial, multiply a column of ones
    by one power-table entry per variable, from the last variable to the
    first, the order in which the basis plan builds it."""
    max_exp = int(basis.exponents.max())
    powers = []
    for j in range(basis.n):
        col = [None, pts[:, j]]
        for p in range(2, max_exp + 1):
            col.append(col[-1] * pts[:, j])
        powers.append(col)
    out = np.ones((pts.shape[0], basis.ell), dtype=np.float64)
    for i, row in enumerate(basis.exponents):
        for j in reversed(range(basis.n)):
            p = int(row[j])
            if p:
                out[:, i] *= powers[j][p]
    return out


def coefficient_cases(basis, rng):
    """Dense coefficients; one degree-d term, whose parent chain crosses
    runs; that term plus the constant; a sparse mix; all zero."""
    degree = basis.exponents.sum(axis=1)
    one = np.zeros(basis.ell)
    one[rng.choice(np.flatnonzero(degree == degree[-1]))] = -1.5
    two = one.copy()
    two[0] = 2.0
    sparse = rng.standard_normal(basis.ell) * (rng.random(basis.ell) < 0.2)
    return [rng.standard_normal(basis.ell), one, two, sparse, np.zeros(basis.ell)]


def tilewise_product(feats, coeffs):
    """feats @ coeffs, one product per TILE_ROWS rows, as a Polynomial takes
    it. Up to m = TILE_ROWS that is the one product over all rows. Beyond
    it, one product may round a few rows differently in the last bits:
    BLAS splits the rows among its threads and rounds the leftover rows of
    each share by another path, so which rows take it depends on m."""
    tiles = [feats[c0:c0 + TILE_ROWS] @ coeffs for c0 in range(0, len(feats), TILE_ROWS)]
    return np.concatenate(tiles) if tiles else feats @ coeffs


@pytest.mark.parametrize("multilinear", [False, True])
def test_eval_batch_bit_identical_to_per_column_loop(multilinear):
    # and a Polynomial, built from only the runs its nonzero coefficients
    # need, takes the values of the full monomial matrix times coeffs
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        for d in range(1, 5):
            b = enumerate_basis(n, d, multilinear=multilinear)
            for m in sorted({0, 1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 5000}):
                # mixed scales, exact zeros of both signs, and an infinity
                pts = rng.standard_normal((m, n)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
                if m >= 3:
                    pts[0] = 0.0
                    pts[1] = -0.0
                    pts[2, 0] = np.inf
                got = eval_monomials_batch(b, pts)
                ref = per_column_reference(b, pts)
                assert got.shape == (m, b.ell) and got.T.flags.c_contiguous
                assert np.array_equal(got, ref, equal_nan=True), (n, d, m)
                assert np.array_equal(np.signbit(got), np.signbit(ref)), (n, d, m)
                if m >= 3:   # a zero coefficient times inf is NaN in the full matrix
                    pts[2, 0] = 1e3
                    got = eval_monomials_batch(b, pts)
                for coeffs in coefficient_cases(b, rng):
                    value = Polynomial(b, coeffs)(pts)
                    assert value.tobytes() == tilewise_product(got, coeffs).tobytes(), (n, d, m)


@pytest.mark.parametrize("m", [1, TILE_ROWS, 2 * TILE_ROWS + 7])
def test_monomial_sum_is_the_weighted_column_sum(m):
    # summed tile by tile: the order differs from one product over all rows
    b = enumerate_basis(5, 3)
    rng = np.random.default_rng(m)
    pts, w = rng.standard_normal((m, 5)), rng.standard_normal(m)
    np.testing.assert_allclose(monomial_sum(b, pts, w), w @ eval_monomials_batch(b, pts),
                               rtol=1e-12, atol=1e-12)


def test_zero_coefficients_cannot_make_a_value_nan():
    # sign(x1^2 - 1) at a finite point whose x2 squares to infinity: the
    # full monomial matrix holds x2^2 = inf, and 0 * inf made the margin NaN
    # and the label -1
    b = enumerate_basis(2, 2)
    coeffs = np.zeros(b.ell)
    coeffs[0] = -1.0
    coeffs[b.index_of((2, 0))] = 1.0
    pts = np.array([[2.0, 1e200]])
    poly = Polynomial(b, coeffs)
    with np.errstate(over="ignore"):   # the factor table still squares x2
        margin, label = poly(pts), PTF(poly).evaluate(pts)
    assert margin.tolist() == [3.0] and label.tolist() == [1.0]


def test_basis_must_be_graded():
    exps = enumerate_basis(2, 2).exponents
    with pytest.raises(ValueError, match="graded"):
        MonomialBasis(n=2, d=2, exponents=exps[::-1].copy())
    # the kernel writes x into the degree-1 rows, so they must be x_1, ..., x_n
    with pytest.raises(ValueError, match="degree-1"):
        MonomialBasis(n=2, d=2, exponents=exps[[0, 2, 1, 3, 4, 5]])


def test_eval_monomials_example():
    b = enumerate_basis(2, 2)
    vals = eval_monomials_batch(b, np.array([[2.0, 3.0]]))
    assert vals.tolist() == [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]]


def test_eval_monomials_zero_and_negative():
    b = enumerate_basis(2, 2)
    assert eval_monomials_batch(b, np.zeros((1, 2))).tolist() == [[1, 0, 0, 0, 0, 0]]
    b1 = enumerate_basis(1, 2)
    assert eval_monomials_batch(b1, np.array([[-1.0]])).tolist() == [[1.0, -1.0, 1.0]]


def test_eval_hermite_example():
    # He_2 = x^2 - 1, He_3 = x^3 - 3x, normalized by sqrt(p!)
    b = enumerate_basis(2, 3)
    x, y = 2.0, -1.5
    got = eval_hermite_batch(b, np.array([[x, y]]))[0]
    h = {0: lambda t: 1.0, 1: lambda t: t, 2: lambda t: (t * t - 1.0) / math.sqrt(2.0),
         3: lambda t: (t ** 3 - 3.0 * t) / math.sqrt(6.0)}
    want = [h[a](x) * h[c](y) for a, c in b.exponents]
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_hermite_equals_monomials_at_degree_one():
    b = enumerate_basis(4, 1)
    pts = np.random.default_rng(3).standard_normal((50, 4))
    assert np.array_equal(eval_hermite_batch(b, pts), eval_monomials_batch(b, pts))


@pytest.mark.parametrize("m", [1, 7, 3000])
@pytest.mark.parametrize("n", [1, 5, 20])
@pytest.mark.parametrize("kind", ["hermite", "monomial", "multilinear"])
def test_degree_one_rows_are_the_leading_columns_of_degree_two(kind, n, m):
    # the first n + 1 columns are [1, x] at every degree, so d = 1 and d = 2
    # must agree on them bit for bit
    featurize = eval_hermite_batch if kind == "hermite" else eval_monomials_batch
    multilinear = kind == "multilinear"
    pts = np.random.default_rng(n * m).standard_normal((m, n)) * 3.0
    pts[0, 0] = -0.0
    one = featurize(enumerate_basis(n, 1, multilinear), pts)
    two = featurize(enumerate_basis(n, 2, multilinear), pts)
    assert one.shape == (m, n + 1) and one.T.flags.c_contiguous
    assert two.shape == (m, basis_size(n, 2, multilinear)) and two.T.flags.c_contiguous
    assert one.tobytes() == np.ascontiguousarray(two[:, :n + 1]).tobytes()
    with pytest.raises(DimensionMismatch):
        featurize(enumerate_basis(n, 1, multilinear), np.zeros((m, n + 1)))


def test_hermite_rows_orthonormal_under_gaussian():
    b = enumerate_basis(2, 4)
    pts = np.random.default_rng(4).standard_normal((400_000, 2))
    h = eval_hermite_batch(b, pts)
    assert np.abs(h.T @ h / len(pts) - np.eye(b.ell)).max() < 0.1


def test_eval_monomials_dimension_mismatch():
    b = enumerate_basis(2, 1)
    with pytest.raises(DimensionMismatch):
        eval_monomials_batch(b, np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        eval_monomials_batch(b, np.zeros(2))


def test_eval_batch_matches_single():
    b = enumerate_basis(3, 2)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 3))
    batch = eval_monomials_batch(b, pts)
    for i in range(20):
        assert np.array_equal(batch[i], eval_monomials_batch(b, pts[i:i + 1])[0])


def test_eval_poly_examples():
    b = enumerate_basis(2, 2)
    c = np.zeros(b.ell)
    c[b.index_of((1, 0))] = 1.0
    assert Polynomial(b, c)(np.array([[5.0, -2.0]])).tolist() == [5.0]
    assert Polynomial(b, np.zeros(b.ell))(np.array([[3.0, 3.0]])).tolist() == [0.0]
    c2 = np.zeros(b.ell)
    c2[0] = 1.0
    c2[b.index_of((1, 1))] = 1.0
    assert Polynomial(b, c2)(np.array([[2.0, 3.0], [1.0, -1.0]])).tolist() == [7.0, 0.0]


def test_gaussian_norm_degree1_identity_moments():
    # degree-1 Gaussian moments are the identity, so the L2 norm is Euclidean
    from robustchow.distributions import gaussian_moment_matrix
    sigma = gaussian_moment_matrix(enumerate_basis(2, 1))
    c = np.array([0.0, 3.0, 4.0])
    assert np.array_equal(sigma, np.eye(3))
    assert math.sqrt(c @ sigma @ c) == pytest.approx(5.0)


def test_gaussian_norm_linear():
    # E[(a + b x1)^2] = a^2 + b^2 under N(0, I)
    from robustchow.distributions import gaussian_moment_matrix
    b = enumerate_basis(2, 1)
    c = np.array([1.0, 2.0, 0.0])
    assert math.sqrt(c @ gaussian_moment_matrix(b) @ c) == pytest.approx(math.sqrt(5.0))


def test_index_of_roundtrip():
    b = enumerate_basis(3, 2)
    for i, e in enumerate(b.exponents):
        assert b.index_of(tuple(int(v) for v in e)) == i


def test_coeff_length_enforced():
    b = enumerate_basis(2, 1)
    with pytest.raises((DimensionMismatch, ValueError)):
        Polynomial(b, np.zeros(5))
