"""Descriptors of distributions the filter can certify: samplers, moment
matrices, polynomial tail bounds, and the derived constants (gamma, delta,
T_max) that parameterize pruning and filtering.

A descriptor is built for a working corruption rate eps, because delta and
T_max both depend on it. The rate used for derivations is clamped below by
EPS_FLOOR so that eps = 0 runs stay well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from .errors import (
    ConfigError,
    IntegralDiverges,
    NonMultilinearBasis,
    NotPSD,
    UnknownFamily,
)
from .polybasis import (MonomialBasis, enumerate_basis, eval_hermite_batch,
                        eval_monomials_batch)

EPS_FLOOR = 1e-4
# Eigenvalues below this fraction of the largest are treated as null directions.
NULL_EIGENVALUE_REL = 1e-10

_FAMILIES = ("gaussian-chaos", "hypercube-chaos", "log-concave-chaos")


@dataclass(frozen=True)
class TailBound:
    """Q_d(T): a non-increasing bound on Pr[|p(X)| >= T] over normalized degree-d p.

    Every family has the form min{1, exp(offset - c * T^power)}.
    """

    family: str
    d: int
    c: float = 0.0
    offset: float = 0.0
    power: float = 1.0

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            vals = np.minimum(1.0, np.exp(self.offset - self.c * np.power(t, self.power)))
        return vals if vals.shape else float(vals)


def make_tail_bound(family: str, d: int, c: Optional[float] = None) -> TailBound:
    """Tail bound for a named family at degree d; the rate c is overridable.

    gaussian/hypercube chaos: Q_d(T) = min{1, exp(2 - (d/(2e)) T^(2/d))},
    except exact Q_1(T) = min{1, exp(-T^2/2)} for the degree-1 Gaussian.
    log-concave chaos: Q_d(T) = min{1, exp(2 - T^(1/d)/(2e))}.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if c is not None and not (math.isfinite(c) and c > 0.0):
        raise ConfigError(f"tail_constants.c: must be finite and > 0, got {c}")
    if family == "gaussian-chaos" and d == 1:
        return TailBound(family, d, c=0.5 if c is None else c, power=2.0)
    if family in ("gaussian-chaos", "hypercube-chaos"):
        return TailBound(family, d, c=(d / (2 * math.e)) if c is None else c,
                         offset=2.0, power=2.0 / d)
    if family == "log-concave-chaos":
        return TailBound(family, d, c=(1 / (2 * math.e)) if c is None else c,
                         offset=2.0, power=1.0 / d)
    raise UnknownFamily(f"unknown tail family {family!r}; expected one of {_FAMILIES}")


def _crossing(tail: TailBound, level: float) -> float:
    """Smallest T with Q(T) <= level."""
    u = tail.offset + math.log(1.0 / level)
    try:
        return (u / tail.c) ** (1.0 / tail.power)
    except OverflowError:
        raise IntegralDiverges(f"tail rate c={tail.c} is too slow: Q stays above "
                               f"{level} beyond the float range") from None


def compute_delta(tail: TailBound, eps: float) -> float:
    """delta = integral of T * min(eps, Q_d(T)) dT over [0, infinity).

    The closed form (incomplete gamma) is cross-checked against adaptive
    quadrature.
    """
    if not (0.0 < eps <= 0.5):
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    t0 = _crossing(tail, eps)
    head = eps * t0 * t0 / 2.0
    t_hi = _crossing(tail, 1e-12)

    def integrand(t):
        return t * np.minimum(eps, tail(t))

    quad_tail, abserr = integrate.quad(integrand, t0, t_hi, limit=200, epsrel=1e-6)
    if not math.isfinite(quad_tail) or abserr > max(1e-6 * abs(quad_tail), 1e-9):
        raise IntegralDiverges(f"tail quadrature did not converge (err={abserr})")

    p, c, off = tail.power, tail.c, tail.offset
    u0 = off + math.log(1.0 / eps)
    closed_tail = math.exp(off) * c ** (-2.0 / p) / p * gamma_fn(2.0 / p) * gammaincc(2.0 / p, u0)
    if abs(closed_tail - quad_tail) > 5e-5 * max(abs(closed_tail), 1e-12):
        raise IntegralDiverges(
            f"closed form {closed_tail} disagrees with quadrature {quad_tail}")
    return head + closed_tail


def compute_tmax(tail: TailBound, eps: float, ell: int) -> float:
    """Smallest T >= sqrt(ell) with Q_d(T / (2 sqrt(ell))) <= eps / (10 ell),
    in closed form from the tail's crossing point."""
    if not (0.0 < eps <= 0.5):
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    root_ell = math.sqrt(ell)
    t_max = 2.0 * root_ell * _crossing(tail, eps / (10.0 * ell))
    if not t_max <= 1e15:
        raise IntegralDiverges(f"tail does not decay: T_max = {t_max}")
    return max(root_ell, t_max)


def _double_factorial_table(max_power: int) -> np.ndarray:
    """table[s] = (s-1)!! for even s, 0 for odd s. table[0] = 1."""
    table = np.zeros(max_power + 1, dtype=np.float64)
    table[0] = 1.0
    for s in range(2, max_power + 1, 2):
        table[s] = table[s - 2] * (s - 1)
    return table


def _coordinatewise_products(basis: MonomialBasis, table: np.ndarray) -> np.ndarray:
    """out[i, j] = prod_t table[a^i_t, a^j_t] over the basis multi-indices:
    E[u_i(X) w_j(X)] for a product law when u and w are products of
    per-coordinate factors and table[a, b] is the one-coordinate
    expectation of their degree-a and degree-b factors."""
    exps = basis.exponents
    ell, n = exps.shape
    out = np.empty((ell, ell), dtype=np.float64)
    chunk = max(1, 4_000_000 // max(1, ell * n))
    for start in range(0, ell, chunk):
        rows = exps[start:start + chunk]              # (r, n)
        out[start:start + chunk] = table[rows[:, None, :], exps[None, :, :]].prod(axis=2)
    return out


def gaussian_moment_matrix(basis: MonomialBasis) -> np.ndarray:
    """E[m_i(X) m_j(X)] for X ~ N(0, I), via per-coordinate double factorials."""
    top = np.arange(int(basis.exponents.max()) + 1)
    dfact = _double_factorial_table(2 * int(top[-1]))
    return _coordinatewise_products(basis, dfact[top[:, None] + top[None, :]])


def gaussian_monomial_map(basis: MonomialBasis) -> np.ndarray:
    """C = E[m(X) h(X)^T] for X ~ N(0, I), so that m(x) = C h(x) with h the
    normalized Hermite products of `eval_hermite_batch`.

    Per coordinate x^a = sum_k a! / (k! 2^k (a - 2k)!) He_{a-2k}(x), so
    E[x^a He_b(x) / sqrt(b!)] = a! / (k! 2^k sqrt(b!)) when a - b = 2k >= 0
    and 0 otherwise.
    """
    top = int(basis.exponents.max())
    table = np.zeros((top + 1, top + 1))
    for a in range(top + 1):
        for b in range(a % 2, a + 1, 2):
            k = (a - b) // 2
            table[a, b] = math.factorial(a) / (
                math.factorial(k) * 2 ** k * math.sqrt(math.factorial(b)))
    return _coordinatewise_products(basis, table)


def hypercube_moment_matrix(basis: MonomialBasis) -> np.ndarray:
    """Identity: multilinear monomials are orthonormal under the uniform cube."""
    if basis.exponents.max(initial=0) > 1:
        raise NonMultilinearBasis("hypercube moments need all exponents <= 1")
    return np.eye(basis.ell)


@dataclass
class ReasonableDistribution:
    """A distribution the filter can run against.

    Bundles the basis, the (approximate) moment matrix Sigma with relative
    error gamma, the tail bound, and the derived constants delta and T_max
    for the working rate.

    The filter works in orthonormal coordinates h(x), with m(x) = C h(x)
    for the monomial vector m(x) and E[h h^T] = I. `coords` names them:
    "hermite" (normalized Hermite products, the Gaussian), "monomial" (the
    basis itself, already orthonormal on the hypercube) or "whitened"
    (m(x) Sigma^{-1/2}, for a moment table).
    """

    name: str
    n: int
    d: int
    basis: MonomialBasis
    sigma: np.ndarray
    gamma: float
    tail: TailBound
    delta: float
    t_max: float
    prune_enabled: bool
    coords: str
    sampler: Optional[Callable] = None  # (count, Generator) -> (count, n) array
    _whitener: Optional[tuple] = field(default=None, repr=False, compare=False)
    _monomial_map: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def ell(self) -> int:
        return self.basis.ell

    def sample(self, count: int, seed) -> np.ndarray:
        return sample(self, count, seed)

    def whitener(self):
        """(Sigma^{-1/2} as ell x ell, null-direction basis ell x r), cached.

        Pseudo-inverse policy: eigenvalues below NULL_EIGENVALUE_REL of the
        largest are null directions excluded from the inverse square root.
        """
        if self._whitener is None:
            w, v = np.linalg.eigh(self.sigma)
            lam_max = float(w.max(initial=0.0))
            if lam_max <= 0:
                raise NotPSD("moment matrix has no positive eigenvalues")
            null = w < NULL_EIGENVALUE_REL * lam_max
            live = ~null
            isqrt = (v[:, live] / np.sqrt(w[live])) @ v[:, live].T
            self._whitener = (isqrt, v[:, null])
        return self._whitener

    def featurize(self, points) -> np.ndarray:
        """The rows h(x) of an (m, n) array of points, (m, ell).

        In whitened coordinates a point whose monomials have mass in
        Sigma's null directions gets the row T_max * e_0 instead: finite,
        and beyond the prune radius T_max / sqrt(2), so the filter drops it.
        """
        if self.coords == "hermite":
            return eval_hermite_batch(self.basis, points)
        phi = eval_monomials_batch(self.basis, points)
        if self.coords == "monomial":
            return phi
        isqrt, null_vectors = self.whitener()
        z = phi @ isqrt
        if null_vectors.shape[1] > 0:
            null_part = np.abs(phi @ null_vectors).max(axis=1)
            scale = np.linalg.norm(phi, axis=1) + 1e-300
            off = ~(null_part <= 1e-8 * scale)  # overflowed (NaN) rows too
            z[off] = 0.0
            z[off, 0] = self.t_max
        return z

    def monomial_map(self) -> np.ndarray:
        """C with m(x) = C h(x) for the rows h of `featurize`, cached.

        Closed form for the Gaussian, the identity on the hypercube and
        Sigma^{1/2} = Sigma Sigma^{-1/2} for a moment table (on Sigma's
        range, where every unpruned row lies).
        """
        if self._monomial_map is None:
            if self.coords == "hermite":
                self._monomial_map = gaussian_monomial_map(self.basis)
            elif self.coords == "monomial":
                self._monomial_map = np.eye(self.ell)
            else:
                self._monomial_map = self.sigma @ self.whitener()[0]
        return self._monomial_map


def _check_reasonable(dist: ReasonableDistribution, eps_eff: float):
    ell = dist.ell
    if dist.t_max < math.sqrt(ell) - 1e-9:
        raise ValueError("T_max below sqrt(ell) floor")
    if dist.tail(dist.t_max / (2 * math.sqrt(ell))) > eps_eff / (10 * ell) + 1e-12:
        raise ValueError("T_max fails the tail condition")
    if dist.delta <= 0:
        raise ValueError("delta must be positive")


def gaussian_descriptor(n: int, d: int, eps: float,
                        tail_c: Optional[float] = None) -> ReasonableDistribution:
    """Standard Gaussian N(0, I_n) with exact analytic moments (gamma = 0)."""
    eps_eff = max(eps, EPS_FLOOR)
    basis = enumerate_basis(n, d)
    tail = make_tail_bound("gaussian-chaos", d, c=tail_c)
    dist = ReasonableDistribution(
        name="gaussian", n=n, d=d, basis=basis,
        sigma=gaussian_moment_matrix(basis), gamma=0.0, tail=tail,
        delta=compute_delta(tail, eps_eff),
        t_max=compute_tmax(tail, eps_eff, basis.ell),
        prune_enabled=True, coords="hermite",
        sampler=lambda count, rng: rng.standard_normal((count, n)),
    )
    _check_reasonable(dist, eps_eff)
    return dist


def hypercube_descriptor(n: int, d: int, eps: float,
                         tail_c: Optional[float] = None) -> ReasonableDistribution:
    """Uniform on {-1,+1}^n with the multilinear basis; Sigma = I, pruning off."""
    eps_eff = max(eps, EPS_FLOOR)
    basis = enumerate_basis(n, d, multilinear=True)
    tail = make_tail_bound("hypercube-chaos", d, c=tail_c)
    dist = ReasonableDistribution(
        name="hypercube", n=n, d=d, basis=basis,
        sigma=hypercube_moment_matrix(basis), gamma=0.0, tail=tail,
        delta=compute_delta(tail, eps_eff),
        t_max=math.sqrt(basis.ell),
        prune_enabled=False, coords="monomial",
        sampler=lambda count, rng: (2.0 * rng.integers(0, 2, size=(count, n)) - 1.0),
    )
    if dist.delta <= 0:
        raise ValueError("delta must be positive")
    return dist


def log_concave_descriptor(n: int, d: int, moment_table: np.ndarray, gamma: float,
                           eps: float, sampler: Optional[Callable] = None,
                           tail_c: Optional[float] = None) -> ReasonableDistribution:
    """Wrap user-supplied degree-2d moments as Sigma with relative error gamma.

    Sampling is only available if the caller registers a sampler; moment-only
    descriptors still support every estimator that consumes existing samples.
    """
    eps_eff = max(eps, EPS_FLOOR)
    basis = enumerate_basis(n, d)
    M = np.asarray(moment_table, dtype=np.float64)
    if M.shape != (basis.ell, basis.ell):
        raise NotPSD(f"moment table shape {M.shape}, expected {(basis.ell, basis.ell)}")
    if not np.allclose(M, M.T, atol=1e-8):
        raise NotPSD("moment table is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise NotPSD(f"moment table has negative eigenvalue {w.min()}")
    if w.max() <= 0.0:
        raise NotPSD("moment table has no positive eigenvalue")
    tail = make_tail_bound("log-concave-chaos", d, c=tail_c)
    dist = ReasonableDistribution(
        name="log-concave", n=n, d=d, basis=basis,
        sigma=0.5 * (M + M.T), gamma=float(gamma), tail=tail,
        delta=compute_delta(tail, eps_eff),
        t_max=compute_tmax(tail, eps_eff, basis.ell),
        prune_enabled=True, coords="whitened", sampler=sampler,
    )
    _check_reasonable(dist, eps_eff)
    return dist


def sample(dist: ReasonableDistribution, count: int, seed) -> np.ndarray:
    """count i.i.d. points from the descriptor's law, deterministic in seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if dist.sampler is None:
        raise UnknownFamily(f"distribution {dist.name!r} has no registered sampler")
    rng = np.random.default_rng(seed)
    return dist.sampler(count, rng)


def from_config(cfg: dict, eps: float) -> ReasonableDistribution:
    """Build a descriptor from the JSON config schema.

    { "family": "gaussian|hypercube|log-concave", "n":…, "d":…, "gamma":…,
      "tail_constants": {"c":…}, "moments_file": "path.csv" }
    """
    family = cfg.get("family")
    n, d = int(cfg["n"]), int(cfg["d"])
    tail_c = None
    if isinstance(cfg.get("tail_constants"), dict):
        tail_c = cfg["tail_constants"].get("c")
        tail_c = None if tail_c is None else float(tail_c)
    if family == "gaussian":
        return gaussian_descriptor(n, d, eps, tail_c=tail_c)
    if family == "hypercube":
        return hypercube_descriptor(n, d, eps, tail_c=tail_c)
    if family == "log-concave":
        path = cfg.get("moments_file")
        if not path:
            raise ConfigError("moments_file: a log-concave config requires one")
        moments = np.loadtxt(path, delimiter=",", ndmin=2)
        try:
            return log_concave_descriptor(n, d, moments, float(cfg.get("gamma", 0.0)),
                                          eps, tail_c=tail_c)
        except NotPSD as exc:
            raise ConfigError(f"moments_file: {exc}") from exc
    raise ConfigError(f"family: must be gaussian, hypercube or log-concave, got {family!r}")
