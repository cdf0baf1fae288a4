"""Experiment orchestration: planted instances, corruption, learning,
Monte-Carlo scoring, CSV reporting.

Every reported number is a pure function of the config: cells derive their
RNG streams from (master seed, cell index), run independently in a thread
pool, and rows are emitted in cell order. The wall_time_ms column is
always 0, so reruns are bit-identical. `_plant_for_cell` is the one reader
of config.plant and `validate` runs it, so every accepted plant builds.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import hermite_e
from scipy.special import factorial, ndtr

from .adversary import STRATEGIES, AdversaryStrategy, LabeledSampleSet, corrupted_rows
from .chowfilter import (ChowEstimate, FilterParams, chow_distance, robust_chow,
                         sample_floor)
from .distributions import ReasonableDistribution, gaussian_descriptor, hypercube_descriptor
from .errors import ConfigError, InvalidHypothesis, RobustChowError
from .intersection_learner import K_CAP, Intersection, learn_intersection
from .ltf_learner import LTF, LTFConfig, _seed_seq, gaussian_pdf, learn_ltf
from .polybasis import (DEFAULT_SIZE_CAP, MonomialBasis, Polynomial, basis_size,
                        enumerate_basis)
from .ptf_learner import PTF, learn_ptf

LEARNERS = ("chow", "ltf", "ptf", "intersection")
CSV_COLUMNS = ("learner", "strategy", "eps", "trial", "seed", "disagreement",
               "chow_error", "iterations", "points_removed", "wall_time_ms", "flags")


def _json_fits(kind: str, value) -> bool:
    """Whether a JSON value has the type a field annotation names; bools are not numbers."""
    if kind.startswith("Optional["):
        return value is None or _json_fits(kind[9:-1], value)
    if kind.startswith("Sequence["):
        return type(value) is list and all(_json_fits(kind[9:-1], v) for v in value)
    return type(value) in {"int": (int,), "float": (int, float), "str": (str,), "dict": (dict,)}[kind]


@dataclass
class ExperimentConfig:
    learner: str
    n: int
    eps_grid: Sequence[float]
    strategies: Sequence[str]
    m_train: int
    d: int = 1
    k: int = 1
    dist: str = "gaussian"
    m_holdout: int = 20_000
    m_score: int = 100_000
    trials: int = 3
    seed: int = 0
    out: str = "results.csv"
    plant: dict = field(default_factory=dict)
    xi: Optional[float] = None

    def validate(self):
        problems = []
        if self.learner not in LEARNERS:
            problems.append(f"learner: must be one of {LEARNERS}, got {self.learner!r}")
        if self.n < 1:
            problems.append(f"n: must be >= 1, got {self.n}")
        if len(self.eps_grid) == 0:
            problems.append("eps_grid: must be non-empty")
        for e in self.eps_grid:
            if not (0.0 <= e < 1.0 / 3.0):
                problems.append(f"eps_grid: entries must lie in [0, 1/3), got {e}")
        if len(self.strategies) == 0:
            problems.append("strategies: must be non-empty")
        for s in self.strategies:
            if s not in STRATEGIES:
                problems.append(f"strategies: unknown tag {s!r}")
        if self.m_train < 100:
            problems.append(f"m_train: must be >= 100, got {self.m_train}")
        if self.trials < 1:
            problems.append("trials: must be >= 1")
        if self.seed < 0:
            problems.append(f"seed: must be >= 0, got {self.seed}")
        if self.m_holdout < 1:
            problems.append(f"m_holdout: must be >= 1, got {self.m_holdout}")
        if self.m_score < 1000:
            problems.append(f"m_score: must be >= 1000, got {self.m_score}")
        if self.xi is not None and not (0.0 < self.xi < 1.0):   # NaN fails too
            problems.append(f"xi: must lie in (0, 1), got {self.xi}")
        if self.dist not in ("gaussian", "hypercube"):
            problems.append(f"dist: must be gaussian or hypercube, got {self.dist!r}")
        if self.d < 1:
            problems.append(f"d: must be >= 1, got {self.d}")
        elif self.d > 1 and self.learner == "ltf":
            problems.append(f"d: the ltf learner works at d = 1, got {self.d}")
        elif self.d > 1 and self.learner == "ptf" and self.dist == "hypercube":
            problems.append(f"d: the ptf learner on the hypercube works at d = 1, got {self.d}")
        if self.learner == "intersection" and not (1 <= self.k <= min(K_CAP, self.n)):
            problems.append(f"k: intersection learner needs 1 <= k <= min({K_CAP}, n), "
                            f"got k={self.k}, n={self.n}")
        if problems:
            raise ConfigError("; ".join(problems))
        multilinear = self.dist == "hypercube"
        ell = basis_size(self.n, self.degree, multilinear)
        if ell > DEFAULT_SIZE_CAP:
            raise ConfigError(f"n, d: the degree-{self.degree} basis on n={self.n} has "
                              f"{ell} monomials, above the cap {DEFAULT_SIZE_CAP}")
        if self.m_train < sample_floor(ell):
            raise ConfigError(f"m_train: the filter needs at least {sample_floor(ell)} "
                              f"samples on {ell} monomials, got {self.m_train}")
        _plant_for_cell(self, enumerate_basis(self.n, self.degree, multilinear),
                        np.random.default_rng(0))

    @property
    def degree(self) -> int:
        """Degree of the monomial basis the learner works in."""
        return 2 if self.learner == "intersection" else self.d

    @classmethod
    def from_json(cls, data) -> "ExperimentConfig":
        """The validated config of a parsed JSON object (`cli._load_json`
        reads config files)."""
        if type(data) is not dict:
            raise ConfigError(f"config: must be a JSON object, got {type(data).__name__}")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        wrong = [f"{k}: must be {fields[k].type}, got {v!r}" for k, v in data.items()
                 if not _json_fits(fields[k].type, v)]
        if wrong:
            raise ConfigError("; ".join(wrong))
        try:
            cfg = cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg


@dataclass
class ResultRow:
    learner: str
    strategy: str
    eps: float
    trial: int
    seed: int
    disagreement: float
    chow_error: Optional[float]
    iterations: int
    points_removed: int
    wall_time_ms: int
    flags: str = ""

    def __post_init__(self):
        if not (0.0 <= self.disagreement <= 1.0):
            raise ValueError(f"disagreement out of [0,1]: {self.disagreement}")

    def as_csv_fields(self) -> list:
        return [self.learner, self.strategy, f"{self.eps:.17g}", str(self.trial),
                str(self.seed), f"{self.disagreement:.17g}",
                "" if self.chow_error is None else f"{self.chow_error:.17g}",
                str(self.iterations), str(self.points_removed),
                str(self.wall_time_ms), self.flags]


def score(hypothesis, plant, dist: ReasonableDistribution, count: int, seed) -> float:
    """Monte-Carlo disagreement on fresh clean samples (the guarantees are
    stated against the clean distribution)."""
    if count < 10 ** 3:
        raise ValueError(f"need at least 1000 scoring points, got {count}")
    pts = dist.sample(count, seed)
    return float(np.mean(np.asarray(hypothesis.evaluate(pts))
                         != np.asarray(plant.evaluate(pts))))


def analytic_ltf_chow(v: np.ndarray, theta: float,
                      dist: ReasonableDistribution) -> ChowEstimate:
    """Exact Gaussian Chow vector of sign(v.x + theta), unit v, at degree d.

    sign(t + theta) = sum_j c_j He_j(t) / j! with c_0 = 2 Phi(theta) - 1 and
    c_j = 2 phi(theta) He_{j-1}(-theta). Truncated at d and expanded into
    monomials of v.x (coefficient P_|a| |a|!/a! v^a), it gives chi = Sigma @ coeffs.
    """
    v = np.asarray(v, dtype=np.float64)
    d = dist.basis.d
    he = hermite_e.hermevander(-theta, d - 1)[0]
    herm = np.r_[2.0 * float(ndtr(theta)) - 1.0,
                 2.0 * gaussian_pdf(theta) * he / factorial(np.arange(1, d + 1))]
    power = hermite_e.herme2poly(herm)
    power = np.pad(power, (0, d + 1 - power.size))  # herme2poly drops zero top terms
    exps = dist.basis.exponents
    deg = exps.sum(axis=1)
    coeffs = (power[deg] * factorial(deg) / factorial(exps).prod(axis=1)
              * np.prod(v ** exps, axis=1))
    return ChowEstimate(dist.sigma @ coeffs, dist.basis, dist, {"analytic": True})


def _corrupted_batch(f, dist: ReasonableDistribution, eps: float,
                     strategy: AdversaryStrategy, pts: np.ndarray, seed) -> LabeledSampleSet:
    """The set `corrupt` returns on pts labelled by f, built without its
    copy: one allocation and one validation, the moved rows written in place."""
    out = LabeledSampleSet(pts, np.asarray(f.evaluate(pts), dtype=np.float64),
                           np.zeros(len(pts), dtype=bool))
    idx, points, labels = corrupted_rows(out, f, eps, strategy, dist, seed)
    out.points[idx], out.labels[idx], out.corrupted_mask[idx] = points, labels, True
    return out


def make_corrupted_source(f, dist: ReasonableDistribution, eps: float,
                          strategy: AdversaryStrategy):
    """Fresh-batch oracle: draw clean points, label by the plant, corrupt."""
    def draw(m: int, seed) -> LabeledSampleSet:
        s_draw, s_adv = _seed_seq(seed).spawn(2)
        return _corrupted_batch(f, dist, eps, strategy, dist.sample(m, s_draw), s_adv)
    return draw


def _plant_entry(plant: dict, key: str, shape: tuple, default=None):
    """plant[key] as finite numbers of the given shape, or the default when
    the key is absent. A polynomial must not be identically zero."""
    if key not in plant:
        return default
    try:
        arr = np.asarray(plant[key], dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape:
        got = "non-numbers" if arr is None else f"shape {arr.shape}"
        raise ConfigError(f"plant.{key}: need numbers of shape {shape}, got {got}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"plant.{key}: entries must be finite")
    if key == "coeffs" and not arr.any():
        raise ConfigError("plant.coeffs: the polynomial is identically zero")
    return arr


def _unit(v: np.ndarray, key: str) -> np.ndarray:
    """Direction v (plant.<key>, or a random draw) scaled to unit length."""
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ConfigError(f"plant.{key}: direction vectors must be nonzero")
    return v / norm


def _plant_for_cell(config: ExperimentConfig, basis: MonomialBasis, rng):
    """Build the cell's target from config.plant; a bad entry raises a
    ConfigError naming plant.<key>. Random plants draw from rng."""
    plant, n, k = config.plant, config.n, config.k
    if config.learner in ("chow", "ltf"):
        theta = float(_plant_entry(plant, "theta", (), 0.5))
        v = _plant_entry(plant, "v", (n,))
        return LTF(_unit(rng.standard_normal(n) if v is None else v, "v"), theta)
    if config.learner == "ptf":
        coeffs = _plant_entry(plant, "coeffs", (basis.ell,))
        if coeffs is None:  # default plant: sign(x1^2 - 1)
            if basis.d < 2 or basis.multilinear:
                raise ConfigError("plant: the default ptf plant sign(x1^2 - 1) needs "
                                  "d >= 2 on the Gaussian; give plant.coeffs")
            coeffs = np.zeros(basis.ell)
            coeffs[0] = -1.0
            coeffs[basis.index_of((2,) + (0,) * (n - 1))] = 1.0
        return PTF(Polynomial(basis, coeffs))
    thetas = _plant_entry(plant, "thetas", (k,), [0.5] * k)
    vs = _plant_entry(plant, "vs", (k, n))
    if vs is None:
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        vs = q.T
    else:
        vs = [_unit(v, "vs") for v in vs]
    return Intersection([LTF(v, float(t)) for v, t in zip(vs, thetas)])


def plant_instance(kind: str, params, dist: ReasonableDistribution, m: int, seed):
    """Draw m clean points and label them by a planted hypothesis.

    kind 'ltf' takes params (v, theta) with unit v; 'ptf' takes a PTF.
    Returns (hypothesis, clean LabeledSampleSet).
    """
    if kind == "ltf":
        v, theta = params
        v = np.asarray(v, dtype=np.float64)
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise InvalidHypothesis(f"defining vector has norm {np.linalg.norm(v)}")
        hyp = LTF(v, float(theta))
    elif kind == "ptf":
        hyp = params
        if hyp.poly.basis.n != dist.basis.n:
            raise InvalidHypothesis("polynomial dimension does not match distribution")
    else:
        raise InvalidHypothesis(f"unknown plant kind {kind!r}")

    points = dist.sample(m, seed)
    labels = np.asarray(hyp.evaluate(points), dtype=np.float64)
    return hyp, LabeledSampleSet(points, labels)


def _build_dist(config: ExperimentConfig, eps: float) -> ReasonableDistribution:
    if config.dist == "hypercube":
        return hypercube_descriptor(config.n, config.degree, eps)
    return gaussian_descriptor(config.n, config.degree, eps)


def _cell_seed(seed: int, cell_index: int) -> tuple:
    """Cell cell_index's SeedSequence and the seed its row reports."""
    ss = np.random.SeedSequence(seed, spawn_key=(cell_index,))
    return ss, int(ss.generate_state(1)[0])


def run_cell(config: ExperimentConfig, strategy_tag: str, eps: float,
             trial: int, cell_index: int):
    """Plant, draw, corrupt, learn and score one grid cell of a validated
    config. Returns (ResultRow, output), the output being the ChowEstimate
    for the chow learner and the learned hypothesis otherwise."""
    ss, cell_seed = _cell_seed(config.seed, cell_index)
    s_plant, s_corrupt, s_learn, s_score, s_extra = ss.spawn(5)

    dist = _build_dist(config, eps)
    rng = np.random.default_rng(s_plant)
    plant = _plant_for_cell(config, dist.basis, rng)
    strategy = AdversaryStrategy(strategy_tag)
    corrupted = _corrupted_batch(plant, dist, eps, strategy,
                                 dist.sample(config.m_train, s_extra), s_corrupt)

    disagreement = 0.0
    chow_error: Optional[float] = None
    counts = {}   # the target filter's record; LTF keeps none yet

    if config.learner == "chow":
        est = robust_chow(corrupted, dist, FilterParams(eps=eps))
        if config.dist == "gaussian":  # the analytic vector holds only there
            chow_error = chow_distance(est, analytic_ltf_chow(plant.v, plant.theta, dist))
        counts = est.provenance
        output = est
    else:
        source = make_corrupted_source(plant, dist, eps, strategy)
        if config.learner == "ltf":
            hyp = learn_ltf(corrupted, dist, eps, source=source,
                            seed=int(s_learn.generate_state(1)[0]),
                            config=LTFConfig(batch_cap=config.m_train,
                                             holdout_size=config.m_holdout))
        elif config.learner == "ptf":
            hyp = learn_ptf(corrupted, dist, config.d, eps, xi=config.xi,
                            oracle_strategy=strategy,
                            seed=int(s_learn.generate_state(1)[0]))
        else:
            hyp = learn_intersection(corrupted, config.k, eps, source=source,
                                     m_tournament=config.m_holdout,
                                     seed=int(s_learn.generate_state(1)[0]))
        if config.learner != "ltf":
            counts = hyp.provenance["target"]
        disagreement = score(hyp, plant, dist, config.m_score, s_score)
        output = hyp

    row = ResultRow(config.learner, strategy_tag, eps, trial, cell_seed,
                    disagreement, chow_error, int(counts.get("iterations", 0)),
                    int(counts.get("pruned", 0) + counts.get("filtered", 0)), 0,
                    ";".join(flag for flag in ("degraded", "cap_reached") if counts.get(flag)))
    return row, output


def _pool_size(n_cells: int) -> int:
    env = os.environ.get("ROBUST_CHOW_THREADS")
    if env is not None:
        try:
            cap = max(1, int(env))
        except ValueError:
            raise ConfigError(f"ROBUST_CHOW_THREADS: not an integer: {env!r}")
    else:
        cap = min(4, os.cpu_count() or 1)
    return max(1, min(cap, n_cells))


def run_experiment(config: ExperimentConfig, out: Optional[str] = None):
    """Run the (strategy, eps, trial) grid and write the CSV. Returns the
    rows in cell order; rerunning the same config is bit-identical."""
    config.validate()
    cells = []
    idx = 0
    for strategy in config.strategies:
        for eps in config.eps_grid:
            for trial in range(config.trials):
                cells.append((strategy, eps, trial, idx))
                idx += 1

    def work(cell):
        strategy, eps, trial, cell_index = cell
        try:
            return run_cell(config, strategy, eps, trial, cell_index)[0]
        except (RobustChowError, ValueError) as exc:  # record it, keep the sweep alive
            return ResultRow(config.learner, strategy, eps, trial,
                             _cell_seed(config.seed, cell_index)[1], 1.0, None, 0, 0, 0,
                             f"error:{type(exc).__name__}")

    with ThreadPoolExecutor(max_workers=_pool_size(len(cells))) as pool:
        rows = list(pool.map(work, cells))

    path = out or config.out
    write_csv(rows, path)
    return rows


def write_csv(rows, path):
    """Single atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(row.as_csv_fields()) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
