"""Experiment orchestration: planted instances, corruption, learning,
Monte-Carlo scoring, CSV reporting.

Every reported number is a pure function of the config: cells derive their
RNG streams from (master seed, cell index), run independently in a thread
pool, and rows are emitted in cell order. The wall_time_ms column is
always 0, so reruns are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import hermite_e
from scipy.special import factorial
from scipy.stats import norm as _norm

from .adversary import STRATEGIES, AdversaryStrategy, LabeledSampleSet, corrupt
from .chowfilter import ChowEstimate, FilterParams, chow_distance, robust_chow
from .distributions import ReasonableDistribution, gaussian_descriptor, hypercube_descriptor
from .errors import ConfigError, RobustChowError
from .intersection_learner import DELTA_FLOOR, K_CAP, Intersection, learn_intersection
from .ltf_learner import LTF, LTFConfig, learn_ltf
from .polybasis import DEFAULT_SIZE_CAP, Polynomial, basis_size
from .ptf_learner import PTF, learn_ptf

LEARNERS = ("chow", "ltf", "ptf", "intersection")
CSV_COLUMNS = ("learner", "strategy", "eps", "trial", "seed", "disagreement",
               "chow_error", "iterations", "points_removed", "wall_time_ms", "flags")


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
    delta_override: Optional[float] = None

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
        if self.learner == "intersection" and not (1 <= self.k <= min(K_CAP, self.n)):
            problems.append(f"k: intersection learner needs 1 <= k <= min({K_CAP}, n), "
                            f"got k={self.k}, n={self.n}")
        if self.delta_override is not None and not (
                DELTA_FLOOR <= self.delta_override <= 4 * self.k):   # NaN fails too
            problems.append(f"delta_override: must lie in [{DELTA_FLOOR}, 4k], "
                            f"got {self.delta_override} with k={self.k}")
        if not problems:
            ell = basis_size(self.n, self.degree, multilinear=self.dist == "hypercube")
            if ell > DEFAULT_SIZE_CAP:
                problems.append(f"n, d: the degree-{self.degree} basis on n={self.n} has "
                                f"{ell} monomials, above the cap {DEFAULT_SIZE_CAP}")
            else:
                problems = self._plant_problems()
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def degree(self) -> int:
        """Degree of the monomial basis the learner works in."""
        return 2 if self.learner == "intersection" else self.d

    def _plant_problems(self) -> list:
        """Shape and value checks on the plant entries this learner reads."""
        shapes = {}
        if self.learner == "intersection":
            shapes = {"thetas": (self.k,), "vs": (self.k, self.n)}
        elif self.learner != "ptf":
            shapes = {"theta": (), "v": (self.n,)}
        elif "coeffs" in self.plant:
            ell = basis_size(self.n, self.d, multilinear=self.dist == "hypercube")
            shapes = {"coeffs": (ell,)}
        elif self.d < 2 or self.dist == "hypercube":
            return ["plant: the default ptf plant sign(x1^2 - 1) needs d >= 2 on the "
                    "Gaussian; give plant.coeffs"]
        problems = []
        for key in [key for key in shapes if key in self.plant]:
            try:
                arr = np.asarray(self.plant[key], dtype=np.float64)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.shape != shapes[key]:
                got = "non-numbers" if arr is None else f"shape {arr.shape}"
                problems.append(f"plant.{key}: need numbers of shape {shapes[key]}, got {got}")
            elif not np.all(np.isfinite(arr)):
                problems.append(f"plant.{key}: entries must be finite")
            elif key in ("v", "vs") and np.any(np.linalg.norm(arr, axis=-1) == 0.0):
                problems.append(f"plant.{key}: direction vectors must be nonzero")
        return problems

    @classmethod
    def from_json(cls, data) -> "ExperimentConfig":
        if isinstance(data, (str, os.PathLike)):
            with open(data) as fh:
                data = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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
    g = math.exp(-theta * theta / 2.0) / math.sqrt(2.0 * math.pi)
    he = hermite_e.hermevander(-theta, d - 1)[0]
    herm = np.r_[2.0 * float(_norm.cdf(theta)) - 1.0,
                 2.0 * g * he / factorial(np.arange(1, d + 1))]
    power = hermite_e.herme2poly(herm)
    power = np.pad(power, (0, d + 1 - power.size))  # herme2poly drops zero top terms
    exps = dist.basis.exponents
    deg = exps.sum(axis=1)
    coeffs = (power[deg] * factorial(deg) / factorial(exps).prod(axis=1)
              * np.prod(v ** exps, axis=1))
    return ChowEstimate(dist.sigma @ coeffs, dist.basis, dist, {"analytic": True})


def make_corrupted_source(f, dist: ReasonableDistribution, eps: float,
                          strategy: AdversaryStrategy):
    """Fresh-batch oracle: draw clean points, label by the plant, corrupt."""
    def draw(m: int, seed) -> LabeledSampleSet:
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        s_draw, s_adv = ss.spawn(2)
        pts = dist.sample(m, s_draw)
        clean = LabeledSampleSet(pts, np.asarray(f.evaluate(pts), dtype=np.float64))
        return corrupt(clean, f, eps, strategy, dist, s_adv)
    return draw


def _random_unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _plant_for_cell(config: ExperimentConfig, dist: ReasonableDistribution, rng):
    """Build the cell's target hypothesis from the plant config."""
    plant_cfg = config.plant
    if config.learner in ("chow", "ltf"):
        theta = float(plant_cfg.get("theta", 0.5))
        if "v" in plant_cfg:
            v = np.asarray(plant_cfg["v"], dtype=np.float64)
            v = v / np.linalg.norm(v)
        else:
            v = _random_unit(rng, config.n)
        return LTF(v, theta)
    if config.learner == "ptf":
        if "coeffs" in plant_cfg:
            coeffs = np.asarray(plant_cfg["coeffs"], dtype=np.float64)
        else:
            # default plant: sign(x1^2 - 1)
            coeffs = np.zeros(dist.basis.ell)
            exp = np.zeros(config.n, dtype=np.int64)
            coeffs[0] = -1.0
            exp[0] = 2
            coeffs[dist.basis.index_of(tuple(exp))] = 1.0
        return PTF(Polynomial(dist.basis, coeffs))
    thetas = plant_cfg.get("thetas", [0.5] * config.k)
    if "vs" in plant_cfg:
        vs = [np.asarray(v, dtype=np.float64) for v in plant_cfg["vs"]]
        vs = [v / np.linalg.norm(v) for v in vs]
    else:
        raw = rng.standard_normal((config.n, config.k))
        q, _ = np.linalg.qr(raw)
        vs = [q[:, i] for i in range(config.k)]
    return Intersection([LTF(v, float(t)) for v, t in zip(vs, thetas)])


def _build_dist(config: ExperimentConfig, eps: float) -> ReasonableDistribution:
    if config.dist == "hypercube":
        return hypercube_descriptor(config.n, config.degree, eps)
    return gaussian_descriptor(config.n, config.degree, eps)


def run_cell(config: ExperimentConfig, strategy_tag: str, eps: float,
             trial: int, cell_index: int):
    """Plant, draw, corrupt, learn and score one grid cell of a validated
    config. Returns (ResultRow, output), the output being the ChowEstimate
    for the chow learner and the learned hypothesis otherwise."""
    ss = np.random.SeedSequence(config.seed, spawn_key=(cell_index,))
    cell_seed = int(ss.generate_state(1)[0])
    s_plant, s_corrupt, s_learn, s_score, s_extra = ss.spawn(5)

    dist = _build_dist(config, eps)
    rng = np.random.default_rng(s_plant)
    plant = _plant_for_cell(config, dist, rng)
    pts = dist.sample(config.m_train, s_extra)
    clean = LabeledSampleSet(pts, np.asarray(plant.evaluate(pts), dtype=np.float64))
    strategy = AdversaryStrategy(strategy_tag)
    corrupted = corrupt(clean, plant, eps, strategy, dist, s_corrupt)

    disagreement = 0.0
    chow_error: Optional[float] = None
    iterations = 0
    removed = 0
    flags = []

    if config.learner == "chow":
        est = robust_chow(corrupted, dist, FilterParams(eps=eps))
        if config.dist == "gaussian":  # the analytic vector holds only there
            chow_error = chow_distance(est, analytic_ltf_chow(plant.v, plant.theta, dist))
        iterations = int(est.provenance["iterations"])
        removed = int(est.provenance["pruned"] + est.provenance["filtered"])
        if est.provenance.get("degraded"):
            flags.append("degraded")
        if est.provenance.get("cap_reached"):
            flags.append("cap_reached")
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
                                     delta_override=config.delta_override,
                                     m_tournament=config.m_holdout,
                                     seed=int(s_learn.generate_state(1)[0]))
        disagreement = score(hyp, plant, dist, config.m_score, s_score)
        output = hyp

    row = ResultRow(config.learner, strategy_tag, eps, trial, cell_seed,
                    disagreement, chow_error, iterations, removed, 0,
                    ";".join(flags))
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
            ss = np.random.SeedSequence(config.seed, spawn_key=(cell_index,))
            return ResultRow(config.learner, strategy, eps, trial,
                             int(ss.generate_state(1)[0]), 1.0, None, 0, 0, 0,
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
