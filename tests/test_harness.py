import hashlib
import json
import math
import os

import numpy as np
import pytest
from scipy.stats import norm

from robustchow.adversary import AdversaryStrategy, LabeledSampleSet
from robustchow.chowfilter import ChowEstimate, chow_distance, empirical_chow
from robustchow.distributions import gaussian_descriptor
from robustchow.errors import ConfigError, ZeroChowVector
from robustchow.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    _pool_size,
    analytic_ltf_chow,
    make_corrupted_source,
    run_cell,
    run_experiment,
    score,
    write_csv,
)
from robustchow.ltf_learner import LTF


def base_config(**over):
    kwargs = dict(learner="chow", n=3, eps_grid=[0.0], strategies=["none"],
                  m_train=2_000)
    kwargs.update(over)
    return ExperimentConfig(**kwargs)


# --- config -----------------------------------------------------------------------


def test_config_validation_collects_all_problems():
    cfg = base_config(learner="nope", eps_grid=[0.5], strategies=["bogus"],
                      m_train=10, d=0)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    msg = str(exc.value)
    for expected in ("learner:", "eps_grid:", "strategies:", "m_train:", "d:"):
        assert expected in msg


def test_config_from_json_rejects_unknown_keys():
    # rho, deterministic_output and timeout_s were config keys once; old
    # configs that still set them must fail, not be silently ignored
    for key, value in (("epsilon_grid", [0.1]), ("rho", 0.9),
                       ("deterministic_output", True), ("timeout_s", 600.0)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json({"learner": "chow", "n": 3, key: value})


def test_config_from_json_missing_required_key():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"learner": "chow", "n": 3})


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"learner": "ltf", "n": 4, "eps_grid": [0.05],
                                "strategies": ["random_flip"], "m_train": 5000}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.learner == "ltf"
    assert cfg.trials == 3  # default preserved


def test_config_intersection_k_validation():
    cfg = base_config(learner="intersection", k=5)
    with pytest.raises(ConfigError, match="k:"):
        cfg.validate()


@pytest.mark.parametrize("delta", [0.04, 5.0, float("nan")])
def test_config_delta_override_range(delta):
    # the cover's threshold range needs DELTA_FLOOR <= delta <= 4k, here k = 1
    cfg = base_config(learner="intersection", k=1, delta_override=delta)
    with pytest.raises(ConfigError, match="delta_override"):
        cfg.validate()


@pytest.mark.parametrize("over,field", [
    (dict(learner="ptf", d=2, xi=1.5), "xi"),
    (dict(learner="ptf", d=2, xi=0.0), "xi"),
    (dict(learner="ptf", d=2, xi=float("nan")), "xi"),
    (dict(learner="ltf", m_holdout=0), "m_holdout"),
    (dict(learner="ltf", m_score=10), "m_score"),
    (dict(learner="ltf", m_score=999), "m_score"),
])
def test_config_rejects_bad_xi_and_sample_counts(tmp_path, over, field):
    cfg = base_config(out=str(tmp_path / "b.csv"), **over)
    with pytest.raises(ConfigError, match=field):
        run_experiment(cfg)
    assert not (tmp_path / "b.csv").exists()


def test_config_intersection_k_above_n_rejected(tmp_path):
    cfg = base_config(learner="intersection", n=2, k=3, out=str(tmp_path / "k.csv"))
    with pytest.raises(ConfigError, match="k:"):
        run_experiment(cfg)
    assert not (tmp_path / "k.csv").exists()


@pytest.mark.parametrize("over,field", [
    (dict(learner="ptf", d=2, plant={"coeffs": [1.0, 2.0]}), "plant.coeffs"),
    # the hypercube basis is multilinear: 7 monomials for n=3, d=2, not 10
    (dict(learner="ptf", d=2, dist="hypercube", plant={"coeffs": [0.0] * 10}),
     "plant.coeffs"),
    (dict(learner="ptf", d=2, plant={"coeffs": "x1"}), "plant.coeffs"),
    (dict(learner="ptf", d=1), "plant:"),
    (dict(learner="ltf", plant={"v": [1.0, 0.0]}), "plant.v"),
    (dict(learner="chow", plant={"v": [0.0, 0.0, 0.0]}), "plant.v"),
    (dict(learner="ltf", plant={"theta": float("nan")}), "plant.theta"),
    (dict(learner="intersection", k=2, plant={"vs": [[1.0, 0.0, 0.0]]}), "plant.vs"),
    (dict(learner="intersection", k=2, plant={"vs": [[1.0, 0.0], [0.0, 1.0]]}),
     "plant.vs"),
    (dict(learner="intersection", k=2,
          plant={"vs": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}), "plant.vs"),
    (dict(learner="intersection", k=2, plant={"thetas": [0.5]}), "plant.thetas"),
])
def test_config_rejects_malformed_plant(tmp_path, over, field):
    cfg = base_config(strategies=["none"], out=str(tmp_path / "p.csv"), **over)
    with pytest.raises(ConfigError, match=field):
        run_experiment(cfg)
    assert not (tmp_path / "p.csv").exists()


def test_config_accepts_well_formed_plants():
    base_config(learner="ptf", d=2, dist="hypercube", plant={"coeffs": [0.0] * 7}).validate()
    base_config(learner="ptf", d=2, plant={"coeffs": [0.0] * 10}).validate()
    base_config(learner="ltf", plant={"v": [0.0, 2.0, 0.0], "theta": -0.3}).validate()
    base_config(learner="intersection", k=2,
                plant={"vs": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                       "thetas": [0.1, 0.2]}).validate()


# --- rows and CSV -----------------------------------------------------------------


def test_result_row_validation_and_formatting():
    with pytest.raises(ValueError):
        ResultRow("chow", "none", 0.0, 0, 1, 1.5, None, 0, 0, 0)
    row = ResultRow("chow", "none", 0.1, 0, 42, 0.25, None, 3, 17, 0, "degraded")
    fields = row.as_csv_fields()
    assert len(fields) == len(CSV_COLUMNS)
    assert fields[2] == "0.10000000000000001"  # %.17g roundtrips the float
    assert fields[6] == ""                     # missing chow_error stays empty
    assert float(fields[2]) == 0.1


def test_write_csv_overwrites_atomically(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("stale")
    rows = [ResultRow("chow", "none", 0.0, 0, 1, 0.0, 0.5, 1, 2, 3)]
    write_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".csv.part")]


# --- scoring and analytics --------------------------------------------------------


def test_score_bounds_and_min_count():
    dist = gaussian_descriptor(3, 1, 0.0)
    plant = LTF(np.array([1.0, 0.0, 0.0]), 0.0)
    flipped = LTF(np.array([-1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        score(plant, plant, dist, 100, 0)
    assert score(plant, plant, dist, 2_000, 0) == 0.0
    # sign(0) = +1 on both sides, so only the open halves disagree
    assert score(flipped, plant, dist, 50_000, 0) >= 0.99


def test_analytic_ltf_chow_matches_empirical():
    n = 5
    dist = gaussian_descriptor(n, 1, 0.0)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    theta = 0.7
    truth = analytic_ltf_chow(v, theta, dist)
    assert truth.chi[0] == pytest.approx(2.0 * norm.cdf(theta) - 1.0)

    pts = dist.sample(400_000, 11)
    plant = LTF(v, theta)
    emp = empirical_chow(LabeledSampleSet(pts, plant.evaluate(pts)), dist)
    assert np.abs(emp.chi - truth.chi).max() <= 0.01


@pytest.mark.parametrize("n,d,theta", [(3, 2, 0.5), (3, 3, -0.7)])
def test_analytic_ltf_chow_higher_degree_matches_empirical(n, d, theta):
    dist = gaussian_descriptor(n, d, 0.0)
    rng = np.random.default_rng(d)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    plant = LTF(v, theta)
    # 1e6 points in four batches; whitened sampling noise is about sqrt(ell / 1e6)
    chis = []
    for seed in range(4):
        pts = dist.sample(250_000, 100 + seed)
        chis.append(empirical_chow(LabeledSampleSet(pts, plant.evaluate(pts)), dist).chi)
    emp = ChowEstimate(np.mean(chis, axis=0), dist.basis, dist)
    assert chow_distance(analytic_ltf_chow(v, theta, dist), emp) <= 0.01


def test_run_cell_chow_error_at_degree_2():
    cfg = base_config(n=4, d=2, m_train=200_000, plant={"theta": 0.5})
    row, _ = run_cell(cfg, "none", 0.0, 0, 0)
    assert row.chow_error < 0.02
    # the Gaussian formula does not hold on the cube, so no error is reported
    row, _ = run_cell(base_config(dist="hypercube"), "none", 0.0, 0, 0)
    assert row.chow_error is None


def test_make_corrupted_source_determinism_and_budget():
    n = 4
    eps = 0.1
    dist = gaussian_descriptor(n, 1, eps)
    plant = LTF(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    draw = make_corrupted_source(plant, dist, eps, AdversaryStrategy("random_flip"))

    a = draw(5_000, 123)
    b = draw(5_000, 123)
    c = draw(5_000, 124)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.points, c.points)

    assert a.corrupted_mask.sum() == math.floor(eps * 5_000)
    untouched = ~a.corrupted_mask
    assert np.array_equal(a.labels[untouched], plant.evaluate(a.points)[untouched])


# --- pool sizing ------------------------------------------------------------------


def test_pool_size_env(monkeypatch):
    monkeypatch.setenv("ROBUST_CHOW_THREADS", "2")
    assert _pool_size(8) == 2
    monkeypatch.setenv("ROBUST_CHOW_THREADS", "16")
    assert _pool_size(3) == 3  # never more workers than cells
    monkeypatch.setenv("ROBUST_CHOW_THREADS", "zero")
    with pytest.raises(ConfigError):
        _pool_size(8)
    monkeypatch.delenv("ROBUST_CHOW_THREADS")
    assert 1 <= _pool_size(8) <= 4


# --- experiment sweeps ------------------------------------------------------------


def test_run_experiment_bit_identical(tmp_path):
    cfg = base_config(eps_grid=[0.0, 0.1], strategies=["none", "random_flip"],
                      trials=2, out=str(tmp_path / "a.csv"))
    rows_a = run_experiment(cfg)
    run_experiment(cfg, out=str(tmp_path / "b.csv"))
    digest_a = hashlib.sha256((tmp_path / "a.csv").read_bytes()).hexdigest()
    digest_b = hashlib.sha256((tmp_path / "b.csv").read_bytes()).hexdigest()
    assert digest_a == digest_b

    # rows come back in (strategy, eps, trial) enumeration order
    keys = [(r.strategy, r.eps, r.trial) for r in rows_a]
    expected = [(s, e, t) for s in cfg.strategies for e in cfg.eps_grid
                for t in range(cfg.trials)]
    assert keys == expected
    assert all(r.wall_time_ms == 0 for r in rows_a)


def test_run_experiment_chow_rows_have_errors(tmp_path):
    cfg = base_config(eps_grid=[0.1], strategies=["chow_attack"], trials=1,
                      m_train=5_000, out=str(tmp_path / "c.csv"))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.chow_error is not None and row.chow_error <= 0.5
    assert row.points_removed > 0
    assert row.disagreement == 0.0  # chow cells report distance, not disagreement


def test_run_experiment_captures_cell_failure(tmp_path, monkeypatch):
    def declines(*args, **kwargs):
        raise ZeroChowVector("the learner declined")

    monkeypatch.setattr("robustchow.harness.learn_ptf", declines)
    cfg = base_config(learner="ptf", d=2, n=3, eps_grid=[0.0],
                      strategies=["none"], trials=1, m_train=2_000,
                      out=str(tmp_path / "fail.csv"))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].flags == "error:ZeroChowVector"
    assert rows[0].disagreement == 1.0
    assert (tmp_path / "fail.csv").exists()


def test_run_experiment_propagates_programming_errors(tmp_path, monkeypatch):
    # only deliberate library failures become error rows; a bug must surface
    def broken(*args, **kwargs):
        raise TypeError("bug in the learner")

    monkeypatch.setattr("robustchow.harness.learn_intersection", broken)
    cfg = base_config(learner="intersection", k=1, n=4, eps_grid=[0.0],
                      strategies=["none"], trials=1, m_train=5_000,
                      plant={"thetas": [0.5]}, out=str(tmp_path / "bug.csv"))
    with pytest.raises(TypeError, match="bug in the learner"):
        run_experiment(cfg)
    assert not (tmp_path / "bug.csv").exists()


def test_run_experiment_ptf_smoke(tmp_path):
    cfg = base_config(learner="ptf", d=1, n=3, eps_grid=[0.0],
                      strategies=["none"], trials=1, m_train=20_000,
                      m_score=20_000, plant={"coeffs": [0.0, 1.0, 0.0, 0.0]},
                      out=str(tmp_path / "ptf.csv"))
    rows = run_experiment(cfg)
    assert rows[0].flags == ""
    assert rows[0].disagreement <= 0.1


def test_run_experiment_intersection_smoke(tmp_path):
    cfg = base_config(learner="intersection", k=1, n=4, eps_grid=[0.0],
                      strategies=["none"], trials=1, m_train=20_000,
                      m_holdout=5_000, m_score=10_000,
                      plant={"thetas": [0.5]}, out=str(tmp_path / "int.csv"))
    rows = run_experiment(cfg)
    assert rows[0].disagreement <= 0.1


def test_run_experiment_ltf_smoke(tmp_path):
    cfg = base_config(learner="ltf", n=4, eps_grid=[0.05],
                      strategies=["random_flip"], trials=1, m_train=60_000,
                      m_holdout=5_000, m_score=20_000,
                      out=str(tmp_path / "ltf.csv"))
    rows = run_experiment(cfg)
    assert rows[0].disagreement <= 0.2
    lines = (tmp_path / "ltf.csv").read_text().splitlines()
    assert lines[1].startswith("ltf,random_flip,0.05")
