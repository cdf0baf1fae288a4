import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from robustchow import chowfilter, distributions
from robustchow.adversary import (STRATEGIES, AdversaryStrategy, LabeledSampleSet, corrupt,
                                  corrupted_rows)
from robustchow.chowfilter import ChowEstimate, chow_distance, empirical_chow
from robustchow.cli import _load_json
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
from robustchow.polybasis import TILE_ROWS, Polynomial, basis_size
from robustchow.ptf_learner import PTF


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
    # rho, deterministic_output, timeout_s and delta_override were config
    # keys once; old configs that still set them must fail, not be silently
    # ignored
    for key, value in (("epsilon_grid", [0.1]), ("rho", 0.9),
                       ("deterministic_output", True), ("timeout_s", 600.0),
                       ("delta_override", 0.3)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json({"learner": "chow", "n": 3, key: value})


@pytest.mark.parametrize("data", [[], None, 5, "[]"])
def test_config_from_json_rejects_a_config_that_is_not_an_object(tmp_path, data):
    with pytest.raises(ConfigError, match="^config: must be a JSON object"):
        if data == "[]":   # the same list, read from a file by the CLI's loader
            path = tmp_path / "cfg.json"
            path.write_text("[]")
            data = _load_json(path)
        ExperimentConfig.from_json(data)


def test_config_from_json_missing_required_key():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"learner": "chow", "n": 3})


@pytest.mark.parametrize("key, value", [
    ("n", True), ("m_train", 2000.0), ("eps_grid", [0.1, "0.2"]), ("strategies", "none"),
    ("xi", "0.1"), ("plant", []), ("learner", None)])
def test_config_from_json_names_a_field_of_the_wrong_type(key, value):
    data = {"learner": "chow", "n": 3, "eps_grid": [0, 0.1], "strategies": ["none"],
            "m_train": 2000, "xi": None}
    assert ExperimentConfig.from_json(data).eps_grid == [0, 0.1]
    with pytest.raises(ConfigError, match=f"^{key}: must be"):
        ExperimentConfig.from_json({**data, key: value})


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"learner": "ltf", "n": 4, "eps_grid": [0.05],
                                "strategies": ["random_flip"], "m_train": 5000}))
    cfg = ExperimentConfig.from_json(_load_json(path))
    assert cfg.learner == "ltf"
    assert cfg.trials == 3  # default preserved


def test_config_intersection_k_validation():
    cfg = base_config(learner="intersection", k=5)
    with pytest.raises(ConfigError, match="k:"):
        cfg.validate()


@pytest.mark.parametrize("over,field", [
    (dict(learner="ptf", d=2, xi=1.5), "xi"),
    (dict(learner="ptf", d=2, xi=0.0), "xi"),
    (dict(learner="ptf", d=2, xi=float("nan")), "xi"),
    (dict(learner="ltf", m_holdout=0), "m_holdout"),
    (dict(learner="ltf", m_score=10), "m_score"),
    (dict(learner="ltf", m_score=999), "m_score"),
    # learner/degree pairs whose every cell would fail
    (dict(learner="ltf", d=2), "d:"),
    (dict(learner="ptf", d=2, dist="hypercube", plant={"coeffs": [1.0] * 7}), "d:"),
    # below the filter's max(50, 2 ell) floor: ell = 455, so 910 samples
    (dict(learner="chow", n=12, d=3, m_train=500), "m_train: .*910"),
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
    # the hypercube ptf learner works at d = 1, where the basis has n + 1 = 4
    # monomials
    (dict(learner="ptf", d=1, dist="hypercube", plant={"coeffs": [0.0, 1.0]}),
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
    (dict(learner="ptf", d=2, plant={"coeffs": [0.0] * 10}), "plant.coeffs"),
])
def test_config_rejects_malformed_plant(tmp_path, over, field):
    cfg = base_config(strategies=["none"], out=str(tmp_path / "p.csv"), **over)
    with pytest.raises(ConfigError, match=field):
        run_experiment(cfg)
    assert not (tmp_path / "p.csv").exists()


def test_config_accepts_well_formed_plants():
    base_config(learner="ptf", d=1, dist="hypercube",
                plant={"coeffs": [0.0, 1.0, 0.0, 0.0]}).validate()
    base_config(learner="ptf", d=2,  # sign(x1^2 - 1)
                plant={"coeffs": [-1.0, 0.0, 0.0, 0.0, 1.0] + [0.0] * 5}).validate()
    base_config(learner="ltf", plant={"v": [0.0, 2.0, 0.0], "theta": -0.3}).validate()
    base_config(learner="intersection", k=2,
                plant={"vs": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                       "thetas": [0.1, 0.2]}).validate()


LTF_PLANT = {"v": [1.0, 2.0, 0.0], "theta": 0.3}
INTERSECTION_PLANT = {"vs": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "thetas": [0.3, 0.5]}
PTF1_PLANT = {"coeffs": [0.2, 1.0, 1.0, 0.0]}
PTF2_PLANT = {"coeffs": [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]}  # x1^2 + x2^2 - 1


@pytest.mark.parametrize("over", [
    dict(learner="chow", d=2),
    dict(learner="chow", d=2, plant=LTF_PLANT),
    dict(learner="chow", d=2, dist="hypercube"),
    dict(learner="chow", d=2, dist="hypercube", plant=LTF_PLANT),
    dict(learner="chow", n=12, d=3),  # the 2 ell floor (910) is above 100 here
    dict(learner="chow", n=12, d=3, plant={"theta": -0.2}),
    dict(learner="ltf"),
    dict(learner="ltf", plant=LTF_PLANT),
    dict(learner="ltf", dist="hypercube"),
    dict(learner="ltf", dist="hypercube", plant=LTF_PLANT),
    dict(learner="ptf", d=2),
    dict(learner="ptf", d=2, plant=PTF2_PLANT),
    dict(learner="ptf", d=1, plant=PTF1_PLANT),
    dict(learner="ptf", d=1, dist="hypercube", plant=PTF1_PLANT),
    dict(learner="intersection", k=2),
    dict(learner="intersection", k=2, plant=INTERSECTION_PLANT),
    dict(learner="intersection", k=2, dist="hypercube"),
    dict(learner="intersection", k=2, dist="hypercube", plant=INTERSECTION_PLANT),
])
def test_accepted_config_runs_at_the_smallest_m_train(tmp_path, over):
    # a config that validate accepts must run: no cell may fail on it
    cfg = base_config(eps_grid=[0.0, 0.1], strategies=["chow_attack", "random_flip"],
                      trials=1, m_holdout=1_000, m_score=1_000,
                      out=str(tmp_path / "r.csv"), **over)
    cfg.m_train = max(100, 2 * basis_size(cfg.n, cfg.degree, cfg.dist == "hypercube")) - 1
    with pytest.raises(ConfigError, match="m_train:"):
        cfg.validate()
    cfg.m_train += 1  # the smallest m_train that validate accepts
    rows = run_experiment(cfg)
    assert [row.flags for row in rows if row.flags.startswith("error:")] == []


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


def test_make_corrupted_source_reads_a_seed_sequence_without_spending_it():
    # one SeedSequence object passed twice draws the batch of its int seed both times
    dist = gaussian_descriptor(4, 1, 0.1)
    plant = LTF(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    draw = make_corrupted_source(plant, dist, 0.1, AdversaryStrategy("random_flip"))
    seed = np.random.SeedSequence(5)
    a, b, c = draw(2_000, seed), draw(2_000, seed), draw(2_000, 5)
    for other in (b, c):
        assert np.array_equal(a.points, other.points)
        assert np.array_equal(a.labels, other.labels)


@pytest.mark.parametrize("seed", [3, 2024])
@pytest.mark.parametrize("tag", STRATEGIES)
def test_make_corrupted_source_equals_corrupt_of_the_clean_draw(tag, seed):
    # the source corrupts its batch in place; the result is the set `corrupt`
    # returns on the same clean draw, byte for byte
    dist = gaussian_descriptor(5, 1, 0.1)
    plant = LTF(np.array([0.6, 0.0, 0.8, 0.0, 0.0]), 0.3)
    strategy = AdversaryStrategy(tag)
    got = make_corrupted_source(plant, dist, 0.1, strategy)(3_000, seed)
    s_draw, s_adv = np.random.SeedSequence(seed).spawn(2)
    pts = dist.sample(3_000, s_draw)
    want = corrupt(LabeledSampleSet(pts, plant.evaluate(pts)), plant, 0.1, strategy, dist, s_adv)
    for name in ("points", "labels", "corrupted_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.corrupted_mask.sum() == (0 if tag == "none" else 300)


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


def test_run_experiment_bit_identical_on_a_cold_descriptor_cache(tmp_path, monkeypatch):
    # two workers start on a cleared cache, so their builds of the shared
    # d = 3 Gaussian constants can race; the CSV matches a warm rerun
    monkeypatch.setenv("ROBUST_CHOW_THREADS", "2")
    cfg = base_config(n=4, d=3, eps_grid=[0.05, 0.1], strategies=["none", "chow_attack"],
                      out=str(tmp_path / "cold.csv"))
    distributions._gaussian_constants.cache_clear()
    run_experiment(cfg)
    assert distributions._gaussian_constants.cache_info().currsize == 1
    run_experiment(cfg, out=str(tmp_path / "warm.csv"))
    digest_cold = hashlib.sha256((tmp_path / "cold.csv").read_bytes()).hexdigest()
    digest_warm = hashlib.sha256((tmp_path / "warm.csv").read_bytes()).hexdigest()
    assert digest_cold == digest_warm


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
    # the cell's seed, as a row that ran would report it
    assert rows[0].seed == np.random.SeedSequence(cfg.seed, spawn_key=(0,)).generate_state(1)[0]
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
    # the row carries its target filter's flags: at m = 2e4 the clean
    # sample's excess (about 0.02) is above the break level at eps 0
    # (0.010), so the filter looks for a cut, finds no tail in excess and
    # stops degraded, having removed nothing
    assert (rows[0].flags, rows[0].points_removed) == ("degraded", 0)
    assert rows[0].disagreement <= 0.1


def test_run_experiment_intersection_smoke(tmp_path):
    cfg = base_config(learner="intersection", k=1, n=4, eps_grid=[0.0],
                      strategies=["none"], trials=1, m_train=20_000,
                      m_holdout=5_000, m_score=10_000,
                      plant={"thetas": [0.5]}, out=str(tmp_path / "int.csv"))
    rows = run_experiment(cfg)
    assert rows[0].disagreement <= 0.1


@pytest.mark.parametrize("learner", ["ptf", "intersection"])
def test_run_cell_counters_come_from_the_target_filter(learner):
    cfg = base_config(learner=learner, n=4, d=2, k=1, eps_grid=[0.05],
                      strategies=["chow_attack"], trials=1, m_train=20_000,
                      m_holdout=5_000, m_score=10_000)
    cfg.validate()
    row, hyp = run_cell(cfg, "chow_attack", 0.05, 0, 0)
    prov = hyp.provenance["target"]
    assert row.iterations == prov["iterations"] >= 1
    assert row.points_removed == prov["pruned"] + prov["filtered"] > 0


@pytest.mark.parametrize("learner", ["ptf", "intersection"])
def test_run_cell_flags_a_target_filter_that_hit_its_cap(learner, monkeypatch):
    # one pass cuts the chow_attack cluster; the cap then stops the filter
    monkeypatch.setattr(chowfilter, "MAX_ITERATIONS", 1)
    cfg = base_config(learner=learner, n=4, d=2, k=1, eps_grid=[0.05],
                      strategies=["chow_attack"], trials=1, m_train=20_000,
                      m_holdout=5_000, m_score=10_000)
    cfg.validate()
    row, hyp = run_cell(cfg, "chow_attack", 0.05, 0, 0)
    prov = hyp.provenance["target"]
    assert prov["cap_reached"] and not prov["degraded"]
    assert row.iterations == 1 and row.flags == "cap_reached"


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ptf_evaluation_memory_is_a_tile_not_the_monomial_matrix():
    # a dense degree-3 PTF on 1e5 points: the (m, ell) monomial matrix
    # would take 364 MB, a tile of it 7.5 MB
    n, d, count, eps = 12, 3, 100_000, 0.1
    dist = gaussian_descriptor(n, d, eps)
    rng = np.random.default_rng(8)
    plant = PTF(Polynomial(dist.basis, rng.standard_normal(dist.ell)))
    other = PTF(Polynomial(dist.basis, rng.standard_normal(dist.ell)))
    tile = dist.ell * TILE_ROWS * 8
    # room for two tiles and two copies of the points evaluated
    bound = 2 * (tile + count * n * 8)
    assert _peak_bytes(score, other, plant, dist, count, 9) < bound
    # remove_informative ranks the m clean points and a pool of 50 budget
    # fresh ones by margin
    m = 20_000
    pts = dist.sample(m, 10)
    clean = LabeledSampleSet(pts, plant.evaluate(pts))
    bound = 2 * (tile + (m + 50 * int(eps * m)) * n * 8)
    assert _peak_bytes(corrupted_rows, clean, plant, eps,
                       AdversaryStrategy("remove_informative"), dist, 11) < bound


def test_run_experiment_ltf_smoke(tmp_path):
    cfg = base_config(learner="ltf", n=4, eps_grid=[0.05],
                      strategies=["random_flip"], trials=1, m_train=60_000,
                      m_holdout=5_000, m_score=20_000,
                      out=str(tmp_path / "ltf.csv"))
    rows = run_experiment(cfg)
    assert rows[0].disagreement <= 0.2
    lines = (tmp_path / "ltf.csv").read_text().splitlines()
    assert lines[1].startswith("ltf,random_flip,0.05")
