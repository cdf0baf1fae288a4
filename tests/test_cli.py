import json
import math

import numpy as np
import pytest

from robustchow.adversary import LabeledSampleSet
from robustchow.cli import _load_json, main
from robustchow.distributions import gaussian_descriptor, gaussian_moment_matrix
from robustchow.errors import ConfigError
from robustchow.harness import ExperimentConfig, run_experiment
from robustchow.ltf_learner import LTF


def write_samples(path, n=3, m=20_000, seed=0):
    dist = gaussian_descriptor(n, 1, 0.0)
    pts = dist.sample(m, seed)
    plant = LTF(np.r_[1.0, np.zeros(n - 1)], 0.0)
    LabeledSampleSet(pts, plant.evaluate(pts)).to_csv(path)


def dist_config(path, n=3):
    path.write_text(json.dumps({"family": "gaussian", "n": n, "d": 1}))


# --- argument handling ------------------------------------------------------------


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert main(["learn-ltf", "--bogus", "1"]) == 2
    capsys.readouterr()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["chow", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chow", "--config", "{dir}"],
    ["chow", "--config", "{cfg}", "--samples", "{dir}"],
    ["experiment", "--config", "{dir}"],
])
def test_directory_as_a_path_exits_2(tmp_path, capsys, argv):
    cfg = tmp_path / "ok.json"
    dist_config(cfg)
    assert main([arg.format(dir=tmp_path, cfg=cfg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_experiment_config_from_a_directory_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="config: .*Is a directory"):
        ExperimentConfig.from_json(_load_json(tmp_path))


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["chow", "--config", str(cfg)]) == 2
    capsys.readouterr()


# --- chow subcommand --------------------------------------------------------------


def test_chow_estimate_roundtrip(tmp_path):
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "data.csv"
    out = tmp_path / "chow.json"
    dist_config(cfg)
    write_samples(samples)

    rc = main(["chow", "--config", str(cfg), "--samples", str(samples),
               "--eps", "0.0", "--out", str(out)])
    assert rc == 0
    est = json.loads(out.read_text())
    chi = est["chi"]
    # plant sign(x1): linear slot sqrt(2/pi), everything else near zero
    assert chi[1] == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.02)
    assert abs(chi[0]) <= 0.02 and abs(chi[2]) <= 0.02


def test_chow_dimension_mismatch_exits_2(tmp_path, capsys):
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "data.csv"
    dist_config(cfg, n=4)
    write_samples(samples, n=3)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples)]) == 2
    assert "dimension" in capsys.readouterr().err


def test_chow_too_few_samples_exits_2(tmp_path, capsys):
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "tiny.csv"
    dist_config(cfg)
    write_samples(samples, m=20)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples)]) == 2
    err = capsys.readouterr().err
    # n = 3, d = 1: 4 monomials, floor max(50, 2 * 4)
    assert err.startswith("config error: samples: 20 rows") and "at least 50" in err


@pytest.mark.parametrize("eps", ["0.4", "0.3334", "-0.01", "nan"])
def test_chow_bad_eps_exits_2(tmp_path, capsys, eps):
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "data.csv"
    dist_config(cfg)
    write_samples(samples, m=200)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples), "--eps", eps]) == 2
    assert capsys.readouterr().err.startswith("config error: eps must lie in [0, 1/3)")


@pytest.mark.parametrize("family", ["gaussian", "hypercube"])
def test_chow_nan_in_samples_exits_2(tmp_path, capsys, family):
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "nan.csv"
    cfg.write_text(json.dumps({"family": family, "n": 3, "d": 1}))
    write_samples(samples, m=2000)
    lines = samples.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = "nan"
    lines[5] = ",".join(cells)
    samples.write_text("\n".join(lines) + "\n")
    assert main(["chow", "--config", str(cfg), "--samples", str(samples)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: samples: points must be finite")
    assert "NaN" in err and "sample index 4" in err


def moments_csv(path, n, d):
    """The exact Gaussian moment matrix, written as a log-concave moments file."""
    np.savetxt(path, gaussian_moment_matrix(gaussian_descriptor(n, d, 0.0).basis),
               delimiter=",")
    return str(path)


def test_chow_log_concave_config(tmp_path):
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "data.csv"
    out = tmp_path / "chow.json"
    cfg.write_text(json.dumps({"family": "log-concave", "n": 3, "d": 1, "gamma": 0.0,
                               "moments_file": moments_csv(tmp_path / "m.csv", 3, 1)}))
    write_samples(samples)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples),
                 "--eps", "0.05", "--out", str(out)]) == 0
    chi = json.loads(out.read_text())["chi"]
    assert chi[1] == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.03)


def test_chow_bad_moment_table_exits_2(tmp_path, capsys):
    # n=3, d=1 has ell=4, so a 3x3 table is the wrong shape: a config error
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "data.csv"
    table = tmp_path / "m.csv"
    np.savetxt(table, np.eye(3), delimiter=",")
    cfg.write_text(json.dumps({"family": "log-concave", "n": 3, "d": 1,
                               "moments_file": str(table)}))
    write_samples(samples, m=2000)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: moments_file") and "(3, 3)" in err


@pytest.mark.parametrize("command", ["chow", "experiment"])
@pytest.mark.parametrize("text,message", [
    (b"[]", "must be a JSON object"), (b"null", "must be a JSON object"),
    (b"5", "must be a JSON object"), (b"\xff\xfe{}", "'utf-8' codec can't decode"),
    (b"\xff\xfe{", "'utf-8' codec can't decode"), (b'{"learner": ', "Expecting value"),
])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config: {message}")


@pytest.mark.parametrize("entry,field", [
    ({"n": None}, "n: must be an integer >= 1"),
    ({"n": 2.7}, "n: must be an integer >= 1"),
    ({"n": 0}, "n: must be an integer >= 1"),
    ({"n": True}, "n: must be an integer >= 1"),
    ({"d": "1"}, "d: must be an integer >= 1"),
    ({"gamma": -0.1}, "gamma: must be a number >= 0"),
    ({"gamma": "small"}, "gamma: must be a number >= 0"),
    ({"eps": "0.1"}, "eps: must be a number"),
    ({"eps": None}, "eps: must be a number"),
    ({"tail_constants": {"c": "1"}}, "tail_constants.c: must be a number"),
    ({"tail_constants": 3}, "tail_constants: must be an object"),
    ({"samples": 5}, "samples: need --samples"),
    ({"family": "log-concave", "moments_file": 5}, "moments_file: a log-concave"),
    ({"family": "log-concave", "moments_file": "BAD"}, "moments_file: "),
])
def test_chow_mistyped_config_field_exits_2(tmp_path, capsys, entry, field):
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "data.csv"
    write_samples(samples, m=2000)
    if entry.get("moments_file") == "BAD":
        entry["moments_file"] = str(tmp_path / "m.csv")
        (tmp_path / "m.csv").write_text("1,2\nthree,4\n")
    argv = ["chow", "--config", str(cfg)]
    if "samples" not in entry:
        argv += ["--samples", str(samples)]
    cfg.write_text(json.dumps({"family": "gaussian", "n": 3, "d": 1, **entry}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}") and "Traceback" not in err


@pytest.mark.parametrize("dist,code", [
    ({"family": "gaussian", "tail_constants": {"c": 0}}, 2),
    ({"family": "gaussian", "tail_constants": {"c": -1}}, 2),
    ({"family": "gaussian", "tail_constants": {"c": float("nan")}}, 2),
    ({"family": "weibull"}, 2),
    ({"family": "log-concave"}, 2),
    # a legal but absurdly slow tail: the T_max crossing leaves the float range
    ({"family": "log-concave", "tail_constants": {"c": 1e-300}, "moments": True}, 3),
], ids=["c-zero", "c-negative", "c-nan", "unknown-family", "no-moments-file", "c-tiny"])
def test_chow_distribution_config_errors(tmp_path, capsys, dist, code):
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "data.csv"
    entry = {"n": 3, "d": 2, **dist}
    if entry.pop("moments", False):
        entry["moments_file"] = moments_csv(tmp_path / "m.csv", 3, 2)
    cfg.write_text(json.dumps(entry))
    write_samples(samples)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "learner failure: IntegralDiverges")


def test_chow_nested_config_names_the_missing_keys(tmp_path, capsys):
    # the chow config is one flat object; the old nested form must say so
    cfg = tmp_path / "nested.json"
    cfg.write_text(json.dumps({"dist": {"family": "gaussian", "n": 3, "d": 1}}))
    samples = tmp_path / "data.csv"
    write_samples(samples)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n, d: missing") and "flat" in err


def test_chow_program_keyerror_is_not_a_config_error(tmp_path, monkeypatch):
    # only input errors map to exit 2; a KeyError from a bug keeps its traceback
    def broken(*args, **kwargs):
        raise KeyError("bug in the filter")

    monkeypatch.setattr("robustchow.cli.robust_chow", broken)
    cfg, samples = tmp_path / "dist.json", tmp_path / "data.csv"
    dist_config(cfg)
    write_samples(samples)
    with pytest.raises(KeyError, match="bug in the filter"):
        main(["chow", "--config", str(cfg), "--samples", str(samples)])


def test_learner_valueerror_is_not_a_config_error(monkeypatch):
    # a ValueError from inside a learner is a bug, not bad input: no exit 2
    def broken(*args, **kwargs):
        raise ValueError("bug in the learner")

    monkeypatch.setattr("robustchow.harness.learn_ltf", broken)
    with pytest.raises(ValueError, match="bug in the learner"):
        main(["learn-ltf", "--n", "4", "--m", "2000"])


def test_chow_gross_outliers_exit_3(tmp_path, capsys):
    # every point far outside the prune radius: the filter declines
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "far.csv"
    dist_config(cfg)
    pts = np.full((500, 3), 1e9)
    LabeledSampleSet(pts, np.ones(500)).to_csv(samples)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples)]) == 3
    assert "learner failure" in capsys.readouterr().err


def test_chow_cauchy_schwarz_violation_exits_3(tmp_path, capsys):
    # a well-formed sample whose filtered mean breaks the Cauchy-Schwarz
    # bound: 30% of the rows sit at x = 5 with label +1, under eps = 0.3
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "cluster.csv"
    dist_config(cfg, n=1)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((4000, 1))
    labels = np.sign(pts[:, 0])
    pts[:1200], labels[:1200] = 5.0, 1.0
    LabeledSampleSet(pts, labels).to_csv(samples)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples),
                 "--eps", "0.3"]) == 3
    assert capsys.readouterr().err.startswith(
        "learner failure: ChowBoundViolated: chi violates the Cauchy-Schwarz bound")


# --- learner subcommands ----------------------------------------------------------


def test_learn_ltf_small(tmp_path):
    out = tmp_path / "ltf.json"
    rc = main(["learn-ltf", "--n", "4", "--m", "40000", "--eps", "0.02",
               "--strategy", "random_flip", "--seed", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["v"]) == 4
    assert payload["disagreement_estimate"] <= 0.1


def test_learn_ptf_small(tmp_path):
    out = tmp_path / "ptf.json"
    rc = main(["learn-ptf", "--n", "3", "--d", "1", "--m", "20000",
               "--eps", "0.0", "--strategy", "none",
               "--plant-coeffs", "[0.0, 1.0, 0.0, 0.0]",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["disagreement_estimate"] <= 0.1


def test_learn_intersection_small(tmp_path):
    out = tmp_path / "int.json"
    rc = main(["learn-intersection", "--n", "4", "--k", "1", "--m", "20000",
               "--eps", "0.0", "--strategy", "none", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["halfspaces"]) == 1
    assert payload["disagreement_estimate"] <= 0.1


def test_learn_ltf_stdout(capsys):
    rc = main(["learn-ltf", "--n", "3", "--m", "20000", "--eps", "0.0",
               "--strategy", "none", "--seed", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "disagreement_estimate" in payload


@pytest.mark.parametrize("argv,config,keys", [
    (["learn-ltf", "--n", "4", "--m", "20000", "--eps", "0.05", "--strategy",
      "random_flip", "--theta-plant", "0.3", "--seed", "3"],
     dict(learner="ltf", n=4, eps_grid=[0.05], strategies=["random_flip"],
          m_train=20_000, plant={"theta": 0.3}),
     {"v", "theta"}),
    (["learn-ptf", "--n", "3", "--d", "1", "--m", "5000", "--eps", "0.02",
      "--strategy", "random_flip", "--plant-coeffs", "[0.0, 1.0, 0.0, 0.0]",
      "--seed", "3"],
     dict(learner="ptf", n=3, d=1, eps_grid=[0.02], strategies=["random_flip"],
          m_train=5000, plant={"coeffs": [0.0, 1.0, 0.0, 0.0]}),
     {"n", "d", "multilinear", "coeffs"}),
    (["learn-intersection", "--n", "4", "--k", "1", "--m", "20000", "--eps",
      "0.02", "--strategy", "chow_attack", "--seed", "3"],
     dict(learner="intersection", n=4, k=1, eps_grid=[0.02],
          strategies=["chow_attack"], m_train=20_000, plant={"thetas": [0.5]}),
     {"halfspaces", "subspace"}),
])
def test_learn_matches_one_cell_experiment(tmp_path, capsys, argv, config, keys):
    # learn-* is cell 0 of the one-cell experiment with the same fields
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == keys | {"disagreement_estimate"}
    rows = run_experiment(ExperimentConfig(trials=1, seed=3, **config),
                          out=str(tmp_path / "cell.csv"))
    assert payload["disagreement_estimate"] == rows[0].disagreement
    header, line = (tmp_path / "cell.csv").read_text().splitlines()
    column = header.split(",").index("disagreement")
    assert float(line.split(",")[column]) == payload["disagreement_estimate"]


@pytest.mark.parametrize("argv,message", [
    (["learn-ltf", "--strategy", "bogus"], "strategies"),
    (["learn-ptf", "--n", "3", "--d", "1", "--plant-coeffs", "[0.0, 1.0]"], "plant.coeffs"),
    (["learn-ptf", "--n", "3", "--d", "1"], "plant:"),
    (["learn-intersection", "--n", "5", "--k", "6"], "k:"),
    (["learn-intersection", "--n", "2", "--k", "3"], "k:"),
    (["learn-ltf", "--m", "10"], "m_train"),
    # bases above the size cap are refused before any learner runs
    (["learn-ptf", "--n", "60", "--d", "5", "--plant-coeffs", "[0.0, 1.0]"],
     "8259888 monomials"),
    (["learn-ptf", "--n", "60", "--d", "5"], "8259888 monomials"),
    (["learn-intersection", "--n", "700"], "degree-2 basis"),
    (["learn-ltf", "--seed", "-1"], "seed: must be >= 0"),
    (["learn-ptf", "--plant-coeffs", "[1,"], "plant.coeffs: Expecting value"),
])
def test_learn_malformed_input_exits_2(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err


# --- experiment subcommand --------------------------------------------------------


def test_experiment_runs_sweep(tmp_path):
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "results.csv"
    cfg.write_text(json.dumps({
        "learner": "chow", "n": 3, "eps_grid": [0.0, 0.1],
        "strategies": ["none", "random_flip"], "m_train": 2000,
        "trials": 2, "out": str(out)}))
    assert main(["experiment", "--config", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2
    assert lines[0].startswith("learner,strategy,eps")


def test_experiment_seed_override_changes_rows(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "learner": "chow", "n": 3, "eps_grid": [0.0],
        "strategies": ["none"], "m_train": 2000, "trials": 1,
        "out": str(tmp_path / "a.csv")}))
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "s0.csv")]) == 0
    assert main(["experiment", "--config", str(cfg), "--seed", "9",
                 "--out", str(tmp_path / "s9.csv")]) == 0
    assert (tmp_path / "s0.csv").read_text() != (tmp_path / "s9.csv").read_text()


def test_experiment_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"learner": "chow", "n": 3, "eps_grid": [0.0],
                               "strategies": ["none"], "m_train": 2000,
                               "mystery": 1}))
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_experiment_field_of_the_wrong_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"learner": "chow", "n": "3", "eps_grid": [0.0],
                               "strategies": ["none"], "m_train": 2000}))
    assert main(["experiment", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n: must be int") and "Traceback" not in err
