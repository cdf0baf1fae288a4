import json
import math

import numpy as np
import pytest

from robustchow.adversary import LabeledSampleSet
from robustchow.cli import main
from robustchow.distributions import gaussian_descriptor
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
    capsys.readouterr()


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
    assert "config error" in err and "finite" in err and "NaN" in err and "sample index 4" in err


def test_chow_gross_outliers_exit_3(tmp_path, capsys):
    # every point far outside the prune radius: the filter declines
    cfg = tmp_path / "dist.json"
    samples = tmp_path / "far.csv"
    dist_config(cfg)
    pts = np.full((500, 3), 1e9)
    LabeledSampleSet(pts, np.ones(500)).to_csv(samples)
    assert main(["chow", "--config", str(cfg), "--samples", str(samples)]) == 3
    assert "learner failure" in capsys.readouterr().err


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
