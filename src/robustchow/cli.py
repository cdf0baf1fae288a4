"""Command line front end.

    robust-chow chow               --config cfg.json --samples data.csv --out chow.json
    robust-chow learn-ltf          --eps 0.05 --m 100000 [--strategy chow_attack] ...
    robust-chow learn-ptf          --d 2 --eps 0.05 --m 100000 [--xi 0.1] ...
    robust-chow learn-intersection --k 2 --eps 0.02 --m 200000 ...
    robust-chow experiment         --config sweep.json [--out results.csv] [--seed 7]

learn-ltf, learn-ptf and learn-intersection run cell 0 of a one-cell
`experiment` (trials=1, eps_grid=[--eps], strategies=[--strategy]) and print
the hypothesis JSON plus its `disagreement_estimate`. The cell draws its
streams from SeedSequence(--seed, spawn_key=(0,)), like cell 0 of a sweep, and
learn-ltf runs with the harness's LTFConfig(batch_cap=--m, holdout_size=20000).
learn-intersection searches a subspace of dim <= --k, so its cover is 1-D or 2-D.

Exit codes: 0 success, 2 config error (ConfigError, a missing file, malformed
JSON), 3 learner failure (any RobustChowError, including a sample that breaks
the Chow vector's Cauchy-Schwarz bound); any other exception keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .adversary import LabeledSampleSet
from .chowfilter import FilterParams, robust_chow, sample_floor
from .distributions import config_number, from_config
from .errors import ConfigError, RobustChowError
from .harness import ExperimentConfig, run_cell, run_experiment
from .intersection_learner import K_CAP

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LEARNER = 3


def _load_json(path: str) -> dict:
    """The config file's JSON object; a file that cannot be read (missing, a
    directory), is not UTF-8 or is not JSON is a ConfigError."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    if type(cfg) is not dict:
        raise ConfigError(f"config: must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _write_json(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _cmd_chow(args) -> int:
    """Every input robust_chow would reject is a ConfigError here: the eps
    range, the sample file (non-finite points included), its dimension and
    its row count."""
    cfg = _load_json(args.config)
    eps = float(config_number(cfg.get("eps", 0.0) if args.eps is None else args.eps, "eps"))
    try:
        params = FilterParams(eps=eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dist = from_config(cfg, eps)
    samples_path = args.samples or cfg.get("samples")
    if type(samples_path) is not str:
        raise ConfigError(f"samples: need --samples or a 'samples' path, got {samples_path!r}")
    try:
        s = LabeledSampleSet.from_csv(samples_path)
    except ValueError as exc:
        raise ConfigError(f"samples: {exc}") from exc
    if s.n != dist.basis.n:
        raise ConfigError(f"chow: sample dimension {s.n} != config n {dist.basis.n}")
    if len(s) < sample_floor(dist.ell):
        raise ConfigError(f"samples: {len(s)} rows, but the filter needs at least "
                          f"{sample_floor(dist.ell)} for {dist.ell} monomials")
    est = robust_chow(s, dist, params)
    _write_json(est.to_json(), args.out)
    return EXIT_OK


def _cmd_learn(args) -> int:
    """Cell 0 of a one-cell `experiment` built from the learn-* flags."""
    if args.learner == "ltf":
        plant = {"theta": args.theta_plant}
    elif args.learner == "intersection":
        plant = {"thetas": [args.theta_plant] * args.k}
    else:
        try:
            plant = {} if args.plant_coeffs is None else {"coeffs": json.loads(args.plant_coeffs)}
        except json.JSONDecodeError as exc:
            raise ConfigError(f"plant.coeffs: {exc}") from exc
    extra = {f: getattr(args, f) for f in ("d", "k", "xi") if hasattr(args, f)}
    cfg = ExperimentConfig(learner=args.learner, n=args.n, eps_grid=[args.eps],
                           strategies=[args.strategy], m_train=args.m, trials=1,
                           seed=args.seed, plant=plant, **extra)
    cfg.validate()
    row, hyp = run_cell(cfg, args.strategy, args.eps, 0, 0)
    payload = hyp.to_json()
    payload["disagreement_estimate"] = row.disagreement
    _write_json(payload, args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(_load_json(args.config))
    if args.seed is not None:
        cfg.seed = args.seed
    run_experiment(cfg, out=args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robust-chow",
                                     description="Robust Chow-parameter estimation and learners")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chow", help="robust Chow estimate from a sample CSV")
    p.add_argument("--config", required=True, help="JSON with distribution descriptor")
    p.add_argument("--samples", help="CSV of labeled samples (overrides config)")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_chow)

    def learn_parser(learner, help_text, n, m, eps):
        p = sub.add_parser(f"learn-{learner}", help=help_text)
        p.add_argument("--n", type=int, default=n)
        p.add_argument("--m", type=int, default=m)
        p.add_argument("--eps", type=float, default=eps)
        p.add_argument("--strategy", default="chow_attack")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_learn, learner=learner)
        return p

    p = learn_parser("ltf", "learn a halfspace from a corrupted synthetic plant",
                     20, 100_000, 0.05)
    p.add_argument("--theta-plant", type=float, default=0.5, dest="theta_plant")

    p = learn_parser("ptf", "learn a polynomial threshold function", 8, 100_000, 0.05)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--plant-coeffs", default=None, dest="plant_coeffs",
                   help="JSON list of basis coefficients for the planted sign polynomial")

    p = learn_parser("intersection", "learn an intersection of halfspaces", 8, 200_000, 0.02)
    p.add_argument("--k", type=int, default=2,
                   help=f"halfspaces, 1 to {K_CAP}; the learner searches a subspace of "
                        "dim <= k")
    p.add_argument("--theta-plant", type=float, default=0.5, dest="theta_plant")

    p = sub.add_parser("experiment", help="run a (strategy, eps, trial) sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for bad flags
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RobustChowError as exc:
        print(f"learner failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LEARNER


if __name__ == "__main__":
    sys.exit(main())
