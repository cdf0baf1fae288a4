"""Seeded runs reach the same discrete outcomes whatever the number of BLAS
threads, and their floats agree within a stated tolerance.

The filter's Gram sums are per-tile syrks, and OpenBLAS splits a syrk among
its threads, so the sums round differently with the thread count. The
scores, the PTF oracle's labels and polynomial values are per-row einsum
loops, which do not depend on it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
# Relative and absolute tolerance for every float a cell reports: Chow
# vectors, hypothesis coefficients, holdout and scoring errors. Between 1
# and 2 threads the chow cell's chi moved by 3.5e-14 and nothing else moved
# (2-vCPU Xeon, OpenBLAS 0.3.31).
FLOAT_TOL = 1e-10

# One seeded harness cell per learner under chow_attack, recording every
# filter run (survivors, counts, chi) and every holdout choice; prints one
# JSON object.
CELLS = r"""
import json
import numpy as np
from robustchow import chowfilter, ltf_learner, ptf_learner
from robustchow.harness import ExperimentConfig, run_cell

filters, choices = [], []


def record(module):
    real = module._filter

    def spy(*args):
        est = real(*args)
        prov = est.provenance
        filters.append({
            "removed": np.flatnonzero(~est.keep_mask).tolist(),
            "counts": [prov[key] for key in ("pruned", "filtered", "iterations",
                                             "degraded", "cap_reached")],
            "chi": est.chi.tolist()})
        return est
    module._filter = spy


record(chowfilter)
record(ptf_learner)
real_select = ltf_learner.select


def select(candidates, holdout):
    winner, err = real_select(candidates, holdout)
    choices.append([[i for i, c in enumerate(candidates) if c is winner][0], err])
    return winner, err


ltf_learner.select = select
out = {}
for learner, shape in (("chow", dict(n=8, d=3)), ("ltf", dict(n=10)),
                       ("ptf", dict(n=4, d=2)), ("intersection", dict(n=6, d=2, k=2))):
    filters.clear()
    choices.clear()
    cfg = ExperimentConfig(learner=learner, eps_grid=[0.05], strategies=["chow_attack"],
                           m_train=20_000, m_holdout=5_000, m_score=10_000, seed=7,
                           **shape)
    cfg.validate()
    row, hyp = run_cell(cfg, "chow_attack", 0.05, 0, 0)
    if learner == "chow":
        floats = hyp.chi.tolist()
    elif learner == "ltf":
        floats = hyp.v.tolist() + [hyp.theta]
    elif learner == "ptf":
        floats = hyp.poly.coeffs.tolist()
    else:
        floats = [x for h in hyp.halfspaces for x in h.v.tolist() + [h.theta]]
        floats.append(hyp.provenance["holdout_error"])
    out[learner] = {
        "filters": list(filters), "choices": list(choices),
        "winner": hyp.provenance.get("winner_index") if learner == "intersection" else None,
        "row": [row.iterations, row.points_removed, row.flags],
        "floats": floats + [row.disagreement, row.chow_error or 0.0]}
print(json.dumps(out))
"""


def run_cells(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", CELLS], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_discrete_outcomes_do_not_depend_on_blas_threads():
    one, two = run_cells(1), run_cells(2)
    assert one.keys() == two.keys() == {"chow", "ltf", "ptf", "intersection"}
    for learner in one:
        a, b = one[learner], two[learner]
        # survivor masks and counts of every filter run, the target's and
        # each PTF oracle call's; the chosen LTF candidate; the cover winner
        assert len(a["filters"]) == len(b["filters"]) > 0, learner
        for fa, fb in zip(a["filters"], b["filters"]):
            assert fa["removed"] == fb["removed"] and fa["counts"] == fb["counts"], learner
            np.testing.assert_allclose(fa["chi"], fb["chi"], rtol=FLOAT_TOL, atol=FLOAT_TOL)
        assert [c[0] for c in a["choices"]] == [c[0] for c in b["choices"]], learner
        assert a["winner"] == b["winner"] and a["row"] == b["row"], learner
        np.testing.assert_allclose([c[1] for c in a["choices"]], [c[1] for c in b["choices"]],
                                   rtol=FLOAT_TOL, atol=FLOAT_TOL)
        np.testing.assert_allclose(a["floats"], b["floats"], rtol=FLOAT_TOL, atol=FLOAT_TOL)
    assert one["ltf"]["choices"] and one["intersection"]["winner"] is not None
    assert any(f["counts"][1] > 0 for f in one["chow"]["filters"])
