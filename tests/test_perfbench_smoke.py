"""The pinned benchmark still runs against the program.

perfbench binds learner entry points, config fields and traced function
names by name, so a signature change in src/ can break it without failing
any unit test. One traced round of each workload catches that: --trace 1
wraps every layer listed in perfbench/layers.py. One untraced round
(--trace 0), the path whose end-to-end metrics the benchmark compares,
must report every one of them as a finite number.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["chow-d3", "ptf-d2", "ltf-localize", "intersection-k2"]
END_TO_END = ("learn_s", "setup_s", "peak_rss_mb", "samples_drawn", "chow_error",
              "disagreement")


def run_round(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_traced_round(workload):
    run_round(workload, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_untraced_round(workload):
    metrics = run_round(workload, 0)["metrics"]
    assert set(metrics) == set(END_TO_END)
    for name in END_TO_END:
        assert math.isfinite(metrics[name]["value"]), (name, metrics[name])
