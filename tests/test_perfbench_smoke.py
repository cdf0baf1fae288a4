"""The pinned benchmark still runs against the program.

perfbench binds learner entry points, config fields and traced function
names by name, so a signature change in src/ can break it without failing
any unit test. One traced round of each workload catches that: --trace 1
wraps every layer listed in perfbench/layers.py.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["chow-d3", "ptf-d2", "ltf-localize", "intersection-k2"])
def test_perfbench_traced_round(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
