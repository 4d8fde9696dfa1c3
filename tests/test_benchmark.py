"""The benchmark's traced mode patches hpfem attributes by name (see
perfbench/tracing.py); one traced repetition fails if any of them is gone."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_repetition_runs():
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
         "--workload", "lshape-predictor", "--seed", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0, out["failures"]
    assert out["layers"]
