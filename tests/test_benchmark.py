"""The benchmark's traced mode patches hpfem attributes by name (see
perfbench/tracing.py); one traced repetition fails if any of them is gone.
Seed 0 also runs the workload's reference checks: exact dof and Newton
trajectories and the final energy to 1e-10 relative. The estimator workloads
cover the cached tables through the estimator, Gauss-point space and
assembly, the 3D one runs the batched estimator with d = 3 on a mesh
with hanging faces, and the large single solve runs the Newton
factorizations at the largest size the benchmark has."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["lshape-predictor", "plastic-estimator-2d",
                                      "plastic-solve-large", "hex-estimator-3d"])
def test_traced_repetition_runs(workload):
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
         "--workload", workload, "--seed", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0, out["failures"]
    assert out["layers"]
