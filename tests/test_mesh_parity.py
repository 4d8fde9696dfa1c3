"""The mesh hierarchy against snapshots recorded from the per-element build
it replaced (commit 041ceb5): per snapshot, the `write_text` bytes and each
element's root, level, parent, children and reference-box bytes, exactly.

The snapshots are the first steps of the L-shape predictor loop and of the
plastic estimator loop on the square, two steps of the estimator loop on the
hexahedral cube, and random refinement sequences in d = 1, 2 and 3 with
off-centre dividing points, each stopped before its first mesh with a
non-nested facet overlap.

Running this file as a script (with the package on the path) writes the
recording of the checked-out code to tests/data/mesh_parent.json.gz
(compact JSON, gzip-compressed).
"""

import gzip
import io
import json
import os
import tempfile

import numpy as np
import pytest

from hpfem.assembly import Loads, Material
from hpfem.config import RunConfig
from hpfem.driver import run_elliptic_predictor, run_plastic_estimator
from hpfem.problems import (cube_mesh, interval_mesh, l_shape_mesh,
                            plastic_square, poisson_lshape)

PARENT_MESH = os.path.join(os.path.dirname(__file__), "data",
                           "mesh_parent.json.gz")
CASES = ("lshape-predictor", "plastic-estimator-2d", "hex-estimator-3d",
         "random-1d", "random-2d", "random-3d")
SEEDS = {1: 8, 2: 7, 3: 10}  # random sequences that refine several times


def _loop_meshes(name):
    cfg = RunConfig()
    if name == "lshape-predictor":
        mesh, problem = poisson_lshape(degree=1)
        cfg.run.theta = 0.7
        cfg.run.max_iterations = 9
        _, states = run_elliptic_predictor(cfg, mesh, problem)
    elif name == "plastic-estimator-2d":
        mesh, material, loads = plastic_square(n=4, degree=2)
        cfg.run.theta = 0.3
        cfg.run.max_iterations = 3
        _, states = run_plastic_estimator(cfg, mesh, material, loads)
    else:
        mesh = cube_mesh(n=2, degree=2)
        mesh.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")

        def traction(x):
            out = np.zeros_like(x)
            out[np.abs(x[:, 0] - 1.0) < 1e-9] = (0.5, 0.0, 0.1)
            return out

        cfg.run.theta = 0.3
        cfg.run.max_iterations = 2
        _, states = run_plastic_estimator(
            cfg, mesh, Material(lam=10.0, mu=5.0, hardening=1.0,
                                yield_stress=0.3), Loads(traction=traction))
    return [state.mesh for state, _ in states]


def _random_meshes(d, steps=10):
    """A refinement sequence of random element subsets at random off-centre
    dividing points, with random degrees, up to the first non-nested mesh."""
    rng = np.random.default_rng(SEEDS[d])
    mesh = {1: interval_mesh(3), 2: l_shape_mesh(), 3: cube_mesh(2)}[d]
    mesh.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    out = [mesh]
    for _ in range(steps):
        act = mesh.active_ids()
        pick = rng.choice(act, size=min(len(act), int(rng.integers(1, 4))),
                          replace=False)
        z = rng.uniform(-0.6, 0.6, d)  # one dividing point for the whole pick
        nxt = mesh.refine_many([int(e) for e in pick], [z] * len(pick))
        try:
            nxt.facet_table()
        except ValueError:
            break
        mesh = nxt.with_degrees({e: int(rng.integers(1, 4))
                                 for e in nxt.active_ids()})
        out.append(mesh)
    return out


def meshes(case):
    if case.startswith("random-"):
        return _random_meshes(int(case[-2]))
    return _loop_meshes(case)


def record(mesh):
    """What the fixture holds for one snapshot."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        mesh.write_text(path)
        with open(path) as fh:
            text = fh.read()
    return {
        "text": text,
        "root": mesh.root.tolist(),
        "level": mesh.level.tolist(),
        "parent": [None if p < 0 else p for p in mesh.parent.tolist()],
        "children": [None if c < 0 else list(range(c, c + 2**mesh.dim))
                     for c in mesh.first_child.tolist()],
        "box": [box.astype(float).tobytes().hex() for box in mesh.boxes],
    }


@pytest.mark.parametrize("case", CASES)
def test_matches_recorded_hierarchy(case):
    with gzip.open(PARENT_MESH, "rt") as fh:
        ref = json.load(fh)[case]
    got = [record(m) for m in meshes(case)]
    assert len(got) == len(ref)
    for i, (have, want) in enumerate(zip(got, ref)):
        for key in want:
            assert have[key] == want[key], f"snapshot {i}: {key}"


if __name__ == "__main__":
    with gzip.GzipFile(PARENT_MESH, "wb", mtime=0) as raw, \
            io.TextIOWrapper(raw) as fh:
        json.dump({case: [record(m) for m in meshes(case)] for case in CASES},
                  fh, separators=(",", ":"))
