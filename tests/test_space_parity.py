"""The dof map, the local-to-global operator P and the Gauss-point blocks
against values recorded from the per-element, per-shape build they replace
(commit 5524ad3): `dofs` equal, the entries of P to 1e-14 absolute, and the
Gauss-point weights, mass and dual blocks to 1e-13 of their largest entry.

The cases are every conftest.ASSEMBLY_CASES case, a 3-element interval with
Dirichlet ends and degrees 1-3, a cube mesh refined twice with degrees
1-3 and a Dirichlet face, where hanging vertices are constrained to a vertex
that is itself hanging, so constraint rows resolve through other constraint
rows, and random meshes: four squares refined four times at random
(conftest.random_refined_mesh with a Dirichlet side, degrees 1-4) and three
2 x 2 x 2 cubes with a Dirichlet face refined three times at random, degrees
1-3, whose fine elements two levels down give multi-level hanging edges.
The random entries were recorded from commit 4890a78, the parent of the
one-pass-per-dimension dof map.

Running this file as a script (with the package on the path) writes the
recording of the checked-out code to tests/data/space_parent.json.gz
(compact JSON, gzip-compressed).
"""

import gzip
import io
import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (ASSEMBLY_CASES, assembly_case, gauss_mass,
                      random_refined_mesh)
from hpfem.mesh import RELATIONS, facet_corner_rows
from hpfem.problems import cube_mesh, interval_mesh
from hpfem.space import GaussPointSpace, ScalarSpace

PARENT_SPACE = os.path.join(os.path.dirname(__file__), "data",
                            "space_parent.json.gz")
P_ATOL = 1e-14
GAUSS_RTOL = 1e-13
RANDOM_CASES = tuple(f"square_random{s}" for s in range(4)) + tuple(
    f"cube_random{s}" for s in (0, 1, 4))
SPACE_CASES = ASSEMBLY_CASES + ("interval3", "cube_nested") + RANDOM_CASES


def space_case(name):
    """(space, qspace) of one parity case."""
    if name in ASSEMBLY_CASES:
        space, qspace, *_ = assembly_case(name)
        return space, qspace
    if name == "interval3":
        m = interval_mesh(3).with_degrees({0: 1, 1: 2, 2: 3})
    elif name == "cube_nested":
        m = cube_mesh(2)
        m.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
        m = m.refine_element(0).refine_element(11)
        m = m.with_degrees({e: 1 + i % 3 for i, e in enumerate(m.active_ids())})
    elif name.startswith("square_random"):
        rng = np.random.default_rng(int(name.removeprefix("square_random")))
        m = random_refined_mesh(rng, refinements=4, dirichlet=True)
    elif name.startswith("cube_random"):
        rng = np.random.default_rng(int(name.removeprefix("cube_random")))
        m = cube_mesh(2)
        m.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
        for _ in range(3):
            act = m.active_ids()
            m = m.refine_element(act[int(rng.integers(len(act)))])
        m = m.with_degrees({e: int(rng.integers(1, 4)) for e in m.active_ids()})
    else:
        raise ValueError(name)
    return ScalarSpace(m), GaussPointSpace(m, 1.0)


def record(case):
    """Everything the fixture holds for one case, from the current code."""
    space, qspace = space_case(case)
    P = sp.csr_matrix(space.P[::-1], shape=(len(space.P[0]) - 1, space.ndof))
    P.sort_indices()
    act = space.mesh.active_ids()
    eye, at = np.eye(qspace.ndof), qspace.offsets
    return {
        "dofs": json.loads(json.dumps(space.dofs)),
        "P": {"shape": list(P.shape), "indptr": P.indptr.tolist(),
              "indices": P.indices.tolist(), "data": P.data.tolist()},
        "weights": qspace.weights.tolist(),
        "mass": [gauss_mass(qspace, e).ravel().tolist() for e in act],
        "dual": [qspace.element_rows([i], eye[:, at[i]:at[i + 1]], dual=True)[0]
                 .T.ravel().tolist() for i in range(len(act))],
    }


def _dense(entries):
    out = np.zeros(entries["shape"])
    indptr = np.asarray(entries["indptr"])
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    np.add.at(out, (rows, np.asarray(entries["indices"], dtype=np.intp)),
              entries["data"])
    return out


def _close(have, want, rtol, key):
    have, want = np.asarray(have), np.asarray(want)
    assert have.shape == want.shape, key
    scale = max(np.abs(want).max(initial=0.0), 1e-300)
    np.testing.assert_allclose(have, want, rtol=0, atol=rtol * scale,
                               err_msg=key)


@pytest.mark.parametrize("case", SPACE_CASES)
def test_matches_recorded_space(case):
    with gzip.open(PARENT_SPACE, "rt") as fh:
        ref = json.load(fh)[case]
    got = record(case)
    assert got["dofs"] == ref["dofs"]
    assert got["P"]["shape"] == ref["P"]["shape"]
    np.testing.assert_allclose(_dense(got["P"]), _dense(ref["P"]), rtol=0,
                               atol=P_ATOL)
    _close(got["weights"], ref["weights"], GAUSS_RTOL, "weights")
    for key in ("mass", "dual"):
        assert len(got[key]) == len(ref[key]), key
        for i, (have, want) in enumerate(zip(got[key], ref[key])):
            _close(have, want, GAUSS_RTOL, f"{key}[{i}]")


def test_cube_case_nests_constraints():
    """The cube case holds a hanging vertex on a coarse facet with a hanging
    corner, so that a constraint row resolves through another."""
    space, _ = space_case("cube_nested")
    mesh, hanging = space.mesh, set(space.hanging_vertices())
    tab = mesh.facet_table()
    coarse = tab.relation == RELATIONS.index("coarse_nb")
    nested = [v for v in mesh.corners[tab.act[tab.nb[coarse]][:, None],
                                      facet_corner_rows(mesh.dim)[tab.nb_facet[coarse]]]
              .ravel().tolist() if v in hanging]
    assert nested, "cube_nested has no constraint resolving through another"


if __name__ == "__main__":
    test_cube_case_nests_constraints()
    with gzip.GzipFile(PARENT_SPACE, "wb", mtime=0) as raw, \
            io.TextIOWrapper(raw) as fh:
        json.dump({case: record(case) for case in SPACE_CASES}, fh,
                  separators=(",", ":"))
