"""The reference errors, the recovered multiplier and the mesh volume against
values recorded from the per-element loops they replace (commit 75e6d2f), each
to 1e-13 of its largest value:

- `elliptic.energy_error_sq`, `driver.elastic_energy_error_sq`,
  `driver.plastic_error_sq`, `plasticity.recover_multiplier` and
  `Mesh.total_volume` on random fields, on a seeded `random_refined_mesh`
  (hanging nodes, degrees 1-3), on two non-affine quadrilaterals and on a
  refined cube (hanging faces, degrees 1-2); `plastic_error_sq` against the
  uniformly refined mesh with degrees raised by one, as in
  `refined_state_error`;
- `driver.refined_state_error` of a solved plastic square with one refined
  element and mixed degrees.

Running this file as a script (with the package on the path) writes the
recording of the checked-out code to tests/data/errors_parent.json.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import distorted_quad_mesh, random_refined_mesh
from hpfem.assembly import Material
from hpfem.driver import (elastic_energy_error_sq, plastic_error_sq,
                          refined_state_error, solve_plastic)
from hpfem.elliptic import energy_error_sq
from hpfem.plasticity import recover_multiplier
from hpfem.problems import cube_mesh, plastic_square
from hpfem.space import GaussPointSpace, ScalarSpace, deviatoric_dim

PARENT_ERRORS = os.path.join(os.path.dirname(__file__), "data",
                             "errors_parent.json")
RTOL = 1e-13
FIELD_CASES = ("square_random", "distorted", "cube_hanging")


def field_mesh(name):
    if name == "square_random":
        return random_refined_mesh(np.random.default_rng(7), n=2, max_degree=3,
                                   refinements=2, dirichlet=True)
    if name == "distorted":
        return distorted_quad_mesh().with_degrees({0: 2, 1: 3})
    if name == "cube_hanging":
        m = cube_mesh(2, degree=1)
        m.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
        m = m.refine_element(0)
        return m.with_degrees({e: 1 + i % 2 for i, e in enumerate(m.active_ids())})
    raise ValueError(name)


def random_state(mesh, material, rng):
    """A plastic-state stand-in on mesh with random (u, p, lam)."""
    space = ScalarSpace(mesh)
    qspace = GaussPointSpace(mesh, material.yield_stress)
    L = deviatoric_dim(mesh.dim)
    solution = SimpleNamespace(
        u=0.1 * rng.standard_normal(mesh.dim * space.ndof),
        p=0.1 * rng.standard_normal(L * qspace.ndof),
        lam=0.3 * rng.standard_normal(L * qspace.ndof))
    return SimpleNamespace(mesh=mesh, space=space, qspace=qspace,
                           material=material, solution=solution)


def scalar_grad(x):
    d = x.shape[1]
    return np.stack([np.cos(2.0 * x[:, k]) + x[:, (k + 1) % d]
                     for k in range(d)], axis=1)


def vector_grad(x):
    d = x.shape[1]
    return np.stack([np.stack([0.3 * np.sin(x[:, a] + k) + x[:, k]
                               for a in range(d)], axis=1)
                     for k in range(d)], axis=1)


def record(case):
    """Everything the fixture holds for one case, from the current code."""
    material = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.35)
    if case == "plastic_solve":
        mesh, material, loads = plastic_square(n=2)
        mesh = mesh.refine_element(0)
        mesh = mesh.with_degrees({e: 1 + i % 2
                                  for i, e in enumerate(mesh.active_ids())})
        err, _ = refined_state_error(solve_plastic(mesh, material, loads))
        return {"refined_state_error": err}
    mesh = field_mesh(case)
    rng = np.random.default_rng(FIELD_CASES.index(case))
    coarse = random_state(mesh, material, rng)
    fine_mesh = mesh.uniformly_refined()
    fine_mesh = fine_mesh.with_degrees(
        {e: int(fine_mesh.degree[e]) + 1 for e in fine_mesh.active_ids()})
    fine = random_state(fine_mesh, material, rng)
    u_scalar = rng.standard_normal(coarse.space.ndof)
    return {
        "total_volume": mesh.total_volume(),
        "energy_error_sq": energy_error_sq(coarse.space, u_scalar, scalar_grad),
        "elastic_energy_error_sq": elastic_energy_error_sq(coarse, None,
                                                           vector_grad),
        "plastic_error_sq": plastic_error_sq(coarse, fine),
        "recover_multiplier": recover_multiplier(
            coarse.space, coarse.qspace, material, coarse.solution.u,
            coarse.solution.p).tolist(),
    }


@pytest.mark.parametrize("case", FIELD_CASES + ("plastic_solve",))
def test_matches_recorded_errors(case):
    with open(PARENT_ERRORS) as fh:
        ref = json.load(fh)[case]
    got = record(case)
    assert got.keys() == ref.keys()
    for key, want in ref.items():
        want, have = np.asarray(want), np.asarray(got[key])
        assert have.shape == want.shape, key
        np.testing.assert_allclose(have, want, rtol=0,
                                   atol=RTOL * np.abs(want).max(), err_msg=key)


def test_square_case_has_hanging_nodes_and_mixed_degrees():
    mesh = field_mesh("square_random")
    space = ScalarSpace(mesh)
    assert space.hanging_vertices()
    assert len(set(mesh.degree[mesh.active_ids()].tolist())) > 1


if __name__ == "__main__":
    cases = FIELD_CASES + ("plastic_solve",)
    with open(PARENT_ERRORS, "w") as fh:
        json.dump({case: record(case) for case in cases}, fh, indent=1)
        fh.write("\n")
