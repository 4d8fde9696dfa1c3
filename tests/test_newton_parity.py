"""The semi-smooth Newton solve and the condensed Newton matrix against
recorded values. The solve cases were recorded from the code that computes
one minimum-degree ordering per mixed system and factorizes every later
condensed matrix in that order; that changed only SuperLU's arithmetic
order, and tests/equivalence.py showed the runs equivalent to those of
commit b4b049c (same iterations, step lengths and active sets, energies
within 1e-12 relative), which had computed the ordering at every
factorization. The four cases without an `initial` start (criterion 3's
three and the cube) were then re-recorded from the code that starts such a
solve from zero instead of from the elastic solution: their first trace
row is |F| at zero by design, and tests/equivalence.py against commit
32e029a showed every run equivalent, with the same iterations, step lengths
and active sets, energies within 1.6e-14 relative, and |F| and the merit
within 1.2e-10 and 1.7e-10 relative on the later rows with |F| above 1e-8.
The other cases kept their recording. The matrix cases are unchanged since
commit e6b84f1. The cases:

- criterion 3's case (`plastic_square(n=2, degree=3)` refined twice) at
  rho = 1, 10 and 100 (rho = 100 takes damped steps), `plastic_square(n=4,
  degree=2)` started from a state with active dofs, the refined
  `cube_mesh(2)` (hanging faces), and one rho-shift retry: iteration
  numbers, step lengths and active-set sizes equal on every trace row,
  |F| and the merit to 1e-12 relative, and the final u, p and lam to 1e-12
  of max(|value|, 1);
- `ElementBlocks.condensed_matrix` for a seeded X on a 2D system with
  hanging nodes and on a 3D system with hanging faces: indptr, indices and
  data bit-identical.

Running this file as a script (with the package on the path) writes the
recording of the checked-out code to tests/data/newton_parent.json.
"""

import json
import os

import numpy as np
import pytest

import hpfem.plasticity as plasticity
from hpfem.assembly import Loads, Material, assemble_system
from hpfem.plasticity import (ElementBlocks, NewtonConfig, default_rho,
                              elastic_solve, solve_semismooth_newton)
from hpfem.problems import cube_mesh, plastic_square
from hpfem.space import GaussPointSpace, ScalarSpace

PARENT_NEWTON = os.path.join(os.path.dirname(__file__), "data",
                             "newton_parent.json")
RTOL = 1e-12
SOLVE_CASES = ("criterion3_rho1", "criterion3_rho10", "criterion3_rho100",
               "square_initial", "cube_hanging", "retry")
MATRIX_CASES = ("matrix_square_hanging", "matrix_cube_hanging")


class FailingLinalg:
    """A stand-in for `plasticity.spla` whose splu raises for its first call
    and then runs the package's own, `splu`."""

    def __init__(self, splu):
        self.failures = 1
        self._splu = splu

    def splu(self, A, *args, **kwargs):
        if self.failures:
            self.failures -= 1
            raise RuntimeError("Factor is exactly singular")
        return self._splu(A, *args, **kwargs)


def cube_system(degree):
    mesh = cube_mesh(n=2, degree=degree).refine_element(0)
    mesh = mesh.tag_boundary(
        lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    mat = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.3)

    def traction(x):
        out = np.zeros_like(x)
        on = np.abs(x[:, 0] - 1.0) < 1e-9
        out[on, 0] = 0.5
        out[on, 2] = 0.1
        return out

    qs = GaussPointSpace(mesh, mat.yield_stress)
    return assemble_system(ScalarSpace(mesh), qs, mat,
                           Loads(traction=traction)), qs, mat


def square_system(mesh_of):
    """The plastic square whose mesh is `mesh_of(mesh)` of the 2 x 2 one."""
    mesh, mat, loads = plastic_square(n=2, degree=3)
    mesh = mesh_of(mesh)
    qs = GaussPointSpace(mesh, mat.yield_stress)
    return assemble_system(ScalarSpace(mesh), qs, mat, loads), qs, mat


def active_start(system, qs):
    """The elastic displacement with seeded p and lam, many of whose dofs
    start on the active branch."""
    rng = np.random.default_rng(5)
    n_q = system.C.shape[0]
    return (elastic_solve(system), 0.01 * rng.standard_normal(n_q),
            qs.yield_stress * rng.standard_normal(n_q))


def solve(case):
    """The Newton solution of one solve case, from the current code."""
    if case.startswith("criterion3_rho"):
        system, qs, _ = square_system(
            lambda m: m.uniformly_refined().uniformly_refined())
        return solve_semismooth_newton(
            system, qs, NewtonConfig(rho=float(case[len("criterion3_rho"):])))
    if case == "cube_hanging":
        system, qs, mat = cube_system(degree=2)
        return solve_semismooth_newton(system, qs,
                                       NewtonConfig(rho=default_rho(mat)))
    mesh, mat, loads = plastic_square(n=4, degree=2)
    qs = GaussPointSpace(mesh, mat.yield_stress)
    system = assemble_system(ScalarSpace(mesh), qs, mat, loads)
    config = NewtonConfig(rho=default_rho(mat))
    if case == "square_initial":
        return solve_semismooth_newton(system, qs, config,
                                       initial=active_start(system, qs))
    # retry: the first step's factorization fails, so rho is shifted once
    zeros = np.zeros(system.C.shape[0])
    initial = (elastic_solve(system), zeros, zeros)
    saved = plasticity.spla
    plasticity.spla = FailingLinalg(saved.splu)
    try:
        return solve_semismooth_newton(system, qs, config, initial=initial)
    finally:
        plasticity.spla = saved


def condensed(case):
    """`condensed_matrix` of one matrix case at a seeded X."""
    if case == "matrix_square_hanging":
        system, _, _ = square_system(
            lambda m: m.refine_element(0).with_degrees({4: 2, 7: 1}))
    else:
        system, _, _ = cube_system(degree=1)
    blocks = ElementBlocks(system)
    rng = np.random.default_rng(13)
    A = blocks.condensed_matrix([rng.standard_normal(grp.C.shape)
                                 for grp in blocks.groups])
    return A


def record(case):
    """Everything the fixture holds for one case, from the current code."""
    if case in MATRIX_CASES:
        A = condensed(case)
        return {"indptr": A.indptr.tolist(), "indices": A.indices.tolist(),
                "data": A.data.tolist()}
    sol = solve(case)
    return {"converged": sol.converged, "retries": sol.retries,
            "trace": [list(row) for row in sol.trace],
            "u": sol.u.tolist(), "p": sol.p.tolist(), "lam": sol.lam.tolist()}


@pytest.fixture(scope="module")
def parent():
    with open(PARENT_NEWTON) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", SOLVE_CASES)
def test_solve_matches_recorded(parent, case):
    ref = parent[case]
    sol = solve(case)
    assert (sol.converged, sol.retries) == (ref["converged"], ref["retries"])
    assert len(sol.trace) == len(ref["trace"])
    for got, want in zip(sol.trace, ref["trace"]):
        it, nF, merit, t, active = got
        assert (it, t, active) == (want[0], want[3], want[4])
        assert abs(nF - want[1]) <= RTOL * abs(want[1])
        assert abs(merit - want[2]) <= RTOL * abs(want[2])
    for key in ("u", "p", "lam"):
        want = np.asarray(ref[key])
        have = getattr(sol, key)
        assert have.shape == want.shape, key
        assert np.all(np.abs(have - want) <= RTOL * np.maximum(np.abs(want), 1.0)), key


@pytest.mark.parametrize("case", MATRIX_CASES)
def test_condensed_matrix_bit_identical(parent, case):
    ref = parent[case]
    A = condensed(case)
    for key in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(A, key), np.asarray(ref[key]),
                                      err_msg=key)


def test_cases_cover_damping_retries_and_active_starts(parent):
    assert sum(row[3] < 1.0 for row in parent["criterion3_rho100"]["trace"]) == 3
    assert parent["retry"]["retries"] == 1
    assert parent["square_initial"]["trace"][0][4] > 0


if __name__ == "__main__":
    with open(PARENT_NEWTON, "w") as fh:
        json.dump({case: record(case) for case in SOLVE_CASES + MATRIX_CASES},
                  fh)
        fh.write("\n")
