"""Three-dimensional smoke coverage: the solver stack and the error indicator
run on hexahedral meshes (the reliability theory backing the indicator is
two-dimensional; in 3D the numbers are computed but unverified)."""

import numpy as np

from conftest import facet_jump
from hpfem.assembly import Loads, Material, assemble_system
from hpfem.estimator import compute_indicators
from hpfem.plasticity import (NewtonConfig, check_complementarity, default_rho,
                              solve_semismooth_newton)
from hpfem.problems import cube_mesh
from hpfem.space import GaussPointSpace, ScalarSpace


def test_3d_plastic_solve_and_indicators():
    mesh = cube_mesh(n=2, degree=1)
    mesh.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    mat = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.3)

    def traction(x):
        out = np.zeros_like(x)
        on = np.abs(x[:, 0] - 1.0) < 1e-9
        out[on, 0] = 0.5
        out[on, 2] = 0.1
        return out

    loads = Loads(traction=traction)
    space = ScalarSpace(mesh)
    qs = GaussPointSpace(mesh, mat.yield_stress)
    system = assemble_system(space, qs, mat, loads)
    assert system.L == 5
    sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=default_rho(mat)))
    assert sol.converged and sol.iterations <= 15
    rep = check_complementarity(qs, sol.p, sol.lam)
    assert rep.max_violation < 1e-9
    assert rep.n_plastic > 0
    ind = compute_indicators(space, qs, mat, loads, sol.u, sol.p, sol.lam)
    assert np.isfinite(ind.total).all()
    assert ind.total.min() >= -1e-12
    assert ind.global_estimate > 0


def test_3d_rotated_face_continuity(rng):
    # the second cube's corner ordering permutes the axes, so the shared face
    # carries different local frames on its two sides
    from hpfem.mesh import Mesh
    v3 = [[x, y, z] for x in (0, 1, 2) for y in (0, 1) for z in (0, 1)]

    def vid(x, y, z):
        return x * 4 + y * 2 + z

    c0 = [vid(0, 0, 0), vid(0, 0, 1), vid(0, 1, 0), vid(0, 1, 1),
          vid(1, 0, 0), vid(1, 0, 1), vid(1, 1, 0), vid(1, 1, 1)]
    c1 = [vid(1, 0, 0), vid(1, 1, 0), vid(2, 0, 0), vid(2, 1, 0),
          vid(1, 0, 1), vid(1, 1, 1), vid(2, 0, 1), vid(2, 1, 1)]
    m = Mesh.from_arrays(v3, [c0, c1], dim=3, degrees=3, default_tag="neumann")
    for refine in (False, True):
        mm = m.refine_element(1) if refine else m
        spc = ScalarSpace(mm)
        u = rng.standard_normal(spc.ndof)
        worst = 0.0
        for eid in mm.active_ids():
            rows, _ = mm.facet_neighbors(eid)
            for r in range(rows.start, rows.stop):
                xi = rng.uniform(-1, 1, (8, 2))
                worst = max(worst, facet_jump(spc, u, [r], xi))
        assert worst < 1e-11


def test_3d_hanging_solve():
    mesh = cube_mesh(n=1, degree=2)
    verts = [v.tolist() for v in mesh.vertices]
    # 2x1x1 mesh: two cubes sharing a face, refine one
    from hpfem.mesh import Mesh
    v3 = [[x, y, z] for x in (0, 1, 2) for y in (0, 1) for z in (0, 1)]

    def vid(x, y, z):
        return x * 4 + y * 2 + z

    c0 = [vid(0, 0, 0), vid(0, 0, 1), vid(0, 1, 0), vid(0, 1, 1),
          vid(1, 0, 0), vid(1, 0, 1), vid(1, 1, 0), vid(1, 1, 1)]
    c1 = [vid(1, 0, 0), vid(1, 0, 1), vid(1, 1, 0), vid(1, 1, 1),
          vid(2, 0, 0), vid(2, 0, 1), vid(2, 1, 0), vid(2, 1, 1)]
    m = Mesh.from_arrays(v3, [c0, c1], dim=3, degrees=2)
    m.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    m = m.refine_element(1)
    mat = Material(lam=2.0, mu=1.0, hardening=0.5, yield_stress=1e6)
    loads = Loads(traction=lambda x: np.where(
        np.abs(x[:, [0]] - 2.0) < 1e-9, 1.0, 0.0) * np.array([[0.2, 0.0, 0.05]]))
    space = ScalarSpace(m)
    qs = GaussPointSpace(m, mat.yield_stress)
    system = assemble_system(space, qs, mat, loads)
    sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=1.0))
    assert sol.converged and sol.iterations <= 3  # elastic regime
