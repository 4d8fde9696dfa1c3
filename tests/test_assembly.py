import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (assemble_norm_matrices, distorted_quad_mesh,
                      element_quadrature, gauss_eval_primal, map_dets,
                      plastic_field_at, random_refined_mesh, square_mesh,
                      strain_at)
from hpfem.assembly import (Loads, Material, QuadratureAccuracyWarning,
                            assemble_system, bilinear_value,
                            export_matrix_market, plastic_functional, strain,
                            total_energy)
from hpfem.plasticity import elastic_solve
from hpfem.polybasis import tensor_gauss
from hpfem.space import GaussPointSpace, ScalarSpace, deviatoric_basis


class TestPointwise:
    def test_strain_identity(self):
        np.testing.assert_allclose(strain(np.eye(2)), np.eye(2))

    def test_strain_kills_rotations(self):
        W = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(strain(W), 0.0, atol=1e-16)

    def test_strain_shear(self):
        g = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(strain(g), [[0, 0.5], [0.5, 0]])

    def test_stress_identity(self):
        mat = Material(lam=1.2, mu=0.8, hardening=1.0, yield_stress=1.0)
        np.testing.assert_allclose(mat.stress(np.eye(2)),
                                   (2 * mat.lam + 2 * mat.mu) * np.eye(2),
                                   atol=1e-14)

    def test_stress_cancels_at_eps_equals_p(self):
        mat = Material()
        Phi = deviatoric_basis(2)
        np.testing.assert_allclose(mat.stress(Phi[0], Phi[0]), 0.0, atol=1e-15)

    def test_stress_tracefree_direction(self):
        mat = Material(lam=1.0, mu=1.0)
        Phi = deviatoric_basis(2)
        np.testing.assert_allclose(mat.stress(Phi[0], 0.5 * Phi[0]), Phi[0],
                                   atol=1e-15)

    def test_nonsymmetric_callback_rejected(self):
        bad = lambda t: np.tensordot(np.random.default_rng(0).random((2, 2, 2, 2)),
                                     t, axes=2)
        with pytest.raises(ValueError):
            Material(elasticity=bad)

    def test_material_is_frozen(self):
        # a field set after the checks of __post_init__ would go unchecked:
        # hardening = -1.0 gave a "converged" solve with no error
        mat = Material()
        with pytest.raises(dataclasses.FrozenInstanceError):
            mat.hardening = -1.0
        assert mat.hardening == 1.0


def _fixture_system(mesh, mat, loads=None):
    space = ScalarSpace(mesh)
    qs = GaussPointSpace(mesh, mat.yield_stress)
    system = assemble_system(space, qs, mat, loads or Loads())
    return space, qs, system


class TestBlocks:
    def test_K_symmetric(self, rng):
        m = random_refined_mesh(rng, refinements=1)
        mat = Material(lam=2.0, mu=1.0, hardening=0.7, yield_stress=1.0)
        _, _, sys_ = _fixture_system(m, mat)
        assert abs(sys_.K - sys_.K.T).max() < 1e-12

    def test_single_element_C_block(self):
        m = square_mesh(1, degree=1, tagger=lambda c: "neumann")
        mat = Material(lam=1.0, mu=1.0, hardening=0.5, yield_stress=1.0)
        _, _, sys_ = _fixture_system(m, mat)
        np.testing.assert_allclose(sys_.C.toarray(), (2 * 1.0 + 0.5) * np.eye(2),
                                   atol=1e-13)

    def test_unit_load_quarters(self):
        m = square_mesh(1, degree=1, tagger=lambda c: "neumann")
        mat = Material()
        loads = Loads(volume=lambda x: np.stack(
            [np.ones(len(x)), np.zeros(len(x))], axis=1))
        _, _, sys_ = _fixture_system(m, mat, loads)
        np.testing.assert_allclose(sys_.l[0::2], 0.25, atol=1e-14)
        np.testing.assert_allclose(sys_.l[1::2], 0.0, atol=1e-14)

    def test_D_diagonal_weights(self, rng):
        m = random_refined_mesh(rng)
        mat = Material()
        _, qs, sys_ = _fixture_system(m, mat)
        np.testing.assert_allclose(sys_.D, np.repeat(qs.weights, 2), atol=1e-15)

    def test_assembled_vs_direct_quadrature(self, rng):
        # affine (axis-aligned) elements with hanging nodes and mixed degrees:
        # all integrands are polynomial, so the oracle at higher order matches
        m = random_refined_mesh(rng, refinements=2)
        mat = Material(lam=1.5, mu=0.8, hardening=0.6, yield_stress=1.0)
        space, qs, sys_ = _fixture_system(m, mat)
        for _ in range(20):
            vu1 = rng.standard_normal(sys_.K.shape[0])
            vp1 = rng.standard_normal(sys_.C.shape[0])
            vu2 = rng.standard_normal(sys_.K.shape[0])
            vp2 = rng.standard_normal(sys_.C.shape[0])
            a_blocks = bilinear_value(sys_, vu1, vp1, vu2, vp2)
            a_direct = direct_bilinear(space, qs, mat, vu1, vp1, vu2, vp2)
            assert abs(a_blocks - a_direct) <= 1e-10 * max(1.0, abs(a_direct))

    def test_ellipticity_witness(self, rng):
        m = random_refined_mesh(rng, refinements=1, dirichlet=True)
        mat = Material(lam=2.0, mu=1.0, hardening=0.5, yield_stress=1.0)
        _, _, sys_ = _fixture_system(m, mat)
        A = sp.bmat([[sys_.K, -sys_.B], [-sys_.B.T, sys_.C]]).toarray()
        w = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert w.min() > 1e-10

    def test_continuity_witness(self, rng):
        m = random_refined_mesh(rng, refinements=1, dirichlet=True)
        mat = Material(lam=2.0, mu=1.0, hardening=0.5, yield_stress=1.0)
        space, qs, sys_ = _fixture_system(m, mat)
        Mv, Sv, Mq = assemble_norm_matrices(space, qs)
        d = 2
        # c_a = 2 (c1 + c2) with the tensor entry sums of the Appendix bound
        c1 = sum(abs(mat.lam * (i == j) * (k == l)
                     + mat.mu * ((i == k) * (j == l) + (i == l) * (j == k)))
                 for i in range(d) for j in range(d)
                 for k in range(d) for l in range(d))
        c2 = sum(abs(mat.hardening * ((i == k) * (j == l))) for i in range(d)
                 for j in range(d) for k in range(d) for l in range(d))
        c_a = 2.0 * (c1 + c2)
        Nv = (Mv + Sv).toarray()
        Q = Mq.toarray()
        for _ in range(20):
            vu1 = rng.standard_normal(sys_.K.shape[0])
            vp1 = rng.standard_normal(sys_.C.shape[0])
            vu2 = rng.standard_normal(sys_.K.shape[0])
            vp2 = rng.standard_normal(sys_.C.shape[0])
            a = bilinear_value(sys_, vu1, vp1, vu2, vp2)
            n1 = np.sqrt(vu1 @ Nv @ vu1 + vp1 @ Q @ vp1)
            n2 = np.sqrt(vu2 @ Nv @ vu2 + vp2 @ Q @ vp2)
            assert abs(a) <= c_a * n1 * n2 * (1 + 1e-10)

    def test_rigid_body_motions_in_kernel(self, rng):
        m = square_mesh(2, degree=2, tagger=lambda c: "neumann")
        mat = Material(lam=1.0, mu=1.0)
        space, qs, sys_ = _fixture_system(m, mat)
        for mode in ("tx", "ty", "rot"):
            u = np.zeros(sys_.K.shape[0])
            for i, slot in enumerate(space.dofs):
                if slot[0] != "v":
                    continue
                x, y = m.vertices[slot[1]]
                if mode == "tx":
                    u[2 * i] = 1.0
                elif mode == "ty":
                    u[2 * i + 1] = 1.0
                else:
                    u[2 * i], u[2 * i + 1] = -y, x
            assert np.abs(sys_.K @ u).max() < 1e-10

    def test_non_affine_warning(self):
        m = distorted_quad_mesh(degree=2)
        mat = Material()
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, 1.0)
        with pytest.warns(QuadratureAccuracyWarning):
            sys_ = assemble_system(space, qs, mat, Loads())
        assert len(sys_.non_affine) == 2

    def test_general_tensor_matches_isotropic(self, rng):
        m = square_mesh(1, degree=2, tagger=lambda c: "neumann")
        lam, mu = 1.4, 0.9

        def iso(t):
            t = np.asarray(t, dtype=float)
            tr = np.trace(t, axis1=-2, axis2=-1)
            return lam * tr[..., None, None] * np.eye(t.shape[-1]) + 2 * mu * t

        mat_a = Material(lam=lam, mu=mu, hardening=0.5)
        mat_b = Material(lam=lam, mu=mu, hardening=0.5, elasticity=iso)
        sa = _fixture_system(m, mat_a)[2]
        sb = _fixture_system(m, mat_b)[2]
        assert abs(sa.K - sb.K).max() < 1e-11
        assert abs(sa.B - sb.B).max() < 1e-11


def direct_bilinear(space, qs, mat, vu1, vp1, vu2, vp2):
    mesh = space.mesh
    d = mesh.dim
    Phi = deviatoric_basis(d)
    L = Phi.shape[0]
    tot = 0.0
    for eid in mesh.active_ids():
        _, pts, wts, det, Jinv = element_quadrature(mesh, eid,
                                                    space.mesh.degree[eid] + 4)
        w = wts * det

        def fields(vu, vp):
            eps = strain_at(space, eid, vu, pts, Jinv)
            q = plastic_field_at(qs, eid, vp, pts)
            return eps, q

        e1, q1 = fields(vu1, vp1)
        e2, q2 = fields(vu2, vp2)
        s1 = mat.apply_elasticity(e1 - q1)
        h1 = mat.apply_hardening(q1)
        integ = (np.einsum("qmn,qmn->q", s1, e2 - q2)
                 + np.einsum("qmn,qmn->q", h1, q2))
        tot += float(w @ integ)
    return tot


class TestPlasticFunctional:
    def test_zero(self, rng):
        m = random_refined_mesh(rng)
        qs = GaussPointSpace(m, 1.0)
        assert plastic_functional(qs, np.zeros((qs.ndof, 2))) == 0.0

    def test_unit_deviator(self, rng):
        m = random_refined_mesh(rng)
        qs = GaussPointSpace(m, yield_stress=2.0)
        q = np.zeros((qs.ndof, 2))
        q[:, 0] = 1.0
        val = plastic_functional(qs, q)
        assert abs(val - 2.0 * m.total_volume()) < 1e-12

    def test_against_independent_quadrature(self, rng):
        m = square_mesh(2, degree=2, tagger=lambda c: "neumann")
        qs = GaussPointSpace(m, yield_stress=1.3)
        q = rng.standard_normal((qs.ndof, 2))
        val = plastic_functional(qs, q)
        # independent: the broken Gauss rule applied to sigma_y |q_hp|_F
        Phi = deviatoric_basis(2)
        total = 0.0
        for eid in m.active_ids():
            p = qs.mesh.degree[eid]
            pts, wts = tensor_gauss(p, 2)
            det = np.abs(map_dets(m.corner_array([eid])[0], pts))
            vals = gauss_eval_primal(qs, eid, q, pts)
            field = np.einsum("ql,lab->qab", vals, Phi)
            total += float((wts * det) @ (1.3 * np.linalg.norm(field, axis=(1, 2))))
        assert abs(val - total) < 1e-12 * max(1.0, abs(val))


class TestEnergy:
    def test_zero_coefficients(self, rng):
        m = random_refined_mesh(rng, dirichlet=True)
        mat = Material()
        _, qs, sys_ = _fixture_system(m, mat)
        assert total_energy(sys_, qs, np.zeros(sys_.K.shape[0]),
                            np.zeros(sys_.C.shape[0])) == 0.0

    def test_pure_elastic_quadratic_identity(self, rng):
        m = random_refined_mesh(rng, dirichlet=True)
        mat = Material(lam=1.0, mu=1.0, yield_stress=1e9)
        loads = Loads(volume=lambda x: np.stack(
            [np.ones(len(x)), -np.ones(len(x))], axis=1))
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        sys_ = assemble_system(space, qs, mat, loads)
        vu = elastic_solve(sys_)
        E = total_energy(sys_, qs, vu, np.zeros(sys_.C.shape[0]))
        assert abs(E - (-0.5 * float(sys_.l @ vu))) < 1e-12 * max(1.0, abs(E))


class TestExport:
    def test_matrix_market_roundtrip(self, tmp_path, rng):
        from scipy.io import mmread
        m = square_mesh(1, degree=2, tagger=lambda c: "neumann")
        mat = Material()
        _, _, sys_ = _fixture_system(m, mat)
        path = str(tmp_path / "K.mtx")
        export_matrix_market(sys_.K, path)
        back = mmread(path)
        assert abs(sp.csr_matrix(back) - sys_.K).max() < 1e-14
