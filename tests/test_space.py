import numpy as np
import pytest

from conftest import distorted_quad_mesh, random_refined_mesh, square_mesh
from hpfem.mesh import Mesh, check_det_affine
from hpfem.polybasis import tensor_gauss, tensor_indices, tensor_shape_eval
from hpfem.space import (GaussPointSpace, ScalarSpace, constraint_coeffs,
                         deviatoric_basis, deviatoric_dim, expand_tensor)


class TestDeviatoricBasis:
    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormal_symmetric_tracefree(self, d):
        Phi = deviatoric_basis(d)
        L = deviatoric_dim(d)
        assert Phi.shape == (L, d, d)
        for k in range(L):
            assert abs(np.trace(Phi[k])) < 1e-15
            np.testing.assert_allclose(Phi[k], Phi[k].T, atol=1e-15)
            for l in range(L):
                ip = float(np.tensordot(Phi[k], Phi[l]))
                assert abs(ip - (1.0 if k == l else 0.0)) < 1e-15

    def test_printed_entries(self):
        Phi2 = deviatoric_basis(2)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(Phi2[0], [[s, 0], [0, -s]])
        np.testing.assert_allclose(Phi2[1], [[0, s], [s, 0]])
        Phi3 = deviatoric_basis(3)
        b = 1 / np.sqrt(6)
        np.testing.assert_allclose(Phi3[1], np.diag([b, b, -2 * b]))

    def test_d1_empty(self):
        assert deviatoric_basis(1).shape[0] == 0


class TestDofCounts:
    def test_1d_two_elements_dirichlet(self):
        m = Mesh.from_arrays(np.array([[0.0], [0.5], [1.0]]), [[0, 1], [1, 2]], dim=1)
        assert ScalarSpace(m).ndof == 1

    def test_2d_single_p3_free(self):
        m = square_mesh(1, degree=3, tagger=lambda c: "neumann")
        assert ScalarSpace(m).ndof == 16

    def test_2x1_p2_free(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2,
                             default_tag="neumann")
        for e in m.elements:
            e.degree = 2
        assert ScalarSpace(m).ndof == 15  # 6 vertices + 7 edges + 2 interiors

    def test_q_dimension(self, rng):
        m = random_refined_mesh(rng)
        qs = GaussPointSpace(m, 1.0)
        expect = sum(max(qs.degrees[e], 1) ** 2 if qs.degrees[e] >= 2 else 1
                     for e in m.active_ids())
        assert qs.ndof == expect


class TestConstraintCoeffs:
    def test_vertex_function_left_child(self):
        # psi_0 on [-1,0]: psi_0((t-1)/2) = (3-t)/4 = 1.0 psi_0 + 0.5 psi_1
        row = constraint_coeffs((0,), (0,), 0.0, degree=3)
        np.testing.assert_allclose(row[:2], [1.0, 0.5], atol=1e-13)
        np.testing.assert_allclose(row[2:], 0.0, atol=1e-13)

    def test_vertex_function_one_left_child(self):
        # psi_1 on the left child: endpoint values 0 and 1/2, no bubble part
        row = constraint_coeffs((1,), (0,), 0.0, degree=3)
        np.testing.assert_allclose(row[:2], [0.0, 0.5], atol=1e-13)
        np.testing.assert_allclose(row[2:], 0.0, atol=1e-13)

    @pytest.mark.parametrize("multi,bits,zhat", [
        ((2,), (0,), 0.0), ((3,), (1,), 0.3), ((2, 3), (0, 1), (0.2, -0.4)),
        ((0, 2), (1, 0), 0.0),
    ])
    def test_pointwise_exactness(self, rng, multi, bits, zhat):
        d = len(multi)
        deg = max(max(multi), 1)
        row = constraint_coeffs(multi, bits, zhat, degree=deg)
        z = np.broadcast_to(np.asarray(zhat, dtype=float), (d,))
        pts = rng.uniform(-1, 1, (10, d))
        # map child reference points into the parent
        parent = np.empty_like(pts)
        for k in range(d):
            lo, hi = (-1.0, z[k]) if not bits[k] else (z[k], 1.0)
            parent[:, k] = lo + 0.5 * (pts[:, k] + 1.0) * (hi - lo)
        Vp, _ = tensor_shape_eval(parent, np.array([multi]), jmax=deg)
        idx = tensor_indices(deg, d)
        Vc, _ = tensor_shape_eval(pts, idx, jmax=deg)
        np.testing.assert_allclose(Vc @ row, Vp[:, 0], atol=1e-12)

    @pytest.mark.parametrize("bits,zhat,deg", [
        ((0,), 0.0, 4), ((1, 0), (0.2, -0.4), 3), ((1, 0, 1), (0.3, -0.25, 0.1), 2),
    ])
    def test_rows_match_single_calls(self, rng, bits, zhat, deg):
        d = len(bits)
        idx = tensor_indices(deg, d)
        rows = constraint_coeffs(idx, bits, zhat, degree=deg)
        stacked = np.array([constraint_coeffs(tuple(m), bits, zhat, degree=deg)
                            for m in idx])
        assert rows.shape == (len(idx), len(idx))
        np.testing.assert_array_equal(rows, stacked)
        z = np.broadcast_to(np.asarray(zhat, dtype=float), (d,))
        pts = rng.uniform(-1, 1, (20, d))
        parent = np.empty_like(pts)
        for k in range(d):
            lo, hi = (-1.0, z[k]) if not bits[k] else (z[k], 1.0)
            parent[:, k] = lo + 0.5 * (pts[:, k] + 1.0) * (hi - lo)
        Vp, _ = tensor_shape_eval(parent, idx, jmax=deg)
        Vc, _ = tensor_shape_eval(pts, idx, jmax=deg)
        np.testing.assert_allclose(Vc @ rows.T, Vp, atol=1e-12)

    def test_least_squares_residual_of_bubble(self, rng):
        # restricting a parent bubble and re-expanding is exact
        row = constraint_coeffs((4,), (0,), 0.0, degree=4)
        pts = rng.uniform(-1, 1, (30, 1))
        parent = -1.0 + 0.5 * (pts + 1.0)
        Vp, _ = tensor_shape_eval(parent, np.array([[4]]), jmax=4)
        Vc, _ = tensor_shape_eval(pts, tensor_indices(4, 1), jmax=4)
        resid = np.linalg.norm(Vc @ row - Vp[:, 0])
        assert resid < 1e-12


class TestBiorthogonality:
    def test_random_meshes(self, rng):
        for _ in range(4):
            m = random_refined_mesh(rng)
            qs = GaussPointSpace(m, yield_stress=1.5)
            worst = _biorth_defect(m, qs)
            assert worst < 1e-12
            assert np.all(qs.weights > 0)
            np.testing.assert_allclose(qs.bounds, 1.5)

    def test_constant_case(self):
        m = distorted_quad_mesh(degree=1)
        qs = GaussPointSpace(m, yield_stress=2.5)
        # p = 1: indicator functions, weight = element volume
        for eid in m.active_ids():
            sl = qs.dof_slice(eid)
            assert abs(qs.weights[sl][0] - m.element_map(eid).volume()) < 1e-12

    def test_affine_p2_weights(self):
        m = square_mesh(1, degree=2, tagger=lambda c: "neumann")
        qs = GaussPointSpace(m, 1.0)
        np.testing.assert_allclose(qs.weights, 0.25, atol=1e-13)  # |T| / 4

    def test_dual_equals_primal_on_det_affine(self, rng):
        m = square_mesh(2, degree=3, tagger=lambda c: "neumann")
        for eid in m.active_ids():
            assert check_det_affine(m.element_map(eid))
        qs = GaussPointSpace(m, 1.0)
        for eid in m.active_ids():
            C = qs.dual_coefficients(eid)
            assert np.abs(C - np.eye(C.shape[0])).max() < 1e-12

    def test_degenerate_element_rejected(self):
        m = Mesh.from_arrays([[0, 0], [1, 1], [1, 0], [0, 1]], [[0, 1, 2, 3]],
                             dim=2, default_tag="neumann")
        m.elements[0].degree = 2
        with pytest.raises(ValueError):
            GaussPointSpace(m, 1.0)


def _biorth_defect(m, qs):
    worst = 0.0
    for eid in m.active_ids():
        emap = m.element_map(eid)
        p = max(qs.degrees[eid], 1)
        pts, wts = tensor_gauss(p + 3, m.dim)
        det = emap.det_jacobian(pts)
        V = qs._basis_at(eid, pts)
        W = V @ qs.dual_coefficients(eid).T
        G = np.einsum("qi,q,qj->ij", V, wts * det, W)
        sl = qs.dof_slice(eid)
        worst = max(worst, np.abs(G - np.diag(qs.weights[sl])).max())
    return worst


class TestContinuity:
    def check(self, m, sp, rng, tol=1e-11):
        u = rng.standard_normal(sp.ndof)
        worst = 0.0
        for eid in m.active_ids():
            for f, info in enumerate(m.facet_neighbors(eid)):
                if info.kind != "interior":
                    continue
                for piece in info.pieces:
                    xi = rng.uniform(-1, 1, (5, m.dim - 1))
                    tm, tn = m.piece_coords(eid, f, piece, xi)
                    a = sp.eval_element(eid, u, m.facet_embed(f, tm))
                    b = sp.eval_element(piece.neighbor, u,
                                        m.facet_embed(piece.facet, tn))
                    worst = max(worst, np.abs(a - b).max())
        assert worst < tol

    def test_hanging_mixed_degree_2d(self, rng):
        for _ in range(3):
            m = random_refined_mesh(rng, refinements=3)
            self.check(m, ScalarSpace(m), rng)

    def test_hanging_3d(self, rng):
        v3 = [[x, y, z] for x in (0, 1, 2) for y in (0, 1) for z in (0, 1)]

        def vid(x, y, z):
            return x * 4 + y * 2 + z

        c0 = [vid(0, 0, 0), vid(0, 0, 1), vid(0, 1, 0), vid(0, 1, 1),
              vid(1, 0, 0), vid(1, 0, 1), vid(1, 1, 0), vid(1, 1, 1)]
        c1 = [vid(1, 0, 0), vid(1, 0, 1), vid(1, 1, 0), vid(1, 1, 1),
              vid(2, 0, 0), vid(2, 0, 1), vid(2, 1, 0), vid(2, 1, 1)]
        m = Mesh.from_arrays(v3, [c0, c1], dim=3, default_tag="neumann")
        for e, p in zip(m.elements, (3, 2)):
            e.degree = p
        m = m.refine_element(0)
        self.check(m, ScalarSpace(m), rng)

    def test_partition_of_unity_p1(self, rng):
        m = random_refined_mesh(rng, max_degree=1)
        sp = ScalarSpace(m)
        u = np.ones(sp.ndof)
        x = rng.uniform(-1, 1, (7, 2))
        for eid in m.active_ids():
            np.testing.assert_allclose(sp.eval_element(eid, u, x), 1.0,
                                       atol=1e-13)

    def test_dirichlet_trace_zero(self, rng):
        m = square_mesh(2, degree=3,
                        tagger=lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
        m = m.refine_element(0)
        sp = ScalarSpace(m)
        u = rng.standard_normal(sp.ndof)
        for eid in m.active_ids():
            for f, info in enumerate(m.facet_neighbors(eid)):
                if info.kind == "boundary" and info.tag == "dirichlet":
                    t = rng.uniform(-1, 1, (6, 1))
                    vals = sp.eval_element(eid, u, m.facet_embed(f, t))
                    assert np.abs(vals).max() < 1e-12


class TestConnectivity:
    def test_interior_dof_unit_entry(self):
        m = square_mesh(1, degree=3, tagger=lambda c: "neumann")
        sp = ScalarSpace(m)
        rows, mat = sp.connectivity(0)
        idx = sp.local_indices(0)
        for i, slot in enumerate(sp.dofs):
            if slot[0] != "i":
                continue
            r = int(np.nonzero(rows == i)[0][0])
            col = int(np.nonzero((idx == slot[2]).all(axis=1))[0][0])
            assert mat[r, col] == 1.0
            assert np.abs(np.delete(mat[r], col)).max() == 0.0

    def test_hanging_vertex_halves(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2,
                             default_tag="neumann").refine_element(0)
        sp = ScalarSpace(m)
        # the hanging midpoint of the shared edge is constrained to the two
        # coarse endpoint vertices with weight 1/2
        hang = [s for s in sp._slave if s[0] == "v"]
        assert len(hang) == 1
        row = sp.resolve_slot(hang[0])
        weights = sorted(abs(c) for _, c in row)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-13)

    def test_linear_field_reproduced(self, rng):
        m = random_refined_mesh(rng, refinements=2)
        sp = ScalarSpace(m)
        a, b, c = 0.3, -0.7, 0.2

        def lin(x):
            return a + b * x[:, 0] + c * x[:, 1]

        u = np.zeros(sp.ndof)
        for i, slot in enumerate(sp.dofs):
            if slot[0] == "v":
                u[i] = lin(np.asarray(m.vertices[slot[1]])[None, :])[0]
        for eid in m.active_ids():
            pts = rng.uniform(-1, 1, (6, 2))
            x = m.element_map(eid).map_point(pts)
            np.testing.assert_allclose(sp.eval_element(eid, u, pts), lin(x),
                                       atol=1e-13)

    def test_zero_coefficients(self, rng):
        m = distorted_quad_mesh()
        sp = ScalarSpace(m)
        vals = sp.eval_element(0, np.zeros(sp.ndof), rng.uniform(-1, 1, (4, 2)))
        assert np.abs(vals).max() == 0.0

    def test_unit_dev_coefficient_field(self, rng):
        m = distorted_quad_mesh()
        qs = GaussPointSpace(m, 1.0)
        L = deviatoric_dim(2)
        coeffs = np.zeros((qs.ndof, L))
        coeffs[:, 0] = 1.0  # q = Phi_1 everywhere
        Phi = deviatoric_basis(2)
        for eid in m.active_ids():
            vals = qs.eval_primal(eid, coeffs, qs.gauss_points(eid))
            field = np.einsum("ql,lab->qab", vals, Phi)
            np.testing.assert_allclose(np.linalg.norm(field, axis=(1, 2)), 1.0,
                                       atol=1e-13)


class TestProjection:
    def test_projection_reproduces_member(self, rng):
        m = random_refined_mesh(rng)
        qs = GaussPointSpace(m, 1.0)
        L = deviatoric_dim(2)
        coeffs = rng.standard_normal((qs.ndof, L))
        Phi = deviatoric_basis(2)

        def sampler(eid, x):
            emap = m.element_map(eid)
            # invert physical points back is avoidable: evaluate via primal
            # basis at the known reference points
            raise NotImplementedError

        # projection of a Q_hp member reproduces its coefficients: use the
        # identity (P f)_i = D_i^{-1} (f, phi_i) on f = sum c phi
        for eid in m.active_ids():
            pts, wts = tensor_gauss(max(qs.degrees[eid], 1) + 2, 2)
            emap = m.element_map(eid)
            det = emap.det_jacobian(pts)
            V = qs._basis_at(eid, pts)
            sl = qs.dof_slice(eid)
            f = V @ coeffs[sl]
            integ = np.einsum("qi,q,ql->il", V, wts * det, f)
            proj_dual = integ / qs.weights[sl][:, None]
            # dual coefficients of the same function
            back = qs.dual_to_primal(eid, _full(qs, sl, proj_dual))
            np.testing.assert_allclose(back, coeffs[sl], atol=1e-11)


def _full(qs, sl, block):
    out = np.zeros((qs.ndof,) + block.shape[1:])
    out[sl] = block
    return out
