import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ROTATED_CASES, degree_gaps, distorted_quad_mesh,
                      eval_element, facet_jump, gauss_basis_at, gauss_eval_primal,
                      map_dets, map_volume, matched_refs, operator_matrix,
                      random_refined_mesh, rotated_roots_mesh, square_mesh)
from hpfem.mesh import (RELATIONS, Mesh, check_det_affine, corner_row,
                        facet_corner_rows, map_points)
from hpfem.problems import cube_mesh
from hpfem.polybasis import tensor_gauss, tensor_indices, tensor_shape_eval
from hpfem.predictor import enforce_degree_comparability
from hpfem.space import (GaussPointSpace, ScalarSpace, _frames, _numbered,
                         _sub_boxes, constraint_coeffs, deviatoric_basis,
                         deviatoric_dim)


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


def _box_edges(r):
    """The edges of the r-dimensional reference box, as the dof map listed
    them when edges were numbered on their own: axis (ne,) and the corner
    rows of the low and the high end (ne, 2). The oracle of _sub_boxes(r, 1)."""
    axes, low = [], []
    for a in range(r):
        for sides in itertools.product((0, 1), repeat=r - 1):
            axes.append(a)
            low.append(list(sides[:a]) + [0] + list(sides[a:]))
    axes = np.array(axes, dtype=np.intp)
    low = np.array(low, dtype=np.intp).reshape(len(axes), r)
    start = corner_row(low)
    return axes, np.stack([start, start + (1 << (r - 1 - axes))], axis=1)


def _face_frames(ids):
    """Canonical frames of quadrilateral faces from their tensor-ordered corner
    ids (m, 4), as the dof map framed faces on their own: swap (m,) and
    flips (m, 2). The origin is the corner of least id, and the first
    canonical axis runs to the neighbor of lesser id. The oracle of _frames
    for k = 2."""
    m = np.arange(len(ids))
    o = np.argmin(ids, axis=1)
    ou, ov = o // 2, o % 2
    swap = ~(ids[m, 2 * (1 - ou) + ov] < ids[m, 2 * ou + 1 - ov])
    flips = np.stack([np.where(swap, ov, ou), np.where(swap, ou, ov)], axis=1)
    return swap, flips == 1


class TestDofMapHelpers:
    """The entity numbering, frames and sub-boxes of the dof map against
    np.unique and the per-dimension rules they replace."""

    @staticmethod
    def _check_numbered(keys):
        rows, number = _numbered(keys)
        want_rows, want_number = np.unique(keys, axis=0, return_inverse=True)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(number, want_number.reshape(-1))
        assert rows.dtype == keys.dtype

    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_numbered_int_rows(self, c):
        rng = np.random.default_rng(c)
        self._check_numbered(rng.integers(0, 4, size=(300, c)))

    def test_numbered_float_rows_with_ties(self):
        rng = np.random.default_rng(7)
        self._check_numbered(rng.choice([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0],
                                        size=(300, 2)))

    @pytest.mark.parametrize("m", [0, 1])
    def test_numbered_no_or_one_row(self, m):
        self._check_numbered(np.arange(3 * m).reshape(m, 3))
        self._check_numbered(np.arange(3.0 * m).reshape(m, 3))

    def test_frames_of_edges(self):
        rng = np.random.default_rng(1)
        ids = np.array([rng.choice(50, 2, replace=False) for _ in range(200)])
        perm, flips = _frames(ids)
        np.testing.assert_array_equal(perm, 0)
        np.testing.assert_array_equal(flips[:, 0], ids[:, 0] > ids[:, 1])

    def test_frames_of_faces(self):
        rng = np.random.default_rng(2)
        ids = np.array([rng.choice(50, 4, replace=False) for _ in range(500)])
        perm, flips = _frames(ids)
        swap, want = _face_frames(ids)
        np.testing.assert_array_equal(perm, np.where(swap[:, None], [1, 0], [0, 1]))
        np.testing.assert_array_equal(flips, want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sub_boxes(self, d):
        axes, ends = _box_edges(d)
        got_axes, got_ends, _ = _sub_boxes(d, 1)
        np.testing.assert_array_equal(got_axes[:, 0], axes)
        np.testing.assert_array_equal(got_ends, ends)
        corners = _sub_boxes(d, d - 1)[1]
        assert (sorted(map(sorted, corners.tolist()))
                == sorted(map(sorted, facet_corner_rows(d).tolist())))


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
                             degrees=2, default_tag="neumann")
        assert ScalarSpace(m).ndof == 15  # 6 vertices + 7 edges + 2 interiors

    def test_q_dimension(self, rng):
        m = random_refined_mesh(rng)
        qs = GaussPointSpace(m, 1.0)
        expect = sum(max(qs.mesh.degree[e], 1) ** 2 if qs.mesh.degree[e] >= 2 else 1
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
        Vp, _ = tensor_shape_eval(parent, np.array([multi]))
        idx = tensor_indices(deg, d)
        Vc, _ = tensor_shape_eval(pts, idx)
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
        Vp, _ = tensor_shape_eval(parent, idx)
        Vc, _ = tensor_shape_eval(pts, idx)
        np.testing.assert_allclose(Vc @ rows.T, Vp, atol=1e-12)

    def test_least_squares_residual_of_bubble(self, rng):
        # restricting a parent bubble and re-expanding is exact
        row = constraint_coeffs((4,), (0,), 0.0, degree=4)
        pts = rng.uniform(-1, 1, (30, 1))
        parent = -1.0 + 0.5 * (pts + 1.0)
        Vp, _ = tensor_shape_eval(parent, np.array([[4]]))
        Vc, _ = tensor_shape_eval(pts, tensor_indices(4, 1))
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
        for i, eid in enumerate(m.active_ids()):
            sl = slice(*qs.offsets[i:i + 2])
            assert abs(qs.weights[sl][0] - map_volume(m.corner_array([eid])[0])) < 1e-12

    def test_affine_p2_weights(self):
        m = square_mesh(1, degree=2, tagger=lambda c: "neumann")
        qs = GaussPointSpace(m, 1.0)
        np.testing.assert_allclose(qs.weights, 0.25, atol=1e-13)  # |T| / 4

    def test_dual_equals_primal_on_det_affine(self, rng):
        m = square_mesh(2, degree=3, tagger=lambda c: "neumann")
        assert check_det_affine(m.corner_array(m.active_ids())).all()
        qs = GaussPointSpace(m, 1.0)
        for i in range(len(m.active_ids())):
            sl = slice(*qs.offsets[i:i + 2])
            C = qs.element_rows([i], np.eye(qs.ndof)[:, sl], dual=True)[0].T
            assert np.abs(C - np.eye(C.shape[0])).max() < 1e-12

    def test_degenerate_element_rejected(self):
        m = Mesh.from_arrays([[0, 0], [1, 1], [1, 0], [0, 1]], [[0, 1, 2, 3]],
                             dim=2, degrees=2, default_tag="neumann")
        with pytest.raises(ValueError):
            GaussPointSpace(m, 1.0)


def _biorth_defect(m, qs):
    worst = 0.0
    eye = np.eye(qs.ndof)
    for i, eid in enumerate(m.active_ids()):
        p = max(qs.mesh.degree[eid], 1)
        pts, wts = tensor_gauss(p + 3, m.dim)
        det = map_dets(m.corner_array([eid])[0], pts)
        V = gauss_basis_at(qs, eid, pts)
        sl = slice(*qs.offsets[i:i + 2])
        W = V @ qs.element_rows([i], eye[:, sl], dual=True)[0]
        G = np.einsum("qi,q,qj->ij", V, wts * det, W)
        worst = max(worst, np.abs(G - np.diag(qs.weights[sl])).max())
    return worst


class TestContinuity:
    def check(self, m, sp, rng, tol=1e-11):
        u = rng.standard_normal(sp.ndof)
        worst = 0.0
        for eid in m.active_ids():
            rows, _ = m.facet_neighbors(eid)
            for r in range(rows.start, rows.stop):
                xi = rng.uniform(-1, 1, (5, m.dim - 1))
                worst = max(worst, facet_jump(sp, u, [r], xi))
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
        m = Mesh.from_arrays(v3, [c0, c1], dim=3, degrees=(3, 2),
                             default_tag="neumann")
        m = m.refine_element(0)
        self.check(m, ScalarSpace(m), rng)

    def test_partition_of_unity_p1(self, rng):
        m = random_refined_mesh(rng, max_degree=1)
        sp = ScalarSpace(m)
        u = np.ones(sp.ndof)
        x = rng.uniform(-1, 1, (7, 2))
        for eid in m.active_ids():
            np.testing.assert_allclose(eval_element(sp, eid, u, x), 1.0,
                                       atol=1e-13)

    def test_dirichlet_trace_zero(self, rng):
        m = square_mesh(2, degree=3,
                        tagger=lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
        m = m.refine_element(0)
        sp = ScalarSpace(m)
        u = rng.standard_normal(sp.ndof)
        tab = m.facet_table()
        for eid in m.active_ids():
            _, brows = m.facet_neighbors(eid)
            for f, tag in zip(tab.b_facet[brows].tolist(), tab.b_tag[brows]):
                if tag == "dirichlet":
                    t = rng.uniform(-1, 1, (6, 1))
                    vals = eval_element(sp, eid, u, m.facet_embed(f, t))
                    assert np.abs(vals).max() < 1e-12


class TestConnectivity:
    def test_interior_dof_unit_entry(self):
        # the element's rows of P: an interior dof enters its own shape only
        m = square_mesh(1, degree=3, tagger=lambda c: "neumann")
        sp = ScalarSpace(m)
        P = operator_matrix(sp.local_operator(1, [0])).toarray()
        idx = tensor_indices(3, 2)
        for i, slot in enumerate(sp.dofs):
            if slot[0] != "i":
                continue
            row = int(np.nonzero((idx == slot[2]).all(axis=1))[0][0])
            assert P[row, i] == 1.0
            assert np.abs(np.delete(P[:, i], row)).max() == 0.0

    def test_hanging_vertex_halves(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2,
                             default_tag="neumann").refine_element(0)
        sp = ScalarSpace(m)
        # the hanging midpoint of the shared edge is constrained to the two
        # coarse endpoint vertices with weight 1/2
        hang = sp.hanging_vertices()
        assert len(hang) == 1
        (vid, (dofs, coeffs)), = hang.items()
        weights = sorted(abs(coeffs))
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-13)
        # and the rows of P of the fine elements at it carry that row on
        # the vertex shape of that corner (at degree 1, shape = corner)
        touching = 0
        for pos, eid in enumerate(m.active_ids()):
            corners = m.corners[eid].tolist()
            if vid not in corners:
                continue
            row = operator_matrix(sp.local_operator(1, [pos]))[corners.index(vid)]
            assert sorted(row.indices) == sorted(dofs)
            np.testing.assert_allclose(sorted(abs(row.data)), [0.5, 0.5],
                                       atol=1e-13)
            touching += 1
        assert touching == 2

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
            x = map_points(m.corner_array([eid])[0], pts)
            np.testing.assert_allclose(eval_element(sp, eid, u, pts), lin(x),
                                       atol=1e-13)

    def test_zero_coefficients(self, rng):
        m = distorted_quad_mesh()
        sp = ScalarSpace(m)
        vals = eval_element(sp, 0, np.zeros(sp.ndof), rng.uniform(-1, 1, (4, 2)))
        assert np.abs(vals).max() == 0.0

    def test_unit_dev_coefficient_field(self, rng):
        m = distorted_quad_mesh()
        qs = GaussPointSpace(m, 1.0)
        L = deviatoric_dim(2)
        coeffs = np.zeros((qs.ndof, L))
        coeffs[:, 0] = 1.0  # q = Phi_1 everywhere
        Phi = deviatoric_basis(2)
        for eid in m.active_ids():
            # the Gauss points that carry the element's dofs (degree 2)
            vals = gauss_eval_primal(qs, eid, coeffs,
                                     tensor_gauss(qs.mesh.degree[eid], 2)[0])
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

        # projection of a Q_hp member reproduces its coefficients: use the
        # identity (P f)_i = D_i^{-1} (f, phi_i) on f = sum c phi
        for i, eid in enumerate(m.active_ids()):
            pts, wts = tensor_gauss(max(qs.mesh.degree[eid], 1) + 2, 2)
            det = map_dets(m.corner_array([eid])[0], pts)
            V = gauss_basis_at(qs, eid, pts)
            sl = slice(*qs.offsets[i:i + 2])
            f = V @ coeffs[sl]
            integ = np.einsum("qi,q,ql->il", V, wts * det, f)
            proj_dual = np.zeros_like(coeffs)
            proj_dual[sl] = integ / qs.weights[sl][:, None]
            # dual coefficients of the same function
            back = qs.element_rows([i], proj_dual, dual=True)[0]
            np.testing.assert_allclose(back, coeffs[sl], atol=1e-11)


def _jittered_roots(d, n, rng):
    """square_mesh(n) or cube_mesh(n) with the interior vertices moved by up
    to a fifth of the mesh size on each axis."""
    m = square_mesh(n) if d == 2 else cube_mesh(n)
    h = 1.0 / n
    verts = [v + (0.2 * h * rng.uniform(-1, 1, d)
                  if np.all((v > 1e-12) & (v < 1 - 1e-12)) else 0.0)
             for v in m.vertices]
    return Mesh.from_arrays(verts, m.corners, dim=d)


def _refined_mesh(d, n, seed):
    """A jittered n^d root mesh, some roots refined at random interior
    dividing points, and random degrees. The dividing point of root (i, j, k)
    takes its axis-a coordinate from a value drawn per axis and index, so
    refined neighbors split their shared facet at the same place (nested
    pieces, as the space requires) and unrefined neighbors carry hanging
    nodes."""
    rng = np.random.default_rng(seed)
    m = _jittered_roots(d, n, rng)
    split = rng.uniform(-0.7, 0.7, (d, n))
    before = m.total_volume()
    roots = [e for e in m.active_ids() if rng.uniform() < 0.5]
    for e in roots:
        multi = np.unravel_index(e, (n,) * d)
        m = m.refine_element(e, np.array([split[a, multi[a]] for a in range(d)]))
    m = m.with_degrees({e: int(rng.integers(1, 4 if d == 2 else 3))
                        for e in m.active_ids()})
    return m, before, len(roots)


class TestRefinementProperties:
    @given(st.sampled_from([2, 3]), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_volume_and_continuity_across_pieces(self, d, seed):
        m, before, _ = _refined_mesh(d, 2, seed)
        assert abs(m.total_volume() - before) <= 1e-12 * before
        _assert_continuous(m, seed)

    def test_off_centre_closure(self):
        # the closure splits the coarse neighbors of child 7 where child
        # 7's facets end, so the pieces nest and the space is continuous
        m = square_mesh(2).refine_element(0, [0.3, 0.3]).refine_element(7)
        assert _relations(m) <= NESTED
        _assert_continuous(m, 0)

    @given(st.sampled_from([2, 3]), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_sequences_of_children(self, d, seed):
        # any active element, children included, refined at its centre or
        # at an off-centre point, then comparable mixed degrees: the mesh is
        # valid, or the first read of its facet table rejects a non-nested
        # overlap that the dividing points asked for
        rng = np.random.default_rng(seed)
        m = _jittered_roots(d, 2, rng)
        before = m.total_volume()
        try:
            for _ in range(6 if d == 2 else 3):
                act = m.active_ids()
                eid = act[int(rng.integers(len(act)))]
                off = rng.uniform() < 0.5
                m = m.refine_element(eid, rng.uniform(-0.5, 0.5, d) if off else None)
            m = enforce_degree_comparability(
                m, {e: int(rng.integers(1, 4)) for e in m.active_ids()})
        except ValueError as err:
            assert "non-nested facet overlap" in str(err)
            return
        assert abs(m.total_volume() - before) <= 1e-12 * before
        assert _relations(m) <= NESTED
        _assert_continuous(m, seed)

    @pytest.mark.parametrize("high, low", [(2, 1), (3, 2)])
    def test_edge_only_neighbors_share_hanging_halves(self, high, low):
        # the children of root 1 meet root 4 along an edge only, and their
        # half-edges hang on root 4's edge: that edge takes their degree
        m = cube_mesh(2).refine_many([0, 1, 5, 6])
        m = m.with_degrees({e: high if m.root[e] in (0, 4, 5) else low
                            for e in m.active_ids()})
        assert (degree_gaps(m) <= 1).all()
        _assert_continuous(m, 0)


NESTED = {"equal", "coarse_nb", "fine_nb"}


def _relations(m):
    return {RELATIONS[r] for r in m.facet_table().relation.tolist()}


def _assert_continuous(m, seed):
    """Across every facet piece, the matched points agree and so do the
    values of a random member of the space."""
    space = ScalarSpace(m)
    u = np.random.default_rng(seed).standard_normal(space.ndof)
    xi, _ = tensor_gauss(3, m.dim - 1)
    el, ref_el, nb, ref_nb = matched_refs(m, slice(None), xi)
    np.testing.assert_allclose(map_points(m.corner_array(el), ref_el),
                               map_points(m.corner_array(nb), ref_nb),
                               rtol=0, atol=1e-12)
    for a, x, b, y in zip(el.tolist(), ref_el, nb.tolist(), ref_nb):
        np.testing.assert_allclose(eval_element(space, a, u, x),
                                   eval_element(space, b, u, y),
                                   rtol=0, atol=1e-12 * np.abs(u).max())


class TestRotatedRoots:
    """Hanging interfaces between roots whose reference frames disagree: the
    fine facet meets the coarse one reversed (and, in 3D, with its axes
    swapped)."""

    @pytest.fixture(params=ROTATED_CASES,
                    ids=lambda c: f"d{c[0]}-refine{c[1]}-p{c[2]}")
    def mesh(self, request):
        return rotated_roots_mesh(*request.param)

    def test_pieces_are_rotated(self, mesh):
        tab = mesh.facet_table()
        coarse = tab.relation == RELATIONS.index("coarse_nb")
        assert tab.flip[coarse].any()
        if mesh.dim == 3:
            assert (tab.perm[coarse] != [0, 1]).any()

    def test_continuous_across_every_piece(self, mesh, rng):
        sp = ScalarSpace(mesh)
        u = rng.standard_normal(sp.ndof)
        xi, _ = tensor_gauss(5, mesh.dim - 1)
        for eid in mesh.active_ids():
            rows, _ = mesh.facet_neighbors(eid)
            assert facet_jump(sp, u, rows, xi) <= 1e-13

    def test_linear_field_reproduced(self, mesh, rng):
        sp = ScalarSpace(mesh)
        coef = np.array([0.3, -0.7, 0.2, 0.9])[:mesh.dim + 1]

        def lin(x):
            return coef[0] + x @ coef[1:]

        u = np.zeros(sp.ndof)
        for i, slot in enumerate(sp.dofs):
            if slot[0] == "v":
                u[i] = lin(mesh.vertices[slot[1]])
        for eid in mesh.active_ids():
            pts = rng.uniform(-1, 1, (6, mesh.dim))
            x = map_points(mesh.corner_array([eid])[0], pts)
            np.testing.assert_allclose(eval_element(sp, eid, u, pts), lin(x),
                                       rtol=0, atol=1e-13)

    def test_hanging_vertex_weights(self, mesh):
        # on the coarse vertices, a hanging edge midpoint weighs 1/2 each of
        # the edge's ends and a hanging face centre 1/4 each of its corners
        sp = ScalarSpace(mesh)
        hang = sp.hanging_vertices()
        assert hang
        for vid, (dofs, coeffs) in hang.items():
            on_v = [(sp.dofs[k][1], c) for k, c in zip(dofs, coeffs)
                    if sp.dofs[k][0] == "v"]
            w = np.array([c for _, c in on_v])
            n = len(w)
            assert n in (2, 4)
            np.testing.assert_allclose(w, 1.0 / n, rtol=0, atol=1e-14)
            centre = sum(c * mesh.vertices[v] for v, c in on_v)
            np.testing.assert_allclose(centre, mesh.vertices[vid], atol=1e-14)
