import os

import numpy as np
import pytest

from conftest import distorted_quad_mesh, square_mesh
from hpfem.mesh import DIRICHLET, ElementMap, Mesh, check_det_affine


class TestElementMap:
    def test_unit_square_corners_and_midpoint(self):
        em = ElementMap(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float))
        np.testing.assert_allclose(em.map_point(np.array([-1.0, -1.0])), [0, 0])
        np.testing.assert_allclose(em.map_point(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_stretched_quad_center(self):
        em = ElementMap(np.array([[0, 0], [0, 1], [2, 0], [2, 1]], float))
        np.testing.assert_allclose(em.map_point(np.array([0.0, 0.0])), [1.0, 0.5])
        assert abs(em.det_jacobian(np.array([0.0, 0.0])) - 0.5) < 1e-15

    def test_jacobian_against_fd(self, rng):
        corners = np.array([[0, 0], [0.1, 1.2], [1.1, -0.1], [1.3, 1.0]])
        em = ElementMap(corners)
        x = rng.uniform(-0.9, 0.9, (4, 2))
        J = em.jacobian(x)
        h = 1e-7
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd = (em.map_point(x + e) - em.map_point(x - e)) / (2 * h)
            np.testing.assert_allclose(J[:, :, a], fd, atol=1e-8)

    def test_hessian_against_fd(self, rng):
        corners = np.array([[0, 0], [0.1, 1.2], [1.1, -0.1], [1.5, 1.4]])
        em = ElementMap(corners)
        x = rng.uniform(-0.8, 0.8, (3, 2))
        H = em.hessian(x)
        h = 1e-5
        for a in range(2):
            for b in range(2):
                ea, eb = np.zeros(2), np.zeros(2)
                ea[a] = h
                eb[b] = h
                fd = (em.map_point(x + ea + eb) - em.map_point(x + ea - eb)
                      - em.map_point(x - ea + eb) + em.map_point(x - ea - eb)) / (4 * h * h)
                np.testing.assert_allclose(H[:, :, a, b], fd, atol=1e-6)

    def test_validity(self):
        good = ElementMap(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float))
        assert good.is_valid()
        bad = ElementMap(np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float))
        assert not bad.is_valid()


class TestDetAffine:
    def test_parallelogram(self):
        em = ElementMap(np.array([[0, 0], [0.3, 1], [2, 0.1], [2.3, 1.1]]))
        assert check_det_affine(em)

    def test_trapezoid(self):
        # bilinear maps of any 2D quad have multilinear det J
        em = ElementMap(np.array([[0, 0], [0, 1], [2, 0], [1.5, 1]], float))
        assert check_det_affine(em)

    def test_all_2d_convex_quads(self, rng):
        for _ in range(25):
            base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
            quad = base + rng.uniform(-0.2, 0.2, (4, 2))
            em = ElementMap(quad)
            if em.is_valid():
                assert check_det_affine(em)

    def test_generic_hexahedron_not_det_affine(self, rng):
        cube = np.array(
            [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
             [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], float)
        assert check_det_affine(ElementMap(cube))
        # a single perturbed corner of a parallelepiped is a rank-one update of
        # the map and keeps det J multilinear; a generic hexahedron does not
        pert = cube + rng.uniform(-0.15, 0.15, (8, 3))
        pert[7] += [0.3, 0.25, 0.2]
        em = ElementMap(pert)
        assert em.is_valid()
        assert not check_det_affine(em)


class TestRefinement:
    def test_1d_symmetric_split(self):
        m = Mesh.from_arrays(np.array([[0.0], [1.0]]), [[0, 1]], dim=1)
        m2 = m.refine_element(0)
        act = m2.active_ids()
        assert len(act) == 2
        vols = [m2.element_map(e).volume() for e in act]
        np.testing.assert_allclose(vols, [0.5, 0.5], atol=1e-15)

    def test_2d_split_counts(self):
        m = square_mesh(1)
        nv0 = len(m.vertices)
        m2 = m.refine_element(0)
        assert len(m2.active_ids()) == 4
        assert len(m2.vertices) == nv0 + 5  # 1 interior + 4 edge midpoints

    def test_hanging_vertex_count(self):
        m = square_mesh(1, lo=0.0, hi=1.0)
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        cells = [[0, 3, 1, 4], [1, 4, 2, 5]]
        m = Mesh.from_arrays(verts, cells, dim=2)
        m2 = m.refine_element(0)
        # brute force: vertices strictly inside another active element's facet
        hanging = []
        for vid, v in enumerate(m2.vertices):
            for eid in m2.active_ids():
                el = m2.elements[eid]
                if vid in el.corners:
                    continue
                from hpfem.mesh import _facet_corner_ids
                for f in range(4):
                    ids = _facet_corner_ids(el.corners, 2, f)
                    a, b = (m2.vertices[i] for i in ids)
                    t = np.dot(v - a, b - a) / np.dot(b - a, b - a)
                    if 1e-9 < t < 1 - 1e-9 and \
                            np.linalg.norm(a + t * (b - a) - v) < 1e-12:
                        hanging.append(vid)
        assert len(set(hanging)) == 1

    def test_dividing_point_off_center(self):
        m = square_mesh(1)
        m2 = m.refine_element(0, zhat=np.array([0.5, -0.25]))
        vols = sorted(m2.element_map(e).volume() for e in m2.active_ids())
        assert abs(sum(vols) - 1.0) < 1e-12
        # areas: x split at 0.75, y at 0.375
        expect = sorted([0.75 * 0.375, 0.75 * 0.625, 0.25 * 0.375, 0.25 * 0.625])
        np.testing.assert_allclose(vols, expect, atol=1e-12)

    def test_boundary_dividing_point_rejected(self):
        m = square_mesh(1)
        with pytest.raises(ValueError):
            m.refine_element(0, zhat=np.array([1.0, 0.0]))

    def test_already_refined_rejected(self):
        m = square_mesh(1).refine_element(0)
        with pytest.raises(ValueError):
            m.refine_element(0)

    def test_volume_conserved_under_random_refinement(self, rng):
        m = distorted_quad_mesh()
        vol0 = m.total_volume()
        for _ in range(6):
            act = m.active_ids()
            m = m.refine_element(act[int(rng.integers(len(act)))])
        assert abs(m.total_volume() - vol0) < 1e-12 * abs(vol0)

    def test_one_irregularity_closure(self):
        m = square_mesh(2)
        m = m.refine_element(0)
        child = m.elements[0].children[3]
        m = m.refine_element(child)  # neighbors must be refined by closure
        for eid in m.active_ids():
            for info in m.facet_neighbors(eid):
                if info.kind != "interior":
                    continue
                for piece in info.pieces:
                    assert piece.relation in ("equal", "coarse_nb", "fine_nb")
                    if piece.relation == "coarse_nb":
                        # one level only: my facet is at least half the neighbor's
                        my = np.prod([b[1] - b[0] for b in piece.nb_box])
                        assert my >= 2.0 ** (m.dim - 1) / 2 ** (m.dim - 1) - 1e-12

    def test_hanging_node_on_coarse_facet_interior(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        cells = [[0, 3, 1, 4], [1, 4, 2, 5]]
        m = Mesh.from_arrays(verts, cells, dim=2).refine_element(0)
        info = m.facet_neighbors(1)[0]
        assert info.kind == "interior"
        assert len(info.pieces) == 2
        for piece in info.pieces:
            assert piece.relation == "fine_nb"


class TestNeighbors:
    def test_single_element_all_boundary(self):
        m = square_mesh(1)
        for info in m.facet_neighbors(0):
            assert info.kind == "boundary"
            assert info.tag == DIRICHLET

    def test_two_elements_symmetric(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2)
        i01 = [p for info in m.facet_neighbors(0) if info.kind == "interior"
               for p in info.pieces]
        i10 = [p for info in m.facet_neighbors(1) if info.kind == "interior"
               for p in info.pieces]
        assert len(i01) == 1 and i01[0].neighbor == 1
        assert len(i10) == 1 and i10[0].neighbor == 0
        # matched quadrature points agree physically
        xi = np.linspace(-0.7, 0.7, 5)[:, None]
        tm, tn = m.piece_coords(0, i01[0].facet ^ 1, i01[0], xi)
        # piece returned on element 0 facet index:
        f0 = [f for f, info in enumerate(m.facet_neighbors(0))
              if info.kind == "interior"][0]
        tm, tn = m.piece_coords(0, f0, i01[0], xi)
        a = m.element_map(0).map_point(m.facet_embed(f0, tm))
        b = m.element_map(1).map_point(m.facet_embed(i01[0].facet, tn))
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_parent_facet_lists_child_facets(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2)
        m = m.refine_element(0)
        pieces = [p for info in m.facet_neighbors(1) if info.kind == "interior"
                  for p in info.pieces]
        children = {p.neighbor for p in pieces}
        assert len(pieces) == 2
        assert children <= set(m.elements[0].children)

    def test_normals_outward_and_opposite(self, rng):
        m = distorted_quad_mesh()
        for eid in m.active_ids():
            for f, info in enumerate(m.facet_neighbors(eid)):
                if info.kind != "interior":
                    continue
                for piece in info.pieces:
                    xi = rng.uniform(-1, 1, (3, 1))
                    tm, tn = m.piece_coords(eid, f, piece, xi)
                    _, nm = m.facet_area_element(eid, f, tm)
                    _, nn = m.facet_area_element(piece.neighbor, piece.facet, tn)
                    np.testing.assert_allclose(nm, -nn, atol=1e-12)


class TestSnapshots:
    def test_degree_snapshot_shares_adjacency(self):
        m = square_mesh(2).refine_element(0)
        m2 = m.with_degrees({e: 2 for e in m.active_ids()})
        for eid in m.active_ids():
            assert m2.facet_neighbors(eid) is m.facet_neighbors(eid)
        # built on the snapshot first, the parent reads the same objects
        m3 = square_mesh(2).with_degrees({0: 3})
        assert m3.facet_neighbors(0) is m3.with_degrees({1: 2}).facet_neighbors(0)

    def test_refined_snapshot_names_new_children(self):
        m = square_mesh(2)
        before = m.facet_neighbors(1)
        m2 = m.refine_element(0)
        after = m2.facet_neighbors(1)
        assert after is not before
        assert {p.neighbor for info in before for p in info.pieces} == {0, 3}
        named = {p.neighbor for info in after for p in info.pieces}
        children = named & set(m2.elements[0].children)
        assert len(children) == 2 and named == {3} | children

    def test_tag_boundary_on_snapshot_leaves_parent(self):
        m = square_mesh(2)
        infos = m.facet_neighbors(0)
        m2 = m.with_degrees({0: 2}).tag_boundary(lambda c: "neumann")
        assert m.facet_neighbors(0) is infos
        assert {info.tag for info in infos if info.kind == "boundary"} == {DIRICHLET}
        assert {info.tag for info in m2.facet_neighbors(0)
                if info.kind == "boundary"} == {"neumann"}


class TestIO:
    def test_text_roundtrip(self, tmp_path):
        # the flat text format carries active cells only, so conforming meshes
        # round-trip; hanging interfaces would need the refinement tree
        m = distorted_quad_mesh(degree=3)
        m = m.uniformly_refined()
        path = os.path.join(tmp_path, "mesh.txt")
        m.write_text(path)
        m2 = Mesh.read_text(path)
        assert len(m2.active_ids()) == len(m.active_ids())
        assert abs(m2.total_volume() - m.total_volume()) < 1e-12
        degs = sorted(m.elements[e].degree for e in m.active_ids())
        degs2 = sorted(m2.elements[e].degree for e in m2.active_ids())
        assert degs == degs2
        # boundary facet count must match
        def nb(mm):
            return sum(1 for e in mm.active_ids()
                       for info in mm.facet_neighbors(e) if info.kind == "boundary")
        assert nb(m) == nb(m2)

    def test_vtk_structure(self, tmp_path):
        m = square_mesh(2).refine_element(0)
        path = os.path.join(tmp_path, "mesh.vtk")
        m.write_vtk(path, cell_data={"deg": [e for e in range(len(m.active_ids()))]})
        text = open(path).read().splitlines()
        assert text[0].startswith("# vtk DataFile")
        npts = int([ln for ln in text if ln.startswith("POINTS")][0].split()[1])
        assert npts == len(m.vertices)
        cells_line = [ln for ln in text if ln.startswith("CELLS")][0]
        assert int(cells_line.split()[1]) == len(m.active_ids())
        types = [ln for ln in text if ln.startswith("CELL_TYPES")]
        assert types
