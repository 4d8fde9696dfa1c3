import os

import numpy as np
import pytest

from conftest import (ROTATED_CASES, _rotated, distorted_quad_mesh,
                      facet_area_element, is_valid_map, map_dets, map_volume,
                      rotated_roots_mesh, square_mesh)
from hpfem.mesh import (DIRICHLET, NEUMANN, RELATIONS, Mesh, check_det_affine,
                        corner_bits, facet_corner_rows, map_hessians,
                        map_jacobians, map_points)
from hpfem.problems import box_mesh, cube_mesh, interval_mesh, l_shape_mesh


def map_point(corners, xhat):
    """The image (d,) of one reference point under the map of corners."""
    return map_points(corners, np.atleast_2d(xhat))[0]


class TestElementMap:
    def test_unit_square_corners_and_midpoint(self):
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
        np.testing.assert_allclose(map_point(corners, [-1.0, -1.0]), [0, 0])
        np.testing.assert_allclose(map_point(corners, [0.0, 0.0]), [0.5, 0.5])

    def test_stretched_quad_center(self):
        corners = np.array([[0, 0], [0, 1], [2, 0], [2, 1]], float)
        np.testing.assert_allclose(map_point(corners, [0.0, 0.0]), [1.0, 0.5])
        assert abs(map_dets(corners, [0.0, 0.0])[0] - 0.5) < 1e-15

    def test_jacobian_against_fd(self, rng):
        corners = np.array([[0, 0], [0.1, 1.2], [1.1, -0.1], [1.3, 1.0]])
        x = rng.uniform(-0.9, 0.9, (4, 2))
        J = map_jacobians(corners, x)
        h = 1e-7
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd = (map_points(corners, x + e) - map_points(corners, x - e)) / (2 * h)
            np.testing.assert_allclose(J[:, :, a], fd, atol=1e-8)

    def test_hessian_against_fd(self, rng):
        corners = np.array([[0, 0], [0.1, 1.2], [1.1, -0.1], [1.5, 1.4]])
        x = rng.uniform(-0.8, 0.8, (3, 2))
        H = map_hessians(corners, x)
        h = 1e-5
        for a in range(2):
            for b in range(2):
                ea, eb = np.zeros(2), np.zeros(2)
                ea[a] = h
                eb[b] = h
                fd = (map_points(corners, x + ea + eb) - map_points(corners, x + ea - eb)
                      - map_points(corners, x - ea + eb)
                      + map_points(corners, x - ea - eb)) / (4 * h * h)
                np.testing.assert_allclose(H[:, :, a, b], fd, atol=1e-6)

    def test_validity(self):
        assert is_valid_map(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float))
        assert not is_valid_map(np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float))


def det_affine(*corners):
    """check_det_affine of each element's corners, one call each, after
    checking that one call on the stacked corner array gives, element by
    element, the same answers."""
    one = [check_det_affine(c) for c in corners]
    np.testing.assert_array_equal(check_det_affine(np.stack(corners)), one)
    return one


PARALLELOGRAM = np.array([[0, 0], [0.3, 1], [2, 0.1], [2.3, 1.1]])
TRAPEZOID = np.array([[0, 0], [0, 1], [2, 0], [1.5, 1]], float)


class TestDetAffine:
    def test_parallelogram(self):
        assert det_affine(PARALLELOGRAM) == [True]

    def test_trapezoid(self):
        # bilinear maps of any 2D quad have multilinear det J
        assert det_affine(TRAPEZOID, PARALLELOGRAM) == [True, True]

    def test_all_2d_convex_quads(self, rng):
        quads = []
        for _ in range(25):
            base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
            quad = base + rng.uniform(-0.2, 0.2, (4, 2))
            if is_valid_map(quad):
                quads.append(quad)
        assert quads and all(det_affine(*quads))

    def test_generic_hexahedron_not_det_affine(self, rng):
        cube = np.array(
            [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
             [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], float)
        # a single perturbed corner of a parallelepiped is a rank-one update of
        # the map and keeps det J multilinear; a generic hexahedron does not
        pert = cube + rng.uniform(-0.15, 0.15, (8, 3))
        pert[7] += [0.3, 0.25, 0.2]
        assert is_valid_map(pert)
        assert det_affine(cube, pert, cube) == [True, False, True]


class TestRefinement:
    def test_1d_symmetric_split(self):
        m = Mesh.from_arrays(np.array([[0.0], [1.0]]), [[0, 1]], dim=1)
        m2 = m.refine_element(0)
        act = m2.active_ids()
        assert len(act) == 2
        vols = [map_volume(m2.corner_array([e])[0]) for e in act]
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
                corners = m2.corners[eid].tolist()
                if vid in corners:
                    continue
                for f in range(4):
                    ids = _facet_corner_ids(corners, 2, f)
                    a, b = (m2.vertices[i] for i in ids)
                    t = np.dot(v - a, b - a) / np.dot(b - a, b - a)
                    if 1e-9 < t < 1 - 1e-9 and \
                            np.linalg.norm(a + t * (b - a) - v) < 1e-12:
                        hanging.append(vid)
        assert len(set(hanging)) == 1

    def test_dividing_point_off_center(self):
        m = square_mesh(1)
        m2 = m.refine_element(0, zhat=np.array([0.5, -0.25]))
        vols = sorted(map_volume(m2.corner_array([e])[0]) for e in m2.active_ids())
        assert abs(sum(vols) - 1.0) < 1e-12
        # areas: x split at 0.75, y at 0.375
        expect = sorted([0.75 * 0.375, 0.75 * 0.625, 0.25 * 0.375, 0.25 * 0.625])
        np.testing.assert_allclose(vols, expect, atol=1e-12)

    @pytest.mark.parametrize("zhat", [[1.0, 0.0], [np.nan, 0.0], [0.0, np.inf],
                                      [0.25], [0.1, 0.2, 0.3], [[0.1, 0.2]]],
                             ids=["boundary", "nan", "inf", "short", "long", "row"])
    def test_boundary_dividing_point_rejected(self, zhat):
        # on the boundary, not finite, or not one coordinate per axis, as
        # the point of one element or as its point in a list of one per
        # element (where a row of one point is a point of the wrong shape)
        m = square_mesh(1)
        with pytest.raises(ValueError, match="element 0"):
            m.refine_element(0, zhat=np.array(zhat))
        with pytest.raises(ValueError, match="element 0"):
            m.refine_many([0], zhat=[np.array(zhat)])

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [np.nan, 0.0], [0.25],
                                     [0.1, 0.2, 0.3], [[0.1, 0.2]]],
                             ids=["boundary", "nan", "short", "long", "row"])
    def test_per_element_dividing_points(self, bad):
        # one point per element: each element is split at its own point, and
        # a bad point raises naming its element
        m = square_mesh(3)
        eids, pts = [8, 0, 4], [[0.5, -0.25], [-0.3, 0.1], [0.0, 0.0]]
        m2 = m.refine_many(eids, pts)
        for eid, z in zip(eids, pts):
            np.testing.assert_allclose(m2.boxes[m2.first_child[eid], :, 1], z,
                                       rtol=0, atol=1e-15)
        one = m
        for eid, z in zip(eids, pts):
            one = one.refine_element(eid, z)
        for col in ("vertices", "root", "level", "parent", "first_child",
                    "corners", "boxes"):
            np.testing.assert_array_equal(getattr(m2, col), getattr(one, col))
        with pytest.raises(ValueError, match="element 4"):
            m.refine_many(eids, pts[:2] + [bad])
        with pytest.raises(ValueError, match="2 dividing points for 3 elements"):
            m.refine_many(eids, pts[:2])

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
        child = m.first_child[0] + 3
        m = m.refine_element(child)  # neighbors must be refined by closure
        tab = m.facet_table()
        assert set(tab.relation.tolist()) <= set(range(len(RELATIONS)))
        coarse = tab.nb_box[tab.relation == RELATIONS.index("coarse_nb")]
        # one level only: my facet is at least half the neighbor's
        my = np.prod(coarse[:, :, 1] - coarse[:, :, 0], axis=1)
        assert (my >= 2.0 ** (m.dim - 1) / 2 ** (m.dim - 1) - 1e-12).all()

    def test_hanging_node_on_coarse_facet_interior(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        cells = [[0, 3, 1, 4], [1, 4, 2, 5]]
        m = Mesh.from_arrays(verts, cells, dim=2).refine_element(0)
        tab = m.facet_table()
        rows, brows = m.facet_neighbors(1)
        assert 0 not in tab.b_facet[brows]
        on = tab.facet[rows] == 0
        assert on.sum() == 2
        assert (tab.relation[rows][on] == RELATIONS.index("fine_nb")).all()


def _facet_corner_ids(corners, dim, f):
    """Corner vertex ids of local facet f, in the facet's own tensor order."""
    return [corners[r] for r in facet_corner_rows(dim)[f].tolist()]


def _facet_pairing(cell_a, fa, cell_b, fb, dim):
    """In-facet axis correspondence between two conforming root facets, of
    cells with corner ids cell_a and cell_b: for each in-facet position j of
    the neighbor frame, the providing position perm[j] of this frame and a
    flip flag."""
    ids_a = _facet_corner_ids(cell_a, dim, fa)
    ids_b = _facet_corner_ids(cell_b, dim, fb)
    if dim == 1:
        return (), ()
    fbits = corner_bits(dim - 1)
    pos_b = {vid: tuple(fbits[i]) for i, vid in enumerate(ids_b)}
    origin_b = pos_b[ids_a[0]]
    r = dim - 1
    perm = [None] * r
    flip = [bool(origin_b[j]) for j in range(r)]
    for pa in range(r):
        moved_b = pos_b[ids_a[1 << (r - 1 - pa)]]  # the corner one step along pa
        changed = [j for j in range(r) if moved_b[j] != origin_b[j]]
        if len(changed) != 1:
            raise ValueError("root facets are not conforming")
        perm[changed[0]] = pa
    return tuple(perm), tuple(flip)


def _oracle_root_pairing(cells, dim, boundary=None, default_tag=DIRICHLET):
    """The per-root-facet loop that `Mesh.from_arrays` ran before it paired
    root facets in arrays, kept as its oracle: (nb_root, nb_facet, perm,
    flip) and the tags of the root cells with corner ids cells."""
    cells = np.asarray(cells).tolist()
    n, nfacets, r = len(cells), 2 * dim, dim - 1
    tags = np.full((n, nfacets), None, dtype=object)
    nb_root = np.full((n, nfacets), -1, dtype=np.intp)
    nb_facet = np.zeros((n, nfacets), dtype=np.intp)
    perm = np.zeros((n, nfacets, r), dtype=np.intp)
    flip = np.zeros((n, nfacets, r), dtype=bool)
    key_map = {}
    for eid, cell in enumerate(cells):
        for f in range(nfacets):
            key = frozenset(_facet_corner_ids(cell, dim, f))
            key_map.setdefault(key, []).append((eid, f))
    tag_lookup = {frozenset(int(v) for v in ids): tag for ids, tag in boundary or ()}
    for key, entries in key_map.items():
        if len(entries) == 1:
            eid, f = entries[0]
            tags[eid, f] = tag_lookup.get(key, default_tag)
        elif len(entries) == 2:
            (ea, fa), (eb, fb) = entries
            pa, fl = _facet_pairing(cells[ea], fa, cells[eb], fb, dim)
            nb_root[ea, fa], nb_facet[ea, fa] = eb, fb
            nb_root[eb, fb], nb_facet[eb, fb] = ea, fa
            perm[ea, fa], flip[ea, fa] = pa, fl
            perm[eb, fb] = np.argsort(pa)
            flip[eb, fb] = np.asarray(fl, dtype=bool)[perm[eb, fb]]
        else:
            raise ValueError("facet shared by more than two root elements")
    return (nb_root, nb_facet, perm, flip), tags


def _shuffled_corners(mesh, rng):
    """The root cells of mesh, each with its corners in the order of a
    random symmetry of the reference element (a rotation or a mirror)."""
    d = mesh.dim
    return [_rotated(cell, rng.permutation(d), rng.choice([-1, 1], d))
            for cell in mesh.corners.tolist()]


def _strip_3d():
    """Two unit cubes side by side along x: vertices and corner ids."""
    def vid(i, j, k):
        return (i * 2 + j) * 2 + k

    verts = [[i, j, k] for i in range(3) for j in range(2) for k in range(2)]
    cells = [[vid(i + a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
             for i in range(2)]
    return verts, cells


class TestRootPairing:
    """The array pairing of root facets in `Mesh.from_arrays` against the
    per-facet loop it replaced."""

    @staticmethod
    def check(verts, cells, dim, **kwargs):
        m = Mesh.from_arrays(verts, cells, dim=dim, **kwargs)
        want, tags = _oracle_root_pairing(cells, dim, **kwargs)
        for have, ref in zip(m._root_pairing, want, strict=True):
            assert have.dtype == ref.dtype and have.shape == ref.shape
            assert np.array_equal(have, ref)
            assert not have.flags.writeable
        assert m.tags.tolist() == tags.tolist()
        return m

    @pytest.mark.parametrize("mesh", [
        lambda: interval_mesh(3), lambda: square_mesh(4), l_shape_mesh,
        lambda: cube_mesh(2), lambda: cube_mesh(3)])
    def test_matches_oracle(self, mesh):
        m = mesh()
        self.check(m.vertices, m.corners, m.dim)

    @pytest.mark.parametrize("mesh", [
        lambda: square_mesh(4), l_shape_mesh, lambda: cube_mesh(2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotated_and_mirrored_roots_match_oracle(self, mesh, seed):
        m = mesh()
        cells = _shuffled_corners(m, np.random.default_rng(seed))
        nb_root, _, perm, flip = self.check(m.vertices, cells, m.dim)._root_pairing
        assert flip[nb_root >= 0].any()
        assert m.dim == 2 or (perm[nb_root >= 0] != [0, 1]).any()

    def test_boundary_tags_match_oracle(self):
        m = square_mesh(3)
        boundary = [((1, 0), NEUMANN), ((3, 2), "top")]
        self.check(m.vertices, m.corners, 2, boundary=boundary, default_tag="wall")

    def test_facet_shared_by_three_roots_raises(self):
        verts = [[0, 0], [1, 0], [0, 1], [1, 1], [-1, 0], [-1, 1], [2, 0], [2, 1]]
        cells = [[0, 2, 1, 3], [4, 5, 0, 2], [0, 2, 6, 7]]
        with pytest.raises(ValueError, match="more than two root elements"):
            _oracle_root_pairing(cells, 2)
        with pytest.raises(ValueError, match="more than two root elements"):
            Mesh.from_arrays(verts, cells, dim=2)

    def test_twisted_shared_face_raises(self):
        verts, cells = _strip_3d()
        self.check(verts, cells, 3)
        cells[1][2], cells[1][3] = cells[1][3], cells[1][2]
        with pytest.raises(ValueError, match="not conforming"):
            _oracle_root_pairing(cells, 3)
        with pytest.raises(ValueError, match="not conforming"):
            Mesh.from_arrays(verts, cells, dim=3)


class TestNeighbors:
    def test_single_element_all_boundary(self):
        m = square_mesh(1)
        tab = m.facet_table()
        rows, brows = m.facet_neighbors(0)
        assert rows.stop == rows.start
        assert tab.b_facet[brows].tolist() == list(range(4))
        assert tab.b_tag[brows] == [DIRICHLET] * 4

    def test_two_elements_symmetric(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2)
        tab = m.facet_table()
        i01, _ = m.facet_neighbors(0)
        i10, _ = m.facet_neighbors(1)
        assert tab.act[tab.nb[i01]].tolist() == [1]
        assert tab.act[tab.nb[i10]].tolist() == [0]
        # matched quadrature points agree physically
        xi = np.linspace(-0.7, 0.7, 5)[:, None]
        (tm,), (tn,) = tab.coords(i01, xi)
        a = map_points(m.corner_array([0])[0], m.facet_embed(tab.facet[i01][0], tm))
        b = map_points(m.corner_array([1])[0], m.facet_embed(tab.nb_facet[i01][0], tn))
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_parent_facet_lists_child_facets(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2)
        m = m.refine_element(0)
        tab = m.facet_table()
        rows, _ = m.facet_neighbors(1)
        children = set(tab.act[tab.nb[rows]].tolist())
        assert rows.stop - rows.start == 2
        assert children <= set(range(m.first_child[0], m.first_child[0] + 4))

    def test_normals_outward_and_opposite(self, rng):
        m = distorted_quad_mesh()
        tab = m.facet_table()
        for eid in m.active_ids():
            rows, _ = m.facet_neighbors(eid)
            for r in range(rows.start, rows.stop):
                xi = rng.uniform(-1, 1, (3, 1))
                (tm,), (tn,) = tab.coords([r], xi)
                _, nm = facet_area_element(m, eid, tab.facet[r], tm)
                _, nn = facet_area_element(m, tab.act[tab.nb[r]], tab.nb_facet[r], tn)
                np.testing.assert_allclose(nm, -nn, atol=1e-12)


class TestSnapshots:
    def test_degree_snapshot_shares_adjacency(self):
        m = square_mesh(2).refine_element(0)
        tab = m.facet_table()
        assert m.with_degrees({e: 2 for e in m.active_ids()}).facet_table() is tab
        # built on the snapshot first, the parent reads the same table
        m3 = square_mesh(2).with_degrees({0: 3})
        tab = m3.with_degrees({1: 2}).facet_table()
        assert m3.facet_table() is tab

    def test_refined_snapshot_names_new_children(self):
        m = square_mesh(2)
        before = m.facet_table()
        m2 = m.refine_element(0)
        after = m2.facet_table()
        assert after is not before

        def named(mesh):
            tab = mesh.facet_table()
            rows, _ = mesh.facet_neighbors(1)
            return set(tab.act[tab.nb[rows]].tolist())

        assert named(m) == {0, 3}
        children = named(m2) & set(range(m2.first_child[0], m2.first_child[0] + 4))
        assert len(children) == 2 and named(m2) == {3} | children

    @pytest.mark.parametrize("derive", ["refine_many", "with_degrees",
                                        "tag_boundary"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tag_boundary_on_snapshot_leaves_parent(self, d, derive):
        # a snapshot derived from another leaves every column of its source
        # bit-identical, and its facet table too
        m = {1: interval_mesh(2), 2: square_mesh(2), 3: cube_mesh(2)}[d]
        m = m.refine_element(0, np.full(d, 0.25)).with_degrees({1: 2})
        tab = m.facet_table()
        columns = ("vertices", "root", "level", "degree", "parent",
                   "first_child", "corners", "boxes", "tags")
        before = {c: getattr(m, c).copy() for c in columns}
        if derive == "refine_many":
            m2 = m.refine_many(m.active_ids()[:2], [np.full(d, -0.5)] * 2)
            assert len(m2.root) > len(m.root)
        elif derive == "with_degrees":
            m2 = m.with_degrees({e: 3 for e in m.active_ids()})
            assert m2.facet_table() is tab
        else:
            m2 = m.with_degrees({1: 3}).tag_boundary(lambda c: "neumann")
            assert m2.facet_table() is not tab
            assert set(m2.facet_table().b_tag) == {"neumann"}
        for c in columns:
            have, want = getattr(m, c), before[c]
            assert have.shape == want.shape and have.dtype == want.dtype, c
            if c == "tags":
                assert have.tolist() == want.tolist()
            else:
                assert have.tobytes() == want.tobytes(), c
        assert m.facet_table() is tab
        assert set(tab.b_tag) == {DIRICHLET}


def _oracle_facet_neighbors(mesh, eid):
    """The per-element matcher that the facet table replaced, kept as its
    oracle: an index (root, axis, plane) -> [(eid, side)] of the active
    facets, and per facet of element eid the overlaps with the facets on the
    other side of its plane, or on the paired root facet, mapped there
    through the pairing's perm and flip. Returns the pieces, in facet and
    neighbor order, as rows (facet, neighbor, neighbor's facet, my_box,
    nb_box, perm, flip, relation), and the boundary facets as (facet, tag)."""
    d = mesh.dim
    box, root = mesh.boxes, mesh.root.tolist()
    idx = {}
    for e in mesh.active_ids():
        for k in range(d):
            for side in (0, 1):
                idx.setdefault((root[e], k, float(box[e, k, side])), []).append((e, side))
    nb_roots, nb_facets, perms, flips = mesh._root_pairing
    pairings = {(r, f): {"element": int(nb_roots[r, f]), "facet": int(nb_facets[r, f]),
                         "perm": tuple(perms[r, f].tolist()),
                         "flip": tuple(flips[r, f].tolist())}
                for r, f in zip(*np.nonzero(nb_roots >= 0))}

    def to_ref(lo, hi, box_lo, box_hi):
        w = box_hi - box_lo
        return (2.0 * (lo - box_lo) / w - 1.0, 2.0 * (hi - box_lo) / w - 1.0)

    def intersect(iv_a, iv_b):
        out = []
        for (a0, a1), (b0, b1) in zip(iv_a, iv_b):
            lo, hi = max(a0, b0), min(a1, b1)
            if hi - lo <= 1e-14:
                return None
            out.append((lo, hi))
        return out

    def make_piece(f, el, nel, nb_f, my_axes, nb_axes, overlap, perm, flip):
        nb_box = tuple(to_ref(*overlap[j], *box[nel, a])
                       for j, a in enumerate(nb_axes))
        my_box = []
        for p, a in enumerate(my_axes):
            j = perm.index(p)
            lo, hi = overlap[j]
            if flip[j]:
                lo, hi = -hi, -lo
            my_box.append(to_ref(lo, hi, *box[el, a]))
        full = 2.0 ** (d - 1) - 1e-12
        my_full = np.prod([b[1] - b[0] for b in my_box]) >= full
        nb_full = np.prod([b[1] - b[0] for b in nb_box]) >= full
        rel = ("equal" if nb_full else "coarse_nb") if my_full else (
            "fine_nb" if nb_full else "partial")
        return (f, nel, nb_f, tuple(my_box), nb_box, tuple(perm), tuple(flip), rel)

    def interval(e, a):
        return tuple(box[e, a].tolist())

    pieces, boundary = [], []
    for f in range(2 * d):
        k, s = divmod(f, 2)
        if mesh.tags[eid, f] is not None:
            boundary.append((f, mesh.tags[eid, f]))
            continue
        plane = float(box[eid, k, s])
        axes = [a for a in range(d) if a != k]
        my_iv = [interval(eid, a) for a in axes]
        pa = pairings.get((root[eid], f)) if abs(plane) == 1.0 else None
        if pa is None:
            for nb, ns in idx.get((root[eid], k, plane), ()):
                ov = intersect(my_iv, [interval(nb, a) for a in axes])
                if nb != eid and ns != s and ov is not None:
                    pieces.append(make_piece(f, eid, nb, 2 * k + 1 - s, axes, axes, ov,
                                             tuple(range(d - 1)), (False,) * (d - 1)))
        else:
            nk, ns = divmod(pa["facet"], 2)
            nb_axes = [a for a in range(d) if a != nk]
            tr_iv = []
            for j in range(d - 1):
                a, b = my_iv[pa["perm"][j]]
                tr_iv.append((-b, -a) if pa["flip"][j] else (a, b))
            for nb, nss in idx.get((pa["element"], nk, 2.0 * ns - 1.0), ()):
                ov = intersect(tr_iv, [interval(nb, a) for a in nb_axes])
                if nss == ns and ov is not None:
                    pieces.append(make_piece(f, eid, nb, pa["facet"], axes, nb_axes, ov,
                                             pa["perm"], pa["flip"]))
    return pieces, boundary


def _table_rows(m, eid):
    """Element eid's rows of the facet table, read through
    `Mesh.facet_neighbors`, in the form of the oracle."""
    tab = m.facet_table()
    rows, brows = m.facet_neighbors(eid)
    cols = (tab.facet, tab.act[tab.nb], tab.nb_facet, tab.my_box, tab.nb_box,
            tab.perm, tab.flip)
    pieces = [tuple(c[r].tolist() for c in cols) + (RELATIONS[tab.relation[r]],)
              for r in range(rows.start, rows.stop)]
    return pieces, list(zip(tab.b_facet[brows].tolist(), tab.b_tag[brows]))


def _bits(pieces):
    """Piece rows with every box as its bytes, for exact comparison."""
    return [(f, nb, nbf, np.array(mine, dtype=float).tobytes(),
             np.array(theirs, dtype=float).tobytes(), tuple(perm), tuple(flip), rel)
            for f, nb, nbf, mine, theirs, perm, flip, rel in pieces]


def _assert_table_matches_oracle(m):
    """The facet table equals the oracle on every active element, or, where
    the oracle finds a partial overlap, the table build raises."""
    want = {e: _oracle_facet_neighbors(m, e) for e in m.active_ids()}
    if any(pc[-1] == "partial" for pieces, _ in want.values() for pc in pieces):
        with pytest.raises(ValueError, match="non-nested facet overlap"):
            m.facet_table()
        return False
    for eid, (pieces, boundary) in want.items():
        have, have_boundary = _table_rows(m, eid)
        assert _bits(have) == _bits(pieces)
        assert have_boundary == boundary
    tab = m.facet_table()
    assert np.array_equal(tab.twin[tab.twin], np.arange(len(tab.twin)))
    return True


class TestFacetTable:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_refinements_match_oracle(self, d, seed):
        # random active elements refined at the centre or off it, so the
        # closure splits neighbors off-centre; a sequence that asks for a
        # non-nested overlap ends at the table build that finds it
        rng = np.random.default_rng(seed)
        m = {1: lambda: interval_mesh(3), 2: lambda: square_mesh(2),
             3: lambda: cube_mesh(2)}[d]()
        assert _assert_table_matches_oracle(m)
        for _ in range(6 if d < 3 else 3):
            act = m.active_ids()
            eid = act[int(rng.integers(len(act)))]
            off = rng.uniform() < 0.5
            m = m.refine_element(eid, rng.uniform(-0.5, 0.5, d) if off else None)
            if not _assert_table_matches_oracle(m):
                break

    @pytest.mark.parametrize("case", ROTATED_CASES)
    def test_rotated_roots_match_oracle(self, case):
        m = rotated_roots_mesh(*case)
        assert _assert_table_matches_oracle(m)
        # a further refinement off the centre across the rotated facets
        act = m.active_ids()
        assert _assert_table_matches_oracle(
            m.refine_element(act[-1], np.full(m.dim, 0.25)))

    def test_cube_hanging_faces_match_oracle(self):
        assert _assert_table_matches_oracle(cube_mesh(2).refine_many([0, 1, 5, 6]))

    def test_facet_neighbors_slice_the_table(self, rng):
        # the elements' slices cover the rows in order, and the matched
        # coordinates of a slice are those rows of the whole table's
        m = rotated_roots_mesh(3, [1, 2], (2,))
        tab = m.facet_table()
        xi = rng.uniform(-1, 1, (4, 2))
        t_mine, t_nb = tab.coords(slice(None), xi)
        r = b = 0
        for eid in m.active_ids():
            rows, brows = m.facet_neighbors(eid)
            assert (rows.start, brows.start) == (r, b)
            r, b = rows.stop, brows.stop
            tm, tn = tab.coords(rows, xi)
            assert np.array_equal(tm, t_mine[rows])
            assert np.array_equal(tn, t_nb[rows])
        assert (r, b) == (len(tab.el), len(tab.b_el))


def _oracle_box_mesh(n, dim, degree, lo, hi):
    """The per-dimension grid builders that `box_mesh` replaced, kept as its
    oracle (the cube's with the bounds of the other two)."""
    xs = np.linspace(lo, hi, n + 1)
    if dim == 1:
        return Mesh.from_arrays(xs[:, None], [[i, i + 1] for i in range(n)],
                                dim=1, degrees=degree)
    if dim == 2:
        verts = [[x, y] for x in xs for y in xs]

        def vid(i, j):
            return i * (n + 1) + j

        cells = [[vid(i, j), vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)]
                 for i in range(n) for j in range(n)]
        return Mesh.from_arrays(verts, cells, dim=2, degrees=degree)
    verts = [[x, y, z] for x in xs for y in xs for z in xs]

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cells.append([vid(i, j, k), vid(i, j, k + 1),
                              vid(i, j + 1, k), vid(i, j + 1, k + 1),
                              vid(i + 1, j, k), vid(i + 1, j, k + 1),
                              vid(i + 1, j + 1, k), vid(i + 1, j + 1, k + 1)])
    return Mesh.from_arrays(verts, cells, dim=3, degrees=degree)


class TestBoxMesh:
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (-0.3, 2.7)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_per_dimension_builders(self, dim, bounds):
        for n in range(1, 6):
            have = box_mesh(n, dim, 2, *bounds)
            want = _oracle_box_mesh(n, dim, 2, *bounds)
            assert have.vertices.tobytes() == want.vertices.tobytes()
            assert have.vertices.shape == want.vertices.shape
            assert np.array_equal(have.corners, want.corners)
            assert np.array_equal(have.degree, want.degree)
            assert have.tags.tolist() == want.tags.tolist()
        wrapped = {1: interval_mesh, 2: square_mesh, 3: cube_mesh}[dim](3, 2)
        assert wrapped.vertices.tobytes() == box_mesh(3, dim, 2).vertices.tobytes()


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
        degs = sorted(m.degree[m.active_ids()].tolist())
        degs2 = sorted(m2.degree[m2.active_ids()].tolist())
        assert degs == degs2
        # boundary facet count must match
        assert len(m2.facet_table().b_el) == len(m.facet_table().b_el)

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
