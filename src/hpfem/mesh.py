"""Meshes of transformed hexahedra (d = 1, 2, 3): multilinear element maps,
dividing-point refinement with 1-irregular hanging nodes, facet adjacency, and
plain-text / VTK input-output.

Storage
-------
A `Mesh` keeps no per-element records: its hierarchy is a set of read-only
columns indexed by element id, which every module reads directly. ``root``,
``level``, ``degree`` and ``parent`` (n,), parent -1 on a root; ``first_child``
(n,), -1 on an active element, and the 2^d children of a refined element are
the ids from it on, in the corner order of their position; ``corners``
(n, 2^d), vertex ids in tensor order; ``boxes`` (n, d, 2), the (lo, hi)
interval along each axis of the root's reference element; ``tags`` (n, 2d),
objects, the tag of each boundary facet and None on interior facets; and
``vertices`` (nv, d). Snapshots share the columns they do not change, and a
refinement pass appends its rows and vertices once, at its end.

Geometry conventions
--------------------
Reference element is [-1,1]^d. Corner ordering follows
``polybasis.tensor_indices(1, d)`` (last axis fastest); local facet ``2*k + s``
is the face with reference coordinate x_k = -1 (s = 0) or +1 (s = 1). Every
element tracks its reference box inside its root element, so facet adjacency
between descendants of a common ancestor uses exact float comparisons.
"""

import copy
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polybasis import (tensor_gauss, tensor_indices, tensor_shape_eval,
                        tensor_shape_hessian)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_VTK_CELL = {1: (3, [0, 1]), 2: (9, [0, 2, 3, 1]), 3: (12, [0, 4, 6, 2, 1, 5, 7, 3])}


def _lines(fmt, rows):
    """One line of the %-format fmt per row of rows (n, k) or per entry of
    rows (n,), in one format operation."""
    rows = np.asarray(rows)
    return ((fmt + "\n") * len(rows)) % tuple(rows.ravel().tolist())


def _padded(rows):
    """Rows (n, k) padded with zero columns to three entries, as VTK's points
    and vectors are."""
    return np.column_stack([rows, np.zeros((len(rows), max(0, 3 - rows.shape[1])))])


@lru_cache(maxsize=None)
def corner_bits(dim):
    """Rows of {0,1}^d in corner order (read-only)."""
    return tensor_indices(1, dim)


def corner_row(bits):
    """Corner rows (in corner_bits order) of bit rows (..., d)."""
    bits = np.asarray(bits, dtype=np.intp)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


@lru_cache(maxsize=None)
def facet_corner_rows(dim):
    """Corner rows (2d, 2^(d-1)) of each local facet, in the facet's own
    tensor order (read-only)."""
    bits = corner_bits(dim)
    out = np.array([np.nonzero(bits[:, f // 2] == f % 2)[0]
                    for f in range(2 * dim)], dtype=np.intp)
    out.setflags(write=False)
    return out


def vertex_tables(xhat, second=False):
    """The multilinear vertex functions (the degree-1 tensor shapes) at
    reference points xhat: values (..., 2^d), gradients (..., 2^d, d) and,
    with second=True, second derivatives (..., 2^d, d, d). Points (m, d)
    shared by many maps are read from the reference-table cache; point sets
    (n, m, d), one per map, are one-off and evaluated by the undecorated
    builders, outside the cache."""
    x = np.asarray(xhat, dtype=float)
    d = x.shape[-1]
    bits = corner_bits(d)
    if x.ndim == 2:
        out = tensor_shape_eval(x, bits)
        return out + (tensor_shape_hessian(x, bits),) if second else out
    flat = x.reshape(-1, d)
    out = tensor_shape_eval.__wrapped__(flat, bits)
    if second:
        out += (tensor_shape_hessian.__wrapped__(flat, bits),)
    return tuple(t.reshape(x.shape[:-1] + t.shape[1:]) for t in out)


def map_points(corners, xhat):
    """Images of reference points under multilinear maps. corners is a corner
    array (n, 2^d, d) or one element's corners (2^d, d); xhat is (m, d),
    shared by the maps, or (n, m, d), one point set per map. Returns
    (n, m, d), or (m, d) for one element."""
    vals, _ = vertex_tables(xhat)
    return vals @ corners


def map_jacobians(corners, xhat):
    """Jacobians dF/dxhat (n, m, d, d), or (m, d, d) for one element, of the
    maps of corners at reference points xhat, as in `map_points`."""
    _, grads = vertex_tables(xhat)
    return np.swapaxes(corners, -1, -2)[..., None, :, :] @ grads


def map_hessians(corners, xhat):
    """Second derivatives d2F_c / dxhat_a dxhat_b (n, m, d, d, d), indexed
    [..., c, a, b], of the maps of corners, as in `map_points`."""
    _, _, hess = vertex_tables(xhat, second=True)
    d = corners.shape[-1]
    out = np.swapaxes(corners, -1, -2)[..., None, :, :] @ hess.reshape(
        hess.shape[:-2] + (d * d,))
    return out.reshape(out.shape[:-1] + (d, d))


@lru_cache(maxsize=None)
def _facet_axes(dim):
    """The in-facet axes (d, d-1) of the facets normal to each axis k: the
    other axes, ascending (read-only)."""
    out = np.nonzero(~np.eye(dim, dtype=bool))[1].reshape(dim, dim - 1)
    out.setflags(write=False)
    return out


def facet_measure(J, f):
    """Surface factor dS and unit outward normal of a local facet at points
    with map Jacobians J (..., d, d); f is one facet, or one per row of J.

    Nanson's formula: for the facet x_k = -1 (s = 0) or +1 (s = 1), the
    outward normal times dS is sign(det J) (2s - 1) cof(J) e_k. The cofactor
    column cof(J) e_k is the cross product of the columns k + 1 and k + 2
    (mod 3) of J in 3D, the rotated other column in 2D and 1 in 1D."""
    f = np.asarray(f)
    if f.ndim:
        f = f.reshape(f.shape + (1,) * (J.ndim - 2 - f.ndim))
    k, s = np.divmod(f, 2)
    d = J.shape[-1]
    # the columns k, k + 1, ..., k + d - 1 (mod d) of J, per row if f is
    at = (k[..., None] + np.arange(d)) % d
    C = np.take_along_axis(J, at[..., None, :], axis=-1) if f.ndim else J[..., at]
    if d == 1:
        N = np.ones(J.shape[:-1])
    elif d == 2:
        N = (1 - 2 * k)[..., None] * np.stack([C[..., 1, 1], -C[..., 0, 1]], axis=-1)
    else:
        N = np.cross(C[..., 1], C[..., 2])
    det = (C[..., 0] * N).sum(axis=-1)
    dS = np.linalg.norm(N, axis=-1)
    return dS, N / dS[..., None] * ((2 * s - 1) * np.sign(det))[..., None]


def point_set_diameters(x):
    """Largest distance between two of the points of each set x (n, k, d)."""
    diff = x[:, :, None, :] - x[:, None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1)).max(axis=(1, 2))


def positions_of(act, eids):
    """The positions of element ids eids (one or an array) in the ascending
    active ids act; ValueError naming the first id that is not active."""
    pos = np.searchsorted(act, eids)
    bad = np.asarray(act)[np.minimum(pos, len(act) - 1)] != eids
    if np.any(bad):
        raise ValueError(f"element {np.ravel(eids)[np.ravel(bad)][0]} is not active")
    return pos


def require_dirichlet(mesh):
    """ValueError unless an active facet of mesh is tagged Dirichlet."""
    if not np.equal(mesh.tags[mesh.active_ids()], DIRICHLET).any():
        raise ValueError("no Dirichlet boundary: the system is singular")


def is_affine(corners, tol=1e-12):
    """Whether the maps of a corner array (n, 2^d, d), or of one element's
    corners (2^d, d), have constant Jacobians (parallelotopes)."""
    corners = np.asarray(corners, dtype=float)
    J = map_jacobians(corners, 2.0 * corner_bits(corners.shape[-1]) - 1.0)
    scale = np.maximum(np.abs(J).max(axis=(-3, -2, -1)), 1e-300)
    return np.abs(J - J[..., :1, :, :]).max(axis=(-3, -2, -1)) <= tol * scale


def check_det_affine(corners):
    """Whether det(dF) of the maps of a corner array (n, 2^d, d), or of one
    element's corners (2^d, d), is multilinear: sampled on the tensor grid of
    4 Gauss points per direction, it must match its least-squares multilinear
    fit to 1e-12 relative to its largest value."""
    corners = np.asarray(corners, dtype=float)
    d = corners.shape[-1]
    pts, _ = tensor_gauss(4, d)
    det = np.linalg.det(map_jacobians(corners, pts)).T
    basis, _ = tensor_shape_eval(pts, corner_bits(d))
    coef, *_ = np.linalg.lstsq(basis, det, rcond=None)
    resid = np.abs(basis @ coef - det).max(axis=0)
    return resid <= 1e-12 * np.maximum(np.abs(det).max(axis=0), 1e-300)


RELATIONS = ("equal", "coarse_nb", "fine_nb")


@dataclass(frozen=True)
class FacetTable:
    """The facet interfaces of one mesh topology as arrays, built by
    `Mesh.facet_table` in one pass; `Mesh.facet_neighbors` gives an element's
    rows. Elements are named by their position in ``act``, the active ids.

    Interior rows, one per matched facet piece, in sweep order (element
    position, facet, neighbor position): ``el``, ``facet``, ``nb`` and
    ``nb_facet``; ``my_box``/``nb_box`` (n, d-1, 2), the (lo, hi) intervals
    of the piece over the in-facet axes in each element's own reference
    coordinates; ``perm``/``flip`` (n, d-1), the in-facet axis position of
    this element that provides each position of the neighbor's, and whether
    it runs reversed; ``relation``, an index into RELATIONS: 'equal',
    'coarse_nb' (the neighbor is coarser) or 'fine_nb'; ``twin``, the row of
    the same piece seen from the neighbor.

    Boundary rows, one per boundary facet: ``b_el``, ``b_facet``, ``b_tag``.
    """

    act: np.ndarray
    el: np.ndarray
    facet: np.ndarray
    nb: np.ndarray
    nb_facet: np.ndarray
    my_box: np.ndarray
    nb_box: np.ndarray
    perm: np.ndarray
    flip: np.ndarray
    relation: np.ndarray
    twin: np.ndarray
    b_el: np.ndarray
    b_facet: np.ndarray
    b_tag: list

    def coords(self, rows, xi):
        """Matched in-facet coordinates (t_mine, t_nb), each (n, m, d-1), on
        both sides of the pieces of rows, at unit-box points xi (m, d-1) over
        each piece, in each element's own facet frame."""
        return _matched_coords(self.my_box[rows], self.nb_box[rows],
                               self.perm[rows], self.flip[rows], xi)


def _frozen(a):
    a.setflags(write=False)
    return a


class Mesh:
    """Hierarchy of transformed hexahedra, as the columns of the module
    docstring. ``refine_element``, ``refine_many``, ``uniformly_refined`` and
    ``with_degrees`` return new snapshots; only ``tag_boundary`` acts in
    place, by replacing the tag column."""

    def __init__(self, dim, vertices, root_pairing, vertex_registry, **columns):
        self.dim = dim
        self.vertices = _frozen(vertices)
        for name in ("root", "level", "degree", "parent", "first_child",
                     "corners", "boxes", "tags"):
            setattr(self, name, _frozen(columns[name]))
        # per (root, local facet): the paired root and its facet (-1 where
        # none), and the perm and flip of `_pair_root_facets`; read-only
        self._root_pairing = root_pairing
        self._vreg = vertex_registry
        # a one-slot holder of the facet table, shared by degree snapshots,
        # so that whichever of them reads it first builds it for all
        self._facets = [None]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_arrays(cls, vertices, cells, dim=None, degrees=1, boundary=None,
                    default_tag=DIRICHLET):
        """Build a root mesh.

        vertices: (nv, d); cells: (ne, 2^d) corner ids in tensor order;
        degrees: one degree, or one per cell; boundary: optional list of
        (vertex_id_tuple, tag) for boundary facets.
        """
        vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        if dim is None:
            dim = vertices.shape[1]
        corners = np.asarray(cells, dtype=np.intp).reshape(-1, 2**dim)
        n = len(corners)
        ids = corners[:, facet_corner_rows(dim)].reshape(n * 2 * dim, -1)
        pairing, single = _pair_root_facets(ids, dim)
        tag_lookup = {frozenset(int(v) for v in vids): tag
                      for vids, tag in boundary or ()}
        tags = np.full(n * 2 * dim, None, dtype=object)
        tags[single] = [tag_lookup.get(frozenset(vids), default_tag)
                        for vids in ids[single].tolist()]
        vreg = {_vkey(v): i for i, v in enumerate(vertices)}
        return cls(dim, vertices, pairing, vreg,
                   root=np.arange(n), level=np.zeros(n, dtype=np.intp),
                   degree=np.broadcast_to(np.asarray(degrees, dtype=np.intp), n).copy(),
                   parent=np.full(n, -1), first_child=np.full(n, -1),
                   corners=corners, boxes=np.tile([-1.0, 1.0], (n, dim, 1)),
                   tags=tags.reshape(n, 2 * dim))

    # -- basic queries -------------------------------------------------------

    def active_ids(self):
        return np.flatnonzero(self.first_child < 0).tolist()

    def corner_array(self, eids):
        """Corner coordinates (n, 2^d, d) of elements eids, in tensor order."""
        return self.vertices[self.corners[np.asarray(eids, dtype=np.intp)]]

    def with_degrees(self, degrees):
        """New snapshot with per-active-element degrees (dict eid -> p). It
        shares this mesh's facet table, which holds no degree."""
        degree = self.degree.copy()
        degree[list(degrees)] = [int(p) for p in degrees.values()]
        m = copy.copy(self)
        m.degree = _frozen(degree)
        return m

    def tag_boundary(self, tagger):
        """Retag every boundary facet using tagger(facet centroid) -> tag."""
        tags = self.tags.copy()
        eid, f = np.nonzero(np.not_equal(tags, None))
        ids = self.corners[eid[:, None], facet_corner_rows(self.dim)[f]]
        for e, g, centroid in zip(eid, f, self.vertices[ids].mean(axis=1)):
            tags[e, g] = tagger(centroid)
        self.tags = _frozen(tags)
        # a fresh table: degree snapshots may share the old one
        self._facets = [None]
        return self

    def total_volume(self):
        pts, wts = tensor_gauss(3, self.dim)
        J = map_jacobians(self.corner_array(self.active_ids()), pts)
        return float((np.linalg.det(J) @ wts).sum())

    # -- refinement ----------------------------------------------------------

    def refine_element(self, eid, zhat=None):
        """New snapshot with element eid refined at dividing point zhat: the
        one-element view of `refine_many`."""
        if self.first_child[eid] >= 0:
            raise ValueError(f"element {eid} already refined")
        return self.refine_many([eid], None if zhat is None else [zhat])

    def refine_many(self, eids, zhat=None):
        """New snapshot with the elements eids that are still active when
        their turn comes refined, in order, in one pass: at the centre
        (zhat None) or at the dividing point zhat[i] (d,) of eids[i]. The
        closure keeps the mesh 1-irregular by level: before an element is
        split, its active facet neighbors of a lower level are refined, depth
        first, in facet and piece order, read from this snapshot's facet table
        (children made by the pass are never of a lower level than their
        neighbors). The pass splits the elements, at the same points and in
        the same order, that one `refine_element` call per element, skipping
        those already refined, splits, so both give the same snapshot as long
        as every snapshot between them is nested."""
        d = self.dim
        if zhat is None:
            points = [np.zeros(d)] * len(eids)
        elif len(zhat) == len(eids):
            points = [np.asarray(z, dtype=float) for z in zhat]
        else:
            raise ValueError(f"{len(zhat)} dividing points for {len(eids)} elements")
        for eid, z in zip(eids, points):
            if z.shape != (d,) or not np.all(np.abs(z) < 1.0):  # NaN fails too
                raise ValueError(f"dividing point of element {eid} must be {d} "
                                 "coordinates strictly inside it, in (-1, 1)")
        tab = self.facet_table()
        first = self.first_child.copy()
        split = []  # (eid, dividing point), in the order of the splits

        def refine(eid, z):
            rows, _ = self.facet_neighbors(eid)
            for r in range(rows.start, rows.stop):
                nb = int(tab.act[tab.nb[r]])
                if first[nb] < 0 and self.level[nb] < self.level[eid]:
                    refine(nb, _closure_point(tab.nb_box[r], tab.nb_facet[r]))
            first[eid] = len(first) + len(split) * 2**d
            split.append((eid, z))

        for eid, z in zip(eids, points):
            if first[eid] < 0:
                refine(eid, z)
        return self._split(first, split)

    def uniformly_refined(self):
        return self.refine_many(self.active_ids())

    def _split(self, first_child, split):
        """New snapshot with the elements of split, (eid, dividing point)
        pairs, replaced by their 2^d children, appended in split order, with
        the first children first_child. The new vertices of the 3^d grid of
        each split are mapped from the root element in one stacked product,
        one (1, 2^d) by (2^d, d) product per point as a one-point map would
        take it, and registered in split order."""
        d, nc = self.dim, 2**self.dim
        eid = np.array([e for e, _ in split], dtype=np.intp)
        z = np.array([z for _, z in split], dtype=float).reshape(-1, d)
        lo, hi = self.boxes[eid, :, 0], self.boxes[eid, :, 1]
        coords = np.stack([lo, lo + 0.5 * (z + 1.0) * (hi - lo), hi], axis=-1)
        # the grid in root reference coordinates, 3 per axis, last axis fastest
        grid = np.array(list(itertools.product(range(3), repeat=d)), dtype=np.intp)
        axes = np.arange(d)
        ref = coords[:, axes, grid]
        ids = np.empty((len(eid), 3**d), dtype=np.intp)
        outer = (grid != 1).all(axis=1)
        ids[:, outer] = self.corners[eid]
        inner = np.flatnonzero(~outer)
        pts = ref[:, inner].reshape(-1, d)
        roots = np.repeat(self.root[eid], len(inner))
        xs = vertex_tables(pts[:, None])[0] @ self.corner_array(roots)
        vreg, new, nv = dict(self._vreg), [], len(self.vertices)
        vid = np.empty(len(xs), dtype=np.intp)
        for k, x in enumerate(xs[:, 0]):
            key = _vkey(x)
            if key not in vreg:
                vreg[key] = nv + len(new)
                new.append(x)
            vid[k] = vreg[key]
        ids[:, inner] = vid.reshape(len(eid), len(inner))
        # corner c of child b is grid point b + c, and child b keeps the
        # parent's tags on the facets it shares with the parent
        bits = corner_bits(d)
        at = (bits[:, None, :] + bits[None, :, :]) @ 3 ** axes[::-1]
        keep = np.arange(2 * d) % 2 == bits[:, np.arange(2 * d) // 2]

        def kids(col):
            return np.repeat(col[eid], nc, axis=0)

        return Mesh(
            d, np.concatenate([self.vertices, np.reshape(new, (-1, d))]),
            self._root_pairing, vreg,
            root=np.concatenate([self.root, kids(self.root)]),
            level=np.concatenate([self.level, kids(self.level) + 1]),
            degree=np.concatenate([self.degree, kids(self.degree)]),
            parent=np.concatenate([self.parent, np.repeat(eid, nc)]),
            first_child=np.concatenate([first_child, np.full(len(eid) * nc, -1)]),
            corners=np.concatenate([self.corners, ids[:, at].reshape(-1, nc)]),
            boxes=np.concatenate([self.boxes, np.stack(
                [coords[:, axes, bits], coords[:, axes, bits + 1]], axis=-1)
                .reshape(-1, d, 2)]),
            tags=np.concatenate([self.tags, np.where(
                keep, self.tags[eid][:, None, :], None).reshape(-1, 2 * d)]))

    # -- adjacency -----------------------------------------------------------

    def facet_table(self):
        """The `FacetTable` of this topology, built on first use."""
        if self._facets[0] is None:
            self._facets[0] = _facet_table(self)
        return self._facets[0]

    def facet_neighbors(self, eid):
        """The interior rows and the boundary rows of active element eid in
        the facet table, as two slices; ValueError if eid is not active."""
        tab = self.facet_table()
        i = int(positions_of(tab.act, eid))
        return (slice(*np.searchsorted(tab.el, [i, i + 1]).tolist()),
                slice(*np.searchsorted(tab.b_el, [i, i + 1]).tolist()))

    def facet_embed(self, f, t_facet):
        """Embed in-facet coordinates (m, d-1) into element reference coords
        (m, d). f is one local facet, or one per row of in-facet coordinates
        (n, m, d-1)."""
        t = np.asarray(t_facet, dtype=float)
        f = np.asarray(f)
        if f.ndim == 0:
            t = np.atleast_2d(t)
        k, s = np.divmod(f.reshape(f.shape + (1,) * (t.ndim - 1 - f.ndim)), 2)
        out = np.empty(t.shape[:-1] + (self.dim,))
        np.put_along_axis(out, _facet_axes(self.dim)[k], t, axis=-1)
        np.put_along_axis(out, k[..., None], 2.0 * s[..., None] - 1.0, axis=-1)
        return out

    # -- IO -------------------------------------------------------------------

    def write_text(self, path):
        """The vertices, the active elements (corner ids and degree) and the
        tagged facets (corner ids and tag) as text, one line each, with
        coordinates in %.17g; each section is formatted in one operation."""
        d = self.dim
        act = np.array(self.active_ids(), dtype=np.intp)
        tags = self.tags[act]
        i, f = np.nonzero(np.not_equal(tags, None))
        ids = self.corners[act[i][:, None], facet_corner_rows(d)[f]]
        facets = np.empty((len(i), ids.shape[1] + 1), dtype=object)
        facets[:, :-1], facets[:, -1] = ids, tags[i, f]
        text = [f"# hpfem mesh, dim = {d}\nVERTICES\n",
                _lines(" ".join(["%.17g"] * d), self.vertices),
                "ELEMENTS\n",
                _lines(" ".join(["%d"] * (2 ** d + 1)),
                       np.column_stack([self.corners[act], self.degree[act]])),
                "BOUNDARY\n",
                _lines(" ".join(["%d"] * ids.shape[1] + ["%s"]), facets)]
        with open(path, "w") as fh:
            fh.write("".join(text))

    @classmethod
    def read_text(cls, path):
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        dim = None
        if lines and lines[0].startswith("#"):
            head = lines.pop(0)
            if "dim" in head:
                dim = int(head.split("=")[-1])
        section = None
        verts, cells, degs, bnd = [], [], [], []
        for ln in lines:
            if ln in ("VERTICES", "ELEMENTS", "BOUNDARY"):
                section = ln
                continue
            parts = ln.split()
            if section == "VERTICES":
                verts.append([float(x) for x in parts])
            elif section == "ELEMENTS":
                nums = [int(x) for x in parts]
                nv = 2 ** (dim if dim is not None else len(verts[0]))
                cells.append(nums[:nv])
                degs.append(nums[nv] if len(nums) > nv else 1)
            elif section == "BOUNDARY":
                bnd.append((tuple(int(x) for x in parts[:-1]), parts[-1]))
        verts = np.array(verts)
        if dim is None:
            dim = verts.shape[1]
        return cls.from_arrays(verts, cells, dim=dim, degrees=degs, boundary=bnd)

    def write_vtk(self, path, cell_data=None, point_data=None):
        """VTK legacy ASCII export of the active mesh, with values in %.17g;
        each block of lines is formatted in one operation.

        cell_data: dict name -> array over active elements;
        point_data: dict name -> (nv,) or (nv, k) array over vertices.
        """
        d = self.dim
        vtk_type, order = _VTK_CELL[d]
        act = self.active_ids()
        ncell = len(act)
        npts = 2**d
        nv = len(self.vertices)
        text = ["# vtk DataFile Version 3.0\nhpfem export\nASCII\n"
                "DATASET UNSTRUCTURED_GRID\n"
                f"POINTS {nv} double\n",
                _lines("%.17g %.17g %.17g", _padded(self.vertices)),
                f"CELLS {ncell} {ncell * (npts + 1)}\n",
                _lines(" ".join([str(npts)] + ["%d"] * npts),
                       self.corners[act][:, order]),
                f"CELL_TYPES {ncell}\n", f"{vtk_type}\n" * ncell]
        if cell_data:
            text.append(f"CELL_DATA {ncell}\n")
            for name, arr in cell_data.items():
                text += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                         _lines("%.17g", np.asarray(arr, dtype=float))]
        if point_data:
            text.append(f"POINT_DATA {nv}\n")
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 1:
                    text += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                             _lines("%.17g", arr)]
                else:
                    arr = _padded(arr)
                    text += [f"VECTORS {name} double\n",
                             _lines(" ".join(["%.17g"] * arr.shape[1]), arr)]
        with open(path, "w") as fh:
            fh.write("".join(text))


# -- helpers ----------------------------------------------------------------

def _vkey(x):
    return tuple(round(float(c), 10) for c in np.asarray(x, dtype=float))


def _to_ref(iv, box):
    """Map root-frame intervals iv (..., 2) into the reference frames of
    element boxes (..., 2) along the same axes."""
    lo = box[..., :1]
    return 2.0 * (iv - lo) / (box[..., 1:] - lo) - 1.0


def _facet_table(mesh):
    """The `FacetTable` of a mesh, in one pass over the facets of its active
    elements. Every facet has a home key (root, local facet, plane
    coordinate); every facet that is not on the boundary looks for the home
    keys of a target: the opposite facet on the same plane of its root, or,
    on a root facet paired with another root's, that root's paired facet,
    with the facet's intervals mapped through the pairing's perm and flip.
    Keys are joined by sorting, and the pairs that overlap by more than
    1e-14 along every in-facet axis are the pieces. A partial overlap
    raises ValueError."""
    d, nf = mesh.dim, 2 * mesh.dim
    act = np.flatnonzero(mesh.first_child < 0)
    n = len(act)
    root, box, tags = mesh.root[act], mesh.boxes[act], mesh.tags[act].ravel()
    inner = np.equal(tags, None)
    axes = _facet_axes(d)
    # every facet (i, f) of an active element, and its intervals
    i, f = np.repeat(np.arange(n), nf), np.tile(np.arange(nf), n)
    plane = box[i, f // 2, f % 2]
    iv = box[i[:, None], axes[f // 2]]
    # the targets of the interior facets t, in the target's root frame
    t = np.nonzero(inner)[0]
    nb_root, nb_facet, perm, flip = (a[root[i[t]], f[t]] for a in mesh._root_pairing)
    cross = (np.abs(plane[t]) == 1.0) & (nb_root >= 0)
    t_root = np.where(cross, nb_root, root[i[t]])
    t_facet = np.where(cross, nb_facet, f[t] ^ 1)
    t_plane = np.where(cross, 2.0 * (nb_facet % 2) - 1.0, plane[t])
    perm = np.where(cross[:, None], perm, np.arange(d - 1))
    flip = cross[:, None] & flip
    tr = np.take_along_axis(iv[t], perm[:, :, None], axis=1)
    tr = np.where(flip[:, :, None], -tr[:, :, ::-1], tr)
    # join target keys to home keys; within a key, homes in element order
    planes, code = np.unique(np.concatenate([plane, t_plane]), return_inverse=True)
    key = ((np.concatenate([root[i], t_root]) * nf + np.concatenate([f, t_facet]))
           * len(planes) + code.ravel())
    home, want = key[:len(f)], key[len(f):]
    order = np.argsort(home, kind="stable")
    first = np.searchsorted(home[order], want)
    count = np.searchsorted(home[order], want, side="right") - first
    pt = np.repeat(np.arange(len(t)), count)
    ph = order[np.repeat(first - np.cumsum(count) + count, count)
               + np.arange(count.sum())]
    ov = np.stack([np.maximum(tr[pt, :, 0], iv[ph, :, 0]),
                   np.minimum(tr[pt, :, 1], iv[ph, :, 1])], axis=2)
    hit = (ov[:, :, 1] - ov[:, :, 0] > 1e-14).all(axis=1)
    pt, ph, ov = pt[hit], ph[hit], ov[hit]
    el, facet, nb, nbf = i[t[pt]], f[t[pt]], i[ph], f[ph]
    perm, flip = perm[pt], flip[pt]
    # the overlap in each element's own reference coordinates
    nb_box = _to_ref(ov, box[nb[:, None], axes[nbf // 2]])
    inv = np.argsort(perm, axis=1)
    back = np.take_along_axis(ov, inv[:, :, None], axis=1)
    back = np.where(np.take_along_axis(flip, inv, axis=1)[:, :, None],
                    -back[:, :, ::-1], back)
    my_box = _to_ref(back, box[el[:, None], axes[facet // 2]])
    full = 2.0 ** (d - 1) - 1e-12
    my_full = np.prod(my_box[:, :, 1] - my_box[:, :, 0], axis=1) >= full
    nb_full = np.prod(nb_box[:, :, 1] - nb_box[:, :, 0], axis=1) >= full
    if not (my_full | nb_full).all():
        raise ValueError("non-nested facet overlap; dividing points of "
                         "neighboring refinements are incompatible")
    relation = np.where(my_full, np.where(nb_full, 0, 1), 2)
    # rows are sorted by this code, so the twin's code finds the twin
    code = ((el * nf + facet) * n + nb) * nf + nbf
    twin = np.searchsorted(code, ((nb * nf + nbf) * n + el) * nf + facet)
    b = np.nonzero(~inner)[0]
    return FacetTable(act=act, el=el, facet=facet, nb=nb, nb_facet=nbf,
                      my_box=my_box, nb_box=nb_box, perm=perm, flip=flip,
                      relation=relation, twin=twin, b_el=i[b], b_facet=f[b],
                      b_tag=tags[b].tolist())


def _matched_coords(my_box, nb_box, perm, flip, xi):
    """Matched in-facet coordinates (t_mine, t_nb), each (n, m, d-1), of n
    facet pieces with boxes (n, d-1, 2), perms and flips (n, d-1) at unit-box
    points xi (m, d-1) over each piece."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    lo, hi = my_box[:, None, :, 0], my_box[:, None, :, 1]
    t_mine = lo + 0.5 * (xi + 1.0) * (hi - lo)
    src = np.swapaxes(xi[:, perm], 0, 1)
    src = np.where(flip[:, None, :], -src, src)
    lo, hi = nb_box[:, None, :, 0], nb_box[:, None, :, 1]
    return t_mine, lo + 0.5 * (src + 1.0) * (hi - lo)


def _closure_point(nb_box, nb_facet):
    """The dividing point at which the closure refines the neighbor of a
    facet piece with neighbor box nb_box (d-1, 2) on the neighbor's facet
    nb_facet: the centre along that facet's normal and, along each in-facet
    axis, the end of the refining element's facet that lies strictly inside
    the neighbor's facet (0 where neither does). It continues the element's
    dividing lines, so the children's facets match the element's instead of
    overlapping them."""
    lo, hi = nb_box[:, 0], nb_box[:, 1]
    z = np.where(np.abs(lo) < 1.0, lo, np.where(np.abs(hi) < 1.0, hi, 0.0))
    return np.insert(z, nb_facet // 2, 0.0)


def _pair_root_facets(ids, dim):
    """`Mesh._root_pairing` of the root facets with corner ids ids (row
    root * 2d + local facet, in the facet's tensor order), and the rows no
    other root shares. Facets match by their sorted ids; perm[j] is the axis
    of this facet that runs along axis j of the neighbor's, and flip[j]
    whether it runs backwards. ValueError unless each step along an axis
    from a facet's first corner is one step along one axis of its pair's."""
    nf, r, m = 2 * dim, dim - 1, len(ids)
    key = np.sort(ids, axis=1)
    order = np.lexsort(key.T[::-1])
    start = np.flatnonzero(np.r_[True, (key[order[1:]] != key[order[:-1]]).any(axis=1)])
    size = np.diff(np.r_[start, m])
    if (size > 2).any():
        raise ValueError("facet shared by more than two root elements")
    a, b = order[start[size == 2]], order[start[size == 2] + 1]
    x, y = np.r_[a, b], np.r_[b, a]
    # the bits of each corner of x's facet in the tensor order of y's facet
    at = (ids[x][:, :, None] == ids[y][:, None, :]).argmax(axis=2)
    bits = (at[:, :, None] >> np.arange(r - 1, -1, -1)) & 1
    steps = bits[:, 1 << np.arange(r - 1, -1, -1)] != bits[:, :1]
    if not ((steps.sum(axis=1) == 1).all() and (steps.sum(axis=2) == 1).all()):
        raise ValueError("root facets are not conforming")
    nb_root, nb_facet = np.full(m, -1, dtype=np.intp), np.zeros(m, dtype=np.intp)
    perm, flip = np.zeros((m, r), dtype=np.intp), np.zeros((m, r), dtype=bool)
    nb_root[x], nb_facet[x], flip[x] = y // nf, y % nf, bits[:, 0] == 1
    p, pa, j = np.nonzero(steps)
    perm[x[p], j] = pa
    return (tuple(_frozen(v.reshape((m // nf, nf) + v.shape[1:]))
                  for v in (nb_root, nb_facet, perm, flip)), order[start[size == 1]])
