"""Meshes of transformed hexahedra (d = 1, 2, 3): multilinear element maps,
dividing-point refinement with 1-irregular hanging nodes, facet adjacency, and
plain-text / VTK input-output.

Geometry conventions
--------------------
Reference element is [-1,1]^d. Corner ordering follows
``polybasis.tensor_indices(1, d)`` (last axis fastest); local facet ``2*k + s``
is the face with reference coordinate x_k = -1 (s = 0) or +1 (s = 1). Every
element tracks its reference box inside its root element, so facet adjacency
between descendants of a common ancestor uses exact float comparisons.
"""

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .polybasis import (gauss_rule, tensor_gauss, tensor_indices,
                        tensor_shape_eval, tensor_shape_hessian)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_VTK_CELL = {1: (3, [0, 1]), 2: (9, [0, 2, 3, 1]), 3: (12, [0, 4, 6, 2, 1, 5, 7, 3])}


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
        out = tensor_shape_eval(x, bits, jmax=1)
        return out + (tensor_shape_hessian(x, bits, jmax=1),) if second else out
    flat = x.reshape(-1, d)
    out = tensor_shape_eval.__wrapped__(flat, bits, jmax=1)
    if second:
        out += (tensor_shape_hessian.__wrapped__(flat, bits, jmax=1),)
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


def facet_measure(J, f):
    """Surface factor dS and unit outward normal of a local facet at points
    with map Jacobians J (..., d, d); f is one facet, or one per row of J.

    Nanson's formula: for the facet x_k = -1 (s = 0) or +1 (s = 1), the
    outward normal times dS is sign(det J) (2s - 1) cof(J) e_k. The cofactor
    column cof(J) e_k is the cross product of the other two columns of J in
    3D, the rotated other column in 2D and 1 in 1D."""
    f = np.asarray(f)
    if f.ndim:
        dS, nrm = np.empty(J.shape[:-2]), np.empty(J.shape[:-1])
        for fv in np.unique(f):
            rows = f == fv
            dS[rows], nrm[rows] = facet_measure(J[rows], fv)
        return dS, nrm
    k, s = divmod(int(f), 2)
    d = J.shape[-1]
    if d == 1:
        N = np.ones(J.shape[:-1])
    elif d == 2:
        N = (1 - 2 * k) * np.stack([J[..., 1, 1 - k], -J[..., 0, 1 - k]], axis=-1)
    else:
        N = np.cross(J[..., :, (k + 1) % 3], J[..., :, (k + 2) % 3])
    det = (J[..., :, k] * N).sum(axis=-1)
    dS = np.linalg.norm(N, axis=-1)
    return dS, N / dS[..., None] * ((2 * s - 1) * np.sign(det))[..., None]


def point_set_diameters(x):
    """Largest distance between two of the points of each set x (n, k, d)."""
    diff = x[:, :, None, :] - x[:, None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1)).max(axis=(1, 2))


class ElementMap:
    """Multilinear map from [-1,1]^d onto a transformed hexahedron."""

    def __init__(self, corners, dim=None):
        corners = np.asarray(corners, dtype=float)
        if dim is None:
            dim = corners.shape[1]
        if corners.shape != (2**dim, dim):
            raise ValueError(f"expected {2**dim} corners of dim {dim}")
        self.dim = dim
        self.corners = corners

    def _at(self, geometry, xhat):
        single = np.asarray(xhat).ndim == 1
        out = geometry(self.corners, np.atleast_2d(xhat))
        return out[0] if single else out

    def map_point(self, xhat):
        """Physical image of reference point(s); shape (d,) or (m, d)."""
        return self._at(map_points, xhat)

    def jacobian(self, xhat):
        """Jacobian dF/dxhat; shape (d, d) or (m, d, d)."""
        return self._at(map_jacobians, xhat)

    def det_jacobian(self, xhat):
        J = self.jacobian(xhat)
        return np.linalg.det(J)

    def hessian(self, xhat):
        """Second derivatives d2F_m / dxhat_a dxhat_b; shape (m, d, d, d)."""
        return map_hessians(self.corners, np.atleast_2d(xhat))

    def volume(self):
        pts, wts = tensor_gauss(3, self.dim)
        return float(wts @ self.det_jacobian(pts))

    def is_valid(self):
        """Positive Jacobian determinant at corners and a 3rd-order Gauss grid."""
        corners_hat = 2.0 * corner_bits(self.dim) - 1.0
        pts, _ = tensor_gauss(3, self.dim)
        det = self.det_jacobian(np.vstack([corners_hat, pts]))
        return bool(np.all(det > 0.0))


def is_affine(corners, tol=1e-12):
    """Whether the maps of a corner array (n, 2^d, d), or of one element's
    corners (2^d, d), have constant Jacobians (parallelotopes)."""
    corners = np.asarray(corners, dtype=float)
    J = map_jacobians(corners, 2.0 * corner_bits(corners.shape[-1]) - 1.0)
    scale = np.maximum(np.abs(J).max(axis=(-3, -2, -1)), 1e-300)
    return np.abs(J - J[..., :1, :, :]).max(axis=(-3, -2, -1)) <= tol * scale


def check_det_affine(emap, n_samples=4, tol=1e-12):
    """True iff det(dF) is reproduced exactly by its multilinear interpolant.

    Sampled on a tensor grid of n_samples >= 4 points per direction; compared
    against the least-squares multilinear fit with relative tolerance tol.
    """
    d = emap.dim
    pts1 = gauss_rule(max(n_samples, 4)).points
    pts = np.array(list(itertools.product(pts1, repeat=d)))
    det = emap.det_jacobian(pts)
    basis, _ = tensor_shape_eval(pts, corner_bits(d), jmax=1)
    coef, *_ = np.linalg.lstsq(basis, det, rcond=None)
    resid = np.abs(basis @ coef - det).max()
    scale = max(np.abs(det).max(), 1e-300)
    return bool(resid <= tol * scale)


@dataclass
class Element:
    eid: int
    root: int
    corners: tuple
    level: int
    degree: int
    box_lo: np.ndarray
    box_hi: np.ndarray
    parent: int | None = None
    child_slot: int | None = None
    children: tuple | None = None
    boundary_tags: list = field(default_factory=list)

    @property
    def active(self):
        return self.children is None


@dataclass(frozen=True)
class FacetPiece:
    """One matched piece of an element facet.

    ``my_box``/``nb_box`` are (lo, hi) interval arrays over the in-facet axes in
    each element's own reference coordinates; ``perm``/``flip`` map in-facet
    axis positions of this element to the neighbor's. ``relation`` is one of
    'equal', 'coarse_nb' (the neighbor is coarser) or 'fine_nb'.
    """

    neighbor: int
    facet: int
    my_box: tuple
    nb_box: tuple
    perm: tuple
    flip: tuple
    relation: str


@dataclass(frozen=True)
class FacetInfo:
    kind: str  # 'boundary' | 'interior'
    tag: str | None = None
    pieces: tuple = ()


class Mesh:
    """Hierarchy of transformed hexahedra. Treated as immutable after build;
    ``refine_element``, ``refine_many``, ``uniformly_refined`` and
    ``with_degrees`` return new snapshots."""

    def __init__(self, dim, vertices, elements, root_pairings, vertex_registry):
        self.dim = dim
        self.vertices = vertices  # list of np.ndarray
        self.elements = elements  # list of Element
        self._root_pairings = root_pairings  # (root,k,s) -> pairing dict
        self._vreg = vertex_registry
        self._facet_index = None
        self._neighbors_cache = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_arrays(cls, vertices, cells, dim=None, degrees=1, boundary=None,
                    default_tag=DIRICHLET):
        """Build a root mesh.

        vertices: (nv, d); cells: (ne, 2^d) corner ids in tensor order;
        boundary: optional list of (vertex_id_tuple, tag) for boundary facets.
        """
        vertices = [np.asarray(v, dtype=float) for v in np.atleast_2d(vertices)]
        if dim is None:
            dim = len(vertices[0])
        nfacets = 2 * dim
        if np.isscalar(degrees):
            degrees = [int(degrees)] * len(cells)
        elements = []
        for i, cell in enumerate(cells):
            elements.append(Element(
                eid=i, root=i, corners=tuple(int(c) for c in cell), level=0,
                degree=int(degrees[i]),
                box_lo=-np.ones(dim), box_hi=np.ones(dim),
                boundary_tags=[None] * nfacets,
            ))
        # facet-key matching between roots
        key_map = {}
        for el in elements:
            for f in range(nfacets):
                key = frozenset(_facet_corner_ids(el.corners, dim, f))
                key_map.setdefault(key, []).append((el.eid, f))
        pairings = {}
        tag_lookup = {}
        if boundary:
            for ids, tag in boundary:
                tag_lookup[frozenset(int(v) for v in ids)] = tag
        for key, entries in key_map.items():
            if len(entries) == 1:
                eid, f = entries[0]
                elements[eid].boundary_tags[f] = tag_lookup.get(key, default_tag)
            elif len(entries) == 2:
                (ea, fa), (eb, fb) = entries
                pa = _facet_pairing(elements[ea], fa, elements[eb], fb, dim)
                pairings[(ea, fa)] = pa
                pairings[(eb, fb)] = _invert_pairing(pa, ea, fa)
            else:
                raise ValueError("facet shared by more than two root elements")
        vreg = {}
        for i, v in enumerate(vertices):
            vreg[_vkey(v)] = i
        return cls(dim, vertices, elements, pairings, vreg)

    def copy(self):
        elements = [replace(e, boundary_tags=list(e.boundary_tags)) for e in self.elements]
        return Mesh(self.dim, list(self.vertices), elements,
                    dict(self._root_pairings), dict(self._vreg))

    # -- basic queries -------------------------------------------------------

    def active_ids(self):
        return [e.eid for e in self.elements if e.active]

    def corner_ids(self, eids):
        """Corner vertex ids (n, 2^d) of elements eids, in tensor order."""
        return np.array([self.elements[e].corners for e in eids],
                        dtype=np.intp).reshape(len(eids), 2**self.dim)

    def corner_array(self, eids):
        """Corner coordinates (n, 2^d, d) of elements eids, in tensor order."""
        return np.array([[self.vertices[c] for c in self.elements[e].corners]
                         for e in eids], dtype=float).reshape(
                             len(eids), 2**self.dim, self.dim)

    def element_map(self, eid):
        return ElementMap(self.corner_array([eid])[0], self.dim)

    def degree(self, eid):
        return self.elements[eid].degree

    def with_degrees(self, degrees):
        """New snapshot with per-active-element degrees (dict eid -> p). It
        shares this mesh's facet adjacency, since a FacetInfo holds no
        degree."""
        m = self.copy()
        for eid, p in degrees.items():
            m.elements[eid].degree = int(p)
        m._facet_index, m._neighbors_cache = self._facet_index, self._neighbors_cache
        return m

    def tag_boundary(self, tagger):
        """Retag every boundary facet using tagger(facet centroid) -> tag."""
        for el in self.elements:
            for f in range(2 * self.dim):
                if el.boundary_tags[f] is None:
                    continue
                ids = _facet_corner_ids(el.corners, self.dim, f)
                centroid = np.mean([self.vertices[i] for i in ids], axis=0)
                el.boundary_tags[f] = tagger(centroid)
        # a fresh adjacency: degree snapshots may share the old one
        self._facet_index, self._neighbors_cache = None, {}
        return self

    def total_volume(self):
        pts, wts = tensor_gauss(3, self.dim)
        J = map_jacobians(self.corner_array(self.active_ids()), pts)
        return float((np.linalg.det(J) @ wts).sum())

    # -- refinement ----------------------------------------------------------

    def refine_element(self, eid, zhat=None):
        """New snapshot with element eid refined at dividing point zhat: the
        one-element view of `refine_many`."""
        if not self.elements[eid].active:
            raise ValueError(f"element {eid} already refined")
        return self.refine_many([eid], zhat)

    def refine_many(self, eids, zhat=None):
        """New snapshot with the elements eids that are still active when
        their turn comes refined at dividing point zhat (the centre by
        default), in one pass over one copy. The closure keeps the mesh
        1-irregular by level: before an element is split, its active facet
        neighbors of a lower level are refined, depth first, in facet and
        piece order, read from this snapshot's adjacency (children made by
        the pass are never of a lower level than their neighbors)."""
        zhat = np.zeros(self.dim) if zhat is None else np.asarray(zhat, dtype=float)
        if np.any(np.abs(zhat) >= 1.0):
            raise ValueError("dividing point must lie strictly inside the element")
        m = self.copy()

        def refine(eid, z):
            level = m.elements[eid].level
            for info in self.facet_neighbors(eid):
                for piece in info.pieces:
                    nb = m.elements[piece.neighbor]
                    if nb.active and nb.level < level:
                        refine(nb.eid, _closure_point(piece))
            m._split(eid, z)

        for eid in eids:
            if m.elements[eid].active:
                refine(eid, zhat)
        return m

    def uniformly_refined(self):
        return self.refine_many(self.active_ids())

    def _split(self, eid, zhat):
        """Replace active element eid by its 2^d children at zhat, in place;
        the adjacency of this mesh is stale afterwards."""
        el = self.elements[eid]
        d = self.dim
        root_map = self.element_map(el.root)
        lo, hi = el.box_lo, el.box_hi
        mid = lo + 0.5 * (zhat + 1.0) * (hi - lo)
        coords = [np.array([lo[k], mid[k], hi[k]]) for k in range(d)]
        # vertex grid in root reference coordinates, 3 per axis
        grid_ids = {}
        bits = corner_bits(d)
        for offs in itertools.product(range(3), repeat=d):
            if all(o in (0, 2) for o in offs):
                grid_ids[offs] = el.corners[int(corner_row([o // 2 for o in offs]))]
            else:
                ref = np.array([coords[k][offs[k]] for k in range(d)])
                x = root_map.map_point(ref)
                grid_ids[offs] = self._get_vertex(x)
        children = []
        for slot, b in enumerate(bits):
            cb = [grid_ids[tuple((b + c).tolist())] for c in bits]
            clo = np.array([coords[k][b[k]] for k in range(d)])
            chi = np.array([coords[k][b[k] + 1] for k in range(d)])
            tags = [None] * (2 * d)
            for f in 2 * np.arange(d) + b:
                tags[f] = el.boundary_tags[f]
            child = Element(
                eid=len(self.elements), root=el.root, corners=tuple(cb),
                level=el.level + 1, degree=el.degree, box_lo=clo, box_hi=chi,
                parent=el.eid, child_slot=slot, boundary_tags=tags,
            )
            self.elements.append(child)
            children.append(child.eid)
        el.children = tuple(children)

    def _get_vertex(self, x):
        key = _vkey(x)
        vid = self._vreg.get(key)
        if vid is None:
            vid = len(self.vertices)
            self.vertices.append(np.asarray(x, dtype=float))
            self._vreg[key] = vid
        return vid

    # -- adjacency -----------------------------------------------------------

    def _build_facet_index(self):
        """(root, axis, plane coordinate) -> list of (eid, side)."""
        idx = {}
        for el in self.elements:
            if not el.active:
                continue
            for k in range(self.dim):
                idx.setdefault((el.root, k, float(el.box_lo[k])), []).append((el.eid, 0))
                idx.setdefault((el.root, k, float(el.box_hi[k])), []).append((el.eid, 1))
        self._facet_index = idx

    def facet_neighbors(self, eid):
        """Per local facet: boundary tag or matched interior pieces."""
        cached = self._neighbors_cache.get(eid)
        if cached is not None:
            return cached
        if self._facet_index is None:
            self._build_facet_index()
        el = self.elements[eid]
        d = self.dim
        out = []
        for f in range(2 * d):
            k, s = f // 2, f % 2
            if el.boundary_tags[f] is not None:
                out.append(FacetInfo(kind="boundary", tag=el.boundary_tags[f]))
                continue
            plane = float(el.box_hi[k]) if s == 1 else float(el.box_lo[k])
            other_axes = [a for a in range(d) if a != k]
            my_iv = [(float(el.box_lo[a]), float(el.box_hi[a])) for a in other_axes]
            pieces = []
            if abs(abs(plane) - 1.0) > 0.0 or (el.root, f) not in self._root_pairings:
                # same-root adjacency
                for nb, ns in self._facet_index.get((el.root, k, plane), ()):
                    if nb == eid or ns == s:
                        continue
                    nel = self.elements[nb]
                    nb_iv = [(float(nel.box_lo[a]), float(nel.box_hi[a])) for a in other_axes]
                    ov = _intersect(my_iv, nb_iv)
                    if ov is None:
                        continue
                    pieces.append(self._make_piece(el, f, nel, 2 * k + (1 - s),
                                                   other_axes, other_axes, ov,
                                                   tuple(range(d - 1)), (False,) * (d - 1)))
            if abs(abs(plane) - 1.0) == 0.0 and (el.root, f) in self._root_pairings:
                pa = self._root_pairings[(el.root, f)]
                nb_root, nb_f = pa["element"], pa["facet"]
                nk, ns = nb_f // 2, nb_f % 2
                nb_axes = [a for a in range(d) if a != nk]
                # transform my in-facet intervals into the neighbor root frame
                tr_iv = [None] * (d - 1)
                for j in range(d - 1):
                    a, b = my_iv[pa["perm"][j]]
                    tr_iv[j] = (-b, -a) if pa["flip"][j] else (a, b)
                nb_plane = 1.0 if ns == 1 else -1.0
                for nb, nss in self._facet_index.get((nb_root, nk, nb_plane), ()):
                    if nss != ns:
                        continue
                    nel = self.elements[nb]
                    nb_iv = [(float(nel.box_lo[a]), float(nel.box_hi[a])) for a in nb_axes]
                    ov = _intersect(tr_iv, nb_iv)
                    if ov is None:
                        continue
                    pieces.append(self._make_piece(el, f, nel, nb_f,
                                                   other_axes, nb_axes, ov,
                                                   pa["perm"], pa["flip"],
                                                   transformed=True, my_iv=my_iv))
            out.append(FacetInfo(kind="interior", pieces=tuple(pieces)))
        self._neighbors_cache[eid] = out
        return out

    def _make_piece(self, el, f, nel, nb_f, my_axes, nb_axes, overlap, perm, flip,
                    transformed=False, my_iv=None):
        """Assemble a FacetPiece; overlap is in the (possibly transformed) frame
        shared with the neighbor root."""
        d = self.dim
        nb_box = []
        my_box = []
        for j in range(d - 1):
            lo, hi = overlap[j]
            a = nb_axes[j]
            nb_box.append(_to_ref(lo, hi, nel.box_lo[a], nel.box_hi[a]))
        if not transformed:
            for j in range(d - 1):
                lo, hi = overlap[j]
                a = my_axes[j]
                my_box.append(_to_ref(lo, hi, el.box_lo[a], el.box_hi[a]))
        else:
            # map the overlap back: my position p = perm[j] provided coord j
            for p in range(d - 1):
                j = perm.index(p)
                lo, hi = overlap[j]
                if flip[j]:
                    lo, hi = -hi, -lo
                a = my_axes[p]
                my_box.append(_to_ref(lo, hi, el.box_lo[a], el.box_hi[a]))
        my_size = np.prod([b[1] - b[0] for b in my_box]) if d > 1 else 1.0
        nb_size = np.prod([b[1] - b[0] for b in nb_box]) if d > 1 else 1.0
        full = 2.0 ** (d - 1)
        my_full = my_size >= full - 1e-12
        nb_full = nb_size >= full - 1e-12
        if my_full and nb_full:
            rel = "equal"
        elif my_full:
            rel = "coarse_nb"  # my facet fits inside the neighbor's
        elif nb_full:
            rel = "fine_nb"
        else:
            rel = "partial"
        return FacetPiece(neighbor=nel.eid, facet=nb_f,
                          my_box=tuple(my_box), nb_box=tuple(nb_box),
                          perm=tuple(perm), flip=tuple(flip), relation=rel)

    def facet_embed(self, f, t_facet):
        """Embed in-facet coordinates (m, d-1) into element reference coords
        (m, d). f is one local facet, or one per row of in-facet coordinates
        (n, m, d-1)."""
        t = np.asarray(t_facet, dtype=float)
        f = np.asarray(f)
        if f.ndim == 0:
            return np.insert(np.atleast_2d(t), f // 2, 2.0 * (f % 2) - 1.0,
                             axis=-1)
        out = np.empty(t.shape[:-1] + (self.dim,))
        for fv in np.unique(f):
            rows = f == fv
            out[rows] = self.facet_embed(fv, t[rows])
        return out

    def piece_coords(self, eid, f, piece, xi):
        """Matched facet coordinates on both sides of a facet piece.

        xi: (m, d-1) unit-box coordinates over the piece. Returns in-facet
        coordinates (t_mine, t_nb) in each element's own facet frame.
        """
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        m = xi.shape[0]
        r = self.dim - 1
        t_mine = np.empty((m, r))
        t_nb = np.empty((m, r))
        for p in range(r):
            lo, hi = piece.my_box[p]
            t_mine[:, p] = lo + 0.5 * (xi[:, p] + 1.0) * (hi - lo)
        for j in range(r):
            src = xi[:, piece.perm[j]]
            if piece.flip[j]:
                src = -src
            lo, hi = piece.nb_box[j]
            t_nb[:, j] = lo + 0.5 * (src + 1.0) * (hi - lo)
        return t_mine, t_nb

    def facet_area_element(self, eid, f, t_facet):
        """Surface measure factor and unit outward normal at in-facet coords.

        Returns (dS, normal): dS (m,) scales the reference facet measure,
        normal (m, d) is the outward unit normal of element eid.
        """
        J = map_jacobians(self.corner_array([eid])[0], self.facet_embed(f, t_facet))
        return facet_measure(J, f)

    # -- IO -------------------------------------------------------------------

    def write_text(self, path):
        d = self.dim
        with open(path, "w") as fh:
            fh.write(f"# hpfem mesh, dim = {d}\n")
            fh.write("VERTICES\n")
            for v in self.vertices:
                fh.write(" ".join(f"{x:.17g}" for x in v) + "\n")
            fh.write("ELEMENTS\n")
            for eid in self.active_ids():
                el = self.elements[eid]
                fh.write(" ".join(str(c) for c in el.corners) + f" {el.degree}\n")
            fh.write("BOUNDARY\n")
            for eid in self.active_ids():
                el = self.elements[eid]
                for f in range(2 * d):
                    if el.boundary_tags[f] is not None:
                        ids = _facet_corner_ids(el.corners, d, f)
                        fh.write(" ".join(str(i) for i in ids)
                                 + f" {el.boundary_tags[f]}\n")

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
        """VTK legacy ASCII export of the active mesh.

        cell_data: dict name -> array over active elements;
        point_data: dict name -> (nv,) or (nv, k) array over vertices.
        """
        d = self.dim
        vtk_type, order = _VTK_CELL[d]
        act = self.active_ids()
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\nhpfem export\nASCII\n")
            fh.write("DATASET UNSTRUCTURED_GRID\n")
            fh.write(f"POINTS {len(self.vertices)} double\n")
            for v in self.vertices:
                coords = list(v) + [0.0] * (3 - d)
                fh.write(" ".join(f"{x:.17g}" for x in coords) + "\n")
            ncell = len(act)
            npts = 2**d
            fh.write(f"CELLS {ncell} {ncell * (npts + 1)}\n")
            for eid in act:
                el = self.elements[eid]
                ids = [el.corners[i] for i in order]
                fh.write(f"{npts} " + " ".join(str(i) for i in ids) + "\n")
            fh.write(f"CELL_TYPES {ncell}\n")
            for _ in act:
                fh.write(f"{vtk_type}\n")
            if cell_data:
                fh.write(f"CELL_DATA {ncell}\n")
                for name, arr in cell_data.items():
                    arr = np.asarray(arr, dtype=float)
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for x in arr:
                        fh.write(f"{x:.17g}\n")
            if point_data:
                fh.write(f"POINT_DATA {len(self.vertices)}\n")
                for name, arr in point_data.items():
                    arr = np.asarray(arr, dtype=float)
                    if arr.ndim == 1:
                        fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                        for x in arr:
                            fh.write(f"{x:.17g}\n")
                    else:
                        fh.write(f"VECTORS {name} double\n")
                        for row in arr:
                            coords = list(row) + [0.0] * (3 - len(row))
                            fh.write(" ".join(f"{x:.17g}" for x in coords) + "\n")


# -- helpers ----------------------------------------------------------------

def _vkey(x):
    return tuple(round(float(c), 10) for c in np.asarray(x, dtype=float))


def _to_ref(lo, hi, box_lo, box_hi):
    """Map a root-frame interval into an element's reference frame."""
    w = box_hi - box_lo
    return (2.0 * (lo - box_lo) / w - 1.0, 2.0 * (hi - box_lo) / w - 1.0)


def _closure_point(piece):
    """The dividing point at which the closure refines the neighbor of a
    facet piece: the centre along the neighbor's facet normal and, along
    each in-facet axis, the end of the refining element's facet that lies
    strictly inside the neighbor's facet (0 where neither does). It
    continues the element's dividing lines, so the children's facets match
    the element's instead of overlapping them."""
    z = [next((t for t in box if abs(t) < 1.0), 0.0) for box in piece.nb_box]
    return np.insert(np.array(z, dtype=float), piece.facet // 2, 0.0)


def _intersect(iv_a, iv_b):
    out = []
    for (a0, a1), (b0, b1) in zip(iv_a, iv_b):
        lo, hi = max(a0, b0), min(a1, b1)
        if hi - lo <= 1e-14:
            return None
        out.append((lo, hi))
    return out


def _facet_corner_ids(corners, dim, f):
    """Corner vertex ids of local facet f, in the facet's own tensor order."""
    return [corners[r] for r in facet_corner_rows(dim)[f].tolist()]


def _facet_pairing(el_a, fa, el_b, fb, dim):
    """In-facet axis correspondence between two conforming root facets.

    Returns dict with neighbor element/facet and, for each in-facet position j
    of the neighbor frame, the providing position perm[j] of this frame and a
    flip flag.
    """
    ids_a = _facet_corner_ids(el_a.corners, dim, fa)
    ids_b = _facet_corner_ids(el_b.corners, dim, fb)
    if dim == 1:
        return {"element": el_b.eid, "facet": fb, "perm": (), "flip": ()}
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
    return {"element": el_b.eid, "facet": fb, "perm": tuple(perm), "flip": tuple(flip)}


def _invert_pairing(pa, eid_a, fa):
    r = len(pa["perm"])
    perm = [None] * r
    flip = [False] * r
    for j in range(r):
        perm[pa["perm"][j]] = j
        flip[pa["perm"][j]] = pa["flip"][j]
    return {"element": eid_a, "facet": fa, "perm": tuple(perm), "flip": tuple(flip)}
