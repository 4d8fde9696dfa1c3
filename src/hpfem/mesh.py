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

import numpy as np

from .polybasis import gauss_rule, tensor_gauss, tensor_indices

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_VTK_CELL = {1: (3, [0, 1]), 2: (9, [0, 2, 3, 1]), 3: (12, [0, 4, 6, 2, 1, 5, 7, 3])}


def corner_bits(dim):
    """Rows of {0,1}^d in corner order."""
    return tensor_indices(1, dim)


def _vertex_table(t):
    """Vertex shapes (1-t)/2, (1+t)/2 at the points t and their derivatives,
    two (m, 2) arrays (the same expressions as the 1D shape table)."""
    v = np.empty((t.shape[0], 2))
    v[:, 0] = 0.5 * (1.0 - t)
    v[:, 1] = 0.5 * (1.0 + t)
    dv = np.empty_like(v)
    dv[:, 0] = -0.5
    dv[:, 1] = 0.5
    return v, dv


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
        self._bits = corner_bits(dim)

    def _vertex_shapes(self, xhat):
        xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
        vals = np.ones((xhat.shape[0], len(self._bits)))
        ders = []
        for a in range(self.dim):
            v, dv = _vertex_table(xhat[:, a])
            ders.append((v, dv))
            vals *= v[:, self._bits[:, a]]
        return xhat, vals, ders

    def map_point(self, xhat):
        """Physical image of reference point(s); shape (d,) or (m, d)."""
        single = np.asarray(xhat).ndim == 1
        _, vals, _ = self._vertex_shapes(xhat)
        out = vals @ self.corners
        return out[0] if single else out

    def jacobian(self, xhat):
        """Jacobian dF/dxhat; shape (d, d) or (m, d, d)."""
        single = np.asarray(xhat).ndim == 1
        xhat, _, ders = self._vertex_shapes(xhat)
        m = xhat.shape[0]
        J = np.empty((m, self.dim, self.dim))
        for a in range(self.dim):
            g = ders[a][1][:, self._bits[:, a]].copy()
            for b in range(self.dim):
                if b != a:
                    g *= ders[b][0][:, self._bits[:, b]]
            J[:, :, a] = g @ self.corners
        return J[0] if single else J

    def det_jacobian(self, xhat):
        J = self.jacobian(xhat)
        return np.linalg.det(J)

    def hessian(self, xhat):
        """Second derivatives d2F_m / dxhat_a dxhat_b; shape (m, d, d, d)."""
        xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
        m = xhat.shape[0]
        d = self.dim
        tabs = [_vertex_table(xhat[:, a]) for a in range(d)]
        H = np.zeros((m, d, d, d))
        for a in range(d):
            for b in range(a + 1, d):
                g = tabs[a][1][:, self._bits[:, a]] * tabs[b][1][:, self._bits[:, b]]
                for c in range(d):
                    if c != a and c != b:
                        g = g * tabs[c][0][:, self._bits[:, c]]
                val = g @ self.corners
                H[:, :, a, b] = val
                H[:, :, b, a] = val
        return H

    def volume(self):
        pts, wts = tensor_gauss(3, self.dim)
        return float(wts @ self.det_jacobian(pts))

    def is_valid(self):
        """Positive Jacobian determinant at corners and a 3rd-order Gauss grid."""
        corners_hat = 2.0 * self._bits - 1.0
        pts, _ = tensor_gauss(3, self.dim)
        det = self.det_jacobian(np.vstack([corners_hat, pts]))
        return bool(np.all(det > 0.0))


def is_affine(emap, tol=1e-12):
    """True iff the element map has a constant Jacobian (parallelotope)."""
    corners_hat = 2.0 * corner_bits(emap.dim) - 1.0
    J = emap.jacobian(corners_hat)
    scale = max(np.abs(J).max(), 1e-300)
    return bool(np.abs(J - J[0]).max() <= tol * scale)


def check_det_affine(emap, n_samples=4, tol=1e-12):
    """True iff det(dF) is reproduced exactly by its multilinear interpolant.

    Sampled on a tensor grid of n_samples >= 4 points per direction; compared
    against the least-squares multilinear fit with relative tolerance tol.
    """
    d = emap.dim
    pts1 = gauss_rule(max(n_samples, 4)).points
    pts = np.array(list(itertools.product(pts1, repeat=d)))
    det = emap.det_jacobian(pts)
    bits = corner_bits(d)
    basis = np.ones((len(pts), len(bits)))
    for a in range(d):
        v, _ = _vertex_table(pts[:, a])
        basis *= v[:, bits[:, a]]
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
    zhat: np.ndarray | None = None
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
    ``refine_element``/``refined``/``coarsened`` return new snapshots."""

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

    def element_map(self, eid):
        el = self.elements[eid]
        return ElementMap(np.array([self.vertices[c] for c in el.corners]), self.dim)

    def degree(self, eid):
        return self.elements[eid].degree

    def with_degrees(self, degrees):
        """New snapshot with per-active-element degrees (dict eid -> p)."""
        m = self.copy()
        for eid, p in degrees.items():
            m.elements[eid].degree = int(p)
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
        self._invalidate()
        return self

    def diameter(self, eid):
        el = self.elements[eid]
        pts = np.array([self.vertices[c] for c in el.corners])
        return max(np.linalg.norm(a - b) for a in pts for b in pts)

    def total_volume(self):
        return sum(self.element_map(e).volume() for e in self.active_ids())

    # -- refinement ----------------------------------------------------------

    def refine_element(self, eid, zhat=None):
        """New snapshot with element eid refined at dividing point zhat.

        Applies closure refinements to keep the mesh 1-irregular.
        """
        m = self.copy()
        m._refine_inplace(eid, zhat)
        return m

    def refine_many(self, eids, zhat=None):
        m = self.copy()
        for eid in eids:
            if m.elements[eid].active:
                m._refine_inplace(eid, zhat)
        return m

    def uniformly_refined(self):
        return self.refine_many(self.active_ids())

    def coarsened(self, eid):
        """Roll back the refinement of element eid (children must be leaves)."""
        m = self.copy()
        el = m.elements[eid]
        if el.active:
            raise ValueError("element is not refined")
        if not all(m.elements[c].active for c in el.children):
            raise ValueError("children are refined; coarsen them first")
        for c in el.children:
            m.elements[c].children = ()  # mark dead
        el.children = None
        el.zhat = None
        m._invalidate()
        m._compact()
        return m

    def _compact(self):
        """Drop dead elements (children == ()) re-indexing ids."""
        keep = [e for e in self.elements if e.children != ()]
        old2new = {e.eid: i for i, e in enumerate(keep)}
        for i, e in enumerate(keep):
            e.eid = i
            e.root = old2new[e.root]
            e.parent = old2new[e.parent] if e.parent is not None else None
            if e.children is not None:
                e.children = tuple(old2new[c] for c in e.children)
        self.elements = keep
        self._root_pairings = {
            (old2new[r], f): dict(p, element=old2new[p["element"]])
            for (r, f), p in self._root_pairings.items()
        }

    def _invalidate(self):
        self._facet_index = None
        self._neighbors_cache = {}

    def _refine_inplace(self, eid, zhat=None, _depth=0):
        el = self.elements[eid]
        if not el.active:
            raise ValueError(f"element {eid} already refined")
        if _depth > 64:
            raise RuntimeError("refinement closure recursion too deep")
        d = self.dim
        if zhat is None:
            zhat = np.zeros(d)
        zhat = np.asarray(zhat, dtype=float)
        if np.any(np.abs(zhat) >= 1.0):
            raise ValueError("dividing point must lie strictly inside the element")
        # closure: coarser neighbors are refined first so the result stays 1-irregular
        while True:
            need = []
            for info in self.facet_neighbors(eid):
                if info.kind != "interior":
                    continue
                for piece in info.pieces:
                    if piece.relation in ("coarse_nb", "partial") \
                            and self.elements[piece.neighbor].active:
                        need.append(piece.neighbor)
            if not need:
                break
            for nb in dict.fromkeys(need):
                if self.elements[nb].active:
                    self._refine_inplace(nb, None, _depth + 1)
        el = self.elements[eid]
        root_map = self.element_map(el.root)
        lo, hi = el.box_lo, el.box_hi
        mid = lo + 0.5 * (zhat + 1.0) * (hi - lo)
        coords = [np.array([lo[k], mid[k], hi[k]]) for k in range(d)]
        # vertex grid in root reference coordinates, 3 per axis
        grid_ids = {}
        bits = corner_bits(d)
        for offs in itertools.product(range(3), repeat=d):
            if all(o in (0, 2) for o in offs):
                b = tuple(o // 2 for o in offs)
                row = int(np.nonzero((bits == b).all(axis=1))[0][0])
                grid_ids[offs] = el.corners[row]
            else:
                ref = np.array([coords[k][offs[k]] for k in range(d)])
                x = root_map.map_point(ref)
                grid_ids[offs] = self._get_vertex(x)
        children = []
        nfacets = 2 * d
        for slot, b in enumerate(bits):
            cb = []
            for cb_bits in bits:
                offs = tuple(b[k] + cb_bits[k] for k in range(d))
                cb.append(grid_ids[offs])
            clo = np.array([coords[k][b[k]] for k in range(d)])
            chi = np.array([coords[k][b[k] + 1] for k in range(d)])
            tags = [None] * nfacets
            for k in range(d):
                if b[k] == 0:
                    tags[2 * k + 0] = el.boundary_tags[2 * k + 0]
                if b[k] == 1:
                    tags[2 * k + 1] = el.boundary_tags[2 * k + 1]
            child = Element(
                eid=len(self.elements), root=el.root, corners=tuple(cb),
                level=el.level + 1, degree=el.degree, box_lo=clo, box_hi=chi,
                parent=el.eid, child_slot=slot, boundary_tags=tags,
            )
            self.elements.append(child)
            children.append(child.eid)
        el.children = tuple(children)
        el.zhat = zhat.copy()
        self._invalidate()

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
        info = out
        self._neighbors_cache[eid] = info
        return info

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
        """Embed in-facet coordinates (m, d-1) into element reference coords (m, d)."""
        k, s = f // 2, f % 2
        t_facet = np.atleast_2d(np.asarray(t_facet, dtype=float))
        m = t_facet.shape[0]
        out = np.empty((m, self.dim))
        out[:, k] = -1.0 if s == 0 else 1.0
        other = [a for a in range(self.dim) if a != k]
        for j, a in enumerate(other):
            out[:, a] = t_facet[:, j]
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
        k, s = f // 2, f % 2
        emap = self.element_map(eid)
        ref = self.facet_embed(f, t_facet)
        J = emap.jacobian(ref)
        d = self.dim
        if d == 1:
            nrm = np.tile(np.array([-1.0 if s == 0 else 1.0]), (ref.shape[0], 1))
            return np.ones(ref.shape[0]), nrm
        other = [a for a in range(d) if a != k]
        if d == 2:
            tang = J[:, :, other[0]]
            dS = np.linalg.norm(tang, axis=1)
            nrm = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        else:
            t1 = J[:, :, other[0]]
            t2 = J[:, :, other[1]]
            nrm = np.cross(t1, t2)
            dS = np.linalg.norm(nrm, axis=1)
        nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
        # orient outward: the normal must point away from the element interior
        inward = emap.map_point(np.zeros(d)) - emap.map_point(ref)
        sgn = np.sign(np.einsum("md,md->m", nrm, inward))
        sgn[sgn == 0] = -1.0
        nrm = -nrm * sgn[:, None]
        return dS, nrm

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
    k, s = f // 2, f % 2
    bits = corner_bits(dim)
    ids = []
    if dim == 1:
        rows = np.nonzero(bits[:, 0] == s)[0]
        return [corners[int(rows[0])]]
    fbits = corner_bits(dim - 1)
    other = [a for a in range(dim) if a != k]
    for fb in fbits:
        full = [0] * dim
        full[k] = s
        for j, a in enumerate(other):
            full[a] = fb[j]
        row = int(np.nonzero((bits == full).all(axis=1))[0][0])
        ids.append(corners[row])
    return ids


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
        unit = tuple(1 if j == pa else 0 for j in range(r))
        row = int(np.nonzero((fbits == unit).all(axis=1))[0][0])
        moved_b = pos_b[ids_a[row]]
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
