"""Global hp spaces on hexahedral meshes.

ScalarSpace is the continuous space of mapped tensor integrated-Legendre
polynomials with hanging-node constraints folded into per-element connectivity
matrices; vector fields use it componentwise. GaussPointSpace is the
discontinuous space spanned by the tensor Lagrange basis at Gauss points of
degree p_T - 1 (elementwise constants for p_T = 1) together with its
biorthogonal dual basis, the dof weights and the decoupled yield bounds.

Dof bookkeeping works on "canonical slots": a vertex value ('v', vid), an edge
bubble ('e', key, j) oriented from the lower to the higher vertex id, a face
bubble ('f', key, (j1, j2)) in a frame fixed by the corner ids, or an element
interior mode ('i', eid, multi). A slot is a free dof, eliminated (Dirichlet),
or constrained to master slots through a hanging interface.
"""

import itertools
from functools import lru_cache

import numpy as np

from . import _kernels
from .mesh import _facet_corner_ids, corner_bits
from .polybasis import (MAX_DEGREE, tensor_gauss, tensor_indices,
                        tensor_shape_eval)

_DROP = 1e-14


def deviatoric_basis(d):
    """Frobenius-orthonormal basis of the symmetric trace-free d x d matrices."""
    if d == 1:
        return np.zeros((0, 1, 1))
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        return np.array([
            [[s, 0.0], [0.0, -s]],
            [[0.0, s], [s, 0.0]],
        ])
    if d == 3:
        a = 1.0 / np.sqrt(2.0)
        b = 1.0 / np.sqrt(6.0)
        return np.array([
            [[a, 0, 0], [0, -a, 0], [0, 0, 0]],
            [[b, 0, 0], [0, b, 0], [0, 0, -2 * b]],
            [[0, a, 0], [a, 0, 0], [0, 0, 0]],
            [[0, 0, a], [0, 0, 0], [a, 0, 0]],
            [[0, 0, 0], [0, 0, a], [0, a, 0]],
        ])
    raise ValueError("d must be 1, 2 or 3")


def deviatoric_dim(d):
    return (d - 1) * (d + 2) // 2


# ---------------------------------------------------------------------------
# tensor expansion primitive
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _expansion_operator(degree, r):
    """Pseudo-inverse mapping values on a Gauss grid to tensor shape coefficients."""
    pts, _ = tensor_gauss(degree + 1, r)
    idx = tensor_indices(degree, r)
    V, _ = tensor_shape_eval(pts, idx, jmax=max(degree, 1))
    Vinv = np.linalg.inv(V)
    pts.setflags(write=False)
    Vinv.setflags(write=False)
    return pts, Vinv


def expand_tensor(func, r, degree):
    """Coefficients of a per-axis-degree <= degree polynomial over the tensor
    shape basis; func maps points (m, r) to values (m,)."""
    if r == 0:
        return np.array([float(func(np.zeros((1, 0))))])
    pts, Vinv = _expansion_operator(degree, r)
    vals = np.asarray(func(pts), dtype=float)
    return Vinv @ vals


def constraint_coeffs(multi, child_bits, zhat, degree=None):
    """Expansion of parent tensor shapes restricted to one child box.

    The child box along axis k is [-1, zhat_k] (bit 0) or [zhat_k, 1] (bit 1);
    the returned coefficients express psi-hat_multi composed with the child
    embedding in the child's own tensor shape basis, as the flat row over
    tensor_indices(degree, d). multi is one multi-index, or rows (n, d) of
    them, which give an (n, (degree+1)^d) array. Per axis, one 1D restriction
    matrix (child coefficients x parent shapes) is built; the rows combine its
    columns by outer product.
    """
    multis = np.asarray(multi, dtype=np.intp)
    single = multis.ndim == 1
    multis = multis.reshape(-1, multis.shape[-1])
    d = multis.shape[1]
    zhat = np.broadcast_to(np.asarray(zhat, dtype=float), (d,))
    top = int(multis.max())
    if degree is None:
        degree = max(top, 1)
    jmax = max(degree, top, 1)
    pts, Vinv = _expansion_operator(degree, 1)
    out = np.ones((len(multis), 1))
    for k in range(d):
        lo, hi = (-1.0, zhat[k]) if not child_bits[k] else (zhat[k], 1.0)
        a, b = 0.5 * (hi - lo), 0.5 * (hi + lo)
        V, _ = _kernels.shape_table(a * pts[:, 0] + b, jmax)
        R = (Vinv @ V).T  # R[j] = child coefficients of psi_j on this axis
        out = (out[:, :, None] * R[multis[:, k]][:, None, :]).reshape(len(multis), -1)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# canonical slot helpers
# ---------------------------------------------------------------------------

def _edge_canonical(id_lo_side, id_hi_side, j):
    """Canonical key and orientation sign for an edge bubble slot."""
    if id_lo_side < id_hi_side:
        return ("e", (id_lo_side, id_hi_side), j), 1.0
    return ("e", (id_hi_side, id_lo_side), j), (-1.0) ** j


def _face_frame(ids4):
    """Canonical frame of a quadrilateral face given tensor-ordered corner ids.

    Returns (key, perm, flips): canonical axis c takes its index from local
    facet axis perm[c], with a sign flip when flips[c]. Corner order: row
    2*u + v for local coords (u, v) in {0,1}^2.
    """
    key = ("f", tuple(sorted(ids4)))
    omin = int(np.argmin(ids4))
    ou, ov = omin // 2, omin % 2
    n_u = ids4[2 * (1 - ou) + ov]
    n_v = ids4[2 * ou + (1 - ov)]
    if n_u < n_v:
        perm = (0, 1)
        flips = (ou == 1, ov == 1)
    else:
        perm = (1, 0)
        flips = (ov == 1, ou == 1)
    return key, perm, flips


def _face_canonical(ids4, ju, jv):
    """Canonical slot and sign for a face bubble with local facet indices (ju, jv)."""
    key, perm, flips = _face_frame(ids4)
    local = (int(ju), int(jv))
    m = (local[perm[0]], local[perm[1]])
    sign = 1.0
    if flips[0] and m[0] % 2:
        sign = -sign
    if flips[1] and m[1] % 2:
        sign = -sign
    return ("f", key[1], m), sign


def _box_slot(ids, r, multi):
    """Classify one tensor multi-index on an r-dimensional box with corner ids.

    Returns (slot, sign); the all-bubble case yields the marker slot
    ("OWN", multi) whose meaning (element interior, coarse edge, coarse face)
    the caller supplies. ids are in corner_bits(r) order.
    """
    multi = tuple(int(j) for j in multi)
    bub = [a for a in range(r) if multi[a] >= 2]
    fixed = [a for a in range(r) if multi[a] < 2]
    bits = corner_bits(r)
    if len(bub) == r:
        return ("OWN", multi), 1.0
    if not bub:
        row = int(np.nonzero((bits == multi).all(axis=1))[0][0])
        return ("v", ids[row]), 1.0
    if len(bub) == 1:
        a = bub[0]
        b0 = [0] * r
        b1 = [0] * r
        for k in fixed:
            b0[k] = b1[k] = multi[k]
        b1[a] = 1
        r0 = int(np.nonzero((bits == b0).all(axis=1))[0][0])
        r1 = int(np.nonzero((bits == b1).all(axis=1))[0][0])
        return _edge_canonical(ids[r0], ids[r1], multi[a])
    if len(bub) == 2:
        a1, a2 = bub
        face_ids = []
        for u, v in ((0, 0), (0, 1), (1, 0), (1, 1)):
            b = [0] * r
            for k in fixed:
                b[k] = multi[k]
            b[a1], b[a2] = u, v
            row = int(np.nonzero((bits == b).all(axis=1))[0][0])
            face_ids.append(ids[row])
        slot, sign = _face_canonical(face_ids, multi[a1], multi[a2])
        return slot, sign
    raise ValueError("unsupported slot dimension")


def _facet_axes(dim, f):
    k = f // 2
    return [a for a in range(dim) if a != k]


# ---------------------------------------------------------------------------
# the continuous scalar space
# ---------------------------------------------------------------------------

class ScalarSpace:
    """Continuous hp space of mapped tensor integrated-Legendre polynomials."""

    def __init__(self, mesh, dirichlet_tags=("dirichlet",), degrees=None):
        self.mesh = mesh
        self.dim = mesh.dim
        self.dirichlet_tags = frozenset(dirichlet_tags)
        self.degrees = {}
        for eid in mesh.active_ids():
            p = mesh.elements[eid].degree if degrees is None else degrees[eid]
            if not 1 <= p <= MAX_DEGREE:
                raise ValueError(f"polynomial degree must be in 1..{MAX_DEGREE}")
            self.degrees[eid] = int(p)
        self._conn_cache = {}
        self._build()

    # -- entity collection ---------------------------------------------------

    def _element_edges(self, el):
        """All edges of an element: (key, endpoint ids ordered by local axis)."""
        d = self.dim
        bits = corner_bits(d)
        out = []
        for a in range(d):
            others = [k for k in range(d) if k != a]
            for sides in itertools.product((0, 1), repeat=d - 1):
                b0 = [0] * d
                for j, k in enumerate(others):
                    b0[k] = sides[j]
                b1 = list(b0)
                b0[a], b1[a] = 0, 1
                r0 = int(np.nonzero((bits == b0).all(axis=1))[0][0])
                r1 = int(np.nonzero((bits == b1).all(axis=1))[0][0])
                out.append((el.corners[r0], el.corners[r1]))
        return out

    def _build(self):
        mesh, d = self.mesh, self.dim
        act = mesh.active_ids()
        els = mesh.elements

        vertex_present = set()
        edge_deg = {}
        face_deg = {}
        for eid in act:
            el = els[eid]
            p = self.degrees[eid]
            vertex_present.update(el.corners)
            if d >= 2:
                for a, b in self._element_edges(el):
                    key = (min(a, b), max(a, b))
                    edge_deg[key] = min(edge_deg.get(key, p), p)
            if d == 3:
                for f in range(6):
                    ids = _facet_corner_ids(el.corners, d, f)
                    key = tuple(sorted(ids))
                    face_deg[key] = min(face_deg.get(key, p), p)

        # Dirichlet entities (closed facets)
        dir_v, dir_e, dir_f = set(), set(), set()
        hang = []  # (fine eid, facet, piece)
        for eid in act:
            el = els[eid]
            for f, info in enumerate(mesh.facet_neighbors(eid)):
                if info.kind == "boundary":
                    if info.tag in self.dirichlet_tags:
                        ids = _facet_corner_ids(el.corners, d, f)
                        dir_v.update(ids)
                        if d == 2:
                            dir_e.add((min(ids), max(ids)))
                        elif d == 3:
                            dir_f.add(tuple(sorted(ids)))
                            fb = corner_bits(2)
                            for a in range(2):
                                for s in (0, 1):
                                    pair = [ids[i] for i in range(4)
                                            if fb[i][a] == s]
                                    dir_e.add((min(pair), max(pair)))
                    continue
                for piece in info.pieces:
                    if piece.relation == "coarse_nb":
                        hang.append((eid, f, piece))
                    elif piece.relation == "partial":
                        raise ValueError(
                            "non-nested facet overlap; dividing points of "
                            "neighboring refinements are incompatible")

        # hanging entities (strict sub-entities of a coarse facet) + degree caps
        slave_v, slave_e, slave_f = {}, {}, {}
        for eid, f, piece in hang:
            el = els[eid]
            nel = els[piece.neighbor]
            p_fine = self.degrees[eid]
            fine_ids = _facet_corner_ids(el.corners, d, f)
            coarse_ids = _facet_corner_ids(nel.corners, d, piece.facet)
            coarse_v = set(coarse_ids)
            coarse_e = set()
            if d == 3:
                fb = corner_bits(2)
                for a in range(2):
                    for s in (0, 1):
                        pair = [coarse_ids[i] for i in range(4) if fb[i][a] == s]
                        coarse_e.add((min(pair), max(pair)))
                ckey = tuple(sorted(coarse_ids))
                face_deg[ckey] = min(face_deg.get(ckey, p_fine), p_fine)
                for ek in coarse_e:
                    edge_deg[ek] = min(edge_deg.get(ek, p_fine), p_fine)
            elif d == 2:
                ck = (min(coarse_ids), max(coarse_ids))
                coarse_e.add(ck)
                edge_deg[ck] = min(edge_deg.get(ck, p_fine), p_fine)
            for vid in fine_ids:
                if vid not in coarse_v:
                    slave_v.setdefault(vid, (eid, f, piece))
            if d == 2:
                ek = (min(fine_ids), max(fine_ids))
                if ek not in coarse_e:
                    slave_e.setdefault(ek, (eid, f, piece))
            elif d == 3:
                fb = corner_bits(2)
                for a in range(2):
                    for s in (0, 1):
                        pair = [fine_ids[i] for i in range(4) if fb[i][a] == s]
                        ek = (min(pair), max(pair))
                        if ek not in coarse_e:
                            slave_e.setdefault(ek, (eid, f, piece))
                fkey = tuple(sorted(fine_ids))
                if fkey != tuple(sorted(coarse_ids)):
                    slave_f.setdefault(fkey, (eid, f, piece))

        self._edge_deg = edge_deg
        self._face_deg = face_deg
        self._slave = {}
        for vid, itf in slave_v.items():
            self._slave[("v", vid)] = itf
        for key, itf in slave_e.items():
            self._slave[("e", key)] = itf
        for key, itf in slave_f.items():
            self._slave[("f", key)] = itf
        self._dirichlet = {("v", v) for v in dir_v}
        self._dirichlet |= {("e", k) for k in dir_e}
        self._dirichlet |= {("f", k) for k in dir_f}

        # enumerate free dofs
        dofs = []
        for vid in sorted(vertex_present):
            if ("v", vid) not in self._slave and ("v", vid) not in self._dirichlet:
                dofs.append(("v", vid))
        for key in sorted(edge_deg):
            if ("e", key) in self._slave or ("e", key) in self._dirichlet:
                continue
            for j in range(2, edge_deg[key] + 1):
                dofs.append(("e", key, j))
        for key in sorted(face_deg):
            if ("f", key) in self._slave or ("f", key) in self._dirichlet:
                continue
            p = face_deg[key]
            for j1 in range(2, p + 1):
                for j2 in range(2, p + 1):
                    dofs.append(("f", key, (j1, j2)))
        for eid in act:
            p = self.degrees[eid]
            for multi in itertools.product(range(2, p + 1), repeat=d):
                dofs.append(("i", eid, multi))
        self.dofs = dofs
        self.dof_index = {slot: i for i, slot in enumerate(dofs)}
        self.ndof = len(dofs)
        self._rows_cache = {}

    # -- constraint resolution -------------------------------------------------

    def _slot_status(self, slot):
        ent = slot[:2]
        if ent in self._dirichlet:
            return "zero"
        if ent in self._slave:
            return "slave"
        if slot in self.dof_index:
            return "dof"
        return "zero"  # out-of-degree trace component: not part of the space

    def _master_trace_slots(self, nb_eid, nb_facet):
        """Canonical slots of the coarse facet closure with their facet-local
        tensor representation: list of (slot, sign, facet multi)."""
        d = self.dim
        nel = self.mesh.elements[nb_eid]
        p = self.degrees[nb_eid]
        ids = _facet_corner_ids(nel.corners, d, nb_facet)
        r = d - 1
        out = []
        for multi in itertools.product(range(p + 1), repeat=r):
            slot, sign = _box_slot(ids, r, multi)
            if slot[0] == "OWN":
                if r == 1:
                    slot, sign = _edge_canonical(ids[0], ids[1], multi[0])
                else:
                    slot, sign = _face_canonical(ids, multi[0], multi[1])
            ok = True
            if slot[0] == "e":
                deg = self._edge_deg.get(slot[1], 1)
                ok = slot[2] <= deg
            elif slot[0] == "f":
                deg = self._face_deg.get(slot[1], 1)
                ok = max(slot[2]) <= deg
            if ok:
                out.append((slot, sign, multi))
        return out

    def _raw_rows(self, ent):
        """Unresolved constraint rows for all slots of a hanging entity."""
        eid, f, piece = self._slave[ent]
        d = self.dim
        r = d - 1
        mesh = self.mesh
        el = mesh.elements[eid]
        fine_ids = _facet_corner_ids(el.corners, d, f)
        p_fine = self.degrees[eid]
        masters = self._master_trace_slots(piece.neighbor, piece.facet)

        def trace_vals(xi):
            """Master basis values at fine-facet coordinates xi: (m, nmasters)."""
            _, t_nb = mesh.piece_coords(eid, f, piece, xi)
            multis = np.array([m for _, _, m in masters], dtype=np.intp)
            V, _ = tensor_shape_eval(t_nb, multis,
                                     jmax=max(2, int(multis.max()) if multis.size else 1))
            signs = np.array([s for _, s, _ in masters])
            return V * signs[None, :]

        rows = {}
        fb = corner_bits(r)
        if ent[0] == "v":
            row_idx = fine_ids.index(ent[1])
            xi = (2.0 * fb[row_idx] - 1.0).astype(float)[None, :]
            vals = trace_vals(xi)[0]
            rows[ent] = [(masters[i][0], vals[i]) for i in range(len(masters))
                         if abs(vals[i]) > _DROP]
            return rows
        if ent[0] == "e":
            # locate the edge on the fine facet: axis a, fixed sides
            lo_id, hi_id = ent[1]
            for a in range(r):
                others = [k for k in range(r) if k != a]
                for sides in itertools.product((0, 1), repeat=r - 1):
                    b0 = [0] * r
                    for jj, k in enumerate(others):
                        b0[k] = sides[jj]
                    b1 = list(b0)
                    b0[a], b1[a] = 0, 1
                    r0 = int(np.nonzero((fb == b0).all(axis=1))[0][0])
                    r1 = int(np.nonzero((fb == b1).all(axis=1))[0][0])
                    pair = (fine_ids[r0], fine_ids[r1])
                    if tuple(sorted(pair)) != ent[1]:
                        continue
                    flip = pair[0] > pair[1]  # canonical runs low -> high id

                    def to_xi(tau, a=a, b0=b0, flip=flip):
                        m = len(tau)
                        xi = np.empty((m, r))
                        for k in range(r):
                            xi[:, k] = 2.0 * b0[k] - 1.0
                        xi[:, a] = -tau if flip else tau
                        return xi

                    pts, Vinv = _expansion_operator(p_fine, 1)
                    vals = trace_vals(to_xi(pts[:, 0]))
                    coefs = Vinv @ vals  # (p_fine+1, nmasters)
                    for j in range(2, p_fine + 1):
                        row = [(masters[i][0], coefs[j, i])
                               for i in range(len(masters))
                               if abs(coefs[j, i]) > _DROP]
                        rows[("e", ent[1], j)] = row
                    return rows
            raise RuntimeError("hanging edge not found on its interface facet")
        # hanging face (d == 3): expand over the whole fine facet
        key, perm, flips = _face_frame(fine_ids)

        def to_xi(tau):
            xi = np.empty_like(tau)
            for c in range(2):
                src = tau[:, c]
                xi[:, perm[c]] = -src if flips[c] else src
            return xi

        pts, Vinv = _expansion_operator(p_fine, 2)
        vals = trace_vals(to_xi(pts))
        coefs = Vinv @ vals
        idx = tensor_indices(p_fine, 2)
        for row_i, (m1, m2) in enumerate(idx):
            if m1 >= 2 and m2 >= 2:
                row = [(masters[i][0], coefs[row_i, i])
                       for i in range(len(masters))
                       if abs(coefs[row_i, i]) > _DROP]
                rows[("f", ent[1], (int(m1), int(m2)))] = row
        return rows

    def resolve_slot(self, slot):
        """Resolve a canonical slot to free-dof contributions [(dof, coeff)]."""
        cached = self._rows_cache.get(slot)
        if cached is not None:
            return cached
        status = self._slot_status(slot)
        if status == "dof":
            out = [(self.dof_index[slot], 1.0)]
        elif status == "zero":
            out = []
        else:
            raw = self._raw_rows(slot[:2]).get(slot, [])
            acc = {}
            for mslot, c in raw:
                for dof, c2 in self.resolve_slot(mslot):
                    acc[dof] = acc.get(dof, 0.0) + c * c2
            out = [(dof, c) for dof, c in acc.items() if abs(c) > _DROP]
        self._rows_cache[slot] = out
        return out

    # -- connectivity / evaluation ---------------------------------------------

    def local_indices(self, eid):
        return tensor_indices(self.degrees[eid], self.dim)

    def connectivity(self, eid):
        """(rows, mat): global dofs with support on the element and the matrix
        expanding them in the local tensor shapes, u|_K = (mat.T @ u[rows])."""
        cached = self._conn_cache.get(eid)
        if cached is not None:
            return cached
        el = self.mesh.elements[eid]
        d = self.dim
        idx = self.local_indices(eid)
        entries = {}
        for col, multi in enumerate(idx):
            slot, sign = _box_slot(el.corners, d, tuple(multi))
            if slot[0] == "OWN":
                slot = ("i", eid, slot[1])
            for dof, c in self.resolve_slot(slot):
                entries[(dof, col)] = entries.get((dof, col), 0.0) + sign * c
        rows = sorted({dof for dof, _ in entries})
        rpos = {dof: i for i, dof in enumerate(rows)}
        mat = np.zeros((len(rows), len(idx)))
        for (dof, col), c in entries.items():
            mat[rpos[dof], col] = c
        out = (np.array(rows, dtype=np.intp), mat)
        self._conn_cache[eid] = out
        return out

    def local_coeffs(self, eid, u):
        """Coefficients of a global field over the element's tensor shapes."""
        rows, mat = self.connectivity(eid)
        return mat.T @ u[rows]

    def eval_element(self, eid, u, xhat, gradient=False):
        """Evaluate (and optionally differentiate, in reference coords) on one element."""
        loc = self.local_coeffs(eid, u)
        idx = self.local_indices(eid)
        V, G = tensor_shape_eval(np.atleast_2d(xhat), idx,
                                 jmax=max(self.degrees[eid], 1))
        if gradient:
            return V @ loc, np.einsum("mbd,b->md", G, loc)
        return V @ loc

    def vertex_values(self, u):
        """Values at mesh vertices (for export); NaN where a vertex is unused."""
        vals = np.full(len(self.mesh.vertices), np.nan)
        d = self.dim
        for eid in self.mesh.active_ids():
            el = self.mesh.elements[eid]
            corners_hat = 2.0 * corner_bits(d) - 1.0
            v = self.eval_element(eid, u, corners_hat)
            for row, vid in enumerate(el.corners):
                vals[vid] = v[row]
        return vals


# ---------------------------------------------------------------------------
# the discontinuous Gauss-point space with its biorthogonal dual
# ---------------------------------------------------------------------------

class GaussPointSpace:
    """Discontinuous space of degree p_T - 1 with Lagrange dofs at the tensor
    Gauss points (a single elementwise constant when p_T = 1)."""

    def __init__(self, mesh, yield_stress, degrees=None):
        if yield_stress <= 0:
            raise ValueError("yield stress must be positive")
        self.mesh = mesh
        self.dim = mesh.dim
        self.yield_stress = float(yield_stress)
        self.degrees = {}
        for eid in mesh.active_ids():
            p = mesh.elements[eid].degree if degrees is None else degrees[eid]
            self.degrees[eid] = int(p)
        self.offsets = {}
        self.counts = {}
        n = 0
        for eid in mesh.active_ids():
            c = self.degrees[eid] ** self.dim if self.degrees[eid] >= 2 else 1
            self.offsets[eid] = n
            self.counts[eid] = c
            n += c
        self.ndof = n
        self._build()

    def _basis_at(self, eid, xhat, gradient=False):
        from .polybasis import gauss_lagrange_tensor
        p = self.degrees[eid]
        xhat = np.atleast_2d(xhat)
        if p == 1:
            V = np.ones((xhat.shape[0], 1))
            G = np.zeros((xhat.shape[0], 1, self.dim))
        else:
            V, G = gauss_lagrange_tensor(p, xhat)
        return (V, G) if gradient else V

    def _build(self):
        mesh = self.mesh
        D = np.empty(self.ndof)
        self._dual = {}
        self._mass = {}
        for eid in mesh.active_ids():
            p = self.degrees[eid]
            emap = mesh.element_map(eid)
            nq = p + 1
            pts, wts = tensor_gauss(nq, self.dim)
            det = emap.det_jacobian(pts)
            if np.any(det <= 0):
                raise ValueError(f"degenerate element {eid}: det J <= 0")
            V = self._basis_at(eid, pts)
            w = wts * det
            M = np.einsum("qi,q,qj->ij", V, w, V)
            Dloc = V.T @ w
            sl = self.dof_slice(eid)
            D[sl] = Dloc
            self._mass[eid] = M
            # row i of dual: coefficients of the i-th biorthogonal function
            # over the Lagrange basis: M @ c_i = D_i e_i
            self._dual[eid] = np.linalg.solve(M, np.diag(Dloc)).T
        if np.any(D <= 0):
            raise ValueError("nonpositive dof weight; mesh is degenerate")
        self.weights = D
        self.bounds = np.full(self.ndof, self.yield_stress)

    def dof_slice(self, eid):
        return slice(self.offsets[eid], self.offsets[eid] + self.counts[eid])

    def gauss_points(self, eid):
        """Reference quadrature nodes carrying the dofs of the element."""
        p = self.degrees[eid]
        if p == 1:
            return np.zeros((1, self.dim))
        pts, _ = tensor_gauss(p, self.dim)
        return pts

    def mass(self, eid):
        return self._mass[eid]

    def dual_coefficients(self, eid):
        """(n_T, n_T): row i holds the biorthogonal function over the Lagrange basis."""
        return self._dual[eid]

    def eval_primal(self, eid, coeffs, xhat):
        """Evaluate a field given by primal (Lagrange) coefficients: (m, ...)."""
        V = self._basis_at(eid, xhat)
        return np.tensordot(V, coeffs[self.dof_slice(eid)], axes=(1, 0))

    def eval_primal_grad(self, eid, coeffs, xhat):
        _, G = self._basis_at(eid, xhat, gradient=True)
        return np.tensordot(G.transpose(0, 2, 1), coeffs[self.dof_slice(eid)],
                            axes=(2, 0))

    def eval_dual(self, eid, coeffs, xhat):
        """Evaluate a field given by coefficients over the biorthogonal basis."""
        V = self._basis_at(eid, xhat)
        C = self._dual[eid]
        return np.tensordot(V @ C.T, coeffs[self.dof_slice(eid)], axes=(1, 0))

    def dual_to_primal(self, eid, coeffs):
        return np.tensordot(self._dual[eid].T, coeffs[self.dof_slice(eid)],
                            axes=(1, 0))
