"""Global hp spaces on hexahedral meshes.

ScalarSpace is the continuous space of mapped tensor integrated-Legendre
polynomials with hanging-node constraints folded into its local-to-global
operator P, kept as CSR arrays (indptr, indices, data) whose rows one
reader, `_row_entries`, gathers; vector fields use it componentwise.
GaussPointSpace is the discontinuous space spanned by the tensor Lagrange
basis at Gauss points of degree p_T - 1 (elementwise constants for p_T = 1)
together with its biorthogonal dual basis, the dof weights and the
decoupled yield bounds.

Dof bookkeeping works on "canonical slots": a vertex value ('v', vid), an edge
bubble ('e', key, j) oriented from the lower to the higher vertex id, a face
bubble ('f', key, (j1, j2)) in a frame fixed by the corner ids, or an element
interior mode ('i', eid, multi). A slot is a free dof, eliminated (Dirichlet),
or constrained to master slots through a hanging interface.

Both spaces address elements by their positions in `mesh.active_ids()`:
every reader of element data takes positions of elements of one degree, as
`element_groups` hands them out, and `mesh.positions_of` turns ids into
positions.
"""

import itertools
from functools import cached_property

import numpy as np

from . import _kernels
from ._kernels import _indptr, _ranges
from .mesh import (DIRICHLET, RELATIONS, corner_bits, corner_row,
                   facet_corner_rows, map_jacobians)
from .polybasis import (MAX_DEGREE, gauss_lagrange_tensor, reference_table,
                        tensor_gauss, tensor_indices, tensor_shape_eval)

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

@reference_table
def _expansion_operator(degree):
    """Gauss points (degree + 1, 1) and the inverse of the 1D shape table on
    them, which maps point values to shape coefficients."""
    pts, _ = tensor_gauss(degree + 1, 1)
    V, _ = tensor_shape_eval(pts, tensor_indices(degree, 1))
    return pts, np.linalg.inv(V)


@reference_table
def _restriction(degree, lo, hi):
    """The 1D restriction matrix (degree + 1, degree + 1): row j holds the
    coefficients of psi_j composed with the affine map of [-1, 1] onto
    [lo, hi] (reversed when lo > hi) over psi_0 .. psi_degree."""
    pts, Vinv = _expansion_operator(degree)
    a, b = 0.5 * (hi - lo), 0.5 * (hi + lo)
    V, _ = _kernels.shape_table(a * pts[:, 0] + b, max(degree, 1))
    return (Vinv @ V).T


@reference_table
def constraint_coeffs(multi, child_bits, zhat, degree=None):
    """Expansion of parent tensor shapes restricted to one child box.

    The child box along axis k is [-1, zhat_k] (bit 0) or [zhat_k, 1] (bit 1);
    the returned coefficients express psi-hat_multi composed with the child
    embedding in the child's own tensor shape basis, as the flat row over
    tensor_indices(degree, d). multi is one multi-index, or rows (n, d) of
    them, which give an (n, (degree+1)^d) array. The rows combine the columns
    of one 1D restriction matrix per axis by outer product.
    """
    multis = np.asarray(multi, dtype=np.intp)
    single = multis.ndim == 1
    multis = multis.reshape(-1, multis.shape[-1])
    d = multis.shape[1]
    zhat = np.broadcast_to(np.asarray(zhat, dtype=float), (d,))
    if degree is None:
        degree = max(int(multis.max()), 1)
    out = np.ones((len(multis), 1))
    for k in range(d):
        lo, hi = (-1.0, zhat[k]) if not child_bits[k] else (zhat[k], 1.0)
        R = _restriction(degree, lo, hi)
        out = (out[:, :, None] * R[multis[:, k]][:, None, :]).reshape(len(multis), -1)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# reference tables of the dof map
# ---------------------------------------------------------------------------

@reference_table
def _box_edges(r):
    """The edges of the r-dimensional reference box: axis (ne,) and corner
    rows of the low and the high end (ne, 2)."""
    axes, low = [], []
    for a in range(r):
        for sides in itertools.product((0, 1), repeat=r - 1):
            axes.append(a)
            low.append(list(sides[:a]) + [0] + list(sides[a:]))
    axes = np.array(axes, dtype=np.intp)
    low = np.array(low, dtype=np.intp).reshape(len(axes), r)
    start = corner_row(low)
    return axes, np.stack([start, start + (1 << (r - 1 - axes))], axis=1)


@reference_table
def _facet_edges(d):
    """The element's box edges on each local facet (2d, n), in the order and
    orientation of _box_edges(d - 1) over the facet."""
    _, ends = _box_edges(d)
    at = {pair: i for i, pair in enumerate(map(tuple, ends.tolist()))}
    _, fends = _box_edges(d - 1)
    return np.array([[at[(rows[a], rows[b])] for a, b in fends.tolist()]
                     for rows in facet_corner_rows(d).tolist()], dtype=np.intp)


@reference_table
def _shape_entities(d, p):
    """Where the tensor shapes of a degree-p element in d dimensions (in
    tensor_indices order) live: kind (n,) (0 vertex, 1 edge, 2 face,
    3 interior), local entity (n,) (corner row, box edge, local facet, or the
    ordinal among the interior shapes) and in-entity indices (n, 2): j on an
    edge, (j_u, j_v) over a face's own axes."""
    idx = tensor_indices(p, d)
    bub = idx >= 2
    nbub = bub.sum(axis=1)
    kind = np.where(nbub == d, 3, nbub)
    ent = np.zeros(len(idx), dtype=np.intp)
    jj = np.zeros((len(idx), 2), dtype=np.intp)
    vert = kind == 0
    ent[vert] = corner_row(idx[vert])
    edge = np.nonzero(kind == 1)[0]
    if edge.size:
        axes, ends = _box_edges(d)
        at = {key: i for i, key in enumerate(zip(axes.tolist(),
                                                 ends[:, 0].tolist()))}
        a = np.argmax(bub[edge], axis=1)
        start = corner_row(np.where(bub[edge], 0, idx[edge]))
        ent[edge] = [at[key] for key in zip(a.tolist(), start.tolist())]
        jj[edge, 0] = idx[edge, a]
    face = np.nonzero(kind == 2)[0]
    if face.size:
        k = np.argmin(bub[face], axis=1)
        ent[face] = 2 * k + idx[face, k]
        jj[face] = idx[face][bub[face]].reshape(-1, 2)
    inner = kind == 3
    ent[inner] = np.arange(inner.sum())
    return kind, ent, jj


def _face_frames(ids):
    """Canonical frames of quadrilateral faces from their tensor-ordered corner
    ids (m, 4) (corner 2*u + v at local coordinates (u, v)): swap (m,) and
    flips (m, 2). Canonical axis c takes its index from local facet axis c,
    or 1 - c when swapped, with a sign flip when flips[c]. The canonical
    origin is the corner of least id, and the first canonical axis runs to
    the neighbor of lesser id."""
    m = np.arange(len(ids))
    o = np.argmin(ids, axis=1)
    ou, ov = o // 2, o % 2
    swap = ~(ids[m, 2 * (1 - ou) + ov] < ids[m, 2 * ou + 1 - ov])
    flips = np.stack([np.where(swap, ov, ou), np.where(swap, ou, ov)], axis=1)
    return swap, flips == 1


def _edges_on_edges(box, perm, flip):
    """For H hanging facet pieces in 3D, with coarse-side boxes box
    (H, coarse axis, lo/hi), perms and flips (H, 2), the triples (piece,
    coarse facet edge, fine facet edge), edges in the order of
    _box_edges(2), where the fine facet's edge lies on the coarse facet's
    edge."""
    bits = corner_bits(2)
    axes, ends = _box_edges(2)
    # t[h, j, c]: coarse facet coordinate j of the fine facet's corner c
    side = np.swapaxes(bits[:, perm], 0, 1) ^ flip[:, None, :]
    t = np.take_along_axis(box, np.swapaxes(side, 1, 2), axis=2)
    # coarse edge k runs along axes[k] at coordinate v[k] on the other axis
    other = 1 - axes
    v = 2 * bits[ends[:, 0], other] - 1
    on = (t[:, other][:, :, ends] == v[:, None, None]).all(axis=3)
    return np.nonzero(on)


@reference_table
def _facet_shapes(d, p):
    """The tensor shapes of a degree-p element in d dimensions on each local
    facet: their rows in tensor_indices order (2d, (p + 1)^(d - 1)) and their
    multi-indices over the facet's axes (2d, (p + 1)^(d - 1), d - 1)."""
    idx = tensor_indices(p, d)
    on = [np.nonzero(idx[:, f // 2] == f % 2)[0] for f in range(2 * d)]
    return (np.array(on, dtype=np.intp),
            np.array([np.delete(idx[rows], f // 2, axis=1)
                      for f, rows in enumerate(on)], dtype=np.intp))


def _constraint_rows(d, tab, hang, owner, slot, sign, in_degree, offsets, deg):
    """Unresolved constraint rows (slots, master slots, coefficients) of the
    hanging slots. Slot s hangs on interface owner[s], an index into the
    interior rows hang of the facet table tab; its row restricts the coarse
    facet's in-degree shapes to the fine facet, one 1D restriction per
    coarse facet axis, with slots and signs on both sides from the shapes
    at the element rows offsets. One pass per group of interfaces of one
    (fine degree, coarse degree); the triples come in interface order, then
    fine shape, then coarse shape."""
    owns = np.unique(owner[owner >= 0])
    rows = hang[owns]
    pf, pc = deg[tab.el[rows]], deg[tab.nb[rows]]
    parts = []
    for fdeg, cdeg in sorted(set(zip(pf.tolist(), pc.tolist()))):
        at = (pf == fdeg) & (pc == cdeg)
        h, row = owns[at], rows[at]
        fine, t = (a[tab.facet[row]] for a in _facet_shapes(d, fdeg))
        coarse, m = (a[tab.nb_facet[row]] for a in _facet_shapes(d, cdeg))
        fine = fine + offsets[tab.el[row], None]
        coarse = coarse + offsets[tab.nb[row], None]
        p = max(fdeg, cdeg)
        vals = sign[fine][:, :, None] * sign[coarse][:, None, :]
        for a in range(d - 1):
            lohi = np.where(tab.flip[row, a, None], tab.nb_box[row, a, ::-1],
                            tab.nb_box[row, a])
            keys, which = np.unique(lohi, axis=0, return_inverse=True)
            R = np.stack([_restriction(p, lo, hi) for lo, hi in keys.tolist()])
            ta = np.take_along_axis(t, tab.perm[row, a, None, None], axis=2)
            vals = vals * R[which.reshape(-1, 1, 1), m[:, None, :, a], ta]
        keep = ((owner[slot[fine]] == h[:, None])[:, :, None]
                & in_degree[slot[coarse]][:, None, :] & (np.abs(vals) > _DROP))
        i, j, k = np.nonzero(keep)
        parts.append((h[i], fine[i, j], coarse[i, k], vals[keep]))
    h, fine, coarse, vals = (np.concatenate(part) for part in zip(*parts))
    order = np.lexsort((coarse, fine, h))
    return slot[fine[order]], slot[coarse[order]], vals[order]


def _first_owner(fine, coarse, size):
    """For entity ids fine (H, k) of the fine sides of H hanging interfaces
    and ids coarse (H, k') of their coarse sides: per entity, the first
    interface whose fine side holds it and whose coarse side does not (the
    entity hangs there), -1 where none."""
    owner = np.full(size, -1, dtype=np.intp)
    strict = ~(fine[:, :, None] == coarse[:, None, :]).any(axis=2)
    h = np.broadcast_to(np.arange(len(fine))[:, None], fine.shape)[strict]
    ents, first = np.unique(fine[strict], return_index=True)
    owner[ents] = h[first]
    return owner


def _resolve_constraints(R, T, ncol):
    """T (slots x ncol dofs, CSR arrays (indptr, indices, data) with sorted
    indices) with the rows of the slots that R (slots x slots, the same)
    constrains set to their resolved rows, which T holds empty, as CSR
    arrays. Row s of R expresses slot s in master slots, which may
    themselves be constrained, so the rows are resolved in dependency order,
    one level at a time, as R's rows times T (`_kernels.csr_product`),
    sorted and without the entries of magnitude at most _DROP."""
    indptr, cols, vals = T
    n = len(indptr) - 1
    waiting = np.diff(R[0]) > 0
    pending = np.flatnonzero(waiting)
    while pending.size:
        masters, _, count = _row_entries(R, pending)
        blocked = np.logical_or.reduceat(waiting[masters], np.cumsum(count) - count)
        ready = pending[~blocked]
        if not ready.size:
            raise RuntimeError("cyclic hanging-node constraints")
        r_cols, r_vals, count = _row_entries(R, ready)
        res = res_ptr, res_cols, res_vals = _kernels.csr_product(
            (_indptr(count), r_cols, r_vals), (indptr, cols, vals), ncol)
        _kernels.csr_sort(res)
        keep = np.abs(res_vals) > _DROP
        # the resolved rows were empty: a stable sort by row puts each in
        # place, its indices sorted
        rows = np.concatenate([np.repeat(np.arange(n), np.diff(indptr)),
                               np.repeat(ready, np.diff(res_ptr))[keep]])
        order = np.argsort(rows, kind="stable")
        cols = np.concatenate([cols, res_cols[keep]])[order]
        vals = np.concatenate([vals, res_vals[keep]])[order]
        indptr = _indptr(np.bincount(rows, minlength=n))
        waiting[ready] = False
        pending = pending[blocked]
    return indptr, cols, vals


def element_groups(space, *keys):
    """Positions of the active elements of a space grouped by degree and by
    further per-element keys (arrays in element order), as {(degree,
    *keys): positions}, in ascending key order, positions ascending."""
    cols = np.stack((space._deg,) + keys, axis=1)
    # a stable sort by the keys, the degree first, cut where the key changes
    order = np.lexsort(cols.T[::-1])
    cut = np.flatnonzero(np.diff(cols[order], axis=0).any(axis=1)) + 1
    return {tuple(cols[at[0]].tolist()): at for at in np.split(order, cut)}


# ---------------------------------------------------------------------------
# the continuous scalar space
# ---------------------------------------------------------------------------

class ScalarSpace:
    """Continuous hp space of mapped tensor integrated-Legendre polynomials.

    The dof map is built with arrays, one pass per degree group. Each element
    shape sits on a "slot": a vertex value, an edge bubble j oriented from the
    lower to the higher vertex id, a face bubble (j1, j2) in a frame fixed by
    the corner ids, or an interior mode. T (slots x free dofs) is the
    identity on free slots, empty on Dirichlet and out-of-degree slots, and
    holds the resolved constraint rows on slots hanging on a coarser
    neighbor's facet. Row r of the local-to-global operator P (CSR arrays, one
    row per tensor shape of each active element, in element order, one
    column per free dof) is the row of T at the slot of shape r, times the
    shape's orientation sign: P u stacks the element coefficients of u, and
    P^T blockdiag(A_T) P assembles element matrices A_T.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.dim = mesh.dim
        act = mesh.active_ids()
        deg = mesh.degree[act]
        if not np.all((deg >= 1) & (deg <= MAX_DEGREE)):
            raise ValueError(f"polynomial degree must be in 1..{MAX_DEGREE}")
        self._act = np.array(act, dtype=np.intp)
        self._deg = deg
        self._shape_offsets = _indptr((deg + 1) ** self.dim)
        self._build()

    # -- the dof map -----------------------------------------------------------

    def _build(self):
        """Number the entities and the free dofs, then form T and P: the
        slot and sign of every shape in one pass per degree group, the
        unresolved constraint rows of all hanging slots in one pass per
        (fine degree, coarse degree) group of interfaces
        (`_constraint_rows`), resolved into T (`_resolve_constraints`), and
        P as T's rows gathered by slot and scaled by sign."""
        mesh, d, act, deg = self.mesh, self.dim, self._act, self._deg
        n = len(act)
        ids = mesh.corners[act]
        rows = facet_corner_rows(d)
        vids, vent = np.unique(ids, return_inverse=True)
        vent = vent.reshape(ids.shape)
        nv = len(vids)
        ekeys = np.zeros((0, 2), dtype=np.intp)
        fkeys = np.zeros((0, 4), dtype=np.intp)
        if d >= 2:
            _, ends = _box_edges(d)
            v0, v1 = ids[:, ends[:, 0]], ids[:, ends[:, 1]]
            base = len(mesh.vertices)
            codes, eent = np.unique(np.minimum(v0, v1) * base + np.maximum(v0, v1),
                                    return_inverse=True)
            eent = eent.reshape(v0.shape)
            erev = v0 > v1
            ekeys = np.stack([codes // base, codes % base], axis=1)
            fedges = _facet_edges(d)
        if d == 3:
            fids = ids[:, rows]
            fkeys, fent = np.unique(np.sort(fids, axis=2).reshape(-1, 4), axis=0,
                                    return_inverse=True)
            fent = fent.reshape(n, 2 * d)
            swap, flips = _face_frames(fids.reshape(-1, 4))
            swap, flips = swap.reshape(n, 2 * d), flips.reshape(n, 2 * d, 2)
        ne, nf = len(ekeys), len(fkeys)
        edge_deg = np.full(ne, MAX_DEGREE, dtype=np.intp)
        face_deg = np.full(nf, MAX_DEGREE, dtype=np.intp)
        if d >= 2:
            np.minimum.at(edge_deg, eent, np.broadcast_to(deg[:, None], eent.shape))
        if d == 3:
            np.minimum.at(face_deg, fent, np.broadcast_to(deg[:, None], fent.shape))

        # Dirichlet entities: the closures of the Dirichlet facets
        di, df = np.nonzero(np.equal(mesh.tags[act], DIRICHLET))
        fixed_v = np.zeros(nv, dtype=bool)
        fixed_e = np.zeros(ne, dtype=bool)
        fixed_f = np.zeros(nf, dtype=bool)
        fixed_v[vent[di[:, None], rows[df]]] = True
        if d >= 2:
            fixed_e[eent[di[:, None], fedges[df]]] = True
        if d == 3:
            fixed_f[fent[di, df]] = True

        # hanging interfaces: a fine facet inside a coarse neighbor's facet
        # caps the degrees of the coarse facet's closure; the fine facet's
        # entities that are not the coarse facet's hang on the first one
        tab = mesh.facet_table()
        hang = np.nonzero(tab.relation == RELATIONS.index("coarse_nb"))[0]
        fine_at, fine_f = tab.el[hang], tab.facet[hang]
        coarse_at, coarse_f = tab.nb[hang], tab.nb_facet[hang]
        vown = _first_owner(vent[fine_at[:, None], rows[fine_f]],
                            vent[coarse_at[:, None], rows[coarse_f]], nv)
        eown = np.full(ne, -1, dtype=np.intp)
        fown = np.full(nf, -1, dtype=np.intp)
        if d >= 2 and hang.size:
            coarse = eent[coarse_at[:, None], fedges[coarse_f]]
            np.minimum.at(edge_deg, coarse,
                          np.broadcast_to(deg[fine_at, None], coarse.shape))
            eown = _first_owner(eent[fine_at[:, None], fedges[fine_f]], coarse, ne)
        if d == 3 and hang.size:
            # a fine edge on a coarse edge may also belong to elements that
            # meet the coarse element along that edge only, so the coarse
            # edge is capped by the fine edge's degree, fine levels first
            h, k, e = _edges_on_edges(tab.nb_box[hang], tab.perm[hang],
                                      tab.flip[hang])
            fine = eent[fine_at[h], fedges[fine_f[h], e]]
            coarse = eent[coarse_at[h], fedges[coarse_f[h], k]]
            level = mesh.level[act[fine_at[h]]]
            for lev in np.unique(level)[::-1].tolist():
                at_lev = level == lev
                np.minimum.at(edge_deg, coarse[at_lev], edge_deg[fine[at_lev]])
            coarse = fent[coarse_at, coarse_f]
            np.minimum.at(face_deg, coarse, deg[fine_at])
            fown = _first_owner(fent[fine_at, fine_f][:, None], coarse[:, None], nf)

        # free dofs: vertices by id, edges and faces by key, interiors by element
        free_v = ~fixed_v & (vown < 0)
        free_e = ~fixed_e & (eown < 0)
        free_f = ~fixed_f & (fown < 0)
        icount = (deg - 1) ** d
        counts = np.concatenate([free_v, np.where(free_e, edge_deg - 1, 0),
                                 np.where(free_f, (face_deg - 1) ** 2, 0), icount])
        start = _indptr(counts)
        self.ndof = int(start[-1])
        self._interior_offsets = start[nv + ne + nf:]
        self._free_entities = (vids[free_v], ekeys[free_e], edge_deg[free_e],
                               fkeys[free_f], face_deg[free_f])

        # slots: vertices, then q edge bubbles per edge and q^2 face bubbles
        # per face (j = 2 .. q + 1), then the interior modes
        q = int(deg.max()) - 1
        e0, f0 = nv, nv + ne * q
        i0 = f0 + nf * q * q
        nslots = i0 + int(icount.sum())
        j = np.arange(2, q + 2)
        slot_dof = np.full(nslots, -1, dtype=np.intp)
        in_degree = np.ones(nslots, dtype=bool)
        slot_dof[:nv][free_v] = start[:nv][free_v]
        ok = j <= edge_deg[:, None]
        in_degree[e0:f0] = ok.ravel()
        ok &= free_e[:, None]
        slot_dof[e0:f0][ok.ravel()] = (start[nv:nv + ne, None] + j - 2)[ok]
        ok = (j[:, None] <= face_deg[:, None, None]) & (j <= face_deg[:, None, None])
        in_degree[f0:i0] = ok.ravel()
        ok &= free_f[:, None, None]
        fdof = (start[nv + ne:nv + ne + nf, None, None]
                + (j[:, None] - 2) * (face_deg[:, None, None] - 1) + j - 2)
        slot_dof[f0:i0][ok.ravel()] = fdof[ok]
        slot_dof[i0:] = np.arange(start[nv + ne + nf], self.ndof)

        # the slot and orientation sign of every shape, per degree group
        nshape = int(self._shape_offsets[-1])
        slot = np.empty(nshape, dtype=np.intp)
        sign = np.ones(nshape)
        istart = _indptr(icount)
        for (p,), sel in element_groups(self).items():
            kind, ent, jj = _shape_entities(d, p)
            s = np.empty((len(sel), len(kind)), dtype=np.intp)
            g = np.ones(s.shape)
            k = kind == 0
            s[:, k] = vent[sel][:, ent[k]]
            k = kind == 1
            if k.any():
                jk = jj[k, 0]
                s[:, k] = e0 + eent[sel][:, ent[k]] * q + jk - 2
                g[:, k] = np.where(erev[sel][:, ent[k]] & (jk % 2 == 1), -1.0, 1.0)
            k = kind == 2
            if k.any():
                sw, fl = swap[sel][:, ent[k]], flips[sel][:, ent[k]]
                m0 = np.where(sw, jj[k, 1], jj[k, 0])
                m1 = np.where(sw, jj[k, 0], jj[k, 1])
                s[:, k] = f0 + (fent[sel][:, ent[k]] * q + m0 - 2) * q + m1 - 2
                odd = (fl[..., 0] & (m0 % 2 == 1)) ^ (fl[..., 1] & (m1 % 2 == 1))
                g[:, k] = np.where(odd, -1.0, 1.0)
            k = kind == 3
            s[:, k] = i0 + istart[sel][:, None] + ent[k]
            at_rows = _element_rows(self._shape_offsets, sel, 1)
            slot[at_rows] = s.ravel()
            sign[at_rows] = g.ravel()

        # T as CSR arrays: identity on free slots, then the constraint rows of
        # hanging slots, resolved in dependency order (a master may hang)
        free = slot_dof >= 0
        T = _indptr(free), slot_dof[free], np.ones(np.count_nonzero(free))
        vown[fixed_v], eown[fixed_e], fown[fixed_f] = -1, -1, -1
        owner = np.concatenate([vown, np.repeat(eown, q), np.repeat(fown, q * q),
                                np.full(nslots - i0, -1, dtype=np.intp)])
        if (owner >= 0).any():
            rr, cc, vals = _constraint_rows(d, tab, hang, owner, slot, sign,
                                            in_degree, self._shape_offsets, deg)
            # one triple per (slot, master slot): sorted, they are R's CSR rows
            order = np.lexsort((cc, rr))
            R = (_indptr(np.bincount(rr, minlength=nslots)), cc[order], vals[order])
            T = _resolve_constraints(R, T, self.ndof)
        self._T = T
        self._vertex_ids = vids
        self._hanging_vertices = np.nonzero(vown >= 0)[0]
        # P: row r is the row of T at the slot of shape r, times its sign
        cols, vals, count = _row_entries(T, slot)
        self.P = _indptr(count), cols, vals * np.repeat(sign, count)

    # -- reading the dof map ---------------------------------------------------

    @cached_property
    def dofs(self):
        """The free dofs as canonical slots, in dof order: ('v', vid),
        ('e', (lo, hi), j), ('f', sorted corner ids, (j1, j2)) and
        ('i', eid, multi)."""
        verts, edges, edeg, faces, fdeg = self._free_entities
        out = [("v", v) for v in verts.tolist()]
        for key, p in zip(map(tuple, edges.tolist()), edeg.tolist()):
            out += [("e", key, j) for j in range(2, p + 1)]
        for key, p in zip(map(tuple, faces.tolist()), fdeg.tolist()):
            out += [("f", key, m) for m in itertools.product(range(2, p + 1),
                                                             repeat=2)]
        for eid, p in zip(self._act.tolist(), self._deg.tolist()):
            out += [("i", eid, m) for m in itertools.product(range(2, p + 1),
                                                             repeat=self.dim)]
        return out

    def hanging_vertices(self):
        """{vertex id: (dofs, coefficients)}: the resolved constraint row of
        each hanging vertex that is not on a Dirichlet facet."""
        return {int(self._vertex_ids[v]): _row_entries(self._T, [v])[:2]
                for v in self._hanging_vertices.tolist()}

    def interior_dofs(self, positions=None):
        """The dofs of the interior modes, numbered last, element by element:
        all, or those (n, k) of the elements at positions, all of one degree."""
        if positions is None:
            return np.arange(self._interior_offsets[0], self.ndof)
        rows = _element_rows(self._interior_offsets, positions, 1)
        return rows.reshape(len(positions), -1)

    def local_operator(self, ncomp, positions):
        """The rows of P (x) I_ncomp, for fields whose ncomp components are
        interleaved, of the active elements at positions (all of one
        degree), element by element, gathered from P's arrays
        (`_row_entries`): the CSR arrays (indptr, indices, data) of the rows
        and of their transpose, which `assembly.galerkin` reads."""
        cols, data, count = _row_entries(
            self.P, _element_rows(self._shape_offsets, positions, ncomp), ncomp)
        rows = (_indptr(count), cols, data)
        return rows, _kernels.csr_transpose(rows, ncomp * self.ndof)

    def scatter(self, ncomp, positions, values):
        """The rows of P (x) I_ncomp of the active elements at positions (all
        of one degree), transposed, times values (one per row): each entry
        sums its products from 0 in CSR entry order, as scipy's product with
        the transposed (CSC) rows does, so the two agree bit for bit."""
        cols, data, count = _row_entries(
            self.P, _element_rows(self._shape_offsets, positions, ncomp), ncomp)
        # with no entries at all, np.bincount counts in integers
        return np.bincount(cols, weights=data * np.repeat(values, count),
                           minlength=ncomp * self.ndof).astype(float, copy=False)

    def element_coeffs(self, positions, u):
        """Coefficients (n, nb, ...) of a global field u (ndof,) or (ndof, k)
        over the tensor shapes of the active elements at positions, all of
        one degree: their rows of P times u. Each entry sums its products
        from 0 in CSR entry order, as scipy's CSR product does, so the two
        agree bit for bit."""
        rows = _element_rows(self._shape_offsets, positions, 1)
        cols, data, count = _row_entries(self.P, rows)
        u = np.asarray(u)
        row = np.repeat(np.arange(len(rows)), count)
        vals = data[:, None] * (u if u.ndim == 2 else u[:, None])[cols]
        # with no entries at all, np.bincount counts in integers
        out = np.stack([np.bincount(row, weights=v, minlength=len(rows))
                        for v in vals.T], axis=1).astype(float, copy=False)
        return out.reshape((len(positions), -1) + u.shape[1:])

    def vertex_values(self, u):
        """Values at mesh vertices (for export); NaN where a vertex is unused."""
        vals = np.full(len(self.mesh.vertices), np.nan)
        corners_hat = 2.0 * corner_bits(self.dim) - 1.0
        ids = self.mesh.corners[self._act]
        for (p,), sel in element_groups(self).items():
            V, _ = tensor_shape_eval(corners_hat, tensor_indices(p, self.dim))
            vals[ids[sel]] = self.element_coeffs(sel, u) @ V.T
        return vals


def _row_entries(a, rows, ncomp=1):
    """The entries of rows of A (x) I_ncomp, A given by its CSR arrays
    (indptr, indices, data) with sorted indices, in the order and at the
    columns of the CSR form of scipy's Kronecker product: row ncomp i + c
    holds A's row i at the columns ncomp j + c. Returns their columns, their
    values and the count of entries of each row. It is the one reader of
    the rows of P, T and R."""
    indptr, indices, data = a
    i, c = np.divmod(rows, ncomp)
    count = np.diff(indptr)[i]
    take = _ranges(indptr[i], count)
    return ncomp * indices[take] + np.repeat(c, count), data[take], count


def _element_rows(offsets, positions, ncomp):
    """Rows ncomp * offsets[i] + (0 .. ncomp * count - 1), element by element,
    of the elements at positions i, which must all have one count of rows
    offsets[i + 1] - offsets[i], that is one degree: ValueError otherwise."""
    positions = np.asarray(positions, dtype=np.intp)
    start = offsets[positions]
    count = offsets[positions + 1] - start
    if (count != count[0]).any():
        raise ValueError(f"the elements at positions {positions[0]} and "
                         f"{positions[count != count[0]][0]} differ in degree")
    return (ncomp * start[:, None] + np.arange(ncomp * count[0])).ravel()


# ---------------------------------------------------------------------------
# the discontinuous Gauss-point space with its biorthogonal dual
# ---------------------------------------------------------------------------

def require_same_degrees(space, qspace):
    """Raise ValueError unless a displacement space and a Gauss-point space
    have the same active elements with the same degrees."""
    if not (np.array_equal(space._act, qspace._act)
            and np.array_equal(space._deg, qspace._deg)):
        raise ValueError("the displacement and Gauss-point spaces must have "
                         "the same element degrees")


def gauss_point_basis(p, xhat, gradient=False):
    """Values (m, n_T), and with gradient=True reference gradients
    (m, n_T, d), of the Gauss-point basis of a degree-p element at reference
    points xhat (m, d): the Lagrange basis at the p^d Gauss points, or the
    constant 1 for p = 1."""
    xhat = np.atleast_2d(xhat)
    if p == 1:
        V = np.ones((xhat.shape[0], 1))
        G = np.zeros((xhat.shape[0], 1, xhat.shape[1]))
    else:
        V, G = gauss_lagrange_tensor(p, xhat)
    return (V, G) if gradient else V


class GaussPointSpace:
    """Discontinuous space of degree p_T - 1 with Lagrange dofs at the tensor
    Gauss points (a single elementwise constant when p_T = 1). The mass
    blocks, the dual coefficients and the dof weights are built per degree
    group. The dofs of the i-th active element are offsets[i] ..
    offsets[i + 1] - 1, and its mass and dual blocks are the entries
    blocks[i] .. blocks[i + 1] - 1 of two flat arrays."""

    def __init__(self, mesh, yield_stress):
        if yield_stress <= 0:
            raise ValueError("yield stress must be positive")
        self.mesh = mesh
        self.dim = mesh.dim
        self.yield_stress = float(yield_stress)
        act = mesh.active_ids()
        deg = mesh.degree[act]
        counts = np.where(deg >= 2, deg ** self.dim, 1)
        self._act = np.array(act, dtype=np.intp)
        self._deg = deg
        self.offsets = _indptr(counts)
        self._blocks = _indptr(counts * counts)
        self.ndof = int(self.offsets[-1])
        self._build()

    def _build(self):
        d, act = self.dim, self._act
        corners = self.mesh.corner_array(act)
        groups = element_groups(self)
        rules, bad = {}, []
        for (p,), sel in groups.items():
            pts, wts = tensor_gauss(p + 1, d)
            det = np.linalg.det(map_jacobians(corners[sel], pts))
            rules[p] = (pts, wts * det)
            bad.append(sel[(det <= 0).any(axis=1)])
        bad = np.concatenate(bad)
        if bad.size:
            raise ValueError(f"degenerate element {act[bad.min()]}: det J <= 0")
        D = np.empty(self.ndof)
        self._mass, self._dual = np.empty((2, int(self._blocks[-1])))
        for (p,), sel in groups.items():
            pts, w = rules[p]
            V = gauss_point_basis(p, pts)
            M = np.einsum("qi,nq,qj->nij", V, w, V)
            Dloc = (V.T @ w[:, :, None])[..., 0]
            D[_element_rows(self.offsets, sel, 1)] = Dloc.ravel()
            at = _element_rows(self._blocks, sel, 1)
            self._mass[at] = M.ravel()
            # column i of a dual block: the coefficients of the i-th
            # biorthogonal function over the Lagrange basis, M c_i = D_i e_i
            self._dual[at] = np.linalg.solve(
                M, Dloc[:, :, None] * np.eye(V.shape[1])).ravel()
        if np.any(D <= 0):
            raise ValueError("nonpositive dof weight; mesh is degenerate")
        self.weights = D
        self.bounds = np.full(self.ndof, self.yield_stress)

    def element_dofs(self, positions, ncomp=1):
        """The unknowns (n, ncomp n_T) of ncomp-component fields (components
        interleaved) on the active elements at positions, all of one degree,
        element by element: the space is discontinuous and numbers its dofs
        element by element."""
        return _element_rows(self.offsets, positions, ncomp).reshape(len(positions), -1)

    def _block_stack(self, flat, positions):
        """The blocks (n, n_T, n_T) of the elements at positions, all of one
        degree, from the flat array of the mass or the dual blocks."""
        k = self.offsets[positions[0] + 1] - self.offsets[positions[0]]
        return flat[_element_rows(self._blocks, positions, 1)].reshape(-1, k, k)

    def mass_blocks(self, positions):
        """Mass blocks (n, n_T, n_T) of the active elements at positions, all
        of one degree."""
        return self._block_stack(self._mass, positions)

    def element_rows(self, positions, rows, dual=False):
        """Coefficient rows (n, n_T, k) of the active elements at positions,
        all of one degree, from rows (ndof, k); dual=True takes rows over
        the biorthogonal basis and returns them over the Lagrange basis."""
        out = rows[self.element_dofs(positions)]
        if dual:
            out = self._block_stack(self._dual, positions) @ out
        return out
