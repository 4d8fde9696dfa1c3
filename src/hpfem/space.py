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
bubble ('e', key, j), a face bubble ('f', key, (j1, j2)), each keyed by its
sorted corner ids and read in a frame fixed by them, or an element interior
mode ('i', eid, multi). A slot is a free dof, eliminated (Dirichlet), or
constrained to master slots through a hanging interface.

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
def _sub_boxes(d, k):
    """The k-dimensional sub-boxes of the d-dimensional reference box: their
    axes (nb, k), ascending, and corner rows (nb, 2^k) in the box's tensor
    order over them, axis set by axis set (itertools.combinations order),
    then by their place on the other axes; and the boxes on each local facet
    (2d, n), those whose corners are all the facet's, ascending, which is
    the order and orientation of _sub_boxes(d - 1, k) over the facet."""
    axes = np.array(list(itertools.combinations(range(d), k)), dtype=np.intp)
    # the corner rows of an axis set, grouped by their bits on the other axes
    other = np.arange(2 ** d) & ~(1 << (d - 1 - axes)).sum(axis=1, keepdims=True)
    corners = np.argsort(other, axis=1, kind="stable").reshape(-1, 2 ** k)
    on = (corners[:, :, None] == facet_corner_rows(d)[:, None, None]).any(axis=3)
    return (np.repeat(axes, 2 ** (d - k), axis=0), corners,
            np.nonzero(on.all(axis=2))[1].reshape(2 * d, -1))


@reference_table
def _shape_slots(d, p):
    """Where the tensor shapes of a degree-p element in d dimensions sit: a
    shape with k bubble indices on a k-box, or for k = d on the interior.
    Per shape, the column of its entity (n,) (k-boxes for k = 0 .. d-1, then
    the interior), and per frame code (2 perm + flips) @ (2k)^(0 .. k-1) of
    its box (`_frames`) its bubble indices in the box's canonical frame
    after leading 2s, or its ordinal + 2 in the interior (n, ncodes, w), and
    its sign (n, ncodes). With q^k slots per k-box (indices 2 .. q + 1, the
    last fastest), its slot is (indices - 2) @ q^(w-1 .. 0) in its entity."""
    idx = tensor_indices(p, d)
    bub = idx >= 2
    kind = bub.sum(axis=1)
    # a box is fixed by its low and its high corner: the column of each,
    # the k-boxes for k = 0 .. d-1 in _sub_boxes order, then the interior
    ends = np.concatenate([_sub_boxes(d, k)[1][:, [0, -1]] for k in range(d)]
                          + [[[0, 2 ** d - 1]]])
    box = np.empty((2 ** d, 2 ** d), dtype=np.intp)
    box[ends[:, 0], ends[:, 1]] = np.arange(len(ends))
    col = box[corner_row(np.where(bub, 0, idx)), corner_row(np.where(bub, 1, idx))]
    ncodes, w = max((2 * k) ** k for k in range(d)), max(d - 1, 1)
    digits = np.full((len(idx), ncodes, w), 2, dtype=np.intp)
    sign = np.ones((len(idx), ncodes))
    for k in range(1, d):  # a vertex has one frame, no indices and sign 1
        at = np.flatnonzero(kind == k)
        ax = np.nonzero(bub[at])[1].reshape(len(at), k)
        perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
        flips = tensor_indices(1, k)
        code = (2 * perms[:, None] + flips) @ (2 * k) ** np.arange(k)
        m = idx[at[:, None, None], ax[:, perms]]
        digits[at[:, None, None], code, w - k:] = m[:, :, None]
        sign[at[:, None, None], code] = 1 - 2 * ((m % 2) @ flips.T % 2)
    inner = np.flatnonzero(kind == d)
    digits[inner, :, -1] = np.arange(2, len(inner) + 2)[:, None]
    return col, digits, sign


def _frames(ids):
    """Canonical frames of m k-boxes from their corner ids (m, 2^k), in tensor
    order: perm and flips (m, k). Canonical axis c runs along box axis
    perm[c], reversed when flips[c]: the origin is the corner of least id,
    and the axes are ordered by the ids of the origin's neighbors."""
    bit = 1 << np.arange(ids.shape[1].bit_length() - 2, -1, -1)
    o = ids.argmin(axis=1)[:, None]
    perm = ids[np.arange(len(ids))[:, None], o ^ bit].argsort(axis=1)
    return perm, o & bit[perm] > 0


def _numbered(keys):
    """The distinct rows of keys (m, c) in lexicographic order and the
    number of each row among them (m,), as np.unique(keys, axis=0,
    return_inverse=True) gives them, by one lexsort."""
    order = np.lexsort(keys.T[::-1])
    rows = keys.take(order, axis=0)
    # a row is new where any column differs from the row before (a product
    # with ones, as .any(axis=1) reduces the short rows one by one)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) @ np.ones(keys.shape[1], dtype=bool)
    number = np.empty(len(keys), dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return rows[new], number


def _edges_on_edges(box, perm, flip):
    """For H hanging facet pieces in 3D, with coarse-side boxes box
    (H, coarse axis, lo/hi), perms and flips (H, 2), the triples (piece,
    coarse facet edge, fine facet edge), edges in _sub_boxes(2, 1) order,
    where the fine facet's edge lies on the coarse facet's edge."""
    bits = corner_bits(2)
    axes, ends, _ = _sub_boxes(2, 1)
    # t[h, j, c]: coarse facet coordinate j of the fine facet's corner c
    side = np.swapaxes(bits[:, perm], 0, 1) ^ flip[:, None, :]
    t = np.take_along_axis(box, np.swapaxes(side, 1, 2), axis=2)
    # coarse edge k runs along axes[k] at coordinate v[k] on the other axis
    other = 1 - axes[:, 0]
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
            keys, which = _numbered(lohi)
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

    The dof map is built with arrays, one pass per entity dimension and one
    per degree group. Each element shape sits on a "slot": a vertex value,
    an edge or face bubble with its indices in the box's canonical frame, or
    an interior mode. T (slots x free dofs) is the
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
        """Number the entities and the free dofs, then form T and P. The
        entities of dimension k = 0 .. d-1, the elements' k-boxes, take one
        pass per dimension: numbered by sorted corner ids (`_numbered`;
        vertices by id), capped by the minimum rule, fixed on Dirichlet
        facets, hung on their first hanging interface, framed (`_frames`)
        and given (cap - 1)^k free dofs and q^k slots. Then every shape's
        slot and sign per degree group (`_shape_slots`), the constraint rows
        (`_constraint_rows`) resolved into T (`_resolve_constraints`), and P
        as T's rows gathered by slot and scaled by sign."""
        mesh, d, act, deg = self.mesh, self.dim, self._act, self._deg
        ids = mesh.corners[act]
        di, df = np.nonzero(np.equal(mesh.tags[act], DIRICHLET))
        # hanging interfaces: a fine facet inside a coarse neighbor's facet
        tab = mesh.facet_table()
        hang = np.nonzero(tab.relation == RELATIONS.index("coarse_nb"))[0]
        fine_at, fine_f = tab.el[hang], tab.facet[hang]
        coarse_at, coarse_f = tab.nb[hang], tab.nb_facet[hang]
        dims = []
        for k in range(d):
            _, corners, on = _sub_boxes(d, k)
            box_ids = ids[:, corners].reshape(-1, 2 ** k)
            if k:
                key, ent = _numbered(np.sort(box_ids, axis=1))
                perm, flips = _frames(box_ids)
                code = (2 * perm + flips) @ (2 * k) ** np.arange(k)
            else:  # the vertices: numbered by id, in one frame
                key, ent = np.unique(box_ids, return_inverse=True)
                code = np.zeros(len(box_ids), dtype=np.intp)
            ent, code = ent.reshape(len(act), -1), code.reshape(len(act), -1)
            cap = np.full(len(key), MAX_DEGREE, dtype=np.intp)
            np.minimum.at(cap, ent, np.broadcast_to(deg[:, None], ent.shape))
            own = np.full(len(key), -1, dtype=np.intp)
            if hang.size:
                # a hanging interface caps the degrees of the coarse facet's
                # closure; the fine facet's entities that are not the coarse
                # facet's hang on the first such interface
                fine = ent[fine_at[:, None], on[fine_f]]
                coarse = ent[coarse_at[:, None], on[coarse_f]]
                np.minimum.at(cap, coarse, np.broadcast_to(deg[fine_at, None], coarse.shape))
                if k == 1 and d == 3:
                    # a fine edge on a coarse edge may also belong to elements
                    # that meet the coarse element along that edge only, so the
                    # coarse edge is capped by the fine edge's degree, fine
                    # levels first
                    h, c, f = _edges_on_edges(tab.nb_box[hang], tab.perm[hang],
                                              tab.flip[hang])
                    level = mesh.level[act[fine_at[h]]]
                    for lev in np.unique(level)[::-1].tolist():
                        at_lev = level == lev
                        np.minimum.at(cap, coarse[h, c][at_lev], cap[fine[h, f][at_lev]])
                own = _first_owner(fine, coarse, len(key))
            fixed = np.zeros(len(key), dtype=bool)
            fixed[ent[di[:, None], on[df]]] = True
            own[fixed] = -1
            dims.append((ent, code, key, cap, ~fixed & (own < 0), own))
        ents, codes, keys, caps, frees, owners = zip(*dims)

        # free dofs: entity by entity, dimension by dimension, then interiors
        icount = (deg - 1) ** d
        start = _indptr(np.concatenate(
            [np.where(free, (cap - 1) ** k, 0)
             for k, (free, cap) in enumerate(zip(frees, caps))] + [icount]))
        self.ndof = int(start[-1])
        nent = _indptr([len(key) for key in keys])
        self._interior_offsets = start[nent[-1]:]
        self._free_entities = [(key[free], cap[free])
                               for key, cap, free in zip(keys, caps, frees)]

        # slots: q^k per entity of dimension k, then the interior modes
        q = int(deg.max()) - 1
        first = _indptr([len(key) * q ** k for k, key in enumerate(keys)]
                        + [icount.sum()])
        slot_dof = np.full(first[-1], -1, dtype=np.intp)
        in_degree = np.ones(first[-1], dtype=bool)
        for k, (cap, free) in enumerate(zip(caps, frees)):
            m = np.indices((q,) * k).reshape(k, q ** k).T + 2
            ok = m.max(axis=1, initial=0) <= cap[:, None]
            at = slice(first[k], first[k + 1])
            in_degree[at] = ok.ravel()
            dof = ((cap[:, None] - 1) ** np.arange(k - 1, -1, -1)) @ (m - 2).T
            slot_dof[at] = np.where(ok & free[:, None],
                                    start[nent[k]:nent[k + 1], None] + dof, -1).ravel()
        slot_dof[first[d]:] = np.arange(start[nent[-1]], self.ndof)

        # the slot and orientation sign of every shape, per degree group
        base = np.concatenate([first[k] + ent * q ** k for k, ent in enumerate(ents)]
                              + [first[d] + _indptr(icount)[:-1, None]], axis=1)
        code = np.concatenate(codes + (np.zeros((len(act), 1), dtype=np.intp),), axis=1)
        nshape = int(self._shape_offsets[-1])
        slot = np.empty(nshape, dtype=np.intp)
        sign = np.empty(nshape)
        for (p,), sel in element_groups(self).items():
            col, digits, sgn = _shape_slots(d, p)
            off = (digits - 2) @ q ** np.arange(digits.shape[2] - 1, -1, -1)
            c, at = code[sel[:, None], col], np.arange(len(col))
            rows = _element_rows(self._shape_offsets, sel, 1)
            slot[rows] = (base[sel[:, None], col] + off[at, c]).ravel()
            sign[rows] = sgn[at, c].ravel()

        # T as CSR arrays: identity on free slots, then the constraint rows of
        # hanging slots, resolved in dependency order (a master may hang)
        free = slot_dof >= 0
        T = _indptr(free), slot_dof[free], np.ones(np.count_nonzero(free))
        owner = np.concatenate([np.repeat(own, q ** k) for k, own in enumerate(owners)]
                               + [np.full(first[-1] - first[d], -1, dtype=np.intp)])
        if (owner >= 0).any():
            rr, cc, vals = _constraint_rows(d, tab, hang, owner, slot, sign,
                                            in_degree, self._shape_offsets, deg)
            # one triple per (slot, master slot): sorted, they are R's CSR rows
            order = np.lexsort((cc, rr))
            R = (_indptr(np.bincount(rr, minlength=first[-1])), cc[order], vals[order])
            T = _resolve_constraints(R, T, self.ndof)
        self._T = T
        self._vertex_ids = keys[0]
        self._hanging_vertices = np.nonzero(owners[0] >= 0)[0]
        # P: row r is the row of T at the slot of shape r, times its sign
        cols, vals, count = _row_entries(T, slot)
        self.P = _indptr(count), cols, vals * np.repeat(sign, count)

    # -- reading the dof map ---------------------------------------------------

    @cached_property
    def dofs(self):
        """The free dofs as canonical slots, in dof order: ('v', vid),
        ('e', (lo, hi), j), ('f', sorted corner ids, (j1, j2)) and
        ('i', eid, multi)."""
        (verts, _), *bubbles = self._free_entities
        out = [("v", v) for v in verts.tolist()]
        for kind, (keys, caps) in zip("ef", bubbles):
            for key, p in zip(map(tuple, keys.tolist()), caps.tolist()):
                out += [(kind, key, m[0] if kind == "e" else m) for m in
                        itertools.product(range(2, p + 1), repeat=len(key) // 2)]
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
