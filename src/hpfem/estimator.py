"""Residual a posteriori error estimation for the mixed elastoplastic
discretization, with the pointwise-projected multiplier bound, the auxiliary
linear problem behind the upper/lower error bounds, and Doerfler marking.

Per active element T the indicator is

    eta_T^2 = (h_T/p_T)^2 ||f_N + div sigma(u_N, p_N)||_{0,T}^2
            + sum_{interior e} h_e/(2 p_e) || [sigma n_e] ||_{0,e}^2
            + sum_{Neumann e}  h_e/p_e || sigma n_e - g_N ||_{0,e}^2

and the plasticity contribution adds ||dev(sigma - H p_N) - lam_N||_{0,T}^2,
||mu - lam_N||_{0,T}^2 and (sigma_y, |p_N|_F)_{0,T} - (mu, p_N)_{0,T} for an
admissible mu (the pointwise radial projection of lam_N + p_N/2 by default).
f_N, g_N are elementwise/facetwise L2 projections of the data onto the local
polynomial degree; their defects enter the oscillation terms.

The indicators are computed in one batched pass. The fields are gathered once
per element, and every table, map derivative and field value is evaluated for
a whole group at a time: the volume terms per element degree, and all facet
terms per facet degree p_e. A Neumann facet is a one-sided facet piece over
the whole facet, so the jump and Neumann terms of one p_e share one batch:
one map evaluation, one h_e formula and one stress evaluation
(`Fields.stress_at`) for every side of every piece.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import group_quadrature
from .mesh import (corner_bits, facet_measure, map_hessians, map_jacobians,
                   map_points, point_set_diameters)
from .plasticity import ElementBlocks, Fields, deviator, tensor_values
from .polybasis import (tensor_gauss, tensor_indices, tensor_shape_eval,
                        tensor_shape_hessian)
from .space import element_groups, gauss_point_basis

# Gap, in units of the largest value, below which two indicators (or two
# predicted reductions) count as tied. Mirror-image elements differ only by
# rounding: by a few ulps for the residual indicators, but by up to 1.4e-12
# of the largest gain for the predicted reductions of the L-shape loop, whose
# differences of energies cancel.
TIE_RTOL = 1e-10


@dataclass
class ErrorIndicators:
    element_ids: np.ndarray
    residual_part: np.ndarray      # eta_T^2
    plastic_part: np.ndarray       # extra terms with mu = mu*
    oscillation: np.ndarray        # per-element osc^2
    total: np.ndarray              # residual + plastic

    @property
    def global_estimate(self):
        return float(self.total.sum())

    @property
    def global_oscillation(self):
        return float(self.oscillation.sum())


def mu_star_at(lam_vals, p_vals, yield_stress):
    """Pointwise radial projection of lam + p/2 onto the admissible ball."""
    mu_hat = lam_vals + 0.5 * p_vals
    nrm = np.linalg.norm(mu_hat, axis=(-2, -1))
    factor = np.ones_like(nrm)
    over = nrm > yield_stress
    factor[over] = yield_stress / nrm[over]
    return factor[..., None, None] * mu_hat


def stress_divergence_values(material, coef, prows, G, H, GL, Jinv, Hf):
    """div sigma(u, p) (n, m, d) on n elements at shared reference points.

    coef (n, nb, d) are displacement coefficients over the tensor shapes with
    reference gradients G (m, nb, d) and Hessians H (m, nb, d, d); prows
    (n, c, L) are p rows over the Gauss-point basis with reference gradients
    GL (m, c, d); Jinv (n, m, d, d) and Hf (n, m, d, d, d) are the inverse
    Jacobians and the second derivatives of the element maps. The
    coefficients are contracted with the reference tables before anything is
    mapped, so memory stays at O(n m d^3)."""
    n, m, d, _ = Jinv.shape
    JinvT = np.swapaxes(Jinv, -1, -2)
    gu = np.tensordot(coef, G, axes=(1, 1)).transpose(0, 2, 1, 3)  # d_a u_k
    hu = np.tensordot(coef, H, axes=(1, 1)).transpose(0, 2, 1, 3, 4)
    # physical Hessians d_a d_b u_k = J^{-T} (hu_k - sum_c d_c u_k Hf_c) J^{-1}
    hu -= ((gu @ Jinv) @ Hf.reshape(n, m, d, d * d)).reshape(hu.shape)
    hess = (JinvT[:, :, None] @ hu) @ Jinv[:, :, None]
    del hu  # keep at most a few (n, m, d, d, d) arrays alive
    # d_j eps_kl = (d_j d_l u_k + d_j d_k u_l) / 2, axes [.., j, k, l]
    hess = hess.transpose(0, 1, 4, 2, 3)
    deps = hess + np.swapaxes(hess, -1, -2)
    del hess
    deps *= 0.5
    gp = JinvT @ np.tensordot(prows, GL, axes=(1, 1)).transpose(0, 2, 3, 1)
    deps -= tensor_values(gp, d)  # gp[.., j, l] = d_j p_l
    return np.einsum("nqjkj->nqk", material.apply_elasticity(deps))


def _l2_projections(V, w, vals, V_eval):
    """L2 projections of data values vals (n, m, k) at quadrature points onto
    the span of shapes with values V (m, nb), under weights w (n, m): their
    values through V_eval (m', nb) and the squared L2 norms of the defects."""
    Vw = V.T * w[:, None, :]
    coef = np.linalg.solve(Vw @ V, Vw @ vals)
    defect = vals - V @ coef
    return V_eval @ coef, np.einsum("nq,nqk,nqk->n", w, defect, defect)


def compute_indicators(space, qspace, material, loads, u, p, lam=None,
                       mu_mode="star"):
    """All indicator parts for a conforming triple (u, p in primal coeffs,
    lam in dual coeffs; lam=None takes the field dev(sigma - H p) itself).
    mu_mode 'star' uses the projected pointwise minimizer; 'multiplier' uses
    lam itself (admissible only when it satisfies the bound)."""
    mesh = space.mesh
    act = mesh.active_ids()
    n = len(act)
    fields = Fields(space, qspace, material, u, p, lam)
    corners = mesh.corner_array(act)
    res_part = np.zeros(n)
    pl_part = np.zeros(n)
    osc = np.zeros(n)
    for (pT,), sel in element_groups(space).items():
        res_part[sel], pl_part[sel], osc[sel] = _volume_terms(
            fields, loads, corners[sel], pT, sel, qspace.yield_stress, mu_mode)
    tab = mesh.facet_table()
    # sweep numbers of the boundary facets and the interior pieces, in
    # element, facet and piece order
    code = 2 * mesh.dim * np.concatenate([tab.b_el, tab.el]) + np.concatenate(
        [tab.b_facet, tab.facet])
    seq = np.empty(len(code), dtype=np.intp)
    seq[np.argsort(code, kind="stable")] = np.arange(len(code))
    res_terms, osc_terms = _facet_terms(mesh, fields, loads, corners, tab, seq)
    # each element adds its facet terms in sweep order, so that elements
    # related by a symmetry of the mesh add equal terms in the same order
    for part, terms in ((res_part, res_terms), (osc, osc_terms)):
        if terms:
            key, target, value = (np.concatenate(a) for a in zip(*terms))
            at = np.argsort(key, kind="stable")
            np.add.at(part, target[at], value[at])
    return ErrorIndicators(element_ids=np.array(act), residual_part=res_part,
                           plastic_part=pl_part, oscillation=osc,
                           total=res_part + pl_part)


def _volume_terms(fields, loads, C, pT, sel, sigma_y, mu_mode):
    """Volume residual, plastic part and data oscillation of the elements sel
    of degree pT with corners C, at the Gauss points of order pT + 2."""
    d = fields.dim
    material = fields.material
    idx = tensor_indices(pT, d)
    pts, w, Jinv = group_quadrature(C, pT + 2)
    V, G = tensor_shape_eval(pts, idx)
    VL, GL = gauss_point_basis(pT, pts, gradient=True)
    coef, prows, lrows = fields.rows(pT, sel)
    resid = stress_divergence_values(
        material, coef, prows, G, tensor_shape_hessian(pts, idx),
        GL, Jinv, map_hessians(C, pts))
    scale = (point_set_diameters(C) / pT) ** 2
    osc = np.zeros(len(sel))
    if loads.volume is not None:
        qpts, qw, _ = group_quadrature(C, pT + 3)
        Vq, _ = tensor_shape_eval(qpts, idx)
        x = map_points(C, qpts)
        vals = np.asarray(loads.volume(x.reshape(-1, d)), dtype=float)
        fN, fdef = _l2_projections(Vq, qw, vals.reshape(x.shape), V)
        resid += fN
        osc = scale * fdef
    res = scale * np.einsum("nq,nqk,nqk->n", w, resid, resid)
    sig, pq = fields.stress(np.swapaxes(coef, 1, 2)[:, None] @ G, VL @ prows,
                            Jinv)
    target = deviator(sig - material.apply_hardening(pq))
    lam_vals = target if lrows is None else tensor_values(VL @ lrows, d)
    t1 = target - lam_vals
    mu_vals = mu_star_at(lam_vals, pq, sigma_y) if mu_mode == "star" \
        else lam_vals
    t2 = mu_vals - lam_vals
    pnorm = np.linalg.norm(pq, axis=(-2, -1))
    plastic = (np.einsum("nq,nqab,nqab->n", w, t1, t1)
               + np.einsum("nq,nqab,nqab->n", w, t2, t2)
               + (w * (sigma_y * pnorm)).sum(axis=1)
               - np.einsum("nq,nqab,nqab->n", w, mu_vals, pq))
    return res, plastic, osc


def _facet_terms(mesh, fields, loads, corners, tab, seq):
    """Facet terms of the facet table tab, whose boundary rows and then
    interior rows have sweep numbers seq, one batch per p_e, as (sweep key,
    element position, value) arrays for the residual and the oscillation.

    An interior piece, taken once from the side the sweep finds first, adds
    h_e/(2 p_e) ||[sigma n]||^2 to both sides, with p_e the larger degree. A
    Neumann facet is a one-sided piece over the whole facet: it adds
    h_e/p_e ||sigma n - g_N||^2 and the traction oscillation to its element,
    with p_e the element degree."""
    d = mesh.dim
    inner = np.nonzero(np.arange(len(tab.twin)) < tab.twin)[0]
    neumann = np.nonzero(np.array([tag in loads.neumann_tags for tag in tab.b_tag],
                                  dtype=bool))[0]
    k = len(inner)
    mine = np.concatenate([tab.el[inner], tab.b_el[neumann]])
    f_mine = np.concatenate([tab.facet[inner], tab.b_facet[neumann]])
    box = np.concatenate([tab.my_box[inner],
                          np.broadcast_to([-1.0, 1.0], (len(neumann), d - 1, 2))])
    other, f_other = tab.nb[inner], tab.nb_facet[inner]
    order = np.concatenate([seq[len(tab.b_el) + inner], seq[neumann]])
    p_e = fields.deg[mine]
    p_e[:k] = np.maximum(p_e[:k], fields.deg[other])
    if d > 1:
        fb = corner_bits(d - 1).astype(bool)
        ends = np.where(fb[None], box[:, None, :, 1], box[:, None, :, 0])
        h_e = point_set_diameters(map_points(
            corners[mine], mesh.facet_embed(f_mine, ends)))
    else:
        h_e = np.ones(len(mine))  # the facet of an interval is a point
    res_terms, osc_terms = [], []
    for pe in sorted(set(p_e.tolist())):
        sel = np.nonzero(p_e == pe)[0]
        pair, bnd = sel[sel < k], sel[sel >= k]
        n, npair = len(sel), len(pair)
        xi, wts = tensor_gauss(pe + 2, d - 1)
        t_mine, t_nb = tab.coords(inner[pair], xi)
        t_mine = np.concatenate([t_mine, np.broadcast_to(xi, (len(bnd),) + xi.shape)])
        ref = np.concatenate([mesh.facet_embed(f_mine[sel], t_mine),
                              mesh.facet_embed(f_other[pair], t_nb)])
        els = np.concatenate([mine[sel], other[pair]])
        J = map_jacobians(corners[els], ref)
        dS, nrm = facet_measure(J[:n], f_mine[sel])
        sig = fields.stress_at(els, ref, np.linalg.inv(J))
        sig[:npair] -= sig[n:]
        flux = (sig[:n] @ nrm[..., None])[..., 0]
        if loads.traction is not None and len(bnd):
            C, f = corners[mine[bnd]], f_mine[bnd]
            qpts, qwts = tensor_gauss(pe + 3, d - 1)
            qref = mesh.facet_embed(f, np.broadcast_to(qpts, (len(bnd),) + qpts.shape))
            x = map_points(C, qref)
            vals = np.asarray(loads.traction(x.reshape(-1, d)), dtype=float)
            fidx = tensor_indices(pe, d - 1)
            gN, gdef = _l2_projections(
                tensor_shape_eval(qpts, fidx)[0],
                qwts * facet_measure(map_jacobians(C, qref), f)[0],
                vals.reshape(x.shape), tensor_shape_eval(xi, fidx)[0])
            flux[npair:] -= gN
            osc_terms.append((order[bnd], mine[bnd], h_e[bnd] / pe * gdef))
        wq = wts * np.prod(0.5 * (box[sel, :, 1] - box[sel, :, 0]), axis=1)[:, None]
        val = h_e[sel] / (np.where(sel < k, 2.0, 1.0) * pe) * np.einsum(
            "nq,nqk,nqk->n", wq * dS, flux, flux)
        res_terms += [(2 * order[sel], mine[sel], val),
                      (2 * order[pair] + 1, other[pair], val[:npair])]
    return res_terms, osc_terms


# ---------------------------------------------------------------------------
# auxiliary problem and marking
# ---------------------------------------------------------------------------

def solve_auxiliary(system, lam):
    """Solve a((u*,p*),(v,q)) = l(v) - (lam, q) for the multiplier given in
    dual coefficients (flat, L-interleaved); returns (u*, p*).

    p* = C^{-1}(B^T u* - D lam) element block by element block, and
    (K - B C^{-1} B^T) u* = l - B C^{-1} D lam: the condensed solve with
    X_e = -C_e^{-1} and g_e = -C_e^{-1} (D lam)_e."""
    lam = np.asarray(lam, dtype=float).ravel()
    blocks = ElementBlocks(system)
    Dlam = system.D * lam
    rhs = [-np.concatenate([np.broadcast_to(np.eye(grp.C.shape[1]), grp.C.shape),
                            Dlam[grp.idx][..., None]], axis=-1)
           for grp in blocks.groups]
    return blocks.condensed_solve([grp.C for grp in blocks.groups], rhs,
                                  system.l)


def mark_dorfler(indicators, theta):
    """Minimal element set carrying a theta-fraction of the total indicator;
    greedy by descending value, ties by ascending element id. Consecutive
    values (in descending order) within TIE_RTOL of the largest indicator
    form one tie class, so that mirror-image elements whose indicators differ
    only by rounding are marked in id order, whatever the summation order
    that produced them. A NaN or infinite indicator raises ValueError naming
    the elements."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    if isinstance(indicators, ErrorIndicators):
        ids = indicators.element_ids
        vals = indicators.total
    else:
        ids = np.array(sorted(indicators.keys()))
        vals = np.array([indicators[i] for i in ids], dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError("non-finite indicator on element(s) "
                         f"{[int(i) for i in ids[bad]]}")
    total = float(vals.sum())
    if total <= 0.0:
        return []
    pos = np.flatnonzero(vals > 0.0)
    order = pos[np.argsort(-vals[pos])]
    desc = vals[order]
    tie_class = np.concatenate(
        [[0], np.cumsum(desc[:-1] - desc[1:] > TIE_RTOL * desc[0])])
    order = order[np.lexsort((ids[order], tie_class))]
    acc = 0.0
    out = []
    for i in order:
        if acc >= theta * total:
            break
        out.append(int(ids[i]))
        acc += float(vals[i])
    return out
