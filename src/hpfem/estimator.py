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
"""

from dataclasses import dataclass

import numpy as np

from .assembly import element_quadrature, physical_gradients
from .plasticity import (ElementBlocks, deviator, plastic_field_at,
                         strain_at)
from .polybasis import (tensor_gauss, tensor_indices, tensor_shape_eval,
                        tensor_shape_hessian)
from .space import deviatoric_basis, deviatoric_dim


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

    def as_dict(self):
        return dict(zip(self.element_ids.tolist(), self.total.tolist()))


def mu_star_at(lam_vals, p_vals, yield_stress):
    """Pointwise radial projection of lam + p/2 onto the admissible ball."""
    mu_hat = lam_vals + 0.5 * p_vals
    nrm = np.linalg.norm(mu_hat, axis=(-2, -1))
    factor = np.ones_like(nrm)
    over = nrm > yield_stress
    factor[over] = yield_stress / nrm[over]
    return factor[..., None, None] * mu_hat


def mapped_hessian(emap, pts, loc_hess, loc_grad, Jinv):
    """Physical second derivatives of mapped scalar shapes.

    loc_hess (m, nb, d, d), loc_grad (m, nb, d) are reference derivatives;
    returns (m, nb, d, d).
    """
    Hf = emap.hessian(pts)  # (m, comp, a, b)
    T = -np.einsum("qab,qbce,qen,qcm->qamn", Jinv, Hf, Jinv, Jinv, optimize=True)
    out = np.einsum("qzab,qam,qbn->qzmn", loc_hess, Jinv, Jinv, optimize=True)
    out += np.einsum("qza,qamn->qzmn", loc_grad, T, optimize=True)
    return out


def stress_divergence(space, qspace, material, eid, u, p, pts, Jinv):
    """div sigma(u_N, p_N) at reference points pts: values (m, d)."""
    d = space.dim
    emap = space.mesh.element_map(eid)
    idx = space.local_indices(eid)
    jmax = max(space.degrees[eid], 1)
    _, G = tensor_shape_eval(pts, idx, jmax=jmax)
    Hh = tensor_shape_hessian(pts, idx, jmax=jmax)
    hess = mapped_hessian(emap, pts, Hh, G, Jinv)
    rows, cmat = space.connectivity(eid)
    loc = np.stack([cmat.T @ u[d * rows + k] for k in range(d)], axis=1)  # (nb, d)
    uh = np.einsum("qzmn,zk->qkmn", hess, loc, optimize=True)  # hessian per component
    m = uh.shape[0]
    # d_n eps_kl = 0.5 (d_n d_l u_k + d_n d_k u_l)
    deps = np.empty((m, d, d, d))
    for n in range(d):
        Hn = uh[:, :, :, n]  # (q, k, l) = d_l d_n u_k
        deps[:, :, :, n] = 0.5 * (Hn + Hn.transpose(0, 2, 1))
    L = deviatoric_dim(d)
    Phi = deviatoric_basis(d)
    prows = np.asarray(p, dtype=float).reshape(qspace.ndof, L)
    gp = qspace.eval_primal_grad(eid, prows, pts)  # (m, d_ref?, ...)
    # gradient of p in physical coords: eval_primal_grad returns reference grads
    gp = np.einsum("qal,qam->qml", gp, Jinv)  # (m, phys axis, L)
    dp = np.einsum("qnl,lab->qnab", gp, Phi)  # d_n p_ab
    div = np.zeros((m, d))
    for n in range(d):
        dsig = material.apply_elasticity(deps[:, :, :, n] - dp[:, n])
        div += dsig[:, :, n]
    return div


def _project_element_data(space, eid, func, pts, Jinv_unused=None):
    """L2-projection of data onto the element's polynomial space, evaluated at pts."""
    mesh = space.mesh
    p = space.degrees[eid]
    emap = mesh.element_map(eid)
    qpts, qwts = tensor_gauss(p + 3, mesh.dim)
    det = emap.det_jacobian(qpts)
    idx = tensor_indices(p, mesh.dim)
    V, _ = tensor_shape_eval(qpts, idx, jmax=max(p, 1))
    w = qwts * det
    M = np.einsum("qi,q,qj->ij", V, w, V)
    vals = np.asarray(func(emap.map_point(qpts)), dtype=float)
    rhs = np.tensordot(V.T * w[None, :], vals, axes=(1, 0))
    coef = np.linalg.solve(M, rhs)
    Ve, _ = tensor_shape_eval(pts, idx, jmax=max(p, 1))
    defect = vals - np.tensordot(V, coef, axes=(1, 0))
    defect_sq = float(w @ (defect**2).reshape(len(w), -1).sum(axis=1))
    return np.tensordot(Ve, coef, axes=(1, 0)), defect_sq


def _facet_quadrature(mesh, eid, f, box, order):
    """Gauss points/weights on a sub-box of a facet, with area factors."""
    d = mesh.dim
    if d == 1:
        t = np.zeros((1, 0))
        return t, np.ones(1), np.ones(1)
    xi, wts = tensor_gauss(order, d - 1)
    t = np.empty_like(xi)
    scale = 1.0
    for j in range(d - 1):
        lo, hi = box[j]
        t[:, j] = lo + 0.5 * (xi[:, j] + 1.0) * (hi - lo)
        scale *= 0.5 * (hi - lo)
    dS, _ = mesh.facet_area_element(eid, f, t)
    return t, wts * scale, dS


def _stress_at(space, qspace, material, eid, u, p, pts, Jinv):
    eps = strain_at(space, eid, u, pts, Jinv)
    pq = plastic_field_at(qspace, eid, p, pts)
    return material.stress(eps, pq), eps, pq


def compute_indicators(space, qspace, material, loads, u, p, lam=None,
                       mu_mode="star"):
    """All indicator parts for a conforming triple (u, p in primal coeffs,
    lam in dual coeffs; lam=None takes the field dev(sigma - H p) itself).
    mu_mode 'star' uses the projected pointwise minimizer; 'multiplier' uses
    lam itself (admissible only when it satisfies the bound)."""
    mesh = space.mesh
    d = mesh.dim
    act = mesh.active_ids()
    pos = {eid: i for i, eid in enumerate(act)}
    n = len(act)
    res_part = np.zeros(n)
    pl_part = np.zeros(n)
    osc = np.zeros(n)
    sigma_y = qspace.yield_stress
    L = deviatoric_dim(d)
    lam_rows = None if lam is None else np.asarray(lam, dtype=float).reshape(qspace.ndof, L)
    Phi = deviatoric_basis(d)

    for eid in act:
        pT = space.degrees[eid]
        hT = mesh.diameter(eid)
        emap, pts, wts, det, Jinv = element_quadrature(mesh, eid, pT + 2)
        w = wts * det
        # volume residual with projected data
        div = stress_divergence(space, qspace, material, eid, u, p, pts, Jinv)
        if loads.volume is not None:
            fN, fdef = _project_element_data(space, eid, loads.volume, pts)
        else:
            fN, fdef = np.zeros((len(pts), d)), 0.0
        resid = fN + div
        res_part[pos[eid]] += (hT / pT) ** 2 * float(np.einsum(
            "q,qk,qk->", w, resid, resid))
        osc[pos[eid]] += (hT / pT) ** 2 * fdef
        # plasticity terms
        sig, eps, pq = _stress_at(space, qspace, material, eid, u, p, pts, Jinv)
        target = deviator(sig - material.apply_hardening(pq))
        if lam_rows is None:
            lam_vals = target
        else:
            lam_vals = np.einsum("ql,lab->qab",
                                 qspace.eval_dual(eid, lam_rows, pts), Phi)
        t1 = target - lam_vals
        if mu_mode == "star":
            mu_vals = mu_star_at(lam_vals, pq, sigma_y)
        else:
            mu_vals = lam_vals
        t2 = mu_vals - lam_vals
        pnorm = np.linalg.norm(pq, axis=(1, 2))
        part = (np.einsum("q,qab,qab->", w, t1, t1)
                + np.einsum("q,qab,qab->", w, t2, t2)
                + float(w @ (sigma_y * pnorm))
                - np.einsum("q,qab,qab->", w, mu_vals, pq))
        pl_part[pos[eid]] += float(part)

    # facet terms
    done = set()
    for eid in act:
        pT = space.degrees[eid]
        for f, info in enumerate(mesh.facet_neighbors(eid)):
            if info.kind == "boundary":
                if info.tag not in loads.neumann_tags:
                    continue
                h_e = _facet_diameter(mesh, eid, f, None)
                p_e = pT
                t, wq, dS = _facet_quadrature(mesh, eid, f,
                                              ((-1.0, 1.0),) * (d - 1), pT + 2)
                ref = mesh.facet_embed(f, t)
                J = mesh.element_map(eid).jacobian(ref)
                Jinv = np.linalg.inv(J)
                sig, _, _ = _stress_at(space, qspace, material, eid, u, p, ref, Jinv)
                _, nrm = mesh.facet_area_element(eid, f, t)
                sn = np.einsum("qab,qb->qa", sig, nrm)
                if loads.traction is not None:
                    gN, gdef = _project_facet_data(space, eid, f, loads.traction,
                                                   t, pT)
                else:
                    gN, gdef = np.zeros_like(sn), 0.0
                diff = sn - gN
                val = float(np.einsum("q,qk,qk->", wq * dS, diff, diff))
                res_part[pos[eid]] += (h_e / p_e) * val
                osc[pos[eid]] += (h_e / p_e) * gdef
                continue
            for piece in info.pieces:
                nb = piece.neighbor
                mid = mesh.element_map(eid).map_point(mesh.facet_embed(
                    f, np.mean(np.asarray(piece.my_box, dtype=float), axis=1)[None, :]
                    if d > 1 else np.zeros((1, 0))))[0]
                key = (min(eid, nb), max(eid, nb), tuple(np.round(mid, 10)))
                if key in done:
                    continue
                done.add(key)
                p_e = max(pT, space.degrees[nb])
                order = p_e + 2
                _, wq, dS = _facet_quadrature(mesh, eid, f, piece.my_box, order)
                xi, _ = tensor_gauss(order, d - 1)
                t_mine, t_nb = mesh.piece_coords(eid, f, piece, xi)
                ref_m = mesh.facet_embed(f, t_mine)
                ref_n = mesh.facet_embed(piece.facet, t_nb)
                Jm = np.linalg.inv(mesh.element_map(eid).jacobian(ref_m))
                Jn = np.linalg.inv(mesh.element_map(nb).jacobian(ref_n))
                sig_m, _, _ = _stress_at(space, qspace, material, eid, u, p, ref_m, Jm)
                sig_n, _, _ = _stress_at(space, qspace, material, nb, u, p, ref_n, Jn)
                _, nrm = mesh.facet_area_element(eid, f, t_mine)
                jump = np.einsum("qab,qb->qa", sig_m - sig_n, nrm)
                val = float(np.einsum("q,qk,qk->", wq * dS, jump, jump))
                h_e = _facet_diameter(mesh, eid, f, piece.my_box)
                res_part[pos[eid]] += h_e / (2.0 * p_e) * val
                if nb in pos:
                    res_part[pos[nb]] += h_e / (2.0 * p_e) * val

    total = res_part + pl_part
    return ErrorIndicators(element_ids=np.array(act), residual_part=res_part,
                           plastic_part=pl_part, oscillation=osc, total=total)


def _facet_diameter(mesh, eid, f, box):
    """Diameter of (a sub-box of) an element facet."""
    d = mesh.dim
    if d == 1:
        return 1.0
    if box is None:
        box = ((-1.0, 1.0),) * (d - 1)
    corners = []
    from itertools import product
    for bits in product((0, 1), repeat=d - 1):
        t = np.array([box[j][bits[j]] for j in range(d - 1)], dtype=float)
        ref = mesh.facet_embed(f, t[None, :])
        corners.append(mesh.element_map(eid).map_point(ref)[0])
    return max(np.linalg.norm(a - b) for a in corners for b in corners)


def _project_facet_data(space, eid, f, func, t_eval, p_e):
    """Facet L2-projection of traction data, evaluated at in-facet coords t_eval."""
    mesh = space.mesh
    d = mesh.dim
    emap = mesh.element_map(eid)
    if d == 1:
        ref = mesh.facet_embed(f, np.zeros((1, 0)))
        g = np.asarray(func(emap.map_point(ref)), dtype=float)
        return g, 0.0
    qpts, qwts = tensor_gauss(p_e + 3, d - 1)
    ref = mesh.facet_embed(f, qpts)
    dS, _ = mesh.facet_area_element(eid, f, qpts)
    idx = tensor_indices(p_e, d - 1)
    V, _ = tensor_shape_eval(qpts, idx, jmax=max(p_e, 1))
    w = qwts * dS
    M = np.einsum("qi,q,qj->ij", V, w, V)
    vals = np.asarray(func(emap.map_point(ref)), dtype=float)
    rhs = np.tensordot(V.T * w[None, :], vals, axes=(1, 0))
    coef = np.linalg.solve(M, rhs)
    defect = vals - np.tensordot(V, coef, axes=(1, 0))
    defect_sq = float(np.einsum("q,qk->", w, defect**2))
    Ve, _ = tensor_shape_eval(t_eval, idx, jmax=max(p_e, 1))
    return np.tensordot(Ve, coef, axes=(1, 0)), defect_sq


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
    greedy by descending value, ties by ascending element id."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    if isinstance(indicators, ErrorIndicators):
        ids = indicators.element_ids
        vals = indicators.total
    else:
        ids = np.array(sorted(indicators.keys()))
        vals = np.array([indicators[i] for i in ids], dtype=float)
    total = float(vals.sum())
    if total <= 0.0:
        return []
    order = sorted(range(len(ids)), key=lambda i: (-vals[i], ids[i]))
    acc = 0.0
    out = []
    for i in order:
        if acc >= theta * total:
            break
        if vals[i] <= 0.0:
            break
        out.append(int(ids[i]))
        acc += float(vals[i])
    return out
