"""The discrete mixed elastoplastic problem as a decoupled nonlinear system,
solved by a damped semi-smooth Newton method.

Unknowns are stacked as x = [u (d*M), p (L*N), lam (L*N)] with p in the
Lagrange (primal) basis and lam in the biorthogonal basis, so the multiplier
constraints decouple per dof block: |lam_i|_F <= sigma_i.

The Newton step is condensed to the displacements. D is diagonal, the Clarke
blocks of the complementarity rows are L x L per dof and C is block diagonal
over the elements, so (dp, dlam) are eliminated element by element (one
batched dense solve per block size) and each step factorizes only the
symmetric displacement-sized matrix K + B X B^T.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels
from .assembly import element_quadrature, physical_gradients
from .polybasis import tensor_shape_eval
from .space import deviatoric_basis, deviatoric_dim


def chi(p_i, lam_i, sigma_i, rho):
    """Per-dof complementarity residual on trace-free symmetric matrices.

    chi = max(sigma_i, |lam_i + rho p_i|_F) lam_i - sigma_i (lam_i + rho p_i);
    it vanishes exactly when |lam_i|_F <= sigma_i and lam_i : p_i = sigma_i |p_i|_F.
    """
    p_i = np.asarray(p_i, dtype=float)
    lam_i = np.asarray(lam_i, dtype=float)
    w = lam_i + rho * p_i
    m = max(sigma_i, float(np.linalg.norm(w)))
    return m * lam_i - sigma_i * w


def chi_coords(p, lam, sigma, rho, want_jacobian=False):
    """Vectorized chi over coefficient rows (N, L); optionally with the Clarke
    element blocks (at the kink the active branch is selected)."""
    return _kernels.chi_blocks(
        np.ascontiguousarray(p, dtype=float),
        np.ascontiguousarray(lam, dtype=float),
        np.ascontiguousarray(sigma, dtype=float), float(rho),
        want_jacobian)


@dataclass
class NewtonConfig:
    rho: float | None = None  # default: ellipticity scale 2 mu + hardening
    tol: float = 1e-11
    max_iter: int = 60
    armijo_c: float = 1e-4
    shrink: float = 0.5
    t_min: float = 2.0 ** -20
    stagnation: int = 4  # damp when the merit has not improved for this long


@dataclass
class SolutionTriple:
    u: np.ndarray          # (d*M,)
    p: np.ndarray          # (L*N,)
    lam: np.ndarray        # (L*N,)
    converged: bool = True
    iterations: int = 0
    trace: list = field(default_factory=list)  # rows (it, |F|, merit, t, active)
    retries: int = 0  # failed steps retried with a shifted rho

    def p_rows(self, L):
        return self.p.reshape(-1, L)

    def lam_rows(self, L):
        return self.lam.reshape(-1, L)


def default_rho(material):
    return 2.0 * material.mu + material.hardening


def residual(system, qspace, u, p, lam, rho):
    """Stacked residual [K u - B p - l, -B^T u + C p + D lam, chi rows]."""
    L = system.L
    r1 = system.K @ u - system.B @ p - system.l
    r2 = -(system.B.T @ u) + system.C @ p + system.D * lam
    ch, _, _ = chi_coords(p.reshape(-1, L), lam.reshape(-1, L),
                          qspace.bounds, rho, want_jacobian=False)
    return np.concatenate([r1, r2, ch.ravel()])


def generalized_jacobian(system, qspace, p, lam, rho):
    """One Clarke element of the decoupled residual as a sparse matrix (the
    active branch is selected at the kink). The Newton iteration never builds
    it; it is the reference for the condensed step."""
    L = system.L
    _, dp, dl = chi_coords(p.reshape(-1, L), lam.reshape(-1, L),
                           qspace.bounds, rho, want_jacobian=True)
    n_u = system.K.shape[0]
    n_q = system.C.shape[0]
    N = n_q // L
    base = L * np.arange(N)[:, None, None]
    rows = np.broadcast_to(base + np.arange(L)[None, :, None], (N, L, L)).ravel()
    cols = np.broadcast_to(base + np.arange(L)[None, None, :], (N, L, L)).ravel()
    Jp = sp.csr_matrix((dp.ravel(), (rows, cols)), shape=(n_q, n_q))
    Jl = sp.csr_matrix((dl.ravel(), (rows, cols)), shape=(n_q, n_q))
    Z = sp.csr_matrix((n_u, n_q))
    return sp.bmat([
        [system.K, -system.B, Z],
        [-system.B.T, system.C, sp.diags(system.D)],
        [Z.T, Jp, Jl],
    ], format="csc")


def elastic_solve(system):
    return spla.spsolve(sp.csc_matrix(system.K), system.l)


@dataclass
class BlockGroup:
    """Element blocks of one size n: their q indices (G, n) and the dense C
    blocks (G, n, n)."""
    idx: np.ndarray
    C: np.ndarray


class ElementBlocks:
    """The q unknowns of a mixed system split into the element blocks over
    which C is block diagonal, grouped by block size so that the dense
    per-element work is one batched call per group."""

    def __init__(self, system):
        L = system.L
        n_q = system.C.shape[0]
        sizes = L * np.asarray(system.q_counts)
        if sizes.sum() != n_q:
            raise ValueError("q_counts do not cover the q unknowns")
        starts = np.cumsum(sizes) - sizes
        block = np.repeat(np.arange(len(sizes)), sizes)
        Cc = sp.coo_matrix(system.C)
        Cc.sum_duplicates()
        if np.any(block[Cc.row] != block[Cc.col]):
            raise ValueError("C is not block diagonal over the elements")
        self.system = system
        self.groups = []
        slot = np.empty(len(sizes), dtype=np.int64)
        for n in np.unique(sizes):
            members = np.flatnonzero(sizes == n)
            slot[members] = np.arange(len(members))
            idx = starts[members][:, None] + np.arange(n)
            Ce = np.zeros((len(members), n, n))
            on = sizes[block[Cc.row]] == n
            b = block[Cc.row[on]]
            Ce[slot[b], Cc.row[on] - starts[b], Cc.col[on] - starts[b]] = Cc.data[on]
            self.groups.append(BlockGroup(idx, Ce))
        # (row, column) of every entry of the block-diagonal X, in the order
        # of the batched solutions
        self._rows = np.concatenate([np.repeat(grp.idx, grp.idx.shape[1], 1).ravel()
                                     for grp in self.groups])
        self._cols = np.concatenate([np.tile(grp.idx, grp.idx.shape[1]).ravel()
                                     for grp in self.groups])
        self._Bt = system.B.T.tocsr()

    def condensed_solve(self, mats, rhs, f):
        """Solve K u - B q = f with q = g - X B^T u, where [X_e | g_e] =
        mats_e^{-1} rhs_e on every element block (rhs_e has one column more
        than mats_e), by one sparse LU of K + B X B^T. Returns (u, q)."""
        system = self.system
        n_q = system.C.shape[0]
        sols = [np.linalg.solve(M, R) for M, R in zip(mats, rhs)]
        X = sp.csr_matrix((np.concatenate([s[..., :-1].ravel() for s in sols]),
                           (self._rows, self._cols)), shape=(n_q, n_q))
        g = np.empty(n_q)
        for grp, s in zip(self.groups, sols):
            g[grp.idx] = s[..., -1]
        A = (system.K + system.B @ X @ self._Bt).tocsc()
        u = spla.splu(A).solve(f + system.B @ g)
        return u, g - X @ (self._Bt @ u)


def _dof_block_diagonal(a):
    """(G, c, L, L) per-dof blocks as (G, cL, cL) block-diagonal matrices."""
    G, c, L, _ = a.shape
    return np.einsum("gikl,ij->gikjl", a, np.eye(c)).reshape(G, c * L, c * L)


def condensed_newton_step(blocks, dp, dl, F):
    """Newton step of the projection form with Clarke blocks (dp, dl) and
    residual F = [r1, r2, r3]. With dlam = D^{-1}(-r2 + B^T du - C dp) from
    the second row, the third row gives per element
    S_e dp = -r3 + Jl D^{-1} r2 - Jl D^{-1} B^T du, S_e = Jp_e - Jl_e D_e^{-1} C_e,
    and the first row becomes (K + B X B^T) du = -r1 + B g with
    X_e = S_e^{-1} Jl_e D_e^{-1}, g_e = S_e^{-1}(-r3 + Jl D^{-1} r2)."""
    system = blocks.system
    L = system.L
    n_u = system.K.shape[0]
    n_q = system.C.shape[0]
    r1, r2, r3 = F[:n_u], F[n_u:n_u + n_q], F[n_u + n_q:]
    Dinv = 1.0 / system.D
    dlD = dl * Dinv[::L, None, None]  # Jl D^{-1} per dof
    b = -r3 + np.einsum("ikl,il->ik", dlD, r2.reshape(-1, L)).ravel()
    mats, rhs = [], []
    for grp in blocks.groups:
        G, n = grp.idx.shape
        dofs = grp.idx[:, ::L] // L
        S = _dof_block_diagonal(dp[dofs]) - (
            dlD[dofs] @ grp.C.reshape(G, n // L, L, n)).reshape(G, n, n)
        mats.append(S)
        rhs.append(np.concatenate([_dof_block_diagonal(dlD[dofs]),
                                   b[grp.idx][..., None]], axis=-1))
    du, dp_ = blocks.condensed_solve(mats, rhs, -r1)
    dlam = Dinv * (-r2 + system.B.T @ du - system.C @ dp_)
    return np.concatenate([du, dp_, dlam])


def _projection_rows(p, lam, sigma, rho):
    """Equilibrated complementarity rows pi_i = lam_i - P_{|.|<=sigma_i}(lam_i + rho p_i),
    the chi rows (chi_i = max(sigma_i, |w_i|) pi_i, evaluated as in chi_blocks
    so that |chi| is the same to the last bit), the Clarke blocks of pi and
    the active mask |w_i| >= sigma_i."""
    N, L = p.shape
    w = lam + rho * p
    nw = np.linalg.norm(w, axis=1)
    ch = np.maximum(sigma, nw)[:, None] * lam - sigma[:, None] * w
    inactive = nw < sigma
    act = ~inactive
    scale = np.ones(N)
    scale[act] = sigma[act] / nw[act]
    pi = lam - scale[:, None] * w
    eye = np.eye(L)
    dp = np.empty((N, L, L))
    dl = np.empty((N, L, L))
    dp[inactive] = -rho * eye
    dl[inactive] = 0.0
    if np.any(act):
        what = w[act] / nw[act][:, None]
        proj = eye - what[:, :, None] * what[:, None, :]
        fac = scale[act][:, None, None]
        dl[act] = eye - fac * proj
        dp[act] = -rho * fac * proj
    return pi, ch, dp, dl, act


def solve_semismooth_newton(system, qspace, config=None, initial=None):
    """Damped semi-smooth Newton iteration on the decoupled system.

    The iteration runs on the row-equilibrated projection form of the
    complementarity rows (identical zero set to the chi rows, but uniformly
    scaled in the projection parameter). Full steps are taken while the active
    set settles; the merit (half the squared residual norm) may transiently
    grow during identification, so backtracking is triggered only when the
    merit stagnates over a trailing window or the full step blows up, and then
    the Armijo-shrink sequence is probed for the best merit. Convergence is
    declared on the max norm of the unscaled decoupled residual. The trace
    records (iteration, |F|_max, merit, step length, active-set size).
    A step whose factorization or element-block solve fails, or that is not
    finite, is retried once with rho shifted to 2 rho + 1 and counted in
    `retries`; a second failure raises.
    """
    cfg = config or NewtonConfig()
    rho = cfg.rho if cfg.rho is not None else 1.0
    L = system.L
    n_q = system.C.shape[0]
    blocks = ElementBlocks(system)
    if initial is None:
        u = elastic_solve(system)
        p = np.zeros(n_q)
        lam = np.zeros(n_q)
    else:
        u, p, lam = (np.array(v, dtype=float) for v in initial)
    n_u = len(u)
    x = np.concatenate([u, p, lam])
    sigma = qspace.bounds

    def split(x):
        return x[:n_u], x[n_u:n_u + n_q], x[n_u + n_q:]

    def merit_residual(x):
        """Projection-form residual [r1, r2, pi rows], the max norm of the
        decoupled residual [r1, r2, chi rows], the Clarke blocks of pi and
        the active-set size."""
        u, p, lam = split(x)
        r1 = system.K @ u - system.B @ p - system.l
        r2 = -(system.B.T @ u) + system.C @ p + system.D * lam
        pi, ch, dp, dl, act = _projection_rows(p.reshape(-1, L),
                                               lam.reshape(-1, L), sigma, rho)
        F = np.concatenate([r1, r2, pi.ravel()])
        nF = float(np.abs(np.concatenate([F[:n_u + n_q], ch.ravel()])).max())
        return F, nF, dp, dl, int(act.sum())

    trace = []
    merit_hist = []
    retries = 0
    it = 0
    t_used = 1.0
    while True:
        u, p, lam = split(x)
        Ft, nF, dp, dl, active = merit_residual(x)
        merit = 0.5 * float(Ft @ Ft)
        merit_hist.append(merit)
        trace.append((it, nF, merit, t_used, active))
        if nF <= cfg.tol or it >= cfg.max_iter:
            return SolutionTriple(u=u, p=p, lam=lam, converged=nF <= cfg.tol,
                                  iterations=it, trace=trace, retries=retries)
        try:
            delta = condensed_newton_step(blocks, dp, dl, Ft)
            if not np.all(np.isfinite(delta)):
                raise RuntimeError("non-finite Newton step")
        except (RuntimeError, np.linalg.LinAlgError):
            if retries:
                raise
            retries += 1
            rho = 2.0 * rho + 1.0  # shift the projection parameter once, retry
            continue
        window = merit_hist[-max(cfg.stagnation, 1):]
        stagnating = len(window) >= cfg.stagnation and merit >= 0.5 * min(window)
        Fn = merit_residual(x + delta)[0]
        merit_full = 0.5 * float(Fn @ Fn)
        t = 1.0
        if stagnating or not np.isfinite(merit_full) or merit_full > 1e6 * max(merit, 1.0):
            # probe the Armijo shrink sequence and keep the best merit
            best_t, best_m = 1.0, merit_full
            tt = cfg.shrink
            while tt >= max(cfg.t_min, 2.0 ** -10):
                Fp = merit_residual(x + tt * delta)[0]
                mp = 0.5 * float(Fp @ Fp)
                if np.isfinite(mp) and mp < best_m:
                    best_t, best_m = tt, mp
                tt *= cfg.shrink
            t = best_t
        x = x + t * delta
        t_used = t
        it += 1


def write_trace_csv(triple, path):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["iteration", "residual_max", "merit", "step_length",
                     "active_set"])
        for row in triple.trace:
            wr.writerow(row)


# ---------------------------------------------------------------------------
# recovery, complementarity, admissible-set diagnostics
# ---------------------------------------------------------------------------

def deviator(mat):
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[-1]
    tr = np.trace(mat, axis1=-2, axis2=-1) / d
    return mat - tr[..., None, None] * np.eye(d)


def strain_at(space, eid, u, pts, Jinv):
    """Symmetric gradient of the vector field u at reference points."""
    d = space.dim
    idx = space.local_indices(eid)
    _, G = tensor_shape_eval(pts, idx, jmax=max(space.degrees[eid], 1))
    dphi = physical_gradients(G, Jinv)
    rows, cmat = space.connectivity(eid)
    loc = np.stack([cmat.T @ u[d * rows + k] for k in range(d)], axis=1)
    grad = np.einsum("qbm,bk->qkm", dphi, loc)
    return 0.5 * (grad + grad.transpose(0, 2, 1))


def plastic_field_at(qspace, eid, p, pts, dual=False):
    """Tensor field values (m, d, d) from coefficient rows (N, L)."""
    d = qspace.dim
    L = deviatoric_dim(d)
    Phi = deviatoric_basis(d)
    rows = np.asarray(p, dtype=float).reshape(qspace.ndof, L)
    if dual:
        vals = qspace.eval_dual(eid, rows, pts)
    else:
        vals = qspace.eval_primal(eid, rows, pts)
    return np.einsum("ql,lmn->qmn", vals, Phi)


def recover_multiplier(space, qspace, material, u, p):
    """Blockwise projection of dev(sigma(u,p) - H p) onto the strain space,
    returned as coefficients over the biorthogonal basis (flat, L-interleaved)."""
    mesh = space.mesh
    d = mesh.dim
    L = deviatoric_dim(d)
    Phi = deviatoric_basis(d)
    out = np.zeros((qspace.ndof, L))
    for eid in mesh.active_ids():
        pdeg = qspace.degrees[eid]
        emap, pts, wts, det, Jinv = element_quadrature(mesh, eid, pdeg + 2)
        eps = strain_at(space, eid, u, pts, Jinv)
        pq = plastic_field_at(qspace, eid, p, pts)
        target = deviator(material.stress(eps, pq) - material.apply_hardening(pq))
        comps = np.einsum("qmn,lmn->ql", target, Phi)
        V = qspace._basis_at(eid, pts)
        integ = np.einsum("qi,q,ql->il", V, wts * det, comps)
        sl = qspace.dof_slice(eid)
        out[sl] = integ / qspace.weights[sl][:, None]
    return out.ravel()


@dataclass
class ComplementarityReport:
    feasibility: np.ndarray      # sigma_i - |lam_i|_F per dof
    alignment: np.ndarray        # lam_i : p_i - sigma_i |p_i|_F per dof
    elastic: np.ndarray          # bool: |lam_i| < sigma_i - tol
    plastic: np.ndarray          # bool mask of the rest
    max_violation: float

    @property
    def n_elastic(self):
        return int(np.sum(self.elastic))

    @property
    def n_plastic(self):
        return int(np.sum(self.plastic))


def check_complementarity(qspace, p, lam, rel_tol=1e-8):
    """Per-dof feasibility / alignment numbers and elastic-plastic classification."""
    L = deviatoric_dim(qspace.dim)
    pr = np.asarray(p, dtype=float).reshape(-1, L)
    lr = np.asarray(lam, dtype=float).reshape(-1, L)
    sig = qspace.bounds
    nl = np.linalg.norm(lr, axis=1)
    npn = np.linalg.norm(pr, axis=1)
    feas = sig - nl
    align = np.einsum("il,il->i", lr, pr) - sig * npn
    tol = rel_tol * sig
    elastic = nl < sig - tol
    plastic = ~elastic
    viol = float(max(np.maximum(-feas, 0.0).max(initial=0.0),
                     np.abs(align).max(initial=0.0)))
    return ComplementarityReport(feasibility=feas, alignment=align,
                                 elastic=elastic, plastic=plastic,
                                 max_violation=viol)


def in_admissible_gauss(qspace, mu, tol=0.0):
    """Membership via the Frobenius bound at the Gauss points (primal coeffs)."""
    L = deviatoric_dim(qspace.dim)
    rows = np.asarray(mu, dtype=float).reshape(-1, L)
    return bool(np.all(np.linalg.norm(rows, axis=1) <= qspace.yield_stress + tol))


def in_admissible_weak(qspace, mu, q_samples, tol=0.0):
    """Membership via (mu, q) <= psi_hp(q) tested against sample fields q."""
    from .assembly import plastic_functional
    L = deviatoric_dim(qspace.dim)
    mu_rows = np.asarray(mu, dtype=float).reshape(-1, L)
    for q in q_samples:
        q_rows = np.asarray(q, dtype=float).reshape(-1, L)
        ip = 0.0
        for eid in qspace.mesh.active_ids():
            sl = qspace.dof_slice(eid)
            M = qspace.mass(eid)
            ip += float(np.einsum("il,ij,jl->", mu_rows[sl], M, q_rows[sl]))
        if ip > plastic_functional(qspace, q_rows) + tol:
            return False
    return True


def infsup_ratio(qspace, mu):
    """Ratio of the achieved supremum to ||mu||_0: the closed form takes v = 0
    and q the Riesz representer of the pairing in the Q mass inner product."""
    L = deviatoric_dim(qspace.dim)
    mu_rows = np.asarray(mu, dtype=float).reshape(-1, L)
    rhs = np.zeros_like(mu_rows)
    nrm_mu_sq = 0.0
    for eid in qspace.mesh.active_ids():
        sl = qspace.dof_slice(eid)
        M = qspace.mass(eid)
        rhs[sl] = M @ mu_rows[sl]
        nrm_mu_sq += float(np.einsum("il,ij,jl->", mu_rows[sl], M, mu_rows[sl]))
    if nrm_mu_sq <= 0.0:
        raise ValueError("mu must be nonzero")
    riesz = np.zeros_like(mu_rows)
    pairing = 0.0
    nrm_q_sq = 0.0
    for eid in qspace.mesh.active_ids():
        sl = qspace.dof_slice(eid)
        M = qspace.mass(eid)
        riesz[sl] = np.linalg.solve(M, rhs[sl])
        pairing += float(np.einsum("il,il->", mu_rows[sl], M @ riesz[sl]))
        nrm_q_sq += float(np.einsum("il,ij,jl->", riesz[sl], M, riesz[sl]))
    sup_value = pairing / np.sqrt(nrm_q_sq)
    return sup_value / np.sqrt(nrm_mu_sq)
