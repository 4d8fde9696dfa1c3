"""Element-wise assembly of the mixed elastoplastic system.

Blocks (0-based, interleaved numbering: displacement dof (i, k) -> d*i + k,
plastic/multiplier dof (i, l) -> L*i + l):

    K[(i,k),(j,l)] = (C eps(e_l v_j), eps(e_k v_i))
    B[(i,k),(j,l)] = (C Phi_l q_j, eps(e_k v_i))
    C[(i,k),(j,l)] = ((C + H) Phi_l q_i, Phi_k q_j)
    D               = diag of dof weights, repeated per deviatoric component
    l[(i,k)]        = (f, e_k v_i) + (g, e_k v_i)_GammaN

With these blocks the stationarity system reads K u - B p = l and
-B^T u + C p + D lam = 0, which is the Galerkin form of the mixed problem.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .mesh import is_affine
from .polybasis import tensor_gauss, tensor_indices, tensor_shape_eval
from .space import deviatoric_basis, deviatoric_dim


class QuadratureAccuracyWarning(UserWarning):
    """Stiffness integrands on non-affine maps are rational; the order is bumped."""


def strain(grad):
    """Symmetric part of a displacement gradient (matrix or batch)."""
    grad = np.asarray(grad, dtype=float)
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


@dataclass
class Material:
    """Isotropic elasticity with scalar kinematic hardening by default; general
    symmetric tensors enter through callbacks acting on (batched) matrices."""

    lam: float = 1.0
    mu: float = 1.0
    hardening: float = 1.0
    yield_stress: float = 1.0
    elasticity: object = None
    hardening_map: object = None

    def __post_init__(self):
        if self.mu <= 0 or self.lam < 0 or self.hardening <= 0:
            raise ValueError("need mu > 0, lam >= 0, hardening > 0")
        if self.yield_stress <= 0:
            raise ValueError("yield stress must be positive")
        for cb in (self.elasticity, self.hardening_map):
            if cb is not None:
                self._verify_symmetry(cb)

    @staticmethod
    def _verify_symmetry(cb, trials=10, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            d = rng.integers(2, 4)
            a = rng.standard_normal((d, d))
            b = rng.standard_normal((d, d))
            a, b = a + a.T, b + b.T
            lhs = float(np.tensordot(cb(a), b))
            rhs = float(np.tensordot(cb(b), a))
            if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
                raise ValueError("material tensor callback is not symmetric")

    @property
    def ellipticity_elastic(self):
        return 2.0 * self.mu

    @property
    def ellipticity_hardening(self):
        return self.hardening

    def apply_elasticity(self, eps):
        """sigma = C eps for symmetric eps; batched over leading axes."""
        if self.elasticity is not None:
            return self.elasticity(eps)
        eps = np.asarray(eps, dtype=float)
        d = eps.shape[-1]
        tr = np.trace(eps, axis1=-2, axis2=-1)
        return self.lam * tr[..., None, None] * np.eye(d) + 2.0 * self.mu * eps

    def apply_hardening(self, q):
        if self.hardening_map is not None:
            return self.hardening_map(q)
        return self.hardening * np.asarray(q, dtype=float)

    def stress(self, eps, p=None):
        """sigma = C (eps - p); trace-free p."""
        if p is None:
            return self.apply_elasticity(eps)
        return self.apply_elasticity(np.asarray(eps, dtype=float) - np.asarray(p, dtype=float))


def stress(material, eps, p=None):
    return material.stress(eps, p)


@dataclass
class Loads:
    """Volume force and Neumann traction; callables on batched physical points."""

    volume: object = None
    traction: object = None
    extra_order: int = 2
    neumann_tags: tuple = ("neumann",)


@dataclass
class MixedSystem:
    K: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    D: np.ndarray  # diagonal entries, length L*N
    l: np.ndarray
    dim: int
    ndof_u: int  # scalar displacement dofs (M); vector unknowns = dim * M
    ndof_q: int  # Gauss-point dofs (N); tensor unknowns = L * N
    L: int
    q_counts: np.ndarray  # dofs per element block of C, in q-dof order
    non_affine: tuple = field(default_factory=tuple)


def element_quadrature(mesh, eid, order):
    """Reference points/weights and mapped geometry for one element."""
    emap = mesh.element_map(eid)
    pts, wts = tensor_gauss(order, mesh.dim)
    J = emap.jacobian(pts)
    det = np.linalg.det(J)
    Jinv = np.linalg.inv(J)
    return emap, pts, wts, det, Jinv


def physical_gradients(G, Jinv):
    """Reference shape gradients (m, nb, d) to physical ones via J^{-T}."""
    return np.einsum("qba,qam->qbm", G, Jinv)


def _vec_rows(rows, d):
    return (d * rows[:, None] + np.arange(d)[None, :]).ravel()


def _stiffness_general(dphi, w, material, basis_strains):
    """K block for general elasticity callbacks (rows/cols interleaved)."""
    nq, nb, d = dphi.shape
    eye = np.eye(d)
    eps = 0.5 * (np.einsum("km,qbn->qbkmn", eye, dphi)
                 + np.einsum("kn,qbm->qbkmn", eye, dphi))
    sig = material.apply_elasticity(eps.reshape(-1, d, d)).reshape(eps.shape)
    K = np.einsum("qbkmn,qclmn,q->bkcl", sig, eps, w, optimize=True)
    return K.reshape(nb * d, nb * d)


def assemble_system(space, qspace, material, loads=None):
    """Assemble the mixed blocks on matching displacement/strain spaces."""
    mesh = space.mesh
    d = mesh.dim
    L = deviatoric_dim(d)
    Phi = deviatoric_basis(d)
    M = space.ndof
    N = qspace.ndof
    loads = loads or Loads()

    S = np.array([material.apply_elasticity(Phi[l]) for l in range(L)])
    G_CH = np.empty((L, L))
    for k in range(L):
        for l in range(L):
            G_CH[k, l] = float(np.tensordot(
                material.apply_elasticity(Phi[l]) + material.apply_hardening(Phi[l]),
                Phi[k]))

    rows_K, cols_K, vals_K = [], [], []
    rows_B, cols_B, vals_B = [], [], []
    rows_C, cols_C, vals_C = [], [], []
    lvec = np.zeros(d * M)
    non_affine = []

    for eid in mesh.active_ids():
        p = space.degrees[eid]
        affine = is_affine(mesh.element_map(eid))
        order = p + 1 + (0 if affine else 1)
        if not affine:
            non_affine.append(eid)
        emap, pts, wts, det, Jinv = element_quadrature(mesh, eid, order)
        idx = space.local_indices(eid)
        V, G = tensor_shape_eval(pts, idx, jmax=max(p, 1))
        dphi = physical_gradients(G, Jinv)
        w = wts * det
        grows, cmat = space.connectivity(eid)

        if material.elasticity is None:
            Kloc = _kernels.elastic_stiffness(
                np.ascontiguousarray(dphi), np.ascontiguousarray(w),
                material.lam, material.mu)
        else:
            Kloc = _stiffness_general(dphi, w, material, None)
        nb = len(idx)
        K4 = Kloc.reshape(nb, d, nb, d)
        Kel = np.einsum("rb,bkcl,sc->rksl", cmat, K4, cmat, optimize=True)
        vr = _vec_rows(grows, d)
        rows_K.append(np.repeat(vr, len(vr)))
        cols_K.append(np.tile(vr, len(vr)))
        vals_K.append(Kel.reshape(len(vr), len(vr)).ravel())

        phiq = qspace._basis_at(eid, pts)
        Bloc = _kernels.coupling_block(
            np.ascontiguousarray(dphi), np.ascontiguousarray(w),
            np.ascontiguousarray(phiq), np.ascontiguousarray(S))
        nm = phiq.shape[1]
        B4 = Bloc.reshape(nb, d, nm, L)
        Bel = np.einsum("rb,bkml->rkml", cmat, B4, optimize=True)
        qcols = L * (qspace.offsets[eid] + np.arange(nm))[:, None] + np.arange(L)[None, :]
        qcols = qcols.ravel()
        rows_B.append(np.repeat(vr, len(qcols)))
        cols_B.append(np.tile(qcols, len(vr)))
        vals_B.append(Bel.reshape(len(vr), len(qcols)).ravel())

        Cel = np.kron(qspace.mass(eid), G_CH)
        rows_C.append(np.repeat(qcols, len(qcols)))
        cols_C.append(np.tile(qcols, len(qcols)))
        vals_C.append(Cel.ravel())

        if loads.volume is not None:
            oq = p + 1 + loads.extra_order
            _, ptsf, wtsf, detf, _ = element_quadrature(mesh, eid, oq)
            Vf, _ = tensor_shape_eval(ptsf, idx, jmax=max(p, 1))
            fvals = np.asarray(loads.volume(emap.map_point(ptsf)), dtype=float)
            lloc = _kernels.load_vector(np.ascontiguousarray(Vf),
                                        np.ascontiguousarray(wtsf * detf),
                                        np.ascontiguousarray(fvals))
            lel = cmat @ lloc
            np.add.at(lvec, vr, lel.ravel())

        if loads.traction is not None:
            for f, info in enumerate(mesh.facet_neighbors(eid)):
                if info.kind != "boundary" or info.tag not in loads.neumann_tags:
                    continue
                lel = _neumann_load(mesh, space, eid, f, idx, p, loads)
                np.add.at(lvec, vr, (cmat @ lel).ravel())

    if non_affine:
        warnings.warn(
            f"{len(non_affine)} element(s) have non-affine det J; stiffness "
            "quadrature order bumped by one (inexact for rational integrands)",
            QuadratureAccuracyWarning, stacklevel=2)

    shapeK = (d * M, d * M)
    shapeB = (d * M, L * N)
    shapeQ = (L * N, L * N)
    K = sp.csr_matrix((np.concatenate(vals_K), (np.concatenate(rows_K), np.concatenate(cols_K))), shape=shapeK)
    B = sp.csr_matrix((np.concatenate(vals_B), (np.concatenate(rows_B), np.concatenate(cols_B))), shape=shapeB)
    C = sp.csr_matrix((np.concatenate(vals_C), (np.concatenate(rows_C), np.concatenate(cols_C))), shape=shapeQ)
    D = np.repeat(qspace.weights, L)
    q_counts = np.array([qspace.counts[e] for e in mesh.active_ids()])
    return MixedSystem(K=K, B=B, C=C, D=D, l=lvec, dim=d, ndof_u=M, ndof_q=N,
                       L=L, q_counts=q_counts, non_affine=tuple(non_affine))


def _neumann_load(mesh, space, eid, f, idx, p, loads):
    """Facet Gauss quadrature of the traction against the element trace basis."""
    d = mesh.dim
    if d == 1:
        t = np.zeros((1, 0))
        ref = mesh.facet_embed(f, t)
        x = mesh.element_map(eid).map_point(ref)
        g = np.asarray(loads.traction(x), dtype=float)
        V, _ = tensor_shape_eval(ref, idx, jmax=max(p, 1))
        return V.T @ g
    pts, wts = tensor_gauss(p + 2, d - 1)
    ref = mesh.facet_embed(f, pts)
    dS, _ = mesh.facet_area_element(eid, f, pts)
    x = mesh.element_map(eid).map_point(ref)
    g = np.asarray(loads.traction(x), dtype=float)
    V, _ = tensor_shape_eval(ref, idx, jmax=max(p, 1))
    return np.einsum("qb,q,qk->bk", V, wts * dS, g)


# ---------------------------------------------------------------------------
# quadrature functional, plastic functional, energy
# ---------------------------------------------------------------------------

def quadrature_functional(mesh, degrees, integrand):
    """The broken Gauss rule: midpoint branch |T| f(F_T(0)) for p_T = 1, else
    the p_T^d tensor rule. integrand maps physical points (m, d) to values."""
    total = 0.0
    for eid in mesh.active_ids():
        p = degrees[eid] if not np.isscalar(degrees) else degrees
        emap = mesh.element_map(eid)
        if p == 1:
            x = emap.map_point(np.zeros(mesh.dim))[None, :]
            total += emap.volume() * float(np.asarray(integrand(x))[0])
        else:
            pts, wts = tensor_gauss(p, mesh.dim)
            det = np.abs(emap.det_jacobian(pts))
            vals = np.asarray(integrand(emap.map_point(pts)), dtype=float)
            total += float(np.dot(wts * det, vals))
    return total


def plastic_functional(qspace, q):
    """psi_hp: the broken Gauss rule applied to sigma_y |q_hp|_F, which
    decouples into sum_i D_i sigma_i |q_i|_F for Lagrange coefficients q (N, L)."""
    q = np.asarray(q, dtype=float).reshape(qspace.ndof, -1)
    norms = np.linalg.norm(q, axis=1)
    return float(np.sum(qspace.weights * qspace.bounds * norms))


def bilinear_value(system, vu1, vp1, vu2, vp2):
    """a((u1,p1),(u2,p2)) from the assembled blocks."""
    return float(vu2 @ (system.K @ vu1) - vu2 @ (system.B @ vp1)
                 - vp2 @ (system.B.T @ vu1) + vp2 @ (system.C @ vp1))


def total_energy(system, qspace, vu, vp):
    """E(v, q) = 1/2 a((v,q),(v,q)) + psi_hp(q) - l(v)."""
    a = bilinear_value(system, vu, vp, vu, vp)
    return 0.5 * a + plastic_functional(qspace, vp) - float(system.l @ vu)


# ---------------------------------------------------------------------------
# norm matrices (for errors and witnesses)
# ---------------------------------------------------------------------------

def assemble_norm_matrices(space, qspace=None):
    """(vector mass, strain product, Q mass): the combined norm is
    ||v||^2 + ||eps(v)||^2 + ||q||^2."""
    mesh = space.mesh
    d = mesh.dim
    M = space.ndof
    rows_m, cols_m, vals_m = [], [], []
    rows_s, cols_s, vals_s = [], [], []
    for eid in mesh.active_ids():
        p = space.degrees[eid]
        emap, pts, wts, det, Jinv = element_quadrature(mesh, eid, p + 2)
        idx = space.local_indices(eid)
        V, G = tensor_shape_eval(pts, idx, jmax=max(p, 1))
        dphi = physical_gradients(G, Jinv)
        w = wts * det
        grows, cmat = space.connectivity(eid)
        vr = _vec_rows(grows, d)
        Mloc = _kernels.mass_matrix(np.ascontiguousarray(V), np.ascontiguousarray(w))
        Mel = cmat @ Mloc @ cmat.T
        Mv = np.kron(Mel, np.eye(d))
        rows_m.append(np.repeat(vr, len(vr)))
        cols_m.append(np.tile(vr, len(vr)))
        vals_m.append(Mv.ravel())
        Sloc = _kernels.elastic_stiffness(np.ascontiguousarray(dphi),
                                          np.ascontiguousarray(w), 0.0, 0.5)
        nb = len(idx)
        S4 = Sloc.reshape(nb, d, nb, d)
        Sel = np.einsum("rb,bkcl,sc->rksl", cmat, S4, cmat, optimize=True)
        rows_s.append(np.repeat(vr, len(vr)))
        cols_s.append(np.tile(vr, len(vr)))
        vals_s.append(Sel.reshape(len(vr), len(vr)).ravel())
    shape = (d * M, d * M)
    Mv = sp.csr_matrix((np.concatenate(vals_m), (np.concatenate(rows_m), np.concatenate(cols_m))), shape=shape)
    Sv = sp.csr_matrix((np.concatenate(vals_s), (np.concatenate(rows_s), np.concatenate(cols_s))), shape=shape)
    if qspace is None:
        return Mv, Sv, None
    L = deviatoric_dim(d)
    rows_q, cols_q, vals_q = [], [], []
    for eid in mesh.active_ids():
        nm = qspace.counts[eid]
        qcols = L * (qspace.offsets[eid] + np.arange(nm))[:, None] + np.arange(L)[None, :]
        qcols = qcols.ravel()
        Qel = np.kron(qspace.mass(eid), np.eye(L))
        rows_q.append(np.repeat(qcols, len(qcols)))
        cols_q.append(np.tile(qcols, len(qcols)))
        vals_q.append(Qel.ravel())
    Mq = sp.csr_matrix((np.concatenate(vals_q), (np.concatenate(rows_q), np.concatenate(cols_q))),
                       shape=(L * qspace.ndof, L * qspace.ndof))
    return Mv, Sv, Mq


def export_matrix_market(matrix, path):
    from scipy.io import mmwrite
    mmwrite(path, sp.coo_matrix(matrix))
