"""Assembly of the mixed elastoplastic system, batched over element groups.

Blocks (0-based, interleaved numbering: displacement dof (i, k) -> d*i + k,
plastic/multiplier dof (i, l) -> L*i + l):

    K[(i,k),(j,l)] = (C eps(e_l v_j), eps(e_k v_i))
    B[(i,k),(j,l)] = (C Phi_l q_j, eps(e_k v_i))
    C[(i,k),(j,l)] = ((C + H) Phi_l q_i, Phi_k q_j)
    D               = diag of dof weights, repeated per deviatoric component
    l[(i,k)]        = (f, e_k v_i) + (g, e_k v_i)_GammaN

With these blocks the stationarity system reads K u - B p = l and
-B^T u + C p + D lam = 0, which is the Galerkin form of the mixed problem.

Every global matrix is R^T blockdiag(A_T) S and every load R^T (l_T), where
R and S are rows of the local-to-global operators of the spaces
(`ScalarSpace.local_operator`, which carries the hanging-node and Dirichlet
constraints, and the identity of the discontinuous Gauss-point space). R and
its transpose are gathered once per assembly and element group. The identity
rows only place entries, so products with them are formed from arrays: C and
the Gauss-point mass matrix are block diagonal over the Gauss-point dofs, and
B places its blocks at their q columns before its one product with R^T. The
loads are scattered through P's arrays (`ScalarSpace.scatter`). The element
matrices A_T and loads l_T are computed one group of elements of equal degree
(and affinity) at a time on the corner-array geometry of `mesh`; the groups'
matrices are summed in group order, starting from the first group's.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .mesh import facet_measure, is_affine, map_jacobians, map_points
from .polybasis import tensor_gauss, tensor_indices, tensor_shape_eval
from .space import (deviatoric_basis, deviatoric_dim, element_groups,
                    gauss_point_basis, require_same_degrees)


class QuadratureAccuracyWarning(UserWarning):
    """Stiffness integrands on non-affine maps are rational; the order is bumped."""


def strain(grad):
    """Symmetric part of a displacement gradient (matrix or batch)."""
    grad = np.asarray(grad, dtype=float)
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


@dataclass(frozen=True)
class Material:
    """Isotropic elasticity with scalar kinematic hardening by default; general
    symmetric tensors enter through callbacks acting on (batched) matrices.
    Frozen, so that the checks of __post_init__ hold for its lifetime."""

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
    L: int
    q_counts: np.ndarray  # dofs per element block of C, in q-dof order
    non_affine: tuple = field(default_factory=tuple)


def group_quadrature(corners, order):
    """The tensor Gauss rule of an order on the maps of a corner array
    (n, 2^d, d): reference points (m, d), weights times det J (n, m) and
    inverse Jacobians (n, m, d, d)."""
    pts, wts = tensor_gauss(order, corners.shape[-1])
    J = map_jacobians(corners, pts)
    return pts, wts * np.linalg.det(J), np.linalg.inv(J)


def data_load(data, x, w, V):
    """Element loads (n, nb), or (n, nb, k) for vector data, of a callable on
    physical points at the points x (n, m, d), with weights w (n, m), against
    shape values V (m, nb)."""
    vals = np.asarray(data(x.reshape(-1, x.shape[-1])), dtype=float)
    return _kernels.load_vector(V, w, vals.reshape(w.shape + vals.shape[1:]))


def galerkin(rows, blocks, cols=None, width=None):
    """R^T blockdiag(blocks) Q: the element blocks (n, r, c) of n elements
    scattered by the rows R (n r, element by element) of one local-to-global
    operator, given as `ScalarSpace.local_operator` returns them: the CSR
    arrays of R and of R^T. Q is R by default. Otherwise Q is identity rows,
    given by cols (n, c), the columns, among width, of each block's columns:
    a product with them only places entries, so the blocks are placed there
    directly. The block diagonal is formed as CSR arrays straight from the
    blocks, and the products run on arrays (`_kernels.csr_product`); the
    result has sorted indices and no exact zeros, as scipy's product drops
    them."""
    R, RT = rows
    n, r, c = blocks.shape
    idx = R[1].dtype
    square = cols is None
    if square:
        cols, width = c * np.arange(n)[:, None] + np.arange(c), len(RT[0]) - 1
    placed = (np.arange(0, n * r * c + 1, c, dtype=idx),
              np.broadcast_to(cols[:, None, :], blocks.shape).ravel().astype(idx),
              np.ascontiguousarray(blocks).ravel())
    if square:
        placed = _kernels.csr_product(placed, R, width)
    indptr, indices, data = _kernels.csr_product(RT, placed, width)
    out = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, width))
    out.sort_indices()
    return out


def boundary_load(space, corners, data, tags, ncomp=1):
    """The load of boundary data (a callable on physical points with ncomp
    components) on the facets tagged with one of tags, by the Gauss rule of
    order p + 2, one group of equal degree and local facet at a time;
    corners is the corner array of the active elements."""
    mesh = space.mesh
    d = mesh.dim
    act = mesh.active_ids()
    # groups in the order of their first facet, element by element
    i, f = np.nonzero(np.isin(mesh.tags[act], list(tags)))
    key = mesh.degree[act][i] * 2 * d + f
    _, first = np.unique(key, return_index=True)
    out = np.zeros(ncomp * space.ndof)
    for k in key[np.sort(first)].tolist():
        (p, f), sel = divmod(k, 2 * d), i[key == k]
        t, wq = tensor_gauss(p + 2, d - 1)
        ref = mesh.facet_embed(f, t)
        dS, _ = facet_measure(map_jacobians(corners[sel], ref), f)
        V, _ = tensor_shape_eval(ref, tensor_indices(p, d))
        out += space.scatter(ncomp, sel, data_load(
            data, map_points(corners[sel], ref), wq * dS, V).ravel())
    return out


def _stiffness_general(dphi, w, material):
    """K blocks for general elasticity callbacks (rows/cols interleaved), for
    gradients dphi (n, nq, nb, d) and weights w (n, nq) of n elements."""
    n, nq, nb, d = dphi.shape
    eye = np.eye(d)
    eps = 0.5 * (np.einsum("km,eqbn->eqbkmn", eye, dphi)
                 + np.einsum("kn,eqbm->eqbkmn", eye, dphi))
    sig = material.apply_elasticity(eps.reshape(-1, d, d)).reshape(eps.shape)
    # K[(b,k),(c,l)] = sum_q w_q sig[q,b,k] : eps[q,c,l]
    S = (sig * w[:, :, None, None, None, None]).transpose(0, 2, 3, 1, 4, 5)
    E = eps.transpose(0, 2, 3, 1, 4, 5).reshape(n, nb * d, -1)
    return S.reshape(n, nb * d, -1) @ np.swapaxes(E, -1, -2)


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
    CH = [material.apply_elasticity(Phi[l]) + material.apply_hardening(Phi[l])
          for l in range(L)]
    G_CH = np.array([[float(np.tensordot(CH[l], Phi[k])) for l in range(L)]
                     for k in range(L)])

    require_same_degrees(space, qspace)
    act = np.array(mesh.active_ids())
    corners = mesh.corner_array(act)
    affine = is_affine(corners)
    K = B = None
    lvec = np.zeros(d * M)
    for (p, aff), sel in element_groups(space, affine).items():
        # the stiffness integrand is rational on non-affine maps: one more point
        pts, w, Jinv = group_quadrature(corners[sel], p + 2 - aff)
        idx = tensor_indices(p, d)
        _, G = tensor_shape_eval(pts, idx)
        dphi = G @ Jinv
        rows = space.local_operator(d, sel)
        if material.elasticity is None:
            Kg = galerkin(rows, _kernels.elastic_stiffness(dphi, w, material.lam,
                                                           material.mu))
        else:
            Kg = galerkin(rows, _stiffness_general(dphi, w, material))
        phiq = gauss_point_basis(p, pts)
        Bg = galerkin(rows, _kernels.coupling_block(dphi, w, phiq, S),
                      qspace.element_dofs(sel, L), L * N)
        K = Kg if K is None else K + Kg
        B = Bg if B is None else B + Bg
        if loads.volume is not None:
            qpts, qw, _ = group_quadrature(corners[sel], p + 1 + loads.extra_order)
            V, _ = tensor_shape_eval(qpts, idx)
            lvec += space.scatter(d, sel, data_load(
                loads.volume, map_points(corners[sel], qpts), qw, V).ravel())
    if loads.traction is not None:
        lvec += boundary_load(space, corners, loads.traction, loads.neumann_tags, d)

    non_affine = tuple(act[~affine].tolist())
    if non_affine:
        warnings.warn(
            f"{len(non_affine)} element(s) have non-affine det J; stiffness "
            "quadrature order bumped by one (inexact for rational integrands)",
            QuadratureAccuracyWarning, stacklevel=2)
    C = gauss_mass_matrix(qspace, L, G_CH)
    D = np.repeat(qspace.weights, L)
    q_counts = np.diff(qspace.offsets)
    return MixedSystem(K=K, B=B, C=C, D=D, l=lvec, L=L, q_counts=q_counts,
                       non_affine=non_affine)


# ---------------------------------------------------------------------------
# plastic functional, energy
# ---------------------------------------------------------------------------

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
# the Gauss-point mass matrix
# ---------------------------------------------------------------------------

def gauss_mass_matrix(qspace, ncomp=1, coupling=None):
    """The mass matrix of ncomp-component fields (components interleaved) of
    the Gauss-point space, with the components coupled by coupling (ncomp,
    ncomp), the identity by default: block diagonal over the elements, with
    the block M_T (x) coupling on element T. It is formed as CSR straight
    from the blocks, element by element, with the exact zeros dropped as
    scipy's product through the identity rows of the space drops them."""
    coupling = np.eye(ncomp) if coupling is None else coupling
    start = ncomp * qspace.offsets[:-1]
    size = ncomp * np.diff(qspace.offsets)
    at = np.cumsum(size * size) - size * size
    vals = np.empty(int(np.sum(size * size)))
    for sel in element_groups(qspace).values():
        s = size[sel[0]]
        vals[(at[sel][:, None] + np.arange(s * s)).ravel()] = np.kron(
            qspace.mass_blocks(sel), coupling).ravel()
    nz = np.flatnonzero(vals)
    elem = np.repeat(np.arange(len(size)), size * size)[nz]
    row, col = np.divmod(nz - at[elem], size[elem])
    n = ncomp * qspace.ndof
    indptr = _kernels._indptr(np.bincount(start[elem] + row, minlength=n))
    return sp.csr_matrix((vals[nz], start[elem] + col, indptr), shape=(n, n))


def export_matrix_market(matrix, path):
    from scipy.io import mmwrite
    mmwrite(path, sp.coo_matrix(matrix))
