"""Scalar symmetric elliptic problems (Poisson) on the continuous hp space:
assembly, solving, and energy-norm utilities. This is the variational-equation
setting the local error-reduction predictor operates on."""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .assembly import (boundary_load, data_load, element_groups, galerkin,
                       group_quadrature)
from .mesh import is_affine, map_jacobians, map_points, require_dirichlet
from .plasticity import factorize
from .polybasis import (stiffness_tensor, tensor_gauss, tensor_indices,
                        tensor_shape_eval)


@dataclass
class ScalarProblem:
    """- div(grad u) = f with homogeneous Dirichlet on tagged facets and
    optional Neumann data g on the rest."""

    volume: object = None
    neumann: object = None
    neumann_tags: tuple = ("neumann",)
    extra_order: int = 2
    exact: object = None        # optional reference solution (callable)
    exact_grad: object = None   # optional reference gradient (callable)


# entries of the physical gradients evaluated at once on non-affine elements,
# which bounds the memory of a group's stiffness to a few megabytes
GRADIENT_BLOCK = 2 ** 16


def poisson_blocks(corners, degree, order, volume=None):
    """Poisson stiffness (n, nb, nb) and load (n, nb) of the maps of a corner
    array (n, 2^d, d) in the tensor basis of a degree, by the Gauss rule of
    order points per axis; the load is zero without volume data.

    An affine map has a constant J, taken once at the centre: its stiffness
    is det J (J^-1 J^-T) contracted with the cached `stiffness_tensor`. The
    other maps take J at every point and `_kernels.scalar_stiffness`, at
    most GRADIENT_BLOCK physical gradient entries at a time. The load uses
    the mapped points and the weights times det J on both."""
    n, _, d = corners.shape
    pts, wts = tensor_gauss(order, d)
    V, G = tensor_shape_eval(pts, tensor_indices(degree, d))
    nb = G.shape[1]
    A = np.empty((n, nb, nb))
    w = np.empty((n, len(wts)))
    aff = is_affine(corners)
    if aff.any():
        J = map_jacobians(corners[aff], np.zeros((1, d)))[:, 0]
        det, Jinv = np.linalg.det(J), np.linalg.inv(J)
        geo = det[:, None, None] * (Jinv @ np.swapaxes(Jinv, 1, 2))
        A[aff] = _kernels.affine_stiffness(geo.reshape(-1, d * d),
                                           stiffness_tensor(degree, d, order))
        w[aff] = det[:, None] * wts
    if not aff.all():
        _, wq, Jinv = group_quadrature(corners[~aff], order)
        blocks = min(len(wq), -(-wq.size * G[0].size // GRADIENT_BLOCK))
        A[~aff] = np.concatenate([_kernels.scalar_stiffness(G @ Ji, wi) for Ji, wi in
                                  zip(np.array_split(Jinv, blocks),
                                      np.array_split(wq, blocks))])
        w[~aff] = wq
    if volume is None:
        return A, np.zeros((n, nb))
    return A, data_load(volume, map_points(corners, pts), w, V)


def assemble_scalar(space, problem):
    """Stiffness record and load vector of the Poisson form, one group of
    elements of equal degree at a time, by `poisson_blocks`; the groups'
    matrices are summed in group order, starting from the first group's."""
    corners = space.mesh.corner_array(space.mesh.active_ids())
    A = None
    b = np.zeros(space.ndof)
    for (p,), sel in element_groups(space).items():
        A_e, b_e = poisson_blocks(corners[sel], p, p + 1 + problem.extra_order,
                                  problem.volume)
        R = space.local_operator(1, sel)
        A_g = galerkin(R, A_e)
        A = A_g if A is None else _kernels.csr_sum(A, A_g, space.ndof)
        if problem.volume is not None:
            b += R.T @ b_e.ravel()
    if problem.neumann is not None:
        b += boundary_load(space, corners, problem.neumann, problem.neumann_tags)
    return A, b


def solve_scalar(space, problem):
    require_dirichlet(space.mesh)
    A, b = assemble_scalar(space, problem)
    u = factorize(A).solve(b)
    return u, A, b


def energy_error_sq(space, u, exact_grad):
    """|u_exact - u|^2 in the energy (H1-seminorm) sense by quadrature of
    order p + 4, one group of elements of equal degree at a time."""
    corners = space.mesh.corner_array(space.mesh.active_ids())
    total = 0.0
    for (p,), sel in element_groups(space).items():
        pts, w, Jinv = group_quadrature(corners[sel], p + 4)
        _, G = tensor_shape_eval(pts, tensor_indices(p, space.dim))
        coef = space.element_coeffs(sel, u)
        grad_h = ((coef[:, None, None, :] @ G) @ Jinv)[:, :, 0]
        x = map_points(corners[sel], pts)
        diff = np.asarray(exact_grad(x.reshape(-1, space.dim)),
                          dtype=float).reshape(x.shape) - grad_h
        total += float(np.einsum("nq,nqk,nqk->", w, diff, diff))
    return total
