"""Scalar symmetric elliptic problems (Poisson) on the continuous hp space:
assembly, solving, and energy-norm utilities. This is the variational-equation
setting the local error-reduction predictor operates on."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .assembly import (boundary_load, data_load, element_groups, galerkin,
                       group_quadrature)
from .mesh import map_points
from .plasticity import factorize
from .polybasis import tensor_indices, tensor_shape_eval


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


def assemble_scalar(space, problem):
    """Stiffness matrix and load vector of the Poisson form, one group of
    elements of equal degree at a time."""
    corners = space.mesh.corner_array(space.mesh.active_ids())
    A = sp.csr_matrix((space.ndof, space.ndof))
    b = np.zeros(space.ndof)
    for (p,), sel in element_groups(space).items():
        pts, w, Jinv = group_quadrature(corners[sel], p + 1 + problem.extra_order)
        V, G = tensor_shape_eval(pts, tensor_indices(p, space.dim), jmax=max(p, 1))
        rows = space.local_operator(1, sel)
        A += galerkin(rows, _kernels.scalar_stiffness(G @ Jinv, w))
        if problem.volume is not None:
            b += rows.T @ data_load(problem.volume, map_points(corners[sel], pts),
                                    w, V).ravel()
    if problem.neumann is not None:
        b += boundary_load(space, corners, problem.neumann, problem.neumann_tags)
    return A, b


def solve_scalar(space, problem):
    A, b = assemble_scalar(space, problem)
    u = factorize(A).solve(b)
    return u, A, b


def energy_error_sq(space, u, exact_grad):
    """|u_exact - u|^2 in the energy (H1-seminorm) sense by quadrature of
    order p + 4, one group of elements of equal degree at a time."""
    act = np.array(space.mesh.active_ids())
    corners = space.mesh.corner_array(act)
    total = 0.0
    for (p,), sel in element_groups(space).items():
        pts, w, Jinv = group_quadrature(corners[sel], p + 4)
        _, G = tensor_shape_eval(pts, tensor_indices(p, space.dim), jmax=max(p, 1))
        coef = space.element_coeffs(act[sel], u)
        grad_h = ((coef[:, None, None, :] @ G) @ Jinv)[:, :, 0]
        x = map_points(corners[sel], pts)
        diff = np.asarray(exact_grad(x.reshape(-1, space.dim)),
                          dtype=float).reshape(x.shape) - grad_h
        total += float(np.einsum("nq,nqk,nqk->", w, diff, diff))
    return total
