"""Scalar symmetric elliptic problems (Poisson) on the continuous hp space:
assembly, solving, and energy-norm utilities. This is the variational-equation
setting the local error-reduction predictor operates on."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .assembly import element_quadrature, facet_load, physical_gradients
from .plasticity import factorize
from .polybasis import tensor_shape_eval


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
    """Stiffness matrix and load vector of the Poisson form."""
    mesh = space.mesh
    rows, cols, vals = [], [], []
    b = np.zeros(space.ndof)
    for eid in mesh.active_ids():
        p = space.degrees[eid]
        emap, pts, wts, det, Jinv = element_quadrature(mesh, eid, p + 1 + problem.extra_order)
        idx = space.local_indices(eid)
        V, G = tensor_shape_eval(pts, idx, jmax=max(p, 1))
        dphi = physical_gradients(G, Jinv)
        w = wts * det
        grows, cmat = space.connectivity(eid)
        Aloc = _kernels.scalar_stiffness(np.ascontiguousarray(dphi),
                                         np.ascontiguousarray(w))
        Ael = cmat @ Aloc @ cmat.T
        rows.append(np.repeat(grows, len(grows)))
        cols.append(np.tile(grows, len(grows)))
        vals.append(Ael.ravel())
        if problem.volume is not None:
            fv = np.asarray(problem.volume(emap.map_point(pts)), dtype=float)
            b[grows] += cmat @ (V.T @ (w * fv))
        if problem.neumann is not None:
            for f, info in enumerate(mesh.facet_neighbors(eid)):
                if info.kind != "boundary" or info.tag not in problem.neumann_tags:
                    continue
                b[grows] += cmat @ facet_load(mesh, eid, f, idx, p, problem.neumann)
    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(space.ndof, space.ndof))
    return A, b


def solve_scalar(space, problem):
    A, b = assemble_scalar(space, problem)
    u = factorize(A).solve(b)
    return u, A, b


def energy_error_sq(space, u, exact_grad, order_bump=4):
    """|u_exact - u|^2 in the energy (H1-seminorm) sense by quadrature."""
    mesh = space.mesh
    d = mesh.dim
    total = 0.0
    for eid in mesh.active_ids():
        p = space.degrees[eid]
        emap, pts, wts, det, Jinv = element_quadrature(mesh, eid, p + order_bump)
        idx = space.local_indices(eid)
        _, G = tensor_shape_eval(pts, idx, jmax=max(p, 1))
        dphi = physical_gradients(G, Jinv)
        grows, cmat = space.connectivity(eid)
        loc = cmat.T @ u[grows]
        grad_h = np.einsum("qbm,b->qm", dphi, loc)
        grad_ex = np.asarray(exact_grad(emap.map_point(pts)), dtype=float)
        diff = grad_ex - grad_h
        total += float((wts * det) @ np.einsum("qm,qm->q", diff, diff))
    return total
