import numpy as np
import pytest
import scipy.sparse as sp

from hpfem import _kernels
from hpfem.assembly import (Loads, Material, element_groups, galerkin,
                            gauss_mass_matrix, group_quadrature, strain)
from hpfem.elliptic import ScalarProblem
from hpfem.mesh import (Mesh, corner_bits, facet_measure, map_jacobians,
                        positions_of)
from hpfem.plasticity import tensor_values
from hpfem.problems import cube_mesh, interval_mesh, poisson_lshape
from hpfem.problems import square_mesh  # noqa: F401  (re-exported to tests)
from hpfem.polybasis import tensor_gauss, tensor_indices, tensor_shape_eval
from hpfem.space import (GaussPointSpace, ScalarSpace, deviatoric_dim,
                         gauss_point_basis)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def element_quadrature(mesh, eid, order):
    """Corners (2^d, d), reference points/weights and mapped geometry for one
    element: a one-element view of `assembly.group_quadrature`, for checks
    element by element."""
    corners = mesh.corner_array([eid])[0]
    pts, wts = tensor_gauss(order, mesh.dim)
    J = map_jacobians(corners, pts)
    return corners, pts, wts, np.linalg.det(J), np.linalg.inv(J)


def map_dets(corners, xhat):
    """Jacobian determinants (m,) of the map of one element's corners
    (2^d, d) at reference points xhat (m, d)."""
    return np.linalg.det(map_jacobians(corners, np.atleast_2d(xhat)))


def map_volume(corners):
    """The volume of the map of one element's corners (2^d, d)."""
    pts, wts = tensor_gauss(3, corners.shape[-1])
    return float(wts @ map_dets(corners, pts))


def is_valid_map(corners):
    """Whether the map of one element's corners (2^d, d) has a positive
    Jacobian determinant at the corners and on a 3rd-order Gauss grid."""
    d = corners.shape[-1]
    pts, _ = tensor_gauss(3, d)
    return bool(np.all(map_dets(corners, np.vstack([2.0 * corner_bits(d) - 1.0,
                                                    pts])) > 0.0))


def matched_refs(mesh, rows, xi):
    """Active ids and reference points (n, m, d) on both sides of the facet
    pieces of the facet-table rows `rows` (a slice or an index array), at
    unit-box points xi (m, d-1) over each piece: (el, ref_el, nb, ref_nb)."""
    tab = mesh.facet_table()
    t_mine, t_nb = tab.coords(rows, xi)
    return (tab.act[tab.el[rows]], mesh.facet_embed(tab.facet[rows], t_mine),
            tab.act[tab.nb[rows]], mesh.facet_embed(tab.nb_facet[rows], t_nb))


def facet_jump(space, u, rows, xi):
    """The largest jump of a field u (ndof,) of a ScalarSpace across the
    pieces of the facet-table rows `rows`, at the matched points of xi."""
    el, ref_el, nb, ref_nb = matched_refs(space.mesh, rows, xi)
    return max((np.abs(eval_element(space, a, u, x)
                       - eval_element(space, b, u, y)).max()
                for a, x, b, y in zip(el.tolist(), ref_el, nb.tolist(), ref_nb)),
               default=0.0)


def degree_gaps(mesh):
    """The degree difference across each facet piece of mesh."""
    tab = mesh.facet_table()
    deg = mesh.degree[tab.act]
    return np.abs(deg[tab.el] - deg[tab.nb])


def facet_area_element(mesh, eid, f, t_facet):
    """Surface measure factor dS (m,) and unit outward normal (m, d) of
    element eid on its local facet f at in-facet coordinates (m, d-1)."""
    J = map_jacobians(mesh.corner_array([eid])[0], mesh.facet_embed(f, t_facet))
    return facet_measure(J, f)


def eval_element(space, eid, u, xhat, gradient=False):
    """Values (and with gradient=True reference gradients) of a field of a
    ScalarSpace on one element at reference points xhat; u is a field
    (ndof,), or rows (ndof, k) of k fields when only values are asked for."""
    loc = space.element_coeffs(positions_of(space.mesh.active_ids(), [eid]), u)[0]
    p = space.mesh.degree[eid]
    V, G = tensor_shape_eval(np.atleast_2d(xhat), tensor_indices(p, space.dim))
    if gradient:
        return V @ loc, np.einsum("mbd,b->md", G, loc)
    return V @ loc


def strain_at(space, eid, u, pts, Jinv):
    """Symmetric gradient of the vector field u at reference points."""
    loc = space.element_coeffs(positions_of(space.mesh.active_ids(), [eid]),
                               np.asarray(u).reshape(-1, space.dim))[0]
    p = space.mesh.degree[eid]
    _, G = tensor_shape_eval(pts, tensor_indices(p, space.dim))
    return strain(loc.T @ G @ Jinv)


def gauss_basis_at(qspace, eid, xhat):
    """The Gauss-point basis of element eid of a GaussPointSpace at
    reference points xhat (m, n_T)."""
    return gauss_point_basis(qspace.mesh.degree[eid], xhat)


def gauss_mass(qspace, eid):
    """The mass block (n_T, n_T) of element eid of a GaussPointSpace."""
    return qspace.mass_blocks(positions_of(qspace.mesh.active_ids(), [eid]))[0]


def gauss_eval_primal(qspace, eid, coeffs, xhat):
    """Values (m, ...) on element eid of a field of a GaussPointSpace given
    by primal (Lagrange) coefficient rows (ndof, ...)."""
    pos = positions_of(qspace.mesh.active_ids(), [eid])
    return np.tensordot(gauss_basis_at(qspace, eid, xhat),
                        qspace.element_rows(pos, coeffs)[0], axes=(1, 0))


def gauss_eval_dual(qspace, eid, coeffs, xhat):
    """Values (m, ...) on element eid of a field of a GaussPointSpace given
    by coefficient rows over the biorthogonal basis."""
    pos = positions_of(qspace.mesh.active_ids(), [eid])
    return np.tensordot(gauss_basis_at(qspace, eid, xhat),
                        qspace.element_rows(pos, coeffs, dual=True)[0], axes=(1, 0))


def gauss_local_operator(qspace, ncomp=1, positions=None):
    """The identity on the dofs of ncomp-component fields of a
    GaussPointSpace as a CSR matrix, or, with positions (of active elements
    of one degree), its rows of those elements."""
    n = ncomp * qspace.ndof
    rows = (np.arange(n) if positions is None
            else qspace.element_dofs(positions, ncomp).ravel())
    return sp.csr_matrix((np.ones(len(rows)), rows, np.arange(len(rows) + 1)),
                         shape=(len(rows), n))


def operator_rows(matrix):
    """The rows of a CSR matrix as a record: the form of
    `ScalarSpace.local_operator` that `assembly.galerkin` reads."""
    return record(matrix)


def operator_matrix(rows):
    """Rows in the form of `ScalarSpace.local_operator` as a CSR matrix."""
    return scipy_matrix(rows)


def scipy_matrix(a):
    """A record of the package as a scipy CSR or CSC matrix (by its format),
    for checks by scipy."""
    return getattr(sp, a.fmt + "_matrix")((a.data, a.indices, a.indptr),
                                          shape=a.shape)


def record(matrix, fmt="csr"):
    """A scipy matrix, or a dense array, as a record of format fmt."""
    matrix = getattr(sp, fmt + "_matrix")(matrix)
    return _kernels.CSR(matrix.indptr, matrix.indices, matrix.data, matrix.shape,
                        fmt)


def rows_increase(a):
    """Whether the indices of every row of a record or CSR matrix strictly
    increase: sorted, with no duplicates."""
    step = np.diff(a.indices)
    starts = a.indptr[1:-1]
    step[starts[(starts > 0) & (starts < len(a.indices))] - 1] = 1
    return bool(np.all(step > 0))


def plastic_field_at(qspace, eid, p, pts, dual=False):
    """Tensor field values (m, d, d) from coefficient rows (N, L)."""
    rows = np.asarray(p, dtype=float).reshape(qspace.ndof,
                                              deviatoric_dim(qspace.dim))
    evaluate = gauss_eval_dual if dual else gauss_eval_primal
    return tensor_values(evaluate(qspace, eid, rows, pts), qspace.dim)


def assemble_norm_matrices(space, qspace=None):
    """(vector mass, strain product, Q mass): the combined norm is
    ||v||^2 + ||eps(v)||^2 + ||q||^2."""
    d = space.dim
    act = np.array(space.mesh.active_ids())
    corners = space.mesh.corner_array(act)
    Ms = sp.csr_matrix((space.ndof, space.ndof))
    Sv = sp.csr_matrix((d * space.ndof, d * space.ndof))
    for (p,), sel in element_groups(space).items():
        pts, w, Jinv = group_quadrature(corners[sel], p + 2)
        V, G = tensor_shape_eval(pts, tensor_indices(p, d))
        Ms += scipy_matrix(galerkin(space.local_operator(1, sel),
                                    _kernels.mass_matrix(V, w)))
        Sv += scipy_matrix(galerkin(space.local_operator(d, sel),
                                    _kernels.elastic_stiffness(G @ Jinv, w, 0.0, 0.5)))
    Mv = sp.kron(Ms, sp.identity(d), format="csr")
    if qspace is None:
        return Mv, Sv, None
    return Mv, Sv, scipy_matrix(gauss_mass_matrix(qspace, deviatoric_dim(d)))


def distorted_quad_mesh(degree=2):
    """Two non-affine quadrilaterals sharing one edge."""
    verts = [[0, 0], [1.05, -0.1], [2.1, 0.05],
             [-0.1, 1.0], [1.0, 1.15], [2.0, 1.0]]
    cells = [[0, 3, 1, 4], [1, 4, 2, 5]]
    return Mesh.from_arrays(verts, cells, dim=2, degrees=degree,
                            default_tag="neumann")


def random_refined_mesh(rng, n=2, max_degree=4, refinements=2, dirichlet=False):
    """Random h-refinements and degrees on an n x n square mesh."""
    if dirichlet:
        tag = lambda c: "dirichlet" if c[0] < 1e-12 else "neumann"  # noqa: E731
    else:
        tag = lambda c: "neumann"  # noqa: E731
    m = square_mesh(n, 1, tagger=tag)
    for _ in range(refinements):
        act = m.active_ids()
        m = m.refine_element(act[int(rng.integers(len(act)))])
    degs = {e: int(rng.integers(1, max_degree + 1)) for e in m.active_ids()}
    return m.with_degrees(degs)


def _mixed_loads(d):
    """A smooth volume load and a smooth traction in d dimensions."""
    def volume(x):
        cols = [np.sin(3.0 * x[:, 0]) + x[:, -1]]
        cols += [x[:, 0] * x[:, k] - 0.5 * k for k in range(1, d)]
        return np.stack(cols, axis=1)

    def traction(x):
        return np.stack([np.cos(x[:, 0]) + 0.3 * x[:, k] for k in range(d)],
                        axis=1)

    return volume, traction


INDICATOR_CASES = ("interval", "square_hanging", "distorted", "cube_hanging")
INDICATOR_VARIANTS = {"lam_none": (False, "star"), "lam_given": (True, "star"),
                      "multiplier": (True, "multiplier")}


def indicator_case(name):
    """Inputs of compute_indicators for one estimator parity case: (space,
    qspace, material, loads, u, p, lam) with random coefficient vectors, so
    that every term of the indicator, and the projected multiplier bound, is
    nonzero somewhere. The interval has one element: the per-element
    estimator the values were recorded from raised on 1D interior facets."""
    def tag(c):
        return "dirichlet" if c[0] < 1e-12 else "neumann"

    if name == "interval":
        m = interval_mesh(1, degree=3)
        m.tag_boundary(tag)
        volume, traction = _mixed_loads(1)
        loads = Loads(volume=volume, traction=traction)
    elif name == "square_hanging":
        m = square_mesh(2, degree=1, tagger=tag).refine_element(0)
        m = m.with_degrees({e: 1 + i % 3 for i, e in enumerate(m.active_ids())})
        volume, traction = _mixed_loads(2)
        loads = Loads(volume=volume, traction=traction)
    elif name == "distorted":
        m = distorted_quad_mesh(degree=2).with_degrees({0: 2, 1: 3})
        volume, traction = _mixed_loads(2)
        loads = Loads(volume=volume, traction=traction)
    elif name == "cube_hanging":
        m = cube_mesh(2, degree=2)
        m.tag_boundary(tag)
        m = m.refine_element(0)
        m = m.with_degrees({e: 1 + i % 2 for i, e in enumerate(m.active_ids())})
        _, traction = _mixed_loads(3)
        loads = Loads(traction=traction)
    else:
        raise ValueError(name)
    material = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.35)
    space = ScalarSpace(m)
    qspace = GaussPointSpace(m, material.yield_stress)
    rng = np.random.default_rng(INDICATOR_CASES.index(name))
    L = deviatoric_dim(m.dim)
    u = 0.05 * rng.standard_normal(m.dim * space.ndof)
    p = 0.05 * rng.standard_normal(L * qspace.ndof)
    lam = 0.3 * rng.standard_normal(L * qspace.ndof)
    return space, qspace, material, loads, u, p, lam


ASSEMBLY_CASES = INDICATOR_CASES + ("lshape",)


def assembly_case(name):
    """Inputs of the assembly parity fixture: (space, qspace, material, loads,
    problem) on the meshes of indicator_case, with a Poisson problem carrying
    non-polynomial volume and Neumann data, or on the L-shape of
    poisson_lshape at degree 2 with one off-centre refinement, with its own
    Poisson problem and the plane mixed loads."""
    if name == "lshape":
        m, problem = poisson_lshape(degree=2)
        m = m.refine_element(0, [0.3, -0.2])
        m = m.with_degrees({e: 2 + i % 2 for i, e in enumerate(m.active_ids())})
        volume, traction = _mixed_loads(2)
        material = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.35)
        space = ScalarSpace(m)
        qspace = GaussPointSpace(m, material.yield_stress)
        loads = Loads(volume=volume, traction=traction)
        return space, qspace, material, loads, problem
    space, qspace, material, loads, *_ = indicator_case(name)
    problem = ScalarProblem(
        volume=lambda x: np.sin(3.0 * x[:, 0]) + x[:, -1],
        neumann=lambda x: np.cos(x[:, 0]) + 0.3 * x[:, -1])
    return space, qspace, material, loads, problem


def _rotated(corners, axes, signs):
    """Corner ids of a hexahedron rotated in its reference frame: new corner
    b is the old corner at A (2b - 1) with (A xi)_k = signs[k] xi[axes[k]];
    det J keeps its sign when det A = 1."""
    bits = tensor_indices(1, len(axes))
    old = (np.asarray(signs) * (2 * bits[:, axes] - 1) + 1) // 2
    return [corners[r] for r in old @ (1 << np.arange(len(axes) - 1, -1, -1))]


def rotated_roots_mesh(d, refine, degrees):
    """The strip of two squares with the right one rotated by 180 degrees
    (d = 2), or cube_mesh(2) with roots 0 and 3 rotated, one about the body
    diagonal and one by 90 degrees about the first axis (d = 3). The roots
    listed in refine are refined once, and the active elements take the
    degrees in turn."""
    if d == 2:
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        cells = [[0, 3, 1, 4], [5, 2, 4, 1]]
    else:
        cube = cube_mesh(2)
        verts = cube.vertices
        cells = cube.corners.tolist()
        cells[0] = _rotated(cells[0], [1, 2, 0], [1, 1, 1])
        cells[3] = _rotated(cells[3], [0, 2, 1], [1, -1, 1])
    m = Mesh.from_arrays(verts, cells, dim=d, default_tag="neumann")
    assert (np.linalg.det(map_jacobians(m.corner_array(m.active_ids()),
                                        np.zeros((1, d)))) > 0).all()
    m = m.refine_many(refine)
    return m.with_degrees({e: degrees[i % len(degrees)]
                           for i, e in enumerate(m.active_ids())})


# (d, roots refined, degrees) of rotated_roots_mesh
ROTATED_CASES = [(2, [0], (2, 4)), (2, [1], (3, 2)), (2, [0], (4, 3, 2)),
                 (3, [1, 2], (2, 3)), (3, [0, 3], (3, 2, 4)), (3, [2, 5], (4, 2))]
