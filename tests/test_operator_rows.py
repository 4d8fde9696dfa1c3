"""Reads and scatters through the local-to-global operator P against
scipy's sparse kernels, kept here as the oracles, bit for bit.

- `ScalarSpace.element_coeffs` is the gathered rows R of P times u; it
  must equal the rows of P, sliced by scipy, times u, for 1-D and 2-column
  u, signed zeros included.
- `ScalarSpace.scatter(ncomp, positions, values)` must equal the product
  of the transpose of scipy's rows of P (x) I_ncomp with the values. Both
  raise ValueError for a field or values of the wrong length.
- `ScalarSpace.local_operator(ncomp, positions)` gathers the rows of
  P (x) I_ncomp from P's arrays as a record with int32 index arrays; they
  must equal scipy's fancy row slicing of scipy's Kronecker product, and
  their transpose by `csr_transpose`, which `galerkin` forms, scipy's. K,
  B and the Poisson stiffness keep int32 index arrays.
- `gauss_local_operator` (conftest) forms the identity rows of the
  Gauss-point space directly.
- `assembly.galerkin` forms the block diagonal as CSR straight from the
  blocks, and places the blocks at their columns for identity rows; its
  products must equal those over the BSR block diagonal.

The meshes are the space-parity cases (2D and 3D meshes with hanging
facets and mixed degrees, and a cube refined twice, whose hanging vertices
hang on hanging vertices) and a square and a cube refined off-centre at
high degrees, whose widest rows of P hold 16 entries. The reads and the
scatter also run on a space with no free dofs.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import hpfem.space as space_module
from conftest import (assembly_case, gauss_local_operator, operator_matrix,
                      operator_rows, rows_increase, scipy_matrix, square_mesh)
from hpfem._kernels import csr_transpose
from hpfem.assembly import assemble_system, element_groups, galerkin
from hpfem.elliptic import assemble_scalar
from hpfem.mesh import is_affine
from hpfem.problems import cube_mesh, plastic_square, poisson_lshape
from hpfem.space import GaussPointSpace, ScalarSpace
from test_space_parity import SPACE_CASES, space_case


def _same_bits(have, want):
    assert have.dtype == want.dtype and have.shape == want.shape
    assert have.tobytes() == want.tobytes()


def _same_csr(have, want):
    assert have.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        _same_bits(getattr(have, attr), getattr(want, attr))


def _group_rows(space, sel, ncomp):
    """The rows of P (x) I_ncomp of the elements at positions sel, sliced by
    scipy."""
    rows = space_module._element_rows(space._shape_offsets, sel, ncomp)
    P = sp.csr_matrix(space.P[::-1], shape=(len(space.P[0]) - 1, space.ndof))
    P = P if ncomp == 1 else sp.kron(P, sp.identity(ncomp), format="csr")
    return P[rows]


def operator_case(name):
    """(space, qspace) of a space-parity case, or of a mesh refined once at
    an off-centre point with degrees up to 6 (2D) or 5 (3D), where rows of P
    hold up to 16 entries, more than numpy's pairwise sums add in order."""
    if name in SPACE_CASES:
        return space_case(name)
    if name == "square_offcentre":
        m = square_mesh(2, 5).refine_element(0, [0.3, -0.2])
        degrees = (4, 5, 6)
    elif name == "cube_offcentre":
        m = cube_mesh(2, 3).refine_element(0, [0.2, -0.1, 0.3])
        degrees = (4, 5)
    else:
        raise ValueError(name)
    m = m.with_degrees({e: degrees[i % len(degrees)]
                        for i, e in enumerate(m.active_ids())})
    return ScalarSpace(m), GaussPointSpace(m, 1.0)


OPERATOR_CASES = SPACE_CASES + ("square_offcentre", "cube_offcentre")


@pytest.fixture(params=OPERATOR_CASES)
def case(request):
    return operator_case(request.param)


@pytest.fixture(params=OPERATOR_CASES + ("lshape_no_dofs",))
def read_case(request):
    """The operator cases and a space with no free dofs: the L-shape at
    degree 1, whose vertices are all Dirichlet."""
    if request.param == "lshape_no_dofs":
        space = ScalarSpace(poisson_lshape(degree=1)[0])
        assert space.ndof == 0
        return space
    return operator_case(request.param)[0]


def test_element_coeffs_match_scipy_product(read_case):
    space = read_case
    rng = np.random.default_rng(7)
    u1 = rng.standard_normal(space.ndof)
    u2 = rng.standard_normal((space.ndof, 2))
    # exact cancellations and negative zeros: every sum starts from +0.0
    u1[::3] = -0.0
    u2[1::4] = [-0.0, 0.0]
    fields = [u1, u2, np.full(space.ndof, -0.0), np.ones((space.ndof, 2))]
    for (p,), sel in element_groups(space).items():
        nb = (p + 1) ** space.dim
        for u in fields:
            want = (_group_rows(space, sel, 1) @ u).reshape(
                (len(sel), nb) + u.shape[1:])
            _same_bits(space.element_coeffs(sel, u), want)


def test_scatter_matches_scipy_product(read_case):
    space = read_case
    rng = np.random.default_rng(5)
    for ncomp in (1, 2):
        for sel in element_groups(space).values():
            rows = _group_rows(space, sel, ncomp)
            values = rng.standard_normal(rows.shape[0])
            values[::5] = -0.0
            _same_bits(space.scatter(ncomp, sel, values), rows.T @ values)


def test_cached_rows_match_scipy_slicing(case):
    space, qspace = case
    for ncomp in (1, 2, 3):
        for (p,), sel in element_groups(space).items():
            rows = space.local_operator(ncomp, sel)
            want = _group_rows(space, sel, ncomp)
            _same_csr(operator_matrix(rows), want)
            assert rows.indptr.dtype == rows.indices.dtype == np.int32
            _same_csr(scipy_matrix(csr_transpose(rows, rows.shape[1])),
                      want.T.tocsr())
    n = 3 * qspace.ndof
    for sel in element_groups(qspace).values():
        rows = space_module._element_rows(qspace.offsets, sel, 3)
        _same_csr(gauss_local_operator(qspace, 3, sel),
                  sp.identity(n, format="csr")[rows])
    _same_csr(gauss_local_operator(qspace, 3), sp.identity(n, format="csr"))


def galerkin_oracle(rows, blocks, cols=None):
    """rows^T blockdiag(blocks) cols over the BSR block diagonal, with the
    transpose formed by scipy."""
    n, r, c = blocks.shape
    diag = sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)),
                         shape=(n * r, n * c)).tocsr()
    out = sp.csr_matrix(rows).T.tocsr() @ (diag @ (rows if cols is None else cols))
    out.sort_indices()
    return out


def test_galerkin_matches_bsr_oracle(case):
    space, qspace = case
    rng = np.random.default_rng(11)
    d = space.dim
    for (p,), sel in element_groups(space).items():
        rows = space.local_operator(d, sel)
        matrix, qrows = operator_matrix(rows), gauss_local_operator(qspace, 2, sel)
        n, nr, nq = len(sel), matrix.shape[0] // len(sel), qrows.shape[0] // len(sel)
        square = rng.standard_normal((n, nr, nr))
        square[:, ::2, 1::3] = 0.0  # explicit zeros stay in the pattern
        coupling = rng.standard_normal((n, nr, nq))
        # placed at their q columns, zeros and negative zeros included, the
        # blocks give what the product through the identity rows gives
        coupling[:, 1::3, ::2] = 0.0
        coupling[:, ::4, 1::2] = -0.0
        _same_csr(galerkin(rows, square), galerkin_oracle(matrix, square))
        _same_csr(galerkin(rows, coupling, qspace.element_dofs(sel, 2),
                           2 * qspace.ndof),
                  galerkin_oracle(matrix, coupling, qrows))
        qblocks = rng.standard_normal((n, nq, nq))
        _same_csr(galerkin(operator_rows(qrows), qblocks),
                  galerkin_oracle(qrows, qblocks))


def test_rows_are_gathered_once_per_space(monkeypatch):
    """An assembly on a space gathers each group's rows once, and the loads
    gather none: the mixed assembly the displacement rows of each (degree,
    affinity) group, the scalar one the rows of each degree group. Assembling
    again gathers as many and gives the same matrices, each row's indices
    strictly increasing, and the same loads."""
    space, qspace, material, loads, problem = assembly_case("lshape")
    calls = []
    gather = ScalarSpace.local_operator

    def counted(self, ncomp, positions):
        calls.append(ncomp)
        return gather(self, ncomp, positions)

    monkeypatch.setattr(ScalarSpace, "local_operator", counted)
    system = assemble_system(space, qspace, material, loads)
    A, b = assemble_scalar(space, problem)
    affine = is_affine(space.mesh.corner_array(space.mesh.active_ids()))
    want = ([space.dim] * len(element_groups(space, affine))
            + [1] * len(element_groups(space)))
    assert calls == want
    again = assemble_system(space, qspace, material, loads)
    A2, b2 = assemble_scalar(space, problem)
    assert calls == 2 * want
    for have, want in ((again.K, system.K), (again.B, system.B),
                       (again.C, system.C), (A2, A)):
        _same_csr(have, want)
        assert rows_increase(have)
    _same_bits(again.l, system.l)
    _same_bits(b2, b)


def test_fields_of_the_wrong_length_raise():
    """A field with other than ndof rows, or values with other than one
    entry per gathered row, raise ValueError instead of being read in
    part."""
    mesh, _, _ = plastic_square(n=2, degree=2)
    space = ScalarSpace(mesh)
    sel = element_groups(space)[(2,)]
    rows = 2 * len(sel) * 9
    for u in (np.ones(2 * space.ndof), np.ones(space.ndof - 1),
              np.ones((2 * space.ndof, 2))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            space.element_coeffs(sel, u)
    for values in (np.ones(rows + 1), np.ones(rows // 2)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            space.scatter(2, sel, values)


def test_matrices_have_int32_indices():
    """The gathered rows, K, B and the Poisson stiffness A have int32 index
    arrays, so the products run scipy's int32 kernels without converted
    copies."""
    space, qspace, material, loads, problem = assembly_case("lshape")
    for ncomp in (1, 2):
        for sel in element_groups(space).values():
            R = space.local_operator(ncomp, sel)
            assert R.indptr.dtype == R.indices.dtype == np.int32
    system = assemble_system(space, qspace, material, loads)
    A, _ = assemble_scalar(space, problem)
    for a in (system.K, system.B, A):
        assert a.indptr.dtype == a.indices.dtype == np.int32
