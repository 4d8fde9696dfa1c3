"""Element addressing in the hp spaces: the readers take positions in the
active element list, all of one degree, and element ids become positions
only through the checked `mesh.positions_of`."""
import numpy as np
import pytest

from hpfem.elliptic import solve_scalar
from hpfem.mesh import positions_of
from hpfem.predictor import choose_enrichment, local_split, p_enrichment
from hpfem.problems import poisson_lshape
from hpfem.space import GaussPointSpace, ScalarSpace, element_groups


def test_positions_of():
    act = [1, 2, 4, 7]
    assert positions_of(act, 4) == 2
    np.testing.assert_array_equal(positions_of(act, [7, 1, 2]), [3, 0, 1])
    for eid in (0, 3, 8):
        with pytest.raises(ValueError, match=f"element {eid} is not active"):
            positions_of(act, [1, eid])


def test_refined_element_is_rejected():
    # element 0 of the L-shape is refined; a lookup that does not check
    # would read element 1 in its place
    mesh, problem = poisson_lshape(2)
    mesh = mesh.refine_many([0])
    space = ScalarSpace(mesh)
    u, A, b = solve_scalar(space, problem)
    with pytest.raises(ValueError, match="element 0 is not active"):
        local_split(space, u, 0)
    with pytest.raises(ValueError, match="element 0 is not active"):
        choose_enrichment(space, problem, A, b, u, {0: [p_enrichment(space, 0)]})
    with pytest.raises(ValueError, match="element 0 is not active"):
        mesh.facet_neighbors(0)
    assert local_split(space, u, 1).interior_dofs.tolist() == [7]


def test_mixed_degrees_are_rejected():
    mesh, _ = poisson_lshape(2)
    mesh = mesh.with_degrees({0: 3})
    space, qspace = ScalarSpace(mesh), GaussPointSpace(mesh, 1.0)
    assert list(element_groups(space)) == [(2,), (3,)]
    u = np.arange(space.ndof, dtype=float)
    rows = np.ones((qspace.ndof, 2))
    readers = [lambda pos: space.element_coeffs(pos, u),
               lambda pos: space.local_operator(1, pos),
               lambda pos: space.scatter(2, pos, np.ones(2 * 9 * len(pos))),
               lambda pos: space.interior_dofs(pos),
               lambda pos: qspace.element_dofs(pos),
               lambda pos: qspace.mass_blocks(pos),
               lambda pos: qspace.element_rows(pos, rows, dual=True)]
    for read in readers:
        with pytest.raises(ValueError, match="positions 1 and 0 differ in degree"):
            read([1, 0])
        read([1, 2])
    assert space.element_coeffs([0], u).shape == (1, 16)
    assert qspace.element_rows([0], rows, dual=True).shape == (1, 9, 2)
