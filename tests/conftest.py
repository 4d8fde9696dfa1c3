import numpy as np
import pytest

from hpfem.mesh import Mesh
from hpfem.problems import square_mesh  # noqa: F401  (re-exported to tests)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def distorted_quad_mesh(degree=2):
    """Two non-affine quadrilaterals sharing one edge."""
    verts = [[0, 0], [1.05, -0.1], [2.1, 0.05],
             [-0.1, 1.0], [1.0, 1.15], [2.0, 1.0]]
    cells = [[0, 3, 1, 4], [1, 4, 2, 5]]
    m = Mesh.from_arrays(verts, cells, dim=2, default_tag="neumann")
    for e in m.elements:
        e.degree = degree
    return m


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
