"""Built-in meshes and benchmark problems."""

import numpy as np

from .assembly import Loads, Material
from .elliptic import ScalarProblem
from .mesh import Mesh, corner_bits


def box_mesh(n=1, dim=2, degree=1, lo=0.0, hi=1.0):
    """The grid of n^dim cells on [lo, hi]^dim: vertices and cells in
    lexicographic order, last axis fastest."""
    xs = np.linspace(lo, hi, n + 1)
    verts = np.stack(np.meshgrid(*[xs] * dim, indexing="ij"), axis=-1)
    ids = np.arange(verts.size // dim).reshape((n + 1,) * dim)
    cells = np.stack([ids[tuple(slice(b, b + n) for b in bits)]
                      for bits in corner_bits(dim).tolist()], axis=-1)
    return Mesh.from_arrays(verts.reshape(-1, dim), cells, dim=dim, degrees=degree)


def interval_mesh(n=1, degree=1, lo=0.0, hi=1.0):
    return box_mesh(n, 1, degree, lo, hi)


def square_mesh(n=1, degree=1, tagger=None, lo=0.0, hi=1.0):
    m = box_mesh(n, 2, degree, lo, hi)
    return m if tagger is None else m.tag_boundary(tagger)


def cube_mesh(n=1, degree=1):
    return box_mesh(n, 3, degree)


def l_shape_mesh(degree=1):
    """(-1,1)^2 minus the fourth quadrant, three unit squares, corner at 0."""
    verts = [[-1, -1], [0, -1], [-1, 0], [0, 0], [1, 0], [-1, 1], [0, 1], [1, 1]]
    cells = [[0, 2, 1, 3], [2, 5, 3, 6], [3, 6, 4, 7]]
    return Mesh.from_arrays(verts, cells, dim=2, degrees=degree)


# ---------------------------------------------------------------------------
# benchmark presets
# ---------------------------------------------------------------------------

def poisson_1d_singular(alpha=1.5, n=2, degree=1):
    """-u'' = f on (0,1), u(0) = u(1) = 0, u = x^alpha (1 - x)."""

    def exact(x):
        x = np.asarray(x)[:, 0]
        return x**alpha * (1.0 - x)

    def exact_grad(x):
        x = np.asarray(x)[:, 0]
        g = alpha * x**(alpha - 1.0) * (1.0 - x) - x**alpha
        return g[:, None]

    def force(x):
        x = np.maximum(np.asarray(x)[:, 0], 1e-300)
        return -(alpha * (alpha - 1.0) * x**(alpha - 2.0) * (1.0 - x)
                 - 2.0 * alpha * x**(alpha - 1.0))

    mesh = interval_mesh(n, degree)
    problem = ScalarProblem(volume=force, exact=exact, exact_grad=exact_grad)
    return mesh, problem


def poisson_lshape(degree=1):
    """-Laplace u = 1 on the L-shaped domain, u = 0 on the boundary."""
    mesh = l_shape_mesh(degree)
    problem = ScalarProblem(volume=lambda x: np.ones(len(x)))
    return mesh, problem


def elastic_square_manufactured(n=2, degree=1, lam=1.0, mu=1.0):
    """Linear elasticity on the unit square with an analytic sine displacement,
    clamped on the whole boundary."""
    amp = 0.1

    def disp(x):
        s = amp * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        return np.stack([s, s], axis=1)

    def disp_grad(x):
        sx = np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        sy = np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        g = np.empty((len(x), 2, 2))
        g[:, 0, 0] = sx
        g[:, 0, 1] = sy
        g[:, 1, 0] = sx
        g[:, 1, 1] = sy
        return amp * g

    def force(x):
        pi = np.pi
        s = np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1])
        c2 = np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1])
        f1 = (lam + mu) * pi**2 * (s - c2) + 2.0 * mu * pi**2 * s
        return amp * np.stack([f1, f1], axis=1)

    mesh = square_mesh(n, degree, tagger=lambda c: "dirichlet")
    material = Material(lam=lam, mu=mu, hardening=1.0, yield_stress=1e9)
    loads = Loads(volume=force)
    return mesh, material, loads, disp, disp_grad


def plastic_square(n=2, degree=1, lam=10.0, mu=5.0, hardening=1.0,
                   yield_stress=0.35, pull=0.6, shear=0.12):
    """Elastoplastic unit square clamped on the left, traction on the right
    edge; the default parameters produce both elastic and plastic zones."""
    mesh = square_mesh(
        n, degree,
        tagger=lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    material = Material(lam=lam, mu=mu, hardening=hardening,
                        yield_stress=yield_stress)

    def traction(x):
        on_right = np.abs(x[:, 0] - 1.0) < 1e-9
        out = np.zeros_like(x)
        out[on_right, 0] = pull
        out[on_right, 1] = shear
        return out

    loads = Loads(traction=traction)
    return mesh, material, loads
