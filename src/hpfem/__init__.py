"""hp-finite elements for one quasi-static step of elastoplasticity with
linearly kinematic hardening, plus hp-adaptivity for elliptic equations driven
by locally predicted energy-error reductions."""

from .assembly import Loads, Material, assemble_system
from .mesh import ElementMap, Mesh, check_det_affine, is_affine
from .plasticity import NewtonConfig, solve_semismooth_newton
from .space import GaussPointSpace, ScalarSpace, deviatoric_basis

__version__ = "0.1.0"

# There is one kernel implementation, in numpy; benchmark records keep the field.
IS_COMPILED = False

__all__ = [
    "IS_COMPILED", "__version__", "ElementMap", "Mesh", "check_det_affine",
    "is_affine", "ScalarSpace", "GaussPointSpace", "deviatoric_basis",
    "Material", "Loads", "assemble_system", "NewtonConfig",
    "solve_semismooth_newton",
]
