"""Nonnegativity of finite element schemes for fractional-in-time diffusion.

The package builds the three spatial discretizations (standard Galerkin,
mass lumping, finite volume element) on triangular meshes and reads every
solution operator one way: a row of per-mode coefficients (the contour
quadrature kernel u_lambda(t), or omega_0 / (omega_0 + lambda) and
r_{n,tau}(lambda) for backward Euler) applied through the eigensystem of
(S, M).  The threshold scans locate the times / step sizes where the
discrete solutions stop dipping negative.
"""

from .errors import FracposError, NumericalError, UsageError
from .fem import METHODS, build_fem_system, system_from_matrices
from .fullydiscrete import fd_positivity_threshold
from .kernel import FracOperator, cq_weights, mittag_leffler, u_lambda
from .mesh import (
    bundled_mesh,
    bundled_mesh_names,
    gen_crossed_rectangles,
    gen_equilateral_rhombus,
    gen_sliver_square,
    gen_uniform_square,
    load_triangle_format,
)
from .semidiscrete import positivity_threshold

__version__ = "0.1.0"

__all__ = [
    "FracposError",
    "UsageError",
    "NumericalError",
    "FracOperator",
    "u_lambda",
    "mittag_leffler",
    "cq_weights",
    "METHODS",
    "build_fem_system",
    "system_from_matrices",
    "gen_uniform_square",
    "gen_crossed_rectangles",
    "gen_sliver_square",
    "gen_equilateral_rhombus",
    "load_triangle_format",
    "bundled_mesh",
    "bundled_mesh_names",
    "positivity_threshold",
    "fd_positivity_threshold",
    "__version__",
]
