"""weitzlab: exact verification that the constants of the derivation
delta(x_i) = 0, delta(y_i) = x_i on K[x_1..x_d, y_1..y_d] are generated by
the x variables and the determinants u_ij = x_i*y_j - x_j*y_i.

Every dimension is measured along three independent routes (peeled
kernel blocks, product-span rank, tableau counting) and the package only
reports success when all three agree, component by component.
"""

from ._version import __version__
from .derivation import (
    GL2Element,
    delta,
    exp_action,
    gl2_action,
    is_constant,
)
from .kernel import KernelBasis, kernel_basis
from .linalg import BACKEND, LinearSolver
from .poly import (
    Monomial,
    Polynomial,
    component_basis,
    format_poly,
    parse_poly,
)
from .products import (
    ComponentReport,
    ConjectureViolation,
    ProductTerm,
    decompose,
    enumerate_products,
    expand,
    make_u,
    pluecker,
    span_dimension,
    verify_component,
)
from .report import SweepConfig, SweepReport, run_crosscheck, run_verify_sweep
from .tableaux import (
    StandardTableau,
    dimension_identity_check,
    kostka,
    standard_tableau_count,
    standard_tableaux,
    two_row_partitions,
)

__all__ = [
    "__version__",
    "BACKEND",
    "GL2Element",
    "delta",
    "exp_action",
    "gl2_action",
    "is_constant",
    "KernelBasis",
    "kernel_basis",
    "LinearSolver",
    "Monomial",
    "Polynomial",
    "component_basis",
    "format_poly",
    "parse_poly",
    "ComponentReport",
    "ConjectureViolation",
    "ProductTerm",
    "decompose",
    "enumerate_products",
    "expand",
    "make_u",
    "pluecker",
    "span_dimension",
    "verify_component",
    "SweepConfig",
    "SweepReport",
    "run_crosscheck",
    "run_verify_sweep",
    "StandardTableau",
    "dimension_identity_check",
    "kostka",
    "standard_tableau_count",
    "standard_tableaux",
    "two_row_partitions",
]
