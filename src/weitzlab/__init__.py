"""weitzlab: exact verification that the constants of the derivation
delta(x_i) = 0, delta(y_i) = x_i on K[x_1..x_d, y_1..y_d] are generated by
the x variables and the determinants u_ij = x_i*y_j - x_j*y_i.

Every dimension is measured along three independent routes (kernel
elimination, product-span rank, tableau counting) and the package only
reports success when all three agree, component by component.
"""

from ._version import __version__
from .derivation import (
    GL2Element,
    WeightVectorChain,
    build_chain,
    delta,
    delta_star,
    exp_action,
    gl2_action,
    is_constant,
)
from .kernel import KernelBasis, delta_matrix, kernel_basis
from .linalg import BACKEND, LinearSolver
from .poly import (
    Monomial,
    Polynomial,
    Rational,
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

# Only crosscheck runs the tensor engine, so its names load on first use
# (PEP 562) and `import weitzlab` leaves weitzlab.tensor unimported.
_TENSOR_NAMES = (
    "PairingPlan",
    "TensorElement",
    "delta_tensor",
    "place_permutation",
    "project_to_polynomial",
    "special_hwv",
    "standard_hwv_basis",
)


def __getattr__(name: str):
    if name in _TENSOR_NAMES:
        from . import tensor

        return getattr(tensor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "BACKEND",
    "GL2Element",
    "WeightVectorChain",
    "build_chain",
    "delta",
    "delta_star",
    "exp_action",
    "gl2_action",
    "is_constant",
    "KernelBasis",
    "delta_matrix",
    "kernel_basis",
    "LinearSolver",
    "Monomial",
    "Polynomial",
    "Rational",
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
    *_TENSOR_NAMES,
]
