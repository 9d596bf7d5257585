"""Exact computation of tangent spaces, obstruction spaces and versal
deformations of isolated singularities and multigraded Hilbert scheme
germs, over the rationals."""

from .errors import (
    VersalError,
    ParseError,
    GradingError,
    FiniteDimError,
    LiftError,
    ObstructionError,
    RingMismatchError,
)
from .polyring import (
    RingSpec,
    Polynomial,
    parse_expr,
    format_expr,
    extend_with_parameters,
    parameter_ring,
)
from .exactla import (
    rref,
    rref_with_transform,
    rank,
    kernel_basis,
)
from .groebner import (
    FreeModuleElement,
    PolyMatrix,
    GroebnerBasis,
    buchberger,
    syzygy_matrix,
    koszul_syzygies,
    module_quotient_lift,
    kernel_mod_ideal,
    monomials_of_degree,
    standard_monomials,
    hilbert_function,
)
from .cotangent import (
    TangentBasis,
    as_generator_matrix,
    jacobian_matrix,
    first_syzygies,
    cotangent1,
    cotangent2,
    normal_matrix,
)
from .deformation import DeformationResult, versal_deformation
from .inputfile import InputSystem, parse_input, load_input

__version__ = "0.1.0"

__all__ = [
    "VersalError", "ParseError", "GradingError", "FiniteDimError",
    "LiftError", "ObstructionError", "RingMismatchError",
    "RingSpec", "Polynomial", "parse_expr", "format_expr",
    "extend_with_parameters", "parameter_ring",
    "rref", "rref_with_transform", "rank", "kernel_basis",
    "FreeModuleElement", "PolyMatrix", "GroebnerBasis", "buchberger",
    "syzygy_matrix", "koszul_syzygies", "module_quotient_lift",
    "kernel_mod_ideal", "monomials_of_degree", "standard_monomials",
    "hilbert_function",
    "TangentBasis", "as_generator_matrix", "jacobian_matrix",
    "first_syzygies", "cotangent1", "cotangent2", "normal_matrix",
    "DeformationResult", "versal_deformation",
    "InputSystem", "parse_input", "load_input",
    "__version__",
]
