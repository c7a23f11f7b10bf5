"""Symbolic toolkit for Lie point symmetries of ODE systems, with
first-class support for non-Cartan symmetries (generators whose d/dx
component depends on the dependent variables)."""

from .expr import (
    Call, CollectError, CyclicBindingError, Expression, OpaqueArgumentError,
    ParseContext, ParseError, RewriteRule, Symbol, UndecidedZeroError,
    ZeroStatus, apply_rules, call, collect, const, dep, differentiate,
    format_expression, format_monomial, func, indep, is_zero, jet, one,
    param, parse, replace_atoms, substitute, sym, zero, zero_status,
)
from .jet import (
    JetContext, JetOrderError, ProlongedField, VectorField, prolong,
    total_derivative,
)
from .linalg import (
    InconsistentSystemError, linear_equations_in_params, nullspace, rank,
    solve,
)
from .symmetry import (
    ContextMismatchError, DeterminingSystem, LieAlgebraReport,
    LinearSystemSpec, MissingInverseError, OdeSystem, PointTransformation,
    algebra_report, change_coordinates, commutator, determining_equations,
    full_ansatz, invariance_residual, is_non_cartan, restricted_ansatz,
)
from .catalog import (
    IterativeOperator, NormalFormCoefficients, SourceEquation,
    c1_symmetry_pde_residual, canonical_basis, free_fall_symmetries,
    isotropic_system, iterative_power, non_cartan_family,
    non_cartan_generators, nonlinear_counterexample, normal_form_coeffs,
    normalize_s, reduction_transformation, scalar_context,
    source_solution_basis,
)
from .classify import (
    ClassificationVerdict, NotInNormalFormError, TraceReductionError,
    brute_force_non_cartan_search, classify_linear_system, classify_system,
    cubic_in_p_test, determining_system_2x2, isotropy_test,
    non_cartan_existence_2x2, non_cartan_search, trace_free_reduce,
)

# the submodule import above rebinds the package attribute `jet` to the
# module object; restore the symbol constructor
from .expr import jet

__version__ = "0.1.0"
