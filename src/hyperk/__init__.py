"""Numerical toolkit for a hypergeometric-kernel fractional integral.

The operator generalizes the Riemann-Liouville fractional integral with a
Gauss hypergeometric weight and a power substitution; this package computes
it with certified split Gauss-Jacobi quadrature and uses it to stress-test
a family of Minkowski- and Hoelder-type integral inequalities.
"""

from .errors import (
    ConstructionError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    EvaluationError,
    GenerationError,
    HyperkError,
    ValidationError,
)
from .specfun import beta, gauss_2f1, log_gamma, pochhammer
from .quadrature import MAX_ORDER, JacobiRule, gauss_jacobi_rule, integrate
from .fracint import (
    DEFAULT_ORDER,
    DEFINITION_ONLY,
    MAX_OPERATOR_ORDER,
    STRICT,
    OperatorParams,
    OperatorResult,
    apply_operator,
    kernel_closed,
    kernel_series,
    operator_images,
    operator_of_one,
    rl_k_integral,
    validate,
)
from .testfuncs import (
    THEOREM_IDS,
    AffineFn,
    ExpFn,
    FunctionSpec,
    PowerFn,
    PowFn,
    ProductFn,
    SumFn,
    TabulatedFn,
    TestInstance,
    draw_positive_function,
    equality_instance,
    function_from_dict,
    instance_from_dict,
    make_monotone_pair,
    make_ratio_pair,
    random_instance,
    sample_points,
    verify_hypotheses,
)
from .inequalities import (
    CHECKERS,
    InequalityReport,
    check_instance,
    check_proof_steps,
    check_thm31,
    check_thm32,
    check_thm41,
    check_thm42,
    check_thm43,
    check_thm44,
    run_suite,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "HyperkError", "DomainError", "ValidationError", "ConvergenceError",
    "DivergenceError", "EvaluationError", "ConstructionError", "GenerationError",
    "log_gamma", "pochhammer", "beta", "gauss_2f1",
    "JacobiRule", "gauss_jacobi_rule", "integrate", "MAX_ORDER",
    "OperatorParams", "OperatorResult", "validate", "apply_operator",
    "operator_images", "kernel_closed", "kernel_series", "operator_of_one",
    "rl_k_integral", "STRICT", "DEFINITION_ONLY", "DEFAULT_ORDER",
    "MAX_OPERATOR_ORDER",
    "FunctionSpec", "PowerFn", "ExpFn", "AffineFn", "TabulatedFn",
    "SumFn", "ProductFn", "PowFn", "function_from_dict",
    "TestInstance", "sample_points", "make_ratio_pair", "make_monotone_pair",
    "draw_positive_function", "random_instance", "verify_hypotheses",
    "equality_instance", "instance_from_dict", "THEOREM_IDS",
    "InequalityReport", "CHECKERS", "check_instance", "check_proof_steps",
    "check_thm31", "check_thm32", "check_thm41", "check_thm42",
    "check_thm43", "check_thm44", "run_suite", "summarize",
    "__version__",
]
