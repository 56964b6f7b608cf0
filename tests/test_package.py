"""The package's export list: hyperk.__all__ re-exports its modules' own."""

import importlib

import hyperk

PUBLIC = [
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

MODULES = ("errors", "specfun", "quadrature", "fracint", "testfuncs", "inequalities")


def test_export_list_is_pinned():
    assert hyperk.__all__ == PUBLIC


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from hyperk import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)


def test_every_module_export_resolves_to_the_package_name():
    exported = []
    for name in MODULES:
        module = importlib.import_module(f"hyperk.{name}")
        for symbol in module.__all__:
            assert getattr(hyperk, symbol) is getattr(module, symbol)
        exported += module.__all__
    assert [*exported, "__version__"] == PUBLIC
