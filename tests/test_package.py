"""The package's export list: hyperk.__all__ re-exports its modules' own,
the census of its caches: each one has to be reused by the traffic, and
the integer counts its entry points check."""

import importlib

import pytest

import hyperk
from hyperk import THEOREM_IDS, DomainError, apply_operator
from hyperk.inequalities import _suite_row
from test_fracint import ONE, PATH_CASES, SWEEP_FNS

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


def test_every_cache_is_reused():
    """Every cache in the package earns hits, in a cold run of 48 campaign
    checks or in the second of two passes over the same operator calls (each
    path at two points with every function family), so none holds entries
    that its traffic never looks up again."""
    modules = [importlib.import_module(f"hyperk.{name}") for name in (*MODULES, "cli")]
    caches = {id(obj): obj for module in modules for obj in vars(module).values()
              if hasattr(obj, "cache_info")}
    assert caches

    def cleared():
        for cache in caches.values():
            cache.cache_clear()

    cleared()
    for seed in range(8):
        for tid in THEOREM_IDS:
            _suite_row(64, (tid, seed))
    campaign = {key: cache.cache_info() for key, cache in caches.items()}
    cleared()
    for _ in range(2):
        warm = {key: cache.cache_info() for key, cache in caches.items()}
        for params in PATH_CASES.values():
            for x in (0.7, 1.3):
                for f in SWEEP_FNS:
                    apply_operator(params, f, x, order=64)
    unused = [f"{cache.__qualname__}: campaign {campaign[key].hits}/{campaign[key].misses}, "
              f"second pass {cache.cache_info().hits - warm[key].hits}/"
              f"{cache.cache_info().misses - warm[key].misses} hits/misses"
              for key, cache in caches.items()
              if campaign[key].hits == 0 and cache.cache_info().hits == warm[key].hits]
    assert not unused, unused


SPLIT = PATH_CASES["split"]


@pytest.mark.parametrize("call", [
    lambda flag: hyperk.apply_operator(SPLIT, ONE, 1.3, order=flag),
    lambda flag: hyperk.operator_images(SPLIT, [ONE], 1.3, order=flag),
    lambda flag: hyperk.rl_k_integral(1.0, 0.0, ONE, 1.3, order=flag),
    lambda flag: hyperk.kernel_series(SPLIT, 1.3, 0.7, flag),
    lambda flag: hyperk.gauss_jacobi_rule(0.0, 0.0, flag),
    lambda flag: hyperk.pochhammer(0.5, flag),
    lambda flag: hyperk.run_suite(["3.1"], trials=flag),
    lambda flag: hyperk.run_suite(["3.1"], trials=1, jobs=flag),
    lambda flag: hyperk.run_suite(["3.1"], trials=1, order=flag),
], ids=["apply_operator", "operator_images", "rl_k_integral", "kernel_series", "gauss_jacobi_rule",
        "pochhammer", "run_suite-trials", "run_suite-jobs", "run_suite-order"])
def test_integer_counts_reject_bool(call):
    """True is an int in Python, but no order or count means it: each
    check raises DomainError for it rather than running with 1."""
    with pytest.raises(DomainError):
        call(True)
