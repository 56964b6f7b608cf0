"""Exception types shared across the library.

Everything raised on purpose derives from HyperkError so callers can
catch library failures without swallowing genuine bugs.
"""

__all__ = [
    "HyperkError", "DomainError", "ValidationError", "ConvergenceError",
    "DivergenceError", "EvaluationError", "ConstructionError", "GenerationError",
]


class HyperkError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HyperkError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class ValidationError(HyperkError, ValueError):
    """Operator parameters violate the selected admissibility window.

    The ``violations`` attribute lists the names of every constraint
    that failed, so callers (and the CLI) can report them all at once.
    """

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        super().__init__(message)
        self.violations = violations


class ConvergenceError(HyperkError):
    """A series failed to converge within its iteration budget."""


class DivergenceError(HyperkError):
    """The requested value is genuinely infinite (not a numerics failure)."""


class EvaluationError(HyperkError):
    """An integrand produced a non-finite value at a quadrature node, or a
    result is not finite.

    Carries the offending node in the ``node`` attribute; it is None for a
    result that is not finite although every integrand value was, such as
    a sum or a scale that overflows.
    """

    def __init__(self, message: str, node: float | None = None):
        super().__init__(message)
        self.node = node


class ConstructionError(HyperkError):
    """A function pair failed its own construction-time hypothesis check."""


class GenerationError(HyperkError):
    """Rejection sampling exhausted its retry budget."""
