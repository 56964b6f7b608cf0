"""Numeric checks for the six fractional Minkowski/Hoelder-type bounds.

Each checker evaluates both sides of one inequality through the integral
operator, taking all of its images from one operator_images call (one
discretization per check).  Each image carries the operator's error
estimate, and every arithmetic step on the sides carries it to first
order: a sum adds the errors, a*b gives |b| ea + |a| eb, c*a gives |c| ea,
a/c gives ea/|c| and a**e gives |e| |a|^(e-1) ea.  Each side is bounded
separately, so the combined error of the margin is the sum of the two
sides' errors.  The checker then classifies the result:

    pass          margin >= 0
    inconclusive  -tolerance <= margin < 0
    fail          margin < -tolerance

with tolerance = max(1e-9, 10 * combined_error).  A negative margin within
tolerance is indistinguishable from quadrature noise, so it never counts as
a refutation; anything below -tolerance does.

Margins are oriented so that a true statement gives margin >= 0:

    3.1  rhs - lhs with lhs = I[f^p]^(1/p) + I[g^p]^(1/p),
         rhs = kappa * I[(f+g)^p]^(1/p),
         kappa = (1 + M(m+2)) / ((m+1)(M+1))
    3.2  lhs - rhs with lhs = I[f^p]^(2/p) + I[g^p]^(2/p),
         rhs = ((M+1)(m+1)/M - 2) * (I[f^p] I[g^p])^(1/p)
    4.1  rhs - lhs with lhs = I[f]^(1/p) I[g]^(1/q),
         rhs = (M/m)^(1/(pq)) * I[f^(1/p) g^(1/q)]
    4.2  rhs - lhs with lhs = I[f^p]^(1/p) I[g^q]^(1/q),
         rhs = (M/m)^(1/(pq)) * I[f g]
    4.3  rhs - lhs with lhs = I[f g],
         rhs = 2^(p-1) M^p / (p (M+1)^p) * I[f^p + g^p]
             + 2^(q-1) / (q (m+1)^q) * I[f^q + g^q]
    4.4  rhs - lhs with lhs = I[f^gamma g^delta] * I[1],
         rhs = I[f^gamma] * I[g^delta]
         (f non-decreasing, g non-increasing; a Chebyshev-type bound)

The first two bounds are checked in the p-coherent reading (all powers
1/p against the same p-th-power images), which is the form the two-sided
chain actually proves; the loose reading printed in the source text mixes
in unexponentiated images and fails dimensional analysis under f -> c f.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from .errors import DomainError, HyperkError
from .fracint import DEFAULT_ORDER, _check_order, operator_images, operator_of_one
from .specfun import _is_integer
from .testfuncs import TestInstance, random_instance

__all__ = [
    "InequalityReport",
    "CHECKERS",
    "check_instance",
    "check_proof_steps",
    "check_thm31",
    "check_thm32",
    "check_thm41",
    "check_thm42",
    "check_thm43",
    "check_thm44",
    "run_suite",
    "summarize",
]

_NAN = float("nan")


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation on one instance."""

    theorem_id: str
    seed: int
    lhs: float
    rhs: float
    margin: float
    combined_error: float
    verdict: str
    instance: Optional[TestInstance]
    note: str = ""

    @property
    def tolerance(self) -> float:
        return _tolerance(self.combined_error)


def _tolerance(combined_error: float) -> float:
    return max(1e-9, 10.0 * combined_error)


def _verdict(margin: float, tolerance: float) -> str:
    if margin >= 0.0:
        return "pass"
    if margin >= -tolerance:
        return "inconclusive"
    return "fail"


@dataclass(slots=True)
class _Image:
    """A value with an error bound carried to first order through +, *, / and **."""

    value: float
    err: float

    def __add__(self, other: "_Image") -> "_Image":
        return _Image(self.value + other.value, self.err + other.err)

    def __mul__(self, other) -> "_Image":
        if isinstance(other, _Image):
            return _Image(self.value * other.value,
                          abs(other.value) * self.err + abs(self.value) * other.err)
        return _Image(self.value * other, abs(other) * self.err)

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> "_Image":
        return _Image(self.value / c, self.err / abs(c))

    def __pow__(self, e: float) -> "_Image":
        return _Image(self.value ** e, abs(e) * abs(self.value) ** (e - 1.0) * self.err)


def _report(theorem_id, instance, lhs, rhs, lower=False) -> InequalityReport:
    """Each side is bounded separately, so the margin's error is their sum."""
    margin = lhs.value - rhs.value if lower else rhs.value - lhs.value
    err = lhs.err + rhs.err
    return InequalityReport(theorem_id, instance.seed, lhs.value, rhs.value, margin, err,
                            _verdict(margin, _tolerance(err)), instance)


def _fields(instance, *names):
    """The instance's values of names, which a bound needs to be stated."""
    values = [getattr(instance, name) for name in names]
    if any(v is None for v in values):
        raise DomainError(f"theorem {instance.theorem_id} instance lacks one of {names}")
    return values


def _images(instance, order, *fns):
    """An _Image per integrand, all from one discretization."""
    results = operator_images(instance.params, fns, instance.x, order=order)
    return [_Image(res.value, res.error_estimate) for res in results]


def check_thm31(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, m, M = _fields(instance, "p", "m", "M")
    f, g = instance.f, instance.g
    A, B, C = _images(instance, order, f ** p, g ** p, (f + g) ** p)
    kappa = (1.0 + M * (m + 2.0)) / ((m + 1.0) * (M + 1.0))
    lhs = A ** (1.0 / p) + B ** (1.0 / p)
    rhs = kappa * C ** (1.0 / p)
    return _report("3.1", instance, lhs, rhs)


def check_thm32(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, m, M = _fields(instance, "p", "m", "M")
    A, B = _images(instance, order, instance.f ** p, instance.g ** p)
    coeff = (M + 1.0) * (m + 1.0) / M - 2.0
    lhs = A ** (2.0 / p) + B ** (2.0 / p)
    rhs = coeff * A ** (1.0 / p) * B ** (1.0 / p)
    return _report("3.2", instance, lhs, rhs, lower=True)


def check_thm41(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, q, m, M = _fields(instance, "p", "q", "m", "M")
    f, g = instance.f, instance.g
    A, B, D = _images(instance, order, f, g, (f ** (1.0 / p)) * (g ** (1.0 / q)))
    lhs = A ** (1.0 / p) * B ** (1.0 / q)
    rhs = (M / m) ** (1.0 / (p * q)) * D
    return _report("4.1", instance, lhs, rhs)


def check_thm42(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, q, m, M = _fields(instance, "p", "q", "m", "M")
    f, g = instance.f, instance.g
    A, B, D = _images(instance, order, f ** p, g ** q, f * g)
    lhs = A ** (1.0 / p) * B ** (1.0 / q)
    rhs = (M / m) ** (1.0 / (p * q)) * D
    return _report("4.2", instance, lhs, rhs)


def check_thm43(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, q, m, M = _fields(instance, "p", "q", "m", "M")
    f, g = instance.f, instance.g
    D, P1, P2 = _images(instance, order, f * g, f ** p + g ** p, f ** q + g ** q)
    c1 = 2.0 ** (p - 1.0) * M ** p / (p * (M + 1.0) ** p)
    c2 = 2.0 ** (q - 1.0) / (q * (m + 1.0) ** q)
    return _report("4.3", instance, D, c1 * P1 + c2 * P2)


def check_thm44(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    gamma, delta = _fields(instance, "gamma", "delta")
    f, g = instance.f, instance.g
    G, F1, F2 = _images(instance, order, (f ** gamma) * (g ** delta), f ** gamma, g ** delta)
    lhs = G * operator_of_one(instance.params, instance.x)
    return _report("4.4", instance, lhs, F1 * F2)


CHECKERS: dict[str, Callable[..., InequalityReport]] = {
    "3.1": check_thm31,
    "3.2": check_thm32,
    "4.1": check_thm41,
    "4.2": check_thm42,
    "4.3": check_thm43,
    "4.4": check_thm44,
}


def check_instance(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    """Dispatch on the instance's own theorem id."""
    try:
        checker = CHECKERS[instance.theorem_id]
    except KeyError:
        raise DomainError(f"no checker for theorem id {instance.theorem_id!r}") from None
    return checker(instance, order=order)


def check_proof_steps(instance: TestInstance, order: int = DEFAULT_ORDER) -> list[InequalityReport]:
    """Verify the intermediate bounds the two main chains are built from.

    Requires a ratio-sandwich instance (m, M, p, q set).  Steps:

      3.5 / 4.15  I[f^p]^(1/p) <= M/(M+1) * I[(f+g)^p]^(1/p)
      3.8         I[g^p]^(1/p) <= 1/(m+1) * I[(f+g)^p]^(1/p)
      4.18        I[g^q]^(1/q) <= 1/(m+1) * I[(f+g)^q]^(1/q)
      4.20        I[f g] <= I[f^p]/p + I[g^q]/q          (Young, pointwise)
      4.22        I[(f+g)^p] <= 2^(p-1) (I[f^p] + I[g^p])
      4.23        I[(f+g)^q] <= 2^(q-1) (I[f^q] + I[g^q])

    The id 4.15 restates 3.5 inside the second chain; it is emitted as its
    own row so step coverage is explicit.
    """
    p, q, m, M = _fields(instance, "p", "q", "m", "M")
    f, g = instance.f, instance.g
    A, B, C, Aq, Bq, Cq, D = _images(
        instance, order, f ** p, g ** p, (f + g) ** p, f ** q, g ** q, (f + g) ** q, f * g)
    step_35 = (A ** (1.0 / p), M / (M + 1.0) * C ** (1.0 / p))
    steps = [
        ("3.5", *step_35),
        ("3.8", B ** (1.0 / p), C ** (1.0 / p) / (m + 1.0)),
        ("4.15", *step_35),
        ("4.18", Bq ** (1.0 / q), Cq ** (1.0 / q) / (m + 1.0)),
        ("4.20", D, A / p + Bq / q),
        ("4.22", C, 2.0 ** (p - 1.0) * (A + B)),
        ("4.23", Cq, 2.0 ** (q - 1.0) * (Aq + Bq)),
    ]
    return [_report(step_id, instance, lhs, rhs) for step_id, lhs, rhs in steps]


def _error_row(theorem_id: str, seed: int, exc: Exception) -> InequalityReport:
    return InequalityReport(theorem_id, seed, _NAN, _NAN, _NAN, _NAN, "inconclusive", None,
                            note=f"{type(exc).__name__}: {exc}")


def _suite_row(order: int, task: tuple[str, int]) -> InequalityReport:
    theorem_id, seed = task
    try:
        return check_instance(random_instance(seed, theorem_id), order=order)
    except HyperkError as exc:
        return _error_row(theorem_id, seed, exc)


def run_suite(
    theorem_ids: Sequence[str],
    trials: int,
    base_seed: int = 0,
    order: int = DEFAULT_ORDER,
    jobs: int = 1,
) -> list[InequalityReport]:
    """Randomized campaign: `trials` seeded instances per theorem id.

    Rows come back grouped by theorem id in the given order and sorted by
    seed within each group, independent of `jobs`.  At most
    min(jobs, number of checks, CPU count) worker processes are started;
    with one, the checks run in this process.  An instance whose
    generation or evaluation raises is recorded as an inconclusive row
    carrying the error text, never silently dropped.
    """
    if not _is_integer(trials) or trials < 1:
        raise DomainError(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_integer(jobs) or jobs < 1:
        raise DomainError(f"jobs must be an integer >= 1, got {jobs!r}")
    order = _check_order(order)
    for tid in theorem_ids:
        if tid not in CHECKERS:
            raise DomainError(f"unknown theorem id {tid!r}")
    tasks = [(tid, seed) for tid in theorem_ids
             for seed in range(base_seed, base_seed + trials)]
    worker = partial(_suite_row, order)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never load it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    return [worker(t) for t in tasks]


def summarize(reports: Sequence[InequalityReport]) -> dict:
    """Counts, the worst margin, the largest finite combined error, and the
    largest relative one, combined_error / max(|lhs|, |rhs|).  The
    ``*_at`` entries name the (theorem, seed) of the row that set the
    minimum margin and the largest relative error, or are None."""
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    min_margin, min_margin_at = math.inf, None
    max_err = 0.0
    max_rel, max_rel_at = 0.0, None
    for rep in reports:
        counts[rep.verdict] += 1
        if rep.margin < min_margin:
            min_margin, min_margin_at = rep.margin, (rep.theorem_id, rep.seed)
        if math.isfinite(rep.combined_error):
            max_err = max(max_err, rep.combined_error)
            scale = max(abs(rep.lhs), abs(rep.rhs))
            if scale > 0.0 and rep.combined_error / scale > max_rel:
                max_rel, max_rel_at = rep.combined_error / scale, (rep.theorem_id, rep.seed)
    return {
        "checks": len(reports),
        "pass": counts["pass"],
        "fail": counts["fail"],
        "inconclusive": counts["inconclusive"],
        "min_margin": (min_margin if math.isfinite(min_margin) else _NAN),
        "min_margin_at": min_margin_at,
        "max_combined_error": max_err,
        "max_rel_combined_error": max_rel,
        "max_rel_combined_error_at": max_rel_at,
    }
