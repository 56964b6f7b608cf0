"""Numeric checks for the six fractional Minkowski/Hoelder-type bounds.

Each checker evaluates both sides of one inequality through the integral
operator, taking all of its images from one operator_images call (one
discretization per check), propagates the operator's error estimates to
first order into a combined error for the margin, and classifies the
result:

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

Both exponent placements of the first two bounds are exposed: the checkers
above use the p-coherent reading (all powers 1/p against the same
p-th-power images), which is the form the two-sided chain actually proves;
the loose reading printed in the source text mixes in unexponentiated
images and fails dimensional analysis under f -> c f.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from .errors import DomainError, HyperkError
from .fracint import DEFAULT_ORDER, operator_images, operator_of_one
from .testfuncs import TestInstance, random_instance

__all__ = [
    "InequalityReport",
    "check_thm31",
    "check_thm32",
    "check_thm41",
    "check_thm42",
    "check_thm43",
    "check_thm44",
    "check_instance",
    "check_proof_steps",
    "run_suite",
    "summarize",
    "CHECKERS",
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
    form: str = ""
    note: str = ""

    @property
    def tolerance(self) -> float:
        return max(1e-9, 10.0 * self.combined_error)


def _verdict(margin: float, tolerance: float) -> str:
    if margin >= 0.0:
        return "pass"
    if margin >= -tolerance:
        return "inconclusive"
    return "fail"


def _report(theorem_id, instance, lhs, rhs, margin, err, form="") -> InequalityReport:
    tolerance = max(1e-9, 10.0 * err)
    return InequalityReport(
        theorem_id=theorem_id,
        seed=instance.seed,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        combined_error=float(err),
        verdict=_verdict(margin, tolerance),
        instance=instance,
        form=form,
    )


def _images(instance, order, *fns):
    """(value, error estimate) of each image, all from one discretization."""
    results = operator_images(instance.params, fns, instance.x, order=order)
    return [(res.value, res.error_estimate) for res in results]


def check_thm31(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, m, M = instance.p, instance.m, instance.M
    (A, eA), (B, eB), (C, eC) = _images(
        instance, order, instance.f ** p, instance.g ** p, (instance.f + instance.g) ** p)
    kappa = (1.0 + M * (m + 2.0)) / ((m + 1.0) * (M + 1.0))
    lhs = A ** (1.0 / p) + B ** (1.0 / p)
    rhs = kappa * C ** (1.0 / p)
    err = (A ** (1.0 / p - 1.0) * eA + B ** (1.0 / p - 1.0) * eB
           + kappa * C ** (1.0 / p - 1.0) * eC) / p
    return _report("3.1", instance, lhs, rhs, rhs - lhs, err, form="p-coherent")


def check_thm32(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, m, M = instance.p, instance.m, instance.M
    (A, eA), (B, eB) = _images(instance, order, instance.f ** p, instance.g ** p)
    coeff = (M + 1.0) * (m + 1.0) / M - 2.0
    lhs = A ** (2.0 / p) + B ** (2.0 / p)
    rhs = coeff * A ** (1.0 / p) * B ** (1.0 / p)
    err = (2.0 / p) * (A ** (2.0 / p - 1.0) * eA + B ** (2.0 / p - 1.0) * eB)
    err += abs(coeff) / p * (A ** (1.0 / p - 1.0) * B ** (1.0 / p) * eA
                             + B ** (1.0 / p - 1.0) * A ** (1.0 / p) * eB)
    return _report("3.2", instance, lhs, rhs, lhs - rhs, err, form="p-coherent")


def check_thm41(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, q, m, M = instance.p, instance.q, instance.m, instance.M
    (A, eA), (B, eB), (D, eD) = _images(
        instance, order, instance.f, instance.g,
        (instance.f ** (1.0 / p)) * (instance.g ** (1.0 / q)))
    coeff = (M / m) ** (1.0 / (p * q))
    lhs = A ** (1.0 / p) * B ** (1.0 / q)
    rhs = coeff * D
    err = (A ** (1.0 / p - 1.0) * B ** (1.0 / q) * eA / p
           + B ** (1.0 / q - 1.0) * A ** (1.0 / p) * eB / q
           + coeff * eD)
    return _report("4.1", instance, lhs, rhs, rhs - lhs, err)


def check_thm42(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, q, m, M = instance.p, instance.q, instance.m, instance.M
    (A, eA), (B, eB), (D, eD) = _images(
        instance, order, instance.f ** p, instance.g ** q, instance.f * instance.g)
    coeff = (M / m) ** (1.0 / (p * q))
    lhs = A ** (1.0 / p) * B ** (1.0 / q)
    rhs = coeff * D
    err = (A ** (1.0 / p - 1.0) * B ** (1.0 / q) * eA / p
           + B ** (1.0 / q - 1.0) * A ** (1.0 / p) * eB / q
           + coeff * eD)
    return _report("4.2", instance, lhs, rhs, rhs - lhs, err)


def check_thm43(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    p, q, m, M = instance.p, instance.q, instance.m, instance.M
    (D, eD), (P1, e1), (P2, e2) = _images(
        instance, order, instance.f * instance.g,
        instance.f ** p + instance.g ** p, instance.f ** q + instance.g ** q)
    c1 = 2.0 ** (p - 1.0) * M ** p / (p * (M + 1.0) ** p)
    c2 = 2.0 ** (q - 1.0) / (q * (m + 1.0) ** q)
    lhs = D
    rhs = c1 * P1 + c2 * P2
    err = eD + c1 * e1 + c2 * e2
    return _report("4.3", instance, lhs, rhs, rhs - lhs, err)


def check_thm44(instance: TestInstance, order: int = DEFAULT_ORDER) -> InequalityReport:
    gamma, delta = instance.gamma, instance.delta
    (G, eG), (F1, e1), (F2, e2) = _images(
        instance, order, (instance.f ** gamma) * (instance.g ** delta),
        instance.f ** gamma, instance.g ** delta)
    one = operator_of_one(instance.params, instance.x)
    lhs = G * one
    rhs = F1 * F2
    err = one * eG + F2 * e1 + F1 * e2
    return _report("4.4", instance, lhs, rhs, rhs - lhs, err)


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
    if instance.m is None or instance.M is None or instance.p is None:
        raise DomainError("proof steps need a ratio-sandwich instance with p and q")
    p, q, m, M = instance.p, instance.q, instance.m, instance.M
    f, g = instance.f, instance.g
    (A, eA), (B, eB), (C, eC), (Aq, eAq), (Bq, eBq), (Cq, eCq), (D, eD) = _images(
        instance, order, f ** p, g ** p, (f + g) ** p, f ** q, g ** q, (f + g) ** q, f * g)

    reports = []

    def upper_bound_step(step_id, lhs, rhs, err):
        reports.append(_report(step_id, instance, lhs, rhs, rhs - lhs, err))

    cf = M / (M + 1.0)
    lhs = A ** (1.0 / p)
    rhs = cf * C ** (1.0 / p)
    err = (A ** (1.0 / p - 1.0) * eA + cf * C ** (1.0 / p - 1.0) * eC) / p
    upper_bound_step("3.5", lhs, rhs, err)
    upper_bound_step("3.8",
                     B ** (1.0 / p),
                     C ** (1.0 / p) / (m + 1.0),
                     (B ** (1.0 / p - 1.0) * eB + C ** (1.0 / p - 1.0) * eC / (m + 1.0)) / p)
    upper_bound_step("4.15", lhs, rhs, err)
    upper_bound_step("4.18",
                     Bq ** (1.0 / q),
                     Cq ** (1.0 / q) / (m + 1.0),
                     (Bq ** (1.0 / q - 1.0) * eBq + Cq ** (1.0 / q - 1.0) * eCq / (m + 1.0)) / q)
    upper_bound_step("4.20", D, A / p + Bq / q, eD + eA / p + eBq / q)
    upper_bound_step("4.22", C, 2.0 ** (p - 1.0) * (A + B),
                     eC + 2.0 ** (p - 1.0) * (eA + eB))
    upper_bound_step("4.23", Cq, 2.0 ** (q - 1.0) * (Aq + Bq),
                     eCq + 2.0 ** (q - 1.0) * (eAq + eBq))
    return reports


def _error_row(theorem_id: str, seed: int, exc: Exception) -> InequalityReport:
    return InequalityReport(
        theorem_id=theorem_id,
        seed=seed,
        lhs=_NAN,
        rhs=_NAN,
        margin=_NAN,
        combined_error=_NAN,
        verdict="inconclusive",
        instance=None,
        note=f"{type(exc).__name__}: {exc}",
    )


def _suite_row(order: int, task: tuple[str, int]) -> InequalityReport:
    theorem_id, seed = task
    try:
        instance = random_instance(seed, theorem_id)
        return CHECKERS[theorem_id](instance, order=order)
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
    seed within each group, independent of `jobs`.  An instance whose
    generation or evaluation raises is recorded as an inconclusive row
    carrying the error text, never silently dropped.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    for tid in theorem_ids:
        if tid not in CHECKERS:
            raise DomainError(f"unknown theorem id {tid!r}")
    tasks = [(tid, seed) for tid in theorem_ids
             for seed in range(base_seed, base_seed + trials)]
    worker = partial(_suite_row, order)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
    return [worker(t) for t in tasks]


def summarize(reports: Sequence[InequalityReport]) -> dict:
    """Counts plus the worst margin and the largest finite combined error."""
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    min_margin = math.inf
    max_err = 0.0
    for rep in reports:
        counts[rep.verdict] += 1
        if math.isfinite(rep.margin):
            min_margin = min(min_margin, rep.margin)
        if math.isfinite(rep.combined_error):
            max_err = max(max_err, rep.combined_error)
    return {
        "checks": len(reports),
        "pass": counts["pass"],
        "fail": counts["fail"],
        "inconclusive": counts["inconclusive"],
        "min_margin": (min_margin if math.isfinite(min_margin) else _NAN),
        "max_combined_error": max_err,
    }
