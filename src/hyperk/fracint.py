"""The generalized k-fractional integral operator and its kernel.

The operator evaluated here is

    I[f](x) = (k+1)^(mu+beta+1) x^((k+1)(-alpha-beta-2mu)) / Gamma(alpha)
              * integral_0^x tau^((k+1)mu) (x^(k+1) - tau^(k+1))^(alpha-1)
                * 2F1(alpha+beta+mu, -eta; alpha; 1 - (tau/x)^(k+1))
                * tau^k f(tau) dtau.

Substituting u = (tau/x)^(k+1) turns the measure tau^((k+1)mu) tau^k dtau
into x^((k+1)(mu+1)) u^mu du / (k+1) and the difference factor into
x^((k+1)(alpha-1)) (1-u)^(alpha-1), giving

    I[f](x) = (k+1)^(mu+beta) x^(-(k+1)(beta+mu)) / Gamma(alpha)
              * integral_0^1 u^mu (1-u)^(alpha-1)
                * 2F1(a, b; alpha; 1-u) f(x u^(1/(k+1))) du

with a = alpha+beta+mu and b = -eta.  Both endpoint singularities are now
algebraic and sit in the Jacobi weight.  The hypergeometric factor is not
smooth at u = 0, though: with the gap s = alpha - a - b = eta - beta - mu,

    2F1(a, b; alpha; 1-u) = C1 * 2F1(a, b; 1-s; u)
                            + C2 * u^s * 2F1(alpha-a, alpha-b; 1+s; u)

so the integral is split at u = 1/2 and the lower half is fed through this
connection formula, one Gauss-Jacobi rule per branch, each with the u^s
power absorbed into its weight.  When a or b is a non-positive integer the
2F1 is a polynomial and no split of the lower half is needed.

None of this depends on f, so the operator is a linear functional
I[f](x) ~ w @ f(tau): the panels' nodes, mapped back to tau in (0, x), are
concatenated, and the weights w carry the prefactor, the Jacobi weights,
the 2F1 factor at each node and the connection coefficients.  When s sits
within 1e-6 of an integer the connection coefficients become
ill-conditioned; the lower half alone is then extrapolated across four
small eta offsets (it is analytic in eta), and since that extrapolation is
linear too, it is folded into w as well.  The offsets share the first
connection panel, whose weight does not move with eta, and each keeps its
own second-branch panel; the upper half has no connection coefficients and
stays at the true eta.  So the nudged path has 6 panels and 9 series
terms: 1 upper, then 2 per offset.

w is built at two levels from one Gauss-Jacobi rule of order n/2 per
panel (quadrature.split_rule at depths 0 and 1), which keeps the endpoint
singularity, with Gauss-Legendre panels over the rest of the panel's node
variable.  The coarse level scales the rule onto [0, 1/4] and adds one
order-n Legendre panel on [1/4, 1].  The fine level refines by splitting
rather than by raising the order: the rule goes onto [0, sigma/4], two
12-node Legendre panels cover [sigma/4, sigma], and Legendre panels
sharing n nodes cover [sigma, 1], cut at the integrands' kinks (sigma =
min(1/4, first cut)).  For a t^lambda branch point at the panel's
singular end an order-m rule on [0, h] errs by about h^gamma m^(-2 gamma),
gamma = 1 + b + lambda, so the order-n/2 rule on [0, h/4] has the error of
the order-n rule on [0, h]: each level keeps the singular-end error of an
order-n rule, the fine one 4^-gamma times the coarse one's without kinks,
and no rule of order n or more, the costliest eigenproblems of a check, is
built.  A kink-free panel has 3n + 24 nodes over both levels.
operator_images builds both levels in one pass and evaluates each
integrand once on both node sets, so one discretization serves every image
of a check; apply_operator is its one-integrand case.  The panel table is
cached per OperatorParams, and a point works on one flat array of every
panel's nodes at every level, so its number of whole-array steps does not
grow with the number of panels or levels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from math import exp, log
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, EvaluationError, ValidationError
from .quadrature import MAX_ORDER, _finite_values, gauss_jacobi_rule, integrate, split_rule
from .specfun import _connection, _is_nonpositive_integer, _series_2f1_vec, gauss_2f1, log_gamma

__all__ = [
    "OperatorParams",
    "OperatorResult",
    "validate",
    "apply_operator",
    "operator_images",
    "kernel_closed",
    "kernel_series",
    "operator_of_one",
    "rl_k_integral",
    "STRICT",
    "DEFINITION_ONLY",
    "DEFAULT_ORDER",
    "MAX_OPERATOR_ORDER",
]

DEFAULT_ORDER = 64
# the operator's reference rl_k_integral integrates at twice the requested
# order, so it can offer at most half of what the rule layer provides
MAX_OPERATOR_ORDER = MAX_ORDER // 2

_LOG2 = log(2.0)

STRICT = "strict-theorem"
DEFINITION_ONLY = "definition-only"


@dataclass(frozen=True)
class OperatorParams:
    """The five-tuple (alpha, beta, eta, mu, k) plus a validation mode.

    ``strict-theorem`` enforces the window under which the inequality
    results are stated; ``definition-only`` accepts anything for which the
    defining integral converges.
    """

    alpha: float
    beta: float
    eta: float
    mu: float
    k: float
    validation_mode: str = STRICT


@dataclass(frozen=True)
class OperatorResult:
    """Operator value with the refinement-based error estimate.

    ``value`` is the fine level's and ``error_estimate`` is its difference
    from the coarse level's.  ``order_used`` is 2n: on a t^lambda branch
    point at a kink-free panel's singular end, the fine level has the
    error of one order-2n Gauss-Jacobi rule over the whole panel (the
    order-n/2 rule on [0, 1/16]), from n/2 + 24 + n nodes.  Near an
    integer gap, where the lower half is extrapolated across eta offsets,
    the estimate is at least 1e-10 times |value|, the extrapolation's bias
    allowance.
    """

    value: float
    error_estimate: float
    order_used: int


def validate(params: OperatorParams) -> OperatorParams:
    """Check params against their validation mode; return them unchanged.

    Raises ValidationError naming every violated constraint.  Both modes
    require convergence of the defining integral; strict-theorem adds the
    window beta < 1, beta - 1 < eta < 0, alpha > max(0, -beta - mu).
    """
    if params.validation_mode not in (STRICT, DEFINITION_ONLY):
        raise ValidationError(
            f"unknown validation_mode {params.validation_mode!r}",
            ("validation-mode",),
        )
    alpha, beta_, eta, mu, k = params.alpha, params.beta, params.eta, params.mu, params.k
    bad: list[str] = []
    if not all(math.isfinite(v) for v in (alpha, beta_, eta, mu, k)):
        raise ValidationError("parameters must all be finite", ("finite-parameters",))

    s = eta - beta_ - mu
    if k < 0.0:
        bad.append(f"k-nonnegative: k = {k} < 0")
    if alpha <= 0.0:
        bad.append(f"alpha-positive: alpha = {alpha} <= 0")
    elif alpha < 0.05:
        bad.append(f"near-singular-alpha: alpha = {alpha} < 0.05 (accuracy not certified)")
    if mu <= -1.0:
        bad.append(f"mu-window: mu = {mu} <= -1")
    elif mu < -0.95:
        bad.append(f"near-singular-mu: mu = {mu} < -0.95 (accuracy not certified)")
    if mu + min(s, 0.0) <= -1.0:
        bad.append(f"integrability-endpoint: mu + min(eta - beta - mu, 0) = {mu + min(s, 0.0)} <= -1")

    if params.validation_mode == STRICT:
        if beta_ >= 1.0:
            bad.append(f"beta-window: beta = {beta_} not < 1")
        if not (beta_ - 1.0 < eta < 0.0):
            bad.append(f"eta-window: eta = {eta} not in (beta - 1, 0) = ({beta_ - 1.0}, 0)")
        if alpha <= max(0.0, -beta_ - mu):
            bad.append(
                f"alpha-window: alpha = {alpha} not > max(0, -beta - mu) = {max(0.0, -beta_ - mu)}"
            )

    if bad:
        raise ValidationError("; ".join(bad), tuple(v.split(":")[0] for v in bad))
    return params


def _check_point(x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"evaluation point must be a positive real, got {x!r}")


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or order < 1 or order > MAX_OPERATOR_ORDER:
        raise DomainError(
            f"order must be an integer in [1, {MAX_OPERATOR_ORDER}], got {order!r}"
        )
    return int(order)


# ---------------------------------------------------------------------------
# kernel


def _kernel_log_head(params: OperatorParams, x: float, tau: float) -> tuple[float, float]:
    """(log of the n=0 series term, series argument 1 - (tau/x)^(k+1)),
    after checking params, x and 0 < tau < x.

    The head collects every factor of the kernel except the 2F1 sum, with
    all powers of x and tau taken in log space.
    """
    validate(params)
    _check_point(x)
    if not (math.isfinite(tau) and 0.0 < tau < x):
        raise DomainError(f"kernel requires 0 < tau < x, got tau = {tau!r}, x = {x!r}")
    alpha, beta_, mu, k = params.alpha, params.beta, params.mu, params.k
    kp1 = k + 1.0
    z_low = (tau / x) ** kp1
    head = (
        (mu + beta_ + 1.0) * log(kp1)
        + kp1 * (-alpha - beta_ - 2.0 * mu) * log(x)
        + kp1 * mu * log(tau)
        + (alpha - 1.0) * (kp1 * log(x) + math.log1p(-z_low))
        - log_gamma(alpha)
    )
    return head, 1.0 - z_low


def kernel_closed(params: OperatorParams, x: float, tau: float) -> float:
    """The kernel F(x, tau) in closed form (2F1 factor evaluated directly).

    This excludes the tau^k measure factor, which the operator carries
    separately next to f(tau).  Positive throughout the admissible window.
    """
    head, arg = _kernel_log_head(params, x, tau)
    a = params.alpha + params.beta + params.mu
    return exp(head) * gauss_2f1(a, -params.eta, params.alpha, arg)


def kernel_series(params: OperatorParams, x: float, tau: float, n_terms: int) -> float:
    """Partial sum of the kernel's expansion in powers of 1 - (tau/x)^(k+1).

    Under the strict window every term is positive, so the partial sums
    increase monotonically toward kernel_closed.
    """
    head, arg = _kernel_log_head(params, x, tau)
    if not isinstance(n_terms, (int, np.integer)) or n_terms < 1:
        raise DomainError(f"n_terms must be a positive integer, got {n_terms!r}")
    n_terms = int(n_terms)
    a = params.alpha + params.beta + params.mu
    b = -params.eta
    alpha = params.alpha
    terms = np.empty(n_terms)
    terms[0] = exp(head)
    if n_terms > 1:
        n = np.arange(n_terms - 1, dtype=float)
        ratios = (a + n) * (b + n) / ((alpha + n) * (n + 1.0)) * arg
        terms[1:] = terms[0] * np.cumprod(ratios)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# operator evaluation


_ParamTable = namedtuple("_ParamTable", "panels extrapolated lg_alpha")


@lru_cache(maxsize=128)
def _param_table(params: OperatorParams) -> _ParamTable:
    """The panel table, the extrapolation flag and log Gamma(alpha), built
    once per OperatorParams.  It validates them, so invalid params raise on
    every call and never enter the cache, and it holds scalars only.

    One panel per Jacobi rule: (upper?, rule exponent on the node variable,
    2F1 argument is u rather than 1 - u, terms); each term (coefficient,
    log coefficient, log shift, 2F1 parameters) adds coef * exp(log scale
    of its side + log coefficient - log shift) * 2F1 to w.  log Gamma(alpha)
    is evaluated once: the prefactor and both connection coefficients of
    every offset take it.
    """
    validate(params)
    alpha, beta_, eta, mu, k = params.alpha, params.beta, params.eta, params.mu, params.k
    a, b, s = alpha + beta_ + mu, -eta, eta - beta_ - mu
    kp1 = k + 1.0
    b_lo = kp1 * mu + k
    lg_alpha = log_gamma(alpha)  # alpha > 0: Gamma(alpha) has sign +1
    panels = [(True, alpha - 1.0, False, [(1.0, 0.0, 0.0, (a, b, alpha))])]
    offsets = []
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        panels.append((False, b_lo, False, [(1.0, 0.0, 0.0, (a, b, alpha))]))
    else:
        offsets = _nudge_offsets(params)
        first = []
        panels.append((False, b_lo, True, first))
        for d, coef in offsets:
            sd = s + d
            (sign1, log_c1, abc1), (sign2, log_c2, abc2) = _connection(a, b - d, alpha, sd, lg_alpha, 1.0)
            first.append((coef * sign1, log_c1, 0.0, abc1))
            panels.append((False, b_lo + kp1 * sd, True, [(coef * sign2, log_c2, sd * _LOG2, abc2)]))
    panels = tuple((upper, b_exp, in_u, kept) for upper, b_exp, in_u, terms in panels
                   if (kept := tuple(term for term in terms if term[0] != 0.0)))
    return _ParamTable(panels, len(offsets) > 1, lg_alpha)


def _discretize(
    params: OperatorParams,
    table: _ParamTable,
    x: float,
    order: int,
    depths: tuple[int, ...],
    kinks: tuple[float, ...] = (),
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(tau, weights): nodes tau in (0, x) and, per entry of depths, weights
    w with I[f](x) ~ w @ f(tau).  tau holds every level's nodes, level after
    level: level i's are the weights[i].size after those of the levels
    before it.

    Each panel takes split_rule at (order, depth) for each depth: the one
    Gauss-Jacobi rule of order ceil(order / 2) on [0, 4^-depth sigma] of the
    panel's node variable.  Depth 0 is the coarse level, uncut; every later
    depth is a fine level, cut at the kinks (points in (0, x) where an
    integrand's slope may jump) that fall inside the panel.  A kink tau maps
    into the upper panel's node variable as v = 2(1 - (tau/x)^(k+1)) when
    tau > tau_half, and into the lower panels' as t = tau/tau_half when
    tau < tau_half.

    Prefactors, Jacobi weights, 2F1 node factors and connection
    coefficients all fold into w, so each discretization depends only on
    (params, x, order, depths, kinks) and the operator is exactly linear in
    f.  table is _param_table(params), which the caller has looked up: the
    panel table and log Gamma(alpha), once per OperatorParams; the
    prefactor is formed here, once per point.

    The pass works on one flat array of every panel's rules at every level,
    the upper panel first, so a point costs a fixed number of whole-array
    steps whatever the number of panels and levels: the node formulas on the
    upper panel's slice and on the lower panels', one series call with one
    parameter block per series term, and the weights as one product (each
    block's scale, repeated, times the rule weights, the smooth factor and
    the 2F1 values), a panel's further terms added to it in term order.  The
    series call stops once, at the first term where every node of every
    block has converged, and past a node's own stop the further terms are
    below half an ulp of its sum on the arguments up to 1/2 that the panels
    pass (the terminating panel's polynomial ends in zero terms), so each
    block and level gets the weights it gets when built alone, bit for bit.

    The panel table, one panel per Jacobi rule, alone decides the path.
    The upper panel, free of connection coefficients, is built at the true
    eta on every path; a polynomial 2F1 gives the lower half one panel.
    Otherwise each (offset, coefficient) of _nudge_offsets adds a pair of
    connection branches at eta + offset, scaled by its coefficient: one
    pair at offset 0 away from an integer gap, four that extrapolate the
    lower half to the true eta near one.  The first branch's exponent
    (k+1)mu + k does not move with eta, so the offsets share its panel as
    one term each; each second branch, exponent (k+1)(mu + s + offset) + k,
    keeps its own.
    """
    panels, _, lg_alpha = table
    alpha, beta_, mu, k = params.alpha, params.beta, params.mu, params.k
    kp1 = k + 1.0
    inv_kp1 = 1.0 / kp1
    lx = log(x)
    log_pre = (mu + beta_ + 1.0) * log(kp1) + kp1 * (-alpha - beta_ - 2.0 * mu) * lx - lg_alpha

    # upper half u in [1/2, 1]: u = 1 - v/2 exposes the weight v^(alpha-1),
    # and the 2F1 argument v/2 stays in (0, 1/2) where the series is cheap.
    # lower half u in [0, 1/2]: work in tau over [0, tau_half] via
    # t = tau/tau_half, so u = t^(k+1)/2.  f(tau_half * t) is as smooth as
    # f itself; the only rough factor is the 2F1 argument's t^(k+1), whose
    # singular exponent k+1 >= 1 is the mildest available (the alternative
    # substitution leaves f with a t^(1/(k+1)) branch point, which is worse
    # for every non-constant f).  The weights t^((k+1)mu+k) and, in the
    # second connection branch, the extra u^s are exact Jacobi weights.
    # When a or b is a non-positive integer the 2F1 is a polynomial and the
    # lower half needs no connection split.
    tau_half = x * 2.0 ** (-inv_kp1)
    cuts_hi = cuts_lo = ()
    if kinks:
        # a kink on the far side of tau_half maps outside (0, 1)
        cuts_hi = tuple(sorted(c for c in (2.0 * (1.0 - (t / x) ** kp1) for t in kinks)
                               if 0.0 < c < 1.0))
        cuts_lo = tuple(c for c in (t / tau_half for t in kinks) if 0.0 < c < 1.0)
    log_hi = log_pre + ((kp1 * (mu + alpha - 1.0) + k + 1.0) * lx - log(kp1) - alpha * _LOG2)
    log_lo = log_pre + ((kp1 * mu + k + 1.0) * log(tau_half) + kp1 * (alpha - 1.0) * lx)

    rules = []
    for upper, b_exp, _, _ in panels:
        cuts = cuts_hi if upper else cuts_lo
        rules += [split_rule(b_exp, order, cuts if depth else (), depth) for depth in depths]
    nodes, rule_w = (np.concatenate(arrays) for arrays in zip(*rules))
    edges, levels = [0, *accumulate(rule_nodes.size for rule_nodes, _ in rules)], len(depths)
    hi, lo = slice(0, edges[levels]), slice(edges[levels], None)
    u, one_minus_u, smooth, tau = np.empty((4, nodes.size))
    np.multiply(0.5, nodes[hi], out=one_minus_u[hi])
    np.subtract(1.0, one_minus_u[hi], out=u[hi])
    np.multiply(0.5, nodes[lo] ** kp1, out=u[lo])
    np.subtract(1.0, u[lo], out=one_minus_u[lo])
    tau[hi], tau[lo] = x * u[hi] ** inv_kp1, tau_half * nodes[lo]
    smooth[hi], smooth[lo] = u[hi] ** mu, one_minus_u[lo] ** (alpha - 1.0)

    # one block per series term: (later term?, its panel's nodes, scale, 2F1
    # parameters, z), every panel's first term first, as the panels lie
    blocks = []
    for i, (upper, _, in_u, terms) in enumerate(panels):
        span = slice(edges[i * levels], edges[(i + 1) * levels])
        log_base = log_hi if upper else log_lo
        blocks += [(j > 0, span, coef * exp(log_base + log_c - shift), *abc, (u if in_u else one_minus_u)[span])
                   for j, (coef, log_c, shift, abc) in enumerate(terms)]
    _, spans, scales, ca, cb, cc, zs = zip(*sorted(blocks, key=itemgetter(0)))
    if further := spans[len(panels):]:
        rule_w, smooth = (np.concatenate((array, *(array[span] for span in further)))
                          for array in (rule_w, smooth))
    w = np.repeat(scales, [z.size for z in zs])
    w *= rule_w
    w *= smooth
    w *= _series_2f1_vec(ca, cb, cc, zs)
    # each later term is added to its panel's first, in term order
    for span, start in zip(further, accumulate((s.stop - s.start for s in further), initial=nodes.size)):
        w[span] += w[start : start + span.stop - span.start]

    # level after level, each panel's slice of it in panel order
    order = [slice(edges[k], edges[k + 1]) for level in range(levels) for k in range(level, len(rules), levels)]
    tau, w = (np.concatenate([array[span] for span in order]) for array in (tau, w))
    ends = [*accumulate(span.stop - span.start for span in order)][len(panels) - 1 :: len(panels)]
    return tau, [w[i:j] for i, j in zip([0, *ends], ends)]


def _nudge_offsets(params: OperatorParams) -> list[tuple[float, float]]:
    """(offset in eta, coefficient) pairs whose sum extrapolates the lower
    half L to offset 0; [(0.0, 1.0)] away from an integer gap.  Only a
    non-terminating 2F1 reaches this gap test, so it alone decides a nudge.

    L(eta) is analytic in eta except for simple poles where the integral
    stops converging, at s = -(1 + mu) - j for integer j >= 0.  Such a pole
    can sit close to the extrapolation target (the convergence margin
    mu + s + 1 can be small), which would make a plain Richardson step
    stall.  Multiplying the samples by (s - p) for each nearby pole p
    removes them, so the extrapolated quantity is analytic in a radius-0.5
    disk at least and a centered Richardson step on symmetric pairs (or,
    when a downward nudge would cross the convergence edge, the cubic
    through four one-sided steps upward) recovers it with O(delta^4) error
    while every offset sees a well-conditioned connection split.  Each
    coefficient is the Richardson weight times prod (s + d - p) / (s - p).
    delta trades the delta^4 bias against the eps/delta rounding of the
    near-degenerate splits; 2e-4 keeps both a couple of orders below the
    1e-10 relative floor that apply_operator puts on the error estimate for
    this path.  The gap is within 1e-6 of an integer and every offset is at
    least 2e-4 and at most 8e-4, so no shifted gap is near an integer.
    """
    s = params.eta - params.beta - params.mu
    if abs(s - round(s)) >= 1e-6:
        return [(0.0, 1.0)]
    delta = 2e-4
    if params.mu + min(s - 2.0 * delta, 0.0) > -1.0 + 1e-6:
        offsets, coefs = [-2.0 * delta, -delta, delta, 2.0 * delta], [-1.0 / 6.0, 2.0 / 3.0, 2.0 / 3.0, -1.0 / 6.0]
    else:
        offsets, coefs = [delta, 2.0 * delta, 3.0 * delta, 4.0 * delta], [4.0, -6.0, 4.0, -1.0]
    near = [p for p in (-(1.0 + params.mu) - j for j in range(3)) if abs(s - p) < 0.5]
    return [(d, math.prod([(s + d - p) / (s - p) for p in near], start=c)) for d, c in zip(offsets, coefs)]


def _union_of_kinks(fs, x: float) -> tuple[float, ...]:
    """The sorted union of the kinks of fs in (0, x), read from each one's
    ``kinks(x)`` method; a plain callable counts as smooth."""
    return tuple(sorted({t for f in fs if hasattr(f, "kinks") for t in f.kinks(x)}))


def operator_images(
    params: OperatorParams,
    fs: Iterable[Callable[[np.ndarray], np.ndarray]],
    x: float,
    order: int = DEFAULT_ORDER,
) -> list[OperatorResult]:
    """Evaluate the operator at x for each positive integrand in fs, in order.

    The coarse and fine discretizations are built together, in one
    _discretize pass, and serve every integrand.  The fine level splits the
    panels at the union of the integrands' kinks, read from a ``kinks(x)``
    method where an integrand has one (a plain callable counts as smooth),
    so an image equals its one-integrand call bit for bit only when the
    integrands share their kinks.  Each ``f`` must accept a numpy array of
    points in (0, x] and evaluate elementwise; it is called once, on the
    nodes of both levels.  The result is the fine level's value and the
    error estimate is its difference from the coarse level's, so it
    reflects the actual refinement behaviour for this integrand.  A
    non-finite value of f raises EvaluationError carrying that node tau.
    """
    table = _param_table(params)  # validates params
    _check_point(x)
    order = _check_order(order)
    fs = tuple(fs)
    tau, (w_c, w_f) = _discretize(params, table, x, order, (0, 1), _union_of_kinks(fs, x))
    results = []
    for f in fs:
        values = _finite_values(f, tau, "tau")
        coarse = float(w_c @ values[: w_c.size])
        fine = float(w_f @ values[w_c.size :])
        estimate = abs(fine - coarse)
        if table.extrapolated:
            estimate = max(estimate, 1e-10 * abs(fine))
        if not math.isfinite(fine):
            raise EvaluationError(f"operator value is not finite: {fine!r}")
        results.append(OperatorResult(value=fine, error_estimate=estimate, order_used=2 * order))
    return results


def apply_operator(
    params: OperatorParams,
    f: Callable[[np.ndarray], np.ndarray],
    x: float,
    order: int = DEFAULT_ORDER,
) -> OperatorResult:
    """Evaluate the operator at x for a positive integrand f.

    The one-integrand case of operator_images, which documents the
    evaluation and its error estimate.
    """
    return operator_images(params, (f,), x, order)[0]


def operator_of_one(params: OperatorParams, x: float) -> float:
    """Closed form of the operator applied to the constant function 1.

    Obtained from the Euler integral
    int_0^1 v^(c-1) (1-v)^(d-1) 2F1(a, b; c; v) dv
        = Gamma(c) Gamma(d) Gamma(c+d-a-b) / (Gamma(c+d-a) Gamma(c+d-b))
    with c = mu+1, d = alpha, which gives
    (k+1)^(mu+beta) x^(-(k+1)(beta+mu))
        * Gamma(mu+1) Gamma(1-beta+eta) / (Gamma(1-beta) Gamma(alpha+mu+eta+1)).
    Cross-checked numerically against apply_operator(f = 1).
    """
    validate(params)
    _check_point(x)
    alpha, beta_, eta, mu, k = params.alpha, params.beta, params.eta, params.mu, params.k
    for name, v in (
        ("mu+1", mu + 1.0),
        ("1-beta+eta", 1.0 - beta_ + eta),
        ("1-beta", 1.0 - beta_),
        ("alpha+mu+eta+1", alpha + mu + eta + 1.0),
    ):
        if v <= 0.0:
            raise DomainError(
                f"operator_of_one needs every Gamma argument positive; {name} = {v}"
            )
    kp1 = k + 1.0
    return exp(
        (mu + beta_) * log(kp1)
        - kp1 * (beta_ + mu) * log(x)
        + log_gamma(mu + 1.0)
        + log_gamma(1.0 - beta_ + eta)
        - log_gamma(1.0 - beta_)
        - log_gamma(alpha + mu + eta + 1.0)
    )


def rl_k_integral(
    alpha: float,
    k: float,
    f: Callable[[np.ndarray], np.ndarray],
    x: float,
    order: int = DEFAULT_ORDER,
) -> float:
    """The plain k-fractional integral of Riemann-Liouville type,

        (k+1)^(1-alpha) / Gamma(alpha)
            * integral_0^x (x^(k+1) - t^(k+1))^(alpha-1) t^k f(t) dt,

    via u = (t/x)^(k+1) and the same half split the main operator uses,
    each half with one Gauss-Jacobi rule of order 2*order (the order whose
    singular-end error the operator's fine level matches by splitting).  The
    main operator degenerates to exactly this at beta = -alpha,
    mu = eta = 0; the code stays separate from _discretize so that the
    reduction checks compare two independent implementations.
    """
    if not (math.isfinite(alpha) and alpha >= 0.05):
        raise DomainError(f"rl_k_integral requires alpha >= 0.05, got {alpha!r}")
    if not (math.isfinite(k) and k >= 0.0):
        raise DomainError(f"rl_k_integral requires k >= 0, got {k!r}")
    _check_point(x)
    n = 2 * _check_order(order)

    kp1 = k + 1.0
    inv_kp1 = 1.0 / kp1
    log_pre = -alpha * log(kp1) + kp1 * alpha * log(x) - log_gamma(alpha)

    rule_hi = gauss_jacobi_rule(0.0, alpha - 1.0, n)
    hi = integrate(rule_hi, lambda v: f(x * (1.0 - 0.5 * v) ** inv_kp1))
    total = exp(log_pre - alpha * _LOG2) * hi

    tau_half = x * 2.0 ** (-inv_kp1)
    rule_lo = gauss_jacobi_rule(0.0, k, n)
    lo = integrate(
        rule_lo,
        lambda t: (1.0 - 0.5 * t ** kp1) ** (alpha - 1.0) * f(tau_half * t),
    )
    total += exp(
        (1.0 - alpha) * log(kp1)
        - log_gamma(alpha)
        + kp1 * log(tau_half)
        + kp1 * (alpha - 1.0) * log(x)
    ) * lo
    return total

