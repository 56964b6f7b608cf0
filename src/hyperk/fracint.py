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

w is built at two levels by one quadrature.split_rule call (depths 0 and
1) for all panels, each from one Gauss-Jacobi rule of order n/2 that
keeps the endpoint singularity and Legendre panels over the rest of the
panel's node variable.  The coarse level scales the rule onto [0, 1/4] and
adds one order-n Legendre panel on [1/4, 1].  The fine level refines by
splitting rather than by raising the order: the rule goes onto [0,
sigma/4], two 12-node Legendre panels cover [sigma/4, sigma], and Legendre
panels sharing n nodes cover [sigma, 1], cut at the integrands' kinks
(sigma = min(1/4, first cut)).  For a t^lambda branch point at the panel's
singular end an order-m rule on [0, h] errs by about h^gamma m^(-2 gamma),
gamma = 1 + b + lambda, so the order-n/2 rule on [0, h/4] has the error of
the order-n rule on [0, h]: each level keeps the singular-end error of an
order-n rule, the fine one 4^-gamma times the coarse one's without kinks,
and no rule of order n or more, the costliest eigenproblems of a check, is
built.  A kink-free panel has 3n + 24 nodes over both levels, 2n + 24 of
them distinct.  operator_images builds both levels in one pass and
evaluates each integrand once on their distinct nodes, so one
discretization serves every image of a check; apply_operator is its
one-integrand case.  What depends on the parameters alone, the panels and
the series blocks in summation order with their coefficients, is built
once per OperatorParams and cached.  The per-point pass does only per-point
work: each series term's scale, the nodes and their formulas, formed from
one array of the distances from each panel's near end, and one series call
on one flat argument array.  Its number of whole-array steps does not grow
with the number of panels or levels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import exp, log
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, EvaluationError, ValidationError
from .quadrature import MAX_ORDER, _check_finite, _evaluate, gauss_jacobi_rule, integrate, split_rule
from .specfun import _connection, _is_integer, _is_nonpositive_integer, _series_2f1_vec, gauss_2f1, log_gamma

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


def _exp(v: float, what: str) -> float:
    """exp(v), raising EvaluationError with no node where it overflows."""
    try:
        return exp(v)
    except OverflowError:
        raise EvaluationError(f"{what} is not finite: exp({v!r}) overflows") from None


def _check_order(order: int) -> int:
    if not _is_integer(order) or order < 1 or order > MAX_OPERATOR_ORDER:
        raise DomainError(
            f"order must be an integer in [1, {MAX_OPERATOR_ORDER}], got {order!r}"
        )
    return int(order)


# ---------------------------------------------------------------------------
# kernel


def _kernel_head(params: OperatorParams, x: float, tau: float) -> tuple[float, float]:
    """(the n=0 series term, series argument 1 - (tau/x)^(k+1)), after
    checking params, x and 0 < tau < x.

    The head collects every factor of the kernel except the 2F1 sum, with
    all powers of x and tau taken in log space.  A head that overflows
    raises EvaluationError.
    """
    validate(params)
    _check_point(x)
    if not (math.isfinite(tau) and 0.0 < tau < x):
        raise DomainError(f"kernel requires 0 < tau < x, got tau = {tau!r}, x = {x!r}")
    alpha, beta_, mu, k = params.alpha, params.beta, params.mu, params.k
    kp1 = k + 1.0
    z_low = (tau / x) ** kp1
    log_head = (
        (mu + beta_ + 1.0) * log(kp1)
        + kp1 * (-alpha - beta_ - 2.0 * mu) * log(x)
        + kp1 * mu * log(tau)
        + (alpha - 1.0) * (kp1 * log(x) + math.log1p(-z_low))
        - log_gamma(alpha)
    )
    return _exp(log_head, "kernel head"), 1.0 - z_low


def kernel_closed(params: OperatorParams, x: float, tau: float) -> float:
    """The kernel F(x, tau) in closed form (2F1 factor evaluated directly).

    This excludes the tau^k measure factor, which the operator carries
    separately next to f(tau).  Positive throughout the admissible window.
    """
    head, arg = _kernel_head(params, x, tau)
    a = params.alpha + params.beta + params.mu
    return head * gauss_2f1(a, -params.eta, params.alpha, arg)


def kernel_series(params: OperatorParams, x: float, tau: float, n_terms: int) -> float:
    """Partial sum of the kernel's expansion in powers of 1 - (tau/x)^(k+1).

    Under the strict window every term is positive, so the partial sums
    increase monotonically toward kernel_closed.
    """
    head, arg = _kernel_head(params, x, tau)
    if not _is_integer(n_terms) or n_terms < 1:
        raise DomainError(f"n_terms must be a positive integer, got {n_terms!r}")
    n_terms = int(n_terms)
    a = params.alpha + params.beta + params.mu
    b = -params.eta
    alpha = params.alpha
    terms = np.empty(n_terms)
    terms[0] = head
    if n_terms > 1:
        n = np.arange(n_terms - 1, dtype=float)
        ratios = (a + n) * (b + n) / ((alpha + n) * (n + 1.0)) * arg
        terms[1:] = terms[0] * np.cumprod(ratios)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# operator evaluation


_ParamTable = namedtuple("_ParamTable", "panels terms abc further extrapolated lg_alpha")


@lru_cache(maxsize=128)
def _param_table(params: OperatorParams) -> _ParamTable:
    """Everything of a discretization that depends on OperatorParams alone,
    built once per parameter set.  It validates them, so invalid params
    raise on every call and never enter the cache, and it holds scalars
    only: no node arrays, which depend on the point, order and kinks.

    panels: one (upper?, rule exponent on the node variable) per Jacobi
    rule, the upper panel first.  terms: the series blocks in summation
    order, every panel's first term as the panels lie, then the later
    terms; each is (panel index, 2F1 argument measured from the far end?,
    coefficient, log coefficient, log shift) and adds coef * exp(log scale
    of its side + log coefficient - log shift) * 2F1 to w.  A panel's near
    end is u = 1 on the upper panel and u = 0 on the lower ones, so its
    near argument is 1 - u and u respectively, and its far one 1 - near.
    abc: the blocks' 2F1 parameters a, b and c, one tuple each, in the same
    order.  further: the panel index of each later term.  extrapolated:
    the lower half is extrapolated across eta offsets.  log Gamma(alpha) is
    evaluated once: the prefactor and both connection coefficients of every
    offset take it.
    """
    validate(params)
    alpha, beta_, eta, mu, k = params.alpha, params.beta, params.eta, params.mu, params.k
    a, b, s = alpha + beta_ + mu, -eta, eta - beta_ - mu
    kp1 = k + 1.0
    b_lo = kp1 * mu + k
    lg_alpha = log_gamma(alpha)  # alpha > 0: Gamma(alpha) has sign +1
    # (upper?, rule exponent, terms), a term (far?, coef, log coef, log shift, a, b, c)
    panels = [(True, alpha - 1.0, [(False, 1.0, 0.0, 0.0, a, b, alpha)])]
    offsets = []
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        panels.append((False, b_lo, [(True, 1.0, 0.0, 0.0, a, b, alpha)]))
    else:
        offsets = _nudge_offsets(params)
        first = []
        panels.append((False, b_lo, first))
        for d, coef in offsets:
            sd = s + d
            (sign1, log_c1, abc1), (sign2, log_c2, abc2) = _connection(a, b - d, alpha, sd, lg_alpha, 1.0)
            first.append((False, coef * sign1, log_c1, 0.0, *abc1))
            panels.append((False, b_lo + kp1 * sd, [(False, coef * sign2, log_c2, sd * _LOG2, *abc2)]))
    panels = [(upper, b_exp, kept) for upper, b_exp, terms in panels
              if (kept := [term for term in terms if term[1] != 0.0])]
    terms = [(i, *term) for i, (_, _, kept) in enumerate(panels) for term in kept[:1]]
    terms += [(i, *term) for i, (_, _, kept) in enumerate(panels) for term in kept[1:]]
    return _ParamTable(tuple((upper, b_exp) for upper, b_exp, _ in panels),
                       tuple(term[:5] for term in terms), tuple(zip(*terms))[5:],
                       tuple(term[0] for term in terms[len(panels):]), len(offsets) > 1, lg_alpha)


def _discretize(
    params: OperatorParams,
    table: _ParamTable,
    x: float,
    order: int,
    depths: tuple[int, ...],
    kinks: tuple[float, ...] = (),
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(tau, index, weights): distinct nodes tau in (0, x), an index map and,
    per entry of depths, weights w.  tau[index] holds every level's nodes,
    level after level, level i's the weights[i].size after those of the
    levels before it, and I[f](x) ~ w @ f(tau[index]) on that slice.

    The panels take one split_rule call at (order, depths), one lookup of
    its cache, which holds their arrays concatenated, panel after panel:
    per panel, the one Gauss-Jacobi rule of order ceil(order / 2) on
    [0, 4^-depth sigma] of the panel's node variable.  Depth 0 is the
    coarse level, uncut; every later depth is a fine level, cut at the
    kinks (points in (0, x) where an integrand's slope may jump) that fall
    inside the panel.  A kink tau maps into the upper panel's node variable
    as v = 2(1 - (tau/x)^(k+1)) when tau > tau_half, and into the lower
    panels' as t = tau/tau_half when tau < tau_half.

    Prefactors, Jacobi weights, 2F1 node factors and connection
    coefficients all fold into w, so each discretization depends only on
    (params, x, order, depths, kinks) and the operator is exactly linear in
    f.  table is _param_table(params), which the caller has looked up: the
    panels, the series blocks in summation order and log Gamma(alpha), once
    per OperatorParams.  What is left here is per-point work: the
    prefactor, each term's scale, the nodes and their formulas.  A scale
    that overflows raises EvaluationError with no node.

    Each piece of a point is held once: split_rule holds a panel's head at
    each depth and each distinct layout once, and the later lower panels
    take their layouts' tau from the first's (_node_maps, cached per spans).
    So a point works on split_rule's arrays as they come, the upper panel
    first, and costs a fixed number of whole-array steps whatever the number
    of panels and levels: the node formulas, from one array near (1 - u on
    the upper panel, u on the lower ones) and far = 1 - near, one series
    call on one flat argument array with one parameter block per series
    term (every panel's first term takes its slice of near, or of far on
    the terminating panel, and the later terms their panel's again), the
    weights as one product (each block's scale, repeated, times the rule
    weights, the smooth factor and the 2F1 values), a panel's later terms
    added to its first in term order, and one gather into the levels' node
    order.  The series call stops once, at the first term where every node
    of every block has converged, and past a node's own stop the further
    terms are below half an ulp of its sum on the arguments up to 1/2 that
    the panels pass (the terminating panel's polynomial ends in zero
    terms), so each block and level gets the weights it gets when built
    alone, bit for bit.

    The parameter table, one panel per Jacobi rule, alone decides the path.
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
    panels, terms, abc, further, _, lg_alpha = table
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

    nodes, rule_w, levels = split_rule(
        tuple((b_exp, cuts_hi if upper else cuts_lo) for upper, b_exp in panels), order, depths)
    edges, distinct, w_map, tau_map, bounds = _node_maps(levels)
    # near is 1 - u = v/2 on the upper panel and u = t^(k+1)/2 on the lower
    # ones, and far = 1 - near
    hi, lo = slice(0, edges[1]), slice(edges[1], None)
    near, far, smooth, tau = np.empty((4, nodes.size))
    np.multiply(0.5, nodes[hi], out=near[hi])
    np.multiply(0.5, nodes[lo] ** kp1, out=near[lo])
    np.subtract(1.0, near, out=far)
    tau[hi], tau[lo] = x * far[hi] ** inv_kp1, tau_half * nodes[lo]
    smooth[hi], smooth[lo] = far[hi] ** mu, far[lo] ** (alpha - 1.0)

    # the flat series argument, block after block: a panel's first term
    # takes its slice of near (the terminating panel, the last and only
    # lower one, of far), and each later term its panel's slice again,
    # whose rule weights and smooth factor go along
    z = near
    if terms[len(panels) - 1][1]:
        z = np.concatenate((near[hi], far[lo]))
    sizes = [j - i for i, j in zip(edges, edges[1:])]
    if further:
        spans = [slice(edges[i], edges[i + 1]) for i in further]
        z, rule_w, smooth = (np.concatenate((array, *(array[span] for span in spans)))
                             for array in (z, rule_w, smooth))
        sizes += [sizes[i] for i in further]
    try:
        scales = [coef * exp((log_lo if i else log_hi) + log_c - shift) for i, _, coef, log_c, shift in terms]
    except OverflowError:
        raise EvaluationError(f"an operator term's scale is not finite at x = {x!r}") from None
    w = np.repeat(scales, sizes)
    w *= rule_w
    w *= smooth
    w *= _series_2f1_vec(*abc, z, sizes)
    # each later term is added to its panel's first, in term order
    start = nodes.size
    for i in further:
        w[edges[i] : edges[i + 1]] += w[start : start + sizes[i]]
        start += sizes[i]

    w = w.take(w_map)
    return tau.take(distinct), tau_map, [w[i:j] for i, j in zip(bounds, bounds[1:])]


@lru_cache(maxsize=64)
def _node_maps(spans: tuple[tuple[tuple[int, int, int, int], ...], ...]) -> tuple:
    """_discretize's read-only index maps over the panels' split_rule
    arrays, concatenated, whose spans are spans[p]: the panel edges, the
    positions whose tau is kept (a later lower panel's layouts take the
    first's), and every level's positions, tau places and bounds."""
    edges = (0, *accumulate(max(span[3] for span in panel) for panel in spans))
    source = np.arange(edges[-1])
    heads = max(span[1] for span in spans[-1])  # where a lower panel's layouts start
    for start, stop in zip(edges[2:-1], edges[3:]):
        source[start + heads : stop] = source[edges[1] + heads : edges[2]]
    levels = [np.concatenate([np.r_[e + a : e + b, e + c : e + d] for e, (a, b, c, d) in zip(edges, level)])
              for level in zip(*spans)]
    distinct, place = np.unique(source, return_inverse=True)
    w_map = np.concatenate(levels)
    maps = (distinct, w_map, place[w_map])
    for array in maps:
        array.flags.writeable = False
    return edges, *maps, (0, *accumulate(map(len, levels)))


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
    distinct nodes of both levels.  The result is the fine level's value and
    the error estimate is its difference from the coarse level's, so it
    reflects the actual refinement behaviour for this integrand.  A
    non-finite value of f raises EvaluationError carrying the first such
    node tau, and a finite f whose image overflows, or weights that
    overflow, raise it with no node.
    The values are scanned only when a dot product is not finite: every
    node lies in some level, and an inf or NaN there leaves that level's
    sum non-finite whatever its weight.
    """
    table = _param_table(params)  # validates params
    _check_point(x)
    order = _check_order(order)
    fs = tuple(fs)
    tau, index, (w_c, w_f) = _discretize(params, table, x, order, (0, 1), _union_of_kinks(fs, x))
    results = []
    for f in fs:
        raw = _evaluate(f, tau)
        values = raw.take(index)
        # vdot runs the same ddot as @, but turns no floating-point flag
        # (inf * 0, an overflowing sum) into a RuntimeWarning
        coarse = float(np.vdot(w_c, values[: w_c.size]))
        fine = float(np.vdot(w_f, values[w_c.size :]))
        if not (math.isfinite(coarse) and math.isfinite(fine)):
            _check_finite(raw, tau, "tau")
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
    return _exp(
        (mu + beta_) * log(kp1)
        - kp1 * (beta_ + mu) * log(x)
        + log_gamma(mu + 1.0)
        + log_gamma(1.0 - beta_ + eta)
        - log_gamma(1.0 - beta_)
        - log_gamma(alpha + mu + eta + 1.0),
        "operator_of_one",
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
    reduction checks compare two independent implementations.  Its two
    rules are built on every call, uncached.  A value that is not finite
    raises EvaluationError, with no node when f is finite.
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
    total = _exp(log_pre - alpha * _LOG2, "rl_k_integral scale") * hi

    tau_half = x * 2.0 ** (-inv_kp1)
    rule_lo = gauss_jacobi_rule(0.0, k, n)
    lo = integrate(
        rule_lo,
        lambda t: (1.0 - 0.5 * t ** kp1) ** (alpha - 1.0) * f(tau_half * t),
    )
    total += _exp(
        (1.0 - alpha) * log(kp1)
        - log_gamma(alpha)
        + kp1 * log(tau_half)
        + kp1 * (alpha - 1.0) * log(x),
        "rl_k_integral scale",
    ) * lo
    if not math.isfinite(total):
        raise EvaluationError(f"rl_k_integral value is not finite: {total!r}")
    return total

