"""Gauss-Jacobi quadrature on [0, 1] for the weight u^b_exp (1-u)^a_exp.

Rules are built with the Golub-Welsch eigenvalue method: the Jacobi
recurrence coefficients are formed as whole-array expressions and LAPACK's
dstevd (the driver scipy.linalg.eigh_tridiagonal picks for a full
spectrum, called directly) solves the symmetric tridiagonal eigenproblem
for nodes and weights.

dstevd is the only scipy routine the package uses.  It is bound from
scipy's compiled f2py module scipy.linalg._flapack, found in scipy's and
then scipy/linalg's directory on the path and loaded on its own, so no
scipy package is imported at all: scipy.linalg's __init__ pulls in
numpy.f2py, numpy.ma, numpy.random and more, which would more than double
the package's import time and add about 24 MB to its memory, and scipy's
own runs some 20 modules (subprocess, sysconfig, its test utilities).
Where scipy is not on a plain path entry or the extension does not load
alone, the ordinary import serves.  The fortran object is the one
get_lapack_funcs("stevd", dtype=float64) returns, so rules keep their bits.

split_rule refines a Jacobi rule by splitting its interval instead of
raising its order (graded hp quadrature; Schwab, p- and hp-FEM, 1998):
one rule of order n/2, scaled onto [0, 4^-depth sigma], keeps the t^b_exp
singularity with the error of the order-n rule on [0, 4^(1-depth) sigma],
and Legendre panels, graded dyadically toward it and split at given
cuts, cover the rest of [0, 1], where t^b_exp is smooth.  So no rule of
order n is built for any depth, and one call builds every depth of
every panel of a discretization, each panel's from one Jacobi rule, into
one pair of arrays.  Layouts do not depend on b_exp, so they are cached
apart, and so are their Gauss-Legendre rules, one per order.  The last
48 split rules are cached, one entry per discretization; that is the only
cache a Jacobi rule of the operator sits in.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import InitVar, dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .specfun import _is_integer, beta

__all__ = ["JacobiRule", "gauss_jacobi_rule", "integrate", "MAX_ORDER"]

MAX_ORDER = 256
# split_rule's Jacobi panel ends here at the latest, and its smallest
# Legendre panel gets this many nodes
_SPLIT = 0.25
_MIN_PANEL_ORDER = 8
# the order of split_rule's dyadic Legendre panels below sigma
_DYADIC_ORDER = 12
# the recurrence's exponent-free columns j, 2j and 4j, j = 0, ..., MAX_ORDER - 1,
# read-only views of one table; every order slices them
_STEPS = np.array([[1.0], [2.0], [4.0]]) * np.arange(MAX_ORDER)
_STEPS.flags.writeable = False
_J, _TWO_J, _FOUR_J = _STEPS


def _load_flapack(path=None):
    """scipy.linalg._flapack, loaded on its own from the scipy directory on
    the path entries `path` (sys.path by default), so that neither scipy's
    __init__ nor scipy.linalg's runs; the ordinary (slow) import where that
    fails: no scipy on a plain path entry (an editable or zipped install),
    no such extension in it, or one that does not load alone (a build that
    needs the library directories scipy's __init__ registers).

    Loading enters the extension in sys.modules with no parent package to
    hold it, so the entry is taken out unless scipy.linalg is imported: a
    later import of scipy.linalg then sets its _flapack attribute, from the
    state the interpreter kept rather than by initializing the extension
    again, so the fortran objects match.
    """
    try:
        for name in ("scipy", "scipy.linalg", "scipy.linalg._flapack"):
            spec = importlib.machinery.PathFinder.find_spec(name, path)
            if spec is None:
                raise ImportError(f"no {name} on a plain path entry")
            path = spec.submodule_search_locations or []
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        from scipy.linalg import _flapack

        return _flapack
    if "scipy.linalg" not in sys.modules:
        sys.modules.pop(spec.name, None)
    return module


_stevd = _load_flapack().dstevd


@dataclass(frozen=True)
class JacobiRule:
    """Nodes and weights integrating u^b_exp (1-u)^a_exp p(u) over [0, 1].

    Exact (up to round-off) for polynomials p of degree <= 2*order - 1.
    Instances are immutable and safe to share across threads.  moment0,
    the zeroth beta moment the weights must sum to, is computed here unless
    the caller has it already.
    """

    a_exp: float
    b_exp: float
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    moment0: InitVar[float | None] = None

    def __post_init__(self, moment0):
        if not (math.isfinite(self.a_exp) and self.a_exp > -1.0):
            raise DomainError(f"JacobiRule requires a_exp > -1, got {self.a_exp!r}")
        if not (math.isfinite(self.b_exp) and self.b_exp > -1.0):
            raise DomainError(f"JacobiRule requires b_exp > -1, got {self.b_exp!r}")
        if self.order < 1:
            raise DomainError(f"JacobiRule requires order >= 1, got {self.order!r}")
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise DomainError("node/weight arrays must have length equal to order")
        nodes, weights = self.nodes, self.weights
        # increasing nodes lie inside (0, 1) when the end nodes do; a NaN
        # fails a comparison wherever it sits
        if not (nodes[0] > 0.0 and nodes[-1] < 1.0):
            raise DomainError("nodes must lie strictly inside (0, 1)")
        if not (nodes[1:] > nodes[:-1]).all():
            raise DomainError("nodes must be strictly increasing")
        # min propagates a NaN, which then fails the comparison
        if not weights.min() > 0.0:
            raise DomainError("weights must all be positive")
        if moment0 is None:
            moment0 = beta(self.b_exp + 1.0, self.a_exp + 1.0)
        if abs(float(weights.sum()) - moment0) > 1e-12 * moment0:
            raise DomainError("weight sum does not match the zeroth beta moment")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def gauss_jacobi_rule(a_exp: float, b_exp: float, order: int) -> JacobiRule:
    """Build the Gauss-Jacobi rule for the given weight.

    The symmetric tridiagonal eigenproblem of the three-term recurrence
    yields the nodes as eigenvalues; the weights follow from the first
    eigenvector components scaled by the zeroth moment.  The recurrence's
    exponent-free columns (j, 2j, 4j) are slices of module constants, so
    a call pays for the dstevd solve, its own whole-array terms and
    JacobiRule's checks.
    """
    if not (math.isfinite(a_exp) and a_exp > -1.0):
        raise DomainError(f"gauss_jacobi_rule requires a_exp > -1, got {a_exp!r}")
    if not (math.isfinite(b_exp) and b_exp > -1.0):
        raise DomainError(f"gauss_jacobi_rule requires b_exp > -1, got {b_exp!r}")
    if not _is_integer(order) or order < 1 or order > MAX_ORDER:
        raise DomainError(
            f"gauss_jacobi_rule requires 1 <= order <= {MAX_ORDER}, got {order!r}"
        )
    order = int(order)

    # Recurrence for weight (1-x)^a (1+x)^b on [-1, 1]; mapped to [0, 1] at
    # the end.  a <-> a_exp and b <-> b_exp keep that correspondence.
    a = float(a_exp)
    b = float(b_exp)
    apb = a + b
    moment0 = 1.0 / (b + 1.0) if a == 0.0 else beta(b + 1.0, a + 1.0)

    if order == 1:
        node = ((b - a) / (apb + 2.0) + 1.0) / 2.0
        return JacobiRule(a, b, 1, np.array([node]), np.array([moment0]), moment0)

    # The first entries keep their closed forms: the general ones are 0/0
    # at a + b = 0 (diagonal) and at a + b = -1 (off-diagonal).  Products
    # are formed in place, left to right, as the plain expressions would.
    j, two_j, four_j = _J[:order], _TWO_J[:order], _FOUR_J[2:order]
    diag = np.empty(order)
    off = np.empty(order - 1)
    diag[0] = (b - a) / (apb + 2.0)
    s = two_j + apb
    np.divide(b * b - a * a, s[1:] * (s[1:] + 2.0), out=diag[1:])
    off[0] = math.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0)))
    j, s = j[2:], s[2:]
    num = four_j * (j + a)
    num *= j + b
    num *= j + apb
    # float_power squares with the C pow, as the scalar ** 2 of off[0]
    # does; numpy's ** 2 is x * x, which rounds differently in about one
    # entry in a thousand and would move the rules' last bits
    den = np.float_power(s, 2)
    den *= s + 1.0
    den *= s - 1.0
    num /= den
    np.sqrt(num, out=off[1:])

    # diag and off are finite for every a, b > -1 accepted above
    nodes, vecs, info = _stevd(diag, off, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
    # the eigenvalues, mapped onto [0, 1] in place
    nodes += 1.0
    nodes /= 2.0
    weights = vecs[0, :] ** 2
    weights *= moment0
    return JacobiRule(a, b, order, nodes, weights, moment0)


@lru_cache(maxsize=MAX_ORDER)
def _legendre_rule(order: int) -> JacobiRule:
    """The order-`order` Gauss-Legendre rule on [0, 1], cached per order."""
    return gauss_jacobi_rule(0.0, 0.0, order)


@lru_cache(maxsize=128)
def _panel_layout(order: int, cuts: tuple[float, ...], depth: int) -> tuple[float, np.ndarray, np.ndarray]:
    """split_rule's Legendre panels on [h, 1], h = sigma * 4^-depth: the
    nodes t and the weights without the t^b_exp factor, both read-only,
    and h."""
    sigma = min((_SPLIT, *cuts))
    edges = {sigma, 1.0, *cuts}
    point = sigma
    while point < _SPLIT:
        point *= 2.0
        edges.add(point)
    edges = sorted(edges)
    # panels whose share falls below the minimum get the minimum, and the
    # others share what is left in proportion to their length
    # (plain floats, but numpy's pairwise sum where the order sets the bits)
    min_order = min(_MIN_PANEL_ORDER, order)
    widths = [c - a for a, c in zip(edges, edges[1:])]
    small = [order * width < min_order * (1.0 - sigma) for width in widths]
    spare = order - min_order * sum(small)
    total = float(np.add.reduce([w for w, s in zip(widths, small) if not s])) or 1.0
    counts = [min_order if s else max(min_order, round(spare * width / total))
              for width, s in zip(widths, small)]
    # below sigma, 2 * depth dyadic panels [a, 2a] of a fixed order
    dyadic = [sigma * 0.5 ** j for j in range(2 * depth, 0, -1)]
    edges, widths = [*dyadic, *edges], [*dyadic, *widths]
    counts = [_DYADIC_ORDER] * len(dyadic) + counts
    panels = [_legendre_rule(count) for count in counts]
    # each panel's lo and width, repeated over its own rule's nodes (one
    # array of both rows: numpy converts a Python list once, not twice)
    lo, width = np.repeat(np.array((edges[:-1], widths)), counts, axis=1)
    nodes = lo + width * np.concatenate([panel.nodes for panel in panels])
    weights = width * np.concatenate([panel.weights for panel in panels])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return edges[0], nodes, weights


# an entry holds a whole discretization, about three panels, so 48 of them
# hold about what 128 entries of one panel did
@lru_cache(maxsize=48)
def split_rule(panels: tuple[tuple[float, tuple[float, ...]], ...], order: int,
               depths: tuple[int, ...] = (1,)) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Nodes and weights on [0, 1] for the weight t^b_exp, refined by
    splitting, for each (b_exp, cuts) of panels at each depth d of depths:
    (nodes, weights, spans), every panel's arrays after the one before.

    Depth d scales the Gauss-Jacobi rule of order ceil(order / 2) onto
    [0, h], h = sigma * 4^-d, with sigma = min(1/4, first cut) for d > 0
    and 1/4 at the uncut d = 0.  Below sigma, 2 * d dyadic 12-node
    Gauss-Legendre panels cover [h, sigma].  Gauss-Legendre panels cover
    [sigma, 1], split at the cuts and, below 1/4, at sigma, 2 sigma, 4
    sigma, ... so that no panel [a, c] with a < 1/4 has c > 2a: t^b_exp is
    then smooth on each panel at its own scale, and it is folded into the
    panel's weights.  The panels on [sigma, 1] share `order` nodes in
    proportion to their length, at least min(8, order) each (a panel whose
    share falls short takes the minimum out of the others' shares), so
    with no cuts depth d has ceil(order / 2) + 24 d + order nodes.  cuts
    are points inside (0, 1), typically where the integrand's slope jumps.

    On a t^lambda factor at 0 an order-m rule on [0, h] errs by about
    h^gamma m^(-2 gamma), gamma = 1 + b_exp + lambda, so the half-order
    rule on [0, h] has the error of the order-`order` rule on [0, 4h], from
    an eigenproblem of half the size.

    A panel's arrays hold one head per depth, then the deepest layout at
    each cut flag, uncut first, whose tails are the shallower depths'
    layouts: spans[p][i] = (a, b, c, d) gives depths[i] of panels[p] as
    [a:b] then [c:d] of that panel's arrays, which start where the panels
    before it end (at the largest d of each earlier panel's spans).
    Layouts and spans are cached apart (_split_layout), so a fresh b_exp
    costs the Jacobi rule and one t^b_exp per distinct layout node.  A
    discretization takes one call, and so one cache lookup, for all its
    panels.
    """
    nodes, weights, spans = [], [], []
    for b_exp, cuts in panels:
        if not all(0.0 < c < 1.0 for c in cuts):
            raise DomainError(f"split_rule requires cuts inside (0, 1), got {cuts!r}")
        rule = gauss_jacobi_rule(0.0, b_exp, (order + 1) // 2)
        hs, layouts, panel_spans = _split_layout(order, cuts, depths)
        nodes += [h * rule.nodes for h in hs] + [t for _, t, _ in layouts]
        weights += [h ** (b_exp + 1.0) * rule.weights for h in hs] + [w * t ** b_exp for _, t, w in layouts]
        spans.append(panel_spans)
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights, tuple(spans)


@lru_cache(maxsize=128)
def _split_layout(order: int, cuts: tuple[float, ...], depths: tuple[int, ...]) -> tuple:
    """split_rule's exponent-free part (hs, layouts, spans).  Depth d's
    layout is the tail of its cut flag's deepest, at depth e, past 2 (e - d)
    dyadic panels, and its h is that layout's times 4^(e - d), exactly."""
    head = (order + 1) // 2
    flags = [bool(cuts) and d > 0 for d in depths]
    deepest = dict(sorted(zip(flags, depths)))
    layouts = {flag: _panel_layout(order, cuts if flag else (), d) for flag, d in deepest.items()}
    starts = dict(zip(deepest, accumulate((t.size for _, t, _ in layouts.values()), initial=head * len(depths))))
    hs, spans = [], []
    for i, (flag, d) in enumerate(zip(flags, depths)):
        (h, t, _), gone = layouts[flag], deepest[flag] - d
        hs.append(h * 4.0 ** gone)
        spans.append((i * head, (i + 1) * head, starts[flag] + 2 * _DYADIC_ORDER * gone, starts[flag] + t.size))
    return tuple(hs), tuple(layouts.values()), tuple(spans)


def integrate(rule: JacobiRule, smooth_part: Callable[[np.ndarray], np.ndarray]) -> float:
    """Apply the rule: sum of weights[i] * smooth_part(nodes[i]).

    ``smooth_part`` must accept the whole node array at once (numpy
    broadcasting covers the usual lambdas).  A non-finite value at any
    node raises EvaluationError carrying that node, and a finite
    integrand whose sum overflows raises it with no node.  The values are
    scanned only when the sum is not finite: the weights are positive, so
    an inf or NaN value leaves the sum non-finite.
    """
    values = _evaluate(smooth_part, rule.nodes)
    # vdot runs the same ddot as @, but turns no floating-point flag into
    # a RuntimeWarning
    total = float(np.vdot(rule.weights, values))
    if not math.isfinite(total):
        _check_finite(values, rule.nodes, "quadrature node u")
        raise EvaluationError(f"integral is not finite: {total!r}")
    return total


def _evaluate(f: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """f on the whole node array, broadcast to its shape."""
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != nodes.shape:
        values = np.broadcast_to(values, nodes.shape)
    return values


def _check_finite(values: np.ndarray, nodes: np.ndarray, label: str) -> None:
    """Raise EvaluationError carrying the first node whose value is not
    finite, named label in the message, if there is one."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        node = float(nodes[np.argmax(bad)])
        raise EvaluationError(f"integrand is not finite at {label} = {node!r}", node=node)
