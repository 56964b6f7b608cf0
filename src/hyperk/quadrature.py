"""Gauss-Jacobi quadrature on [0, 1] for the weight u^b_exp (1-u)^a_exp.

Rules are built with the Golub-Welsch eigenvalue method: the Jacobi
recurrence coefficients are formed as whole-array expressions and the
symmetric tridiagonal eigenproblem gives nodes and weights.  The last 128
rules are cached, so repeated operator evaluations with the same exponents
share one immutable rule object; a campaign draws fresh exponents for
every check and reuses none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError, EvaluationError
from .specfun import beta

__all__ = ["JacobiRule", "gauss_jacobi_rule", "integrate", "MAX_ORDER"]

MAX_ORDER = 256


@dataclass(frozen=True)
class JacobiRule:
    """Nodes and weights integrating u^b_exp (1-u)^a_exp p(u) over [0, 1].

    Exact (up to round-off) for polynomials p of degree <= 2*order - 1.
    Instances are immutable and safe to share across threads.
    """

    a_exp: float
    b_exp: float
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.a_exp) and self.a_exp > -1.0):
            raise DomainError(f"JacobiRule requires a_exp > -1, got {self.a_exp!r}")
        if not (math.isfinite(self.b_exp) and self.b_exp > -1.0):
            raise DomainError(f"JacobiRule requires b_exp > -1, got {self.b_exp!r}")
        if self.order < 1:
            raise DomainError(f"JacobiRule requires order >= 1, got {self.order!r}")
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise DomainError("node/weight arrays must have length equal to order")
        if not (np.all(self.nodes > 0.0) and np.all(self.nodes < 1.0)):
            raise DomainError("nodes must lie strictly inside (0, 1)")
        if self.order > 1 and not np.all(np.diff(self.nodes) > 0.0):
            raise DomainError("nodes must be strictly increasing")
        if not np.all(self.weights > 0.0):
            raise DomainError("weights must all be positive")
        moment0 = beta(self.b_exp + 1.0, self.a_exp + 1.0)
        if abs(float(np.sum(self.weights)) - moment0) > 1e-12 * moment0:
            raise DomainError("weight sum does not match the zeroth beta moment")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=128)
def gauss_jacobi_rule(a_exp: float, b_exp: float, order: int) -> JacobiRule:
    """Build (or fetch from cache) the Gauss-Jacobi rule for the given weight.

    The symmetric tridiagonal eigenproblem of the three-term recurrence
    yields the nodes as eigenvalues; the weights follow from the first
    eigenvector components scaled by the zeroth moment.
    """
    if not (math.isfinite(a_exp) and a_exp > -1.0):
        raise DomainError(f"gauss_jacobi_rule requires a_exp > -1, got {a_exp!r}")
    if not (math.isfinite(b_exp) and b_exp > -1.0):
        raise DomainError(f"gauss_jacobi_rule requires b_exp > -1, got {b_exp!r}")
    if not isinstance(order, (int, np.integer)) or order < 1 or order > MAX_ORDER:
        raise DomainError(
            f"gauss_jacobi_rule requires 1 <= order <= {MAX_ORDER}, got {order!r}"
        )
    order = int(order)

    # Recurrence for weight (1-x)^a (1+x)^b on [-1, 1]; mapped to [0, 1] at
    # the end.  a <-> a_exp and b <-> b_exp keep that correspondence.
    a = float(a_exp)
    b = float(b_exp)
    apb = a + b
    moment0 = beta(b + 1.0, a + 1.0)

    if order == 1:
        node = ((b - a) / (apb + 2.0) + 1.0) / 2.0
        rule = JacobiRule(a, b, 1, np.array([node]), np.array([moment0]))
        return rule

    # The first entries keep their closed forms: the general ones are 0/0
    # at a + b = 0 (diagonal) and at a + b = -1 (off-diagonal).
    j = np.arange(order, dtype=float)
    diag = np.empty(order)
    off = np.empty(order - 1)
    diag[0] = (b - a) / (apb + 2.0)
    diag[1:] = (b * b - a * a) / ((2.0 * j[1:] + apb) * (2.0 * j[1:] + apb + 2.0))
    off[0] = math.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0)))
    j = j[2:]
    num = 4.0 * j * (j + a) * (j + b) * (j + apb)
    # float_power squares with the C pow, as the scalar ** 2 of off[0]
    # does; numpy's ** 2 is x * x, which rounds differently in about one
    # entry in a thousand and would move the rules' last bits
    den = np.float_power(2.0 * j + apb, 2) * (2.0 * j + apb + 1.0) * (2.0 * j + apb - 1.0)
    off[1:] = np.sqrt(num / den)

    # diag and off are finite for every a, b > -1 accepted above
    vals, vecs = eigh_tridiagonal(diag, off, check_finite=False)
    nodes = (vals + 1.0) / 2.0
    weights = moment0 * vecs[0, :] ** 2
    return JacobiRule(a, b, order, nodes, weights)


def integrate(rule: JacobiRule, smooth_part: Callable[[np.ndarray], np.ndarray]) -> float:
    """Apply the rule: sum of weights[i] * smooth_part(nodes[i]).

    ``smooth_part`` must accept the whole node array at once (numpy
    broadcasting covers the usual lambdas).  A non-finite value at any
    node raises EvaluationError carrying that node.
    """
    values = np.asarray(smooth_part(rule.nodes), dtype=float)
    if values.shape != rule.nodes.shape:
        values = np.broadcast_to(values, rule.nodes.shape)
    bad = ~np.isfinite(values)
    if np.any(bad):
        node = float(rule.nodes[np.argmax(bad)])
        raise EvaluationError(
            f"integrand is not finite at quadrature node u = {node!r}", node=node
        )
    return float(rule.weights @ values)
