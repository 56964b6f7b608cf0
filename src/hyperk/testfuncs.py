"""Positive test functions and seeded inequality scenarios.

The function family is deliberately small: powers, exponentials, affine
functions and tabulated monotone interpolants, closed under pointwise sum,
product and positive powers.  Each family names itself in ``family``;
FunctionSpec.to_dict and function_from_dict are its one record format.

Instances only ever get evaluated on (0, x] for their own x.  One sampled
check decides validity: f and g positive and finite on a dense sample,
then either the sandwich m <= f/g <= M (f^p/g^q for 4.2) with slack
1e-12*max(1, M), or f non-decreasing and g non-increasing (4.4).
random_instance draws f and g (under the sandwich, f from g and a ratio
in [m, M]) and redraws until verify_hypotheses accepts the instance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache, reduce
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import ConstructionError, DomainError, GenerationError
from .fracint import OperatorParams, _union_of_kinks

__all__ = [
    "FunctionSpec",
    "PowerFn",
    "ExpFn",
    "AffineFn",
    "TabulatedFn",
    "SumFn",
    "ProductFn",
    "PowFn",
    "function_from_dict",
    "TestInstance",
    "sample_points",
    "make_ratio_pair",
    "make_monotone_pair",
    "draw_positive_function",
    "random_instance",
    "verify_hypotheses",
    "equality_instance",
    "instance_from_dict",
    "THEOREM_IDS",
]

THEOREM_IDS = ("3.1", "3.2", "4.1", "4.2", "4.3", "4.4")
_THEOREM_KEYS = {tid: 10 * int(tid[0]) + int(tid[2]) for tid in THEOREM_IDS}

_SAMPLE_COUNT = 512
_MAX_TRIES = 1000


class FunctionSpec:
    """Base class: a positive function on (0, x], vectorized over arrays."""

    family: ClassVar[str]

    def __call__(self, t):
        raise NotImplementedError

    def kinks(self, x: float) -> tuple[float, ...]:
        """Sorted points inside (0, x) where the slope may jump; none by default."""
        return ()

    def __add__(self, other: "FunctionSpec") -> "FunctionSpec":
        return SumFn((self, other))

    def __mul__(self, other: "FunctionSpec") -> "FunctionSpec":
        return ProductFn((self, other))

    def __pow__(self, exponent: float) -> "FunctionSpec":
        return PowFn(self, float(exponent))

    def to_dict(self) -> dict:
        """``family``, then the fields in order; functions nest, tuples become lists."""
        record = {"family": self.family}
        for field in fields(self):
            record[field.name] = _to_record(getattr(self, field.name))
        return record


def _to_record(value):
    if isinstance(value, FunctionSpec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_to_record(v) for v in value]
    return value


@dataclass(frozen=True)
class PowerFn(FunctionSpec):
    family: ClassVar[str] = "power"
    c: float
    p0: float

    def __call__(self, t):
        return self.c * np.asarray(t, dtype=float) ** self.p0


@dataclass(frozen=True)
class ExpFn(FunctionSpec):
    family: ClassVar[str] = "exp"
    c: float
    lam: float

    def __call__(self, t):
        return self.c * np.exp(self.lam * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class AffineFn(FunctionSpec):
    family: ClassVar[str] = "affine"
    a0: float
    b0: float

    def __call__(self, t):
        return self.a0 + self.b0 * np.asarray(t, dtype=float)


@dataclass(frozen=True)
class TabulatedFn(FunctionSpec):
    """Piecewise-linear interpolant; clamps to the end values outside."""

    family: ClassVar[str] = "tabulated"
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise ConstructionError("tabulated function needs matching lists, length >= 2")
        if not all(math.isfinite(v) for v in self.values):
            raise ConstructionError("tabulated values must be finite")
        if not all(b1 < b2 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ConstructionError("tabulated breakpoints must be strictly increasing")

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.breakpoints, self.values)

    def kinks(self, x: float) -> tuple[float, ...]:
        return tuple(float(b) for b in self.breakpoints if 0.0 < b < x)


@dataclass(frozen=True)
class _FoldFn(FunctionSpec):
    """parts combined pointwise by _fold, left to right, with the union of
    their kinks.  Subclasses only name their family and _fold; equality
    and repr go by the subclass, so a sum never equals a product."""

    parts: tuple[FunctionSpec, ...]
    _fold: ClassVar[Callable]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return reduce(self._fold, [part(t) for part in self.parts])

    def kinks(self, x: float) -> tuple[float, ...]:
        return _union_of_kinks(self.parts, x)


class SumFn(_FoldFn):
    family: ClassVar[str] = "sum"
    _fold = operator.add


class ProductFn(_FoldFn):
    family: ClassVar[str] = "product"
    _fold = operator.mul


@dataclass(frozen=True)
class PowFn(FunctionSpec):
    family: ClassVar[str] = "pow"
    base: FunctionSpec
    exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and self.exponent > 0.0):
            raise DomainError(f"pointwise power requires a positive exponent, got {self.exponent!r}")

    def __call__(self, t):
        return self.base(np.asarray(t, dtype=float)) ** self.exponent

    def kinks(self, x: float) -> tuple[float, ...]:
        return self.base.kinks(x)


_FAMILIES = {cls.family: cls for cls in
             (PowerFn, ExpFn, AffineFn, TabulatedFn, SumFn, ProductFn, PowFn)}


def function_from_dict(d: dict) -> FunctionSpec:
    """Rebuild a FunctionSpec from its to_dict record."""
    cls = _FAMILIES.get(d["family"])
    if cls is None:
        raise DomainError(f"unknown function family {d['family']!r}")
    return cls(*(_from_record(d[field.name]) for field in fields(cls)))


def _from_record(value):
    if isinstance(value, dict):
        return function_from_dict(value)
    if isinstance(value, (list, tuple)):
        return tuple(_from_record(v) for v in value)
    return value


# record keys that differ from their field names
_RECORD_KEYS = {"theorem_id": "theorem"}


@dataclass(frozen=True)
class TestInstance:
    """One randomized inequality scenario, replayable from (seed, theorem_id)."""

    theorem_id: str
    params: OperatorParams
    f: FunctionSpec
    g: FunctionSpec
    m: Optional[float]
    M: Optional[float]
    p: Optional[float]
    q: Optional[float]
    gamma: Optional[float]
    delta: Optional[float]
    x: float
    seed: int

    def to_dict(self) -> dict:
        """The fields in order, but with the seed right after the theorem;
        params spreads into its own fields and functions nest."""
        theorem, *rest, seed = fields(self)
        record = {}
        for field in (theorem, seed, *rest):
            value = getattr(self, field.name)
            if field.name == "params":
                record.update((p.name, getattr(value, p.name)) for p in fields(value))
            else:
                record[_RECORD_KEYS.get(field.name, field.name)] = _to_record(value)
        return record


def _read_field(d: dict, field) -> object:
    """A field's record value; one with a default or an Optional type may be absent."""
    key = _RECORD_KEYS.get(field.name, field.name)
    if field.default is not MISSING:
        return d.get(key, field.default)
    if str(field.type).startswith("Optional"):
        return d.get(key)
    return _from_record(d[key])


def instance_from_dict(d: dict) -> TestInstance:
    """Rebuild a TestInstance from its to_dict record; a missing required key raises KeyError."""
    params = OperatorParams(*(_read_field(d, field) for field in fields(OperatorParams)))
    return TestInstance(*(params if field.name == "params" else _read_field(d, field)
                          for field in fields(TestInstance)))


@lru_cache(maxsize=8)
def _unit_sample(count: int) -> np.ndarray:
    """sample_points(1.0, count), read-only."""
    half = count // 2
    lo = np.geomspace(1e-6, 0.5, half)
    hi = 1.0 - np.geomspace(1e-6, 0.5, count - half)
    grid = np.unique(np.concatenate([lo, hi, [1.0]]))
    grid.setflags(write=False)
    return grid


def sample_points(x_max: float, count: int = _SAMPLE_COUNT) -> np.ndarray:
    """Sample of (0, x_max], geometrically dense toward both endpoints.

    Ratio and monotonicity violations hide at the ends, so half the points
    crowd 0 and half crowd x_max (which is itself included).  The grid is
    one cached unit grid scaled by x_max, a fresh array on every call.
    """
    return x_max * _unit_sample(count)


def _sampled(f: FunctionSpec, g: FunctionSpec, x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """f and g on the dense sample of (0, x_max]; both must be positive and finite."""
    pts = sample_points(x_max)
    fv, gv = f(pts), g(pts)
    for label, vals in (("f", fv), ("g", gv)):
        # a NaN makes min NaN, which fails the comparison; +inf is the max
        if not (vals.min() > 0.0 and vals.max() < math.inf):
            raise ConstructionError(f"{label} is not positive and finite on (0, {x_max}]")
    return fv, gv


def _check_sandwich(ratio: np.ndarray, m: float, M: float) -> None:
    # generated f/g differs from the drawn ratio only by round-off, which
    # stayed below 1e-15*max(1, M) over 18,000 generated instances
    slack = 1e-12 * max(1.0, abs(M))
    # a NaN makes both ends NaN, which fails every comparison; an infinity
    # is an end
    lo, hi = float(ratio.min()), float(ratio.max())
    if not (-math.inf < lo and hi < math.inf) or lo < m - slack or hi > M + slack:
        raise ConstructionError(f"ratio sandwich [{m}, {M}] violated: observed [{lo}, {hi}]")


def _is_nondecreasing(vals: np.ndarray) -> bool:
    # max |v| without the abs array; the smallest step decides, and a NaN
    # step fails the comparison
    scale = max(1.0, float(max(vals.max(), -vals.min())))
    return bool((vals[1:] - vals[:-1]).min() >= -1e-12 * scale)


def _check_monotone(fv: np.ndarray, gv: np.ndarray) -> None:
    if not _is_nondecreasing(fv):
        raise ConstructionError("f must be non-decreasing")
    if not _is_nondecreasing(gv[::-1]):
        raise ConstructionError("g must be non-increasing")


def verify_hypotheses(instance: TestInstance) -> None:
    """Re-check the instance's own hypothesis on the dense sample.

    Raises ConstructionError when positivity, the ratio sandwich (on f/g,
    or f^p/g^q for the 4.2 form) or monotonicity (4.4) fails.
    """
    fv, gv = _sampled(instance.f, instance.g, instance.x)
    if instance.theorem_id == "4.4":
        _check_monotone(fv, gv)
        return
    if instance.m is None or instance.M is None:
        raise ConstructionError("ratio-sandwich instance is missing m or M")
    if instance.theorem_id == "4.2":
        ratio = fv ** instance.p / gv ** instance.q
    else:
        ratio = fv / gv
    _check_sandwich(ratio, instance.m, instance.M)


def make_ratio_pair(
    g_spec: FunctionSpec,
    ratio_spec: FunctionSpec,
    m: float,
    M: float,
    x_max: float = 1.0,
) -> tuple[FunctionSpec, FunctionSpec]:
    """Build f = ratio * g so that m <= f/g <= M holds by construction.

    The sandwich is still re-verified on the dense sample; an f/g that
    escapes [m, M] raises ConstructionError.
    """
    if not (0.0 < m <= M):
        raise DomainError(f"need 0 < m <= M, got m = {m!r}, M = {M!r}")
    f = ratio_spec * g_spec
    fv, gv = _sampled(f, g_spec, x_max)
    _check_sandwich(fv / gv, m, M)
    return f, g_spec


def _draw_tabulated(rng, x_max: float, lo: float, hi: float, order: int = 0) -> TabulatedFn:
    """Piecewise-linear draw through 0, three uniform breakpoints and x_max.

    Values are uniform on [lo, hi], sorted ascending for order 1 and
    descending for order -1.
    """
    # the sorted set of plain floats is np.unique's breakpoints, value for
    # value; both tuples keep numpy floats, as a row's repr shows them
    bp = np.array(sorted({0.0, x_max, *rng.uniform(0.0, x_max, 3).tolist()}))
    vals = rng.uniform(lo, hi, len(bp))
    if order:
        vals.sort()
        vals = vals[::order]
    return TabulatedFn(tuple(bp), tuple(vals))


def _draw_simple(rng: np.random.Generator, x_max: float) -> FunctionSpec:
    kind = rng.integers(0, 4)
    if kind == 0:
        return PowerFn(rng.uniform(0.3, 3.0), rng.uniform(0.0, 2.0))
    if kind == 1:
        return ExpFn(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
    if kind == 2:
        a0 = rng.uniform(0.2, 3.0)
        b0 = rng.uniform(-0.8 * a0 / x_max, 2.0)
        return AffineFn(a0, b0)
    return _draw_tabulated(rng, x_max, 0.3, 3.0)


def draw_positive_function(rng: np.random.Generator, x_max: float) -> FunctionSpec:
    """One positive function on (0, x_max], occasionally a two-term sum."""
    if rng.random() < 0.2:
        return SumFn((_draw_simple(rng, x_max), _draw_simple(rng, x_max)))
    return _draw_simple(rng, x_max)


def _draw_ratio_function(rng, x_max: float, m: float, M: float) -> FunctionSpec:
    """A function with range inside [m, M] on (0, x_max]."""
    kind = rng.integers(0, 5)
    if kind == 0:
        return AffineFn(rng.uniform(m, M), 0.0)
    if kind == 1:
        return AffineFn(m, (M - m) / x_max)
    if kind == 2:
        return AffineFn(M, -(M - m) / x_max)
    if kind == 3:
        pr = rng.uniform(0.5, 2.0)
        return SumFn((AffineFn(m, 0.0), PowerFn((M - m) / x_max ** pr, pr)))
    return _draw_tabulated(rng, x_max, m, M)


def _draw_monotone_pair(rng, x_max: float) -> tuple[FunctionSpec, FunctionSpec]:
    kind_f = rng.integers(0, 4)
    if kind_f == 0:
        f = PowerFn(rng.uniform(0.3, 3.0), rng.uniform(0.0, 2.0))
    elif kind_f == 1:
        f = ExpFn(rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.0))
    elif kind_f == 2:
        f = AffineFn(rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0))
    else:
        f = _draw_tabulated(rng, x_max, 0.3, 3.0, order=1)

    kind_g = rng.integers(0, 3)
    if kind_g == 0:
        g = ExpFn(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 0.0))
    elif kind_g == 1:
        a0 = rng.uniform(0.5, 3.0)
        g = AffineFn(a0, -rng.uniform(0.0, 0.8) * a0 / x_max)
    else:
        g = _draw_tabulated(rng, x_max, 0.3, 3.0, order=-1)
    return f, g


def make_monotone_pair(seed: int, x_max: float = 1.0) -> tuple[FunctionSpec, FunctionSpec]:
    """Seeded (non-decreasing f, non-increasing g), verified on the sample."""
    rng = np.random.default_rng((int(seed) & (2 ** 64 - 1), 77))
    f, g = _draw_monotone_pair(rng, x_max)
    _check_monotone(*_sampled(f, g, x_max))
    return f, g


def _draw_params(rng) -> OperatorParams:
    """Strict-window parameter draw.

    Rejects draws where alpha + beta + mu comes within 0.05 of zero or the
    gap eta - beta - mu within 0.02 of an integer; both regions are
    numerically delicate for no testing benefit.  A quarter of the draws
    pin k to an integer, where the lower panel's 2F1 argument t^(k+1)/2 is
    a polynomial in the rule's node variable t; for non-integer k it has a
    branch point at t = 0.
    """
    for _ in range(_MAX_TRIES):
        alpha = rng.uniform(0.3, 2.0)
        mu = rng.uniform(-0.5, 1.0)
        beta = rng.uniform(-1.0, 0.9)
        if alpha <= max(0.0, -beta - mu) + 0.05:
            continue
        eta = rng.uniform(beta - 1.0 + 0.05, -0.05)
        s = eta - beta - mu
        if abs(s - round(s)) < 0.02:
            continue
        k = float(rng.integers(0, 3)) if rng.random() < 0.25 else float(rng.uniform(0.0, 2.0))
        return OperatorParams(alpha, beta, eta, mu, k)
    raise GenerationError("parameter rejection sampling exhausted its retry budget")


def random_instance(seed: int, theorem_id: str) -> TestInstance:
    """Deterministic scenario for the given inequality, keyed by (seed, id)."""
    if theorem_id not in _THEOREM_KEYS:
        raise DomainError(f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}")
    rng = np.random.default_rng((int(seed) & (2 ** 64 - 1), _THEOREM_KEYS[theorem_id]))
    params = _draw_params(rng)
    x = float(rng.uniform(0.5, 3.0))

    p = float(rng.uniform(1.1, 4.0))
    q = p / (p - 1.0)
    if theorem_id == "4.4":
        gamma, delta = (float(v) for v in rng.uniform(0.5, 3.0, 2))
        m = M = p = q = None
    else:
        gamma = delta = None
        m, M = sorted(rng.uniform(0.2, 5.0, 2).tolist())
        if M - m < 0.05:
            M = m + 0.05

    for _ in range(_MAX_TRIES):
        if theorem_id == "4.4":
            f, g = _draw_monotone_pair(rng, x)
        else:
            g = draw_positive_function(rng, x)
            ratio = _draw_ratio_function(rng, x, m, M)
            # for 4.2 the sandwich binds f^p / g^q, so solve f from the ratio
            f = PowFn(ratio * PowFn(g, q), 1.0 / p) if theorem_id == "4.2" else ratio * g
        inst = TestInstance(theorem_id, params, f, g, m, M, p, q, gamma, delta, x, int(seed))
        try:
            verify_hypotheses(inst)
        except ConstructionError:
            continue
        return inst
    raise GenerationError(f"instance generation for {theorem_id} exhausted its retry budget")


def equality_instance(theorem_id: str, seed: int = 0) -> TestInstance:
    """The boundary scenario m = M = 1 with f = g (f = g = 1 where needed).

    For ids 3.1, 3.2, 4.1 any common function forces both sides equal; the
    Young-based bound 4.3 needs f = g = 1, and the monotone form 4.4 uses a
    constant pair (the only functions that are monotone both ways).
    """
    base = random_instance(seed, theorem_id)
    one = AffineFn(1.0, 0.0)
    if theorem_id == "4.4":
        return replace(base, f=one, g=one)
    if theorem_id == "4.3":
        return replace(base, f=one, g=one, m=1.0, M=1.0)
    if theorem_id == "4.2":
        f = PowFn(base.g, base.q / base.p)
        return replace(base, f=f, m=1.0, M=1.0)
    return replace(base, f=base.g, m=1.0, M=1.0)
