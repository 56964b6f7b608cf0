"""Real special functions on the ranges the integral operator reaches.

Covers log-gamma, the Pochhammer symbol, the Beta function and the Gauss
hypergeometric function 2F1 for real argument z in [0, 1].  Everything here
is pure and thread safe; the one state kept between calls is a cache of
series plans per parameter set, which holds no per-node arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from math import exp, fsum, log, pi, sin

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError

__all__ = [
    "log_gamma",
    "pochhammer",
    "beta",
    "gauss_2f1",
]

# Lanczos approximation, g = 607/128 with 15 coefficients (Godfrey's set).
# The plain evaluation tops out around 2e-13 relative error near x = 140;
# the double-double touch-up in log_gamma below brings the worst case on
# [0.1, 170] under 1e-13, which downstream tolerances rely on.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
# (i, c_i) for i >= 1, i as a float: z + i is the same sum either way
_LANCZOS_TERMS = tuple((float(i), c) for i, c in enumerate(_LANCZOS_C) if i)
_HALF_LOG_2PI = 0.91893853320467274178
# how close to a non-positive integer counts as a Gamma pole or a
# terminating 2F1 parameter
_INTEGER_TOL = 1e-12

_SERIES_CAP = 10000
_SERIES_RTOL = 1e-16
# most ratio rows formed at a time; the operator's z < 1/2 stop after 45-55
# terms, so a call takes one chunk, whose plan is cached per parameter set
_SERIES_CHUNK = 64
# the term indices 0, ..., _SERIES_CAP, whose slices are every chunk's n
# and n + 1 columns
_TERM_INDEX = np.arange(_SERIES_CAP + 1.0)
_TERM_INDEX.flags.writeable = False


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Exact product a*b as a head/tail pair (Dekker splitting).  Where
    the split of a overflows (a above about 1.34e300) the tail is 0.0."""
    p = a * b
    s = 134217729.0 * a
    if math.isinf(s):
        return p, 0.0
    ah = s - (s - a)
    al = a - ah
    s = 134217729.0 * b
    bh = s - (s - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _log_dd(t: float) -> tuple[float, float]:
    """log(t) to roughly double-double accuracy via one Newton residual.

    The residual r = t*exp(-hi) - 1 is itself formed from an exact product
    so the only rounding left is the ulp of exp; the caller multiplies r by
    x - 1/2, which would otherwise amplify a sloppy residual past 1e-13.
    """
    hi = log(t)
    ph, pl = _two_prod(t, exp(-hi))
    return hi, (ph - 1.0) + pl


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    The relative error of exp(log_gamma(x)) stays below 1e-13 on
    [0.1, 170].  The dominant rounding hazard is the (z + 1/2) * log(t)
    product for large x, so that term is carried as a head/tail pair and
    the pieces are combined with an exact sum.  Subnormal x and x up to
    about 2.5e305 get finite values; beyond that the value is inf.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return _log_gamma_unchecked(x)


def _log_gamma_unchecked(x: float) -> float:
    """log |Gamma(x)| for any non-pole real x."""
    if x == 1.0 or x == 2.0:
        return 0.0
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x); the quotient
        # overflows only for |x| below about 1.7e-308, where sin(pi x) is
        # pi x in double precision
        q = pi / abs(sin(pi * x))
        return (log(q) if q != math.inf else -log(abs(x))) - _log_gamma_unchecked(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i, c in _LANCZOS_TERMS:
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    lhi, llo = _log_dd(t)
    p, pe = _two_prod(z + 0.5, lhi)
    return fsum([p, pe, (z + 0.5) * llo, -t, _HALF_LOG_2PI, log(acc)])


def _is_integer(value) -> bool:
    """value is an int or a numpy integer, and not a bool, which would
    pass for 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_nonpositive_integer(v: float) -> bool:
    return v < 0.5 and abs(v - round(v)) < _INTEGER_TOL


def _signed_log_gamma(x: float) -> tuple[float, float]:
    """(log |Gamma(x)|, sign of Gamma(x)) for any non-pole real x.

    Needed by the operator's connection-formula split, where Gamma is
    evaluated at negative non-integer arguments.
    """
    if not math.isfinite(x) or _is_nonpositive_integer(x):
        raise DomainError(f"Gamma pole or invalid argument: {x!r}")
    return _log_gamma_unchecked(x), (1.0 if x > 0.0 or sin(pi * x) > 0.0 else -1.0)


def _signed_log_rgamma(x: float) -> tuple[float, float]:
    """(log |1/Gamma(x)|, sign) with (-inf, 0.0) at the poles of Gamma.

    1/Gamma is entire, so this is total on the reals; the zero sign at
    non-positive integers lets connection coefficients vanish cleanly
    instead of raising.
    """
    if not math.isfinite(x):
        raise DomainError(f"invalid argument: {x!r}")
    if _is_nonpositive_integer(x):
        return -math.inf, 0.0
    if x > 0.0:
        return -_log_gamma_unchecked(x), 1.0
    s = sin(pi * x)
    return log(abs(s)) + _log_gamma_unchecked(1.0 - x) - log(pi), (1.0 if s > 0.0 else -1.0)


def gamma_ratio(p: float, q: float, r: float, t: float) -> tuple[float, float]:
    """(sign, log |Gamma(p) Gamma(q) / (Gamma(r) Gamma(t))|) for non-pole p, q.

    The connection coefficients C1 and C2 of _connection are such ratios.
    A pole of Gamma at r or t gives sign 0.0.  The reciprocal factors are
    summed first, so the result is exact under r <-> t (a <-> b).
    """
    return _gamma_ratio_from(*_signed_log_gamma(p), q, r, t)


def _gamma_ratio_from(lg_p: float, s_p: float, q: float, r: float, t: float) -> tuple[float, float]:
    """gamma_ratio(p, q, r, t) given (log |Gamma(p)|, its sign), for a
    caller that has them already."""
    lg_q, s_q = _signed_log_gamma(q)
    lr_r, s_r = _signed_log_rgamma(r)
    lr_t, s_t = _signed_log_rgamma(t)
    return s_p * s_q * (s_r * s_t), lg_p + lg_q + (lr_r + lr_t)


def _connection(a: float, b: float, c: float, s: float, lg_c: float, sign_c: float):
    """The two branches of the 2F1 connection formula at 1 - w (DLMF 15.8.4),

        F(a,b;c;1-w) = C1 F(a,b;1-s;w) + C2 w^s F(c-a,c-b;1+s;w)

    with C1 = Gamma(c)Gamma(s)/(Gamma(c-a)Gamma(c-b)) and
    C2 = Gamma(c)Gamma(-s)/(Gamma(a)Gamma(b)), given s = c - a - b
    (non-integer) and (log |Gamma(c)|, its sign): one (sign, log |C|, 2F1
    parameters) per branch.  A branch whose C has a reciprocal Gamma at a
    pole has sign 0.0.
    """
    sign1, log_c1 = _gamma_ratio_from(lg_c, sign_c, s, c - a, c - b)
    sign2, log_c2 = _gamma_ratio_from(lg_c, sign_c, -s, a, b)
    return (sign1, log_c1, (a, b, 1.0 - s)), (sign2, log_c2, (c - a, c - b, 1.0 + s))


def pochhammer(a: float, n: int) -> float:
    """Rising factorial a (a+1) ... (a+n-1), with the empty product for n = 0."""
    if not _is_integer(n) or n < 0:
        raise DomainError(f"pochhammer requires a non-negative integer n, got {n!r}")
    result = 1.0
    for i in range(n):
        result *= a + i
    return result


def beta(p: float, q: float) -> float:
    """Beta function Gamma(p) Gamma(q) / Gamma(p+q) for p, q > 0."""
    if not (math.isfinite(p) and math.isfinite(q)) or p <= 0.0 or q <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({p!r}, {q!r})")
    return exp(_log_gamma_unchecked(p) + _log_gamma_unchecked(q) - _log_gamma_unchecked(p + q))


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) on z in [0, 1].

    For z in (0.9, 1) with a positive, non-integer gap s = c - a - b the
    sum is rearranged through the 1-z connection formula, which keeps the
    number of terms small near z = 1.  At z = 1 the Gauss summation value
    is returned (requires s > 0).  Accuracy degrades
    to roughly 1e-13/|s - nearest integer| in the transformed region; the
    rearrangement is skipped within 1e-3 of an integer gap.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not math.isfinite(v):
            raise DomainError(f"gauss_2f1 argument {name} is not finite: {v!r}")
    if _is_nonpositive_integer(c):
        raise DomainError(f"gauss_2f1 pole: c = {c!r} is a non-positive integer")
    if z < 0.0 or z > 1.0:
        raise DomainError(f"gauss_2f1 requires 0 <= z <= 1, got {z!r}")

    s = c - (a + b)
    terminating = _is_nonpositive_integer(a) or _is_nonpositive_integer(b)
    if z == 1.0 and not terminating:
        if s <= 0.0:
            raise DivergenceError(
                f"2F1(a, b; c; 1) diverges for c-a-b <= 0 (got c-a-b = {s})"
            )
        # Gauss summation: the value is C1 alone, and is 0 when c-a or c-b
        # is a pole of Gamma.  C2 is not formed: Gamma(-s) has a pole at an
        # integer gap.
        sign, log_c1 = gamma_ratio(c, s, c - a, c - b)
        return sign * exp(log_c1) if sign != 0.0 else 0.0

    if z > 0.9 and s > 0.0 and not terminating and abs(s - round(s)) >= 1e-3:
        return _connected_2f1(a, b, c, s, 1.0 - z)
    return float(_series_2f1_vec(a, b, c, z)[0])


def _connected_2f1(a: float, b: float, c: float, s: float, w: float) -> float:
    """2F1(a, b; c; 1 - w) via the two series in powers of w of _connection."""
    (sign1, log_c1, abc1), (sign2, log_c2, abc2) = _connection(a, b, c, s, *_signed_log_gamma(c))
    total = 0.0
    if sign1 != 0.0:
        total += sign1 * exp(log_c1) * float(_series_2f1_vec(*abc1, w)[0])
    if sign2 != 0.0:
        total += sign2 * exp(log_c2 + s * log(w)) * float(_series_2f1_vec(*abc2, w)[0])
    return total


def _series_2f1_vec(a, b, c, z, sizes=None) -> np.ndarray:
    """Direct power series with the term-ratio recurrence, for one or more
    parameter blocks in one pass.

    a, b, c are floats and z the arguments (one block), or a, b, c are
    equal-length sequences, one entry per block, z one flat array of every
    block's arguments, block after block, and sizes the blocks' lengths.
    Every block holds at least one argument, and every argument is >= 0.
    Returns one flat array of the values, in the order of z.

    Each block's term ratios are formed as fl(r_n * z), r_n = (a+n)(b+n) /
    ((c+n)(n+1)), for every block at once: the (terms x blocks) table of
    r_n, each column repeated over its block's elements, times the flat z.
    The sweep stops at the first term at which every element's term is
    within 1e-16 of its own partial sum, so an element with a small total
    is never cut short by a larger neighbour.  That can only happen at a
    term where the test passes at every block's largest z, whose terms fall
    off last; the terms and sums of those elements are formed ahead, bit
    for bit as the sweep forms them, and each chunk of at most
    _SERIES_CHUNK ratio rows ends at the first such term, the only one at
    which all elements are tested.  The first chunk's plan (its r_n rows
    and that lookahead) depends only on each block's (a, b, c) and largest
    z, so it comes from _first_chunk, cached per parameter set.

    A chunk's terms are one in-place product chain down its rows (each row
    times the one before), and the sums one add.reduce down the rows,
    which adds them in series order, one row after another, whenever a row
    holds two or more elements; a call of one element keeps a term-by-term
    sweep (term *= ratio; total += term), since numpy adds a single column
    pairwise.  So every sum adds its terms in series order.  On z <= 1/2
    the terms past an element's own stop are below half an ulp of its sum,
    so a block's values do not depend on the other blocks of the call.
    Raises after 10000 terms.
    """
    flat = np.ravel(z)
    if sizes is None:
        a, b, c, sizes = (a,), (b,), (c,), (flat.size,)
    ends = list(accumulate(sizes))
    widest = np.maximum.reduceat(flat, [0, *ends[:-1]])  # z >= 0: the largest
    ratios, may_stop, ahead = _first_chunk(tuple(a), tuple(b), tuple(c), tuple(widest.tolist()))
    if flat.size == 1:
        term, total = np.ones((2, 1))
    start = 0
    while True:
        rz = np.repeat(ratios, sizes, axis=1)
        rz *= flat
        if flat.size == 1:
            for ratio in rz:
                term *= ratio
                total += term
        else:
            # the first chunk's term 0 is the exact 1.0, so it multiplies
            # nothing and adds 1.0 to the first row
            rows = list(rz)
            if start:
                rows[0] *= term
            for prev, cur in zip(rows, rows[1:]):
                cur *= prev
            term = rows[-1].copy()
            rows[0] += total if start else 1.0
            total = np.add.reduce(rz, axis=0)
        if may_stop and (np.abs(term) <= _SERIES_RTOL * np.abs(total)).all():
            return total
        start += ratios.shape[0]
        if start >= _SERIES_CAP:
            break
        ratios, may_stop, ahead = _plan_chunk(np.array((a, b, c), dtype=float), widest, start, *ahead)
    # the block of the first element still short of the stop
    k = np.searchsorted(ends, (~(np.abs(term) <= _SERIES_RTOL * np.abs(total))).argmax(), "right")
    raise ConvergenceError(
        f"2F1 series did not converge within {_SERIES_CAP} terms "
        f"(a={a[k]}, b={b[k]}, c={c[k]}, max z={widest[k]})"
    )


def _plan_chunk(abc, widest, start, wide_term, wide_total):
    """(r_n rows, stop candidate?, lookahead) of the chunk from term start:
    the rows up to and including the first term at which every block's
    largest z passes the stop test, or _SERIES_CHUNK rows (fewer at the
    cap) if none does.  The lookahead goes on from the largest z's term and
    partial sum before start and returns them at the chunk's last row, one
    (2 x blocks) array; it and the (rows x blocks) r_n rows are read-only,
    and nothing else of the lookahead is kept.  The n and n + 1 columns
    are views of one read-only row of term indices, so a plan (a miss of
    _first_chunk for each fresh parameter set) forms neither."""
    stop = min(start + _SERIES_CHUNK, _SERIES_CAP)
    n, n_plus_1 = _TERM_INDEX[start:stop, None], _TERM_INDEX[start + 1:stop + 1, None]
    a, b, c = abc
    ratios = (a + n) * (b + n) / ((c + n) * n_plus_1)
    ratios.flags.writeable = False
    wide = np.empty((2, *ratios.shape))
    wide_terms, wide_sums = wide
    np.multiply(ratios, widest, out=wide_terms)
    wide_terms[0] *= wide_term
    np.multiply.accumulate(wide_terms, out=wide_terms)
    wide_sums[...] = wide_terms
    wide_sums[0] += wide_total
    np.add.accumulate(wide_sums, out=wide_sums)
    may_stop = (np.abs(wide_terms) <= _SERIES_RTOL * np.abs(wide_sums)).all(axis=1)
    rows = may_stop.argmax() + 1 if may_stop.any() else n.size
    ahead = wide[:, rows - 1].copy()
    ahead.flags.writeable = False
    return ratios[:rows], bool(may_stop[rows - 1]), ahead


@lru_cache(maxsize=128)
def _first_chunk(a, b, c, widest):
    """_plan_chunk from term 0, for blocks (a, b, c) tuples with largest z
    widest, kept like the rules.  +0.0 and -0.0 are one key: n starts at
    +0.0, so a + n and b + n are the same either way."""
    return _plan_chunk(np.array((a, b, c), dtype=float), np.array(widest), 0, 1.0, 1.0)
