import hashlib
import importlib.machinery
import itertools
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

import hyperk
from hyperk import (
    DomainError,
    EvaluationError,
    beta,
    gauss_jacobi_rule,
    integrate,
)
from hyperk import quadrature
from hyperk.inequalities import _suite_row
from hyperk.quadrature import MAX_ORDER, JacobiRule, split_rule
from hyperk.testfuncs import THEOREM_IDS

EXPONENT_GRID = [-0.5, 0.0, 0.5, 1.0]


def test_order_one_legendre_is_midpoint():
    rule = gauss_jacobi_rule(0.0, 0.0, 1)
    assert rule.nodes.tolist() == [0.5]
    assert rule.weights.tolist() == [1.0]


def test_order_two_legendre():
    rule = gauss_jacobi_rule(0.0, 0.0, 2)
    off = 1.0 / (2.0 * math.sqrt(3.0))
    assert rule.nodes == pytest.approx([0.5 - off, 0.5 + off], rel=1e-14)
    assert rule.weights == pytest.approx([0.5, 0.5], rel=1e-14)


def test_moments_half_singular_rule():
    # weight u^0.25 (1-u)^-0.5 at order 8: moments up to degree 15
    rule = gauss_jacobi_rule(-0.5, 0.25, 8)
    for j in range(16):
        got = float(np.sum(rule.weights * rule.nodes**j))
        want = beta(1.25 + j, 0.5)
        assert got == pytest.approx(want, rel=1e-12), f"moment {j}"


@pytest.mark.parametrize("a_exp", EXPONENT_GRID)
@pytest.mark.parametrize("b_exp", EXPONENT_GRID)
def test_random_polynomial_exactness(a_exp, b_exp):
    """Degree <= 2n-1 polynomials integrate to their beta-moment value."""
    rng = np.random.default_rng(42)
    for order in (4, 16):
        rule = gauss_jacobi_rule(a_exp, b_exp, order)
        coeffs = rng.uniform(-1.0, 1.0, size=2 * order)
        got = integrate(rule, lambda u: np.polynomial.polynomial.polyval(u, coeffs))
        want = sum(c * beta(b_exp + 1 + j, a_exp + 1) for j, c in enumerate(coeffs))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def recurrence_loop(a, b, order):
    """The Jacobi recurrence entry by entry, as gauss_jacobi_rule builds it."""
    apb = a + b
    diag = np.empty(order)
    off = np.empty(order - 1)
    diag[0] = (b - a) / (apb + 2.0)
    for j in range(1, order):
        diag[j] = (b * b - a * a) / ((2.0 * j + apb) * (2.0 * j + apb + 2.0))
    off[0] = math.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0)))
    for j in range(2, order):
        num = 4.0 * j * (j + a) * (j + b) * (j + apb)
        den = (2.0 * j + apb) ** 2 * (2.0 * j + apb + 1.0) * (2.0 * j + apb - 1.0)
        off[j - 1] = math.sqrt(num / den)
    return diag, off


@pytest.mark.parametrize("a_exp,b_exp", [
    (0.0, 0.0), (0.5, -0.5), (-0.5, -0.5), (0.0, -0.95), (-0.25, 0.75), (2.0, 3.0),
])
def test_rules_match_loop_recurrence(a_exp, b_exp):
    """Same arithmetic as the loop, so nodes and weights are bit-identical,
    at a + b = 0 and a + b = -1 (closed-form first entries) too.  The zeroth
    moment is 1 / (b + 1) in closed form at a = 0."""
    moment0 = 1.0 / (b_exp + 1.0) if a_exp == 0.0 else beta(b_exp + 1.0, a_exp + 1.0)
    for order in (2, 3, 64, 128):
        rule = gauss_jacobi_rule(a_exp, b_exp, order)
        vals, vecs = eigh_tridiagonal(*recurrence_loop(a_exp, b_exp, order))
        assert np.array_equal(rule.nodes, (vals + 1.0) / 2.0)
        assert np.array_equal(rule.weights, moment0 * vecs[0, :] ** 2)


@pytest.mark.parametrize("b_exp", [-0.95, -0.5, 0.0, 2.0, 3.0])
def test_moments_at_operator_order(b_exp):
    """Order-128 rules with a_exp = 0, as the operator builds them, integrate
    u^j exactly (1e-10 relative) for j <= 255, b_exp near -1 included."""
    rule = gauss_jacobi_rule(0.0, b_exp, 128)
    for j in range(256):
        got = float(rule.weights @ rule.nodes**j)
        want = 1.0 / (b_exp + j + 1.0)
        assert abs(got - want) <= 1e-10 * want, f"moment {j}"


def test_convergence_on_smooth_integrands():
    integrands = [
        (np.exp, math.e - 1.0),
        (lambda u: 1.0 / (1.0 + u), math.log(2.0)),
    ]
    for fn, exact in integrands:
        errs = {n: abs(integrate(gauss_jacobi_rule(0.0, 0.0, n), fn) - exact)
                for n in (4, 8, 16, 32, 64)}
        for n in (4, 8, 16, 32):
            # one ulp of slack once both sit on the roundoff floor
            assert errs[2 * n] <= errs[n] + 1e-15 * abs(exact)


def test_node_interlacing():
    for a_exp, b_exp in [(0.0, 0.0), (-0.5, 0.25), (1.0, -0.5)]:
        for n in (1, 2, 5, 11, 33):
            lo = gauss_jacobi_rule(a_exp, b_exp, n).nodes
            hi = gauss_jacobi_rule(a_exp, b_exp, n + 1).nodes
            for i in range(n):
                assert hi[i] < lo[i] < hi[i + 1]


def test_weight_sum_matches_zeroth_moment():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a_exp = float(rng.uniform(-0.9, 2.0))
        b_exp = float(rng.uniform(-0.9, 2.0))
        order = int(rng.integers(1, 80))
        rule = gauss_jacobi_rule(a_exp, b_exp, order)
        assert float(np.sum(rule.weights)) == pytest.approx(
            beta(b_exp + 1.0, a_exp + 1.0), rel=1e-12)
        assert np.all(rule.weights > 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 1.0


def test_failed_eigensolve_raises(monkeypatch):
    stevd = quadrature._stevd

    def failing(diag, off, **kwargs):
        vals, vecs, _ = stevd(diag, off, **kwargs)
        return vals, vecs, 1

    monkeypatch.setattr(quadrature, "_stevd", failing)
    with pytest.raises(np.linalg.LinAlgError):
        gauss_jacobi_rule(0.0, 0.3, 16)


IMPORT_PROBE = """
import sys
import hyperk, hyperk.cli
from hyperk import AffineFn, OperatorParams, apply_operator, gauss_jacobi_rule
gauss_jacobi_rule(0.0, 0.3, 16)
apply_operator(OperatorParams(alpha=0.7, beta=0.1, eta=-0.3, mu=0.2, k=1.0),
               AffineFn(1.0, 0.5), x=2.0)
print("scipy.linalg" in sys.modules)
"""


def _run_probe(probe):
    src = os.path.dirname(os.path.dirname(hyperk.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_scipy_linalg_is_never_imported():
    """A fresh interpreter that imports the package and the CLI, builds a
    rule and applies the operator never loads the scipy.linalg package, nor
    the top-level scipy package, eagerly or on first use; dstevd comes from
    its compiled module alone."""
    out = _run_probe(IMPORT_PROBE + 'print("scipy" in sys.modules)\n')
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


def test_scipy_linalg_imported_later_holds_flapack():
    """Loading the compiled module leaves no sys.modules entry without its
    package, so a caller that imports scipy.linalg afterwards finds its
    _flapack attribute, and the extension was not initialized again: it
    hands out the very dstevd that the rules use."""
    probe = IMPORT_PROBE + (
        "import scipy.linalg\n"
        "from hyperk import quadrature\n"
        "print(scipy.linalg._flapack.dstevd is quadrature._stevd)\n"
    )
    out = _run_probe(probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]


def test_scipy_linalg_imported_first_keeps_flapack():
    """Where scipy.linalg was imported before the package, its _flapack
    entry in sys.modules is its own and stays, and dstevd is its dstevd."""
    probe = (
        "import sys, scipy.linalg\n"
        "from hyperk import quadrature\n"
        'print("scipy.linalg._flapack" in sys.modules)\n'
        "print(scipy.linalg._flapack.dstevd is quadrature._stevd)\n"
    )
    out = _run_probe(probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True"]


def test_process_pool_is_never_imported_serially():
    """The same fresh interpreter never loads concurrent.futures or
    multiprocessing: run_suite imports its process pool only when it starts
    more than one worker."""
    probe = IMPORT_PROBE + 'print("concurrent.futures" in sys.modules, "multiprocessing" in sys.modules)\n'
    out = _run_probe(probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "False"]


@pytest.mark.parametrize("order", [16, 64, 128])
@pytest.mark.parametrize("b_exp", [-0.95, 0.3, 3.0])
def test_stevd_matches_get_lapack_funcs(order, b_exp):
    """The directly loaded dstevd gives what scipy.linalg's own lookup
    gives, bit for bit, on the operator's Jacobi matrices."""
    reference = get_lapack_funcs("stevd", dtype=np.float64)
    diag, off = recurrence_loop(0.0, b_exp, order)
    got = quadrature._stevd(diag.copy(), off.copy(), overwrite_d=1, overwrite_e=1)
    want = reference(diag.copy(), off.copy(), overwrite_d=1, overwrite_e=1)
    assert got[2] == want[2] == 0
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_flapack_falls_back_to_the_ordinary_import(tmp_path, monkeypatch):
    """Directories without the extension give scipy.linalg._flapack as the
    package imports it, and rules solved through it are today's, bit for bit."""
    from scipy.linalg import _flapack

    assert quadrature._load_flapack([str(tmp_path)]) is _flapack
    cases = [(0.0, -0.95, 64), (0.0, 0.3, 16), (-0.5, 0.5, 33), (2.0, 3.0, 128)]
    want = [gauss_jacobi_rule(*case) for case in cases]
    monkeypatch.setattr(quadrature, "_stevd", _flapack.dstevd)
    for case, rule in zip(cases, want):
        got = gauss_jacobi_rule(*case)
        assert np.array_equal(got.nodes, rule.nodes)
        assert np.array_equal(got.weights, rule.weights)



def _scipy_on_no_plain_path_entry(tmp_path, monkeypatch):
    """PathFinder finds no scipy on sys.path, as for an editable install."""
    find_spec = importlib.machinery.PathFinder.find_spec
    monkeypatch.setattr(
        importlib.machinery.PathFinder, "find_spec",
        lambda name, path=None, target=None:
            None if name == "scipy" else find_spec(name, path, target))
    return None


def _flapack_that_does_not_load(tmp_path, monkeypatch):
    """A path entry whose scipy/linalg holds a _flapack extension file that
    raises ImportError when loaded, under __init__ files that must not run."""
    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("raise RuntimeError('scipy ran')\n")
    (linalg / "__init__.py").write_text("raise RuntimeError('scipy.linalg ran')\n")
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    (linalg / f"_flapack{suffix}").write_bytes(b"not a shared object")
    return [str(tmp_path)]


@pytest.mark.parametrize("setup", [_scipy_on_no_plain_path_entry, _flapack_that_does_not_load])
def test_flapack_fallback_cases(setup, tmp_path, monkeypatch):
    """Where the standalone load finds no scipy or fails, _load_flapack gives
    scipy.linalg._flapack as the package imports it, and rules solved
    through it are today's, bit for bit."""
    from scipy.linalg import _flapack

    cases = [(0.0, -0.95, 64), (0.0, 0.3, 16), (-0.5, 0.5, 33), (2.0, 3.0, 128)]
    want = [gauss_jacobi_rule(*case) for case in cases]
    flapack = quadrature._load_flapack(setup(tmp_path, monkeypatch))
    assert flapack is _flapack
    monkeypatch.setattr(quadrature, "_stevd", flapack.dstevd)
    for case, rule in zip(cases, want):
        got = gauss_jacobi_rule(*case)
        assert np.array_equal(got.nodes, rule.nodes)
        assert np.array_equal(got.weights, rule.weights)


def _set(array, index, value):
    """A corruption of a rule's (nodes, weights): one entry of one array set."""
    def corrupt(nodes, weights):
        (nodes if array == "nodes" else weights)[index] = value
        return nodes, weights
    return corrupt


def _repeat_node(nodes, weights):
    nodes[2] = nodes[3]
    return nodes, weights


@pytest.mark.parametrize("corrupt,message", [
    (_set("nodes", 0, 0.0), "inside"),
    (_set("nodes", -1, 1.0), "inside"),
    # a NaN node fails whichever node check meets it first
    (_set("nodes", 3, math.nan), "inside|increasing"),
    (_repeat_node, "increasing"),
    (lambda n, w: (n[::-1].copy(), w), "increasing"),
    (_set("weights", 1, 0.0), "positive"),
    (_set("weights", 4, math.nan), "positive"),
    (lambda n, w: (n, w * (1.0 + 1e-9)), "moment"),
    (lambda n, w: (n[:-1], w[:-1]), "length"),
], ids=["node-at-0", "node-at-1", "nan-node", "repeated-node", "decreasing-nodes",
        "zero-weight", "nan-weight", "weight-sum", "shape"])
def test_jacobi_rule_rejects_bad_arrays(corrupt, message):
    rule = gauss_jacobi_rule(0.0, 0.5, 8)
    assert JacobiRule(0.0, 0.5, 8, rule.nodes.copy(), rule.weights.copy()).order == 8
    with pytest.raises(DomainError, match=message):
        JacobiRule(0.0, 0.5, 8, *corrupt(rule.nodes.copy(), rule.weights.copy()))


def test_rules_are_frozen():
    rule = gauss_jacobi_rule(-0.25, 0.75, 12)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.1


def test_integrate_constant_and_square():
    for n in (1, 2, 7):
        assert integrate(gauss_jacobi_rule(0.0, 0.0, n), lambda u: np.ones_like(u)) \
            == pytest.approx(1.0, rel=1e-14)
    assert integrate(gauss_jacobi_rule(0.0, 0.0, 2), lambda u: u**2) \
        == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_integrate_exponential_against_reference():
    # int_0^1 e^u (1-u)^{-1/2} du, reference by adaptive quadrature
    with mp.workdps(30):
        want = float(mp.quad(lambda u: mp.e**u / mp.sqrt(1 - u), [0, 1]))
    got = integrate(gauss_jacobi_rule(-0.5, 0.0, 16), np.exp)
    assert got == pytest.approx(want, rel=1e-12)


def test_evaluation_error_carries_node():
    rule = gauss_jacobi_rule(0.0, 0.0, 4)

    def blows_up(u):
        return np.where(u > 0.5, np.inf, 1.0)

    with pytest.raises(EvaluationError) as exc_info:
        integrate(rule, blows_up)
    node = exc_info.value.node
    assert node in rule.nodes.tolist()
    assert node > 0.5


def test_overflowing_sum_raises_without_a_node():
    """1.7e308 is finite at every node, but the weights sum to
    B(0.1, 1) = 10, so the sum overflows: the error names no node, and no
    floating-point warning is raised on the way."""
    with pytest.raises(EvaluationError, match="integral is not finite") as exc_info:
        integrate(gauss_jacobi_rule(0.0, -0.9, 8), lambda u: np.full_like(u, 1.7e308))
    assert exc_info.value.node is None


@pytest.mark.parametrize(
    "a_exp,b_exp,order",
    [
        (-1.0, 0.0, 4),
        (0.0, -1.5, 4),
        (0.0, 0.0, 0),
        (0.0, 0.0, -3),
        (0.0, 0.0, MAX_ORDER + 1),
    ],
)
def test_rule_domain_errors(a_exp, b_exp, order):
    with pytest.raises(DomainError):
        gauss_jacobi_rule(a_exp, b_exp, order)


def test_rule_rejects_non_integer_order():
    with pytest.raises(DomainError):
        gauss_jacobi_rule(0.0, 0.0, 2.5)


SPLIT_EXPONENTS = [-0.95, -0.5, 0.0, 2.0, 3.0]
SPLIT_CUTS = [(), (0.01,), (0.4, 0.7), (0.1, 0.3, 0.55, 0.8)]


def split_levels(b_exp, order, cuts=(), depths=(0, 1)):
    """A one-panel split_rule's (nodes, weights) at each depth, read through
    its spans."""
    nodes, weights, (spans,) = split_rule(((b_exp, cuts),), order, depths)
    return [tuple(np.concatenate((array[a:b], array[c:d])) for array in (nodes, weights))
            for a, b, c, d in spans]


def split_moment_errors(b_exp, cuts, degrees, depth=1):
    nodes, weights = split_levels(b_exp, 64, cuts)[depth]
    return [abs(float(weights @ nodes ** j) * (b_exp + j + 1.0) - 1.0) for j in degrees]


@pytest.mark.parametrize("b_exp", SPLIT_EXPONENTS)
def test_split_rule_without_cuts_halves_the_interval(b_exp):
    """At depth 0 and 1 the order-32 rule scaled onto [0, 4^-(depth+1)]
    comes first, then two 12-node Legendre panels [1/16, 1/8] and [1/8, 1/4]
    at depth 1, then 64 Legendre nodes on [1/4, 1]; t^b moments stay exact
    to degree 127.  Both levels come from one call, which holds the
    depth-0 layout once, as the depth-1 layout's tail."""
    rule = gauss_jacobi_rule(0.0, b_exp, 32)
    assert split_rule(((b_exp, ()),), 64, (0, 1))[0].size == 2 * 32 + 24 + 64
    for depth, (nodes, weights) in enumerate(split_levels(b_exp, 64)):
        h = 0.25 ** (depth + 1)
        assert nodes.size == weights.size == 32 + 24 * depth + 64
        assert np.array_equal(nodes[:32], h * rule.nodes)
        assert np.array_equal(weights[:32], h ** (b_exp + 1.0) * rule.weights)
        assert nodes[32] > h and nodes[-65] < 0.25 < nodes[-64]
        assert max(split_moment_errors(b_exp, (), range(128), depth)) <= 1e-12


@pytest.mark.parametrize("depths", [(0,), (1,), (0, 1), (0, 1, 2)])
@pytest.mark.parametrize("cuts", SPLIT_CUTS)
@pytest.mark.parametrize("b_exp", SPLIT_EXPONENTS)
def test_split_rule_levels_equal_their_depths_built_alone(b_exp, cuts, depths):
    """Each level read through the spans is, bit for bit, its depth built
    alone: the order-32 Jacobi rule on [0, h] ahead of the depth's own
    Legendre layout on [h, 1], uncut at depth 0.  The arrays hold no
    element twice, and every element belongs to some level."""
    rule = gauss_jacobi_rule(0.0, b_exp, 32)
    for depth, level in zip(depths, split_levels(b_exp, 64, cuts, depths), strict=True):
        h, t, w = quadrature._panel_layout(64, cuts if depth else (), depth)
        alone = (np.concatenate((h * rule.nodes, t)),
                 np.concatenate((h ** (b_exp + 1.0) * rule.weights, w * t ** b_exp)))
        for got, want in zip(level, alone):
            assert got.tobytes() == want.tobytes(), depth
    nodes, weights, (spans,) = split_rule(((b_exp, cuts),), 64, depths)
    assert nodes.size == weights.size == np.unique(nodes).size
    assert {i for a, b, c, d in spans for i in (*range(a, b), *range(c, d))} == set(range(nodes.size))


@pytest.mark.parametrize("depths", [(0, 1), (0, 1, 2)])
def test_split_rule_panels_equal_each_panel_built_alone(depths):
    """One call over many panels holds each panel's arrays, bit for bit as
    a call of that panel alone, after the panels before it, with the spans
    that call gives."""
    panels = tuple(itertools.product(SPLIT_EXPONENTS, SPLIT_CUTS))
    nodes, weights, spans = split_rule(panels, 64, depths)
    start = 0
    for panel, panel_spans in zip(panels, spans, strict=True):
        alone = split_rule((panel,), 64, depths)
        assert panel_spans == alone[2][0]
        stop = start + alone[0].size
        assert stop == start + max(d for _, _, _, d in panel_spans)
        for got, want in zip((nodes[start:stop], weights[start:stop]), alone):
            assert got.tobytes() == want.tobytes(), panel
        start = stop
    assert nodes.size == weights.size == start


@pytest.mark.parametrize("cuts", SPLIT_CUTS[1:])
@pytest.mark.parametrize("b_exp", SPLIT_EXPONENTS)
def test_split_rule_moments_with_cuts(b_exp, cuts):
    # a cut at 0.01 leaves [0.01, 1] to the Legendre panels; t^-0.95 stays
    # resolved only because they are graded dyadically up to 1/4
    assert max(split_moment_errors(b_exp, cuts, range(16))) <= 1e-12


@pytest.mark.parametrize("cuts", SPLIT_CUTS)
@pytest.mark.parametrize("b_exp", SPLIT_EXPONENTS)
def test_split_rule_nodes_increase_inside_the_interval(b_exp, cuts):
    for nodes, weights in split_levels(b_exp, 64, cuts):
        assert 0.0 < nodes[0] and nodes[-1] < 1.0
        assert np.all(np.diff(nodes) > 0.0)
        assert np.all(weights > 0.0)


@pytest.mark.parametrize("cuts", SPLIT_CUTS[1:])
@pytest.mark.parametrize("b_exp", SPLIT_EXPONENTS)
def test_split_rule_integrates_kinks_at_its_cuts(b_exp, cuts):
    """t^b |t - c| has its kink on a panel edge, so it integrates exactly."""
    nodes, weights = split_levels(b_exp, 64, cuts)[1]
    b1, b2 = b_exp + 1.0, b_exp + 2.0
    for c in cuts:
        want = (2.0 * c ** b2 / b1 - 2.0 * c ** b2 / b2 + 1.0 / b2 - c / b1)
        assert float(weights @ np.abs(nodes - c)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("b_exp", [-0.9, -0.5, 0.3, 2.0, 4.0])
def test_half_order_rule_a_level_deeper_keeps_the_leading_error(b_exp):
    """split_rule's premise: on t^lambda e^-t against t^b, the order-n/2
    rule on [0, h/4] has the leading error of the order-n rule on [0, h].
    An order-m rule errs by about c h^gamma N^(-2 gamma), gamma = 1 + b +
    lambda, with N = m + (b + 1)/2 the order its nodes' Bessel asymptotics
    see; c agrees within 10% between the two, and the half-order rule is
    no less accurate."""
    n, h = 24, 1.0

    def error(order, width, lam):
        rule = gauss_jacobi_rule(0.0, b_exp, order)
        t = width * rule.nodes
        got = width ** (b_exp + 1.0) * float(rule.weights @ (t ** lam * np.exp(-t)))
        with mp.workdps(30):
            return got - float(mp.gammainc(b_exp + lam + 1.0, 0, width))

    for lam in (0.1, 0.78, 1.3):
        gamma = 1.0 + b_exp + lam
        full, half = error(n, h, lam), error(n // 2, h / 4.0, lam)
        lead_full = full * (n + (b_exp + 1.0) / 2.0) ** (2.0 * gamma) / h ** gamma
        lead_half = half * (n / 2.0 + (b_exp + 1.0) / 2.0) ** (2.0 * gamma) / (h / 4.0) ** gamma
        assert abs(lead_half / lead_full - 1.0) <= 0.1, lam
        assert abs(half) <= abs(full), lam


@pytest.mark.parametrize("cuts", [(0.0,), (0.5, 1.0), (-0.2,)])
def test_split_rule_rejects_cuts_outside_the_interval(cuts):
    with pytest.raises(DomainError):
        split_rule(((0.0, cuts),), 8)
    with pytest.raises(DomainError):
        split_rule(((0.0, ()), (0.5, cuts)), 8)


def _digest(pairs):
    h = hashlib.sha256()
    for nodes, weights in pairs:
        h.update(nodes.tobytes())
        h.update(weights.tobytes())
    return h.hexdigest()


def test_split_rule_bits_are_pinned():
    """Every node and weight of the order-64 split rules' depth-1 level, as
    the operator's two-level call holds it, bit for bit."""
    digest = _digest(split_levels(b, 64, cuts)[1]
                     for b, cuts in itertools.product(SPLIT_EXPONENTS, SPLIT_CUTS))
    assert digest == "19b3a30c7ad0b0e514e8ae0cb5d1c349af21f716c556e8bc1c691a83bd81f70c"


def test_jacobi_rule_bits_are_pinned():
    rules = (gauss_jacobi_rule(a, b, n)
             for a, b in [(0.0, 0.0), (0.0, -0.95), (-0.5, 0.5), (0.3, -0.7), (2.0, 3.0)]
             for n in (1, 2, 3, 7, 16, 33, 64, 128))
    digest = _digest((rule.nodes, rule.weights) for rule in rules)
    assert digest == "1541658ba98b352bee11c8b9b2d35c8a72964435e4001318c24be00d4351d169"


def test_campaign_checks_solve_three_rules_each(monkeypatch):
    """240 campaign checks from cold caches: each builds the order-32 Jacobi
    rules of its three panels, one per panel for both levels, and none of
    order 64, and each Legendre panel order is solved once, however many
    fresh Jacobi rules come between its uses."""
    stevd = quadrature._stevd
    solves = []

    def counted(diag, off, **kwargs):
        # a = b = 0 zeroes the diagonal; the campaign's Jacobi exponents
        # are drawn floats, never 0
        solves.append((diag.size, not diag.any()))
        return stevd(diag, off, **kwargs)

    monkeypatch.setattr(quadrature, "_stevd", counted)
    for cached in (quadrature.split_rule, quadrature._split_layout, quadrature._panel_layout,
                   quadrature._legendre_rule):
        cached.cache_clear()
    checks = [(tid, seed) for seed in range(40) for tid in THEOREM_IDS]
    for task in checks:
        _suite_row(64, task)
    jacobi = [size for size, legendre in solves if not legendre]
    legendre = [size for size, legendre in solves if legendre]
    assert jacobi == [32] * (3 * len(checks))
    assert legendre and len(legendre) == len(set(legendre))


def test_campaign_checks_build_each_plan_once(monkeypatch):
    """240 campaign checks from cold caches: each builds one parameter
    table, one first-chunk series plan and three order-32 Jacobi rules,
    and a panel layout is built at most once per distinct cut tuple and
    depth, the coarse level's always uncut, so no part of a check's cold
    path is built twice.  The uncut layouts are the deepest one, whose tail
    is an uncut panel's coarse layout, and the depth-0 one that a cut
    panel's coarse level takes."""
    from hyperk import fracint, specfun

    stevd = quadrature._stevd
    built = {"table": [], "chunk": [], "layout": [], "jacobi": []}

    def counted_solve(diag, off, **kwargs):
        if diag.any():  # not a Legendre rule, whose diagonal is zero
            built["jacobi"].append(diag.size)
        return stevd(diag, off, **kwargs)

    def counted(kind, cached):
        def call(*args):
            misses = cached.cache_info().misses
            out = cached(*args)
            if cached.cache_info().misses > misses:
                built[kind].append(args)
            return out
        return call

    monkeypatch.setattr(quadrature, "_stevd", counted_solve)
    for module, name, kind in ((fracint, "_param_table", "table"), (specfun, "_first_chunk", "chunk"),
                               (quadrature, "_panel_layout", "layout")):
        cached = getattr(module, name)
        cached.cache_clear()
        monkeypatch.setattr(module, name, counted(kind, cached))
    for cached in (quadrature.split_rule, quadrature._split_layout, quadrature._legendre_rule):
        cached.cache_clear()
    per_check = []
    for task in [(tid, seed) for seed in range(40) for tid in THEOREM_IDS]:
        before = {kind: len(log) for kind, log in built.items()}
        _suite_row(64, task)
        per_check.append({kind: len(log) - before[kind] for kind, log in built.items()})
    for kind, count in (("table", 1), ("chunk", 1), ("jacobi", 3)):
        assert [counts[kind] for counts in per_check] == [count] * len(per_check), kind
    assert set(built["jacobi"]) == {32}
    layouts = built["layout"]
    assert len(layouts) == len(set(layouts))
    assert sorted((cuts, depth) for _, cuts, depth in layouts if not cuts) == [((), 0), ((), 1)]
    assert any(len(cuts) > 0 for _, cuts, _ in layouts)
    assert all(depth == 1 for _, cuts, depth in layouts if cuts)
