"""Release gate: one test per acceptance criterion, with pinned tolerances.

Each test carries its own runtime ceiling (wall clock, asserted at the end)
so a regression that silently blows up cost fails the gate alongside one
that loses accuracy.  Criteria 6 and 8 share a single campaign run through a
module-scoped fixture; criterion 8 repeats the invocation itself to prove
byte-level determinism of the report file.
"""

import hashlib
import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest

from hyperk import (
    DEFINITION_ONLY,
    AffineFn,
    OperatorParams,
    PowerFn,
    apply_operator,
    cli,
    equality_instance,
    gauss_2f1,
    gauss_jacobi_rule,
    integrate,
    kernel_closed,
    kernel_series,
    operator_of_one,
    random_instance,
    rl_k_integral,
)
from hyperk.inequalities import check_instance, check_proof_steps
from oracles import series_2f1
from test_specfun import reachable_triples

ONE = PowerFn(1.0, 0.0)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def strict_params(seed):
    return random_instance(seed, "3.1").params


def test_criterion_1_gauss_2f1_grid_vs_series_oracle():
    """200-point 2F1 grid within 1e-12 of the high-precision series,
    plus the Gamma-ratio value at z = 1 when c - a - b > 0."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026_01)
    worst = 0.0
    for a, b, c in reachable_triples(200, seed=2026_02):
        z = float(rng.uniform(0.0, 0.99))
        got = gauss_2f1(a, b, c, z)
        want = series_2f1(a, b, c, z, dps=40)
        worst = max(worst, rel_err(got, float(want)))
    assert worst <= 1e-12

    checked = 0
    for a, b, c in reachable_triples(600, seed=2026_03):
        s = c - (a + b)
        pole_gap = min((c - a) % 1.0, 1.0 - (c - a) % 1.0,
                       (c - b) % 1.0, 1.0 - (c - b) % 1.0)
        if s < 0.05 or (min(c - a, c - b) < 0.5 and pole_gap < 0.05):
            continue
        got = gauss_2f1(a, b, c, 1.0)
        want = mp.gamma(c) * mp.gamma(s) / (mp.gamma(c - a) * mp.gamma(c - b))
        assert rel_err(got, float(want)) <= 1e-12
        checked += 1
    assert checked >= 50
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_jacobi_moments_to_degree_2n_minus_1():
    """Every rule integrates u^j exactly (1e-10 relative) for j <= 2n-1."""
    t0 = time.perf_counter()
    grid = [-0.5, 0.0, 0.5, 1.0]
    for a_exp, b_exp in itertools.product(grid, grid):
        for order in (4, 16, 64):
            rule = gauss_jacobi_rule(a_exp, b_exp, order)
            for j in range(2 * order):
                got = float(rule.weights @ rule.nodes**j)
                want = math.exp(math.lgamma(b_exp + j + 1.0)
                                + math.lgamma(a_exp + 1.0)
                                - math.lgamma(a_exp + b_exp + j + 2.0))
                assert rel_err(got, want) <= 1e-10, (a_exp, b_exp, order, j)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_reduction_to_plain_k_integral():
    """At beta = -alpha, mu = eta = 0 the operator collapses to the plain
    k-fractional integral, across 100 random (alpha, k, f, x) draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026_04)
    for trial in range(100):
        alpha = float(rng.uniform(0.1, 2.0))
        k = float(rng.uniform(0.0, 3.0))
        x = float(rng.uniform(0.5, 4.0))
        if trial % 2 == 0:
            f = AffineFn(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
        else:
            f = PowerFn(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 2.5)))
        params = OperatorParams(alpha, -alpha, 0.0, 0.0, k,
                                validation_mode=DEFINITION_ONLY)
        got = apply_operator(params, f, x).value
        want = rl_k_integral(alpha, k, f, x)
        assert rel_err(got, want) <= 1e-10, (alpha, k, x, f)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_kernel_series_matches_closed_form():
    """<= 200 series terms reach the closed kernel to 1e-10 on 100 strict
    draws, and the partial sums never decrease (termwise positivity)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026_05)
    for seed in range(100):
        params = strict_params(seed)
        x = float(rng.uniform(0.5, 3.0))
        # keep the series argument 1 - (tau/x)^(k+1) inside its radius of
        # practical convergence (<= 0.85) for a 200-term budget
        r_lo = max(0.3, 0.15 ** (1.0 / (params.k + 1.0)))
        tau = x * float(rng.uniform(r_lo, 0.95))
        closed = kernel_closed(params, x, tau)
        partials = np.array([kernel_series(params, x, tau, n_terms=j)
                             for j in range(1, 201)])
        assert rel_err(partials[-1], closed) <= 1e-10, (params, x, tau)
        floor = -1e-15 * np.abs(partials[:-1])
        assert np.all(np.diff(partials) >= floor), (params, x, tau)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5_closed_form_image_of_one():
    """operator_of_one agrees with the quadrature image of f = 1 to 1e-8
    on 100 strict draws at the operator's top refinement level."""
    t0 = time.perf_counter()
    for seed in range(100):
        inst = random_instance(seed, "3.1")
        got = apply_operator(inst.params, ONE, inst.x, order=128).value
        want = operator_of_one(inst.params, inst.x)
        assert rel_err(got, want) <= 1e-8, (inst.params, inst.x)
    assert time.perf_counter() - t0 < 10.0


CAMPAIGN_ARGS = ["suite", "--theorems", "all", "--trials", "1000",
                 "--seed", "42", "--format", "csv"]


def run_campaign(path):
    t0 = time.perf_counter()
    code = cli.main(CAMPAIGN_ARGS + ["--out", str(path)])
    return code, time.perf_counter() - t0


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    path = tmp_path_factory.mktemp("campaign") / "report.csv"
    code, elapsed = run_campaign(path)
    return path, code, elapsed


@pytest.mark.slow
def test_criterion_6_full_campaign_zero_fails(campaign):
    """1000 trials per theorem: no fail verdicts, <= 1% inconclusive, and
    the equality instances sit inside tolerance."""
    path, code, elapsed = campaign
    assert code == 0
    lines = path.read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 6000
    verdicts = [row[18] for row in rows]
    assert verdicts.count("fail") == 0
    assert verdicts.count("inconclusive") <= 60

    for tid in ("3.1", "3.2", "4.1", "4.3", "4.4"):
        report = check_instance(equality_instance(tid))
        tolerance = max(1e-9, 10.0 * report.combined_error)
        assert abs(report.margin) <= tolerance, tid
    assert elapsed < 300.0


def test_criterion_7_proof_step_margins():
    """All micro-step margins stay above -tolerance on 500 seeded
    instances; the Young and convexity equality cases land on zero."""
    t0 = time.perf_counter()
    count = 0
    # only the plain ratio-sandwich theorems: the micro-steps lean on
    # m <= f/g <= M, which 4.2's power sandwich does not provide
    for tid in ("3.1", "3.2", "4.1", "4.3"):
        for seed in range(125):
            for row in check_proof_steps(random_instance(seed, tid)):
                tolerance = max(1e-9, 10.0 * row.combined_error)
                assert row.margin >= -tolerance, (tid, seed, row.theorem_id)
            count += 1
    assert count == 500

    young = {r.theorem_id: r for r in check_proof_steps(equality_instance("4.2"))}
    row = young["4.20"]
    assert abs(row.margin) <= max(1e-9, 10.0 * row.combined_error)
    convex = {r.theorem_id: r for r in check_proof_steps(equality_instance("3.1"))}
    for step in ("4.22", "4.23"):
        row = convex[step]
        assert abs(row.margin) <= max(1e-9, 10.0 * row.combined_error)
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.slow
def test_criterion_8_campaign_is_deterministic(campaign, tmp_path):
    """Repeating the full campaign reproduces the report byte for byte."""
    first_path, code, _ = campaign
    assert code == 0
    second_path = tmp_path / "rerun.csv"
    code, _ = run_campaign(second_path)
    assert code == 0
    assert second_path.read_bytes() == first_path.read_bytes()


@pytest.mark.slow
def test_seed_42_report_is_pinned(campaign):
    """The campaign's report hashes to the sha256 the README gives for the
    seed-42 suite; a change that moves it moves the campaign's numerics."""
    path, code, _ = campaign
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "70df7edf025cc2f4724012965255e413c87c72b1c48882447e8704475b8b45f7")
