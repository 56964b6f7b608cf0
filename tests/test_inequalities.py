import concurrent.futures
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperk import (
    CHECKERS,
    AffineFn,
    HyperkError,
    InequalityReport,
    PowerFn,
    PowFn,
    ProductFn,
    SumFn,
    TabulatedFn,
    check_instance,
    check_proof_steps,
    check_thm31,
    check_thm44,
    equality_instance,
    operator_of_one,
    random_instance,
    run_suite,
    summarize,
)
from hyperk import fracint, inequalities
from hyperk.errors import DomainError
from hyperk.inequalities import _Image, _verdict
from hyperk.testfuncs import THEOREM_IDS
from oracles import oracle_images, oracle_u

PINNED_SEEDS = {"3.1": 7, "3.2": 11, "4.1": 13, "4.2": 17, "4.3": 19, "4.4": 23}

# combined_error of the pinned checks and of the proof steps of
# random_instance(29, "3.1"), with the fine level split at the kinks
GOLDEN_ERRORS = {
    "3.1": 0.0002300635635687159,
    "3.2": 3.176048224290456e-06,
    "4.1": 6.477856376083656e-10,
    "4.2": 0.00022611580640403078,
    "4.3": 1.7867552330825755e-14,
    "4.4": 1.0641025908097435e-12,
}
GOLDEN_STEP_ERRORS = {
    "3.5": 7.502288071763124e-11,
    "3.8": 1.1767315795001146e-11,
    "4.15": 7.502288071763124e-11,
    "4.18": 2.0700932261843873e-11,
    "4.20": 3.0910854652647965e-09,
    "4.22": 4.182938003705677e-08,
    "4.23": 1.0710289889451247e-09,
}


def scaled(fn, c):
    return ProductFn((PowerFn(c, 0.0), fn))


class TestVerdictRule:
    def test_partition(self):
        tol = 1e-6
        assert _verdict(0.0, tol) == "pass"
        assert _verdict(0.5, tol) == "pass"
        assert _verdict(-0.5 * tol, tol) == "inconclusive"
        assert _verdict(-tol, tol) == "inconclusive"
        assert _verdict(-2.0 * tol, tol) == "fail"

    def test_tolerance_floor(self):
        rep = check_instance(equality_instance("3.1"))
        assert rep.tolerance >= 1e-9


def _slope(fn, v):
    """|fn'(v)| by a central difference."""
    h = 1e-6 * v
    return abs(fn(v + h) - fn(v - h)) / (2.0 * h)


POSITIVE = st.floats(min_value=0.1, max_value=10.0)


class TestErrorPropagation:
    """_Image carries an error bound to first order: each operation's error is
    the magnitude of its derivative times the input's error."""

    @given(a=POSITIVE, e=st.floats(min_value=-3.0, max_value=3.0))
    def test_power(self, a, e):
        got = (_Image(a, 1.0) ** e).err
        want = _slope(lambda v: v ** e, a)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8 * a ** (e - 1.0))

    @given(a=POSITIVE, b=POSITIVE, ea=POSITIVE, eb=POSITIVE)
    def test_product(self, a, b, ea, eb):
        got = (_Image(a, ea) * _Image(b, eb)).err
        want = _slope(lambda v: v * b, a) * ea + _slope(lambda v: a * v, b) * eb
        assert got == pytest.approx(want, rel=1e-6)

    @given(a=POSITIVE, c=POSITIVE, ea=POSITIVE)
    def test_scale_and_divide(self, a, c, ea):
        assert (c * _Image(a, ea)).err == pytest.approx(_slope(lambda v: c * v, a) * ea, rel=1e-6)
        assert (_Image(a, ea) / c).err == pytest.approx(_slope(lambda v: v / c, a) * ea, rel=1e-6)

    @pytest.mark.parametrize("tid,seed", sorted(PINNED_SEEDS.items()))
    def test_checker_errors_are_pinned(self, tid, seed):
        rep = check_instance(random_instance(seed, tid))
        assert math.isclose(rep.combined_error, GOLDEN_ERRORS[tid], rel_tol=1e-14, abs_tol=0.0)

    def test_proof_step_errors_are_pinned(self):
        rows = check_proof_steps(random_instance(29, "3.1"))
        assert [r.theorem_id for r in rows] == list(GOLDEN_STEP_ERRORS)
        for r in rows:
            want = GOLDEN_STEP_ERRORS[r.theorem_id]
            assert math.isclose(r.combined_error, want, rel_tol=1e-14, abs_tol=0.0), r.theorem_id


@pytest.mark.parametrize("checker,kind", [
    (check_thm31, "4.4"), (check_thm44, "3.1"),
    (CHECKERS["4.3"], "4.4"), (check_proof_steps, "4.4"),
])
def test_wrong_kind_of_instance_is_domain_error(checker, kind):
    with pytest.raises(DomainError, match="lacks"):
        checker(random_instance(0, kind))


class TestEqualityWitnesses:
    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_margin_vanishes(self, tid):
        rep = check_instance(equality_instance(tid))
        assert abs(rep.margin) <= rep.tolerance
        assert rep.verdict in ("pass", "inconclusive")

    def test_thm31_constant_is_one_at_unit_window(self):
        # (1 + M(m+2)) / ((m+1)(M+1)) = 4/4 at m = M = 1
        inst = equality_instance("3.1")
        rep = check_thm31(inst)
        assert rep.rhs == pytest.approx(rep.lhs, rel=1e-12)


class TestPinnedSeeds:
    @pytest.mark.parametrize("tid,seed", sorted(PINNED_SEEDS.items()))
    def test_margin_nonnegative(self, tid, seed):
        inst = random_instance(seed, tid)
        if tid == "4.4":
            inst = dataclasses.replace(inst, gamma=2.0, delta=0.5)
        rep = check_instance(inst)
        assert rep.verdict == "pass"
        assert rep.margin >= 0.0

    def test_thm31_sides_match_oracle(self):
        """Both sides recomputed with the extended-precision integrator.

        Smooth draws agree to 1e-8; a tabulated draw (this seed has one)
        is limited by the quadrature's own honest error estimate, so the
        bound widens with combined_error instead of going soft silently.
        """
        inst = random_instance(7, "3.1")
        rep = check_thm31(inst)
        p = inst.p
        kappa = (1.0 + inst.M * (inst.m + 2.0)) / ((inst.m + 1.0) * (inst.M + 1.0))
        lhs = (oracle_u(inst.params, PowFn(inst.f, p), inst.x) ** (1.0 / p)
               + oracle_u(inst.params, PowFn(inst.g, p), inst.x) ** (1.0 / p))
        rhs = kappa * oracle_u(
            inst.params, PowFn(SumFn((inst.f, inst.g)), p), inst.x) ** (1.0 / p)
        for got, want in ((rep.lhs, lhs), (rep.rhs, rhs)):
            rel = abs(got - want) / abs(want)
            assert rel <= max(1e-8, 3.0 * rep.combined_error / abs(want))
        assert rhs - lhs >= 0.0

    def test_thm32_sides_match_oracle(self):
        inst = random_instance(11, "3.2")
        rep = check_instance(inst)
        p = inst.p
        a = oracle_u(inst.params, PowFn(inst.f, p), inst.x)
        b = oracle_u(inst.params, PowFn(inst.g, p), inst.x)
        coeff = (inst.M + 1.0) * (inst.m + 1.0) / inst.M - 2.0
        lhs = a ** (2.0 / p) + b ** (2.0 / p)
        rhs = coeff * a ** (1.0 / p) * b ** (1.0 / p)
        assert rep.lhs == pytest.approx(lhs, rel=1e-8)
        assert rep.rhs == pytest.approx(rhs, rel=1e-8)
        assert lhs - rhs >= 0.0

    def test_thm41_sides_match_oracle(self):
        inst = random_instance(13, "4.1")
        rep = check_instance(inst)
        p, q = inst.p, inst.q
        lhs = (oracle_u(inst.params, inst.f, inst.x) ** (1.0 / p)
               * oracle_u(inst.params, inst.g, inst.x) ** (1.0 / q))
        mix = oracle_u(inst.params, ProductFn(
            (PowFn(inst.f, 1.0 / p), PowFn(inst.g, 1.0 / q))), inst.x)
        rhs = (inst.M / inst.m) ** (1.0 / (p * q)) * mix
        assert rep.lhs == pytest.approx(lhs, rel=1e-8)
        assert rep.rhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.slow
def test_thm44_elementary_monotone_pair():
    # f = t against a tabulated stand-in for 1/(1+t) with unit exponents
    ts = np.linspace(0.0, 1.5, 33)
    g = TabulatedFn(tuple(ts), tuple(1.0 / (1.0 + ts)))
    base = random_instance(23, "4.4")
    inst = dataclasses.replace(base, f=PowerFn(1.0, 1.0), g=g, gamma=1.0, delta=1.0)
    rep = check_thm44(inst)
    assert rep.verdict == "pass"
    # cross-check both sides against the independent integrator; f*g and g
    # break at the same points, so their images share the oracle's nodes
    fg = ProductFn((inst.f, g))
    i_fg, i_f, i_g = oracle_images(inst.params, (fg, inst.f, g), inst.x)
    lhs = i_fg * operator_of_one(inst.params, inst.x)
    rhs = i_f * i_g
    assert rep.lhs == pytest.approx(lhs, rel=max(1e-8, 3.0 * rep.combined_error / lhs))
    assert rep.rhs == pytest.approx(rhs, rel=max(1e-8, 3.0 * rep.combined_error / rhs))


class TestScaleCovariance:
    @pytest.mark.parametrize("tid,seed", [("3.1", 7), ("4.1", 13)])
    def test_margins_scale_linearly(self, tid, seed):
        c = 3.7
        inst = random_instance(seed, tid)
        rep = check_instance(inst)
        rep_scaled = check_instance(dataclasses.replace(
            inst, f=scaled(inst.f, c), g=scaled(inst.g, c)))
        assert rep_scaled.margin == pytest.approx(c * rep.margin, rel=1e-8)
        assert rep_scaled.verdict == rep.verdict == "pass"


def test_monotone_tightening_of_thm31():
    """Widening the ratio window never shrinks the slack."""
    inst = random_instance(41, "3.1")
    margins = {}
    for mi in (inst.m, 0.8 * inst.m, 0.6 * inst.m):
        for mj in (inst.M, 1.3 * inst.M, 1.6 * inst.M):
            margins[(mi, mj)] = check_thm31(
                dataclasses.replace(inst, m=mi, M=mj)).margin
    ms = sorted({k[0] for k in margins}, reverse=True)   # shrinking m widens
    ems = sorted({k[1] for k in margins})                # growing M widens
    for j in ems:
        seq = [margins[(i, j)] for i in ms]
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
    for i in ms:
        seq = [margins[(i, j)] for j in ems]
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))


class TestProofSteps:
    def test_all_steps_hold_on_pinned_seed(self):
        rows = check_proof_steps(random_instance(29, "3.1"))
        labels = {r.theorem_id for r in rows}
        assert labels == {"3.5", "3.8", "4.15", "4.18", "4.20", "4.22", "4.23"}
        for r in rows:
            assert r.margin >= -r.tolerance, r.theorem_id

    def test_young_equality(self):
        # f^p = g^q pointwise makes the Young step exact
        rows = check_proof_steps(equality_instance("4.2"))
        young = next(r for r in rows if r.theorem_id == "4.20")
        assert abs(young.margin) <= young.tolerance

    def test_convexity_equality(self):
        # f = g turns the power-mean steps into identities
        rows = check_proof_steps(equality_instance("3.1"))
        for label in ("4.22", "4.23"):
            row = next(r for r in rows if r.theorem_id == label)
            assert abs(row.margin) <= row.tolerance


class TestDiscretizationReuse:
    """Every check builds the operator's discretization at both refinement
    levels (orders n and 2n) in one call, split at the union of f's and g's
    kinks, and reuses it for all of its images."""

    @pytest.fixture
    def discretize_calls(self, monkeypatch):
        calls = []
        inner = fracint._discretize

        def counted(params, x, orders, kinks=()):
            calls.append((orders, kinks))
            return inner(params, x, orders, kinks)

        monkeypatch.setattr(fracint, "_discretize", counted)
        return calls

    @staticmethod
    def union_of_kinks(inst):
        return tuple(sorted({*inst.f.kinks(inst.x), *inst.g.kinks(inst.x)}))

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_each_checker_discretizes_twice(self, tid, discretize_calls):
        inst = random_instance(PINNED_SEEDS[tid], tid)
        CHECKERS[tid](inst)
        assert discretize_calls == [((64, 128), self.union_of_kinks(inst))]

    def test_proof_steps_discretize_twice(self, discretize_calls):
        inst = random_instance(29, "3.1")
        check_proof_steps(inst)
        assert discretize_calls == [((64, 128), self.union_of_kinks(inst))]


class TestRunSuite:
    def test_suite_rows_are_pinned(self):
        """sha256 of the repr of every row of a 120-check campaign.

        Any moved bit of a lhs, rhs, margin, combined error or verdict moves
        it; a change that moves the numerics on purpose re-pins it and says so.
        """
        digest = hashlib.sha256()
        for row in run_suite(THEOREM_IDS, 20, base_seed=0):
            digest.update(repr(row).encode() + b"\n")
        assert digest.hexdigest() == (
            "dfb9c717f7244bca80fe8cc4fbb8ce4b97a5431ecea96ea001c97365d1d8e370")

    def test_single_trial_equals_single_check(self):
        row = run_suite(["3.2"], trials=1, base_seed=9)[0]
        assert row == check_instance(random_instance(9, "3.2"))

    def test_deterministic(self):
        a = run_suite(["3.1", "4.4"], trials=3, base_seed=2)
        b = run_suite(["3.1", "4.4"], trials=3, base_seed=2)
        assert a == b

    def test_parallel_matches_serial(self):
        serial = run_suite(THEOREM_IDS, trials=2, base_seed=11, jobs=1)
        parallel = run_suite(THEOREM_IDS, trials=2, base_seed=11, jobs=2)
        assert serial == parallel

    def test_rows_are_seed_ordered(self):
        rows = run_suite(["3.1"], trials=4, base_seed=100)
        assert [r.seed for r in rows] == [100, 101, 102, 103]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            run_suite(["3.1"], trials=0)
        with pytest.raises(DomainError):
            run_suite(["8.8"], trials=1)

    def test_rejects_bad_jobs_and_order(self):
        with pytest.raises(DomainError):
            run_suite(["3.1"], trials=1, jobs=0)
        with pytest.raises(DomainError):
            run_suite(["3.1"], trials=1, order=500)

    @pytest.mark.parametrize("jobs,cpus,trials,want", [
        (5000, 64, 1, 2),     # capped by the number of checks
        (3, 64, 4, 3),        # capped by jobs
        (5000, 2, 2, 2),      # capped by the CPU count
        (4, 1, 3, None),      # one worker: no pool at all
        (8, None, 3, None),   # unknown CPU count counts as one
    ])
    def test_worker_count_is_capped(self, monkeypatch, jobs, cpus, trials, want):
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(inequalities.os, "cpu_count", lambda: cpus)
        rows = run_suite(["3.1", "4.4"], trials=trials, base_seed=3, jobs=jobs)
        assert requested == ([] if want is None else [want])
        assert rows == run_suite(["3.1", "4.4"], trials=trials, base_seed=3)

    def test_errors_become_inconclusive_rows(self, monkeypatch):
        def boom(instance, order=64):
            raise HyperkError("synthetic failure")

        monkeypatch.setitem(CHECKERS, "3.1", boom)
        rows = run_suite(["3.1", "3.2"], trials=2, base_seed=0, jobs=1)
        broken = [r for r in rows if r.theorem_id == "3.1"]
        healthy = [r for r in rows if r.theorem_id == "3.2"]
        assert len(broken) == 2 and len(healthy) == 2
        for r in broken:
            assert r.verdict == "inconclusive"
            assert "synthetic failure" in r.note
            assert math.isnan(r.margin)
        for r in healthy:
            assert r.verdict == "pass"

    def test_summarize_counts(self):
        rows = run_suite(["4.3"], trials=3, base_seed=50)
        agg = summarize(rows)
        assert agg["checks"] == 3
        assert agg["pass"] + agg["fail"] + agg["inconclusive"] == 3
        assert agg["min_margin"] == min(r.margin for r in rows)
        assert agg["max_combined_error"] == max(r.combined_error for r in rows)

    def test_summarize_names_the_worst_rows(self):
        """The relative error divides by the larger side, so the row with
        the largest absolute error need not be the one named."""
        def row(tid, seed, lhs, rhs, err):
            return InequalityReport(tid, seed, lhs, rhs, rhs - lhs, err, "pass", None)

        rows = [row("3.1", 4, 2.6e5, 2.7e5, 23.9), row("4.2", 9, 1.0, 1.5, 1e-3),
                row("4.4", 2, 3.0, 3.2, 1e-9), inequalities._error_row("4.1", 7, HyperkError("x"))]
        agg = summarize(rows)
        assert agg["max_combined_error"] == 23.9
        assert agg["max_rel_combined_error"] == 1e-3 / 1.5
        assert agg["max_rel_combined_error_at"] == ("4.2", 9)
        assert agg["min_margin"] == pytest.approx(0.2)
        assert agg["min_margin_at"] == ("4.4", 2)
        empty = summarize([rows[-1]])
        assert empty["min_margin_at"] is None and empty["max_rel_combined_error_at"] is None


def test_campaign_smoke_all_theorems():
    # a miniature of the acceptance campaign: every theorem, many seeds
    rows = run_suite(THEOREM_IDS, trials=25, base_seed=500)
    agg = summarize(rows)
    assert agg["checks"] == 150
    assert agg["fail"] == 0
    assert agg["inconclusive"] <= 1
