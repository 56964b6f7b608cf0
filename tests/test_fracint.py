import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from hyperk import (
    DEFINITION_ONLY,
    AffineFn,
    DomainError,
    EvaluationError,
    ExpFn,
    OperatorParams,
    PowerFn,
    PowFn,
    ProductFn,
    SumFn,
    TabulatedFn,
    ValidationError,
    apply_operator,
    gauss_jacobi_rule,
    kernel_closed,
    kernel_series,
    log_gamma,
    operator_images,
    operator_of_one,
    random_instance,
    rl_k_integral,
    validate,
)
from hyperk import fracint, specfun
from hyperk.fracint import MAX_OPERATOR_ORDER
from oracles import breakpoints, oracle_images, oracle_u

ONE = PowerFn(1.0, 0.0)
RL_CASE = OperatorParams(1.0, -1.0, 0.0, 0.0, 0.0, validation_mode=DEFINITION_ONLY)


def strict_params(seed):
    return random_instance(seed, "3.1").params


class TestValidate:
    def test_strict_window_accepts(self):
        p = OperatorParams(0.5, 0.2, -0.4, 0.0, 0.0)
        assert validate(p) is p

    def test_strict_rejects_eta_zero(self):
        with pytest.raises(ValidationError) as exc_info:
            validate(OperatorParams(1.0, -1.0, 0.0, 0.0, 0.0))
        assert "eta-window" in exc_info.value.violations

    def test_definition_only_accepts_eta_zero(self):
        p = OperatorParams(1.0, -1.0, 0.0, 0.0, 0.0, validation_mode=DEFINITION_ONLY)
        assert validate(p) is p

    def test_all_violations_are_named(self):
        with pytest.raises(ValidationError) as exc_info:
            validate(OperatorParams(-1.0, 2.0, 0.5, -2.0, -1.0))
        v = exc_info.value.violations
        for name in ("k-nonnegative", "alpha-positive", "mu-window",
                     "beta-window", "eta-window"):
            assert name in v

    def test_rejects_divergent_endpoint(self):
        # eta - beta - mu = -1.85 and mu + that = -1.6: the u -> 0 end of
        # the integral diverges no matter how the quadrature is set up
        with pytest.raises(ValidationError) as exc_info:
            validate(OperatorParams(1.8, 0.7, -0.8, 0.25, 0.0,
                                    validation_mode=DEFINITION_ONLY))
        assert "integrability-endpoint" in exc_info.value.violations

    @pytest.mark.parametrize("alpha,mu", [(0.04, 0.0), (1.0, -0.96)])
    def test_rejects_near_singular_exponents(self, alpha, mu):
        with pytest.raises(ValidationError):
            validate(OperatorParams(alpha, 0.2, -0.4, mu, 0.0,
                                    validation_mode=DEFINITION_ONLY))


class TestKernel:
    def test_reduction_case_is_unit(self):
        assert kernel_closed(RL_CASE, 1.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_positive_on_strict_window(self):
        # tau/x below ~0.3 with a negative gap pushes the direct series
        # past its term cap, so the sweep stays in the tabulation range
        for seed in range(20):
            p = strict_params(seed)
            for frac in (0.3, 0.5, 0.7, 0.95):
                assert kernel_closed(p, 1.3, 1.3 * frac) > 0.0

    def test_series_matches_closed_form(self):
        p = OperatorParams(0.5, 0.2, -0.4, 0.1, 1.0)
        closed = kernel_closed(p, 2.0, 1.0)
        assert kernel_series(p, 2.0, 1.0, n_terms=200) == pytest.approx(closed, rel=1e-10)

    def test_single_term_with_eta_zero_is_closed_form(self):
        p = OperatorParams(0.7, 0.3, 0.0, 0.2, 1.0, validation_mode=DEFINITION_ONLY)
        for frac in (0.2, 0.5, 0.9):
            tau = 1.5 * frac
            assert kernel_series(p, 1.5, tau, n_terms=1) == kernel_closed(p, 1.5, tau)

    def test_partial_sums_increase(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            p = strict_params(seed)
            tau = float(rng.uniform(0.1, 0.9)) * 1.2
            prev = 0.0
            for n in (1, 2, 5, 10, 40):
                cur = kernel_series(p, 1.2, tau, n_terms=n)
                assert cur >= prev * (1.0 - 1e-15)
                prev = cur

    def test_forty_terms_suffice_near_the_diagonal(self):
        # series in powers of 1 - (tau/x)^(k+1): fast for tau/x near 1
        rng = np.random.default_rng(8)
        for seed in range(25):
            p = strict_params(seed)
            x = float(rng.uniform(0.5, 2.5))
            tau = x * float(rng.uniform(0.75, 0.95))
            closed = kernel_closed(p, x, tau)
            assert kernel_series(p, x, tau, n_terms=40) == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.0, 1.5])
    def test_tau_outside_interval(self, tau):
        with pytest.raises(DomainError):
            kernel_closed(RL_CASE, 1.0, tau)


class TestApplyOperator:
    def test_affine_reduction_value(self):
        res = apply_operator(RL_CASE, AffineFn(1.0, 1.0), 1.0)
        assert res.value == pytest.approx(1.5, rel=1e-12)
        assert res.error_estimate >= 0.0

    def test_collapses_to_rl_integral(self):
        p = OperatorParams(1.0, -1.0, 0.0, 0.0, 1.0, validation_mode=DEFINITION_ONLY)
        got = apply_operator(p, ONE, 1.0).value
        assert got == pytest.approx(rl_k_integral(1.0, 1.0, ONE, 1.0), rel=1e-10)

    def test_unit_function_hits_closed_image(self):
        p = OperatorParams(0.5, 0.2, -0.4, 0.0, 0.0)
        got = apply_operator(p, ONE, 1.0).value
        assert got == pytest.approx(operator_of_one(p, 1.0), rel=1e-8)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f = ExpFn(1.0, 0.7)
        g = PowerFn(0.8, 1.4)
        for seed in range(8):
            p = strict_params(seed)
            a, b = rng.uniform(0.1, 10.0, size=2)
            combo = SumFn((ProductFn((PowerFn(a, 0.0), f)),
                           ProductFn((PowerFn(b, 0.0), g))))
            lhs = apply_operator(p, combo, 1.1).value
            rhs = (a * apply_operator(p, f, 1.1).value
                   + b * apply_operator(p, g, 1.1).value)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_monotone_in_the_integrand(self):
        f = AffineFn(0.5, 0.3)
        g = SumFn((f, PowerFn(0.2, 2.0)))  # g = f + positive bump
        for seed in range(8):
            p = strict_params(seed)
            vf = apply_operator(p, f, 1.4).value
            vg = apply_operator(p, g, 1.4).value
            assert vf <= vg + 1e-12

    def test_reduction_identity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            alpha = float(rng.uniform(0.1, 2.0))
            k = float(rng.uniform(0.0, 3.0))
            x = float(rng.uniform(0.5, 4.0))
            f = ExpFn(float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.8)))
            p = OperatorParams(alpha, -alpha, 0.0, 0.0, k,
                               validation_mode=DEFINITION_ONLY)
            got = apply_operator(p, f, x).value
            want = rl_k_integral(alpha, k, f, x)
            assert got == pytest.approx(want, rel=1e-10)

    def test_error_estimate_contracts_for_smooth_functions(self):
        """Estimate at order 64 never exceeds the order-16 one.

        Restricted to the smooth members of the family: for tabulated
        kinks a Gauss rule's error oscillates with node placement and the
        monotone-contraction reading is simply false there (the estimates
        stay honest instead).  The floor term absorbs roundoff once both
        estimates sit at machine precision.
        """
        rng = np.random.default_rng(31)
        done = 0
        seed = 0
        while done < 40:
            seed += 1
            inst = random_instance(4000 + seed, "3.1")
            f = ExpFn(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0)))
            if seed % 3 == 0:
                f = SumFn((PowerFn(1.2, 1.7), AffineFn(0.4, 0.9)))
            r16 = apply_operator(inst.params, f, inst.x, order=16)
            r64 = apply_operator(inst.params, f, inst.x, order=64)
            assert r64.error_estimate <= max(r16.error_estimate,
                                             1e-13 * abs(r64.value))
            done += 1

    def test_deterministic(self):
        p = strict_params(5)
        f = ExpFn(1.1, 0.4)
        a = apply_operator(p, f, 1.3)
        b = apply_operator(p, f, 1.3)
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_nonfinite_integrand_names_its_node(self):
        x = 1.3

        def blows_up(t):
            return np.where(t > 0.5 * x, np.inf, 1.0)

        with pytest.raises(EvaluationError) as exc_info:
            apply_operator(strict_params(2), blows_up, x)
        assert 0.5 * x < exc_info.value.node < x

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            apply_operator(RL_CASE, ONE, 0.0)
        with pytest.raises(DomainError):
            apply_operator(RL_CASE, ONE, -1.0)
        with pytest.raises(DomainError):
            apply_operator(RL_CASE, ONE, 1.0, order=0)
        with pytest.raises(DomainError):
            apply_operator(RL_CASE, ONE, 1.0, order=MAX_OPERATOR_ORDER + 1)


# one parameter set per evaluation path
PATH_CASES = {
    "split": OperatorParams(1.1, -0.4, -0.6, 0.35, 1.0),
    # a = alpha + beta + mu = -1: the 2F1 factor is a polynomial
    "terminating": OperatorParams(1.5, -2.0, -0.3, -0.5, 0.5,
                                  validation_mode=DEFINITION_ONLY),
    "nudged": OperatorParams(0.9, 0.3, -0.5 + 3e-7, 0.2, 1.0),
}


def discretize_levels(params, x, orders, kinks=()):
    """fracint._discretize's (tau, w) pair per level, and whether it
    extrapolated: level i's nodes are the w_i.size entries of the flat tau
    after those of the levels before it."""
    tau, weights, extrapolated = fracint._discretize(params, x, orders, kinks)
    bounds = np.cumsum([0, *(w.size for w in weights)])
    return [(tau[i:j], w) for i, j, w in zip(bounds, bounds[1:], weights)], extrapolated


IMAGE_FNS = (ExpFn(1.3, 0.5),
             SumFn((PowerFn(1.2, 1.7), AffineFn(0.4, 0.9))),
             TabulatedFn((0.0, 0.4, 0.9, 1.5), (1.0, 2.2, 0.7, 1.4)))


class TestOperatorImages:
    @pytest.mark.parametrize("path", PATH_CASES)
    def test_equals_one_call_per_integrand(self, path):
        """Bit for bit when the integrands share their kinks; with the
        tabulated integrand's kinks added to the smooth ones' discretization,
        each image still agrees within the two error estimates."""
        params = PATH_CASES[path]
        tabulated = IMAGE_FNS[2]
        for fns in (IMAGE_FNS[:2], (tabulated, ProductFn((IMAGE_FNS[0], tabulated)))):
            got = operator_images(params, list(fns), 1.3)
            assert got == [apply_operator(params, fn, 1.3) for fn in fns]
        for got, fn in zip(operator_images(params, list(IMAGE_FNS), 1.3), IMAGE_FNS):
            alone = apply_operator(params, fn, 1.3)
            assert abs(got.value - alone.value) <= got.error_estimate + alone.error_estimate

    @pytest.mark.parametrize("path", PATH_CASES)
    def test_results_follow_input_order(self, path):
        params = PATH_CASES[path]
        forward = operator_images(params, IMAGE_FNS, 1.3, order=16)
        backward = operator_images(params, IMAGE_FNS[::-1], 1.3, order=16)
        assert backward == forward[::-1]
        assert len({r.value for r in forward}) == len(IMAGE_FNS)

    def test_nonfinite_second_integrand_names_its_node(self):
        x = 1.3

        def blows_up(t):
            return np.where(t > 0.5 * x, np.inf, 1.0)

        with pytest.raises(EvaluationError) as exc_info:
            operator_images(strict_params(2), [ONE, blows_up, ONE], x)
        assert 0.0 < exc_info.value.node < x


# sha256 of each level's tau bytes then w bytes, level after level, at 1.3:
# no kinks at (16, 32) and (64, 128), then kinks (0.4, 0.9, 1.25) at both
DISCRETIZE_DIGESTS = {
    "split": [
        "f7592a12398e79730742605ff475e9d204e6e104c51a2cf8edeb1df3027bd1b3",
        "a2d56f10caa4bd88958ef1e86468419ff6197580e1acae285771539202e0f374",
        "56b5f3ca2e38c78b5ed6257928525dcbb7ff61ab7ba8c1a1e1ae8fcc3e67fe62",
        "1fe79053723f37f5eb3952a0e9818d8b39d08617e2a3315c84e572dbba05fef9",
    ],
    "terminating": [
        "f2549b2a0f9306802898295c5562f5e3f22045a728a2722da905eac28f3dbfc4",
        "6342cb13593b8dd242cde0f585e1ad400fcd768cde1e209dde3da671ce3a6d87",
        "363ce806b80c8c77d2984c34c5ef150cec7b8ef5f82503e5e58df8405d888136",
        "ccd9e0d6653fb1d985a75fce7c54bd59f850cbad6841a4491b1a140231ce7572",
    ],
    "nudged": [
        "8bf782c85af90876f8af485956bfb9621de4bced9d3c31cd04f10c54aaab7cb6",
        "054f27b3aace1974a9ddb70394a3229fd26b167392d27cb80d96eb2a5d453ce1",
        "b5f51bae4852d3c00bcb3efd990590f12705b88184de479695674aa0483de07f",
        "0fe1e264acf4a26461959d17229fb97034a96d2e4c09c3404929b8d5bcbbe7c0",
    ],
}


class TestDiscretize:
    @pytest.mark.parametrize("path", PATH_CASES)
    def test_levels_equal_single_order_builds(self, path):
        """The coarse level is bit for bit order n built alone.  Without
        kinks the fine level has twice its nodes, and its first n are the
        upper panel's order-n rule scaled onto [0, 1/4] of v = 2(1 - u)."""
        params = PATH_CASES[path]
        levels, _ = discretize_levels(params, 1.3, (64, 128))
        assert len(levels) == 2
        (tau_c, w_c), (tau_f, w_f) = levels
        tau_alone, w_alone = discretize_levels(params, 1.3, (64,))[0][0]
        assert np.array_equal(tau_c, tau_alone)
        assert np.array_equal(w_c, w_alone)
        assert tau_f.shape == w_f.shape == (2 * tau_c.size,)
        v = 0.25 * gauss_jacobi_rule(0.0, params.alpha - 1.0, 64).nodes
        assert np.array_equal(tau_f[:64], 1.3 * (1.0 - 0.5 * v) ** (1.0 / (params.k + 1.0)))

    @pytest.mark.parametrize("path", PATH_CASES)
    def test_kinks_split_only_the_fine_level(self, path):
        params = PATH_CASES[path]
        plain, _ = discretize_levels(params, 1.3, (64, 128))
        split, _ = discretize_levels(params, 1.3, (64, 128), (0.4, 0.9, 1.25))
        assert np.array_equal(split[0][0], plain[0][0])
        assert np.array_equal(split[0][1], plain[0][1])
        assert not np.array_equal(split[1][0], plain[1][0])

    @pytest.mark.parametrize("path", PATH_CASES)
    def test_bits_are_pinned(self, path):
        """Every node and weight of both levels, with and without kinks, at
        orders (16, 32) and (64, 128), bit for bit.  The bytes are hashed:
        == would take a weight of -0.0 for +0.0."""
        digests = []
        for kinks, orders in itertools.product(((), (0.4, 0.9, 1.25)), ((16, 32), (64, 128))):
            digest = hashlib.sha256()
            for tau, w in discretize_levels(PATH_CASES[path], 1.3, orders, kinks)[0]:
                digest.update(tau.tobytes())
                digest.update(w.tobytes())
            digests.append(digest.hexdigest())
        assert digests == DISCRETIZE_DIGESTS[path]

    @pytest.mark.parametrize("path,blocks", [("split", 3), ("terminating", 2), ("nudged", 9)])
    def test_one_series_call_per_discretization(self, path, blocks, monkeypatch):
        """Every panel's 2F1 factors, over the nodes of both refinement
        levels, come from one series call, one parameter block per series
        term.  The nudged path has 9 blocks on 6 panels: one upper panel, at
        the true eta, the first connection panel that the four eta offsets
        share, one block per offset, and one second-branch panel per
        offset."""
        calls = []
        inner = fracint._series_2f1_vec

        def counted(a, b, c, z):
            calls.append([np.size(v) for v in z])
            return inner(a, b, c, z)

        monkeypatch.setattr(fracint, "_series_2f1_vec", counted)
        apply_operator(PATH_CASES[path], ONE, 1.3, order=16)
        assert calls == [[16 + 32] * blocks]

    @pytest.mark.parametrize("path,panels", [("split", 3), ("terminating", 2), ("nudged", 6)])
    def test_one_rule_lookup_per_panel(self, path, panels, monkeypatch):
        """The operator looks up each panel's coarse Jacobi rule once (the
        fine level's rules come from split_rule), and no coarse node
        repeats: the nudged path's four eta offsets share one first
        connection panel."""
        lookups = []
        inner = fracint.gauss_jacobi_rule

        def counted(a_exp, b_exp, order):
            lookups.append(b_exp)
            return inner(a_exp, b_exp, order)

        monkeypatch.setattr(fracint, "gauss_jacobi_rule", counted)
        apply_operator(PATH_CASES[path], ONE, 1.3)
        assert len(lookups) == panels
        (tau_c, _), (tau_f, _) = discretize_levels(PATH_CASES[path], 1.3, (64, 128))[0]
        assert tau_c.size == np.unique(tau_c).size == 64 * panels
        assert tau_f.size == 128 * panels

    def test_terminating_wins_over_an_integer_gap(self, monkeypatch):
        """a = -1 and s = 2: the 2F1 is a polynomial, so the lower half is one
        panel, nothing is extrapolated and the estimate is not floored."""
        params = OperatorParams(0.5, -1.2, 0.5, -0.3, 1.0, validation_mode=DEFINITION_ONLY)
        calls = []
        inner = fracint._series_2f1_vec

        def counted(a, b, c, z):
            calls.append(len(a))
            return inner(a, b, c, z)

        monkeypatch.setattr(fracint, "_series_2f1_vec", counted)
        res = apply_operator(params, ONE, 1.3)
        assert calls == [2]
        assert discretize_levels(params, 1.3, (64, 128))[1] is False
        assert res.error_estimate < 1e-12 * res.value
        assert res.value == pytest.approx(operator_of_one(params, 1.3), rel=1e-13)


# the parameter table: (name, params the table is built from, equal params
# looked up warm); the last pair differs only in the sign of zero
TABLE_CASES = [(name, params, params) for name, params in [
    *PATH_CASES.items(),
    ("split-definition-only", dataclasses.replace(PATH_CASES["split"], validation_mode=DEFINITION_ONLY)),
    ("nudged-definition-only", dataclasses.replace(PATH_CASES["nudged"], validation_mode=DEFINITION_ONLY)),
]] + [("signed-zeros", OperatorParams(0.9, 0.0, -0.5, 0.0, 0.0), OperatorParams(0.9, -0.0, -0.5, -0.0, -0.0))]


# one function of each of the 7 families; only the tabulated one has kinks
SWEEP_FNS = (AffineFn(1.2, 0.3), ExpFn(0.8, -0.4), PowerFn(1.1, 0.2),
             TabulatedFn((0.0, 0.4, 0.9, 2.0), (1.0, 2.2, 0.7, 1.4)),
             SumFn((AffineFn(0.5, 0.2), ExpFn(0.6, 0.3))),
             ProductFn((ExpFn(0.9, -0.2), AffineFn(0.7, 0.1))),
             PowFn(SumFn((AffineFn(0.5, 0.2), ExpFn(0.6, -0.3))), 2.0))


class TestParamTable:
    @pytest.mark.parametrize("kinks", [(), (0.3, 0.6, 1.25)])
    @pytest.mark.parametrize("name,first,second", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
    def test_warm_equals_cold(self, name, first, second, kinks):
        """A discretization at x2 from the table another point built equals
        one at x2 from a fresh table, bit for bit, on every path; the cache
        key treats +0.0 and -0.0 as one parameter value."""
        assert first == second
        fracint._param_table.cache_clear()
        fracint._discretize(first, 0.7, (32, 64), kinks)
        warm, warm_extrapolated = discretize_levels(second, 1.3, (32, 64), kinks)
        assert fracint._param_table.cache_info().misses == 1
        fracint._param_table.cache_clear()
        cold, cold_extrapolated = discretize_levels(second, 1.3, (32, 64), kinks)
        assert warm_extrapolated is cold_extrapolated is (name.startswith("nudged"))
        for (tau_w, w_w), (tau_c, w_c) in zip(warm, cold, strict=True):
            assert np.array_equal(tau_w, tau_c)
            assert np.array_equal(w_w, w_c)

    def test_one_build_per_parameter_set(self):
        """A sweep of 3 points times the 7 function families over one
        parameter set builds its table once, and the table holds scalars
        only (no node arrays, no series rows)."""
        params = PATH_CASES["nudged"]
        fracint._param_table.cache_clear()
        for x in (0.5, 1.25, 2.0):
            for f in SWEEP_FNS:
                apply_operator(params, f, x, order=16)
        assert fracint._param_table.cache_info().misses == 1

        def scalars(v):
            return all(map(scalars, v)) if isinstance(v, tuple) else isinstance(v, (bool, float))

        assert scalars(fracint._param_table(params))

    def test_invalid_params_never_enter_the_cache(self):
        params = OperatorParams(0.7, 0.1, 0.0, 0.2, 1.0)  # eta = 0 is outside the strict window
        fracint._param_table.cache_clear()
        errors = []
        for _ in range(3):
            with pytest.raises(ValidationError) as exc_info:
                apply_operator(params, ONE, 1.3)
            errors.append((str(exc_info.value), exc_info.value.violations))
        assert errors == [(str(exc_info.value), ("eta-window",))] * 3
        info = fracint._param_table.cache_info()
        assert (info.misses, info.currsize) == (3, 0)


# the series plans: the parameter-table cases, and eta = +0.0 against -0.0,
# which gives the terminating 2F1 parameter b = -eta both signs of zero
PLAN_CASES = TABLE_CASES + [("signed-zero-eta",
                             OperatorParams(0.9, 0.1, 0.0, 0.2, 1.0, validation_mode=DEFINITION_ONLY),
                             OperatorParams(0.9, 0.1, -0.0, 0.2, 1.0, validation_mode=DEFINITION_ONLY))]


class TestSeriesPlans:
    @pytest.mark.parametrize("kinks", [(), (0.3, 0.6, 1.25)])
    @pytest.mark.parametrize("name,first,second", PLAN_CASES, ids=[c[0] for c in PLAN_CASES])
    def test_warm_plan_equals_cold(self, name, first, second, kinks):
        """A discretization whose series plan another call built equals one
        from a fresh plan, bit for bit, on every path.  The table is rebuilt
        between the two calls, so the plan's own key meets +0.0 and -0.0.
        Kink-free points share a plan; kinked ones only where their cuts do."""
        specfun._first_chunk.cache_clear()
        fracint._param_table.cache_clear()
        fracint._discretize(first, 1.3 if kinks else 0.7, (32, 64), kinks)
        fracint._param_table.cache_clear()
        warm, _ = discretize_levels(second, 1.3, (32, 64), kinks)
        assert specfun._first_chunk.cache_info()[:2] == (1, 1)
        specfun._first_chunk.cache_clear()
        fracint._param_table.cache_clear()
        cold, _ = discretize_levels(second, 1.3, (32, 64), kinks)
        for (tau_w, w_w), (tau_c, w_c) in zip(warm, cold, strict=True):
            assert np.array_equal(tau_w, tau_c)
            assert np.array_equal(w_w, w_c)

    def test_one_build_per_plan(self, monkeypatch):
        """A sweep of 3 points times the 7 function families over one
        parameter set builds each series plan once: one for the six
        kink-free families at every point, one per point for the tabulated
        family, whose cuts move the fine level's largest node."""
        keys = []
        cached = specfun._first_chunk

        def recorded(*key):
            keys.append(key)
            return cached(*key)

        monkeypatch.setattr(specfun, "_first_chunk", recorded)
        cached.cache_clear()
        for x in (0.5, 1.25, 2.0):
            for f in SWEEP_FNS:
                apply_operator(PATH_CASES["nudged"], f, x, order=16)
        assert len(keys) == 21
        assert cached.cache_info()[:2] == (21 - 4, 4) == (21 - len(set(keys)), len(set(keys)))


# Cross-validation against the independent extended-precision oracle.
# Cases cover every evaluation route: the plain Jacobi path, non-integer k,
# gaps s < -1, the shifted-parameter extrapolation around integer gaps
# (including razor-thin integrability margins), kinked tabulated functions
# and composite powers.
ORACLE_CASES = [
    ("plain strict window", OperatorParams(1.1, -0.4, -0.6, 0.35, 1.0),
     ExpFn(1.3, 0.5), 1.4),
    ("non-integer k", OperatorParams(0.7, 0.3, -0.45, -0.3, 0.93),
     SumFn((PowerFn(1.2, 1.7), AffineFn(0.4, 0.9))), 2.1),
    ("gap below -1", OperatorParams(1.1, 0.5, -0.35, 0.95, 0.8),
     ExpFn(1.0, 0.6), 1.4),
    ("integer gap s=0", OperatorParams(0.9, -0.5, -0.3, 0.2, 1.0),
     AffineFn(0.8, 0.5), 1.0),
    ("integer gap s=-1", OperatorParams(0.9, 0.3, -0.5, 0.2, 1.0),
     AffineFn(0.8, 0.5), 1.0),
    ("integer gap s=1", OperatorParams(1.5, -0.9, -0.2, -0.3, 1.0),
     AffineFn(0.8, 0.5), 1.0),
    ("near-integer gap", OperatorParams(0.9, 0.3, -0.5 + 3e-7, 0.2, 1.0),
     AffineFn(0.8, 0.5), 1.0),
    ("s=0 near mu=-1", OperatorParams(1.0, 0.2, -0.7, -0.9, 1.0),
     AffineFn(0.8, 0.5), 1.0),
    ("s=-1 thin margin", OperatorParams(1.2, 0.9, -0.099, 0.001, 1.0),
     AffineFn(0.8, 0.5), 1.0),
    ("s=-1 one-sided shifts", OperatorParams(1.2, 0.9, -0.0997, 0.0003, 1.0),
     AffineFn(0.8, 0.5), 1.0),
    ("s=-2 thin margin", OperatorParams(1.3, 0.94, -0.02, 1.04, 1.0),
     AffineFn(0.8, 0.5), 1.0),
    ("tabulated kinks", OperatorParams(1.3, -0.4, -0.6, 0.35, 0.8),
     TabulatedFn((0.0, 0.4, 0.9, 1.5), (1.0, 2.2, 0.7, 1.4)), 1.5),
    ("composite power", OperatorParams(0.45, 0.6, -0.25, 0.5, 1.6),
     PowFn(SumFn((ExpFn(0.7, 0.4), PowerFn(0.9, 1.3))), 2.6), 2.4),
    ("terminating eta=0", OperatorParams(0.8, 0.2, 0.0, 0.1, 0.5,
                                         validation_mode=DEFINITION_ONLY),
     ExpFn(1.0, 0.3), 1.2),
    ("large x and k", OperatorParams(1.8, 0.7, -0.25, 0.9, 2.0),
     ExpFn(0.5, 0.9), 3.0),
]


@pytest.mark.parametrize("tag,params,f,x", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_operator_matches_extended_precision_oracle(tag, params, f, x):
    res = apply_operator(params, f, x)
    want = oracle_u(params, f, x)
    rel = abs(res.value - want) / abs(want)
    est_rel = res.error_estimate / abs(want)
    assert rel <= max(5.0 * est_rel, 1e-8), f"{tag}: rel={rel:.3e} est={est_rel:.3e}"


def test_oracle_images_equal_oracle_u():
    """Sharing the oracle's f-free factors moves no bit: a kinked f, f times
    a smooth factor (the same kinks, so the same nodes) and a smooth f."""
    params, f, x = dict((c[0], c[1:]) for c in ORACLE_CASES)["tabulated kinks"]
    fs = (f, ProductFn((f, AffineFn(0.8, 0.5))), AffineFn(0.8, 0.5))
    want = [oracle_u(params, h, x, dps=15) for h in fs]
    assert oracle_images(params, fs, x, dps=15) == want


# apply_operator values recorded while the nudged path still extrapolated
# the whole operator rather than its lower half: the integer and
# near-integer gap ORACLE_CASES, and the bench operator_grid's nudged set at
# x = 1.25 with its seed-0 integrands
NUDGED_ORACLE_PINS = {
    "integer gap s=0": 0.9510657456724925,
    "integer gap s=-1": 4.979719490924397,
    "integer gap s=1": 0.5603752549381802,
    "near-integer gap": 4.979712367164416,
    "s=0 near mu=-1": 17.970839744264225,
    "s=-1 thin margin": 150.42080836282935,
    "s=-1 one-sided shifts": 500.30246794318487,
    "s=-2 thin margin": 2.356757708775154,
}
NUDGED_GRID = OperatorParams(0.8, 0.2, -0.5 + 3e-7, 0.3, 1.0)
NUDGED_GRID_PINS = [
    (AffineFn(0.9263691315788141, 0.2949270999386131), 3.186551513626843),
    (ExpFn(1.9266528899835322, -0.04242362157799251), 5.494750881376749),
    (PowerFn(1.9605175639293018, 0.23394987943700446), 4.576338467554074),
    (TabulatedFn((0.0, 0.7680311796193239, 0.907802916727844, 1.4876488094112768, 2.0),
                 (0.49730374283171497, 1.7780030994283502, 0.5397641710683442,
                  1.1981603811812032, 2.3126020265464855)), 2.783275865843536),
    (SumFn((AffineFn(0.9265857944113427, 0.18981318701623728),
            ExpFn(0.6266561676027718, -0.07425792079028182))), 4.771758194296365),
    (ProductFn((ExpFn(0.845145810583841, -0.16220472002351616),
                AffineFn(0.4362086888511587, 0.772716479656323))), 1.9152427689154532),
    (PowFn(SumFn((AffineFn(0.7050349331349142, 0.2621186945758939),
                  ExpFn(1.3916290358738936, -0.7710112447497804))), 2.3860121382088573),
     12.056847459358602),
]


def test_nudged_values_are_pinned():
    cases = [(params, f, x, NUDGED_ORACLE_PINS[tag])
             for tag, params, f, x in ORACLE_CASES if tag in NUDGED_ORACLE_PINS]
    assert len(cases) == len(NUDGED_ORACLE_PINS)
    cases += [(NUDGED_GRID, f, 1.25, want) for f, want in NUDGED_GRID_PINS]
    for params, f, x, want in cases:
        assert len(fracint._nudge_offsets(params)) == 4
        assert apply_operator(params, f, x).value == pytest.approx(want, rel=1e-11)


def test_oracle_agreement_on_sampled_strict_draws():
    rng = np.random.default_rng(5)
    for i in range(6):
        inst = random_instance(1000 + i, "3.1")
        f = ExpFn(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0)))
        res = apply_operator(inst.params, f, inst.x)
        want = oracle_u(inst.params, f, inst.x)
        rel = abs(res.value - want) / abs(want)
        assert rel <= max(5.0 * res.error_estimate / abs(want), 1e-8)


# f-images of generator instances whose kinks fall inside a panel: each
# error estimate fell short of the true error while the fine level was the
# order-2n rule across the kinks
KINKED_IMAGES = [(6, "3.1"), (9, "4.1"), (28, "4.1"), (32, "4.4"), (38, "4.4")]


@pytest.mark.parametrize("seed,tid", KINKED_IMAGES)
def test_error_estimate_bounds_the_true_error_at_kinks(seed, tid):
    inst = random_instance(seed, tid)
    assert breakpoints(inst.f, inst.x)
    res = apply_operator(inst.params, inst.f, inst.x)
    want = oracle_u(inst.params, inst.f, inst.x)
    assert abs(res.value - want) <= max(res.error_estimate, 1e-13 * abs(want))


class TestOperatorOfOne:
    def test_reduction_value(self):
        assert operator_of_one(RL_CASE, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_gamma_ratio_golden(self):
        p = OperatorParams(0.5, 0.2, -0.4, 0.0, 0.0)
        want = math.exp(log_gamma(0.4) - log_gamma(0.8) - log_gamma(1.1))
        assert operator_of_one(p, 1.0) == pytest.approx(want, rel=1e-13)

    def test_x_dependence_is_a_power(self):
        for seed in (1, 5, 9):
            p = strict_params(seed)
            ratio = operator_of_one(p, 2.0) / operator_of_one(p, 1.0)
            want = 2.0 ** (-(p.k + 1.0) * (p.beta + p.mu))
            assert ratio == pytest.approx(want, rel=1e-12)

    def test_gamma_pole_rejected(self):
        # alpha + mu + eta + 1 = -0.1 lands on a negative Gamma argument
        p = OperatorParams(0.5, -3.0, -1.6, 0.0, 0.0, validation_mode=DEFINITION_ONLY)
        with pytest.raises(DomainError) as exc_info:
            operator_of_one(p, 1.0)
        assert "alpha+mu+eta+1" in str(exc_info.value)


class TestRlIntegralAndNorm:
    def test_rl_golden_values(self):
        assert rl_k_integral(1.0, 0.0, ONE, 3.0) == pytest.approx(3.0, rel=1e-13)
        assert rl_k_integral(2.0, 0.0, ONE, 1.0) == pytest.approx(0.5, rel=1e-13)
        assert rl_k_integral(0.5, 0.0, ONE, 1.0) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-12)

    def test_rl_rejects_bad_alpha(self):
        with pytest.raises((DomainError, ValidationError)):
            rl_k_integral(0.0, 0.0, ONE, 1.0)

