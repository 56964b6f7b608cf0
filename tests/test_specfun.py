import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperk import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    HyperkError,
    beta,
    gauss_2f1,
    log_gamma,
    pochhammer,
)
from hyperk import specfun
from hyperk.specfun import _series_2f1_vec, gamma_ratio
from oracles import series_2f1


class TestLogGamma:
    def test_golden_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_accuracy_on_working_range(self):
        """exp(log_gamma) within 1e-13 relative of Gamma on [0.1, 170].

        The comparison runs in extended precision so the reference is the
        real value, not its nearest double.
        """
        rng = np.random.default_rng(1234)
        xs = np.concatenate([
            np.linspace(0.1, 2.0, 150),
            np.linspace(2.0, 170.0, 300),
            rng.uniform(0.1, 170.0, 300),
            [0.1, 170.0],
        ])
        with mp.workdps(40):
            for x in xs:
                x = float(x)
                err = abs(mp.mpf(log_gamma(x)) - mp.loggamma(mp.mpf(x)))
                # |d log Gamma| is the relative error of the exponential
                assert err <= 1e-13, f"log_gamma({x}) off by {float(err)}"

    @pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310, 1.5e300, 1e303, 2.5e305])
    def test_both_ends_of_the_float_range(self, x):
        """Subnormal x, where pi / sin(pi x) overflows, and x above about
        1.34e300, where the Dekker split of z + 1/2 overflows, still get
        log Gamma to 1e-13 relative."""
        with mp.workdps(40):
            want = mp.loggamma(mp.mpf(x))
            assert abs(mp.mpf(log_gamma(x)) / want - 1) <= 1e-13

    @pytest.mark.parametrize("x", [1e306, 1e307, 1.7976931348623157e308])
    def test_beyond_the_float_range_is_never_nan(self, x):
        """log Gamma(x) exceeds the largest double here."""
        try:
            value = log_gamma(x)
        except HyperkError:
            return
        assert value == math.inf

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


def reflection_grid(n, seed):
    """n seeded negative non-integers in (-10.5, 0), n points of (0, 1/2),
    and 0, -1, ..., -10 each exactly and 1e-9 either side."""
    rng = np.random.default_rng(seed)
    negative = -rng.uniform(0.0, 10.5, 2 * n)
    negative = negative[np.abs(negative - np.round(negative)) > 1e-6][:n]
    near_poles = [j + d for j in range(0, -11, -1) for d in (-1e-9, 0.0, 1e-9)]
    return [*negative.tolist(), *rng.uniform(0.0, 0.5, n).tolist(), *near_poles]


def test_reflection_bits_are_pinned():
    """float.hex of log |Gamma| and its sign, of log |1/Gamma| and its sign
    and, for x > 0, of log_gamma, over both sides of the reflection formula
    and up to the poles: the operator's connection coefficients reach only
    some of these arguments, so this pins the rest."""
    digest = hashlib.sha256()
    for x in reflection_grid(1000, 2303):
        calls = [specfun._signed_log_gamma, specfun._signed_log_rgamma]
        if x > 0.0:
            calls.append(lambda v: (log_gamma(v),))
        digest.update(x.hex().encode())
        for call in calls:
            try:
                digest.update(" ".join(float(v).hex() for v in call(x)).encode())
            except DomainError:
                digest.update(b"DomainError")
    assert digest.hexdigest() == "31a767badaf60122e7a982648ea213c6a1305bd59a010be9b9647aa8a05c453a"


class TestPochhammer:
    @pytest.mark.parametrize("a", [-2.5, -1.0, 0.0, 0.3, 1.0, 7.5])
    def test_empty_product(self, a):
        assert pochhammer(a, 0) == 1.0

    def test_golden_values(self):
        assert pochhammer(3.0, 2) == 12.0
        assert pochhammer(0.5, 3) == 1.875
        assert pochhammer(0.0, 3) == 0.0
        assert pochhammer(-2.0, 4) == 0.0

    @given(
        a=st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0),
        n=st.integers(min_value=0, max_value=20),
    )
    def test_recurrence_exact(self, a, n):
        assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


class TestBeta:
    def test_golden_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta(2.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    @given(
        p=st.floats(min_value=0.05, max_value=60.0),
        q=st.floats(min_value=0.05, max_value=60.0),
    )
    @settings(max_examples=200)
    def test_symmetry(self, p, q):
        assert beta(p, q) == pytest.approx(beta(q, p), rel=1e-14)

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_rejects_nonpositive(self, p, q):
        with pytest.raises(DomainError):
            beta(p, q)


def gamma_ratio_args(n, seed):
    """n draws of (p, q, r, t) on [-4.5, 6], each at least 0.05 from an integer."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        args = rng.uniform(-4.5, 6.0, 4)
        if np.all(np.abs(args - np.round(args)) >= 0.05):
            out.append(tuple(float(v) for v in args))
    return out


class TestGammaRatio:
    def test_matches_mpmath_at_negative_arguments(self):
        cases = [(-0.5, 1.5, -1.3, 2.2), (-2.7, -0.4, -3.6, -1.5), *gamma_ratio_args(100, 11)]
        with mp.workdps(40):
            for p, q, r, t in cases:
                sign, log_abs = gamma_ratio(p, q, r, t)
                want = mp.gamma(p) * mp.gamma(q) / (mp.gamma(r) * mp.gamma(t))
                assert sign == (1.0 if want > 0 else -1.0), (p, q, r, t)
                assert abs(mp.mpf(log_abs) - mp.log(abs(want))) <= 1e-13, (p, q, r, t)

    @pytest.mark.parametrize("r,t", [(-2.0, 0.7), (1.4, 0.0), (-1.0, -3.0)])
    def test_pole_in_denominator_gives_zero_sign(self, r, t):
        assert gamma_ratio(1.5, -0.5, r, t)[0] == 0.0

    def test_exact_under_denominator_swap(self):
        for p, q, r, t in gamma_ratio_args(100, 12):
            assert gamma_ratio(p, q, r, t) == gamma_ratio(p, q, t, r)


def reachable_triples(n, seed):
    """(a, b, c) combinations the operator kernel can actually request.

    a = alpha + beta + eta-free stuff, b = -eta in (0, 1), c = alpha.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        alpha = rng.uniform(0.3, 2.0)
        bb = rng.uniform(-1.0, 0.9)
        mu = rng.uniform(-0.5, 1.0)
        eta = rng.uniform(bb - 1.0 + 0.05, -0.05)
        out.append((alpha + bb + mu, -eta, alpha))
    return out


class TestGauss2F1:
    def test_value_at_zero_is_one(self):
        for a, b, c in [(0.3, 0.2, 1.5), (-1.7, 4.0, 0.2), (2.0, 2.0, 2.0)]:
            assert gauss_2f1(a, b, c, 0.0) == 1.0

    @pytest.mark.parametrize("z", [0.0, 0.3, 0.9, 0.99, 1.0])
    def test_terminating_a_zero(self, z):
        assert gauss_2f1(0.0, 0.9, 0.3, z) == 1.0
        assert gauss_2f1(0.9, 0.0, 0.3, z) == 1.0

    def test_terminating_polynomial(self):
        # a = -2 gives the quadratic 1 - 2(b/c) z + (b(b+1)/(c(c+1))) z^2
        b, c = 0.9, 0.3
        for z in (0.25, 0.8, 1.0):
            exact = 1.0 - 2.0 * b / c * z + (b * (b + 1.0)) / (c * (c + 1.0)) * z * z
            assert gauss_2f1(-2.0, b, c, z) == pytest.approx(exact, rel=1e-14)

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1 - z)/z
        assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)

    def test_gauss_summation_golden(self):
        want = math.exp(log_gamma(1.5) - log_gamma(1.2) - log_gamma(1.3))
        assert gauss_2f1(0.3, 0.2, 1.5, 1.0) == pytest.approx(want, rel=1e-13)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(77)
        for a, b, c in reachable_triples(40, 99):
            z = float(rng.uniform(0.0, 0.99))
            got = gauss_2f1(a, b, c, z)
            want = series_2f1(a, b, c, z)
            assert got == pytest.approx(want, rel=1e-12), (a, b, c, z)

    def test_swap_symmetry_is_exact(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 300:
            a = float(rng.uniform(-2.0, 4.0))
            b = float(rng.uniform(0.05, 1.0))
            c = float(rng.uniform(0.3, 2.0))
            z = float(rng.choice([rng.uniform(0.0, 0.9), rng.uniform(0.9, 0.999)]))
            try:
                lhs = gauss_2f1(a, b, c, z)
                rhs = gauss_2f1(b, a, c, z)
            except ConvergenceError:
                continue
            assert lhs == rhs, (a, b, c, z)
            checked += 1

    def test_continuity_into_gauss_point(self):
        """Approach z = 1 and land on the closed-form summation value.

        The true function changes by about (1-z)^s near z = 1, so the
        1e-4 comparison only makes sense for s safely above 0.5 and with
        the Gamma factors of the z = 1 value away from their poles (where
        the value crosses zero and relative error is meaningless).
        """
        def pole_distance(v):
            return abs(v - round(v)) if v < 0.5 else v

        rng = np.random.default_rng(5)
        checked = 0
        while checked < 400:
            c = float(rng.uniform(0.3, 2.0))
            b = float(rng.uniform(0.05, 0.95))
            a = c - b - float(rng.uniform(0.8, 2.5))
            s = c - (a + b)
            if abs(s - round(s)) < 1e-3:
                continue
            if pole_distance(c - a) < 0.15 or pole_distance(c - b) < 0.15:
                continue
            near = gauss_2f1(a, b, c, 1.0 - 1e-6)
            at_one = gauss_2f1(a, b, c, 1.0)
            assert near == pytest.approx(at_one, rel=1e-4), (a, b, c, s)
            checked += 1

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError):
            gauss_2f1(0.7, 0.2, 0.4, 1.0)
        with pytest.raises(DivergenceError):
            gauss_2f1(0.5, 0.5, 1.0, 1.0)  # s = 0 diverges too

    @pytest.mark.parametrize("c", [0.0, -1.0, -3.0])
    def test_rejects_c_pole(self, c):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, c, 0.5)

    @pytest.mark.parametrize("z", [-0.1, 1.1, float("nan")])
    def test_rejects_bad_z(self, z):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 1.5, z)

    def test_rejects_nonfinite_parameters(self):
        with pytest.raises(DomainError):
            gauss_2f1(float("inf"), 0.5, 1.5, 0.5)

    def test_nonconvergence_reported(self):
        # integer gap s = -1 disables the connection rearrangement and the
        # direct series cannot reach 1e-16 within the term cap at z = 0.999
        with pytest.raises(ConvergenceError):
            gauss_2f1(0.7, 0.7, 0.4, 0.999)

    def test_batch_does_not_truncate_small_totals(self):
        # 2F1(-2.5, 1; 1; z) = (1 - z)^2.5 is about 3e-3 at z = 0.9; next to
        # the element z = 0 (total 1), a stopping rule shared by the batch
        # would cut its series off at about 2e-13 relative error
        got = _series_2f1_vec(-2.5, 1.0, 1.0, np.array([0.0, 0.9]))[1]
        want = mp.hyp2f1(-2.5, 1.0, 1.0, 0.9)
        assert float(abs((got - want) / want)) <= 5e-14


def series_loop(a, b, c, z):
    """Term-by-term form of _series_2f1_vec: same stop rule, one term a step.

    Returns the sum and the sum of the terms' magnitudes.
    """
    term = np.ones_like(z)
    total = np.ones_like(z)
    size = np.ones_like(z)
    for n in range(10000):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        total = total + term
        size = size + np.abs(term)
        if np.all(np.abs(term) <= 1e-16 * np.abs(total)):
            return total, size
    raise ConvergenceError("series_loop")


class TestSeriesBlocks:
    """_series_2f1_vec element by element against mpmath and its loop form."""

    @staticmethod
    def assert_matches_mpmath(a, b, c, z):
        got = _series_2f1_vec(a, b, c, z)
        assert got.shape == z.shape
        for zi, gi in zip(z, got):
            want = mp.hyp2f1(a, b, c, zi)
            assert float(abs((gi - want) / want)) <= 5e-14, (a, b, c, zi)

    @pytest.mark.parametrize("a,b,c", [
        (-2.5, 1.0, 1.0),   # (1 - z)^2.5: totals from 1 down to 3e-3
        (2.5, 1.5, 1.2),    # totals from 1 up to about 6e2
        (0.7, -0.3, 0.4),
    ])
    def test_mixed_totals(self, a, b, c):
        self.assert_matches_mpmath(a, b, c, np.array([0.0, 0.01, 0.3, 0.5, 0.75, 0.9]))

    @pytest.mark.parametrize("a,b,c", [(0.5, 0.5, 1.5), (-1.3, 0.8, 2.1), (1.2, 0.4, 2.6)])
    def test_many_blocks(self, a, b, c):
        # about 700 terms at z = 0.95, more than ten chunks of 64 term ratios
        self.assert_matches_mpmath(a, b, c, np.linspace(0.0, 0.95, 12))

    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (-1.0, 0.5), (-4.0, 0.5), (-70.0, -100.5)])
    def test_terminating(self, a, b):
        # every term from n = -a on is exactly zero: within the first chunk,
        # or (a = -70) in the second; b = -100.5 keeps that polynomial's
        # terms of one sign, so its sum is well conditioned
        self.assert_matches_mpmath(a, b, 1.5, np.array([0.0, 0.2, 0.5, 0.9]))

    def test_matches_term_by_term_loop(self):
        # the series multiplies each term by ratio_n * z where the loop
        # multiplies by ratio_n, then z; the sums are added in the same
        # order, so the two agree to a few ulps of the terms' magnitudes
        # (tolerance 50 eps of their sum: cancelling terms make the total
        # itself smaller)
        rng = np.random.default_rng(2026_06)
        for _ in range(200):
            a, b = rng.uniform(-3.0, 3.0, 2)
            c = rng.uniform(0.1, 3.0)
            z = rng.uniform(0.0, rng.choice([0.5, 0.9]), int(rng.integers(1, 130)))
            got = _series_2f1_vec(a, b, c, z)
            want, size = series_loop(a, b, c, z)
            assert np.all(np.abs(got - want) <= 50 * np.finfo(float).eps * size)

    def test_single_block_values_are_pinned(self):
        # the bits of 200 seeded one-block calls, recorded from the
        # cumprod/cumsum form of the series, and of gauss_2f1 through the
        # connection formula: a rewrite of the summation must stop at the
        # same term and add the terms in the same order, on z up to 0.9 as
        # well as on the operator's z <= 1/2
        rng = np.random.default_rng(2026_13)
        digest = hashlib.sha256()
        for i in range(200):
            a, b = rng.uniform(-3.0, 3.0, 2)
            if i % 5 == 0:
                a = float(rng.choice([0.0, -1.0, -4.0, -70.0]))
            c = rng.uniform(0.1, 3.0)
            z = rng.uniform(0.0, rng.choice([0.5, 0.9]), int(rng.integers(1, 130)))
            digest.update(_series_2f1_vec(a, b, c, z).tobytes())
        assert digest.hexdigest() == (
            "e36d416fc3de87b86826faed1f72f7918491271fa38eb5a9ea34953533ff9d24"
        )
        rng = np.random.default_rng(2026_131)
        values = []
        for _ in range(60):
            a, b = rng.uniform(-3.0, 3.0, 2)
            s = rng.integers(0, 3) + rng.uniform(0.01, 0.99)
            values.append(gauss_2f1(a, b, a + b + s, rng.uniform(0.9, 1.0)))
        assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == (
            "727232d5e737ec11b7ef9097c4c96b7a5dbfc5f32c8cd787991643941ee46543"
        )

    def test_one_element_values_are_pinned(self):
        # the bits of gauss_2f1 on z in [0, 0.9], where it is the series
        # itself, and of one-element series calls in both calling forms: a
        # call of one element takes the same sweep and stop as any other
        rng = np.random.default_rng(2026_14)
        values = []
        for i in range(100):
            a, b = rng.uniform(-3.0, 3.0, 2)
            if i % 5 == 0:
                a = float(rng.choice([0.0, -1.0, -4.0, -12.0]))
            values.append(gauss_2f1(a, b, rng.uniform(0.1, 3.0), rng.uniform(0.0, 0.9)))
        assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == (
            "b574f796f8dc73a7c967ff05e063af78d9ffb86705922f787fd0787465be0dd5"
        )
        digest = hashlib.sha256()
        for i in range(50):
            a, b = rng.uniform(-3.0, 3.0, 2)
            c, z = rng.uniform(0.1, 3.0), rng.uniform(0.0, 0.9)
            if i % 2:
                got = _series_2f1_vec(a, b, c, np.array([z]))
            else:
                got = _series_2f1_vec((a,), (b,), (c,), np.array([z]), (1,))
            assert got.shape == (1,)
            digest.update(got.tobytes())
        assert digest.hexdigest() == (
            "e54ddf997e806fc7ab6cc1b7ac11d589ce53f7f12f4b47d3b26a1053c3350e18"
        )

    def test_joint_call_returns_each_sets_own_values(self):
        # the operator builds every refinement level of a panel from one
        # call over all of their nodes: a neighbour that needs more terms
        # only adds terms past an element's own stop, and on z <= 1/2 those
        # fall below half an ulp of its sum, so each element keeps its value
        rng = np.random.default_rng(2026_10)
        for _ in range(300):
            a, b = rng.uniform(-3.0, 3.0, 2)
            c = rng.uniform(0.1, 3.0)
            z1 = rng.uniform(0.0, 0.5, int(rng.integers(1, 130)))
            z2 = rng.uniform(0.0, 0.5, int(rng.integers(1, 260)))
            both = _series_2f1_vec(a, b, c, np.concatenate((z1, z2)))
            assert np.array_equal(both[: z1.size], _series_2f1_vec(a, b, c, z1))
            assert np.array_equal(both[z1.size :], _series_2f1_vec(a, b, c, z2))
        # and one call takes the 2F1 factors of every panel of a
        # discretization, one parameter block per series term, with c drawn
        # as the panels draw it (alpha, 1 - s or 1 + s for a gap s off the
        # integers) and a terminating a now and then: the call stops once for
        # every block, and each equals itself computed alone, bit for bit
        for _ in range(200):
            blocks = []
            for _ in range(int(rng.integers(2, 10))):
                a, b = rng.uniform(-3.0, 3.0, 2)
                s = rng.integers(-2, 3) + rng.choice([-1.0, 1.0]) * rng.uniform(2e-4, 0.5)
                c = rng.choice([rng.uniform(0.05, 3.0), 1.0 - s, 1.0 + s])
                z = rng.uniform(0.0, 0.5, int(rng.integers(1, 261)))
                if rng.random() < 0.1:
                    a, z = float(rng.choice([0.0, -1.0, -4.0])), 1.0 - z
                blocks.append((a, b, c, z))
            joint = joint_call(blocks)
            alone = np.concatenate([_series_2f1_vec(*block) for block in blocks])
            assert np.array_equal(joint, alone)
        # the call stops once for all of its blocks, so stress what that
        # rests on: narrow blocks that stop near 10 terms beside wide ones
        # that need about 52, c = 1 - s near 0, -1 or -2 (a gap s nudged
        # 2e-4 to 8e-4 off an integer) and terminating a up to -12 on z in
        # [1/2, 1]
        for _ in range(200):
            blocks = []
            for _ in range(int(rng.integers(2, 10))):
                a, b = rng.uniform(-3.0, 3.0, 2)
                s = rng.integers(1, 4) + rng.choice([-1.0, 1.0]) * rng.uniform(2e-4, 8e-4)
                c = rng.choice([rng.uniform(0.05, 3.0), 1.0 - s])
                z = rng.uniform(0.0, rng.choice([0.01, 0.1, 0.5]), int(rng.integers(1, 261)))
                if rng.random() < 0.2:
                    a = float(rng.choice([0.0, -1.0, -4.0, -12.0]))
                    z = rng.uniform(0.5, 1.0, z.size)
                blocks.append((a, b, c, z))
            joint = joint_call(blocks)
            alone = np.concatenate([_series_2f1_vec(*block) for block in blocks])
            assert np.array_equal(joint, alone)

    def test_nonconvergence_names_its_block(self):
        # the integer gap of gauss_2f1(0.7, 0.7, 0.4, 0.999) beside a block
        # that converges: the message names the block that did not
        with pytest.raises(ConvergenceError, match=r"a=0\.7, b=0\.7, c=0\.4, max z=0\.999"):
            _series_2f1_vec((0.5, 0.7), (0.5, 0.7), (1.5, 0.4), np.array([0.2, 0.4, 0.999]), (2, 1))


def joint_call(blocks):
    """One series call over blocks of (a, b, c, z): their arguments as one
    flat array, and the blocks' sizes."""
    a, b, c, z = zip(*blocks)
    return _series_2f1_vec(a, b, c, np.concatenate(z), [v.size for v in z])


def row_sweep(a, b, c, flat, sizes):
    """The term-by-term sweep the product chain replaces: the same ratios
    fl(r_n * z), then term *= ratio; total += term per term, stopping at the
    first term at which every element of every block has converged."""
    a, b, c = np.array((a, b, c), dtype=float)
    term, total = np.ones((2, flat.size))
    for n in map(float, range(10000)):
        ratio = np.repeat((a + n) * (b + n) / ((c + n) * (n + 1.0)), sizes)
        ratio *= flat
        term *= ratio
        total += term
        if (np.abs(term) <= 1e-16 * np.abs(total)).all():
            return total
    raise ConvergenceError("row_sweep")


def random_blocks(rng, count, size):
    """(a, b, c, flat z, sizes) of count blocks of size arguments in [0, 1/2],
    a terminating now and then."""
    blocks = []
    for _ in range(count):
        a, b = rng.uniform(-3.0, 3.0, 2)
        if rng.random() < 0.2:
            a = float(rng.choice([0.0, -1.0, -4.0, -12.0]))
        blocks.append((a, b, rng.uniform(0.05, 3.0), rng.uniform(0.0, 0.5, size)))
    a, b, c, z = zip(*blocks)
    return a, b, c, np.concatenate(z), (size,) * count


class TestSeriesSweep:
    """The product chain and row reduction against the row sweep, bit for bit."""

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_small_blocks_match_the_row_sweep(self, size):
        # one column is the case numpy would add pairwise: 200 one-element
        # calls tell a row reduction from the sweep
        rng = np.random.default_rng(2026_19 + size)
        for _ in range(200):
            blocks = random_blocks(rng, 1, size)
            a, b, c, z, _ = blocks
            assert np.array_equal(_series_2f1_vec(*blocks), row_sweep(*blocks))
            assert np.array_equal(_series_2f1_vec(a[0], b[0], c[0], z), row_sweep(*blocks))
        for _ in range(50):
            blocks = random_blocks(rng, int(rng.integers(2, 4)), size)
            assert np.array_equal(_series_2f1_vec(*blocks), row_sweep(*blocks))

    @pytest.mark.parametrize("count", [3, 2, 9])
    def test_operator_shapes_match_the_row_sweep(self, count):
        # 3 blocks split, 2 terminating, 9 nudged, each of the 48 nodes of
        # an order-16 discretization's two levels or the 192 of order 64
        rng = np.random.default_rng(2026_190 + count)
        for size in (48, 192):
            for _ in range(20):
                blocks = random_blocks(rng, count, size)
                assert np.array_equal(_series_2f1_vec(*blocks), row_sweep(*blocks))

    def test_plans_are_read_only_and_per_block(self):
        # a cached plan is shared by every later call on its parameter set:
        # its rows cannot be written, and it holds one column per block,
        # never an array per argument
        specfun._first_chunk.cache_clear()
        a, b, c, z, sizes = random_blocks(np.random.default_rng(2026_191), 3, 192)
        _series_2f1_vec(a, b, c, z, sizes)
        assert specfun._first_chunk.cache_info().currsize == 1
        ratios, _, ahead = specfun._first_chunk(a, b, c, tuple(float(np.max(v)) for v in np.split(z, 3)))
        assert specfun._first_chunk.cache_info().hits == 1
        assert not (ratios.flags.writeable or ahead.flags.writeable)
        assert ratios.shape[1] == 3 and ahead.shape == (2, 3)

    def test_warm_plan_equals_cold(self):
        # a plan built by one call serves the next on equal parameters,
        # +0.0 and -0.0 as one key, and gives what a fresh plan gives
        rng = np.random.default_rng(2026_192)
        for a, b in [(0.0, -0.0), (-0.0, 0.0), (-0.0, 1.5), (-2.0, -0.0), (0.7, 0.3)]:
            z = rng.uniform(0.0, 0.5, 40)
            specfun._first_chunk.cache_clear()
            _series_2f1_vec(a + 0.0, b + 0.0, 1.3, z[::-1])  # -0.0 + 0.0 is +0.0
            warm = _series_2f1_vec(a, b, 1.3, z)
            assert specfun._first_chunk.cache_info()[:2] == (1, 1)
            specfun._first_chunk.cache_clear()
            assert np.array_equal(warm, _series_2f1_vec(a, b, 1.3, z))
