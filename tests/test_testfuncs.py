import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hyperk import (
    AffineFn,
    ConstructionError,
    DomainError,
    ExpFn,
    GenerationError,
    PowerFn,
    PowFn,
    ProductFn,
    SumFn,
    TabulatedFn,
    equality_instance,
    make_monotone_pair,
    make_ratio_pair,
    random_instance,
    sample_points,
    verify_hypotheses,
)
from hyperk.testfuncs import THEOREM_IDS, function_from_dict, instance_from_dict

ONE = PowerFn(1.0, 0.0)


def test_sample_points_cover_the_interval():
    pts = sample_points(2.5)
    assert len(pts) == 512
    assert np.all(pts > 0.0)
    assert pts.max() == 2.5
    # clustered toward both endpoints
    assert pts.min() < 2.5e-4
    assert np.sum(pts > 2.4) > 10


def geomspace_sample(x_max, count=512):
    """The sample built at x_max directly, geometric toward both ends."""
    half = count // 2
    lo = np.geomspace(x_max * 1e-6, x_max * 0.5, half)
    hi = x_max - np.geomspace(x_max * 1e-6, x_max * 0.5, count - half)
    return np.unique(np.concatenate([lo, hi, [x_max]]))


@pytest.mark.parametrize("count", [512, 64, 7])
@pytest.mark.parametrize("x_max", [0.37, 1.0, 2.5, 3.3, 10.0])
def test_sample_points_scale_the_unit_grid(x_max, count):
    pts = sample_points(x_max, count)
    assert pts[-1] == x_max
    assert np.all(pts[1:] > pts[:-1])
    # geomspace rounds 10**v, |v| up to about 7 here, to a few ulp in each
    # construction; the largest difference seen at these x_max was 13.5 ulp
    want = geomspace_sample(x_max, count)
    assert pts.shape == want.shape
    assert np.all(np.abs(pts - want) <= 16 * np.finfo(float).eps * want)


def test_sample_points_are_fresh_arrays():
    pts = sample_points(1.0)
    want = pts.copy()
    pts[:] = 0.0
    assert np.array_equal(sample_points(1.0), want)


def test_closure_evaluates_pointwise():
    """Sums, products and powers agree with their parts to 1e-14."""
    rng = np.random.default_rng(2)
    f = ExpFn(1.3, 0.4)
    g = PowerFn(0.7, 1.9)
    h = AffineFn(0.2, 1.1)
    spec = SumFn((ProductFn((f, g)), PowFn(h, 2.5)))
    ts = rng.uniform(0.01, 3.0, size=64)
    want = f(ts) * g(ts) + h(ts) ** 2.5
    assert np.allclose(spec(ts), want, rtol=1e-14, atol=0.0)


def test_tabulated_interpolates_linearly():
    t = TabulatedFn((0.0, 1.0, 2.0), (1.0, 3.0, 2.0))
    assert t(0.5) == pytest.approx(2.0, rel=1e-15)
    assert t(1.5) == pytest.approx(2.5, rel=1e-15)
    # constant continuation past the last breakpoint
    assert t(5.0) == pytest.approx(2.0, rel=1e-15)


class TestKinks:
    TAB = TabulatedFn((0.0, 0.3, 0.8, 1.5, 2.0), (1.0, 2.0, 1.0, 3.0, 2.0))

    def test_tabulated_keeps_the_knots_inside_the_interval(self):
        assert self.TAB.kinks(1.5) == (0.3, 0.8)
        assert self.TAB.kinks(3.0) == (0.3, 0.8, 1.5, 2.0)
        assert self.TAB.kinks(0.3) == ()

    def test_nested_trees_take_the_union(self):
        other = TabulatedFn((0.1, 0.8, 1.2), (1.0, 2.0, 1.5))
        spec = PowFn(SumFn((ProductFn((self.TAB, ExpFn(1.0, 0.5))), PowFn(other, 2.0))), 0.5)
        assert spec.kinks(1.0) == (0.1, 0.3, 0.8)
        assert spec.kinks(2.0) == (0.1, 0.3, 0.8, 1.2, 1.5)

    def test_leaf_families_have_none(self):
        smooth = SumFn((PowerFn(1.0, 0.5), ProductFn((ExpFn(1.0, 1.0), AffineFn(1.0, 1.0)))))
        for spec in (PowerFn(1.0, 0.5), ExpFn(1.0, 1.0), AffineFn(1.0, 1.0), smooth, smooth ** 2.0):
            assert spec.kinks(2.0) == ()


class TestSumAndProduct:
    """SumFn and ProductFn fold their parts left to right with + and *,
    and take the union of their kinks, yet stay two distinct families."""

    PARTS = (TabulatedFn((0.0, 0.4, 1.1, 2.0), (1.0, 2.5, 0.7, 1.3)),
             ExpFn(1.3, 0.4),
             TabulatedFn((0.2, 0.9, 1.5), (0.5, 1.0, 2.0)))

    def test_each_keeps_its_identity(self):
        total, product = SumFn(self.PARTS), ProductFn(self.PARTS)
        assert total != product and product != total
        assert total == SumFn(self.PARTS) and hash(total) == hash(SumFn(self.PARTS))
        assert product == ProductFn(self.PARTS) and hash(product) == hash(ProductFn(self.PARTS))
        # a frozen dataclass hashes its fields alone, so equal parts give
        # equal hashes; as keys the two still stay apart
        assert len({total: 0, product: 1}) == 2
        assert repr(total).startswith("SumFn(parts=(")
        assert repr(product).startswith("ProductFn(parts=(")
        assert repr(total)[len("SumFn"):] == repr(product)[len("ProductFn"):]
        assert (total.family, product.family) == ("sum", "product")

    def test_three_parts_fold_left_to_right(self):
        a, b, c = self.PARTS
        t = np.random.default_rng(23).uniform(0.01, 2.0, 257)
        assert np.array_equal(SumFn(self.PARTS)(t), (a(t) + b(t)) + c(t))
        assert np.array_equal(ProductFn(self.PARTS)(t), (a(t) * b(t)) * c(t))

    def test_kinks_are_the_sorted_union(self):
        for cls in (SumFn, ProductFn):
            assert cls(self.PARTS).kinks(1.2) == (0.2, 0.4, 0.9, 1.1)
            assert cls(self.PARTS).kinks(3.0) == (0.2, 0.4, 0.9, 1.1, 1.5, 2.0)


def test_function_serialization_roundtrip():
    rng = np.random.default_rng(10)
    from hyperk import draw_positive_function

    for _ in range(25):
        f = draw_positive_function(rng, 1.7)
        assert function_from_dict(f.to_dict()) == f


TAB = TabulatedFn((0.0, 0.5, 1.25), (1.0, 3.0, 2.0))
TAB_RECORD = {"family": "tabulated", "breakpoints": [0.0, 0.5, 1.25], "values": [1.0, 3.0, 2.0]}
RECORDS = [
    (PowerFn(1.5, 0.25), {"family": "power", "c": 1.5, "p0": 0.25}),
    (ExpFn(0.5, -1.0), {"family": "exp", "c": 0.5, "lam": -1.0}),
    (AffineFn(2.0, 0.75), {"family": "affine", "a0": 2.0, "b0": 0.75}),
    (TAB, TAB_RECORD),
    (SumFn((PowerFn(1.0, 2.0), TAB)),
     {"family": "sum", "parts": [{"family": "power", "c": 1.0, "p0": 2.0}, TAB_RECORD]}),
    (ProductFn((AffineFn(1.0, 0.5), ExpFn(2.0, 0.25), TAB)),
     {"family": "product", "parts": [{"family": "affine", "a0": 1.0, "b0": 0.5},
                                     {"family": "exp", "c": 2.0, "lam": 0.25}, TAB_RECORD]}),
    (PowFn(SumFn((TAB, ProductFn((PowerFn(0.5, 1.0), AffineFn(1.0, 1.0))))), 2.5),
     {"family": "pow", "base": {"family": "sum", "parts": [
         TAB_RECORD,
         {"family": "product", "parts": [{"family": "power", "c": 0.5, "p0": 1.0},
                                         {"family": "affine", "a0": 1.0, "b0": 1.0}]}]},
      "exponent": 2.5}),
]


@pytest.mark.parametrize("fn, record", RECORDS, ids=[fn.family for fn, _ in RECORDS])
def test_record_format_is_pinned(fn, record):
    """The exact records, key order included: benchmark fingerprints hash them."""
    got = fn.to_dict()
    assert got == record
    assert json.dumps(got) == json.dumps(record)
    assert function_from_dict(record) == fn
    assert function_from_dict(json.loads(json.dumps(got))) == fn


@pytest.mark.parametrize("record", [
    {"family": "spline", "knots": [0.0, 1.0]},
    {"family": "sum", "parts": [{"family": "power", "c": 1.0, "p0": 0.0}, {"family": "log"}]},
])
def test_unknown_family_is_rejected(record):
    with pytest.raises(DomainError, match="unknown function family"):
        function_from_dict(record)


def test_instance_serialization_roundtrip():
    for tid in THEOREM_IDS:
        inst = random_instance(99, tid)
        assert instance_from_dict(inst.to_dict()) == inst


class TestMakeRatioPair:
    def test_constant_ratio_on_unit_g(self):
        f, g = make_ratio_pair(ONE, PowerFn(1.7, 0.0), 1.0, 2.0)
        ts = sample_points(1.0, count=64)
        assert np.allclose(f(ts), 1.7, rtol=1e-15)
        assert np.allclose(g(ts), 1.0, rtol=0.0, atol=0.0)

    def test_affine_ratio_on_exponential_g(self):
        m, M, x_max = 0.5, 3.0, 2.0
        slope = (M - m) / (1.0 + x_max)
        ratio = AffineFn(m + slope, slope)   # (1+t)/(1+x_max)*(M-m)+m
        f, g = make_ratio_pair(ExpFn(1.0, 1.0), ratio, m, M, x_max=x_max)
        ts = sample_points(x_max)
        vals = f(ts) / g(ts)
        assert np.all(f(ts) > 0.0)
        assert np.all(vals >= m - 1e-12) and np.all(vals <= M + 1e-12)

    def test_unit_window_returns_g_pointwise(self):
        g = ExpFn(0.8, 0.6)
        f, g_out = make_ratio_pair(g, ONE, 1.0, 1.0)
        ts = sample_points(1.0, count=64)
        assert np.array_equal(f(ts), g(ts))
        assert g_out == g

    def test_escaping_ratio_is_rejected(self):
        with pytest.raises(ConstructionError):
            make_ratio_pair(ONE, AffineFn(1.0, 3.0), 1.0, 2.0)


class TestMakeMonotonePair:
    def test_deterministic(self):
        assert make_monotone_pair(123) == make_monotone_pair(123)

    def test_orientations(self):
        for seed in range(12):
            f, g = make_monotone_pair(seed, x_max=1.5)
            ts = sample_points(1.5)
            fv, gv = f(ts), g(ts)
            assert np.all(np.diff(fv) >= -1e-12 * np.abs(fv[1:]))
            assert np.all(np.diff(gv) <= 1e-12 * np.abs(gv[1:]))
            assert np.all(fv > 0.0) and np.all(gv > 0.0)

    def test_degenerate_constants_are_valid(self):
        # both weakly monotone; the checker must accept them
        inst = equality_instance("4.4")
        verify_hypotheses(inst)


class TestRandomInstance:
    def test_deterministic(self):
        for tid in THEOREM_IDS:
            assert random_instance(17, tid) == random_instance(17, tid)

    def test_distinct_across_theorems(self):
        assert random_instance(17, "3.1") != random_instance(17, "4.1")

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_parameter_windows(self, tid):
        for seed in range(40):
            inst = random_instance(seed, tid)
            pr = inst.params
            assert 0.3 <= pr.alpha <= 2.0
            assert -1.0 <= pr.beta <= 0.9
            assert -0.5 <= pr.mu <= 1.0
            assert pr.beta - 1.0 + 0.05 <= pr.eta <= -0.05
            assert 0.0 <= pr.k <= 2.0
            assert pr.alpha > max(0.0, -pr.beta - pr.mu)
            assert 0.5 <= inst.x <= 3.0
            if tid == "4.4":
                assert 0.5 <= inst.gamma <= 3.0
                assert 0.5 <= inst.delta <= 3.0
            else:
                assert 0.2 <= inst.m < inst.M <= 5.0
            if inst.p is not None:
                assert 1.1 <= inst.p <= 4.0
                assert abs(1.0 / inst.p + 1.0 / inst.q - 1.0) <= 1e-14

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_instances_verify_their_own_hypotheses(self, tid):
        for seed in range(25):
            verify_hypotheses(random_instance(seed, tid))

    def test_ratio_sandwich_holds_on_samples(self):
        inst = random_instance(8, "3.1")
        ts = sample_points(inst.x)
        ratio = inst.f(ts) / inst.g(ts)
        assert np.all(ratio >= inst.m - 1e-9)
        assert np.all(ratio <= inst.M + 1e-9)

    def test_power_sandwich_for_thm42(self):
        inst = random_instance(8, "4.2")
        ts = sample_points(inst.x)
        ratio = inst.f(ts) ** inst.p / inst.g(ts) ** inst.q
        assert np.all(ratio >= inst.m - 1e-9)
        assert np.all(ratio <= inst.M + 1e-9)

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_one_sample_per_accepted_instance(self, monkeypatch, tid):
        import hyperk.testfuncs as tf

        calls = []

        def counting_sample_points(*args, **kwargs):
            calls.append(args)
            return sample_points(*args, **kwargs)

        monkeypatch.setattr(tf, "sample_points", counting_sample_points)
        for seed in range(10):
            calls.clear()
            random_instance(seed, tid)
            assert len(calls) == 1

    def test_generator_stream_is_pinned(self):
        """sha256 of the to_dict JSON of seeds 0-199 for every theorem.

        Any change to the draws, their order or the acceptance rule moves it.
        """
        digest = hashlib.sha256()
        for seed in range(200):
            for tid in THEOREM_IDS:
                digest.update(json.dumps(random_instance(seed, tid).to_dict()).encode() + b"\n")
        assert digest.hexdigest() == (
            "5f7163ddb491bb7a74cff84869c09b24ea90b87197db2b79d9863eb0dd567694")

    def test_unknown_theorem_id(self):
        with pytest.raises(DomainError):
            random_instance(0, "5.1")

    def test_exhaustion_reported(self, monkeypatch):
        import hyperk.testfuncs as tf

        monkeypatch.setattr(tf, "_MAX_TRIES", 0)
        with pytest.raises(GenerationError):
            random_instance(0, "3.1")


class TestVerifyHypotheses:
    def test_rejects_broken_sandwich(self):
        inst = random_instance(3, "3.1")
        broken = dataclasses.replace(inst, m=5.0, M=5.1)
        with pytest.raises(ConstructionError):
            verify_hypotheses(broken)

    @pytest.mark.parametrize("tid", ["3.1", "4.2"])
    def test_sandwich_slack_is_1e12_relative(self, tid):
        # f/g (f^p/g^q for 4.2) is 1 up to round-off on the equality instance
        inst = equality_instance(tid)
        verify_hypotheses(dataclasses.replace(inst, m=1.0 - 1e-13, M=1.0 - 1e-13))
        with pytest.raises(ConstructionError):
            verify_hypotheses(dataclasses.replace(inst, m=1.0 - 1e-10, M=1.0 - 1e-10))

    def test_rejects_broken_monotonicity(self):
        inst = random_instance(3, "4.4")
        # swap the monotone pair: f must be non-decreasing, g non-increasing
        broken = dataclasses.replace(inst, f=AffineFn(2.0, -0.5), g=AffineFn(0.5, 1.0))
        with pytest.raises(ConstructionError):
            verify_hypotheses(broken)


def _whole_array_verdicts(kind, *args):
    """The checks as np.all / np.min / np.max over whole arrays, the form
    the sampled checks had before they read only the array's min and max:
    None where the check passes, else the ConstructionError text."""
    if kind == "positive":
        vals, = args
        ok = np.all(np.isfinite(vals)) and not np.min(vals) <= 0.0
        return None if ok else "is not positive and finite"
    if kind == "sandwich":
        ratio, m, M = args
        slack = 1e-12 * max(1.0, abs(M))
        if (not np.all(np.isfinite(ratio))
                or np.min(ratio) < m - slack or np.max(ratio) > M + slack):
            return (f"ratio sandwich [{m}, {M}] violated: observed "
                    f"[{float(np.min(ratio))}, {float(np.max(ratio))}]")
        return None
    vals, = args
    return bool(np.all(np.diff(vals) >= -1e-12 * max(1.0, float(np.max(np.abs(vals))))))


def _verdict(check, *args):
    try:
        check(*args)
    except ConstructionError as exc:
        return str(exc)
    return None


def _with(vals, index, value):
    out = np.array(vals)
    out[index] = value
    return out


class TestSampledChecksMatchWholeArrayForms:
    """The sampled checks read an array's min and max; on adversarial
    arrays they decide (and word their errors) as the whole-array forms do."""

    BAD = (np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300, -3.0, 5e-324)

    def test_positive_and_finite(self):
        import hyperk.testfuncs as tf

        base = np.linspace(0.5, 2.0, sample_points(1.0).size)
        cases = [base, np.full(base.size, np.nan)]
        cases += [_with(base, i, v) for v in self.BAD for i in (0, 256, -1)]
        for vals in cases:
            for label, f, g in (("f", vals, base), ("g", base, vals)):
                got = _verdict(tf._sampled, lambda t, v=f: v, lambda t, v=g: v, 1.0)
                want = _whole_array_verdicts("positive", vals)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got == f"{label} {want} on (0, 1.0]"

    def test_ratio_sandwich(self):
        import hyperk.testfuncs as tf

        m, M = 0.7, 3.0
        slack = 1e-12 * M
        base = np.linspace(m, M, 513)
        low, high = m - slack, M + slack
        cases = [base, _with(base, 7, low), _with(base, 7, np.nextafter(low, -np.inf)),
                 _with(base, -3, high), _with(base, -3, np.nextafter(high, np.inf))]
        cases += [_with(base, i, v) for v in (np.nan, np.inf, -np.inf) for i in (0, 256, -1)]
        verdicts = []
        for bounds in ((m, M), (0.2, 1.0), (m, np.inf), (np.nan, np.nan)):
            for ratio in cases:
                got = _verdict(tf._check_sandwich, ratio, *bounds)
                assert got == _whole_array_verdicts("sandwich", ratio, *bounds)
                verdicts.append(got is None)
        assert verdicts[:5] == [True, True, False, True, False]

    def test_monotone(self):
        import hyperk.testfuncs as tf

        rising = np.linspace(0.5, 2.0, 513)
        threshold = -1e-12 * 2.0
        steps = []
        for ulps in range(-3, 4):
            vals = rising.copy()
            # a step back of about 1e-12 of the largest value, in the middle
            vals[201] = vals[200] + threshold
            for _ in range(abs(ulps)):
                vals[201] = np.nextafter(vals[201], np.sign(ulps) * np.inf)
            steps.append(vals)
        cases = [rising, rising[::-1], -rising, np.zeros(513), *steps]
        cases += [_with(rising, i, v) for v in (np.nan, np.inf, -np.inf) for i in (0, 256, -1)]
        verdicts = []
        for vals in cases:
            for view in (vals, vals[::-1][::-1]):
                got = tf._is_nondecreasing(view)
                assert got is _whole_array_verdicts("monotone", view)
            verdicts.append(got)
        # the steps straddle the threshold
        assert True in verdicts[4:11] and False in verdicts[4:11]


def _whole_array_tabulated(rng, x_max, lo, hi, order=0):
    """_draw_tabulated as np.sort and np.unique over arrays."""
    inner = np.sort(rng.uniform(0.0, x_max, 3))
    bp = np.unique(np.concatenate([[0.0], inner, [x_max]]))
    vals = rng.uniform(lo, hi, len(bp))
    if order:
        vals = np.sort(vals)[::order]
    return TabulatedFn(tuple(bp), tuple(vals))


class _Replay:
    """An rng stand-in whose uniform draws come from preset unit values."""

    def __init__(self, *units):
        self.units = list(units)

    def uniform(self, lo, hi, size):
        return lo + (hi - lo) * np.array(self.units.pop(0)[:size])


class TestDrawsMatchArrayForms:
    def test_tabulated_draws(self):
        import hyperk.testfuncs as tf

        for seed in range(2000):
            x_max, lo, hi = 0.5 + seed % 7 * 0.4, 0.3 + seed % 3, 3.0 + seed % 5
            order = (0, 1, -1)[seed % 3]
            rng, ref_rng = (np.random.default_rng((seed, 91)) for _ in range(2))
            got = tf._draw_tabulated(rng, x_max, lo, hi, order)
            want = _whole_array_tabulated(ref_rng, x_max, lo, hi, order)
            assert repr(got) == repr(want)  # values and their types
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("order", [0, 1, -1])
    def test_breakpoint_drawn_at_zero(self, order):
        import hyperk.testfuncs as tf

        # a breakpoint at 0.0 and two equal ones collapse into the others
        units = ([0.0, 0.35, 0.35], [0.9, 0.1, 0.5, 0.3])
        got = tf._draw_tabulated(_Replay(*units), 2.0, 0.3, 3.0, order)
        want = _whole_array_tabulated(_Replay(*units), 2.0, 0.3, 3.0, order)
        assert got.breakpoints == (0.0, 0.7, 2.0)
        assert repr(got) == repr(want)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    def test_ratio_bounds(self):
        import hyperk.testfuncs as tf

        for seed in range(2000):
            tid = THEOREM_IDS[seed % 5]  # the ratio-sandwich theorems
            inst = random_instance(seed, tid)
            rng = np.random.default_rng((seed, tf._THEOREM_KEYS[tid]))
            tf._draw_params(rng)
            rng.uniform(0.5, 3.0)
            rng.uniform(1.1, 4.0)
            lo, hi = np.sort(rng.uniform(0.2, 5.0, 2))
            if hi - lo < 0.05:
                hi = lo + 0.05
            assert (inst.m, inst.M) == (float(lo), float(hi))


class TestEqualityInstance:
    @pytest.mark.parametrize("tid", ["3.1", "3.2", "4.1", "4.3"])
    def test_unit_window_and_equal_functions(self, tid):
        inst = equality_instance(tid)
        assert inst.m == inst.M == 1.0
        assert inst.f == inst.g
        verify_hypotheses(inst)

    def test_thm42_power_coupling(self):
        inst = equality_instance("4.2")
        assert inst.m == inst.M == 1.0
        ts = sample_points(inst.x, count=64)
        assert np.allclose(inst.f(ts) ** inst.p, inst.g(ts) ** inst.q, rtol=1e-12)

    def test_thm44_constant_pair(self):
        inst = equality_instance("4.4")
        ts = sample_points(inst.x, count=64)
        assert np.allclose(inst.f(ts), inst.g(ts), rtol=0.0, atol=0.0)
