import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevians.exceptions import NegativeSqrtDomainError
from cevians.intervals import Interval, _round_down, _round_up

finite = st.floats(-1e6, 1e6, allow_nan=False)


def ivals(lo=-1e6, hi=1e6):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(
        lambda p: Interval(min(p), max(p))
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_point(self):
        p = Interval.point(3.5)
        assert p.lo == p.hi == 3.5


class TestCaseTables:
    def test_sqrt_of_four(self):
        r = Interval(4.0, 4.0).sqrt()
        assert r.lo <= 2.0 <= r.hi
        assert r.hi - r.lo <= 2 * math.ulp(2.0)

    def test_mixed_sign_product(self):
        r = Interval(1.0, 2.0) * Interval(-1.0, 3.0)
        assert r.lo <= -2.0 and r.hi >= 6.0
        assert r.lo >= -2.0 - 2 * math.ulp(2.0)
        assert r.hi <= 6.0 + 2 * math.ulp(6.0)

    def test_sqrt_negative_interval_raises(self):
        with pytest.raises(NegativeSqrtDomainError):
            Interval(-1.0, -0.5).sqrt()

    def test_sqrt_clamps_partial_negative(self):
        r = Interval(-1.0, 4.0).sqrt()
        assert r.lo == 0.0
        assert r.hi >= 2.0

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1.0, 2.0) / Interval(-1.0, 1.0)

    def test_division_positive(self):
        r = Interval(1.0, 2.0) / Interval(4.0, 8.0)
        assert r.lo <= 0.125 and r.hi >= 0.5

    def test_negation(self):
        r = -Interval(-1.0, 3.0)
        assert (r.lo, r.hi) == (-3.0, 1.0)


def _lerp(iv, t):
    # clamp: the naive lerp can overshoot an endpoint when signs differ
    return min(max(iv.lo + t * (iv.hi - iv.lo), iv.lo), iv.hi)


class TestContainment:
    """The enclosure property: point images always land inside results."""

    @given(ivals(), ivals(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=500)
    def test_binary_ops(self, x, y, tx, ty):
        px = _lerp(x, tx)
        py = _lerp(y, ty)
        assert (x + y).contains(px + py)
        assert (x - y).contains(px - py)
        assert (x * y).contains(px * py)

    @given(ivals(lo=0.0), st.floats(0, 1))
    @settings(max_examples=500)
    def test_sqrt(self, x, t):
        assert x.sqrt().contains(math.sqrt(_lerp(x, t)))

    @given(ivals(lo=1e-3), ivals(lo=1e-3), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=500)
    def test_div(self, x, y, tx, ty):
        assert (x / y).contains(_lerp(x, tx) / _lerp(y, ty))

    @given(ivals(lo=0.1, hi=10.0), st.floats(0, 1))
    @settings(max_examples=300)
    def test_composed_expression(self, x, t):
        p = _lerp(x, t)
        one = Interval.point(1.0)
        expr = (x * x + one).sqrt() - x
        point = math.sqrt(p * p + 1.0) - p
        assert expr.contains(point)


class TestLattice:
    def test_subset_and_intersect(self):
        a = Interval(0.0, 1.0)
        b = Interval(-1.0, 2.0)
        assert a.is_subset_of(b)
        assert not b.is_subset_of(a)

    @given(ivals(), ivals())
    @settings(max_examples=300)
    def test_op_isotonicity(self, x, y):
        # shrink x to its middle half; results must nest
        quarter = 0.25 * (x.hi - x.lo)
        inner = Interval(x.lo + quarter, x.hi - quarter)
        assert (inner + y).is_subset_of(x + y)
        assert (inner * y).is_subset_of(x * y)


TINY = np.finfo(float).tiny
BIG = np.finfo(float).max
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, BIG, -BIG,
            math.inf, -math.inf, math.nan]
SIZES = (1023, 1024, 3077)  # odd and even array lengths


def _next_up(v):
    """IEEE 754 nextUp from the bit pattern, for finite values and -inf.

    Read as sign-magnitude integers, nextUp adds one ulp of magnitude to a
    nonnegative value and removes one from a negative value: +-1 on the
    int64 view.  Adding 0.0 first makes -0.0 into +0.0, so both zeros step
    to the least subnormal.
    """
    w = np.array(v, dtype=np.float64) + 0.0
    bits = w.view(np.int64)
    bits += (bits >> 63) | 1
    return w


def _assert_next(v):
    """_round_up is nextUp and _round_down is -nextUp(-v), bit for bit.

    +inf is fixed by nextUp (and -inf by nextDown), and NaN gives NaN.
    """
    with np.errstate(over="ignore"):  # nextafter flags overflow at +-max
        up, down = _round_up(v), _round_down(v)
    v = np.asarray(v, dtype=np.float64)
    for got, src, sign in ((up, v, 1.0), (down, -v, -1.0)):
        got = np.atleast_1d(got)
        src = np.atleast_1d(src)
        nan = np.isnan(src)
        assert np.isnan(got[nan]).all()
        fixed = src == math.inf
        assert (got[fixed] == sign * math.inf).all()
        step = ~nan & ~fixed
        want = sign * _next_up(src[step])
        assert np.array_equal(got[step].view(np.int64), want.view(np.int64))


@pytest.mark.filterwarnings("error")
class TestRounding:
    """_round_up and _round_down against nextUp and nextDown from the bits."""

    @pytest.mark.parametrize("n", SIZES)
    def test_special_values(self, n):
        _assert_next(np.resize(np.array(SPECIALS), n))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20260)
        bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                            1_000_000, dtype=np.int64, endpoint=True)
        v = bits.view(np.float64)
        assert np.isnan(v).any()
        # Signaling NaNs among the patterns flag "invalid" on any arithmetic,
        # nextafter's included.
        with np.errstate(invalid="ignore"):
            _assert_next(v)

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_hypothesis_floats(self, values):
        for n in (len(values), *SIZES):
            _assert_next(np.resize(np.array(values), n))

    @pytest.mark.parametrize("value", SPECIALS + [1.0, -3.5])
    def test_scalars_and_zero_d_arrays(self, value):
        _assert_next(value)
        _assert_next(np.array(value))


def _same_bits(got, want):
    return np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                          np.asarray(want, dtype=float).view(np.int64))


def _down(v):
    return np.nextafter(v, -np.inf)


def _up(v):
    return np.nextafter(v, np.inf)


class TestOperationSets:
    """add, sub, mul, div and sqrt, with float operands as exact constants.

    With a constant k, an interval [lo, hi] gives a + k = (down(lo + k),
    up(hi + k)), a - k = (down(lo - k), up(hi - k)), k - a = (down(k - hi),
    up(k - lo)) and, for k > 0, a*k = (down(lo*k), up(hi*k)): the bits of
    the one-constant methods these branches replace.  A jet's a + k and
    a - k change its value row only.
    """

    @pytest.fixture
    def pair(self, rng):
        lo = rng.uniform(-3.0, 3.0, 200)
        return lo, lo + rng.uniform(0.0, 1.0, 200) * rng.choice([0.0, 1e-9, 1.0], 200)

    def test_each_set_has_exactly_five_operations(self):
        from cevians.certifier import _JetOps
        from cevians.intervals import _FloatOps, _IntervalOps

        for ops in (_FloatOps, _IntervalOps, _JetOps):
            names = {name for name in vars(ops) if not name.startswith("_")}
            assert names == {"add", "sub", "mul", "div", "sqrt"}

    def test_float_ops_take_constants_as_operators_do(self, pair):
        from cevians.intervals import _FloatOps as ops

        v = pair[0]
        for k in (2.0, 1.0, 0.5, -4.0):
            assert _same_bits(ops.add(v, k), v + k) and _same_bits(ops.add(k, v), k + v)
            assert _same_bits(ops.sub(v, k), v - k) and _same_bits(ops.sub(k, v), k - v)
            assert _same_bits(ops.mul(v, k), v * k) and _same_bits(ops.mul(k, v), k * v)
        assert ops.mul(1.0, 1.0) == 1.0 and ops.add(1.0, 1.0) == 2.0

    def test_interval_constants_match_the_constant_methods(self, pair):
        from cevians.intervals import _IntervalOps as ops

        lo, hi = pair
        for k in (2.0, 1.0, 0.5, 4.0, 1e-300, -3.0):
            for got in (ops.add(pair, k), ops.add(k, pair)):
                assert _same_bits(got, (_down(lo + k), _up(hi + k)))
            assert _same_bits(ops.sub(pair, k), (_down(lo - k), _up(hi - k)))
            assert _same_bits(ops.sub(k, pair), (_down(k - hi), _up(k - lo)))
        for k in (2.0, 0.5, 4.0, 1e-300):
            for got in (ops.mul(pair, k), ops.mul(k, pair)):
                assert _same_bits(got, (_down(lo * k), _up(hi * k)))
        # a negative factor swaps the ends, as the product with [k, k] does
        assert _same_bits(ops.mul(pair, -3.0), ops.mul(pair, (np.full_like(lo, -3.0),) * 2))
        assert ops.mul(pair, 1.0) is pair and ops.mul(1.0, pair) is pair
        for got, want in ((ops.add(1.0, 1.0), 2.0), (ops.sub(1.0, 4.0), -3.0),
                          (ops.mul(2.0, 0.5), 1.0)):
            assert type(got) is float and got == want

    @pytest.mark.parametrize("order", [1, 2])
    def test_jet_constants_change_the_value_row_only(self, pair, rng, order):
        from cevians.certifier import _Jet, _JetOps as ops
        from cevians.intervals import _IntervalOps

        lo, hi = pair
        rows = 3 * order
        d0 = np.vstack([lo, rng.uniform(-2.0, 2.0, (rows - 1, lo.size))])
        d = (d0, d0 + rng.uniform(0.0, 1.0, d0.shape))
        jet = _Jet(d, rng.uniform(0.0, 1.0, lo.size) > 0.3)
        value = (d[0][0], d[1][0])

        def check(got, want_value):
            assert got.ok is jet.ok
            assert _same_bits((got.d[0][0], got.d[1][0]), want_value)
            assert _same_bits((got.d[0][1:], got.d[1][1:]), (d[0][1:], d[1][1:]))

        for k in (2.0, 1.0, 0.5):
            check(ops.add(jet, k), _IntervalOps.add(value, k))
            check(ops.add(k, jet), _IntervalOps.add(value, k))
            check(ops.sub(jet, k), _IntervalOps.sub(value, k))
            scaled = ops.mul(jet, k)
            assert _same_bits(scaled.d, _IntervalOps.mul(d, k)) and scaled.ok is jet.ok
        # the operand's arrays are untouched, and mul by 1.0 keeps them
        assert jet.d is d and _same_bits(d[0][0], lo)
        assert ops.mul(jet, 1.0) is jet and ops.mul(1.0, jet) is jet
        assert ops.mul(1.0, 1.0) == 1.0 and ops.add(1.0, 1.0) == 2.0
        # a jet's square is made once, with the bits of a product of two jets
        square = ops.mul(jet, jet)
        assert ops.mul(jet, jet) is square
        twin = ops.mul(jet, _Jet(d, jet.ok))
        assert _same_bits(square.d, twin.d) and np.array_equal(square.ok, twin.ok)


class TestPlan:
    """A formula traced by ``_PlanOps`` and run as a ``_Plan`` of in-place
    ufunc calls gives the bits ``_FloatOps`` gives."""

    @staticmethod
    def run(plan, inputs, n_outputs=1):
        outputs = [np.full(inputs[0].size, np.nan) for _ in range(n_outputs)]
        registers = plan.registers(inputs[0].size)
        for r in registers:
            r.fill(True if r.dtype == bool else np.nan)
        with np.errstate(invalid="ignore"):
            plan(inputs, outputs, registers)
        return outputs

    def test_multiplying_by_one_is_folded_and_keeps_every_bit(self):
        from cevians.intervals import _FloatOps, _Plan

        def formula(ops, x, y):
            return (ops.add(ops.mul(x, 1.0), ops.mul(1.0, ops.mul(y, ops.mul(1.0, 1.0)))),)

        plan = _Plan(formula, 2)
        assert [step[0] for step in plan.steps] == [np.add]
        x = np.array([-0.0, -0.0, 0.0, np.inf, -np.inf, np.inf, 5e-324, -1.5])
        y = np.array([-0.0, 0.0, -0.0, np.inf, -np.inf, 2.0, -0.0, np.nan])
        (got,) = self.run(plan, (x, y))
        with np.errstate(invalid="ignore"):
            want = formula(_FloatOps, x, y)[0]
        assert _same_bits(got, want)
        assert np.signbit(got[0]) and not np.signbit(got[1])

    def test_common_subexpressions_are_recorded_once(self):
        from cevians.intervals import _Plan

        # x*x three times and x*2.0 twice are one call each; x*0.0 and
        # x*-0.0 differ in the sign of a zero, so they stay two calls
        def formula(ops, x):
            sq = ops.add(ops.mul(x, x), ops.mul(x, x))
            twice = ops.mul(ops.mul(x, 2.0), ops.mul(x, ops.add(1.0, 1.0)))
            zeros = ops.add(ops.mul(x, 0.0), ops.mul(x, -0.0))
            return ops.add(ops.add(sq, ops.mul(x, x)), twice), zeros

        plan = _Plan(formula, 1)
        names = sorted(step[0].__name__ for step in plan.steps)
        assert names == ["add", "add", "add", "add", "multiply", "multiply",
                         "multiply", "multiply", "multiply"]
        x = np.array([-0.0, 0.0, 1.5, -3.0, np.inf])
        got = self.run(plan, (x,), 2)
        with np.errstate(invalid="ignore"):
            want = [(2 * x * x + x * x) + (2 * x) * (2 * x), x * 0.0 + x * -0.0]
        assert all(_same_bits(g, w) for g, w in zip(got, want))

    def test_registers_are_reused_once_read_for_the_last_time(self):
        from cevians.intervals import _Plan

        def chain(ops, x):
            v = x
            for k in range(20):
                v = ops.sqrt(ops.add(v, float(k)))
            return (ops.mul(v, 3.0),)

        plan = _Plan(chain, 1)
        assert len(plan.steps) == 41 and len(plan.register_dtypes) == 1
        x = np.linspace(0.0, 5.0, 7)
        want = x
        for k in range(20):
            want = np.sqrt(want + float(k))
        assert _same_bits(self.run(plan, (x,))[0], want * 3.0)

    def test_comparisons_and_masks_use_bool_registers(self):
        from cevians.intervals import _FloatOps, _Plan

        def formula(ops, x, y):
            both = (x >= y) & (ops.mul(x, 2.0) >= y) & (y >= ops.sqrt(x))
            return np.minimum(ops.sub(x, y), ops.sub(y, x)), both

        plan = _Plan(formula, 2)
        # the two differences are live together, and so are two masks
        assert sorted(map(str, plan.register_dtypes)) == ["bool", "bool", "float64", "float64"]
        x = np.array([4.0, 1.0, 0.25, 9.0, -0.0])
        y = np.array([2.0, 3.0, 0.5, 3.0, 0.0])
        got_min, got_mask = self.run(plan, (x, y), 2)
        want_min, want_mask = formula(_FloatOps, x, y)
        assert _same_bits(got_min, want_min)
        assert got_mask.astype(bool).tolist() == want_mask.tolist()

    @pytest.mark.parametrize("formula", [
        lambda ops, x: (x,),
        lambda ops, x: (ops.mul(x, 1.0),),
        lambda ops, x: (ops.add(1.0, 2.0),),
        lambda ops, x: (ops.sqrt(x), ops.sqrt(x)),
    ])
    def test_outputs_must_be_distinct_computed_nodes(self, formula):
        from cevians.intervals import _Plan

        with pytest.raises(ValueError):
            _Plan(formula, 1)

    def test_each_plan_has_its_own_trace(self):
        from cevians.intervals import _Plan

        # a plan traced while another one is being traced shares no node
        # or record with it
        inner = []

        def outer(ops, x):
            square = ops.mul(x, x)
            inner.append(_Plan(lambda ops, y: (ops.sqrt(ops.mul(y, y)),), 1))
            return (ops.add(square, 1.0),)

        plan = _Plan(outer, 1)
        assert [s[0] for s in plan.steps] == [np.multiply, np.add]
        assert [s[0] for s in inner[0].steps] == [np.multiply, np.sqrt]
