import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevians.exceptions import NegativeSqrtDomainError
from cevians.intervals import (
    _STEP_MIN_SIZE,
    Box2,
    Interval,
    _round_down,
    _round_up,
    add,
    div,
    mul,
    sqrt,
    sub,
)

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
        assert p.width == 0.0


class TestCaseTables:
    def test_sqrt_of_four(self):
        r = sqrt(Interval(4.0, 4.0))
        assert r.lo <= 2.0 <= r.hi
        assert r.hi - r.lo <= 2 * math.ulp(2.0)

    def test_mixed_sign_product(self):
        r = mul(Interval(1.0, 2.0), Interval(-1.0, 3.0))
        assert r.lo <= -2.0 and r.hi >= 6.0
        assert r.lo >= -2.0 - 2 * math.ulp(2.0)
        assert r.hi <= 6.0 + 2 * math.ulp(6.0)

    def test_sqrt_negative_interval_raises(self):
        with pytest.raises(NegativeSqrtDomainError):
            sqrt(Interval(-1.0, -0.5))

    def test_sqrt_clamps_partial_negative(self):
        r = sqrt(Interval(-1.0, 4.0))
        assert r.lo == 0.0
        assert r.hi >= 2.0

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            div(Interval(1.0, 2.0), Interval(-1.0, 1.0))

    def test_division_positive(self):
        r = div(Interval(1.0, 2.0), Interval(4.0, 8.0))
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
        assert add(x, y).contains(px + py)
        assert sub(x, y).contains(px - py)
        assert mul(x, y).contains(px * py)

    @given(ivals(lo=0.0), st.floats(0, 1))
    @settings(max_examples=500)
    def test_sqrt(self, x, t):
        assert sqrt(x).contains(math.sqrt(_lerp(x, t)))

    @given(ivals(lo=1e-3), ivals(lo=1e-3), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=500)
    def test_div(self, x, y, tx, ty):
        assert div(x, y).contains(_lerp(x, tx) / _lerp(y, ty))

    @given(ivals(lo=0.1, hi=10.0), st.floats(0, 1))
    @settings(max_examples=300)
    def test_composed_expression(self, x, t):
        p = _lerp(x, t)
        one = Interval.point(1.0)
        expr = sqrt(add(mul(x, x), one)) - x
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
        assert add(inner, y).is_subset_of(add(x, y))
        assert mul(inner, y).is_subset_of(mul(x, y))


class TestBox2:
    def test_split_wider_axis(self):
        box = Box2.from_bounds(0.0, 1.0, 0.0, 0.25)
        left, right = box.split()
        assert left.x.hi == right.x.lo == 0.5
        assert left.y == box.y

    def test_split_tie_goes_to_x(self):
        box = Box2.from_bounds(0.0, 1.0, 2.0, 3.0)
        left, right = box.split()
        assert left.x.hi == 0.5
        assert left.y == box.y

    def test_contains_and_width(self):
        box = Box2.from_bounds(0.0, 1.0, 0.0, 2.0)
        assert box.contains(0.5, 1.5)
        assert not box.contains(1.5, 1.0)
        assert box.width == 2.0


TINY = np.finfo(float).tiny
BIG = np.finfo(float).max
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, BIG, -BIG,
            math.inf, -math.inf, math.nan]
# One size below the integer path's threshold, and sizes at and above it.
SIZES = (_STEP_MIN_SIZE - 1, _STEP_MIN_SIZE, 3 * _STEP_MIN_SIZE + 5)


def _assert_nextafter(v):
    """Both rounding helpers equal np.nextafter bit for bit; NaN gives NaN."""
    for helper, direction in ((_round_up, math.inf), (_round_down, -math.inf)):
        with np.errstate(over="ignore"):  # nextafter flags overflow at +-max
            want = np.nextafter(v, direction)
            got = helper(v)
        assert type(got) is type(want)
        got = np.atleast_1d(got)
        want = np.atleast_1d(want)
        nan = np.isnan(np.atleast_1d(v))
        assert np.isnan(got[nan]).all()
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.filterwarnings("error")
class TestRounding:
    """_round_up and _round_down against np.nextafter on both of their paths."""

    @pytest.mark.parametrize("n", SIZES)
    def test_special_values(self, n):
        _assert_nextafter(np.resize(np.array(SPECIALS), n))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20260)
        bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                            1_000_000, dtype=np.int64, endpoint=True)
        v = bits.view(np.float64)
        assert np.isnan(v).any()
        # Signaling NaNs among the patterns flag "invalid" on any arithmetic,
        # nextafter's included.
        with np.errstate(invalid="ignore"):
            _assert_nextafter(v)
            _assert_nextafter(v[:_STEP_MIN_SIZE - 1])

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_hypothesis_floats(self, values):
        for n in (len(values), *SIZES):
            _assert_nextafter(np.resize(np.array(values), n))

    @pytest.mark.parametrize("value", SPECIALS + [1.0, -3.5])
    def test_scalars_and_zero_d_arrays(self, value):
        _assert_nextafter(value)
        _assert_nextafter(np.array(value))
