import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevians import bulk
from cevians.bulk import _MathOps
from cevians.exceptions import (
    DegenerateTriangleError,
    DomainError,
    NonPositiveSideError,
    ZeroWeightsError,
)
from cevians.kernel import (
    CevianKind,
    CevianTriple,
    GeneralCevianParams,
    MixedWeights,
    NormalizedTriangle,
    altitudes,
    bisectors,
    general_cevians,
    medians,
    mixed_cevians,
    validate_sides,
)

import oracles
from cevians.intervals import _FloatOps
from conftest import rel_close


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def triangle_strategy(min_scale=1e-2, max_scale=1e2):
    """Valid triangles with a comfortable non-degeneracy margin."""

    @st.composite
    def build(draw):
        y = draw(st.floats(0.55, 1.0))
        x = draw(st.floats(min_value=1.001 - y + 1e-3, max_value=y))
        scale = draw(st.floats(min_scale, max_scale))
        return validate_sides(x * scale, y * scale, scale)

    return build()


class TestValidateSides:
    def test_already_sorted(self):
        t = validate_sides(3, 4, 5)
        assert t.as_tuple() == (3.0, 4.0, 5.0)

    def test_sorting(self):
        assert validate_sides(5, 3, 4).as_tuple() == (3.0, 4.0, 5.0)

    def test_degenerate_boundary_rejects(self):
        with pytest.raises(DegenerateTriangleError):
            validate_sides(1, 1, 2)

    def test_violating_triangle_inequality(self):
        with pytest.raises(DegenerateTriangleError):
            validate_sides(1, 1, 5)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (-1, 2, 2), (1, float("nan"), 1),
                                     (math.inf, math.inf, math.inf), (1, 1, math.inf),
                                     (-math.inf, 2, 2)])
    def test_nonpositive(self, bad):
        with pytest.raises(NonPositiveSideError):
            validate_sides(*bad)

    def test_direct_construction_requires_sorted(self):
        from cevians.kernel import SideTriple

        with pytest.raises(ValueError):
            SideTriple(5, 3, 4)


class TestMedians:
    def test_345(self):
        m = medians(validate_sides(3, 4, 5))
        assert m.kind is CevianKind.MEDIAN
        assert math.isclose(m.la, 0.5 * math.sqrt(73.0), rel_tol=1e-15)
        assert math.isclose(m.lb, 0.5 * math.sqrt(52.0), rel_tol=1e-15)
        assert m.lc == 2.5

    def test_equilateral(self):
        m = medians(validate_sides(1, 1, 1))
        for v in m.as_tuple():
            assert math.isclose(v, math.sqrt(3.0) / 2.0, rel_tol=1e-15)

    @pytest.mark.parametrize("sides", [(3, 4, 5), (2, 3, 4), (1.1, 1.7, 2.5)])
    def test_matches_stewart_midpoint(self, sides):
        t = validate_sides(*sides)
        m = medians(t)
        g = general_cevians(t, GeneralCevianParams(0.5, 0.5, 0.5))
        for mv, gv in zip(m.as_tuple(), g.as_tuple()):
            assert rel_close(mv, gv, 1e-12)

    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_ordering_and_median_triangle(self, t):
        m = medians(t)
        assert m.la >= m.lb >= m.lc
        assert m.lc + m.lb > m.la


class TestAltitudes:
    def test_345(self):
        h = altitudes(validate_sides(3, 4, 5))
        assert h.kind is CevianKind.ALTITUDE
        # area is 6 by the right-triangle oracle; altitudes are 2S/side
        assert math.isclose(h.la, 4.0, rel_tol=1e-14)
        assert math.isclose(h.lb, 3.0, rel_tol=1e-14)
        assert math.isclose(h.lc, 2.4, rel_tol=1e-14)

    def test_equilateral_equals_median(self):
        h = altitudes(validate_sides(1, 1, 1))
        for v in h.as_tuple():
            assert math.isclose(v, math.sqrt(3.0) / 2.0, rel_tol=1e-14)

    def test_isosceles_symmetry(self):
        h = altitudes(validate_sides(2, 2, 3))
        assert math.isclose(h.la, h.lb, rel_tol=1e-14)
        assert h.lc < h.lb

    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_product_identity(self, t):
        h = altitudes(t)
        two_area = 2.0 * bulk.heron_area(_MathOps, *t.as_tuple())
        for side, alt in zip(t.as_tuple(), h.as_tuple()):
            assert rel_close(side * alt, two_area, 1e-12)


class TestBisectors:
    def test_345_against_coordinate_oracle(self):
        t = validate_sides(3, 4, 5)
        l = bisectors(t)
        assert l.kind is CevianKind.BISECTOR
        assert math.isclose(l.la, 2.0 * math.sqrt(360.0) / 9.0, rel_tol=1e-14)
        assert math.isclose(l.lb, 2.0 * math.sqrt(180.0) / 8.0, rel_tol=1e-14)
        assert math.isclose(l.lc, 2.0 * math.sqrt(72.0) / 7.0, rel_tol=1e-14)
        # independent planar oracle: foot divides the opposite side in the
        # ratio of the adjacent sides
        assert rel_close(l.la, oracles.f(oracles.bisector_from_A_coord(3, 4, 5)), 1e-13)
        assert rel_close(l.lb, oracles.f(oracles.bisector_from_A_coord(4, 5, 3)), 1e-13)
        assert rel_close(l.lc, oracles.f(oracles.bisector_from_A_coord(5, 3, 4)), 1e-13)

    def test_equilateral(self):
        l = bisectors(validate_sides(1, 1, 1))
        for v in l.as_tuple():
            assert math.isclose(v, math.sqrt(3.0) / 2.0, rel_tol=1e-14)

    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_ratio_identity_and_bound(self, t):
        a, b, c = t.as_tuple()
        l = bisectors(t)
        identity = (
            math.sqrt((b + c - a) / (a + c - b))
            * math.sqrt(b / a)
            * (a + c)
            / (b + c)
        )
        assert rel_close(l.la / l.lb, identity, 1e-11)
        assert l.la / l.lb - (c + b - a) / c >= -1e-12

    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_ordering(self, t):
        # holds in real arithmetic; allow rounding dust near isosceles ties
        l = bisectors(t)
        assert l.la - l.lb >= -1e-13 * l.la
        assert l.lb - l.lc >= -1e-13 * l.lb


class TestMixedCevians:
    def test_degenerate_mixtures(self):
        t = validate_sides(3, 4, 5)
        assert mixed_cevians(t, MixedWeights(1, 0, 0)).as_tuple() == medians(t).as_tuple()
        assert mixed_cevians(t, MixedWeights(0, 0, 1)).as_tuple() == bisectors(t).as_tuple()

    def test_sum_of_families(self):
        t = validate_sides(3, 4, 5)
        mixed = mixed_cevians(t, MixedWeights(1, 1, 1))
        expected = oracles.f(
            oracles.medians_hp(3, 4, 5)[0]
            + oracles.altitudes_hp(3, 4, 5)[0]
            + oracles.bisectors_hp(3, 4, 5)[0]
        )
        assert rel_close(mixed.la, expected, 1e-13)
        assert rel_close(mixed.la, 12.488372086216605, 1e-12)

    def test_zero_weights(self):
        with pytest.raises(ZeroWeightsError):
            MixedWeights(0, 0, 0)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            MixedWeights(1, -1, 0)

    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight(self, slot, bad):
        weights = [1.0, 1.0, 1.0]
        weights[slot] = bad
        with pytest.raises(DomainError, match="weights must be finite"):
            MixedWeights(*weights)


class TestCevianTriple:
    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_lengths_must_be_finite_and_positive(self, slot, bad):
        lengths = [1.0, 1.0, 1.0]
        lengths[slot] = bad
        with pytest.raises(DomainError, match="cevian lengths must be finite"):
            CevianTriple(*lengths, CevianKind.GENERAL)


class TestGeneralCevians:
    def test_midpoint_equals_medians(self):
        t = validate_sides(2, 3, 4)
        g = general_cevians(t, GeneralCevianParams(0.5, 0.5, 0.5))
        m = medians(t)
        for gv, mv in zip(g.as_tuple(), m.as_tuple()):
            assert rel_close(gv, mv, 1e-12)

    def test_345_quarter_foot(self):
        t = validate_sides(3, 4, 5)
        g = general_cevians(t, GeneralCevianParams(0.25, 0.5, 0.5))
        # Stewart: 16*0.25 + 25*0.75 - 9*0.1875 = 21.0625
        assert rel_close(g.la, math.sqrt(21.0625), 1e-14)
        assert rel_close(
            g.la, oracles.f(oracles.cevian_from_A_coord(3, 4, 5, 0.25)), 1e-13
        )

    def test_foot_limits(self):
        t = validate_sides(3, 4, 5)
        near_b = general_cevians(t, GeneralCevianParams(1e-9, 0.5, 0.5))
        near_c = general_cevians(t, GeneralCevianParams(1.0 - 1e-9, 0.5, 0.5))
        assert abs(near_b.la - t.c) < 1e-6
        assert abs(near_c.la - t.b) < 1e-6

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_foot_domain(self, bad):
        with pytest.raises(DomainError):
            GeneralCevianParams(bad, 0.5, 0.5)

    @given(triangle_strategy(), st.floats(1e-4, 1 - 1e-4))
    @settings(max_examples=150)
    def test_coordinate_oracle_agreement(self, t, ta):
        g = general_cevians(t, GeneralCevianParams(ta, 0.5, 0.5))
        oracle = oracles.f(oracles.cevian_from_A_coord(t.a, t.b, t.c, ta))
        assert rel_close(g.la, oracle, 1e-11)


class TestHeronArea:
    """``bulk.heron_area`` on Python floats, as the altitudes evaluate it."""

    @staticmethod
    def area(*sides):
        return bulk.heron_area(_MathOps, *validate_sides(*sides).as_tuple())

    def test_right_triangle(self):
        assert rel_close(self.area(3, 4, 5), 6.0, 1e-14)

    def test_equilateral(self):
        assert rel_close(self.area(1, 1, 1), math.sqrt(3.0) / 4.0, 1e-14)

    def test_isosceles_223(self):
        assert rel_close(self.area(2, 2, 3), 0.75 * math.sqrt(7.0), 1e-14)

    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_heron_consistency(self, t):
        area = self.area(*t.as_tuple())
        s = 0.5 * (t.a + t.b + t.c)
        rhs = s * (s - t.a) * (s - t.b) * (s - t.c)
        assert rel_close(area * area, rhs, 1e-12)


class TestNormalize:
    @pytest.mark.parametrize(
        "sides,expected",
        [((3, 4, 5), (0.6, 0.8)), ((1, 1, 1), (1.0, 1.0)), ((2, 3, 4), (0.5, 0.75))],
    )
    def test_values(self, sides, expected):
        t = validate_sides(*sides)
        n = NormalizedTriangle(t.a / t.c, t.b / t.c)
        assert (n.x, n.y) == expected

    @pytest.mark.parametrize("x,y", [(0.5 + 1e-9, 0.5), (0.0, 1.0), (0.4, 0.6), (0.9, 1.1)])
    def test_domain_errors(self, x, y):
        with pytest.raises(DomainError):
            NormalizedTriangle(x, y)

    # On and next to each edge of the domain: x + y = 1, x = y, y = 1,
    # x = 0, the least subnormal x, and NaN in either coordinate.
    @pytest.mark.parametrize("x,y", [
        (0.4, 0.6), (0.5, 0.5), (0.4, math.nextafter(0.6, 1.0)),
        (0.7, 0.7), (0.5000000000000001, 0.5000000000000001), (0.8, 0.7),
        (0.5, 1.0), (0.5, math.nextafter(1.0, 2.0)),
        (0.0, 1.0), (-0.0, 1.0),
        (5e-324, 1.0), (5e-324, 0.9999999999999999),
        (math.nan, 0.8), (0.8, math.nan),
    ])
    def test_agrees_with_the_bulk_domain_mask(self, x, y):
        inside = bulk.in_normalized_domain(x, y)
        assert inside == bool(bulk.in_normalized_domain(np.array([x]), np.array([y]))[0])
        if inside:
            n = NormalizedTriangle(x, y)
            assert (n.x, n.y) == (x, y)
        else:
            with pytest.raises(DomainError, match="outside the normalized triangle domain"):
                NormalizedTriangle(x, y)

    def test_ignores_a_replaced_bulk_mask(self, monkeypatch):
        # the benchmark tracer replaces bulk.in_normalized_domain with a
        # wrapper whose hook takes arrays only
        monkeypatch.setattr(bulk, "in_normalized_domain", None)
        assert NormalizedTriangle(0.6, 0.8).x == 0.6


class TestScaleCovariance:
    @given(triangle_strategy(), st.sampled_from([0.5, 2.0, 10.0]))
    @settings(max_examples=150)
    def test_all_families(self, t, k):
        scaled = validate_sides(k * t.a, k * t.b, k * t.c)
        pairs = [
            (medians(t), medians(scaled)),
            (altitudes(t), altitudes(scaled)),
            (bisectors(t), bisectors(scaled)),
            (
                general_cevians(t, GeneralCevianParams(0.3, 0.6, 0.8)),
                general_cevians(scaled, GeneralCevianParams(0.3, 0.6, 0.8)),
            ),
        ]
        for base, big in pairs:
            for v, kv in zip(base.as_tuple(), big.as_tuple()):
                assert rel_close(k * v, kv, 1e-12)


class TestBulkTwinsMatchScalar:
    """The formulas on arrays agree bit for bit with the typed kernel, and the
    float op set ``_MathOps`` with ``_FloatOps`` on one-element arrays."""

    def test_bit_identity(self, rng):
        x, y = bulk.sample_normalized_points(rng, 10_000)
        scale = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), x.shape))
        a, b, c = x * scale, y * scale, scale
        ta = rng.uniform(1e-4, 1 - 1e-4, x.shape)

        ma, mb, mc = bulk.medians(_FloatOps, a, b, c)
        ha, hb, hc = bulk.altitudes(_FloatOps, a, b, c)
        la, lb, lc = bulk.bisectors(_FloatOps, a, b, c)
        ga, _, _ = bulk.general_cevians_arrays(a, b, c, ta, ta, ta)
        area = bulk.heron_area(_FloatOps, a, b, c)

        idx = rng.integers(0, x.shape[0], 200)
        for i in idx:
            t = validate_sides(a[i], b[i], c[i])
            assert medians(t).as_tuple() == (ma[i], mb[i], mc[i])
            assert altitudes(t).as_tuple() == (ha[i], hb[i], hc[i])
            assert bisectors(t).as_tuple() == (la[i], lb[i], lc[i])
            assert bulk.heron_area(_MathOps, *t.as_tuple()) == area[i]
            g = general_cevians(t, GeneralCevianParams(ta[i], ta[i], ta[i]))
            assert g.la == ga[i]

    # Zeros of both signs, subnormals, the extremes of the normal range,
    # values whose products and sums overflow, infinities and NaN.
    SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-160,
               0.1, 1.0, -1.0, 3.0, -7.5, 1e154, 1e200, 1.7976931348623157e308,
               -1e308, math.inf, -math.inf, math.nan)

    @staticmethod
    def _same_bits(got, want):
        assert isinstance(got, float)
        assert _bits(got) == _bits(want), (got, want)

    @staticmethod
    def _on_arrays(fn, *args):
        """fn(_FloatOps, ...) with each float argument a one-element array."""
        with np.errstate(all="ignore"):
            out = fn(_FloatOps, *(np.array([v]) if isinstance(v, float) else v
                                  for v in args))
        return [float(v[0]) for v in out] if isinstance(out, tuple) else float(out[0])

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_ops(self, op):
        for u in self.SPECIAL:
            for v in self.SPECIAL:
                self._same_bits(getattr(_MathOps, op)(u, v),
                                self._on_arrays(lambda ops, u, v: getattr(ops, op)(u, v), u, v))

    def test_sqrt(self):
        for u in self.SPECIAL:
            self._same_bits(_MathOps.sqrt(u), self._on_arrays(lambda ops, u: ops.sqrt(u), u))

    def test_ieee_results_where_python_raises(self):
        assert _MathOps.div(3.0, 0.0) == math.inf
        assert _MathOps.div(3.0, -0.0) == -math.inf
        assert _MathOps.div(-3.0, 0.0) == -math.inf
        assert math.isnan(_MathOps.div(0.0, 0.0))
        assert math.isnan(_MathOps.sqrt(-1.0))
        assert math.isnan(_MathOps.sqrt(-math.inf))
        assert _MathOps.mul(1e200, 1e200) == math.inf

    # Each op-generic formula with the number of side-like arguments it takes
    # before its Cevian-like ones.
    FORMULAS = [
        (bulk.doubled_medians, 3), (bulk.medians, 3), (bulk.heron_area, 3),
        (bulk.altitudes, 3), (bulk.bisectors, 3), (bulk.mixed_cevians, 6),
        (bulk.stewart_cevians, 6), (bulk.main_slack, 6), (bulk.quadratic_slack, 6),
        (bulk.key_residuals, 6), (bulk.scalene_lemma, 6), (bulk.bisector_ratio, 5),
        (bulk.bisector_sqrt_chain, 4), (bulk.equal_legs_second_factor, 1),
        (bulk.equal_base_second_factor, 1),
        (lambda ops, *args: tuple(ops.sub(*pair) for pair in bulk.constraint_pairs(ops, *args)), 6),
    ]

    @pytest.mark.parametrize("formula, arity", FORMULAS)
    def test_formulas(self, formula, arity, rng):
        sides = [
            (3.0, 4.0, 5.0), (0.3, 0.95, 1.0), (1.0, 1.0, 1.0),
            (1.0, 1.0, 2.0), (1.0, 1.0, 3.0), (0.0, 1.0, 1.0), (0.0, 0.0, 0.0),
            (-1.0, 1.0, 1.0), (5e-324, 1e-310, 1e-310), (1e-160, 1e-160, 1e-160),
            (1e154, 1e154, 1e154), (1e200, 1e200, 1e200), (1.7e308, 1.7e308, 1.7e308),
            (1.0, 2.0, math.inf), (math.nan, 1.0, 1.0),
        ]
        sides += [tuple(v) for v in np.sort(rng.uniform(0.0, 2.0, (40, 3)), axis=1).tolist()]
        extra = [(0.5, 0.25, 0.75), (0.0, 0.0, 0.0), (1.0, -1.0, 2.0), (1e300, 1e300, 1e-300)]
        for k, abc in enumerate(sides):
            args = ((*abc, *extra[k % len(extra)]) * 2)[:arity]
            got = formula(_MathOps, *args)
            want = self._on_arrays(formula, *args)
            for g, w in zip(*((got, want) if isinstance(got, tuple) else ((got,), (want,)))):
                self._same_bits(g, w)
