import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevians import bulk
from cevians.bulk import _MathOps
from cevians.exceptions import DomainError, NotScaleneError
from cevians.inequalities import (
    bisector_ratio_slack,
    bisector_sqrt_chain_slack,
    key_system_residuals,
    lemma_scalene_slack,
    open_problem_slacks,
    ordering_products,
    slack_main,
    slack_quadratic,
    tolerance_scale,
)
from cevians.kernel import (
    CevianTriple,
    CevianKind,
    GeneralCevianParams,
    MixedWeights,
    altitudes,
    bisectors,
    general_cevians,
    medians,
    mixed_cevians,
    validate_sides,
)

import oracles
from conftest import rel_close
from test_kernel import triangle_strategy

T345 = validate_sides(3, 4, 5)
T111 = validate_sides(1, 1, 1)

# Frozen from the 50-digit oracle in tests/oracles.py.
MAIN_345_MEDIANS = 1.991256536323873892405
QUAD_345_MEDIANS = 10.88646932378243213017
MAIN_345_ALTITUDES = 1.821337734951179235743
RESIDUALS_345 = (2.395745141367352961981, 0.01559915958191357472535,
                 2.904661317027030215101)
LEMMA3_345 = 6.147008116455784176575
F_06_08 = 0.1593005229059099113924
ISO1_08 = 0.05705213051414875522459
ISO1_051 = 0.5153127701731308811017
ISO2_05 = 0.250806901337553416625
ISO2_001 = 0.1797952588444106788603
RATIO_345 = 0.05707872210941782115706
OPEN_PROBLEM_345_FEET = (0.99, 0.5, 0.01)
OPEN_PROBLEM_345 = (-0.6515877605803779768743, -11.0857910443977774908)


class TestSlackMain:
    def test_equilateral_identity(self):
        assert abs(slack_main(T111, medians(T111)).value) < 1e-15

    def test_345_medians(self):
        rep = slack_main(T345, medians(T345))
        assert rep.name == "main"
        assert rel_close(rep.value, MAIN_345_MEDIANS, 1e-13)
        oracle = oracles.f(
            oracles.slack_main_hp(3, 4, 5, *oracles.medians_hp(3, 4, 5))
        )
        assert rel_close(rep.value, oracle, 1e-13)

    def test_345_altitudes_matches_reduction(self):
        rep = slack_main(T345, altitudes(T345))
        assert rel_close(rep.value, MAIN_345_ALTITUDES, 1e-13)
        two_area = 2.0 * bulk.heron_area(_MathOps, *T345.as_tuple())
        reduction = two_area * (
            math.sqrt(20.0) / 3.0 + math.sqrt(15.0) / 4.0 + math.sqrt(12.0) / 5.0 - 3.0
        )
        assert rel_close(rep.value, reduction, 1e-12)


class TestSlackQuadratic:
    def test_equilateral_coefficients_vanish(self):
        assert slack_quadratic(T111, medians(T111)).value == 0.0

    def test_345_medians(self):
        assert rel_close(slack_quadratic(T345, medians(T345)).value,
                         QUAD_345_MEDIANS, 1e-13)

    def test_345_altitudes_matches_reduction(self):
        rep = slack_quadratic(T345, altitudes(T345))
        two_area = 2.0 * bulk.heron_area(_MathOps, *T345.as_tuple())
        reduction = two_area * (12.0 / 5.0 + 15.0 / 4.0 + 20.0 / 3.0 - 12.0)
        assert rel_close(rep.value, 9.8, 1e-13)
        assert rel_close(rep.value, reduction, 1e-12)


class TestKeySystem:
    def test_equilateral_equalities(self):
        for rep in key_system_residuals(T111, medians(T111)):
            assert abs(rep.value) < 1e-15

    def test_345(self):
        reps = key_system_residuals(T345, medians(T345))
        for rep, expected in zip(reps, RESIDUALS_345):
            assert rel_close(rep.value, expected, 1e-12)

    def test_234_all_positive(self):
        t = validate_sides(2, 3, 4)
        assert all(r.value > 0 for r in key_system_residuals(t, medians(t)))

    def test_requires_medians(self):
        with pytest.raises(ValueError):
            key_system_residuals(T345, altitudes(T345))


class TestScaleneLemma:
    def test_345(self):
        assert rel_close(lemma_scalene_slack(T345, medians(T345)).value,
                         LEMMA3_345, 1e-13)

    def test_234_positive(self):
        t = validate_sides(2, 3, 4)
        assert lemma_scalene_slack(t, medians(t)).value > 0

    def test_not_scalene(self):
        t = validate_sides(2, 2, 3)
        with pytest.raises(NotScaleneError):
            lemma_scalene_slack(t, medians(t))


class TestOrderingProducts:
    def test_345_medians(self):
        p = ordering_products(T345, medians(T345))
        assert rel_close(p.product_a, 12.81600561797629675181, 1e-13)
        assert rel_close(p.product_b, 14.42220510185595717248, 1e-13)
        assert p.product_c == 12.5
        assert p.middle_dominant

    def test_345_bisectors(self):
        p = ordering_products(T345, bisectors(T345))
        assert rel_close(p.product_a, 12.649110640673517328, 1e-13)
        assert rel_close(p.product_b, 13.41640786499873817846, 1e-13)
        assert rel_close(p.product_c, 12.12183053462652898973, 1e-13)
        assert p.middle_dominant

    def test_equilateral_nonstrict(self):
        p = ordering_products(T111, medians(T111))
        assert p.product_a == p.product_b == p.product_c
        assert p.middle_dominant


class TestIsoscelesFactoredForms:
    """Twice the main median slack of an isosceles triangle is (1 - sqrt(x))
    times the second factor that the corner check certifies."""

    @staticmethod
    def factored(factor, x):
        return (1.0 - math.sqrt(x)) * factor(_MathOps, x)

    def test_case1_equilateral_zero(self):
        assert bulk.equal_legs_second_factor(_MathOps, 1.0) == 0.0

    @pytest.mark.parametrize("x,expected", [(0.8, ISO1_08), (0.51, ISO1_051)])
    def test_case1_values(self, x, expected):
        value = self.factored(bulk.equal_legs_second_factor, x)
        assert rel_close(value, expected, 1e-12)
        t = validate_sides(x, x, 1.0)
        assert rel_close(value, 2.0 * slack_main(t, medians(t)).value, 1e-10)

    def test_case2_equilateral_zero(self):
        assert bulk.equal_base_second_factor(_MathOps, 1.0) == 0.0

    @pytest.mark.parametrize("x,expected", [(0.5, ISO2_05), (0.01, ISO2_001)])
    def test_case2_values(self, x, expected):
        value = self.factored(bulk.equal_base_second_factor, x)
        assert rel_close(value, expected, 1e-12)
        t = validate_sides(x, 1.0, 1.0)
        assert rel_close(value, 2.0 * slack_main(t, medians(t)).value, 1e-10)


class TestNormalizedSlack:
    """F(x, y) = 2*main slack/c^2 with the doubled medians of (x, y, 1): the
    certifier's main-median target and the table's column."""

    @staticmethod
    def normalized_slack(x, y):
        return bulk.main_slack(_MathOps, x, y, 1.0, *bulk.doubled_medians(_MathOps, x, y, 1.0))

    def test_equilateral_exact_zero(self):
        assert self.normalized_slack(1.0, 1.0) == 0.0

    def test_06_08(self):
        val = self.normalized_slack(0.6, 0.8)
        assert rel_close(val, F_06_08, 1e-13)
        assert rel_close(val, oracles.f(oracles.normalized_slack_hp(0.6, 0.8)), 1e-13)

    def test_consistency_with_direct_slack(self):
        direct = 2.0 * slack_main(T345, medians(T345)).value / 25.0
        val = self.normalized_slack(T345.a / T345.c, T345.b / T345.c)
        assert rel_close(val, direct, 1e-10)


class TestBisectorChecks:
    def test_ratio_equilateral(self):
        assert abs(bisector_ratio_slack(T111, bisectors(T111)).value) < 1e-15

    def test_ratio_345(self):
        assert rel_close(bisector_ratio_slack(T345, bisectors(T345)).value, RATIO_345,
                         1e-12)

    def test_ratio_234_nonnegative(self):
        t = validate_sides(2, 3, 4)
        assert bisector_ratio_slack(t, bisectors(t)).value >= 0.0

    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_sqrt_chain(self, t):
        bis = bisectors(t)
        assert bisector_sqrt_chain_slack(t, bis).value >= -1e-12 * tolerance_scale(t, bis)

    @pytest.mark.parametrize("slack", [bisector_ratio_slack, bisector_sqrt_chain_slack])
    def test_require_bisectors(self, slack):
        with pytest.raises(ValueError, match="defined for bisectors"):
            slack(T345, medians(T345))


class TestOpenProblemSlacks:
    def test_medians_identical_to_main_pair(self):
        m = medians(T345)
        s1, s2 = open_problem_slacks(T345, m)
        assert s1.value == slack_main(T345, m).value
        assert s2.value == slack_quadratic(T345, m).value

    def test_equilateral_any_cevians(self):
        cv = general_cevians(T111, GeneralCevianParams(0.3, 0.6, 0.8))
        s1, s2 = open_problem_slacks(T111, cv)
        assert s1.value == 0.0 and s2.value == 0.0

    def test_345_violating_feet(self):
        cv = general_cevians(T345, GeneralCevianParams(*OPEN_PROBLEM_345_FEET))
        s1, s2 = open_problem_slacks(T345, cv)
        assert rel_close(s1.value, OPEN_PROBLEM_345[0], 1e-12)
        assert rel_close(s2.value, OPEN_PROBLEM_345[1], 1e-12)
        assert s1.value < 0 and s2.value < 0


class TestHomogeneity:
    @given(triangle_strategy(min_scale=0.5, max_scale=2.0),
           st.sampled_from([0.5, 2.0, 10.0]))
    @settings(max_examples=150)
    def test_scaling_degrees(self, t, k):
        # main and the scalene-lemma slacks are degree 2; the quadratic
        # slack has degree-2 coefficients times lengths, hence degree 3
        m = medians(t)
        tk = validate_sides(k * t.a, k * t.b, k * t.c)
        mk = medians(tk)
        pairs = [
            (2, slack_main(t, m).value, slack_main(tk, mk).value),
            (3, slack_quadratic(t, m).value, slack_quadratic(tk, mk).value),
        ]
        # scaling by an inexact k can collapse a one-ulp-scalene triple
        if t.a < t.b < t.c and tk.a < tk.b < tk.c:
            pairs.append((2, lemma_scalene_slack(t, m).value,
                          lemma_scalene_slack(tk, mk).value))
        scale = tolerance_scale(tk, mk)
        for degree, base, scaled in pairs:
            # relative at 1e-10, or absolute at 1e-10 times the
            # degree-matched homogeneous normalizer
            floor = scale if degree == 2 else scale * tk.c
            assert rel_close(k**degree * base, scaled, 1e-10, floor=floor)


class TestEquivalentForms:
    """The two product-ratio rearrangements expand back to the main slack."""

    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_expansion(self, t):
        a, b, c = t.as_tuple()
        m = medians(t)
        ma, mb, mc = m.as_tuple()
        A, B, C = a * ma, b * mb, c * mc
        form1 = (
            (math.sqrt(c) * ma / (math.sqrt(b) * mb) - 1.0) * B
            + (math.sqrt(c) * mb / (math.sqrt(a) * ma) - 1.0) * A
            + (math.sqrt(a * b) / c - 1.0) * C
        )
        form2 = (
            (math.sqrt(c) * ma / (math.sqrt(b) * mb) - 1.0) * B
            + (math.sqrt(a) * mb / (math.sqrt(c) * mc) - 1.0) * C
            + (math.sqrt(b) * mc / (math.sqrt(a) * ma) - 1.0) * A
        )
        direct = slack_main(t, m).value
        scale = tolerance_scale(t, m)
        assert rel_close(form1, direct, 1e-10, floor=scale)
        assert rel_close(form2, direct, 1e-10, floor=scale)


class TestMainInequalitySweepSmall:
    """Small seeded sweeps; the million-sample versions live in acceptance."""

    @given(triangle_strategy())
    @settings(max_examples=300)
    def test_main_and_quadratic_nonnegative(self, t):
        for family in (medians, altitudes, bisectors):
            cv = family(t)
            tol = 1e-12 * tolerance_scale(t, cv)
            assert slack_main(t, cv).value >= -tol
            assert slack_quadratic(t, cv).value >= -tol

    weight = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))

    @given(triangle_strategy(), weight, weight, weight)
    @settings(max_examples=200)
    def test_mixed_weights(self, t, wa, wb, wc):
        if wa == wb == wc == 0.0:
            wa = 1.0
        cv = mixed_cevians(t, MixedWeights(wa, wb, wc))
        tol = 1e-12 * tolerance_scale(t, cv)
        assert slack_main(t, cv).value >= -tol
        assert slack_quadratic(t, cv).value >= -tol


class TestEqualityCharacterization:
    def test_small_values_only_near_the_corner(self):
        """On a dense grid, F dips below 1e-8 only inside [1-1e-3, 1]^2."""
        import numpy as np

        from cevians import bulk
        from cevians.certifier import Target, point_values

        axis = np.linspace(1e-4, 1.0, 1500)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        mask = bulk.in_normalized_domain(gx, gy)
        x, y = gx[mask], gy[mask]
        f = point_values(Target.MAIN_MEDIAN, x, y)
        tiny = f < 1e-8
        assert (x[tiny] >= 1.0 - 1e-3).all()
        assert (y[tiny] >= 1.0 - 1e-3).all()


class TestReportTypes:
    def test_slack_report_finite(self):
        with pytest.raises(ValueError):
            from cevians.inequalities import SlackReport

            SlackReport("bad", float("inf"), T345)

    def test_ordering_products_positive(self):
        from cevians.inequalities import OrderingProducts

        with pytest.raises(ValueError):
            OrderingProducts(1.0, -2.0, 3.0)

    @pytest.mark.parametrize("products", [(1.0, 0.0, 3.0), (1.0, math.inf, 3.0),
                                          (math.nan, 1.0, 1.0)])
    def test_ordering_products_finite_and_positive(self, products):
        from cevians.inequalities import OrderingProducts

        with pytest.raises(DomainError, match="finite and positive"):
            OrderingProducts(*products)

    def test_cevian_kind_tags(self):
        assert medians(T345).kind is CevianKind.MEDIAN
        assert CevianTriple(1, 1, 1, CevianKind.GENERAL).kind is CevianKind.GENERAL
