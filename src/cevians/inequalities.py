"""Signed slack evaluators for the triangle-Cevian inequalities.

Every inequality written as L >= R is reported as the slack L - R, so a
nonnegative value means the statement holds.  Slacks of the homogeneous
inequalities carry units of length squared; absolute tolerances should be
scaled by :func:`tolerance_scale`.  The slack formulas are defined in
:mod:`cevians.bulk`; the functions here check their inputs and wrap the
binary64 values in reports.  Only the isosceles factored forms are
written out here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bulk
from .exceptions import DomainError, NotScaleneError
from .kernel import (
    CevianKind,
    CevianTriple,
    NormalizedTriangle,
    SideTriple,
    bisectors,
    scalar_eval,
    validate_sides,
)


@dataclass(frozen=True)
class SlackReport:
    """One evaluated inequality: identifier, slack value, input echo."""

    name: str
    value: float
    sides: SideTriple
    cevians: CevianTriple | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"slack {self.name!r} is not finite: {self.value}")


@dataclass(frozen=True)
class OrderingProducts:
    """Side-times-Cevian products, one per vertex (a*la, b*lb, c*lc)."""

    product_a: float
    product_b: float
    product_c: float

    def __post_init__(self):
        if not (self.product_a > 0.0 and self.product_b > 0.0 and self.product_c > 0.0):
            raise ValueError("ordering products must be positive")

    @property
    def middle_dominant(self) -> bool:
        """Whether b*lb >= max(a*la, c*lc)."""
        return self.product_b >= max(self.product_a, self.product_c)


def tolerance_scale(t: SideTriple, cv: CevianTriple) -> float:
    """Degree-2 homogeneous normalizer c*lc for absolute tolerances."""
    return t.c * cv.lc


def slack_main(t: SideTriple, cv: CevianTriple) -> SlackReport:
    """sqrt(bc)*la + sqrt(ac)*lb + sqrt(ab)*lc - (a*la + b*lb + c*lc)."""
    value = scalar_eval(bulk.slack_main_arrays, *t.as_tuple(), *cv.as_tuple())
    return SlackReport("main", value, t, cv)


def slack_quadratic(t: SideTriple, cv: CevianTriple) -> SlackReport:
    """(bc - a^2)*la + (ac - b^2)*lb + (ab - c^2)*lc."""
    value = scalar_eval(bulk.slack_quadratic_arrays, *t.as_tuple(),
                        *cv.as_tuple())
    return SlackReport("quadratic", value, t, cv)


def key_system_residuals(
    t: SideTriple, med: CevianTriple
) -> tuple[SlackReport, SlackReport, SlackReport]:
    """Residuals of the three-median key system, each expected >= 0.

    (c*mb + b*mc - 2a*ma, a*mc + c*ma - 2b*mb, a*mb + b*ma - 2c*mc).
    """
    if med.kind is not CevianKind.MEDIAN:
        raise ValueError("key system residuals are defined for medians")
    values = scalar_eval(bulk.key_residual_arrays, *t.as_tuple(), *med.as_tuple())
    return tuple(SlackReport(f"key_system_{vertex}", value, t, med)
                 for vertex, value in zip("abc", values))


def lemma_scalene_slack(t: SideTriple, med: CevianTriple) -> SlackReport:
    """sqrt(bc)*ma + sqrt(ac)*mb - b*mb - c*mc, for strictly scalene sides."""
    if med.kind is not CevianKind.MEDIAN:
        raise ValueError("the scalene lemma slack is defined for medians")
    a, b, c = t.as_tuple()
    if a == b or b == c:
        raise NotScaleneError(f"requires a < b < c strictly, got {(a, b, c)}")
    value = scalar_eval(bulk.lemma_scalene_arrays, a, b, c, *med.as_tuple())
    return SlackReport("scalene_lemma", value, t, med)


def ordering_products(t: SideTriple, cv: CevianTriple) -> OrderingProducts:
    """Products (a*la, b*lb, c*lc); the middle one dominates for medians
    and bisectors."""
    return OrderingProducts(t.a * cv.la, t.b * cv.lb, t.c * cv.lc)


def isosceles_slack_case1(x: float) -> SlackReport:
    """Factored slack for the isosceles family a = b = x, c = 1.

    value = (1 - sqrt(x)) * (2*sqrt(2x + x^3) - (sqrt(x) + 1)*sqrt(4x^2 - 1));
    equals twice the main slack of (x, x, 1) with medians.
    """
    if not (0.5 < x <= 1.0):
        raise DomainError(f"case-1 parameter must lie in (1/2, 1], got {x}")
    value = (1.0 - math.sqrt(x)) * (
        2.0 * math.sqrt(2.0 * x + x**3)
        - (math.sqrt(x) + 1.0) * math.sqrt(4.0 * x * x - 1.0)
    )
    return SlackReport("isosceles_case1", value, validate_sides(x, x, 1.0))


def isosceles_slack_case2(x: float) -> SlackReport:
    """Factored slack for the isosceles family a = x, b = c = 1.

    value = (1 - sqrt(x)) * ((1 + sqrt(x))*sqrt(4 - x^2) - 2*sqrt(1 + 2x^2));
    equals twice the main slack of (x, 1, 1) with medians.
    """
    if not (0.0 < x <= 1.0):
        raise DomainError(f"case-2 parameter must lie in (0, 1], got {x}")
    value = (1.0 - math.sqrt(x)) * (
        (1.0 + math.sqrt(x)) * math.sqrt(4.0 - x * x)
        - 2.0 * math.sqrt(1.0 + 2.0 * x * x)
    )
    return SlackReport("isosceles_case2", value, validate_sides(x, 1.0, 1.0))


def normalized_slack(p: NormalizedTriangle | tuple[float, float]) -> float:
    """Two-variable normalized main slack over 0 < x <= y <= 1 < x + y.

    F(x, y) equals 2*slack_main(t, medians)/c^2 for any triangle t that
    normalizes to (x, y).  Raises DomainError outside the domain.
    """
    if not isinstance(p, NormalizedTriangle):
        p = NormalizedTriangle(float(p[0]), float(p[1]))
    return scalar_eval(bulk.normalized_slack_arrays, p.x, p.y)


def bisector_ratio_slack(t: SideTriple) -> SlackReport:
    """la/lb - (c + b - a)/c for the internal bisectors, expected >= 0."""
    bis = bisectors(t)
    value = scalar_eval(bulk.bisector_ratio_arrays, *t.as_tuple(), bis.la, bis.lb)
    return SlackReport("bisector_ratio", value, t, bis)


def bisector_sqrt_chain_slack(t: SideTriple) -> SlackReport:
    """sqrt(a)*la - sqrt(c)*lc for the internal bisectors, expected >= 0."""
    bis = bisectors(t)
    value = scalar_eval(bulk.bisector_sqrt_chain_arrays, t.a, t.c, bis.la, bis.lc)
    return SlackReport("bisector_sqrt_chain", value, t, bis)


def open_problem_slacks(
    t: SideTriple, cv: CevianTriple
) -> tuple[SlackReport, SlackReport]:
    """The two open-problem slacks for an arbitrary Cevian triple.

    Same expressions as the main and quadratic slacks; no sign guarantee
    for general Cevians.
    """
    return (
        SlackReport("open_problem_1", slack_main(t, cv).value, t, cv),
        SlackReport("open_problem_2", slack_quadratic(t, cv).value, t, cv),
    )
