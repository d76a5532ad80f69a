"""Signed slack evaluators for the triangle-Cevian inequalities.

Every inequality written as L >= R is reported as the slack L - R, so a
nonnegative value means the statement holds.  Each slack takes the sides
and the Cevians it is stated for.  The inequalities are homogeneous: a
slack of degree d in the sides scales by k**d when the triangle scales by
k.  The main, key-system, scalene-lemma and open_problem_1 slacks have
degree 2, the quadratic and open_problem_2 slacks degree 3,
bisector_sqrt_chain degree 3/2 and bisector_ratio degree 0; see
:func:`tolerance_scale` for absolute tolerances.  The slack formulas are
defined in :mod:`cevians.bulk`; the functions here check their inputs,
evaluate them on Python floats with ``bulk._MathOps`` and wrap the
binary64 values in reports; these are the slacks ``cevians verify``
reports.  Nothing here loads NumPy, the certifier or the search, so
``cevians verify`` runs without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bulk
from .bulk import _MathOps
from .exceptions import DomainError, NotScaleneError
from .kernel import CevianKind, CevianTriple, SideTriple


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
        products = (self.product_a, self.product_b, self.product_c)
        if not all(0.0 < p < math.inf for p in products):
            raise DomainError(f"ordering products must be finite and positive, got {products}")

    @property
    def middle_dominant(self) -> bool:
        """Whether b*lb >= max(a*la, c*lc)."""
        return self.product_b >= max(self.product_a, self.product_c)


def tolerance_scale(t: SideTriple, cv: CevianTriple) -> float:
    """Degree-2 homogeneous normalizer c*lc for absolute tolerances.

    A tolerance tol for a slack of degree d is tol * c*lc * c**(d - 2).
    """
    return t.c * cv.lc


def slack_main(t: SideTriple, cv: CevianTriple) -> SlackReport:
    """(sqrt(bc) - a)*la + (sqrt(ac) - b)*lb + (sqrt(ab) - c)*lc."""
    value = bulk.main_slack(_MathOps, *t.as_tuple(), *cv.as_tuple())
    return SlackReport("main", value, t, cv)


def slack_quadratic(t: SideTriple, cv: CevianTriple) -> SlackReport:
    """(bc - a^2)*la + (ac - b^2)*lb + (ab - c^2)*lc."""
    value = bulk.quadratic_slack(_MathOps, *t.as_tuple(), *cv.as_tuple())
    return SlackReport("quadratic", value, t, cv)


def key_system_residuals(
    t: SideTriple, med: CevianTriple
) -> tuple[SlackReport, SlackReport, SlackReport]:
    """Residuals of the three-median key system, each expected >= 0.

    (c*mb + b*mc - 2a*ma, a*mc + c*ma - 2b*mb, a*mb + b*ma - 2c*mc).
    """
    if med.kind is not CevianKind.MEDIAN:
        raise ValueError("key system residuals are defined for medians")
    values = bulk.key_residuals(_MathOps, *t.as_tuple(), *med.as_tuple())
    return tuple(SlackReport(f"key_system_{vertex}", value, t, med)
                 for vertex, value in zip("abc", values))


def lemma_scalene_slack(t: SideTriple, med: CevianTriple) -> SlackReport:
    """sqrt(bc)*ma + (sqrt(ac) - b)*mb - c*mc, for strictly scalene sides."""
    if med.kind is not CevianKind.MEDIAN:
        raise ValueError("the scalene lemma slack is defined for medians")
    a, b, c = t.as_tuple()
    if a == b or b == c:
        raise NotScaleneError(f"requires a < b < c strictly, got {(a, b, c)}")
    value = bulk.scalene_lemma(_MathOps, a, b, c, *med.as_tuple())
    return SlackReport("scalene_lemma", value, t, med)


def ordering_products(t: SideTriple, cv: CevianTriple) -> OrderingProducts:
    """Products (a*la, b*lb, c*lc); the middle one dominates for medians
    and bisectors."""
    return OrderingProducts(t.a * cv.la, t.b * cv.lb, t.c * cv.lc)


def bisector_ratio_slack(t: SideTriple, bis: CevianTriple) -> SlackReport:
    """la/lb - (c + b - a)/c for the internal bisectors, expected >= 0."""
    if bis.kind is not CevianKind.BISECTOR:
        raise ValueError("the bisector slacks are defined for bisectors")
    value = bulk.bisector_ratio(_MathOps, *t.as_tuple(), bis.la, bis.lb)
    return SlackReport("bisector_ratio", value, t, bis)


def bisector_sqrt_chain_slack(t: SideTriple, bis: CevianTriple) -> SlackReport:
    """sqrt(a)*la - sqrt(c)*lc for the internal bisectors, expected >= 0."""
    if bis.kind is not CevianKind.BISECTOR:
        raise ValueError("the bisector slacks are defined for bisectors")
    value = bulk.bisector_sqrt_chain(_MathOps, t.a, t.c, bis.la, bis.lc)
    return SlackReport("bisector_sqrt_chain", value, t, bis)


def constraint_filter(t: SideTriple, cv: CevianTriple) -> bool:
    """Open-problem conditions: la >= lb >= lc and b*lb >= max(a*la, c*lc)."""
    pairs = bulk.constraint_pairs(_MathOps, *t.as_tuple(), *cv.as_tuple())
    return all(lhs >= rhs for lhs, rhs in pairs)


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
