"""Floating-point triangle geometry kernel: validated, typed values.

Side triples are canonically sorted (a <= b <= c) at construction and every
formula assumes that ordering.  The formulas themselves are defined once,
in :mod:`cevians.bulk`; the functions here validate, evaluate them on
Python floats with ``bulk._MathOps`` and wrap the results, so no NumPy
loads.  All values are immutable and every operation is a pure function,
so the kernel is safe under arbitrary concurrent use.
This module is plain binary64; rigorous (interval) evaluation lives in
:mod:`cevians.intervals`, the certifier and the search's re-verification.
The enums that name a subcommand's choices (Cevian families,
certification targets, search modes) and the bound on ``--record-top``
live here too, so building the CLI parser loads neither the certifier
nor the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import bulk
# Bound here, not looked up on bulk: the benchmark tracer wraps
# bulk.in_normalized_domain to count the search's array masks.
from .bulk import _MathOps, in_normalized_domain
from .exceptions import (
    DegenerateTriangleError,
    DomainError,
    NonPositiveSideError,
    ZeroWeightsError,
)


class CevianKind(Enum):
    MEDIAN = "median"
    ALTITUDE = "altitude"
    BISECTOR = "bisector"
    MIXED = "mixed"
    GENERAL = "general"


class Target(Enum):
    """Certification targets over the normalized domain (all with c = 1)."""

    MAIN_MEDIAN = "main-median"
    QUADRATIC_MEDIAN = "quadratic-median"
    KEY_SYSTEM = "key-system"
    ALTITUDE_REDUCED = "altitude-reduced"
    SCALENE_LEMMA = "scalene-lemma"
    MAIN_BISECTOR = "main-bisector"
    QUADRATIC_BISECTOR = "quadratic-bisector"


class SearchMode(Enum):
    UNCONSTRAINED = "unconstrained"
    OPEN_PROBLEM = "open-problem"


# The most candidates a search keeps; refinement holds about 9 KB per
# candidate per round, so this bound keeps it within about 40 MB.
MAX_RECORD_TOP = 4096


@dataclass(frozen=True)
class SideTriple:
    """Positive side lengths stored sorted, with a + b > c strictly.

    Construct unsorted raw input through :func:`validate_sides`.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0 and self.c > 0.0):
            raise NonPositiveSideError(
                f"sides must be positive, got {(self.a, self.b, self.c)}"
            )
        if not (self.a <= self.b <= self.c):
            raise ValueError(
                "SideTriple requires a <= b <= c; use validate_sides() to sort"
            )
        if not (self.a + self.b > self.c):
            raise DegenerateTriangleError(
                f"degenerate triangle: {self.a} + {self.b} <= {self.c}"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class CevianTriple:
    """Lengths of the Cevians from vertices A, B, C, tagged by family."""

    la: float
    lb: float
    lc: float
    kind: CevianKind

    def __post_init__(self):
        lengths = (self.la, self.lb, self.lc)
        if not all(0.0 < v < math.inf for v in lengths):
            raise DomainError(
                f"cevian lengths must be finite and positive, got {lengths}"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.la, self.lb, self.lc)


@dataclass(frozen=True)
class NormalizedTriangle:
    """Scale-free triangle: (x, y) = (a/c, b/c) with 0 < x <= y <= 1 < x + y."""

    x: float
    y: float

    def __post_init__(self):
        if not in_normalized_domain(self.x, self.y):
            raise DomainError(
                f"({self.x}, {self.y}) outside the normalized triangle domain"
            )


@dataclass(frozen=True)
class MixedWeights:
    """Finite nonnegative mixture weights for (median, altitude, bisector)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        weights = (self.alpha, self.beta, self.gamma)
        if not all(math.isfinite(w) for w in weights):
            raise DomainError(f"weights must be finite, got {weights}")
        if self.alpha < 0.0 or self.beta < 0.0 or self.gamma < 0.0:
            raise ValueError(f"weights must be nonnegative, got {weights}")
        if self.alpha == 0.0 and self.beta == 0.0 and self.gamma == 0.0:
            raise ZeroWeightsError("at least one mixture weight must be positive")


@dataclass(frozen=True)
class GeneralCevianParams:
    """Foot fractions in (0, 1) for the Cevians from A, B, C.

    Convention: the Cevian from A meets BC at the point whose segment
    adjacent to B has length ta*a; cyclically, the foot from B leaves
    tb*b adjacent to C on CA, and the foot from C leaves tc*c adjacent
    to A on AB.
    """

    ta: float
    tb: float
    tc: float

    def __post_init__(self):
        for t in (self.ta, self.tb, self.tc):
            if not (0.0 < t < 1.0):
                raise DomainError(f"foot fractions must lie in (0, 1), got {t}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ta, self.tb, self.tc)


def validate_sides(a: float, b: float, c: float) -> SideTriple:
    """Sort raw lengths and validate positivity plus strict non-degeneracy."""
    raw = (float(a), float(b), float(c))
    if not all(math.isfinite(v) for v in raw):
        raise NonPositiveSideError(f"sides must be finite numbers, got {raw}")
    lo, mid, hi = sorted(raw)
    return SideTriple(lo, mid, hi)


def medians(t: SideTriple) -> CevianTriple:
    """Median lengths: from A, half the square root of 2b^2 + 2c^2 - a^2."""
    return CevianTriple(*bulk.medians(_MathOps, *t.as_tuple()), CevianKind.MEDIAN)


def altitudes(t: SideTriple) -> CevianTriple:
    """Altitude lengths 2*area / side; a*h_a = b*h_b = c*h_c."""
    return CevianTriple(*bulk.altitudes(_MathOps, *t.as_tuple()), CevianKind.ALTITUDE)


def bisectors(t: SideTriple) -> CevianTriple:
    """Internal angle bisector lengths.

    From A: 2*sqrt(b*c*s*(s-a)) / (b+c), computed in the cancellation-free
    form sqrt(b*c*(a+b+c)*(b+c-a)) / (b+c).
    """
    return CevianTriple(*bulk.bisectors(_MathOps, *t.as_tuple()), CevianKind.BISECTOR)


def mixed_cevians(t: SideTriple, w: MixedWeights) -> CevianTriple:
    """Componentwise nonnegative mixture of medians, altitudes, bisectors."""
    lengths = bulk.mixed_cevians(_MathOps, *t.as_tuple(), w.alpha, w.beta, w.gamma)
    return CevianTriple(*lengths, CevianKind.MIXED)


def general_cevians(t: SideTriple, p: GeneralCevianParams) -> CevianTriple:
    """Cevian lengths for arbitrary feet, via Stewart's theorem.

    With the foot convention of :class:`GeneralCevianParams`, the squared
    length from A is b^2*ta + c^2*(1-ta) - a^2*ta*(1-ta), and cyclically.
    The quadratic is strictly positive for valid triangles and feet in (0,1).
    """
    lengths = bulk.stewart_cevians(_MathOps, *t.as_tuple(), *p.as_tuple())
    return CevianTriple(*lengths, CevianKind.GENERAL)
