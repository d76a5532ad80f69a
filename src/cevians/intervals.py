"""Outward-rounded interval arithmetic on binary64 endpoints.

Operations compute with the hardware's round-to-nearest arithmetic and then
widen each endpoint by one ulp.  Because IEEE-754 +, -, *, / and sqrt are
correctly rounded, the widened result encloses the exact real image of the
operands, and by the same argument it encloses any round-to-nearest floating
evaluation that follows the same expression tree.

The one-ulp step is IEEE 754-2019 nextUp/nextDown (section 5.3.1): the
scalar :class:`Interval` takes it with ``math.nextafter``, and the array
operations with ``np.nextafter`` (:func:`_round_up`, :func:`_round_down`).

The operation sets ``_FloatOps`` and ``_IntervalOps`` run a formula written
once against ``ops`` in binary64 or as an enclosure of that same tree, on
arrays; all of the package's interval arithmetic goes through them.  Each
has add, sub, mul, div and sqrt.  A Python ``float`` operand of add, sub
or mul is an exact constant: with an interval the result is rounded
outward, mul by exactly 1.0 returns the other operand itself, and two
floats give their plain float result.  The scalar :class:`Interval` writes
the same outward rounding a second time, on one (lo, hi) pair of Python
floats; no command runs it, and it is kept as the independent reference
that the tests re-verify search candidates with.  The same formulas run
on Python floats through ``bulk._MathOps``, which needs no NumPy, so the
scalar API and ``cevians verify`` do not load this module; the package
loads it on first access to ``Interval``, and the certifier and the
search import it.  The op sets here call NumPy on every operation, so it
is imported at the top.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import NegativeSqrtDomainError

_INF = math.inf


def _down(v: float) -> float:
    return math.nextafter(v, -_INF)


def _up(v: float) -> float:
    return math.nextafter(v, _INF)


def _round_up(v):
    return np.nextafter(v, _INF)


def _round_down(v):
    return np.nextafter(v, -_INF)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of binary64 reals."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def is_subset_of(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        p1 = self.lo * other.lo
        p2 = self.lo * other.hi
        p3 = self.hi * other.lo
        p4 = self.hi * other.hi
        return Interval(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError(f"divisor interval {other} contains zero")
        q1 = self.lo / other.lo
        q2 = self.lo / other.hi
        q3 = self.hi / other.lo
        q4 = self.hi / other.hi
        return Interval(_down(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def sqrt(self) -> "Interval":
        """Square root; a negative lower endpoint is clamped to the true domain.

        Raises NegativeSqrtDomainError when the whole interval is negative.
        """
        if self.hi < 0.0:
            raise NegativeSqrtDomainError(f"sqrt of entirely negative interval {self}")
        lo = max(self.lo, 0.0)
        slo = max(_down(math.sqrt(lo)), 0.0)
        return Interval(slo, _up(math.sqrt(self.hi)))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


class _FloatOps:
    """Plain round-to-nearest arithmetic on floats or float arrays."""

    add = operator.add
    sub = operator.sub
    mul = operator.mul
    div = operator.truediv
    sqrt = np.sqrt


class _IntervalOps:
    """Outward-rounded arithmetic on (lo, hi) pairs of endpoint arrays.

    A constant (see above) of add, sub or mul may have either sign; in add
    and sub it is its own lo and hi.  div and sqrt may meet a zero divisor
    endpoint or a negative radicand and leave an infinite or NaN endpoint
    there; they set no floating-point error state of their own, so the
    caller runs them under one ``np.errstate(divide="ignore",
    invalid="ignore", over="ignore")``.
    """

    @staticmethod
    def add(a, b):
        if isinstance(a, float):
            if isinstance(b, float):
                return a + b
            a = (a, a)
        elif isinstance(b, float):
            b = (b, b)
        return _round_down(a[0] + b[0]), _round_up(a[1] + b[1])

    @staticmethod
    def sub(a, b):
        if isinstance(a, float):
            if isinstance(b, float):
                return a - b
            a = (a, a)
        elif isinstance(b, float):
            b = (b, b)
        return _round_down(a[0] - b[1]), _round_up(a[1] - b[0])

    @staticmethod
    def mul(a, b):
        if isinstance(a, float):
            a, b = b, a
        if isinstance(b, float):
            if isinstance(a, float):
                return a * b
            if b == 1.0:
                return a
            lo, hi = a[0] * b, a[1] * b
            if b < 0.0:
                lo, hi = hi, lo
            return _round_down(lo), _round_up(hi)
        p1 = a[0] * b[0]
        p2 = a[0] * b[1]
        p3 = a[1] * b[0]
        p4 = a[1] * b[1]
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return _round_down(lo), _round_up(hi)

    @staticmethod
    def div(a, b):
        # General numerator over a nonnegative divisor; a zero divisor
        # endpoint produces infinite bounds (still an enclosure) and never
        # NaN because the numerators divided here are bounded away from
        # [0, 0] whenever the divisor can reach zero.
        q1 = a[0] / b[0]
        q2 = a[0] / b[1]
        q3 = a[1] / b[0]
        q4 = a[1] / b[1]
        lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
        hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
        return _round_down(lo), _round_up(hi)

    @staticmethod
    def sqrt(a):
        # Negative dust below the domain boundary is clamped to the true
        # restriction [0, hi]; an entirely negative interval surfaces as
        # NaN, which can never be proven positive.
        lo = _round_down(np.sqrt(np.maximum(a[0], 0.0)))
        hi = _round_up(np.sqrt(a[1]))
        return np.maximum(lo, 0.0), hi
