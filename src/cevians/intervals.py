"""Outward-rounded interval arithmetic on binary64 endpoints.

Operations compute with the hardware's round-to-nearest arithmetic and then
widen each endpoint by one ulp.  Because IEEE-754 +, -, *, / and sqrt are
correctly rounded, the widened result encloses the exact real image of the
operands, and by the same argument it encloses any round-to-nearest floating
evaluation that follows the same expression tree.

The one-ulp step is IEEE 754-2019 nextUp/nextDown (section 5.3.1).  The scalar
:class:`Interval` takes it with ``math.nextafter``.  The array operations
take it with :func:`_round_up` and :func:`_round_down`, which equal
``np.nextafter(v, +-inf)`` bit for bit and have two paths chosen by size.
Scalars and arrays shorter than ``_STEP_MIN_SIZE`` call ``np.nextafter``.
Longer float64 arrays step the bit pattern instead: for every finite or
-inf value, read as a sign-magnitude integer, nextUp adds one ulp of
magnitude to a nonnegative value and removes one from a negative one, which
is +-1 on the int64 view.  Adding 0.0 first turns -0.0 into +0.0, so both
zeros step to the least subnormal; +inf and NaN are left as they are.
nextDown is exactly -nextUp(-v).  The integer path does a few cheap
integer ufunc calls instead of NumPy's per-element ``nextafter`` loop.

The scalar :class:`Interval` serves the 1-D corner argument.  The operation
sets ``_FloatOps`` and ``_IntervalOps`` run a formula written once against
``ops`` in binary64 or as an enclosure of that same tree, on arrays.
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


# Shortest float64 array that _round_up and _round_down step on its int64
# view.  The integer path makes five (up) or seven (down) ufunc calls against
# nextafter's one, so it loses on short arrays.  Timed per call with NumPy
# 2.4 on a 2-core x86-64 host (best of 7 timeit repeats, glibc's mmap
# threshold already raised as in a long certify run), the two paths break
# even between 512 and 1,280 elements; at 65,536 the integer path takes
# 109-132 us against nextafter's 724-833 us.
_STEP_MIN_SIZE = 1024


def _step_up(w):
    """nextUp in place on a new float64 array with no -0.0; NaN and +inf stay."""
    bits = w.view(np.int64)
    step = bits >> 63
    step |= 1
    np.add(bits, step, out=bits, where=w < _INF)
    return w


def _wide(v) -> bool:
    return (isinstance(v, np.ndarray) and v.dtype == np.float64
            and v.size >= _STEP_MIN_SIZE)


def _round_up(v):
    """``np.nextafter(v, +inf)``, bit for bit on every non-NaN value."""
    if _wide(v):
        return _step_up(v + 0.0)
    return np.nextafter(v, _INF)


def _round_down(v):
    """``np.nextafter(v, -inf)``, bit for bit on every non-NaN value."""
    if _wide(v):
        w = np.negative(v)
        w += 0.0
        return np.negative(_step_up(w), out=w)
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

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def is_subset_of(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def __add__(self, other: "Interval") -> "Interval":
        return add(self, other)

    def __sub__(self, other: "Interval") -> "Interval":
        return sub(self, other)

    def __mul__(self, other: "Interval") -> "Interval":
        return mul(self, other)

    def __truediv__(self, other: "Interval") -> "Interval":
        return div(self, other)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def sqrt(self) -> "Interval":
        return sqrt(self)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def add(a: Interval, b: Interval) -> Interval:
    return Interval(_down(a.lo + b.lo), _up(a.hi + b.hi))


def sub(a: Interval, b: Interval) -> Interval:
    return Interval(_down(a.lo - b.hi), _up(a.hi - b.lo))


def mul(a: Interval, b: Interval) -> Interval:
    p1 = a.lo * b.lo
    p2 = a.lo * b.hi
    p3 = a.hi * b.lo
    p4 = a.hi * b.hi
    return Interval(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))


def div(a: Interval, b: Interval) -> Interval:
    if b.lo <= 0.0 <= b.hi:
        raise ZeroDivisionError(f"divisor interval {b} contains zero")
    q1 = a.lo / b.lo
    q2 = a.lo / b.hi
    q3 = a.hi / b.lo
    q4 = a.hi / b.hi
    return Interval(_down(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))


def sqrt(a: Interval) -> Interval:
    """Square root; a negative lower endpoint is clamped to the true domain.

    Raises NegativeSqrtDomainError when the whole interval is negative.
    """
    if a.hi < 0.0:
        raise NegativeSqrtDomainError(f"sqrt of entirely negative interval {a}")
    lo = max(a.lo, 0.0)
    slo = max(_down(math.sqrt(lo)), 0.0)
    return Interval(slo, _up(math.sqrt(a.hi)))


class _FloatOps:
    """Plain round-to-nearest arithmetic on floats or float arrays."""

    add = operator.add
    sub = operator.sub
    mul = operator.mul
    div = operator.truediv
    sqrt = np.sqrt
    add_const = operator.add
    sub_const = operator.sub
    const_sub = operator.sub


class _IntervalOps:
    """Outward-rounded arithmetic on (lo, hi) pairs of endpoint arrays.

    The constant k of ``add_const``, ``sub_const`` and ``const_sub`` is a float.
    """

    @staticmethod
    def add(a, b):
        return _round_down(a[0] + b[0]), _round_up(a[1] + b[1])

    @staticmethod
    def sub(a, b):
        return _round_down(a[0] - b[1]), _round_up(a[1] - b[0])

    @staticmethod
    def mul(a, b):
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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        with np.errstate(invalid="ignore"):
            lo = _round_down(np.sqrt(np.maximum(a[0], 0.0)))
            hi = _round_up(np.sqrt(a[1]))
        return np.maximum(lo, 0.0), hi

    @staticmethod
    def add_const(a, k):
        return _round_down(a[0] + k), _round_up(a[1] + k)

    @staticmethod
    def sub_const(a, k):
        return _round_down(a[0] - k), _round_up(a[1] - k)

    @staticmethod
    def const_sub(k, a):
        return _round_down(k - a[1]), _round_up(k - a[0])


@dataclass(frozen=True)
class Box2:
    """Axis-aligned rectangle: a pair of intervals."""

    x: Interval
    y: Interval

    @classmethod
    def from_bounds(cls, xlo: float, xhi: float, ylo: float, yhi: float) -> "Box2":
        return cls(Interval(xlo, xhi), Interval(ylo, yhi))

    @property
    def width(self) -> float:
        return max(self.x.width, self.y.width)

    def contains(self, px: float, py: float) -> bool:
        return self.x.contains(px) and self.y.contains(py)

    def split(self) -> tuple["Box2", "Box2"]:
        """Bisect along the wider axis; ties split x."""
        if self.x.width >= self.y.width:
            m = self.x.midpoint
            return (
                Box2(Interval(self.x.lo, m), self.y),
                Box2(Interval(m, self.x.hi), self.y),
            )
        m = self.y.midpoint
        return (
            Box2(self.x, Interval(self.y.lo, m)),
            Box2(self.x, Interval(m, self.y.hi)),
        )
