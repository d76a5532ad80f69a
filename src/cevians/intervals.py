"""Outward-rounded interval arithmetic on binary64 endpoints.

Operations compute with the hardware's round-to-nearest arithmetic and then
widen each endpoint by one ulp.  Because IEEE-754 +, -, *, / and sqrt are
correctly rounded, the widened result encloses the exact real image of the
operands, and by the same argument it encloses any round-to-nearest floating
evaluation that follows the same expression tree.

The one-ulp step is IEEE 754-2019 nextUp/nextDown (section 5.3.1): the
scalar :class:`Interval` takes it with ``math.nextafter``, and the array
operations with ``np.nextafter`` (:func:`_round_up`, :func:`_round_down`,
and :func:`_round_out` in place on an operation's own temporaries).

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

``_PlanOps`` runs a formula once on symbolic nodes instead of arrays and
records the ufunc calls ``_FloatOps`` would make, each distinct one once;
:class:`_Plan` compiles the record into in-place calls on a few reused
registers.  The search's shards evaluate their formula that way, with
the bits of ``_FloatOps`` and no temporary arrays.
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


class _Node:
    """A value of a formula traced by :class:`_PlanOps`: entry ``index`` of
    its trace.  As on arrays, >=, & and NumPy ufuncs such as np.minimum
    apply to nodes, and each records its ufunc."""

    __slots__ = ("trace", "index")

    def __init__(self, trace: "_PlanOps", index: int):
        self.trace, self.index = trace, index

    def __ge__(self, other):
        return self.trace.record(np.greater_equal, self, other)

    def __and__(self, other):
        return self.trace.record(np.bitwise_and, self, other)

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        return self.trace.record(ufunc, *args)


class _PlanOps:
    """Records a formula written against ``ops`` as NumPy ufunc calls on nodes.

    Each op of ``_FloatOps`` becomes the ufunc that op calls on arrays, so
    the recorded calls give the bits ``_FloatOps`` gives.  The same ufunc
    on the same operands is recorded once, x*1.0 and 1.0*x are x itself
    (bit for bit, -0.0, infinities and NaN included), and an op on float
    constants alone is carried out now and returns a float.  One instance
    traces one formula, in :class:`_Plan`, and nothing else holds its
    state.
    """

    def __init__(self, n_inputs: int):
        # (ufunc, operands, dtype) per node; an operand is a node's index
        # or a float constant, and the float64 inputs have no ufunc.
        self.nodes: list[tuple] = [(None, (), np.dtype(np.float64))] * n_inputs
        self.inputs = tuple(_Node(self, k) for k in range(n_inputs))
        self._seen: dict[tuple, _Node] = {}

    def record(self, ufunc, *args):
        if not any(isinstance(v, _Node) for v in args):
            return ufunc(*args).item()
        operands = tuple(v.index if isinstance(v, _Node) else float(v) for v in args)
        # float.hex tells 0.0 from -0.0, which compare and hash equal
        key = (ufunc, *(v if isinstance(v, int) else v.hex() for v in operands))
        node = self._seen.get(key)
        if node is None:
            # the dtype NumPy gives the result, from empty operands
            dtype = ufunc(*(np.empty(0, self.nodes[v][2]) if isinstance(v, int) else v
                            for v in operands)).dtype
            node = self._seen[key] = _Node(self, len(self.nodes))
            self.nodes.append((ufunc, operands, dtype))
        return node

    def add(self, a, b):
        return self.record(np.add, a, b)

    def sub(self, a, b):
        return self.record(np.subtract, a, b)

    def mul(self, a, b):
        if isinstance(a, _Node) and isinstance(b, float) and b == 1.0:
            return a
        if isinstance(b, _Node) and isinstance(a, float) and a == 1.0:
            return b
        return self.record(np.multiply, a, b)

    def div(self, a, b):
        return self.record(np.divide, a, b)

    def sqrt(self, a):
        return self.record(np.sqrt, a)


class _Plan:
    """A formula over ``ops`` compiled to in-place ufunc calls on arrays.

    ``formula(ops, *inputs)`` is traced once by :class:`_PlanOps` and must
    return a tuple of distinct computed nodes, its outputs.  Each recorded
    call writes either its output array or one of a few registers (a value
    no output needs is still computed, and keeps its register): a register
    is taken again as soon as the last call that reads it has read it, so a
    call may write the register of one of its own operands, which NumPy
    does element by element.  Calling the plan with input, output and
    register arrays of one shape then runs one ``ufunc(*operands,
    out=...)`` per call and allocates no array.  Each call reads only input arrays and entries
    that an earlier call of the same run wrote, never what a register
    held before.
    """

    def __init__(self, formula, n_inputs: int):
        trace = _PlanOps(n_inputs)
        outputs = [v.index if isinstance(v, _Node) else -1
                   for v in formula(trace, *trace.inputs)]
        if min(outputs) < n_inputs or len(set(outputs)) < len(outputs):
            raise ValueError("a plan's outputs must be distinct computed nodes")
        nodes = trace.nodes
        calls = range(n_inputs, len(nodes))
        last_read = {v: i for i in calls for v in nodes[i][1] if isinstance(v, int)}

        # A run's slots are the inputs, the outputs, the registers, and
        # last the constants, which the steps index from the end.
        slot = {k: k for k in range(n_inputs)}
        slot.update((node, n_inputs + j) for j, node in enumerate(outputs))
        first_register = len(slot)
        self.register_dtypes: list = []
        free: dict = {}
        constants: list[float] = []
        self.steps = []
        for i in calls:
            ufunc, operands, dtype = nodes[i]
            args = []
            for v in operands:
                if isinstance(v, int):
                    args.append(slot[v])
                else:
                    constants.insert(0, v)
                    args.append(-len(constants))
            for v in set(operands):
                if isinstance(v, int) and last_read[v] == i and slot[v] >= first_register:
                    free.setdefault(nodes[v][2], []).append(slot[v])
            if i not in slot:
                pool = free.setdefault(dtype, [])
                if pool:
                    slot[i] = pool.pop()
                else:
                    slot[i] = first_register + len(self.register_dtypes)
                    self.register_dtypes.append(dtype)
            self.steps.append((ufunc, tuple(args), slot[i]))
        self._constants = tuple(constants)

    def registers(self, n: int) -> tuple[np.ndarray, ...]:
        """A fresh set of registers for runs on arrays of n entries."""
        return tuple(np.empty(n, dtype) for dtype in self.register_dtypes)

    def __call__(self, inputs, outputs, registers) -> None:
        slots = (*inputs, *outputs, *registers, *self._constants)
        for ufunc, args, out in self.steps:
            ufunc(*[slots[k] for k in args], out=slots[out])


class _IntervalOps:
    """Outward-rounded arithmetic on (lo, hi) pairs of endpoint arrays.

    A constant (see above) of add, sub or mul may have either sign; in add
    and sub it is its own lo and hi.  div and sqrt may meet a zero divisor
    endpoint or a negative radicand and leave an infinite or NaN endpoint
    there; they set no floating-point error state of their own, so the
    caller runs them under one ``np.errstate(divide="ignore",
    invalid="ignore", over="ignore")``.  Each operation takes its min, max
    and rounding steps in place on the temporaries it made itself, so it
    allocates fewer arrays and never writes into an operand.
    """

    @staticmethod
    def add(a, b):
        if isinstance(a, float):
            if isinstance(b, float):
                return a + b
            a = (a, a)
        elif isinstance(b, float):
            b = (b, b)
        return _round_out(a[0] + b[0], a[1] + b[1])

    @staticmethod
    def sub(a, b):
        if isinstance(a, float):
            if isinstance(b, float):
                return a - b
            a = (a, a)
        elif isinstance(b, float):
            b = (b, b)
        return _round_out(a[0] - b[1], a[1] - b[0])

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
            return _round_out(lo, hi)
        p1 = a[0] * b[0]
        p2 = a[0] * b[1]
        p3 = a[1] * b[0]
        p4 = a[1] * b[1]
        return _round_out(*_least_and_most(p1, p2, p3, p4))

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
        return _round_out(*_least_and_most(q1, q2, q3, q4))

    @staticmethod
    def _div_positive(a, b):
        """div for a divisor whose lower endpoint is > 0.

        A quotient by a positive number grows with the numerator, so lo is
        the lesser of a_lo/b_lo and a_lo/b_hi, and hi the greater of
        a_hi/b_lo and a_hi/b_hi: div's bits wherever no quotient is NaN,
        from two quotients per endpoint instead of four.
        """
        lo = a[0] / b[0]
        np.minimum(lo, a[0] / b[1], out=lo)
        hi = a[1] / b[0]
        np.maximum(hi, a[1] / b[1], out=hi)
        return _round_out(lo, hi)

    @staticmethod
    def sqrt(a):
        # Negative dust below the domain boundary is clamped to the true
        # restriction [0, hi]; an entirely negative interval surfaces as
        # NaN, which can never be proven positive.
        lo = np.maximum(a[0], 0.0)
        np.sqrt(lo, out=lo)
        hi = np.sqrt(a[1])
        lo, hi = _round_out(lo, hi)
        np.maximum(lo, 0.0, out=lo)
        return lo, hi


def _least_and_most(p1, p2, p3, p4):
    """min(min(p1, p2), min(p3, p4)) and the same with max, computed in
    place on the four fresh arrays, which it consumes."""
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2, out=p1)
    np.minimum(lo, np.minimum(p3, p4, out=p2), out=lo)
    np.maximum(hi, np.maximum(p3, p4, out=p3), out=hi)
    return lo, hi


def _round_out(lo, hi):
    """Fresh endpoint arrays lo and hi, rounded outward by one ulp in place."""
    np.nextafter(lo, -_INF, out=lo)
    np.nextafter(hi, _INF, out=hi)
    return lo, hi
