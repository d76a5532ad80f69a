"""Rigorous certification of the normalized inequalities.

A target with an identity (see `Identity`) is certified by that identity,
with no box, at every mu; every other target by branch and bound.

The working domain is W(mu, delta) = {mu <= x <= y <= 1, x + y >= 1 + mu}
minus the equality corner [1-delta, 1]^2 (inside the simplex x <= y the
corner removal is exactly the constraint x <= 1 - delta); the sum bound is
1 + mu rounded to binary64, which is 1 for mu <= 1.1e-16.  A box is proven
once a rigorous lower bound on the target over the box is positive;
otherwise it is bisected along its wider side.  The first levels, down to
depth `_GRID_DEPTH`, are bisected without a bound: bounds seldom prove
boxes that wide, and bounding a small level costs milliseconds whatever
its size.  Processing is level-synchronous and vectorized over (4, n)
arrays of boxes, whose rows are xlo, xhi, ylo and yhi; a certificate's
proven, corner and undecided sets are such arrays too.  The output is
deterministic regardless of scheduling, and the endpoint arithmetic is
the same 1-ulp outward rounding used by :mod:`cevians.intervals`.  A
level is decided in one evaluation together with the generations below
it, each every child of the one before, while they hold at most
`_LOOKAHEAD_BOXES` boxes in all; the levels that follow, the children of
the boxes each level splits, take their decisions from there.  Every step
of a decision is element-wise over the boxes, so this changes no
certificate, only how many evaluations a run makes.

Each target is one `TargetSpec` record of `TARGETS`: its parts, their
exact facts at each vertex, its identity and whether the corner factor
check applies.  Every target expression is written once against an
abstract operation set (the median and bisector targets are the
:mod:`cevians.bulk` formulas at c = 1.0) and instantiated three ways:
plain float arrays (point evaluation), interval endpoint arrays (the
natural extension, which is inclusion-isotone), and forward-mode interval
derivatives of order 1 or 2 (:class:`_JetOps`, whose value, gradient and
Hessian are the rows of one pair of endpoint arrays).
The branch-and-bound additionally prunes with the mean-value form
f(m) + grad(X) * (X - m), which is what keeps box counts bounded away from
the points where a target is 0.

Two such points lie on the closure of the domain, the equality vertices
of `_VERTICES`: the equilateral point (1, 1), where every target is 0,
and the flat triangle (0, 1), where the targets with facts there are.
No bound over a box can be positive near a zero, so near them the bounds
shrink only with the box and the levels pile up.  A box that the bounds
above leave unproven and that lies within twice its width of a vertex is
tried with a Taylor form at the vertex (Moore, Kearfott and Cloud,
*Introduction to Interval Analysis*, SIAM 2009), evaluated over the box
extended to the vertex and built on exact facts of each part there:
second order at (1, 1) (:func:`_vertex_1_1_bounds`), and first order at
(0, 1) in x or in s = sqrt(x) (:func:`_vertex_0_1_bounds`).
The form proves the box positive, or, at delta = 0 for the one box that
holds (1, 1), >= 0 with equality only at (1, 1): that box is the corner
box.  The derivative forms are applied only where every radicand is
strictly positive over the whole box hull, so the expression is
differentiable on every segment the argument needs.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import bulk
from .bulk import equal_base_second_factor, equal_legs_second_factor
from .intervals import _FloatOps, _IntervalOps, _round_down, _round_up
from .kernel import Target

_INF = np.inf
# Width of the sliver (1-eta, 1] next to the equilateral point that the
# corner factor certification leaves out: both factors vanish at x = 1.
_CORNER_ETA = 1e-6
# The corner factor bisection gives up at this box width or box count.
_CORNER_MIN_WIDTH = 1e-12
_CORNER_BOX_CAP = 500_000
# A report lists at most this many undecided boxes and flags the rest.
_UNDECIDED_LIMIT = 1000
# The branch-and-bound bisects without bounding down to this depth.
# Bounded from depth 0, the first level to prove a box was at depth 2, 3
# or 4 in 29 of 30 runs (5 targets x {defaults, mu = 1e-12 with delta =
# 1e-6 and 1e-7, delta = 0 at mu = 1e-6, 1e-12 and 1e-20}) and at depth 6
# in the other.  Over the nine certify-suite runs that use the
# branch-and-bound (key-system and altitude-reduced are proven by their
# identities), depths 0, 3, 4, 5, 6 and 7 bound 747, 684, 636, 642, 834
# and 1,334 boxes in 87, 60, 51, 42, 36 and 30 levels, with 15 evaluations
# each.  When all 15 runs were bounded, with a look-ahead of one
# generation below levels of at most 256 boxes, depths 0, 3, 4, 5, 6 and
# 7 made 81, 60, 51, 45, 39 and 36 evaluations and took 196, 142, 119,
# 106, 96 and 97 ms in process (medians of 7 passes; 21 passes of depths
# 5, 6 and 7 gave 100, 80 and 81 ms).
_GRID_DEPTH = 5
# The branch-and-bound decides a bounded level together with the generations
# below it while the level and they hold at most this many boxes (see
# :func:`_look_ahead`).  A `_decide` call has a fixed cost of milliseconds,
# because at these sizes a box costs mostly per NumPy call, not per lane: on
# certify-corner's 224-box batch it takes 2.4 ms in 1,357 NumPy calls (ufunc
# and array-function calls, not counting indexing), of which the bound takes
# 1.08 ms in 503 calls on 224 lanes, the (1, 1) form 0.75 ms in 507 calls on
# 19 lanes and the (0, 1) form 0.35 ms in 286 calls on 3 lanes (medians of 5
# processes of 400 passes each).  Before each `_JetOps` rule made one
# gathered product, the same batch took 2.8 ms in 1,833 calls, and the three
# forms 1.23, 1.07 and 0.40 ms in 597, 793 and 382.  On key-system's wide
# levels of 37k-88k boxes a decision costs about 3.3-3.6 us per box, so a
# batch this size costs less than the calls it saves.  Caps of 0 (no
# look-ahead), 256, 384, 512, 768 and 1,024 make 42, 15, 15, 15, 15 and 15
# evaluations over the nine certify-suite runs that use the
# branch-and-bound.  When all 15 runs were bounded, in process on a shared
# 2-core host, they made 81, 30, 30, 27, 24 and 24 evaluations and took 90,
# 58, 59, 70, 67 and 95 ms, and made 3, 1, 1, 1, 1 and 1 on certify-corner's
# run and took 4.4, 2.8, 2.8, 3.5, 3.5 and 5.0 ms (medians of 60 and 400
# interleaved passes).  Over 7 targets x 11 settings (certify-suite's three,
# delta = 0 at mu = 1e-6, 1e-12 and 1e-20 with a budget of 3,000, budgets of
# 10 and 31, max_depth 2 and 7, min_box_width 0.2), caps of 256, 384, 512,
# 768 and 1,024 made 111, 108, 98, 95 and 88 evaluations and took 312, 315,
# 333, 344 and 425 ms (medians of 15), and 256 against 384 alone 312 and 305
# ms (medians of 30).  The one-generation look-ahead this replaced, below
# levels of at most 256 boxes, made 45 evaluations over certify-suite.  On
# key-system at mu = 1e-20, delta = 0 and a budget of 300,000, whose levels
# grow to 88,266 boxes, the look-ahead reaches only the first three levels,
# and the run takes about 1.0 s either way.
_LOOKAHEAD_BOXES = 384


@dataclass(frozen=True)
class CertificationTask:
    target: Target
    mu: float = 1e-6
    delta: float = 1e-3
    max_depth: int = 60
    min_box_width: float = 1e-9
    box_budget: int = 2_000_000

    def __post_init__(self):
        if not (0.0 < self.mu < 0.25):
            raise ValueError(f"mu must lie in (0, 1/4), got {self.mu}")
        if not (0.0 <= self.delta < 0.5):
            raise ValueError(f"delta must lie in [0, 1/2), got {self.delta}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not (self.min_box_width > 0.0):
            raise ValueError("min_box_width must be positive")
        if self.box_budget < 1:
            raise ValueError("box_budget must be positive")


# ---------------------------------------------------------------------------
# Target expressions, written once over an operation set (`_FloatOps` and
# `_IntervalOps` from :mod:`cevians.intervals`, or `_JetOps` below).  The
# median targets are :mod:`cevians.bulk` formulas on the normalized triangle
# (x, y, 1) and its doubled medians ra, rb, rc = 2*m_a, 2*m_b, 2*m_c, and
# the bisector targets on (x, y, 1) and its internal bisectors, with c the
# exact float constant 1.0.  Every target is a positive multiple of the
# inequality slack it certifies, so only the sign matters.  Multi-part
# targets (the key system) certify the minimum of their parts.
# ---------------------------------------------------------------------------


class _Jet:
    """Forward-mode interval value of order 1 or 2.

    `d` is one `_IntervalOps` pair of (m, n) endpoint arrays with a row per
    component: row 0 is the enclosure, rows 1-2 the gradient (gx, gy), and
    at order 2 (m = 6) rows 3-5 the Hessian (hxx, hxy, hyy).  `ok` marks
    lanes where every radicand and divisor so far is strictly positive over
    the whole box hull, i.e. where the expression is differentiable on the
    hull and the derivative forms are admissible; it is None, for every
    lane, until the first radicand or divisor.  `square` holds a * a once
    `_JetOps.mul` has made it: quadratic-median squares the sides twice (in
    the doubled medians and in the slack) and was 14% slower without it.
    """

    __slots__ = ("d", "ok", "square")

    def __init__(self, d, ok):
        self.d = d
        self.ok = ok
        self.square = None


def _rows(a, k):
    """Rows `k` (an index, slice or index array) of a pair of endpoint arrays."""
    return a[0][k], a[1][k]


def _set_rows(a, k, b):
    a[0][k] = b[0]
    a[1][k] = b[1]


def _stack(parts):
    """One pair of (m, n) arrays from pairs of (r, n) arrays."""
    return tuple(np.concatenate([p[e] for p in parts]) for e in (0, 1))


def _both(p, q):
    """p & q of two `ok` masks, where None stands for every lane."""
    if p is None:
        return q
    if q is None:
        return p
    return p & q


# Row 0 as a (1, n) slice, which `_stack` takes as it is.
_VALUE = slice(0, 1)
_GRAD = slice(1, 3)
_HESS = slice(3, 6)
# The Hessian rows (xx, xy, yy) pair the gradient rows (x, x, y) with
# (x, y, y); `_LEFT` and `_RIGHT` index those rows of a gradient pair.
_LEFT, _RIGHT = [0, 0, 1], [0, 1, 1]

# The product rule's one gathered product, by the row count of its jets:
# the rows of the left factor `a` and of the right factor `b` that it
# multiplies.  With v, w the values and g, k the gradients of a and b, its
# rows are a_r*w for every row r, then at order 2 g_L*k_R (the Hessian
# cross terms), then v*b_r for every derivative row r, then g_R*k_L: the
# second half, added to the first after its row 0, gives each derivative
# row and the cross sums.
_PRODUCT_ROWS = {
    3: (np.array([0, 1, 2, 0, 0]), np.array([0, 0, 0, 1, 2])),
    6: (np.array([0, 1, 2, 3, 4, 5, 1, 1, 2, 0, 0, 0, 0, 0, 1, 2, 2]),
        np.array([0, 0, 0, 0, 0, 0, 1, 2, 2, 1, 2, 3, 4, 5, 1, 1, 2])),
}
# The quotient rule's one gathered product at order 2, of the rows
# (q, qx, qy) of the quotient so far by rows of the divisor b: qx*bx,
# qx*by, qy*by (the (xx, xy, yy) terms q_L*b_R), qy*bx, then q*b_ij.
_QUOTIENT_ROWS = np.array([1, 1, 2, 2, 0, 0, 0]), np.array([1, 2, 2, 1, 3, 4, 5])


class _JetOps:
    """Interval arithmetic with forward-mode derivative propagation.

    Each rule makes one `_IntervalOps` product over rows it gathers from
    its operands, instead of one per term: at the narrow levels of a run
    a box costs mostly per NumPy call, not per lane.  On certify-corner's
    batch this took the bound from 597 to 503 NumPy calls, the (1, 1) form
    from 793 to 507 and the (0, 1) form from 382 to 286, and their times
    from 1.23, 1.07 and 0.40 ms to 1.08, 0.75 and 0.35 ms
    (`_LOOKAHEAD_BOXES` says how they were measured).  On wide levels the
    gathered temporaries grow past what glibc keeps after a free, so each
    product faults its memory back in and is slower than one product per
    term: at 3,000 lanes an order-1 product took 1,045 against 639 us,
    with 144 minor faults against 0.  Each row keeps the per-element
    operation order of the rule written one component at a time, so row
    0, the natural extension, is the same bit for bit on every lane, and
    every row on every lane with `ok`.  The div and sqrt rules floor their
    divisors at 5e-324 and divide the derivative rows with
    `_IntervalOps._div_positive`, whose bits differ from div's only where
    a quotient is NaN, and none is on a lane with `ok`.  Only the
    derivative rows meet inf * 0 (a radicand that reaches 0 has an
    infinite derivative); those lanes have `ok` False and are never used,
    and :func:`_jets` silences their warnings.  A float operand is an
    exact constant as in `_IntervalOps`, except that sub takes one only
    as its subtrahend: a +- k changes row 0.
    """

    @staticmethod
    def add(a, b):
        if isinstance(a, float):
            a, b = b, a
        if not isinstance(b, float):
            return _Jet(_IntervalOps.add(a.d, b.d), _both(a.ok, b.ok))
        return a + b if isinstance(a, float) else _with_value(a, _IntervalOps.add, b)

    @staticmethod
    def sub(a, b):
        if isinstance(b, float):
            return a - b if isinstance(a, float) else _with_value(a, _IntervalOps.sub, b)
        return _Jet(_IntervalOps.sub(a.d, b.d), _both(a.ok, b.ok))

    @staticmethod
    def mul(a, b):
        if isinstance(a, float):
            a, b = b, a
        if isinstance(b, float):
            if isinstance(a, float):
                return a * b
            # every row scales; by exactly 1.0, `a` is returned itself
            return a if b == 1.0 else _Jet(_IntervalOps.mul(a.d, b), a.ok)
        if a is b and a.square is not None:
            return a.square
        # (vw)_i = v_i*w + v*w_i and
        # (vw)_ij = (v_ij*w + v*w_ij) + (v_i*w_j + v_j*w_i).
        add = _IntervalOps.add
        m = a.d[0].shape[0]
        left, right = _PRODUCT_ROWS[m]
        p = _IntervalOps.mul(_rows(a.d, left), _rows(b.d, right))
        half = (len(left) + 1) // 2
        s = add(_rows(p, slice(1, half)), _rows(p, slice(half, None)))
        parts = [_rows(p, _VALUE), s]
        if m > 3:
            parts[1:] = _rows(s, slice(0, 2)), add(_rows(s, slice(2, 5)), _rows(s, slice(5, 8)))
        product = _Jet(_stack(parts), _both(a.ok, b.ok))
        if a is b:
            a.square = product
        return product

    @staticmethod
    def div(a, b):
        # q = a / b: from a = q*b, q_i = (a_i - q*b_i) / b and
        # q_ij = (((a_ij - q_i*b_j) - q_j*b_i) - q*b_ij) / b, with the two
        # middle terms one doubled term on the diagonal.
        sub, mul, div = _IntervalOps.sub, _IntervalOps.mul, _IntervalOps._div_positive
        w = _rows(b.d, _VALUE)
        denom = (np.maximum(w[0], 5e-324), w[1])
        q = _IntervalOps.div(_rows(a.d, _VALUE), denom)
        d = _stack([q, div(sub(_rows(a.d, _GRAD), mul(q, _rows(b.d, _GRAD))), denom)])
        if a.d[0].shape[0] > 3:
            left, right = _QUOTIENT_ROWS
            p = mul(_rows(d, left), _rows(b.d, right))
            diagonal = slice(0, 3, 2)
            _set_rows(p, diagonal, mul(_rows(p, diagonal), 2.0))
            h = sub(_rows(a.d, _HESS), _rows(p, slice(0, 3)))
            _set_rows(h, 1, sub(_rows(h, 1), _rows(p, 3)))
            d = _stack([d, div(sub(h, _rows(p, slice(4, 7))), denom)])
        return _Jet(d, _both(_both(a.ok, b.ok), w[0][0] > 0.0))

    @staticmethod
    def sqrt(a):
        # s = sqrt(a): s_i = a_i / (2s) and s_ij = (a_ij - 2*s_i*s_j) / (2s).
        div = _IntervalOps._div_positive
        v = _rows(a.d, _VALUE)
        s = _IntervalOps.sqrt(v)
        floor = 2.0 * s[0]
        denom = (np.maximum(floor, 5e-324, out=floor), 2.0 * s[1])
        g = div(_rows(a.d, _GRAD), denom)
        parts = [s, g]
        if a.d[0].shape[0] > 3:
            t = _IntervalOps.mul(_IntervalOps.mul(_rows(g, _LEFT), _rows(g, _RIGHT)), 2.0)
            parts.append(div(_IntervalOps.sub(_rows(a.d, _HESS), t), denom))
        return _Jet(_stack(parts), _both(a.ok, v[0][0] > 0.0))


def _with_value(a, op, k):
    """`a` with `op(value, k)` in row 0 (op is add or sub, k a float)."""
    return _Jet(_stack([op(_rows(a.d, _VALUE), k), _rows(a.d, slice(1, None))]), a.ok)


def _on_unit_triangle(formula, cevians, parts=1):
    """A target of `parts` values: a :mod:`cevians.bulk` formula on the
    triangle (x, y, 1.0) and its Cevians `cevians(ops, x, y, 1.0)`, with the
    roots (sqrt(y), sqrt(x), sqrt(xy)) where :func:`_jets` seeds them."""
    def target(ops, x, y, **roots):
        value = formula(ops, x, y, 1.0, *cevians(ops, x, y, 1.0), **roots)
        return (value,) if parts == 1 else value
    return target


def _parts_altitude_reduced(ops, x, y):
    t = ops.add(ops.add(ops.mul(x, y), ops.div(x, y)), ops.div(y, x))
    return (ops.sub(t, ops.add(ops.add(x, y), 1.0)),)


def key_system_identity_floors(mu: float) -> dict:
    """Domain floors of the Heron factors of the triangle (x, y, 1) on W(mu).

    (X*2m_Z + Z*2m_X)^2 - (2Y*2m_Y)^2 = 2*sqrt(T1*T2) - P, with
    T1 = (X*2m_Z)^2, T2 = (Z*2m_X)^2, P = 4*(Y*2m_Y)^2 - T1 - T2, and
    squaring once more gives the identity

        4*T1*T2 - P^2 = 4*(X^2 + Z^2 - 2Y^2)^2 * (16*area^2).

    Its right side is a square times Heron's 16*area^2, which is >= 0
    wherever every Heron factor is, degenerate triangles included, so the
    residual X*m_Z + Z*m_X - 2Y*m_Y is >= 0 there; where the area is
    positive it is 0 exactly on X^2 + Z^2 = 2Y^2.  Key-system's r1, r2 and
    r3 are twice this residual with (X, Y, Z) = (b, a, c), (a, b, c) and
    (a, c, b).  On W(mu) = {mu <= x <= y <= 1, x + y >= 1 + mu}, r2's curve
    2y^2 = x^2 + 1 crosses the whole domain, and r1's and r3's,
    y^2 + 1 = 2x^2 and x^2 + y^2 = 2, meet W(mu) only at (1, 1).  Where
    1 + mu rounds to 1, W(mu) also holds the flat edge x + y = 1, whose
    doubled medians are 2 - x, 1 + x and 1 - 2x: there r1 = 2(1 - x)(1 - 2x),
    0 at (1/2, 1/2), r2 = 0, and r3 = 2x(1 + x) > 0.  Every Heron factor
    of (x, y, 1) has the constant floor below, exact (Sterbenz for
    x + y - 1) and >= 0 at every mu.
    """
    return {
        "x+y-1": (1.0 + mu) - 1.0,
        "1+x-y": mu,
        "1+y-x": 1.0,
        "1+x+y": 2.0,
    }


# Where a part that an identity proves > 0 is 0: the equality point alone.
_EQUALITY_POINT = "(1,1)"


@dataclass(frozen=True)
class Identity:
    """An exact identity that proves a target's parts on W(mu), at every mu.

    `parts` holds one entry (name, zeros, edge_zeros) per part of the
    target, which it proves: `zeros` is `_EQUALITY_POINT` for a part proven
    > 0 on W(mu) except at (1, 1), or the curve on which a part proven >= 0
    is 0; `edge_zeros` is where else the part is 0 on the flat edge
    x + y = 1, or None.  The edge lies in W(mu) exactly where 1 + mu rounds
    to 1, and only there does the report add `edge_zeros` to the part's
    zero set.  `floors(mu)` gives a constant lower bound, >= 0 over W(mu),
    of each quantity the identity needs nonnegative.
    """

    name: str
    statement: str
    parts: tuple
    floors: Callable

    def to_report_dict(self, mu: float) -> dict:
        flat = 1.0 + mu == 1.0

        def part(name, zeros, edge_zeros):
            zero_set = zeros if not flat or edge_zeros is None else f"{zeros} or {edge_zeros}"
            if zeros == _EQUALITY_POINT:
                claim = f"{name} > 0 on W(mu) except at {zero_set}, where it is 0"
            else:
                claim = f"{name} >= 0 on W(mu), and 0 exactly on {zero_set}"
            return {"part": name, "claim": claim, "zero_set": zero_set}

        return {
            "kind": "identity",
            "name": self.name,
            "identity": self.statement,
            "floors": self.floors(mu),
            "parts": [part(*entry) for entry in self.parts],
        }


@dataclass(frozen=True)
class TargetSpec:
    """One certify target.

    `parts(ops, x, y)` gives its parts over an operation set.  `facts` maps
    the name of each vertex of `_VERTICES` where a part is 0 to one entry
    per part, from that vertex's vocabulary (see its docstring).
    `identity` is an `Identity` that proves every part of the target, or
    None; with one, :func:`certify` needs no branch-and-bound.
    `corner_factors` marks the target whose isosceles second factors
    :func:`corner_argument_check` certifies at delta > 0.
    """

    parts: Callable
    facts: dict
    identity: Identity | None = None
    corner_factors: bool = False


# Every certify target, with the exact facts of its parts at the vertices;
# the common values (ra, rb, rc there) are in each vertex's docstring.
TARGETS = {
    # (1, 1): every term has a zero factor, so F = 0, and
    # F_x = -ra + rb/2 + rc/2 = 0 (= F_y, as F is symmetric).
    # (0, 1): F = 2*(1 - 0) + 1*(0 - 1) + 1*(0 - 1) = 0; in s, dF/ds =
    # rb + rc*sqrt(y) = 2, and dF/dy = 1 + 1 + 1 - 1 - 2 = 0.
    Target.MAIN_MEDIAN: TargetSpec(
        _on_unit_triangle(bulk.main_slack, bulk.doubled_medians),
        {"vertex_1_1": (2,), "vertex_0_1": ("s",)}, corner_factors=True),
    # (1, 1): F = 0 likewise, and F_x = -2*ra + rb + rc = 0.
    # (0, 1): F = 1*2 - 1*1 - 1*1 = 0, analytic in x with dF/dx =
    # rb + y*rc = 2, and dF/dy = 0.
    Target.QUADRATIC_MEDIAN: TargetSpec(
        _on_unit_triangle(bulk.quadratic_slack, bulk.doubled_medians),
        {"vertex_1_1": (2,), "vertex_0_1": ("x",)}),
    # r1, r2, r3 = rb + y*rc - 2x*ra, ra + x*rc - 2y*rb, x*rb + y*ra - 2*rc.
    # (1, 1): r1 = rb + rc - 2*ra = 0, r1_x = (2 + 2 + 2)/sqrt(3) - 2*ra =
    # 0, r1_y = (-1 + 2 - 4)/sqrt(3) + rc = 0; r2 is r1 with x and y
    # swapped; r3 = rb + ra - 2*rc = 0 and r3_x = rb + (2 - 1 - 4)/sqrt(3) = 0.
    # The form at (1, 1) proves no key-system box: r2's zero curve
    # 2y^2 = x^2 + 1 enters (1, 1) with slope 1/2, inside the form's wedge.
    # The entry sets the order that the delta = 0 corner note names.
    Target.KEY_SYSTEM: TargetSpec(
        _on_unit_triangle(bulk.key_residuals, bulk.doubled_medians, parts=3),
        {"vertex_1_1": (2, 2, 2)},
        identity=Identity(
            "square identity",
            "4*T1*T2 - P^2 = 4*(X^2 + Z^2 - 2*Y^2)^2 * (16*area^2), with "
            "T1 = (X*2m_Z)^2, T2 = (Z*2m_X)^2 and P = 4*(Y*2m_Y)^2 - T1 - T2, "
            "so X*m_Z + Z*m_X - 2*Y*m_Y >= 0 wherever the Heron factors are >= 0, "
            "and = 0 exactly on X^2 + Z^2 = 2*Y^2 where the area is positive; "
            "r1, r2 and r3 are twice it with (X, Y, Z) = (b, a, c), (a, b, c) "
            "and (a, c, b)",
            (("r1", _EQUALITY_POINT, "(1/2,1/2)"), ("r2", "2*y^2 = x^2 + 1", "x + y = 1"),
             ("r3", _EQUALITY_POINT, None)),
            key_system_identity_floors)),
    # (1, 1): F = 3 - 3 = 0 and F_x = y + 1/y - y/x^2 - 1 = 0.  It grows
    # like 1/x at (0, 1).  x*y*F is a sum of squares, 0 only where
    # x*y = x = y, so at (1, 1) for x, y > 0.
    Target.ALTITUDE_REDUCED: TargetSpec(
        _parts_altitude_reduced, {"vertex_1_1": (2,)},
        identity=Identity(
            "sum of squares",
            "x*y*F = ((x*y - x)^2 + (x*y - y)^2 + (x - y)^2) / 2, so F > 0 where "
            "x > 0 and y > 0, except at x = y = 1",
            (("F", _EQUALITY_POINT, None),),
            lambda mu: {"x": mu, "y": 0.5})),
    # (1, 1): F = ra - rc = 0, but F_x = (-1 - 2)/sqrt(3) + rb/2 and
    # F_y = (2 - 2)/sqrt(3) + ra/2 - rb are both -sqrt(3)/2.
    # (0, 1): F = 2*1 + 1*(0 - 1) - 1 = 0; in s, dF/ds = rb = 1, dF/dy = 0.
    Target.SCALENE_LEMMA: TargetSpec(
        _on_unit_triangle(bulk.scalene_lemma, bulk.doubled_medians),
        {"vertex_1_1": (1,), "vertex_0_1": ("s",)}),
    # (1, 1): the bisectors la = lb = lc = sqrt(3)/2 are equal, so the
    # median arguments carry over: F = 0, and F_x = -la + lb/2 + lc/2 = 0
    # and -2*la + lb + lc = 0.  At (0, 1), la = 1 and lb = lc = 0: F = 1.
    Target.MAIN_BISECTOR: TargetSpec(
        _on_unit_triangle(bulk.main_slack, bulk.bisectors), {"vertex_1_1": (2,)}),
    Target.QUADRATIC_BISECTOR: TargetSpec(
        _on_unit_triangle(bulk.quadratic_slack, bulk.bisectors), {"vertex_1_1": (2,)}),
}


def point_values(target: Target, x, y):
    """Binary64 point evaluation of a target over arrays of domain points."""
    parts = TARGETS[target].parts(_FloatOps, np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float))
    out = parts[0]
    for p in parts[1:]:
        out = np.minimum(out, p)
    return out


def _jets(parts, order: int, xlo, xhi, ylo, yhi, in_sqrt_x=False):
    """`parts(_JetOps, x, y)` with x and y seeded over the boxes.

    With `in_sqrt_x`, [xlo, xhi] bounds s = sqrt(x) instead of x, the
    derivatives are taken in (s, y), and `parts` gets x = s*s and the roots
    (sqrt(y), s, s*sqrt(y)).
    """
    def seed(lo, hi, row):
        d = np.zeros((3 * order, lo.shape[0])), np.zeros((3 * order, lo.shape[0]))
        _set_rows(d, 0, (lo, hi))
        _set_rows(d, row, (1.0, 1.0))
        return _Jet(d, None)

    x, y = seed(xlo, xhi, 1), seed(ylo, yhi, 2)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if in_sqrt_x:
            sy = _JetOps.sqrt(y)
            jets = parts(_JetOps, _JetOps.mul(x, x), y, roots=(sy, x, _JetOps.mul(x, sy)))
        else:
            jets = parts(_JetOps, x, y)
    for jet in jets:
        if jet.ok is None:
            jet.ok = np.ones(np.shape(xlo), dtype=bool)
    return jets


def _lower_bounds(spec: TargetSpec, xlo, xhi, ylo, yhi):
    """Best rigorous per-box lower bound over the domain part of each box.

    The larger of the natural extension and the mean-value form
    F(m) + grad(X) * (X - m) about the box midpoint m.  The midpoint lies
    in the box, and the mean-value bound is used only on lanes whose `ok`
    flag says every radicand is strictly positive over the box hull, so
    F is differentiable on every segment from m, and F(m) is enclosed even
    where m itself lies outside the domain.  A multi-part target takes the
    least bound over its parts.
    """
    # The enclosures (row 0 of each jet's `d`) are the natural extension: `_JetOps`
    # runs the same `_IntervalOps` calls on them, and its divisor floor
    # 5e-324 never binds, because the only divisors (altitude-reduced's x
    # and y) have lower bounds >= mu > 0 on clipped boxes.
    jets = _jets(spec.parts, 1, xlo, xhi, ylo, yhi)

    mx = 0.5 * (xlo + xhi)
    my = 0.5 * (ylo + yhi)
    mid = spec.parts(_IntervalOps, (mx, mx), (my, my))
    dx = (_round_down(xlo - mx), _round_up(xhi - mx))
    dy = (_round_down(ylo - my), _round_up(yhi - my))

    best = None
    for jet, (mid_lo, _) in zip(jets, mid):
        v, gx, gy = (_rows(jet.d, i) for i in range(3))
        term = _IntervalOps.add(_IntervalOps.mul(gx, dx), _IntervalOps.mul(gy, dy))
        with np.errstate(invalid="ignore"):
            centered = _round_down(mid_lo + term[0])
        usable = jet.ok & np.isfinite(centered)
        part_lo = np.where(usable, np.maximum(v[0], centered), v[0])
        best = part_lo if best is None else np.minimum(best, part_lo)
    return best


def _vertex_1_1_bounds(spec: TargetSpec, facts: tuple, xlo, xhi, ylo, yhi):
    """Taylor-form bound at (1, 1), over each box extended to [xlo,1] x [ylo,1].

    On the domain part of the extended box, d = p - (1, 1) has
    dx <= dy <= 0, so dy = r*dx with r in [0, 1], and dx < 0 unless
    p = (1, 1).  Taylor's theorem along the segment from (1, 1) to p, which
    stays in the extended box, and the exact `facts` at (1, 1) give

        order 2:  F(p) = dx^2/2 * (hxx + 2*hxy*r + hyy*r^2),
        order 1:  F(p) = -dx * (-gx - gy*r),

    with the derivatives taken at a point of the segment, hence inside the
    `_JetOps` enclosures over the extended box: of order 2 when a part has
    order 2 there, and of order 1 otherwise (scalene-lemma), whose value
    and gradient rows are those of order 2 bit for bit.  As 1, r and
    r^2 are >= 0, putting the lower endpoint of each coefficient's
    enclosure in its place bounds each polynomial in r from below, and a
    polynomial on [0, 1] is at least its least Bernstein coefficient:
    (hxx, hxx + hxy, hxx + 2*hxy + hyy), or (-gx, -gx - gy).
    Returns the least coefficient over the parts; where it is positive,
    every part is >= 0 on the box and 0 only at (1, 1).
    Lanes where a radicand or divisor can reach 0 get -inf.
    """
    one = np.ones_like(xhi)
    least = []
    for order, part in zip(facts, _jets(spec.parts, max(facts), xlo, one, ylo, one)):
        if order == 2:
            hxx, hxy, hyy = (_rows(part.d, i) for i in range(3, 6))
            b1 = _IntervalOps.add(hxx, hxy)
            b2 = _IntervalOps.add(b1, _IntervalOps.add(hxy, hyy))
            bound = np.minimum(np.minimum(hxx[0], b1[0]), b2[0])
        else:
            gx, gy = _rows(part.d, 1), _rows(part.d, 2)
            bound = np.minimum(-gx[1], -_IntervalOps.add(gx, gy)[1])
        least.append(np.where(part.ok & np.isfinite(bound), bound, -_INF))
    return np.minimum.reduce(least)


def _vertex_0_1_bounds(spec: TargetSpec, facts: tuple, xlo, xhi, ylo, yhi):
    """First-order bound at (0, 1), over each box extended to [0,xhi] x [ylo,1].

    On the domain, x + y >= 1 and y <= 1, so y - 1 lies in [-x, 0].  For a
    part with F(0, 1) = 0, the mean-value theorem along the segment from
    (0, 1) to p, with the derivatives enclosed over the extended box,
    gives, in the variable the facts name:

        x:  F >= x * (gx - max(gy, 0)),
        s = sqrt(x), y - 1 in [-s^2, 0]:  F >= s * (gs - s_hi*max(gy, 0)),

    taking the lower endpoint of gx or gs and the upper one of gy.  Returns
    the least such coefficient over the parts, rounded down; where it is
    positive, every part is > 0 on the box, since x >= mu > 0 there.
    Main-median and scalene-lemma have sqrt(x), which is not
    differentiable at x = 0, so they are expanded in s over [0, sqrt(xhi)],
    where the target is a smooth function of (s, y).
    Lanes where a radicand or divisor can reach 0 get -inf.
    """
    zero, one = np.zeros_like(xhi), np.ones_like(xhi)
    if "s" in facts:
        s_hi = _round_up(np.sqrt(xhi))
        parts = _jets(spec.parts, 1, zero, s_hi, ylo, one, in_sqrt_x=True)
    else:
        s_hi = one
        parts = _jets(spec.parts, 1, zero, xhi, ylo, one)
    least = []
    for part in parts:
        g, gy = _rows(part.d, 1), _rows(part.d, 2)
        with np.errstate(invalid="ignore"):
            bound = _round_down(g[0] - _round_up(s_hi * np.maximum(gy[1], 0.0)))
        least.append(np.where(part.ok & np.isfinite(bound), bound, -_INF))
    return np.minimum.reduce(least)


class _Vertex:
    """An equality vertex (x, y) of the domain's closure, and the form that
    proves boxes near it: `bounds(spec, facts, xlo, xhi, ylo, yhi)`, per
    box, from a target's `facts` at the vertex, proves the box where it is
    positive.  `name` keys the facts and `stats.proven_by`.
    """

    __slots__ = ("name", "x", "y", "bounds")

    def __init__(self, name: str, x: float, y: float, bounds):
        self.name, self.x, self.y, self.bounds = name, x, y, bounds

    def near(self, xlo, xhi, ylo, yhi, width):
        """Boxes that lie within `_VERTEX_REACH` times their width of the
        vertex, in the max norm."""
        reach = np.maximum(np.maximum(np.abs(xlo - self.x), np.abs(xhi - self.x)),
                           np.maximum(np.abs(ylo - self.y), np.abs(yhi - self.y)))
        return reach <= _VERTEX_REACH * width

    def holds(self, xlo, xhi, ylo, yhi):
        return (xlo <= self.x) & (self.x <= xhi) & (ylo <= self.y) & (self.y <= yhi)


# How far from a vertex, in its own widths, a box may reach and still be
# tried with the vertex form.  Over 25 runs (5 targets x {defaults,
# mu = 1e-12 with delta = 1e-6 and 1e-7, delta = 0 at mu = 1e-6 and 1e-12}),
# bounded from depth `_GRID_DEPTH` with a look-ahead of one generation
# below levels of at most 256 boxes, reaches of 1, 2, 3, 4 and 8 took 743,
# 117, 117, 115 and 115 levels in 378, 67, 67, 67 and 67 evaluations and
# 398, 146, 165, 190 and 197 ms (medians of 7 passes).  At 1 only boxes
# that touch the vertex qualify, which leaves the corner edge x = 1 - delta
# to bisection and 3 boxes undecided; above 2 the form is tried on more
# boxes, which costs more time and saves no evaluation.
_VERTEX_REACH = 2.0

_VERTEX_1_1 = _Vertex("vertex_1_1", 1.0, 1.0, _vertex_1_1_bounds)
"""The equilateral point (1, 1), where every part of every target is 0.

Each entry is the order of the first nonzero term of the part's Taylor
expansion at (1, 1): 2 means value and gradient are exactly 0, 1 means
the value is exactly 0.  At (1, 1), ra = rb = rc = sqrt(3) and
sqrt(x) - 1 = sqrt(y) - 1 = sqrt(xy) - 1 = 0, and the radicals have
d ra = (-1, 2)/sqrt(3), d rb = (2, -1)/sqrt(3), d rc = (2, 2)/sqrt(3).
Swapping x and y swaps ra and rb, so a part symmetric in x and y has
F_y = F_x.
"""

_VERTEX_0_1 = _Vertex("vertex_0_1", 0.0, 1.0, _vertex_0_1_bounds)
"""The flat triangle (0, 1, 1).

A part that is 0 there names its expansion variable: "x", or "s" for a
part with sqrt(x), which is not differentiable at x = 0; in s = sqrt(x),
x = s^2, so d/ds of any smooth function of x is 0 at s = 0.  At (0, 1),
ra = 2 and rb = rc = 1, with d ra/dy = 2y/ra = 1, d rb/dy = -y/rb = -1,
d rc/dy = 2y/rc = 2, and d ra/dx = -x/ra and d rc/dx = 2x/rc both 0.
"""

_VERTICES = (_VERTEX_1_1, _VERTEX_0_1)


def _clip_to_domain(boxes, mu: float):
    """Axis-aligned bounding box of box ∩ {mu<=x<=y<=1, x+y>=1+mu}.

    Takes and returns a (4, n) array of boxes, with a mask of the nonempty
    ones.  Each bound is the tightest binary64 value but one: the floor
    (1 + mu) - xhi on y is exact only for xhi >= (1 + mu)/2 (Sterbenz), so
    it is rounded down, lest part of W lie in no box; (1 + mu) - yhi is
    exact on every nonempty box.  Points outside the simplex may remain in
    the clipped box (its corners), which is sound for enclosures;
    emptiness is decided conservatively.
    """
    xlo, xhi, ylo, yhi = boxes
    yhi = np.minimum(yhi, 1.0)
    ylo = np.maximum(ylo, 0.5 * (1.0 + mu))
    xlo = np.maximum(np.maximum(xlo, mu), (1.0 + mu) - yhi)
    xhi = np.minimum(xhi, yhi)
    ylo = np.maximum(np.maximum(ylo, xlo), _round_down((1.0 + mu) - xhi))
    nonempty = (xlo <= xhi) & (ylo <= yhi) & (xhi > 0.0)
    return np.array([xlo, xhi, ylo, yhi]), nonempty


def _widths(boxes):
    """The wider side of each box of a (4, n) array."""
    return np.maximum(boxes[1] - boxes[0], boxes[3] - boxes[2])


def _canonical(parts: list):
    """The (4, n_i) box arrays of `parts` as one (4, n) array, sorted by
    xlo, then ylo, then xhi, then yhi."""
    boxes = np.concatenate([np.empty((4, 0)), *parts], axis=1)
    return boxes[:, np.lexsort(boxes[[3, 1, 2, 0]])]


# The forms that prove a box, in `stats.proven_by` order: the bound of
# :func:`_lower_bounds`, then each vertex form.
_FORMS = ("bound", *(v.name for v in _VERTICES))


def _proof_counts() -> dict:
    return dict.fromkeys(_FORMS, 0)


@dataclass
class CertificateStats:
    """Deterministic counters of a run, and its wall time.

    `grid_depth` counts the grid levels, bisected without a bound (see
    :func:`_branch_and_bound`), and `levels` the levels whose boxes were
    bounded;
    `max_depth_reached` is the bisection depth of the last level, grid or
    not, so a run that bounds a level has `levels == max_depth_reached +
    1 - grid_depth`.  `boxes_processed` and `per_level` count the bounded
    boxes only, and `box_budget` caps `boxes_processed`.  `proven_by`
    counts the proven boxes by the form that proved them: `bound` for
    :func:`_lower_bounds`, and a vertex's name for its Taylor form; the
    corner box is not a proven box and is not counted.  `per_level` holds
    [boxes, proven, stuck, split] for each bounded level: boxes bounded,
    boxes proven, boxes left undecided at the depth or width limit, and
    boxes bisected; the rest of a level's boxes is the corner box.  A run
    that exhausts its budget also reports its unprocessed queue undecided,
    which no level counts.  `evaluations` counts the calls of
    :func:`_decide`, each of which decides one bounded level and the
    levels below it that its look-ahead reaches (see
    :func:`_branch_and_bound`), so it is at most `levels`: the nine certify-suite runs that use the
    branch-and-bound make 15 evaluations for 42 levels, against 42 one
    level at a time, and certify-corner's run 1 for its 3 levels.  A
    certificate by identity counts nothing.
    `undecided_hull` is the bounding box of the undecided boxes and its
    max-norm distance to each vertex of `_VERTICES`, or None when no box is
    undecided.
    """

    boxes_processed: int = 0
    max_depth_reached: int = 0
    grid_depth: int = 0
    levels: int = 0
    evaluations: int = 0
    proven_by: dict = field(default_factory=_proof_counts)
    per_level: list = field(default_factory=list)
    undecided_hull: dict | None = None
    budget_exhausted: bool = False
    wall_time_s: float = 0.0


@dataclass
class Certificate:
    """Outcome of a certification over the working domain.

    A certificate by identity (`identity` is not None) has no box and no
    count: its identity proves every part on all of W(mu).  Otherwise it is
    the branch-and-bound outcome.  The proven boxes, the corner box and the
    undecided boxes, together with the reported excluded regions, cover the
    working domain; no two of them overlap except on their boundaries.
    Every proven box has a positive lower bound (see :func:`_lower_bounds`)
    or a positive vertex form (see `_VERTICES`).  The corner box exists
    only at delta = 0: it is the box holding the equality point (1, 1),
    proven by :func:`_vertex_1_1_bounds` to carry a target >= 0 that is 0
    only at (1, 1).  Each box set is a (4, n) array whose rows are xlo,
    xhi, ylo and yhi, sorted by xlo, then ylo, then xhi, then yhi.
    """

    task: CertificationTask
    proven: np.ndarray
    corner: np.ndarray
    undecided: np.ndarray
    excluded: dict
    stats: CertificateStats = field(default_factory=CertificateStats)
    identity: Identity | None = None

    @property
    def proven_count(self) -> int:
        return self.proven.shape[1]

    @property
    def undecided_count(self) -> int:
        return self.undecided.shape[1]

    def to_report_dict(self, include_proven: bool = False) -> dict:
        doc = {
            "target": self.task.target.value,
            "mu": self.task.mu,
            "delta": self.task.delta,
            "max_depth": self.task.max_depth,
            "min_box_width": self.task.min_box_width,
            "proven_count": self.proven_count,
            "undecided_count": self.undecided_count,
            "undecided": self.undecided[:, :_UNDECIDED_LIMIT].T.tolist(),
            "undecided_truncated": self.undecided_count > _UNDECIDED_LIMIT,
            "excluded": self.excluded,
            "stats": {
                "boxes_processed": self.stats.boxes_processed,
                "max_depth_reached": self.stats.max_depth_reached,
                "grid_depth": self.stats.grid_depth,
                "levels": self.stats.levels,
                "evaluations": self.stats.evaluations,
                "proven_by": dict(self.stats.proven_by),
                "per_level": [list(level) for level in self.stats.per_level],
                "undecided_hull": self.stats.undecided_hull,
                "budget_exhausted": self.stats.budget_exhausted,
                "wall_time_s": self.stats.wall_time_s,
            },
        }
        if self.identity is not None:
            doc["proof"] = self.identity.to_report_dict(self.task.mu)
        elif self.task.delta == 0.0:
            corner = self.corner.T.tolist()
            doc["corner_box"] = corner[0] if corner else None
        if include_proven:
            doc["proven"] = self.proven.T.tolist()
        return doc


def _corner_note(spec: TargetSpec, delta: float) -> str:
    """What the report proves about the corner square [1-delta, 1]^2."""
    if delta == 0.0:
        order = {1: "first", 2: "second"}[min(spec.facts[_VERTEX_1_1.name])]
        return ("nothing excluded: the square is the equality point (1,1), "
                "where every target is 0; corner_box, the box holding it, is "
                f"proven >= 0 and = 0 only at (1,1) by a {order}-order Taylor "
                "form at (1,1); if corner_box is null, that box is undecided; "
                "no corner check runs")
    sampling = "corner_sampling is binary64 evidence, not part of the proof"
    if not spec.corner_factors:
        return "excluded and not proven; " + sampling
    if 1.0 - 2.0 * delta > 1.0 - _CORNER_ETA:
        return ("excluded and not proven: 2*delta < eta = 1e-6 leaves the "
                "isosceles band [1-2*delta, 1-eta] of corner_check empty; "
                + sampling)
    return ("excluded from the branch-and-bound; if corner_check reports "
            "both_positive, the two isosceles second factors are proven "
            "positive on [1-2*delta, 1-eta], eta = 1e-6; the sliver "
            "(1-eta, 1] and the interior of the square are not proven; "
            + sampling)


def _excluded_description(task: CertificationTask, by_identity: bool = False) -> dict:
    """What a certificate leaves out of W(mu, delta) and why.  A proof by
    identity covers all of W(mu), the corner square included."""
    doc = {
        "degeneracy_buffer": {
            "mu": task.mu,
            "constraints": f"x >= mu and x + y >= {1.0 + task.mu!r}, "
                           "the binary64 sum 1 + mu",
        },
    }
    if by_identity:
        return doc
    doc["corner_square"] = {
        "delta": task.delta,
        "x": [1.0 - task.delta, 1.0],
        "y": [1.0 - task.delta, 1.0],
        "note": _corner_note(TARGETS[task.target], task.delta),
    }
    return doc


def _undecided_hull(undecided) -> dict | None:
    """The bounding box of the undecided boxes, [xlo, xhi, ylo, yhi], and its
    max-norm distance to each vertex of `_VERTICES` (0 where it holds one)."""
    if undecided.shape[1] == 0:
        return None
    xlo, ylo = undecided[::2].min(axis=1).tolist()
    xhi, yhi = undecided[1::2].max(axis=1).tolist()
    return {
        "box": [xlo, xhi, ylo, yhi],
        "distance": {v.name: max(0.0, xlo - v.x, v.x - xhi, ylo - v.y, v.y - yhi)
                     for v in _VERTICES},
    }


def _bisect(boxes):
    """The two halves of each box, split across its wider side: all first
    halves, then all second halves."""
    xlo, xhi, ylo, yhi = boxes
    on_x = (xhi - xlo) >= (yhi - ylo)
    xm = 0.5 * (xlo + xhi)
    ym = 0.5 * (ylo + yhi)
    # each row: its bound on the first halves, then on the second halves
    rows = (xlo, np.where(on_x, xm, xlo),
            np.where(on_x, xm, xhi), xhi,
            ylo, np.where(on_x, ylo, ym),
            np.where(on_x, yhi, ym), yhi)
    return np.concatenate(rows).reshape(4, -1)


def _decide(target: Target, boxes):
    """The decision of a bounded level over a (4, n) array of clipped boxes.

    Returns a (len(_FORMS) + 1, n) boolean array: row i marks the boxes
    proven by form `_FORMS[i]`, and the last row the corner box.  The bound
    of :func:`_lower_bounds` goes first; then each vertex of `_VERTICES`
    tries, in order, the near boxes that the rows before it leave neither
    proven nor corner.  Every step is element-wise over the boxes, so a
    box's decision does not depend on the other boxes in the batch.
    """
    spec = TARGETS[target]
    width = _widths(boxes)
    rows = np.zeros((len(_FORMS) + 1, boxes.shape[1]), dtype=bool)
    # One error state for every `_IntervalOps` call of the decision: a
    # lane whose divisor or radicand reaches 0 gets an infinite or NaN
    # bound, which proves nothing.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows[0] = _lower_bounds(spec, *boxes) > 0.0
        for i, vertex in enumerate(_VERTICES, start=1):
            facts = spec.facts.get(vertex.name)
            if facts is None:
                continue
            near = ~rows.any(axis=0) & vertex.near(*boxes, width)
            if not near.any():
                continue
            near[near] = vertex.bounds(spec, facts, *boxes[:, near]) > 0.0
            holds = near & vertex.holds(*boxes)
            rows[i] = near & ~holds
            rows[-1] |= holds
    return rows


def _look_ahead(boxes, depth: int, room: int, task: CertificationTask) -> list:
    """The generations below a level that its `_decide` call takes along.

    Generation 1 is every child of the level's boxes, and generation g + 1
    every child of generation g, each bisected by :func:`_bisect`, clipped
    and without its empty children, as a pair (boxes, keep) of the (4, m)
    array and the mask that kept it from the bisected array.  Generations
    are added while they are not empty, lie at most at max_depth, and hold,
    with the level, at most `_LOOKAHEAD_BOXES` boxes and, without it, at
    most `room`.
    """
    generations = []
    room = min(room, _LOOKAHEAD_BOXES - boxes.shape[1])
    while room > 0 and depth + len(generations) < task.max_depth:
        children, keep = _clip_to_domain(_bisect(boxes), task.mu)
        boxes = children[:, keep]
        room -= boxes.shape[1]
        if room < 0 or boxes.shape[1] == 0:
            break
        generations.append((boxes, keep))
    return generations


def certify(task: CertificationTask) -> Certificate:
    """Certification of one target over W(mu, delta).

    A target with an identity gets the identity's certificate, with no box:
    it covers all of W(mu), the corner square included, so delta and the
    box limits do not enter.  Every other target gets
    :func:`_branch_and_bound`'s.
    """
    start = time.perf_counter()
    identity = TARGETS[task.target].identity
    if identity is None:
        return _branch_and_bound(task)
    none = np.empty((4, 0))
    stats = CertificateStats(wall_time_s=time.perf_counter() - start)
    return Certificate(task=task, proven=none, corner=none, undecided=none,
                       excluded=_excluded_description(task, by_identity=True),
                       stats=stats, identity=identity)


def _branch_and_bound(task: CertificationTask) -> Certificate:
    """Branch-and-bound certification of one target over W(mu, delta).

    The first levels are a grid: while the depth is below
    ``min(_GRID_DEPTH, max_depth)`` and every clipped box is wider than
    min_box_width, each box is bisected without being bounded.  From the
    first other level on, every level is bounded: boxes with a positive
    rigorous lower bound, or near an equality vertex with a positive vertex
    form, are proven; at delta = 0 the box holding (1, 1) becomes the
    corner box once :func:`_vertex_1_1_bounds` proves it; boxes at
    max_depth or below min_box_width are undecided.  Skipping a bound never
    proves a box, so the grid changes only which levels are bounded, and
    no box becomes undecided unbounded except when the budget runs out:
    before every level, grid or not, a level that would take the bounded
    boxes past box_budget is reported undecided as it stands.  Each level
    splits at most as many boxes as it holds, so the queue never holds
    more than twice the budget.

    A bounded level that has no decision yet is decided in one
    :func:`_decide` call together with the generations below it that
    :func:`_look_ahead` builds: each is every child of the one before,
    clipped, and they stop at `_LOOKAHEAD_BOXES` boxes, at max_depth and
    at box_budget.  Each following level is the children of the boxes the
    level before it splits, in `_bisect`'s order; it takes them, and
    their decision, from the next generation by its keep mask, so it is
    the array the sequential loop would build.  A level is counted in the
    stats only when it is resolved; generations are never counted.
    """
    start = time.perf_counter()
    boxes = np.array([[task.mu], [1.0 - task.delta], [task.mu], [1.0]])
    proven_parts, corner_parts, undecided_parts = [], [], []
    stats = CertificateStats()
    depth = 0

    def _finish(exhausted: bool) -> Certificate:
        undecided = _canonical(undecided_parts)
        stats.undecided_hull = _undecided_hull(undecided)
        stats.budget_exhausted = exhausted
        stats.wall_time_s = time.perf_counter() - start
        return Certificate(
            task=task,
            proven=_canonical(proven_parts),
            corner=_canonical(corner_parts),
            undecided=undecided,
            excluded=_excluded_description(task),
            stats=stats,
        )

    grid_end = min(_GRID_DEPTH, task.max_depth)
    # The rows of `_decide` for this level, when an earlier level made them;
    # the generations still below it with their rows; and which boxes of
    # its own generation the level holds (None when it is the whole).
    decision, below, held = None, [], None
    while boxes.shape[1] > 0:
        if decision is None:
            boxes, ok = _clip_to_domain(boxes, task.mu)
            if not ok.all():
                boxes = boxes[:, ok]
        n = boxes.shape[1]
        if n == 0:
            break
        if stats.boxes_processed + n > task.box_budget:
            undecided_parts.append(boxes)
            return _finish(exhausted=True)

        stats.max_depth_reached = depth
        width = _widths(boxes)
        if (stats.levels == 0 and depth < grid_end
                and (width > task.min_box_width).all()):
            stats.grid_depth += 1
            boxes = _bisect(boxes)
            depth += 1
            continue

        stats.boxes_processed += n
        stats.levels += 1
        if decision is None:
            generations = _look_ahead(boxes, depth, task.box_budget - stats.boxes_processed,
                                      task)
            batch = boxes
            if generations:
                batch = np.concatenate([boxes, *(g for g, _ in generations)], axis=1)
            stats.evaluations += 1
            rows = _decide(task.target, batch)
            ends = np.cumsum([n, *(g.shape[1] for g, _ in generations)])
            below = [(g, keep, rows[:, start:end]) for (g, keep), start, end
                     in zip(generations, ends, ends[1:])]
            decision, held = rows[:, :n], None
        for form, row in zip(_FORMS, decision):
            stats.proven_by[form] += int(row.sum())
        proven, corner = decision[:-1].any(axis=0), decision[-1]
        decided = proven | corner
        stuck = ~decided & ((width <= task.min_box_width) | (depth >= task.max_depth))
        split = ~decided & ~stuck

        stats.per_level.append([n, int(proven.sum()), int(stuck.sum()),
                                int(split.sum())])
        proven_parts.append(boxes[:, proven])
        corner_parts.append(boxes[:, corner])
        undecided_parts.append(boxes[:, stuck])
        if not split.any():
            break

        if not below:
            boxes = _bisect(boxes[:, split])
            decision = None
        else:
            # `_bisect`'s order: the first halves of the split boxes, then
            # their second halves, as the sequential loop would build them.
            # A level taken from a generation holds only some of its boxes,
            # so its split mask is first spread over the whole generation.
            if held is not None:
                held[held] = split
                split = held
            children, keep, rows = below.pop(0)
            held = np.concatenate([split, split])[keep]
            boxes, decision = children[:, held], rows[:, held]
        depth += 1

    return _finish(exhausted=False)


# ---------------------------------------------------------------------------
# Corner argument: 1-D certification of the isosceles factored forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorCertification:
    name: str
    domain_lo: float | None
    domain_hi: float | None
    certified: bool
    lower_bound: float
    boxes_processed: int


@dataclass(frozen=True)
class CornerCheckReport:
    """Why the excluded equality corner is benign on its isosceles edges.

    Both isosceles slack factorizations take the shape
    (nonnegative factor) * (second factor); the report certifies the second
    factors strictly positive on [1-2*delta, 1-eta].  Both vanish exactly
    at the equilateral endpoint, so the sliver (1-eta, 1] stays uncertified
    and so does the corner interior; the CLI's dense binary64 sampling of
    the interior is evidence, not proof.  When 2*delta < eta the band is
    empty: neither factor is certified and each reports the domain [].
    """

    delta: float
    eta: float
    equal_legs_factor: FactorCertification
    equal_base_factor: FactorCertification

    @property
    def both_positive(self) -> bool:
        return self.equal_legs_factor.certified and self.equal_base_factor.certified

    def to_report_dict(self) -> dict:
        def fac(f: FactorCertification) -> dict:
            return {
                "name": f.name,
                "domain": [] if f.domain_lo is None else [f.domain_lo, f.domain_hi],
                "certified": f.certified,
                "lower_bound": f.lower_bound,
                "boxes_processed": f.boxes_processed,
            }

        return {
            "delta": self.delta,
            "eta": self.eta,
            "both_positive": self.both_positive,
            "factors": [fac(self.equal_legs_factor), fac(self.equal_base_factor)],
            "sliver": [1.0 - self.eta, 1.0],
        }


def _bisect_positive(factor, lo: float, hi: float) -> tuple[bool, float, int]:
    """Prove factor > 0 on [lo, hi] by interval bisection, a level at a time.

    Returns (certified, certified lower bound, boxes processed).  Each level
    is one `_IntervalOps` evaluation of the factor over endpoint arrays.
    """
    a, b = np.array([lo]), np.array([hi])
    bound, processed = math.inf, 0
    while a.shape[0] > 0:
        processed += a.shape[0]
        if processed > _CORNER_BOX_CAP:
            return False, 0.0, processed
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            enc_lo = factor(_IntervalOps, (a, b))[0]
        proven = enc_lo > 0.0
        if proven.any():
            bound = min(bound, float(enc_lo[proven].min()))
        a, b = a[~proven], b[~proven]
        if (b - a <= _CORNER_MIN_WIDTH).any():
            return False, 0.0, processed
        m = 0.5 * (a + b)
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
    return True, bound, processed


def corner_argument_check(delta: float) -> CornerCheckReport:
    """Certify the two isosceles second factors positive on [1-2*delta, 1-eta],
    with eta = `_CORNER_ETA`.

    The equal-legs family needs x > 1/2 for its radical, so its interval is
    clamped there when delta is large; both factors vanish exactly at x = 1,
    hence the eta sliver.  A band that lies inside the sliver is empty and
    certifies nothing.
    """
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    eta = _CORNER_ETA
    hi = 1.0 - eta

    def factor(f, lo: float) -> FactorCertification:
        if lo > hi:
            return FactorCertification(f.__name__, None, None, False, 0.0, 0)
        return FactorCertification(f.__name__, lo, hi, *_bisect_positive(f, lo, hi))

    return CornerCheckReport(
        delta, eta,
        factor(equal_legs_second_factor, max(1.0 - 2.0 * delta, 0.5 + 1e-9)),
        factor(equal_base_second_factor, max(1.0 - 2.0 * delta, eta)),
    )
