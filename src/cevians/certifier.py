"""Rigorous certification of the normalized inequalities by branch and bound.

The working domain is W(mu, delta) = {mu <= x <= y <= 1, x + y >= 1 + mu}
minus the equality corner [1-delta, 1]^2 (inside the simplex x <= y the
corner removal is exactly the constraint x <= 1 - delta); the sum bound is
1 + mu rounded to binary64, which is 1 for mu <= 1.1e-16.  A box is proven
once a rigorous lower bound on the target over the box is positive;
otherwise it is bisected along its wider side.  The first levels, down to
depth `_GRID_DEPTH`, are bisected without a bound: bounds seldom prove
boxes that wide, and bounding a small level costs milliseconds whatever
its size.  Processing is level-synchronous and vectorized over NumPy
arrays of boxes, so the output is deterministic regardless of scheduling,
and the endpoint arithmetic is the same 1-ulp outward rounding used by
:mod:`cevians.intervals`.  A level of at most `_LOOKAHEAD_BOXES` boxes is
decided in one evaluation together with the children of all its boxes, and
the next level, the children of the boxes it splits, takes its decision
from there; every step of a decision is element-wise over the boxes, so
this changes no certificate, only how many evaluations a run makes.

Every target expression is written once against an abstract operation set
(the median targets are the :mod:`cevians.bulk` formulas at c = 1.0) and
instantiated three ways: plain float arrays (point evaluation),
interval endpoint arrays (the natural extension, which is
inclusion-isotone), and forward-mode interval derivatives of order 1 or 2
(:class:`_JetOps`, whose value, gradient and Hessian are the rows of one
pair of endpoint arrays).
The branch-and-bound additionally prunes with the mean-value form
f(m) + grad(X) * (X - m), which is what keeps box counts bounded away from
the points where a target is 0.

Three such points lie on the closure of the domain, the equality vertices
of `_VERTICES`: the equilateral point (1, 1), where every target is 0;
the flat triangle (0, 1), where main-median, quadratic-median,
scalene-lemma and key-system's r2 and r3 are; and the flat triangle
(1/2, 1/2), where key-system's r1 and r2 are.  No bound over a box can be
positive near a zero, so near them the bounds shrink only with the box
and the levels pile up.  A box that the bounds above leave unproven and
that lies within twice its width of a vertex is tried with a Taylor form
at the vertex (Moore, Kearfott and Cloud, *Introduction to Interval
Analysis*, SIAM 2009), evaluated over the box extended to the vertex and
built on exact facts of each part there: second order at (1, 1)
(:func:`_vertex_1_1_bounds`), first order at (0, 1) in x or in
s = sqrt(x) (:func:`_vertex_0_1_bounds`), and first order for the smooth
part of r1 at (1/2, 1/2), with its non-smooth part y*rc bounded below
(:func:`_vertex_half_bounds`).  A part that is not 0 at the vertex takes
its natural enclosure, and key-system's r2 takes the square identity.
The form proves the box positive, or, at delta = 0 for the one box that
holds (1, 1), >= 0 with equality only at (1, 1): that box is the corner
box.  The derivative forms are applied only where every radicand is
strictly positive over the whole box hull, so the expression is
differentiable on every segment the argument needs.
"""

from __future__ import annotations

import math
import time
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
# `certify` bisects without bounding down to this depth.  Bounded from
# depth 0, the first level to prove a box was at depth 2, 3 or 4 in 29 of
# 30 runs (5 targets x {defaults, mu = 1e-12 with delta = 1e-6 and 1e-7,
# delta = 0 at mu = 1e-6, 1e-12 and 1e-20}) and at depth 6 in the other.
# Over certify-suite's 15 runs, depth 5 bounds 1,392 boxes in 81 levels,
# against 1,569 in 156 from depth 0; depths 6 and 7 bound 1,660 and 2,470.
# With the look-ahead of `_LOOKAHEAD_BOXES`, depths 0, 3, 4, 5, 6 and 7
# make 81, 60, 51, 45, 39 and 36 evaluations and take 196, 142, 119, 106,
# 96 and 97 ms in process (medians of 7 passes of the 15 runs; 21 passes
# of depths 5, 6 and 7 gave 100, 80 and 81 ms).
_GRID_DEPTH = 5
# `certify` decides a bounded level of at most this many boxes together
# with the children of all its boxes.  One `_decide` call costs 2.7-5.5 ms
# on 32-512 boxes and about 3-4.5 us per box from 2,048 boxes on, so the
# at most 512 children of a level this size cost less than the call they
# save, even when every box of the level is proven and no child is used.
# Over certify-suite's 15 runs, whose levels hold at most 36 boxes, the
# look-ahead cuts 81 evaluations to 45 and 134 to 95 ms in process (medians
# of 21 passes).  On key-system at mu = 1e-20, delta = 0 and a budget of
# 300,000, whose levels grow to 88,266 boxes, gates of 0 (no look-ahead),
# 64, 256, 1,024 and 4,096 took 1.15, 1.16, 1.26, 1.30 and 1.25 s (medians
# of 11 passes on a shared host, minima 1.01-1.06 s for all five), and no
# gate 1.59 s: there the children of proven boxes are real work.
_LOOKAHEAD_BOXES = 256


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
# (x, y, 1) and its doubled medians ra, rb, rc = 2*m_a, 2*m_b, 2*m_c, with c
# the exact float constant 1.0.  Every target is a positive multiple of the
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
    hull and the derivative forms are admissible.  `square` holds a * a once
    `_JetOps.mul` has made it: quadratic-median squares the sides twice (in
    the doubled medians and in the slack) and was 14% slower without it.
    """

    __slots__ = ("d", "ok", "square")

    def __init__(self, d, ok):
        self.d = d
        self.ok = ok
        self.square = None


def _rows(a, k):
    """Rows `k` (an index, slice or list) of a pair of endpoint arrays."""
    return a[0][k], a[1][k]


def _set_rows(a, k, b):
    a[0][k] = b[0]
    a[1][k] = b[1]


def _stack(parts):
    """One pair of (m, n) arrays from pairs of (n,) or (r, n) arrays."""
    return tuple(np.vstack([p[e] for p in parts]) for e in (0, 1))


_GRAD = slice(1, 3)
_HESS = slice(3, 6)
# The Hessian rows (xx, xy, yy) pair the gradient rows (x, x, y) with
# (x, y, y); `_LEFT` and `_RIGHT` index those rows of a gradient pair.
_LEFT, _RIGHT = [0, 0, 1], [0, 1, 1]


class _JetOps:
    """Interval arithmetic with forward-mode derivative propagation.

    Each rule makes one `_IntervalOps` call per term, for all of its rows at
    once, and keeps the per-element operation order of the rule written
    one component at a time, so every row is the same bit for bit.  Row 0
    is the natural extension.  Only the derivative rows meet inf * 0 (a
    radicand that reaches 0 has an infinite derivative); those lanes have
    `ok` False and are never used, and :func:`_jet_parts` silences their
    warnings.  A float operand is an exact constant as in `_IntervalOps`,
    except that sub takes one only as its subtrahend: a +- k changes row 0.
    """

    @staticmethod
    def add(a, b):
        if isinstance(a, float):
            a, b = b, a
        if not isinstance(b, float):
            return _Jet(_IntervalOps.add(a.d, b.d), a.ok & b.ok)
        return a + b if isinstance(a, float) else _with_value(a, _IntervalOps.add, b)

    @staticmethod
    def sub(a, b):
        if isinstance(b, float):
            return a - b if isinstance(a, float) else _with_value(a, _IntervalOps.sub, b)
        return _Jet(_IntervalOps.sub(a.d, b.d), a.ok & b.ok)

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
        add, mul = _IntervalOps.add, _IntervalOps.mul
        v, w = _rows(a.d, 0), _rows(b.d, 0)
        d = mul(a.d, w)
        tail = slice(1, None)
        _set_rows(d, tail, add(_rows(d, tail), mul(v, _rows(b.d, tail))))
        if d[0].shape[0] > 3:
            g, k = _rows(a.d, _GRAD), _rows(b.d, _GRAD)
            cross = add(mul(_rows(g, _LEFT), _rows(k, _RIGHT)),
                        mul(_rows(g, _RIGHT), _rows(k, _LEFT)))
            _set_rows(d, _HESS, add(_rows(d, _HESS), cross))
        product = _Jet(d, a.ok & b.ok)
        if a is b:
            a.square = product
        return product

    @staticmethod
    def div(a, b):
        # q = a / b: from a = q*b, q_i = (a_i - q*b_i) / b and
        # q_ij = (((a_ij - q_i*b_j) - q_j*b_i) - q*b_ij) / b, with the two
        # middle terms one doubled term on the diagonal.
        sub, mul = _IntervalOps.sub, _IntervalOps.mul
        w = _rows(b.d, 0)
        denom = (np.maximum(w[0], 5e-324), w[1])
        q = _IntervalOps.div(_rows(a.d, 0), denom)
        g = _IntervalOps.div(sub(_rows(a.d, _GRAD), mul(q, _rows(b.d, _GRAD))), denom)
        parts = [q, g]
        if a.d[0].shape[0] > 3:
            k = _rows(b.d, _GRAD)
            t = mul(_rows(g, _LEFT), _rows(k, _RIGHT))
            _set_rows(t, slice(0, 3, 2), _IntervalOps.mul(_rows(t, slice(0, 3, 2)), 2.0))
            h = sub(_rows(a.d, _HESS), t)
            _set_rows(h, 1, sub(_rows(h, 1), mul(_rows(g, 1), _rows(k, 0))))
            parts.append(_IntervalOps.div(sub(h, mul(q, _rows(b.d, _HESS))), denom))
        return _Jet(_stack(parts), a.ok & b.ok & (w[0] > 0.0))

    @staticmethod
    def sqrt(a):
        # s = sqrt(a): s_i = a_i / (2s) and s_ij = (a_ij - 2*s_i*s_j) / (2s).
        v = _rows(a.d, 0)
        s = _IntervalOps.sqrt(v)
        denom = (np.maximum(2.0 * s[0], 5e-324), 2.0 * s[1])
        g = _IntervalOps.div(_rows(a.d, _GRAD), denom)
        parts = [s, g]
        if a.d[0].shape[0] > 3:
            t = _IntervalOps.mul(_IntervalOps.mul(_rows(g, _LEFT), _rows(g, _RIGHT)), 2.0)
            parts.append(_IntervalOps.div(_IntervalOps.sub(_rows(a.d, _HESS), t), denom))
        return _Jet(_stack(parts), a.ok & (v[0] > 0.0))


def _with_value(a, op, k):
    """`a` with `op(value, k)` in row 0 (op is add or sub, k a float)."""
    d = (a.d[0].copy(), a.d[1].copy())
    _set_rows(d, 0, op(_rows(d, 0), k))
    return _Jet(d, a.ok)


def _median_target(formula, parts=1):
    """A target of `parts` values: a :mod:`cevians.bulk` formula on the
    triangle (x, y, 1.0) and its doubled medians ra, rb, rc, with the roots
    (sqrt(y), sqrt(x), sqrt(xy)) where :func:`_jets` seeds them."""
    def target(ops, x, y, **roots):
        value = formula(ops, x, y, 1.0, *bulk.doubled_medians(ops, x, y, 1.0), **roots)
        return (value,) if parts == 1 else value
    return target


def _key_r1_smooth(ops, x, y):
    """rb - 2x*ra: key-system's r1 less its term y*rc, smooth at (1/2, 1/2)."""
    ra, rb, _ = bulk.doubled_medians(ops, x, y, 1.0)
    return (ops.sub(rb, ops.mul(ops.add(x, x), ra)),)


def _parts_altitude_reduced(ops, x, y):
    t = ops.add(ops.add(ops.mul(x, y), ops.div(x, y)), ops.div(y, x))
    return (ops.sub(t, ops.add(ops.add(x, y), 1.0)),)


_PARTS = {
    Target.MAIN_MEDIAN: _median_target(bulk.main_slack),
    Target.QUADRATIC_MEDIAN: _median_target(bulk.quadratic_slack),
    Target.KEY_SYSTEM: _median_target(bulk.key_residuals, parts=3),
    Target.ALTITUDE_REDUCED: _parts_altitude_reduced,
    Target.SCALENE_LEMMA: _median_target(bulk.scalene_lemma),
}


def point_values(target: Target, x, y):
    """Binary64 point evaluation of a target over arrays of domain points."""
    parts = _PARTS[target](
        _FloatOps, np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    )
    out = parts[0]
    for p in parts[1:]:
        out = np.minimum(out, p)
    return out


def _natural_parts(target: Target, xlo, xhi, ylo, yhi):
    return _PARTS[target](_IntervalOps, (xlo, xhi), (ylo, yhi))


def _jet_parts(target: Target, order: int, xlo, xhi, ylo, yhi, in_sqrt_x=False):
    """The target's parts as `_Jet` values of order 1 or 2 over the boxes.

    With `in_sqrt_x`, [xlo, xhi] bounds s = sqrt(x) instead of x, the
    derivatives are taken in (s, y), and the target (main-median or
    scalene-lemma) gets x = s*s and the roots (sqrt(y), s, s*sqrt(y)).
    """
    return _jets(_PARTS[target], order, xlo, xhi, ylo, yhi, in_sqrt_x)


def _jets(parts, order: int, xlo, xhi, ylo, yhi, in_sqrt_x=False):
    """`parts(_JetOps, x, y)` with x and y seeded over the boxes."""
    ok = np.ones(np.shape(xlo), dtype=bool)

    def seed(lo, hi, row):
        d = np.zeros((3 * order, lo.shape[0])), np.zeros((3 * order, lo.shape[0]))
        _set_rows(d, 0, (lo, hi))
        _set_rows(d, row, (1.0, 1.0))
        return _Jet(d, ok)

    x, y = seed(xlo, xhi, 1), seed(ylo, yhi, 2)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if in_sqrt_x:
            sy = _JetOps.sqrt(y)
            return parts(_JetOps, _JetOps.mul(x, x), y, roots=(sy, x, _JetOps.mul(x, sy)))
        return parts(_JetOps, x, y)


def key_system_identity_floors(mu: float) -> dict:
    """Domain floors certifying the second key residual nonnegative on W(mu).

    For valid triangles, (a*2m_c + c*2m_a)^2 - (2b*2m_b)^2 reduces, after
    the second squaring, to the identity

        4*T1*T2 - P^2 = 4*(a^2 + c^2 - 2b^2)^2 * (16*area^2),

    with T1 = (a*2m_c)^2, T2 = (c*2m_a)^2, P = 4*(b*2m_b)^2 - T1 - T2.
    Its right side is a square times Heron's 16*area^2, so the residual
    a*m_c + c*m_a - 2b*m_b is nonnegative wherever the triangle is valid,
    with equality exactly on 2b^2 = a^2 + c^2 (a curve that crosses the
    whole working domain, so no strict bound can hold there).  Over
    W(mu) = {mu <= x <= y <= 1, x + y >= 1 + mu} every Heron factor of the
    normalized triangle (x, y, 1) has the positive constant floor below,
    which is what makes the identity route rigorous on every box.
    """
    return {
        "x+y-1": math.nextafter((1.0 + mu) - 1.0, -_INF),
        "1+x-y": mu,
        "1+y-x": 1.0,
        "1+x+y": 2.0,
    }


def _key_identity_applies(mu: float) -> bool:
    return all(f > 0.0 for f in key_system_identity_floors(mu).values())


def _strict_parts(target: Target, mu: float, n: int) -> list[int]:
    """Indices of the parts a proof must bound; see :func:`_lower_bounds`."""
    if target is Target.KEY_SYSTEM and _key_identity_applies(mu):
        return [0, 2]
    return list(range(n))


def _lower_bounds(target: Target, xlo, xhi, ylo, yhi, mu: float):
    """Best rigorous per-box lower bound over the domain part of each box.

    The larger of the natural extension and the mean-value form
    F(m) + grad(X) * (X - m) about the box midpoint m.  The midpoint lies
    in the box, and the mean-value bound is used only on lanes whose `ok`
    flag says every radicand is strictly positive over the box hull, so
    F is differentiable on every segment from m, and F(m) is enclosed even
    where m itself lies outside the domain.

    For the key system, the second residual vanishes identically on the
    curve 2b^2 = a^2 + c^2, so it is certified nonnegative through the
    square identity (see :func:`key_system_identity_floors`) and the
    branch-and-bound bound below covers the two strict residuals only; a
    proven key-system box therefore means r1 > 0, r3 > 0 and r2 >= 0.
    """
    # The enclosures (row 0 of `jets[k].d`) are the natural extension: `_JetOps`
    # runs the same `_IntervalOps` calls on them, and its divisor floor
    # 5e-324 never binds, because the only divisors (altitude-reduced's x
    # and y) have lower bounds >= mu > 0 on clipped boxes.
    jets = _jet_parts(target, 1, xlo, xhi, ylo, yhi)
    strict = _strict_parts(target, mu, len(jets))

    mx = 0.5 * (xlo + xhi)
    my = 0.5 * (ylo + yhi)
    mid = _PARTS[target](_IntervalOps, (mx, mx), (my, my))
    dx = (_round_down(xlo - mx), _round_up(xhi - mx))
    dy = (_round_down(ylo - my), _round_up(yhi - my))

    best = None
    for k in strict:
        v, gx, gy = (_rows(jets[k].d, i) for i in range(3))
        term = _IntervalOps.add(_IntervalOps.mul(gx, dx), _IntervalOps.mul(gy, dy))
        with np.errstate(invalid="ignore"):
            centered = _round_down(mid[k][0] + term[0])
        usable = jets[k].ok & np.isfinite(centered)
        part_lo = np.where(usable, np.maximum(v[0], centered), v[0])
        best = part_lo if best is None else np.minimum(best, part_lo)
    return best


def _least_over_parts(target: Target, mu: float, facts: tuple, box, form):
    """The least per-part bound of a vertex form over the strict parts.

    `facts` holds one entry per part.  "natural" marks a part that is not 0
    at the vertex: its natural lower bound over the box stands in.  None
    marks a part that is 0 there with no form; it is admissible only when
    the part is not strict (key-system's r2, by the square identity), and
    a strict one gives -inf.  Any other entry names the part's Taylor form,
    whose bound `form(k)` returns.
    """
    best = natural = None
    for k in _strict_parts(target, mu, len(facts)):
        if facts[k] is None:
            least = np.full(np.shape(box[0]), -_INF)
        elif facts[k] == "natural":
            if natural is None:
                natural = _natural_parts(target, *box)
            least = natural[k][0]
        else:
            least = form(k)
        best = least if best is None else np.minimum(best, least)
    return best


def _vertex_1_1_bounds(target: Target, xlo, xhi, ylo, yhi, mu: float):
    """Taylor-form bound at (1, 1), over each box extended to [xlo,1] x [ylo,1].

    On the domain part of the extended box, d = p - (1, 1) has
    dx <= dy <= 0, so dy = r*dx with r in [0, 1], and dx < 0 unless
    p = (1, 1).  Taylor's theorem along the segment from (1, 1) to p, which
    stays in the extended box, and the exact facts of `_VERTEX_1_1` give

        order 2:  F(p) = dx^2/2 * (hxx + 2*hxy*r + hyy*r^2),
        order 1:  F(p) = -dx * (-gx - gy*r),

    with the derivatives taken at a point of the segment, hence inside the
    order-2 `_JetOps` enclosures over the extended box.  As 1, r and r^2
    are >= 0, putting the lower endpoint of each coefficient's enclosure in
    its place bounds each polynomial in r from below, and a polynomial on
    [0, 1] is at least its least Bernstein coefficient:
    (hxx, hxx + hxy, hxx + 2*hxy + hyy), or (-gx, -gx - gy).
    Returns the least coefficient over the strict parts; where it is
    positive, every strict part is >= 0 on the box and 0 only at (1, 1).
    Lanes where a radicand or divisor can reach 0 get -inf.
    """
    facts = _VERTEX_1_1.facts[target]
    one = np.ones_like(xhi)
    parts = _jet_parts(target, 2, xlo, one, ylo, one)

    def form(k):
        gx, gy, hxx, hxy, hyy = (_rows(parts[k].d, i) for i in range(1, 6))
        if facts[k] == 2:
            b1 = _IntervalOps.add(hxx, hxy)
            b2 = _IntervalOps.add(b1, _IntervalOps.add(hxy, hyy))
            least = np.minimum(np.minimum(hxx[0], b1[0]), b2[0])
        else:
            least = np.minimum(-gx[1], -_IntervalOps.add(gx, gy)[1])
        return np.where(parts[k].ok & np.isfinite(least), least, -_INF)

    return _least_over_parts(target, mu, facts, (xlo, xhi, ylo, yhi), form)


def _vertex_0_1_bounds(target: Target, xlo, xhi, ylo, yhi, mu: float):
    """First-order bound at (0, 1), over each box extended to [0,xhi] x [ylo,1].

    On the domain, x + y >= 1 and y <= 1, so y - 1 lies in [-x, 0].  For a
    part with F(0, 1) = 0 (`_VERTEX_0_1`), the mean-value theorem along the
    segment from (0, 1) to p, with the derivatives enclosed over the
    extended box, gives, in the variable the facts name:

        x:  F >= x * (gx - max(gy, 0)),
        s = sqrt(x), y - 1 in [-s^2, 0]:  F >= s * (gs - s_hi*max(gy, 0)),

    taking the lower endpoint of gx or gs and the upper one of gy.  Returns
    the least such coefficient, rounded down, and the natural lower bound
    of each strict part that is not 0 there (key-system's r1 = 2); where it
    is positive, every strict part is > 0 on the box, since x >= mu > 0
    there.  Main-median and scalene-lemma have sqrt(x), which is not
    differentiable at x = 0, so they are expanded in s over [0, sqrt(xhi)],
    where the target is a smooth function of (s, y).
    Lanes where a radicand or divisor can reach 0 get -inf.
    """
    facts = _VERTEX_0_1.facts[target]
    zero, one = np.zeros_like(xhi), np.ones_like(xhi)
    if "s" in facts:
        s_hi = _round_up(np.sqrt(xhi))
        parts = _jet_parts(target, 1, zero, s_hi, ylo, one, in_sqrt_x=True)
    else:
        s_hi = one
        parts = _jet_parts(target, 1, zero, xhi, ylo, one)

    def form(k):
        g, gy = _rows(parts[k].d, 1), _rows(parts[k].d, 2)
        with np.errstate(invalid="ignore"):
            least = _round_down(g[0] - _round_up(s_hi * np.maximum(gy[1], 0.0)))
        return np.where(parts[k].ok & np.isfinite(least), least, -_INF)

    return _least_over_parts(target, mu, facts, (xlo, xhi, ylo, yhi), form)


def _vertex_half_bounds(target: Target, xlo, xhi, ylo, yhi, mu: float):
    """Bound at (1/2, 1/2) for key-system's r1, over each box extended to it.

    At (1/2, 1/2), ra = rb = 3/2 and rc = 0, so rc is not differentiable
    there, but r1 = f + y*rc with f = rb - 2x*ra smooth and 0 there
    (`_VERTEX_HALF`).  In u = x + y - 1 and v = y - x, the domain has
    u >= fl(1 + mu) - 1 >= 0 and v >= 0, and rc^2 = 2u + u^2 + v^2.  The
    mean-value theorem for f along the segment from (1/2, 1/2) to p, with
    the gradient enclosed over the extended box, gives

        f = u*(gx + gy)/2 + v*(gy - gx)/2 >= A*u + lo(B*[vlo, vhi]),

    with A = lo((gx + gy)/2) and B = (gy - gx)/2, and y*rc >= ylo*sqrt(2u +
    vlo^2).  So r1 >= g(u) = A*u + lo(B*[vlo, vhi]) + ylo*sqrt(2u + vlo^2),
    which is concave in u: its least value over [ulo, uhi] is at an end.
    Returns the lesser end, each step rounded down, and the natural lower
    bound of r3 (3/2 at the vertex); where it is positive, r1 > 0 and
    r3 > 0 on the box.  Lanes where a radicand of f can reach 0 get -inf.
    """
    facts = _VERTEX_HALF.facts[target]
    add, sub, mul = _IntervalOps.add, _IntervalOps.sub, _IntervalOps.mul

    def form(k):
        (f,) = _jets(_key_r1_smooth, 1, np.minimum(xlo, 0.5), np.maximum(xhi, 0.5),
                     np.minimum(ylo, 0.5), np.maximum(yhi, 0.5))
        gx, gy = _rows(f.d, 1), _rows(f.d, 2)
        a = mul(add(gx, gy), 0.5)[0]
        vlo = np.maximum(_round_down(ylo - xhi), 0.0)
        bv = mul(mul(sub(gy, gx), 0.5), (vlo, _round_up(yhi - xlo)))[0]
        v2 = _round_down(vlo * vlo)
        ulo = np.maximum(_round_down(_round_down(xlo + ylo) - 1.0), (1.0 + mu) - 1.0)
        uhi = _round_up(_round_up(xhi + yhi) - 1.0)
        least = None
        with np.errstate(invalid="ignore"):
            for u in (ulo, uhi):
                root = _round_down(np.sqrt(_round_down(2.0 * u + v2)))
                g = _round_down(_round_down(_round_down(a * u) + bv) + _round_down(ylo * root))
                least = g if least is None else np.minimum(least, g)
        return np.where(f.ok & np.isfinite(least), least, -_INF)

    return _least_over_parts(target, mu, facts, (xlo, xhi, ylo, yhi), form)


class _Vertex:
    """An equality vertex (x, y) of the domain's closure, and the form that
    proves boxes near it.

    `facts` maps each target that has a part equal to 0 at the vertex to one
    entry per part: what that part's form relies on, "natural" for a part
    that is not 0 there, or None for a part with no form (see
    :func:`_least_over_parts`).  `bounds` returns, per box, a value that
    proves the box where it is positive.  `name` is its `stats.proven_by`
    key.
    """

    __slots__ = ("name", "x", "y", "facts", "bounds")

    def __init__(self, name: str, x: float, y: float, facts: dict, bounds):
        self.name, self.x, self.y, self.facts, self.bounds = name, x, y, facts, bounds

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
# bounded from depth `_GRID_DEPTH` with the look-ahead of
# `_LOOKAHEAD_BOXES`, reaches of 1, 2, 3, 4 and 8 took 743, 117, 117, 115
# and 115 levels in 378, 67, 67, 67 and 67 evaluations and 398, 146, 165,
# 190 and 197 ms (medians of 7 passes).  At 1 only boxes that touch the
# vertex qualify, which leaves the corner edge x = 1 - delta to bisection
# and 3 boxes undecided; above 2 the form is tried on more boxes, which
# costs more time and saves no evaluation.
_VERTEX_REACH = 2.0

_VERTEX_1_1 = _Vertex(
    "vertex_1_1", 1.0, 1.0,
    {
        Target.MAIN_MEDIAN: (2,),
        Target.QUADRATIC_MEDIAN: (2,),
        Target.KEY_SYSTEM: (2, 2, 2),
        Target.ALTITUDE_REDUCED: (2,),
        Target.SCALENE_LEMMA: (1,),
    },
    _vertex_1_1_bounds,
)
"""The equilateral point (1, 1), where every part of every target is 0.

Each entry is the order of the first nonzero term of the part's Taylor
expansion at (1, 1): 2 means value and gradient are exactly 0, 1 means
the value is exactly 0.  At (1, 1), ra = rb = rc = sqrt(3) and
sqrt(x) - 1 = sqrt(y) - 1 = sqrt(xy) - 1 = 0, and the radicals have
d ra = (-1, 2)/sqrt(3), d rb = (2, -1)/sqrt(3), d rc = (2, 2)/sqrt(3).
Swapping x and y swaps ra and rb, so main-median, quadratic-median,
altitude-reduced and key-system's r3 are symmetric and have F_y = F_x;
key-system's r1 and r2 swap into each other.

- main-median: every term has a zero factor, so F = 0, and
  F_x = -ra + rb/2 + rc/2 = 0.
- quadratic-median: F = 0 likewise, and F_x = -2*ra + rb + rc = 0.
- key-system: r1 = rb + rc - 2*ra = 0, r1_x = (2 + 2 + 2)/sqrt(3) - 2*ra = 0,
  r1_y = (-1 + 2 - 4)/sqrt(3) + rc = 0; r2 is r1 with x and y swapped;
  r3 = rb + ra - 2*rc = 0 and r3_x = rb + (2 - 1 - 4)/sqrt(3) = 0.
- altitude-reduced: F = 3 - 3 = 0 and F_x = y + 1/y - y/x^2 - 1 = 0.
- scalene-lemma: F = ra - rc = 0, but F_x = (-1 - 2)/sqrt(3) + rb/2 and
  F_y = (2 - 2)/sqrt(3) + ra/2 - rb are both -sqrt(3)/2.
"""

_VERTEX_0_1 = _Vertex(
    "vertex_0_1", 0.0, 1.0,
    {
        Target.MAIN_MEDIAN: ("s",),
        Target.QUADRATIC_MEDIAN: ("x",),
        Target.KEY_SYSTEM: ("natural", None, "x"),
        Target.SCALENE_LEMMA: ("s",),
    },
    _vertex_0_1_bounds,
)
"""The flat triangle (0, 1, 1).  Each 0 part's entry names its expansion
variable.

At (0, 1), ra = 2 and rb = rc = 1, and main-median, quadratic-median and
scalene-lemma are exactly 0: main-median is 2*(1 - 0) + 1*(0 - 1) +
1*(0 - 1), quadratic-median is 1*2 - 1*1 - 1*1, and scalene-lemma is
2*1 + 1*(0 - 1) - 1.  In s = sqrt(x) (x = s^2, so d/ds of any smooth
function of x is 0 at s = 0), the main-median has dF/ds = rb + rc*sqrt(y)
= 2 and the scalene-lemma dF/ds = rb = 1; quadratic-median, analytic in
x, has dF/dx = rb + y*rc = 2.  All three have dF/dy = 0: for main-median
1 + 1 + 1 - 1 - 2, with d ra/dy = 2y/ra = 1, d rb/dy = -y/rb = -1 and
d rc/dy = 2y/rc = 2.  Key-system is analytic in x there:
r1 = rb + y*rc - 2x*ra = 2, r2 = ra + x*rc - 2y*rb = 0 (covered by the
square identity), and r3 = x*rb + y*ra - 2*rc = 0 with
grad r3 = (rb + y*(d ra/dx) - 2*(d rc/dx), ra + y*(d ra/dy) - 2*(d rc/dy))
= (1 + 0 - 0, 2 + 1 - 4) = (1, -1), as d ra/dx = -x/ra and
d rc/dx = 2x/rc are 0.  Altitude-reduced grows like 1/x there and has no
entry.
"""

_VERTEX_HALF = _Vertex(
    "vertex_half_half", 0.5, 0.5,
    {Target.KEY_SYSTEM: ("split", None, "natural")},
    _vertex_half_bounds,
)
"""The flat triangle (1/2, 1/2, 1), a zero of key-system's r1 and r2.

It lies outside W, since x + y >= fl(1 + mu) > 1 wherever the square
identity applies, so no box holds it.  There ra^2 = rb^2 = 2 + 1/2 - 1/4,
so ra = rb = 3/2, and rc^2 = 1/2 + 1/2 - 1 = 0.  Then r1 = 3/2 - 3/2 = 0
and r2 = 0 (covered by the square identity), and r3 = 3/4 + 3/4 = 3/2.
r1 is "split" into f + y*rc: f = rb - 2x*ra has f = 0 and, with
d ra = (-x, 2y)/ra = (-1/3, 2/3) and d rb = (2x, -y)/rb = (2/3, -1/3),
grad f = (2/3 - 3 + 1/3, -1/3 - 2/3) = (-2, -1).
"""

_VERTICES = (_VERTEX_1_1, _VERTEX_0_1, _VERTEX_HALF)


def _clip_to_domain(xlo, xhi, ylo, yhi, mu: float):
    """Axis-aligned bounding box of box ∩ {mu<=x<=y<=1, x+y>=1+mu}.

    Each bound is the tightest binary64 value but one: the floor
    (1 + mu) - xhi on y is exact only for xhi >= (1 + mu)/2 (Sterbenz), so
    it is rounded down, lest part of W lie in no box; (1 + mu) - yhi is
    exact on every nonempty box.  Points outside the simplex may remain in
    the clipped box (its corners), which is sound for enclosures;
    emptiness is decided conservatively.
    """
    yhi = np.minimum(yhi, 1.0)
    ylo = np.maximum(ylo, 0.5 * (1.0 + mu))
    xlo = np.maximum(np.maximum(xlo, mu), (1.0 + mu) - yhi)
    xhi = np.minimum(xhi, yhi)
    ylo = np.maximum(np.maximum(ylo, xlo), _round_down((1.0 + mu) - xhi))
    nonempty = (xlo <= xhi) & (ylo <= yhi) & (xhi > 0.0)
    return xlo, xhi, ylo, yhi, nonempty


class BoxArray:
    """Compact columnar store for a set of axis-aligned boxes."""

    __slots__ = ("xlo", "xhi", "ylo", "yhi")

    def __init__(self, xlo, xhi, ylo, yhi):
        self.xlo = np.asarray(xlo, dtype=float)
        self.xhi = np.asarray(xhi, dtype=float)
        self.ylo = np.asarray(ylo, dtype=float)
        self.yhi = np.asarray(yhi, dtype=float)

    @classmethod
    def empty(cls) -> "BoxArray":
        z = np.empty(0)
        return cls(z, z, z, z)

    @classmethod
    def concatenate(cls, parts: list[tuple]) -> "BoxArray":
        if not parts:
            return cls.empty()
        return cls(*(np.concatenate([p[i] for p in parts]) for i in range(4)))

    def __len__(self) -> int:
        return self.xlo.shape[0]

    def sorted_canonically(self) -> "BoxArray":
        order = np.lexsort((self.yhi, self.xhi, self.ylo, self.xlo))
        return BoxArray(self.xlo[order], self.xhi[order],
                        self.ylo[order], self.yhi[order])

    def bounds_list(self, limit: int | None = None) -> list[list[float]]:
        n = len(self) if limit is None else min(len(self), limit)
        return [
            [float(self.xlo[i]), float(self.xhi[i]),
             float(self.ylo[i]), float(self.yhi[i])]
            for i in range(n)
        ]


# The forms that prove a box, in `stats.proven_by` order: the bound of
# :func:`_lower_bounds`, then each vertex form.
_FORMS = ("bound", *(v.name for v in _VERTICES))


def _proof_counts() -> dict:
    return dict.fromkeys(_FORMS, 0)


@dataclass
class CertificateStats:
    """Deterministic counters of a run, and its wall time.

    `grid_depth` counts the grid levels, bisected without a bound (see
    :func:`certify`), and `levels` the levels whose boxes were bounded;
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
    :func:`_decide`, each of which decides one bounded level, or one level
    and the next (see :func:`certify`), so it is at most `levels`.
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
    """Branch-and-bound outcome over the working domain.

    The proven boxes, the corner box and the undecided boxes, together with
    the reported excluded regions, cover the working domain; no two of them
    overlap except on their boundaries.  Every proven box has a positive
    lower bound (see :func:`_lower_bounds`) or a positive vertex form
    (see `_VERTICES`).  The corner box exists only at delta = 0: it is
    the box holding the equality point (1, 1), proven by
    :func:`_vertex_1_1_bounds` to carry a target >= 0 that is 0 only at
    (1, 1).
    """

    task: CertificationTask
    proven: BoxArray
    corner: BoxArray
    undecided: BoxArray
    excluded: dict
    stats: CertificateStats = field(default_factory=CertificateStats)

    @property
    def proven_count(self) -> int:
        return len(self.proven)

    @property
    def undecided_count(self) -> int:
        return len(self.undecided)

    def to_report_dict(self, include_proven: bool = False) -> dict:
        doc = {
            "target": self.task.target.value,
            "mu": self.task.mu,
            "delta": self.task.delta,
            "max_depth": self.task.max_depth,
            "min_box_width": self.task.min_box_width,
            "proven_count": self.proven_count,
            "undecided_count": self.undecided_count,
            "undecided": self.undecided.bounds_list(_UNDECIDED_LIMIT),
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
        if self.task.delta == 0.0:
            corner = self.corner.bounds_list()
            doc["corner_box"] = corner[0] if corner else None
        if include_proven:
            doc["proven"] = self.proven.bounds_list()
        return doc


def _corner_note(target: Target, delta: float) -> str:
    """What the report proves about the corner square [1-delta, 1]^2."""
    if delta == 0.0:
        order = "first" if target is Target.SCALENE_LEMMA else "second"
        return ("nothing excluded: the square is the equality point (1,1), "
                "where every target is 0; corner_box, the box holding it, is "
                f"proven >= 0 and = 0 only at (1,1) by a {order}-order Taylor "
                "form at (1,1); if corner_box is null, that box is undecided; "
                "no corner check runs")
    sampling = "corner_sampling is binary64 evidence, not part of the proof"
    if target is not Target.MAIN_MEDIAN:
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


def _excluded_description(task: CertificationTask) -> dict:
    doc = {
        "degeneracy_buffer": {
            "mu": task.mu,
            "constraints": f"x >= mu and x + y >= {1.0 + task.mu!r}, "
                           "the binary64 sum 1 + mu",
        },
        "corner_square": {
            "delta": task.delta,
            "x": [1.0 - task.delta, 1.0],
            "y": [1.0 - task.delta, 1.0],
            "note": _corner_note(task.target, task.delta),
        },
    }
    if task.target is Target.KEY_SYSTEM:
        doc["second_residual"] = {
            "equality_locus": "2*b^2 = a^2 + c^2",
            "certification": "nonnegative via the square identity "
                             "4*T1*T2 - P^2 = 4*(a^2+c^2-2*b^2)^2 * (16*area^2); "
                             "proven boxes certify r1 > 0, r3 > 0, r2 >= 0",
            "heron_floors": key_system_identity_floors(task.mu),
        }
    return doc


def _undecided_hull(undecided: BoxArray) -> dict | None:
    """The bounding box of the undecided boxes, [xlo, xhi, ylo, yhi], and its
    max-norm distance to each vertex of `_VERTICES` (0 where it holds one)."""
    if len(undecided) == 0:
        return None
    xlo, xhi = float(undecided.xlo.min()), float(undecided.xhi.max())
    ylo, yhi = float(undecided.ylo.min()), float(undecided.yhi.max())
    return {
        "box": [xlo, xhi, ylo, yhi],
        "distance": {v.name: max(0.0, xlo - v.x, v.x - xhi, ylo - v.y, v.y - yhi)
                     for v in _VERTICES},
    }


def _bisect(xlo, xhi, ylo, yhi):
    """The two halves of each box, split across its wider side: all first
    halves, then all second halves."""
    on_x = (xhi - xlo) >= (yhi - ylo)
    xm = 0.5 * (xlo + xhi)
    ym = 0.5 * (ylo + yhi)
    c1 = (xlo, np.where(on_x, xm, xhi), ylo, np.where(on_x, yhi, ym))
    c2 = (np.where(on_x, xm, xlo), xhi, np.where(on_x, ylo, ym), yhi)
    return tuple(np.concatenate([a, b]) for a, b in zip(c1, c2))


def _decide(target: Target, mu: float, xlo, xhi, ylo, yhi):
    """The decision of a bounded level over a batch of clipped boxes.

    Returns a (len(_FORMS) + 1, n) boolean array: row i marks the boxes
    proven by form `_FORMS[i]`, and the last row the corner box.  The bound
    of :func:`_lower_bounds` goes first; then each vertex of `_VERTICES`
    tries, in order, the near boxes that the rows before it leave neither
    proven nor corner.  Every step is element-wise over the boxes, so a
    box's decision does not depend on the other boxes in the batch.
    """
    width = np.maximum(xhi - xlo, yhi - ylo)
    rows = np.zeros((len(_FORMS) + 1, xlo.shape[0]), dtype=bool)
    rows[0] = _lower_bounds(target, xlo, xhi, ylo, yhi, mu) > 0.0
    for i, vertex in enumerate(_VERTICES, start=1):
        if target not in vertex.facts:
            continue
        near = ~rows.any(axis=0) & vertex.near(xlo, xhi, ylo, yhi, width)
        if not near.any():
            continue
        near[near] = vertex.bounds(target, xlo[near], xhi[near],
                                   ylo[near], yhi[near], mu) > 0.0
        holds = near & vertex.holds(xlo, xhi, ylo, yhi)
        rows[i] = near & ~holds
        rows[-1] |= holds
    return rows


def certify(task: CertificationTask) -> Certificate:
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

    A bounded level that has no decision yet, holds at most
    `_LOOKAHEAD_BOXES` boxes and lies above max_depth bisects all of its
    boxes, clips the children, and, when they would not take the bounded
    boxes past box_budget, decides itself and them in one :func:`_decide`
    call.  The next level, the children of the boxes it splits in
    `_bisect`'s order, is then the array the sequential loop would build,
    and it takes its decision from that call.  A level is counted in the
    stats only when it is resolved; children are never counted.
    """
    start = time.perf_counter()
    xlo = np.array([task.mu])
    xhi = np.array([1.0 - task.delta])
    ylo = np.array([task.mu])
    yhi = np.array([1.0])

    proven_parts: list[tuple] = []
    undecided_parts: list[tuple] = []
    corner_parts: list[tuple] = []
    stats = CertificateStats()
    depth = 0

    def _finish(exhausted: bool) -> Certificate:
        undecided = BoxArray.concatenate(undecided_parts).sorted_canonically()
        stats.undecided_hull = _undecided_hull(undecided)
        stats.budget_exhausted = exhausted
        stats.wall_time_s = time.perf_counter() - start
        return Certificate(
            task=task,
            proven=BoxArray.concatenate(proven_parts).sorted_canonically(),
            corner=BoxArray.concatenate(corner_parts),
            undecided=undecided,
            excluded=_excluded_description(task),
            stats=stats,
        )

    grid_end = min(_GRID_DEPTH, task.max_depth)
    # The rows of `_decide` for this level, when the level before made them.
    decision = None
    while xlo.shape[0] > 0:
        if decision is None:
            xlo, xhi, ylo, yhi, ok = _clip_to_domain(xlo, xhi, ylo, yhi, task.mu)
            if not ok.all():
                xlo, xhi, ylo, yhi = xlo[ok], xhi[ok], ylo[ok], yhi[ok]
        n = xlo.shape[0]
        if n == 0:
            break
        if stats.boxes_processed + n > task.box_budget:
            undecided_parts.append((xlo, xhi, ylo, yhi))
            return _finish(exhausted=True)

        stats.max_depth_reached = depth
        width = np.maximum(xhi - xlo, yhi - ylo)
        if (stats.levels == 0 and depth < grid_end
                and (width > task.min_box_width).all()):
            stats.grid_depth += 1
            xlo, xhi, ylo, yhi = _bisect(xlo, xhi, ylo, yhi)
            depth += 1
            continue

        stats.boxes_processed += n
        stats.levels += 1
        ahead = None
        if decision is None:
            boxes = (xlo, xhi, ylo, yhi)
            if depth < task.max_depth and n <= _LOOKAHEAD_BOXES:
                *children, keep = _clip_to_domain(*_bisect(*boxes), task.mu)
                if stats.boxes_processed + int(keep.sum()) <= task.box_budget:
                    ahead = [c[keep] for c in children]
                    boxes = tuple(map(np.concatenate, zip(boxes, ahead)))
            stats.evaluations += 1
            decision = _decide(task.target, task.mu, *boxes)
        rows = decision[:, :n]
        for form, row in zip(_FORMS, rows):
            stats.proven_by[form] += int(row.sum())
        proven, corner = rows[:-1].any(axis=0), rows[-1]
        if corner.any():
            corner_parts.append((xlo[corner], xhi[corner],
                                 ylo[corner], yhi[corner]))
        decided = proven | corner
        stuck = ~decided & ((width <= task.min_box_width) | (depth >= task.max_depth))
        split = ~decided & ~stuck

        stats.per_level.append([n, int(proven.sum()), int(stuck.sum()),
                                int(split.sum())])
        if proven.any():
            proven_parts.append((xlo[proven], xhi[proven],
                                 ylo[proven], yhi[proven]))
        if stuck.any():
            undecided_parts.append((xlo[stuck], xhi[stuck],
                                    ylo[stuck], yhi[stuck]))
        if not split.any():
            break

        if ahead is None:
            xlo, xhi, ylo, yhi = _bisect(xlo[split], xhi[split], ylo[split], yhi[split])
            decision = None
        else:
            # `_bisect`'s order: the first halves of the split boxes, then
            # their second halves, as the sequential loop would build them.
            pick = np.concatenate([split, split])[keep]
            xlo, xhi, ylo, yhi = (c[pick] for c in ahead)
            decision = decision[:, n:][:, pick]
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


def corner_argument_check(delta: float, eta: float = _CORNER_ETA) -> CornerCheckReport:
    """Certify the two isosceles second factors positive on [1-2*delta, 1-eta].

    The equal-legs family needs x > 1/2 for its radical, so its interval is
    clamped there when delta is large; both factors vanish exactly at x = 1,
    hence the eta sliver.  A band that lies inside the sliver is empty and
    certifies nothing.
    """
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
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
