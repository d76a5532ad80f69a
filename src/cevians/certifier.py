"""Rigorous certification of the normalized inequalities by branch and bound.

The working domain is W(mu, delta) = {mu <= x <= y <= 1, x + y >= 1 + mu}
minus the equality corner [1-delta, 1]^2 (inside the simplex x <= y the
corner removal is exactly the constraint x <= 1 - delta).  A box is proven
once a rigorous lower bound on the target over the box is positive;
otherwise it is bisected along its wider side.  Processing is
level-synchronous and vectorized over NumPy arrays of boxes, so the output
is deterministic regardless of scheduling, and the endpoint arithmetic is
the same 1-ulp outward rounding used by :mod:`cevians.intervals`.

Every target expression is written once against an abstract operation set
and instantiated three ways: plain float arrays (point evaluation),
interval endpoint arrays (the natural extension, which is what
:func:`eval_target_interval` exposes; it is inclusion-isotone), and
forward-mode interval derivatives of order 1 or 2 (:class:`_JetOps`).  The
branch-and-bound additionally prunes with the mean-value form
f(m) + grad(X) * (X - m), which is what keeps box counts bounded near the
equality corner where the natural extension would need quadratically small
boxes.  At delta = 0 no box holding the equality point (1, 1) can have a
positive bound, since every target is 0 there; that one box per level is
instead tried with a Taylor form at (1, 1) (:func:`_corner_bounds`).  The
derivative forms are applied only where every radicand is strictly
positive over the whole box hull, so the expression is differentiable on
every segment the argument needs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import BudgetExceededError, EmptyIntersectionError
from .intervals import (
    Box2,
    Interval,
    _FloatOps,
    _IntervalOps,
    _round_down,
    _round_up,
)

_INF = np.inf
# Width of the sliver (1-eta, 1] next to the equilateral point that the
# corner factor certification leaves out: both factors vanish at x = 1.
_CORNER_ETA = 1e-6
# The corner factor bisection gives up at this box width or box count.
_CORNER_MIN_WIDTH = 1e-12
_CORNER_BOX_CAP = 500_000


class Target(Enum):
    """Certification targets over the normalized domain (all with c = 1)."""

    MAIN_MEDIAN = "main-median"
    QUADRATIC_MEDIAN = "quadratic-median"
    KEY_SYSTEM = "key-system"
    ALTITUDE_REDUCED = "altitude-reduced"
    SCALENE_LEMMA = "scalene-lemma"


@dataclass(frozen=True)
class CertificationTask:
    target: Target
    mu: float = 1e-6
    delta: float = 1e-3
    max_depth: int = 60
    min_box_width: float = 1e-9
    box_budget: int = 2_000_000
    queue_cap: int = 20_000_000

    def __post_init__(self):
        if not (0.0 < self.mu < 0.25):
            raise ValueError(f"mu must lie in (0, 1/4), got {self.mu}")
        if not (0.0 <= self.delta < 0.5):
            raise ValueError(f"delta must lie in [0, 1/2), got {self.delta}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not (self.min_box_width > 0.0):
            raise ValueError("min_box_width must be positive")
        if self.box_budget < 1 or self.queue_cap < 1:
            raise ValueError("budgets must be positive")


# ---------------------------------------------------------------------------
# Target expressions, written once over an operation set (`_FloatOps` and
# `_IntervalOps` from :mod:`cevians.intervals`, or `_JetOps` below).  `ra`,
# `rb`, `rc` are the doubled medians 2*m_a, 2*m_b, 2*m_c of the normalized
# triangle (x, y, 1); every target is a positive multiple of the inequality
# slack it certifies, so only the sign matters.  Multi-part targets (the
# key system) certify the minimum of their parts.
# ---------------------------------------------------------------------------


class _Jet:
    """Forward-mode interval value of order 1 or 2.

    `d` holds `_IntervalOps` pairs: the enclosure and the gradient (gx, gy),
    then at order 2 the Hessian (hxx, hxy, hyy).  `ok` marks lanes where
    every radicand and divisor so far is strictly positive over the whole
    box hull, i.e. where the expression is differentiable on the hull and
    the derivative forms are admissible.
    """

    __slots__ = ("d", "ok")

    def __init__(self, d, ok):
        self.d = d
        self.ok = ok


def _twice(a):
    return _IntervalOps.mul_const(a, 2.0)


class _JetOps:
    """Interval arithmetic with forward-mode derivative propagation.

    Each rule computes the enclosure and gradient, and the Hessian terms
    only when the operands carry them.  The enclosure is the natural
    extension, computed outside `np.errstate`: only the derivative terms
    meet inf * 0 (a radicand that reaches 0 has an infinite derivative),
    and those lanes have `ok` False and are never used.
    """

    @staticmethod
    def add(a, b):
        return _Jet(tuple(map(_IntervalOps.add, a.d, b.d)), a.ok & b.ok)

    @staticmethod
    def sub(a, b):
        return _Jet(tuple(map(_IntervalOps.sub, a.d, b.d)), a.ok & b.ok)

    @staticmethod
    def mul(a, b):
        add, mul = _IntervalOps.add, _IntervalOps.mul
        v, gx, gy = a.d[:3]
        w, kx, ky = b.d[:3]
        d = (mul(v, w),)
        with np.errstate(invalid="ignore", over="ignore"):
            d += (add(mul(gx, w), mul(v, kx)), add(mul(gy, w), mul(v, ky)))
            if len(a.d) > 3:
                hxx, hxy, hyy = a.d[3:]
                kxx, kxy, kyy = b.d[3:]
                d += (
                    add(add(mul(hxx, w), mul(v, kxx)), _twice(mul(gx, kx))),
                    add(add(mul(hxy, w), mul(v, kxy)), add(mul(gx, ky), mul(gy, kx))),
                    add(add(mul(hyy, w), mul(v, kyy)), _twice(mul(gy, ky))),
                )
        return _Jet(d, a.ok & b.ok)

    @staticmethod
    def div(a, b):
        # q = a / b: from a = q*b, q_i = (a_i - q*b_i) / b and
        # q_ij = (a_ij - q_i*b_j - q_j*b_i - q*b_ij) / b.
        sub, mul = _IntervalOps.sub, _IntervalOps.mul
        w, kx, ky = b.d[:3]
        denom = (np.maximum(w[0], 5e-324), w[1])
        q = _IntervalOps.div(a.d[0], denom)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):

            def over(num, t):
                return _IntervalOps.div(sub(num, t), denom)

            qx = over(a.d[1], mul(q, kx))
            qy = over(a.d[2], mul(q, ky))
            d = (q, qx, qy)
            if len(a.d) > 3:
                kxx, kxy, kyy = b.d[3:]
                d += (
                    over(sub(a.d[3], _twice(mul(qx, kx))), mul(q, kxx)),
                    over(sub(sub(a.d[4], mul(qx, ky)), mul(qy, kx)), mul(q, kxy)),
                    over(sub(a.d[5], _twice(mul(qy, ky))), mul(q, kyy)),
                )
        return _Jet(d, a.ok & b.ok & (w[0] > 0.0))

    @staticmethod
    def sqrt(a):
        # s = sqrt(a): s_i = a_i / (2s) and s_ij = (a_ij - 2*s_i*s_j) / (2s).
        sub, mul = _IntervalOps.sub, _IntervalOps.mul
        v, gx, gy = a.d[:3]
        s = _IntervalOps.sqrt(v)
        denom = (np.maximum(2.0 * s[0], 5e-324), 2.0 * s[1])
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):

            def over(num):
                return _IntervalOps.div(num, denom)

            sx, sy = over(gx), over(gy)
            d = (s, sx, sy)
            if len(a.d) > 3:
                hxx, hxy, hyy = a.d[3:]
                d += (
                    over(sub(hxx, _twice(mul(sx, sx)))),
                    over(sub(hxy, _twice(mul(sx, sy)))),
                    over(sub(hyy, _twice(mul(sy, sy)))),
                )
        return _Jet(d, a.ok & (v[0] > 0.0))

    @staticmethod
    def add_const(a, k):
        return _Jet((_IntervalOps.add_const(a.d[0], k),) + a.d[1:], a.ok)

    @staticmethod
    def sub_const(a, k):
        return _Jet((_IntervalOps.sub_const(a.d[0], k),) + a.d[1:], a.ok)


def _doubled_medians(ops, x, y):
    x2 = ops.mul(x, x)
    y2 = ops.mul(y, y)
    ra = ops.sqrt(ops.sub(ops.add_const(ops.add(y2, y2), 2.0), x2))
    rb = ops.sqrt(ops.sub(ops.add_const(ops.add(x2, x2), 2.0), y2))
    rc = ops.sqrt(ops.sub_const(ops.add(ops.add(x2, x2), ops.add(y2, y2)), 1.0))
    return x2, y2, ra, rb, rc


def _parts_main(ops, x, y):
    _, _, ra, rb, rc = _doubled_medians(ops, x, y)
    t1 = ops.mul(ra, ops.sub(ops.sqrt(y), x))
    t2 = ops.mul(rb, ops.sub(ops.sqrt(x), y))
    t3 = ops.mul(rc, ops.sub_const(ops.sqrt(ops.mul(x, y)), 1.0))
    return (ops.add(ops.add(t1, t2), t3),)


def _parts_quadratic(ops, x, y):
    x2, y2, ra, rb, rc = _doubled_medians(ops, x, y)
    t1 = ops.mul(ops.sub(y, x2), ra)
    t2 = ops.mul(ops.sub(x, y2), rb)
    t3 = ops.mul(ops.sub_const(ops.mul(x, y), 1.0), rc)
    return (ops.add(ops.add(t1, t2), t3),)


def _parts_key_system(ops, x, y):
    _, _, ra, rb, rc = _doubled_medians(ops, x, y)
    r1 = ops.sub(ops.add(rb, ops.mul(y, rc)), ops.mul(ops.add(x, x), ra))
    r2 = ops.sub(ops.add(ra, ops.mul(x, rc)), ops.mul(ops.add(y, y), rb))
    r3 = ops.sub(ops.add(ops.mul(x, rb), ops.mul(y, ra)), ops.add(rc, rc))
    return (r1, r2, r3)


def _parts_altitude_reduced(ops, x, y):
    t = ops.add(ops.add(ops.mul(x, y), ops.div(x, y)), ops.div(y, x))
    return (ops.sub(t, ops.add_const(ops.add(x, y), 1.0)),)


def _parts_scalene_lemma(ops, x, y):
    _, _, ra, rb, rc = _doubled_medians(ops, x, y)
    t = ops.add(ops.mul(ra, ops.sqrt(y)), ops.mul(rb, ops.sub(ops.sqrt(x), y)))
    return (ops.sub(t, rc),)


_PARTS = {
    Target.MAIN_MEDIAN: _parts_main,
    Target.QUADRATIC_MEDIAN: _parts_quadratic,
    Target.KEY_SYSTEM: _parts_key_system,
    Target.ALTITUDE_REDUCED: _parts_altitude_reduced,
    Target.SCALENE_LEMMA: _parts_scalene_lemma,
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


def _natural_enclosure(target: Target, xlo, xhi, ylo, yhi):
    parts = _natural_parts(target, xlo, xhi, ylo, yhi)
    lo = parts[0][0]
    hi = parts[0][1]
    for p in parts[1:]:
        lo = np.minimum(lo, p[0])
        hi = np.minimum(hi, p[1])
    return lo, hi


def _jet_parts(target: Target, order: int, xlo, xhi, ylo, yhi):
    """The target's parts as `_Jet` values of order 1 or 2 over the boxes."""
    ok = np.ones(np.shape(xlo), dtype=bool)
    zero, one = (0.0, 0.0), (1.0, 1.0)
    hessian = (zero, zero, zero) if order == 2 else ()
    x = _Jet(((xlo, xhi), one, zero) + hessian, ok)
    y = _Jet(((ylo, yhi), zero, one) + hessian, ok)
    return _PARTS[target](_JetOps, x, y)


def _anchor_in_domain(xlo, xhi, ylo, yhi, mu: float):
    """Box midpoint projected into {x + y >= 1 + mu, x <= y} within the box.

    The projection stays inside the box, so mean-value expansions around it
    remain valid over the box hull; clipped boxes always satisfy
    xhi + yhi >= 1 + mu and ylo >= xlo, which makes the projection exact.
    """
    ax = 0.5 * (xlo + xhi)
    ay = 0.5 * (ylo + yhi)
    need = np.maximum(0.0, (1.0 + mu) - (ax + ay))
    add_y = np.minimum(yhi - ay, need)
    ax = np.minimum(ax + (need - add_y), xhi)
    ay = ay + add_y
    mid = 0.5 * (ax + ay)
    swap = ax > ay
    ax = np.where(swap, mid, ax)
    ay = np.where(swap, mid, ay)
    return ax, ay


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

    Combines the natural extension with two mean-value forms anchored at a
    domain-feasible point: one over per-axis displacements, and one over
    the rotated displacements (dx + dy, dx - dy) whose ranges are
    intersected with the domain constraints x + y >= 1 + mu and x <= y.
    The rotated form is what resolves boxes hugging the degeneracy edge,
    where the whole box hull spills below the constraint and every
    hull-wide bound is inevitably negative.  Mean-value bounds are used
    only on lanes whose `ok` flag says every radicand is strictly positive
    over the box hull (differentiability on every segment).

    For the key system, the second residual vanishes identically on the
    curve 2b^2 = a^2 + c^2, so it is certified nonnegative through the
    square identity (see :func:`key_system_identity_floors`) and the
    branch-and-bound bound below covers the two strict residuals only; a
    proven key-system box therefore means r1 > 0, r3 > 0 and r2 >= 0.
    """
    # The enclosures `jets[k].d[0]` are the natural extension: `_JetOps`
    # runs the same `_IntervalOps` calls on them, and its divisor floor
    # 5e-324 never binds, because the only divisors (altitude-reduced's x
    # and y) have lower bounds >= mu > 0 on clipped boxes.
    jets = _jet_parts(target, 1, xlo, xhi, ylo, yhi)
    strict = _strict_parts(target, mu, len(jets))

    ax, ay = _anchor_in_domain(xlo, xhi, ylo, yhi, mu)
    anchor = _PARTS[target](_IntervalOps, (ax, ax), (ay, ay))

    # Per-axis displacement ranges around the anchor.
    dx_rng = (_round_down(xlo - ax), _round_up(xhi - ax))
    dy_rng = (_round_down(ylo - ay), _round_up(yhi - ay))

    # Rotated displacements: ds = dx + dy floored by the degeneracy
    # constraint, dv = dx - dy capped by the ordering constraint.
    axy_up = _round_up(ax + ay)
    axy_dn = _round_down(ax + ay)
    ds_lo = np.maximum(
        _round_down(_round_down(1.0 + mu) - axy_up),
        _round_down(_round_down(xlo + ylo) - axy_up),
    )
    ds_hi = _round_up(_round_up(xhi + yhi) - axy_dn)
    avv_up = _round_up(ax - ay)
    avv_dn = _round_down(ax - ay)
    dv_lo = _round_down(_round_down(xlo - yhi) - avv_up)
    dv_hi = np.minimum(_round_up(_round_up(xhi - ylo) - avv_dn), _round_up(ay - ax))
    dv_hi = np.maximum(dv_hi, dv_lo)
    ds_rng = (ds_lo, ds_hi)
    dv_rng = (dv_lo, dv_hi)

    best = None
    for k in strict:
        (v, gx, gy), anc = jets[k].d, anchor[k]
        axis_term = _IntervalOps.add(
            _IntervalOps.mul(gx, dx_rng), _IntervalOps.mul(gy, dy_rng)
        )
        gs = _IntervalOps.mul_const(_IntervalOps.add(gx, gy), 0.5)
        gv = _IntervalOps.mul_const(_IntervalOps.sub(gx, gy), 0.5)
        rot_term = _IntervalOps.add(
            _IntervalOps.mul(gs, ds_rng), _IntervalOps.mul(gv, dv_rng)
        )
        with np.errstate(invalid="ignore"):
            centered = np.maximum(
                _round_down(anc[0] + axis_term[0]), _round_down(anc[0] + rot_term[0])
            )
        usable = jets[k].ok & np.isfinite(centered)
        part_lo = np.where(usable, np.maximum(v[0], centered), v[0])
        best = part_lo if best is None else np.minimum(best, part_lo)
    return best


_EQUILATERAL_ORDER = {
    Target.MAIN_MEDIAN: (2,),
    Target.QUADRATIC_MEDIAN: (2,),
    Target.KEY_SYSTEM: (2, 2, 2),
    Target.ALTITUDE_REDUCED: (2,),
    Target.SCALENE_LEMMA: (1,),
}
"""Exact facts at the equilateral point (1, 1), one entry per target part.

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


def _corner_bounds(target: Target, xlo, xhi, ylo, yhi, mu: float):
    """Taylor-form bound at (1, 1) for boxes that hold the equilateral point.

    On the domain part of such a box, d = p - (1, 1) has dx <= dy <= 0, so
    dy = r*dx with r in [0, 1], and dx < 0 unless p = (1, 1).  Taylor's
    theorem along the segment from (1, 1) to p, which stays in the box, and
    the exact facts of `_EQUILATERAL_ORDER` give

        order 2:  F(p) = dx^2/2 * (hxx + 2*hxy*r + hyy*r^2),
        order 1:  F(p) = -dx * (-gx - gy*r),

    with the derivatives taken at a point of the segment, hence inside the
    order-2 `_JetOps` enclosures over the box.  As 1, r and r^2 are >= 0,
    putting the lower endpoint of each coefficient's enclosure in its place
    bounds each polynomial in r from below, and a polynomial on [0, 1] is at
    least its least Bernstein coefficient:
    (hxx, hxx + hxy, hxx + 2*hxy + hyy), or (-gx, -gx - gy).
    Returns the least coefficient over the strict parts; where it is
    positive, every strict part is >= 0 on the box and 0 only at (1, 1).
    Lanes where a radicand or divisor can reach 0 get -inf.
    """
    parts = _jet_parts(target, 2, xlo, xhi, ylo, yhi)
    best = None
    for k in _strict_parts(target, mu, len(parts)):
        _, gx, gy, hxx, hxy, hyy = parts[k].d
        if _EQUILATERAL_ORDER[target][k] == 2:
            b1 = _IntervalOps.add(hxx, hxy)
            b2 = _IntervalOps.add(b1, _IntervalOps.add(hxy, hyy))
            least = np.minimum(np.minimum(hxx[0], b1[0]), b2[0])
        else:
            least = np.minimum(-gx[1], -_IntervalOps.add(gx, gy)[1])
        least = np.where(parts[k].ok & np.isfinite(least), least, -_INF)
        best = least if best is None else np.minimum(best, least)
    return best


def _clip_to_domain(xlo, xhi, ylo, yhi, mu: float):
    """Tightest axis-aligned bounding box of box ∩ {mu<=x<=y<=1, x+y>=1+mu}.

    Points outside the simplex may remain in the clipped box (its corners),
    which is sound for enclosures; emptiness is decided conservatively.
    """
    yhi = np.minimum(yhi, 1.0)
    ylo = np.maximum(ylo, 0.5 * (1.0 + mu))
    xlo = np.maximum(np.maximum(xlo, mu), (1.0 + mu) - yhi)
    xhi = np.minimum(xhi, yhi)
    ylo = np.maximum(np.maximum(ylo, xlo), (1.0 + mu) - xhi)
    nonempty = (xlo <= xhi) & (ylo <= yhi) & (xhi > 0.0)
    return xlo, xhi, ylo, yhi, nonempty


def eval_target_interval(target: Target, box: Box2, mu: float = 0.0) -> Interval:
    """Natural interval enclosure of a target over the domain part of a box.

    This is the inclusion-isotone extension: nested boxes produce nested
    enclosures.  Raises EmptyIntersectionError when the box misses the
    working domain.
    """
    xlo, xhi, ylo, yhi, ok = _clip_to_domain(
        np.array([box.x.lo]), np.array([box.x.hi]),
        np.array([box.y.lo]), np.array([box.y.hi]), mu,
    )
    if not bool(ok[0]):
        raise EmptyIntersectionError(f"box {box} misses the working domain")
    flo, fhi = _natural_enclosure(target, xlo, xhi, ylo, yhi)
    return Interval(float(flo[0]), float(fhi[0]))


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

    def box(self, i: int) -> Box2:
        return Box2.from_bounds(self.xlo[i], self.xhi[i], self.ylo[i], self.yhi[i])

    def __iter__(self):
        return (self.box(i) for i in range(len(self)))

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


@dataclass
class CertificateStats:
    boxes_processed: int = 0
    max_depth_reached: int = 0
    budget_exhausted: bool = False
    wall_time_s: float = 0.0


@dataclass
class Certificate:
    """Branch-and-bound outcome over the working domain.

    The proven boxes, the corner box and the undecided boxes, together with
    the reported excluded regions, cover the working domain; no two of them
    overlap except on their boundaries.  Every proven box has a positive
    lower bound (see :func:`_lower_bounds`).  The corner box exists only
    at delta = 0: it is the box holding the equality point (1, 1), proven
    by :func:`_corner_bounds` to carry a target >= 0 that is 0 only at
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

    def to_report_dict(self, include_proven: bool = False,
                       undecided_limit: int = 1000) -> dict:
        doc = {
            "target": self.task.target.value,
            "mu": self.task.mu,
            "delta": self.task.delta,
            "max_depth": self.task.max_depth,
            "min_box_width": self.task.min_box_width,
            "proven_count": self.proven_count,
            "undecided_count": self.undecided_count,
            "undecided": self.undecided.bounds_list(undecided_limit),
            "undecided_truncated": self.undecided_count > undecided_limit,
            "excluded": self.excluded,
            "stats": {
                "boxes_processed": self.stats.boxes_processed,
                "max_depth_reached": self.stats.max_depth_reached,
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
            "constraints": "x >= mu and x + y >= 1 + mu",
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


def certify(task: CertificationTask) -> Certificate:
    """Branch-and-bound certification of one target over W(mu, delta).

    Boxes with a positive rigorous lower bound are proven; at delta = 0
    the box holding (1, 1) becomes the corner box once
    :func:`_corner_bounds` proves it; boxes at max_depth or below
    min_box_width are undecided; when the total processed-box budget
    runs out the remaining queue is reported undecided.  Raises
    BudgetExceededError (carrying the partial certificate) only if a level
    would exceed the queue cap.
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
        stats.budget_exhausted = exhausted
        stats.wall_time_s = time.perf_counter() - start
        return Certificate(
            task=task,
            proven=BoxArray.concatenate(proven_parts).sorted_canonically(),
            corner=BoxArray.concatenate(corner_parts),
            undecided=BoxArray.concatenate(undecided_parts).sorted_canonically(),
            excluded=_excluded_description(task),
            stats=stats,
        )

    while xlo.shape[0] > 0:
        xlo, xhi, ylo, yhi, ok = _clip_to_domain(xlo, xhi, ylo, yhi, task.mu)
        if not ok.all():
            xlo, xhi, ylo, yhi = xlo[ok], xhi[ok], ylo[ok], yhi[ok]
        n = xlo.shape[0]
        if n == 0:
            break
        if stats.boxes_processed + n > task.box_budget:
            undecided_parts.append((xlo, xhi, ylo, yhi))
            return _finish(exhausted=True)

        stats.boxes_processed += n
        stats.max_depth_reached = depth
        flo = _lower_bounds(task.target, xlo, xhi, ylo, yhi, task.mu)

        proven = flo > 0.0
        # Clipped boxes reach x = 1 only at delta = 0, and then only the
        # one box per level that holds (1, 1).
        corner = ~proven & (xhi >= 1.0) & (yhi >= 1.0)
        if corner.any():
            corner[corner] = _corner_bounds(task.target, xlo[corner], xhi[corner],
                                            ylo[corner], yhi[corner], task.mu) > 0.0
            corner_parts.append((xlo[corner], xhi[corner],
                                 ylo[corner], yhi[corner]))
        decided = proven | corner
        width = np.maximum(xhi - xlo, yhi - ylo)
        stuck = ~decided & ((width <= task.min_box_width) | (depth >= task.max_depth))
        split = ~decided & ~stuck

        if proven.any():
            proven_parts.append((xlo[proven], xhi[proven],
                                 ylo[proven], yhi[proven]))
        if stuck.any():
            undecided_parts.append((xlo[stuck], xhi[stuck],
                                    ylo[stuck], yhi[stuck]))
        if not split.any():
            break

        sxlo, sxhi = xlo[split], xhi[split]
        sylo, syhi = ylo[split], yhi[split]
        on_x = (sxhi - sxlo) >= (syhi - sylo)
        xm = 0.5 * (sxlo + sxhi)
        ym = 0.5 * (sylo + syhi)
        c1 = (sxlo, np.where(on_x, xm, sxhi), sylo, np.where(on_x, syhi, ym))
        c2 = (np.where(on_x, xm, sxlo), sxhi, np.where(on_x, sylo, ym), syhi)
        xlo = np.concatenate([c1[0], c2[0]])
        xhi = np.concatenate([c1[1], c2[1]])
        ylo = np.concatenate([c1[2], c2[2]])
        yhi = np.concatenate([c1[3], c2[3]])
        depth += 1

        if xlo.shape[0] > task.queue_cap:
            undecided_parts.append((xlo, xhi, ylo, yhi))
            raise BudgetExceededError(
                f"work queue of {xlo.shape[0]} boxes exceeds cap {task.queue_cap}",
                partial_certificate=_finish(exhausted=True),
            )

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


def equal_legs_second_factor(ops, x):
    """2*sqrt(2x + x^3) - (sqrt(x) + 1)*sqrt(4x^2 - 1), for a = b = x, c = 1.

    Twice the main median slack of (x, x, 1) is (1 - sqrt(x)) times it.
    """
    t1 = ops.mul_const(ops.sqrt(ops.add(ops.mul_const(x, 2.0),
                                        ops.mul(ops.mul(x, x), x))), 2.0)
    t2 = ops.mul(ops.add_const(ops.sqrt(x), 1.0),
                 ops.sqrt(ops.sub_const(ops.mul(ops.mul_const(x, 4.0), x), 1.0)))
    return ops.sub(t1, t2)


def equal_base_second_factor(ops, x):
    """(1 + sqrt(x))*sqrt(4 - x^2) - 2*sqrt(1 + 2x^2), for a = x, b = c = 1.

    Twice the main median slack of (x, 1, 1) is (1 - sqrt(x)) times it.
    """
    t1 = ops.mul(ops.add_const(ops.sqrt(x), 1.0),
                 ops.sqrt(ops.const_sub(4.0, ops.mul(x, x))))
    t2 = ops.mul_const(ops.sqrt(ops.add_const(ops.mul(ops.mul_const(x, 2.0), x),
                                              1.0)), 2.0)
    return ops.sub(t1, t2)


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
