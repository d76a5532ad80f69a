"""The one definition of every kernel, slack and constraint formula.

Inputs are floats or arrays of sorted sides (a <= b <= c elementwise); no
validation happens here.  The typed scalar API validates, calls these on
floats and wraps the results, so it agrees bit for bit with the sweeps,
the search and the grids.  The doubled medians, Stewart's Cevians, both
slacks, the key residuals, the scalene lemma and the constraints are
written once over an operation set ``ops`` (see :mod:`cevians.intervals`)
as functions of general sides (a, b, c), and the two isosceles second
factors as functions of x over one too: search re-verification runs them
in interval arithmetic, and the certifier's targets are the same formulas
at the exact float constant c = 1.0.  :func:`cevian_triple_slacks` runs
the same per-vertex code on stacks whose first axis holds the three
vertices, (3, n) for the search's records and (3, 10, L) for a refinement
round's probe block; the callers that need the constraint mask compute it
from its Cevians.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .intervals import _FloatOps


def in_normalized_domain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of points inside {0 < x <= y <= 1, x + y > 1}."""
    return (x > 0.0) & (x <= y) & (y <= 1.0) & (x + y > 1.0)


def sample_normalized_points(
    rng: np.random.Generator, n: int, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n points uniformly over the normalized domain.

    Two uniforms (u, v) are folded into the triangle u + v <= 1 and mapped
    affinely onto the domain triangle with vertices (0,1), (1,1),
    (1/2,1/2): x = u + v/2, y = 1 - v/2.  The fold has no branch: with
    f = 1.0 where u + v > 1 and 0.0 elsewhere, |f - u| is 1 - u where f is
    1 and exactly u where f is 0, so it gives the bits of
    np.where(fold, 1 - u, u) without a per-element select.  The draws, the
    fold and the map all run in place.  The rare points that binary64
    rounding (or u = 0) leaves outside the strict domain are redrawn; when
    none is, exactly 2n uniforms are consumed.  Deterministic for a given
    generator state.

    ``out``, when given, is three float64 arrays of length n: the points
    are drawn into the first two, which are returned, and the third holds
    f.  Without it, the three arrays are allocated.
    """
    x, y, f = (np.empty(n), np.empty(n), np.empty(n)) if out is None else out
    rng.random(out=x)
    rng.random(out=y)
    np.greater(np.add(x, y, out=f), 1.0, out=f)
    for w in (x, y):
        np.abs(np.subtract(f, w, out=w), out=w)
    y *= 0.5
    np.add(x, y, out=x)
    np.subtract(1.0, y, out=y)
    bad = np.flatnonzero(~in_normalized_domain(x, y))
    if bad.size:
        x[bad], y[bad] = sample_normalized_points(rng, bad.size)
    return x, y


def doubled_medians(ops, a, b, c):
    """2*m_a, 2*m_b, 2*m_c: from A, sqrt((2b^2 + 2c^2) - a^2), and cyclically."""
    a2, b2, c2 = ops.mul(a, a), ops.mul(b, b), ops.mul(c, c)
    ta, tb, tc = ops.add(a2, a2), ops.add(b2, b2), ops.add(c2, c2)
    return (ops.sqrt(ops.sub(ops.add(tb, tc), a2)),
            ops.sqrt(ops.sub(ops.add(ta, tc), b2)),
            ops.sqrt(ops.sub(ops.add(ta, tb), c2)))


def medians_arrays(a, b, c):
    # Halving is exact, and so is doubling: b*b + b*b is the bits of 2*b*b.
    return tuple(0.5 * m for m in doubled_medians(_FloatOps, a, b, c))


def heron_area_arrays(a, b, c):
    p, q, r = c, b, a  # descending
    return 0.25 * np.sqrt(
        (p + (q + r)) * (r - (p - q)) * (r + (p - q)) * (p + (q - r))
    )


def altitudes_arrays(a, b, c):
    twice_area = 2.0 * heron_area_arrays(a, b, c)
    return twice_area / a, twice_area / b, twice_area / c


def bisectors_arrays(a, b, c):
    per = a + b + c
    la = np.sqrt(b * c * per * (b + c - a)) / (b + c)
    lb = np.sqrt(a * c * per * (a + c - b)) / (a + c)
    lc = np.sqrt(a * b * per * (a + b - c)) / (a + b)
    return la, lb, lc


def mixed_cevians_arrays(a, b, c, alpha, beta, gamma):
    """alpha*median + beta*altitude + gamma*bisector, per vertex."""
    families = zip(medians_arrays(a, b, c), altitudes_arrays(a, b, c),
                   bisectors_arrays(a, b, c))
    return tuple(alpha * m + beta * h + gamma * l for m, h, l in families)


def cevian(ops, u, v, w, t):
    """Stewart's formula for the Cevian from the vertex opposite side u.

    sqrt(v^2*t + w^2*(1-t) - u^2*t*(1-t)), where (u, v, w) is the cyclic
    triple starting at u.  Element-wise, so the arguments may hold one
    vertex's values or the (3, n) stacks of all three vertices' values.
    """
    rem = ops.sub(1.0, t)
    return ops.sqrt(ops.sub(
        ops.add(ops.mul(ops.mul(v, v), t), ops.mul(ops.mul(w, w), rem)),
        ops.mul(ops.mul(ops.mul(u, u), t), rem),
    ))


def stewart_cevians(ops, a, b, c, ta, tb, tc):
    """The three Cevians by :func:`cevian`, from A, B and C.

    The feet follow :class:`cevians.kernel.GeneralCevianParams`.
    """
    return cevian(ops, a, b, c, ta), cevian(ops, b, c, a, tb), cevian(ops, c, a, b, tc)


def general_cevians_arrays(a, b, c, ta, tb, tc):
    return stewart_cevians(_FloatOps, a, b, c, ta, tb, tc)


# Each slack is written once, over per-vertex values: three arrays, or the
# three rows of a (3, n) stack.  For the vertex opposite side u, whose
# Cevian is l, (u, v, w) is the cyclic triple starting at u.  The terms
# form their own products, and the sums take their terms from a generator,
# so no temporary outlives its use: on 65,536-element shards, passing
# shared products in made the quadratic slack and the mask up to 3x slower.


def _vertex_sum(ops, terms):
    """(t1 + t2) + t3 over the vertices A, B, C."""
    t = iter(terms)
    return ops.add(ops.add(next(t), next(t)), next(t))


def _main_term(ops, u, v, w, l, root=None):
    """(sqrt(v*w) - u)*l, with ``root`` standing for sqrt(v*w) where given."""
    if root is None:
        root = ops.sqrt(ops.mul(v, w))
    return ops.mul(ops.sub(root, u), l)


def _quadratic_term(ops, u, v, w, l):
    return ops.mul(ops.sub(ops.mul(v, w), ops.mul(u, u)), l)


def main_slack(ops, a, b, c, la, lb, lc, roots=(None, None, None)):
    """(sqrt(bc) - a)*la + (sqrt(ac) - b)*lb + (sqrt(ab) - c)*lc.

    An entry of ``roots`` that is not None stands for sqrt(bc), sqrt(ac)
    or sqrt(ab); the certifier derives them from a seeded s = sqrt(x).
    """
    vertices = (a, b, c, la), (b, a, c, lb), (c, a, b, lc)
    return _vertex_sum(ops, (_main_term(ops, *vx, r) for vx, r in zip(vertices, roots)))


def slack_main_arrays(a, b, c, la, lb, lc):
    return main_slack(_FloatOps, a, b, c, la, lb, lc)


def quadratic_slack(ops, a, b, c, la, lb, lc):
    """(bc - a^2)*la + (ac - b^2)*lb + (ab - c^2)*lc."""
    vertices = (a, b, c, la), (b, a, c, lb), (c, a, b, lc)
    return _vertex_sum(ops, (_quadratic_term(ops, *vx) for vx in vertices))


def slack_quadratic_arrays(a, b, c, la, lb, lc):
    return quadratic_slack(_FloatOps, a, b, c, la, lb, lc)


def key_residuals(ops, a, b, c, la, lb, lc):
    """(c*lb + b*lc) - 2a*la, (c*la + a*lc) - 2b*lb, (a*lb + b*la) - 2c*lc,
    the key system's residuals with medians; 2a*la is (a + a)*la and 2c*lc
    is c*lc + c*lc, the bits of the products with 2.0."""
    clc = ops.mul(c, lc)
    return (
        ops.sub(ops.add(ops.mul(c, lb), ops.mul(b, lc)), ops.mul(ops.add(a, a), la)),
        ops.sub(ops.add(ops.mul(c, la), ops.mul(a, lc)), ops.mul(ops.add(b, b), lb)),
        ops.sub(ops.add(ops.mul(a, lb), ops.mul(b, la)), ops.add(clc, clc)),
    )


def scalene_lemma(ops, a, b, c, la, lb, lc, roots=(None, None, None)):
    """sqrt(bc)*la + (sqrt(ac) - b)*lb - c*lc, with ``roots`` as in
    :func:`main_slack` (its third entry is not used)."""
    root = roots[0] if roots[0] is not None else ops.sqrt(ops.mul(b, c))
    t = ops.add(ops.mul(root, la), _main_term(ops, b, a, c, lb, roots[1]))
    return ops.sub(t, ops.mul(c, lc))


def constraint_pairs(ops, a, b, c, la, lb, lc):
    """The open-problem constraints lhs >= rhs as (lhs, rhs) pairs: la >= lb,
    lb >= lc, b*lb >= a*la and b*lb >= c*lc.  A generator, so a consumer
    that drops each pair before the next holds one of a*la and c*lc."""
    yield la, lb
    yield lb, lc
    pb = ops.mul(b, lb)
    yield pb, ops.mul(a, la)
    yield pb, ops.mul(c, lc)


def constraint_mask_arrays(a, b, c, la, lb, lc):
    """Open-problem constraint mask: la >= lb >= lc and b*lb >= max(a*la, c*lc)."""
    pairs = constraint_pairs(_FloatOps, a, b, c, la, lb, lc)
    return functools.reduce(operator.and_, itertools.starmap(operator.ge, pairs))


def equal_legs_second_factor(ops, x):
    """2*sqrt(2x + x^3) - (sqrt(x) + 1)*sqrt(4x^2 - 1), for a = b = x, c = 1.

    Twice the main median slack of (x, x, 1) is (1 - sqrt(x)) times it.
    """
    t1 = ops.mul(ops.sqrt(ops.add(ops.mul(x, 2.0), ops.mul(ops.mul(x, x), x))), 2.0)
    t2 = ops.mul(ops.add(ops.sqrt(x), 1.0),
                 ops.sqrt(ops.sub(ops.mul(ops.mul(x, 4.0), x), 1.0)))
    return ops.sub(t1, t2)


def equal_base_second_factor(ops, x):
    """(1 + sqrt(x))*sqrt(4 - x^2) - 2*sqrt(1 + 2x^2), for a = x, b = c = 1.

    Twice the main median slack of (x, 1, 1) is (1 - sqrt(x)) times it.
    """
    t1 = ops.mul(ops.add(ops.sqrt(x), 1.0), ops.sqrt(ops.sub(4.0, ops.mul(x, x))))
    t2 = ops.mul(ops.sqrt(ops.add(ops.mul(ops.mul(x, 2.0), x), 1.0)), 2.0)
    return ops.sub(t1, t2)


# Row permutations of a vertex stack: the cyclic partners (v, w) of each
# vertex's side u, so (a, b, c) becomes (b, c, a) and (c, a, b).
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cevian_triple_slacks(sides, feet):
    """Cevians and both slacks of a stack of Cevian triples.

    ``sides`` and ``feet`` are arrays of one shape whose first axis has
    length 3, rows (a, b, c) and (ta, tb, tc); any further axes are
    element-wise, as (n,) or the (10, L) probes of a refinement round.
    Row k holds vertex k's side u, its cyclic partners (v, w) are the same
    rows permuted, and each formula runs once on the stacks; every element
    sees the operations of :func:`general_cevians_arrays`,
    :func:`slack_main_arrays` and :func:`slack_quadratic_arrays` (row B's
    v*w is c*a where theirs is a*c), so the results agree bit for bit.
    Returns the Cevians, shaped as ``sides``, and the two slacks; the
    constraint mask is :func:`constraint_mask_arrays` of the sides and
    the Cevians, for the callers that need it.
    """
    v = sides.take(_NEXT, axis=0)
    w = sides.take(_PREV, axis=0)
    cv = cevian(_FloatOps, sides, v, w, feet)
    s1 = _vertex_sum(_FloatOps, _main_term(_FloatOps, sides, v, w, cv))
    s2 = _vertex_sum(_FloatOps, _quadratic_term(_FloatOps, sides, v, w, cv))
    return cv, s1, s2


def bisector_ratio_arrays(a, b, c, la, lb):
    return la / lb - (c + b - a) / c


def bisector_sqrt_chain_arrays(a, c, la, lc):
    return np.sqrt(a) * la - np.sqrt(c) * lc
