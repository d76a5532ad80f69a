"""The one binary64 definition of every kernel and slack formula.

Inputs are floats or arrays of sorted sides (a <= b <= c elementwise); no
validation happens here.  The typed scalar API validates, calls these on
floats and wraps the results, so it agrees bit for bit with the sweeps,
the search and the grids.  Stewart's formula and the quadratic slack take
an operation set, so search re-verification runs the same trees in interval
arithmetic.  :func:`cevian_triple_slacks` runs the same per-vertex code on
(3, n) stacks, one row per vertex, for the search's refinement rounds.
"""

from __future__ import annotations

import numpy as np

from .intervals import _FloatOps


def in_normalized_domain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of points inside {0 < x <= y <= 1, x + y > 1}."""
    return (x > 0.0) & (x <= y) & (y <= 1.0) & (x + y > 1.0)


def sample_normalized_points(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n points uniformly over the normalized domain.

    Two uniforms (u, v) are folded into the triangle u + v <= 1 and mapped
    affinely onto the domain triangle with vertices (0,1), (1,1),
    (1/2,1/2): x = u + v/2, y = 1 - v/2.  The fold has no branch: with
    f = 1.0 where u + v > 1 and 0.0 elsewhere, |f - u| is 1 - u where f is
    1 and exactly u where f is 0, so it gives the bits of
    np.where(fold, 1 - u, u) without a per-element select.  It and the map
    run in place on the drawn arrays.  The rare points that binary64
    rounding (or u = 0) leaves outside the strict domain are redrawn; when
    none is, exactly 2n uniforms are consumed.  Deterministic for a given
    generator state.
    """
    u = rng.random(n)
    v = rng.random(n)
    fold = (u + v > 1.0).astype(np.float64)
    for w in (u, v):
        np.abs(np.subtract(fold, w, out=w), out=w)
    v *= 0.5
    x = np.add(u, v, out=u)
    y = np.subtract(1.0, v, out=v)
    bad = np.flatnonzero(~in_normalized_domain(x, y))
    if bad.size:
        x[bad], y[bad] = sample_normalized_points(rng, bad.size)
    return x, y


def medians_arrays(a, b, c):
    ma = 0.5 * np.sqrt(2.0 * b * b + 2.0 * c * c - a * a)
    mb = 0.5 * np.sqrt(2.0 * a * a + 2.0 * c * c - b * b)
    mc = 0.5 * np.sqrt(2.0 * a * a + 2.0 * b * b - c * c)
    return ma, mb, mc


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
    rem = ops.const_sub(1.0, t)
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


# Each slack and the constraint mask are written once, over per-vertex
# values: three arrays, or the three rows of a (3, n) stack.  For the
# vertex opposite side u, whose Cevian is l, (u, v, w) is the cyclic
# triple starting at u.  The terms form their own products, and the
# per-vertex functions pass the terms of a sum as a generator, so no
# temporary outlives its use: on 65,536-element shards, passing shared
# products in made the quadratic slack and the mask up to 3x slower.


def _vertex_sum(ops, terms):
    """(t1 + t2) + t3 over the vertices A, B, C."""
    t = iter(terms)
    return ops.add(ops.add(next(t), next(t)), next(t))


def _root_term(v, w, l):
    return np.sqrt(v * w) * l


def _main_slack(roots, ul):
    """Sum of sqrt(v*w)*l minus sum of u*l."""
    return _vertex_sum(_FloatOps, roots) - _vertex_sum(_FloatOps, ul)


def _quadratic_term(ops, u, v, w, l):
    return ops.mul(ops.sub(ops.mul(v, w), ops.mul(u, u)), l)


def _constraint_mask(u, l):
    a, b, c = u
    la, lb, lc = l
    pb = b * lb
    return (la >= lb) & (lb >= lc) & (pb >= a * la) & (pb >= c * lc)


def slack_main_arrays(a, b, c, la, lb, lc):
    roots = (_root_term(v, w, l) for v, w, l in ((b, c, la), (a, c, lb), (a, b, lc)))
    return _main_slack(roots, (u * l for u, l in ((a, la), (b, lb), (c, lc))))


def quadratic_slack(ops, a, b, c, la, lb, lc):
    """(bc - a^2)*la + (ac - b^2)*lb + (ab - c^2)*lc."""
    return _vertex_sum(ops, (
        _quadratic_term(ops, a, b, c, la),
        _quadratic_term(ops, b, a, c, lb),
        _quadratic_term(ops, c, a, b, lc),
    ))


def slack_quadratic_arrays(a, b, c, la, lb, lc):
    return quadratic_slack(_FloatOps, a, b, c, la, lb, lc)


# Row permutations of a (3, n) stack: the cyclic partners (v, w) of each
# vertex's side u, so (a, b, c) becomes (b, c, a) and (c, a, b).
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cevian_triple_slacks(sides, feet):
    """Cevians, both slacks and the constraint mask of n Cevian triples.

    ``sides`` and ``feet`` are (3, n) arrays with rows (a, b, c) and
    (ta, tb, tc).  Row k holds vertex k's side u, its cyclic partners
    (v, w) are the same rows permuted, and each formula runs once on the
    stacks; every element sees the operations of
    :func:`general_cevians_arrays`, :func:`slack_main_arrays`,
    :func:`slack_quadratic_arrays` and :func:`constraint_mask_arrays`
    (row B's v*w is c*a where theirs is a*c), so the results agree bit
    for bit.  Returns the (3, n) Cevians, the two slacks and the mask.
    """
    v = sides.take(_NEXT, axis=0)
    w = sides.take(_PREV, axis=0)
    cv = cevian(_FloatOps, sides, v, w, feet)
    s1 = _main_slack(_root_term(v, w, cv), sides * cv)
    s2 = _vertex_sum(_FloatOps, _quadratic_term(_FloatOps, sides, v, w, cv))
    return cv, s1, s2, _constraint_mask(sides, cv)


def key_residual_arrays(a, b, c, ma, mb, mc):
    r1 = c * mb + b * mc - 2.0 * a * ma
    r2 = a * mc + c * ma - 2.0 * b * mb
    r3 = a * mb + b * ma - 2.0 * c * mc
    return r1, r2, r3


def lemma_scalene_arrays(a, b, c, ma, mb, mc):
    return np.sqrt(b * c) * ma + np.sqrt(a * c) * mb - b * mb - c * mc


def bisector_ratio_arrays(a, b, c, la, lb):
    return la / lb - (c + b - a) / c


def bisector_sqrt_chain_arrays(a, c, la, lc):
    return np.sqrt(a) * la - np.sqrt(c) * lc


def constraint_mask_arrays(a, b, c, la, lb, lc):
    """Open-problem constraint mask: la >= lb >= lc and b*lb >= max(a*la, c*lc)."""
    return _constraint_mask((a, b, c), (la, lb, lc))
