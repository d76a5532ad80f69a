"""The one binary64 definition of every kernel and slack formula.

Inputs are floats or arrays of sorted sides (a <= b <= c elementwise); no
validation happens here.  The typed scalar API validates, calls these on
floats and wraps the results, so it agrees bit for bit with the sweeps,
the search and the grids.  Stewart's formula and the quadratic slack take
an operation set, so search re-verification runs the same trees in interval
arithmetic; F is the certifier's main-median target.
"""

from __future__ import annotations

import numpy as np

from .certifier import Target, point_values
from .intervals import _FloatOps


def in_normalized_domain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of points inside {0 < x <= y <= 1, x + y > 1}."""
    return (x > 0.0) & (x <= y) & (y <= 1.0) & (x + y > 1.0)


def sample_normalized_points(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n points uniformly over the normalized domain.

    Rejection from the unit square; the acceptance region is the triangle
    with vertices (0,1), (1,1), (1/2,1/2), area 1/4.  Deterministic for a
    given generator state.
    """
    xs = np.empty(n)
    ys = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(4 * (n - filled), 4096)
        u = rng.random(batch)
        v = rng.random(batch)
        ok = in_normalized_domain(u, v)
        take = min(int(ok.sum()), n - filled)
        xs[filled : filled + take] = u[ok][:take]
        ys[filled : filled + take] = v[ok][:take]
        filled += take
    return xs, ys


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


def stewart_cevians(ops, a, b, c, ta, tb, tc):
    """Stewart: from A, sqrt(b^2*ta + c^2*(1-ta) - a^2*ta*(1-ta)), cyclically.

    The feet follow :class:`cevians.kernel.GeneralCevianParams`.
    """

    def cevian(u, v, w, t):  # from the vertex opposite side u
        rem = ops.const_sub(1.0, t)
        return ops.sqrt(ops.sub(
            ops.add(ops.mul(ops.mul(v, v), t), ops.mul(ops.mul(w, w), rem)),
            ops.mul(ops.mul(ops.mul(u, u), t), rem),
        ))

    return cevian(a, b, c, ta), cevian(b, c, a, tb), cevian(c, a, b, tc)


def general_cevians_arrays(a, b, c, ta, tb, tc):
    return stewart_cevians(_FloatOps, a, b, c, ta, tb, tc)


def slack_main_arrays(a, b, c, la, lb, lc):
    return (
        np.sqrt(b * c) * la
        + np.sqrt(a * c) * lb
        + np.sqrt(a * b) * lc
        - (a * la + b * lb + c * lc)
    )


def quadratic_slack(ops, a, b, c, la, lb, lc):
    """(bc - a^2)*la + (ac - b^2)*lb + (ab - c^2)*lc."""
    t1 = ops.mul(ops.sub(ops.mul(b, c), ops.mul(a, a)), la)
    t2 = ops.mul(ops.sub(ops.mul(a, c), ops.mul(b, b)), lb)
    t3 = ops.mul(ops.sub(ops.mul(a, b), ops.mul(c, c)), lc)
    return ops.add(ops.add(t1, t2), t3)


def slack_quadratic_arrays(a, b, c, la, lb, lc):
    return quadratic_slack(_FloatOps, a, b, c, la, lb, lc)


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


def normalized_slack_arrays(x, y):
    """The two-variable normalized main slack F over arrays of points.

    This is the certifier's main-median target, so it vanishes exactly at
    (1, 1) and every enclosure the certifier proves contains it.
    """
    return point_values(Target.MAIN_MEDIAN, x, y)


def constraint_mask_arrays(a, b, c, la, lb, lc):
    """Open-problem constraint mask: la >= lb >= lc and b*lb >= max(a*la, c*lc)."""
    pb = b * lb
    return (la >= lb) & (lb >= lc) & (pb >= a * la) & (pb >= c * lc)
