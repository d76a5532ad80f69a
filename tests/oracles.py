"""Independent high-precision oracles used to derive expected test values.

Everything here is computed with 50-digit mpmath arithmetic from first
principles (planar coordinates, Stewart's theorem, Heron's formula), with
no code shared with the package under test.
"""

import mpmath as mp

mp.mp.dps = 50


def medians_hp(a, b, c):
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    return (
        mp.sqrt(2 * b * b + 2 * c * c - a * a) / 2,
        mp.sqrt(2 * a * a + 2 * c * c - b * b) / 2,
        mp.sqrt(2 * a * a + 2 * b * b - c * c) / 2,
    )


def heron_hp(a, b, c):
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    s = (a + b + c) / 2
    return s, mp.sqrt(s * (s - a) * (s - b) * (s - c))


def altitudes_hp(a, b, c):
    _, area = heron_hp(a, b, c)
    return 2 * area / a, 2 * area / b, 2 * area / c


def bisectors_hp(a, b, c):
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    s = (a + b + c) / 2
    return (
        2 * mp.sqrt(b * c * s * (s - a)) / (b + c),
        2 * mp.sqrt(a * c * s * (s - b)) / (a + c),
        2 * mp.sqrt(a * b * s * (s - c)) / (a + b),
    )


def vertex_coordinates(a, b, c):
    """Place B=(0,0), C=(a,0); return A for side lengths |BC|=a, |CA|=b, |AB|=c."""
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    xa = (a * a + c * c - b * b) / (2 * a)
    ya = mp.sqrt(c * c - xa * xa)
    return xa, ya


def cevian_from_A_coord(a, b, c, t):
    """Length from A to the point of BC at distance t*a from B (planar oracle)."""
    xa, ya = vertex_coordinates(a, b, c)
    xd = mp.mpf(t) * mp.mpf(a)
    return mp.sqrt((xa - xd) ** 2 + ya ** 2)


def bisector_from_A_coord(a, b, c):
    """Bisector foot divides BC in ratio AB:AC = c:b from B."""
    return cevian_from_A_coord(a, b, c, mp.mpf(c) / (mp.mpf(b) + mp.mpf(c)))


def general_cevians_hp(a, b, c, ta, tb, tc):
    """All three Cevians by relabeling the coordinate oracle per vertex."""
    da = cevian_from_A_coord(a, b, c, ta)
    db = cevian_from_A_coord(b, c, a, tb)
    dc = cevian_from_A_coord(c, a, b, tc)
    return da, db, dc


def slack_main_hp(a, b, c, la, lb, lc):
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    return (
        mp.sqrt(b * c) * la
        + mp.sqrt(a * c) * lb
        + mp.sqrt(a * b) * lc
        - (a * la + b * lb + c * lc)
    )


def slack_quadratic_hp(a, b, c, la, lb, lc):
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    return (b * c - a * a) * la + (a * c - b * b) * lb + (a * b - c * c) * lc


def normalized_slack_hp(x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    ra = mp.sqrt(2 + 2 * y * y - x * x)
    rb = mp.sqrt(2 + 2 * x * x - y * y)
    rc = mp.sqrt(2 * x * x + 2 * y * y - 1)
    return (
        mp.sqrt(y) * ra
        + mp.sqrt(x) * rb
        + mp.sqrt(x * y) * rc
        - x * ra
        - y * rb
        - rc
    )


def target_parts_hp(target, x, y):
    """Every part of a certification target at (x, y), for the triangle (x, y, 1).

    Each part is a positive multiple of the slack it certifies, written
    from the medians of :func:`medians_hp` or the bisectors of
    :func:`bisectors_hp`.
    """
    x, y = mp.mpf(x), mp.mpf(y)
    if target == "altitude-reduced":
        return (x * y + x / y + y / x - (x + y + 1),)
    ra, rb, rc = (2 * m for m in medians_hp(x, y, 1))
    if target == "main-median":
        return (2 * slack_main_hp(x, y, 1, ra / 2, rb / 2, rc / 2),)
    if target == "quadratic-median":
        return (2 * slack_quadratic_hp(x, y, 1, ra / 2, rb / 2, rc / 2),)
    if target == "key-system":
        return (rb + y * rc - 2 * x * ra,
                ra + x * rc - 2 * y * rb,
                x * rb + y * ra - 2 * rc)
    if target == "scalene-lemma":
        return (ra * mp.sqrt(y) + rb * (mp.sqrt(x) - y) - rc,)
    if target == "main-bisector":
        return (slack_main_hp(x, y, 1, *bisectors_hp(x, y, 1)),)
    if target == "quadratic-bisector":
        return (slack_quadratic_hp(x, y, 1, *bisectors_hp(x, y, 1)),)
    raise ValueError(f"unknown target {target!r}")


def target_derivative_hp(target, x, y, order):
    """Partial derivative of order (i, j) in (x, y) of every target part."""
    n = len(target_parts_hp(target, 0.75, 0.75))
    return tuple(
        mp.diff(lambda u, v, k=k: target_parts_hp(target, u, v)[k], (x, y), order)
        for k in range(n)
    )


def target_sqrt_derivative_hp(target, s, y, order):
    """Partial derivative of order (i, j) in (s, y), with x = s*s, of every part.

    The differences in s are one-sided (s >= 0), so the derivative at s = 0,
    the edge x = 0, sees only triangles (s*s, y, 1).
    """
    n = len(target_parts_hp(target, 0.75, 0.75))
    return tuple(
        mp.diff(lambda u, v, k=k: target_parts_hp(target, u * u, v)[k], (s, y), order,
                direction=1)
        for k in range(n)
    )


def f(v) -> float:
    return float(v)
