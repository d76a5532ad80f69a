"""Independent checks of CLI reports, in 50-digit mpmath.

Nothing here imports the package: targets, Cevians and slacks are written
again from their definitions, in the style of ``tests/oracles.py``.  Each
check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50


def _doubled_medians(x, y):
    """2*m_a, 2*m_b, 2*m_c of the triangle with sides (x, y, 1)."""
    return (
        mp.sqrt(2 * y * y + 2 - x * x),
        mp.sqrt(2 * x * x + 2 - y * y),
        mp.sqrt(2 * x * x + 2 * y * y - 1),
    )


def target_parts(target: str, x, y) -> tuple:
    """Every part of a certification target at the point (x, y), c = 1.

    Each part is a positive multiple of the slack it stands for; a proven
    box means every part is positive, except the key system's second
    residual, which is only nonnegative (it vanishes on 2b^2 = a^2 + c^2).
    """
    x, y = mp.mpf(x), mp.mpf(y)
    if target == "altitude-reduced":
        return (x * y + x / y + y / x - (x + y + 1),)
    ra, rb, rc = _doubled_medians(x, y)
    if target == "main-median":
        return (ra * (mp.sqrt(y) - x) + rb * (mp.sqrt(x) - y)
                + rc * (mp.sqrt(x * y) - 1),)
    if target == "quadratic-median":
        return ((y - x * x) * ra + (x - y * y) * rb + (x * y - 1) * rc,)
    if target == "key-system":
        return (rb + y * rc - 2 * x * ra,
                ra + x * rc - 2 * y * rb,
                x * rb + y * ra - 2 * rc)
    if target == "scalene-lemma":
        return (ra * mp.sqrt(y) + rb * (mp.sqrt(x) - y) - rc,)
    raise ValueError(f"unknown target {target!r}")


def _part_ok(target: str, k: int, value) -> bool:
    if target == "key-system" and k == 1:
        return value >= -mp.mpf(10) ** -40
    return value > 0


def _feasible(x, y, mu, delta) -> bool:
    """Exact membership of a binary64 point in W(mu, delta)."""
    x, y, mu, delta = (mp.mpf(v) for v in (x, y, mu, delta))
    return mu <= x <= y <= 1 and x + y >= 1 + mu and x <= 1 - delta


def _feasible_point(box, mu, delta):
    """A point of the box in W(mu, delta), or None.

    The corner nearest (1, 1) comes first: the targets are smallest there.
    """
    xlo, xhi, ylo, yhi = box
    xm, ym = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)
    for px, py in ((xhi, yhi), (xm, ym), (xm, yhi), (min(xm, ym), ym)):
        if xlo <= px <= xhi and ylo <= py <= yhi and _feasible(px, py, mu, delta):
            return px, py
    return None


def check_certify(rc, doc: dict) -> list[str]:
    """Exit code against undecided_count, counts, and every proven box."""
    cert = doc["certificate"]
    undecided = cert["undecided_count"]
    stats = cert["stats"]
    problems = []
    if rc == 3:
        if not stats["budget_exhausted"]:
            problems.append("exit 3 without an exhausted budget")
    elif rc != (0 if undecided == 0 else 1):
        problems.append(f"exit {rc} with undecided_count {undecided}")
    if cert["proven_count"] + undecided > stats["boxes_processed"]:
        problems.append("more proven and undecided boxes than boxes processed")
    proven = cert.get("proven")
    if proven is None:
        return problems
    if len(proven) != cert["proven_count"]:
        problems.append("proven list length differs from proven_count")
    target, mu, delta = cert["target"], cert["mu"], cert["delta"]
    for box in proven:
        point = _feasible_point(box, mu, delta)
        if point is None:
            continue  # the box holds no point of W: it proves nothing
        parts = target_parts(target, *point)
        if not all(_part_ok(target, k, v) for k, v in enumerate(parts)):
            problems.append(f"{target} not positive at {point} in proven box {box}")
            break
    return problems


def _cevian(a, b, c, t):
    """Length from A to the point of BC at distance t*a from B, by coordinates."""
    xa = (a * a + c * c - b * b) / (2 * a)
    ya2 = c * c - xa * xa
    return mp.sqrt((xa - t * a) ** 2 + ya2)


def check_search(rc, doc: dict) -> list[str]:
    """Exit code, and every reported violation re-evaluated exactly enough."""
    s = doc["search"]
    violations = s["violations"]
    constrained = s["mode"] == "open-problem"
    problems = []
    want = 0 if constrained or violations else 1
    if rc != want:
        problems.append(f"exit {rc}, expected {want} for {len(violations)} violations")
    if len(violations) != s["totals"]["reverified_violations"]:
        problems.append("violation list length differs from reverified_violations")
    for v in violations:
        a, b, c = (mp.mpf(u) for u in v["sides"])
        ta, tb, tc = (mp.mpf(u) for u in v["feet"])
        la = _cevian(a, b, c, ta)
        lb = _cevian(b, c, a, tb)
        lc = _cevian(c, a, b, tc)
        if any(abs(mp.mpf(r) - e) > 1e-12 * e for r, e in zip(v["cevians"], (la, lb, lc))):
            problems.append(f"reported Cevians {v['cevians']} are off")
        s1 = (mp.sqrt(b * c) * la + mp.sqrt(a * c) * lb + mp.sqrt(a * b) * lc
              - (a * la + b * lb + c * lc))
        s2 = (b * c - a * a) * la + (a * c - b * b) * lb + (a * b - c * c) * lc
        if not min(s1, s2) < 0:
            problems.append(f"violation {v['index']} has min slack {mp.nstr(min(s1, s2), 5)}")
        if constrained and not (la >= lb >= lc and b * lb >= a * la and b * lb >= c * lc):
            problems.append(f"violation {v['index']} breaks the open-problem constraints")
    return problems
