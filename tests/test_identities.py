"""The identities that prove key-system and altitude-reduced.

The identities are expanded exactly, as polynomials over the rationals
(`polynomials.Poly`), on the package's own formulas; their sign claims are
checked at 50 digits with `tests/oracles.py`; and `certify` is checked to
return a certificate by identity for both targets at every mu, the flat
edge x + y = 1 included where 1 + mu rounds to 1, and the
branch-and-bound's bytes for every other target.
"""

import json
import math

import pytest

from cevians import cli
from cevians.certifier import (
    TARGETS,
    CertificationTask,
    Target,
    _EQUALITY_POINT,
    _branch_and_bound,
    _parts_altitude_reduced,
    certify,
)
from cevians.reports import reproducible_bytes

import oracles
from polynomials import Poly, RatioOps, RootOps

mp = oracles.mp

# (X, Y, Z) of the residual X*2m_Z + Z*2m_X - 2Y*2m_Y that each of
# key-system's parts r1, r2 and r3 is.
LABELLINGS = ("bac", "abc", "acb")


def _doubled_median_squares(a, b, c):
    """(2m_a)^2, (2m_b)^2, (2m_c)^2 as polynomials in the sides."""
    return {"a": 2 * b * b + 2 * c * c - a * a,
            "b": 2 * a * a + 2 * c * c - b * b,
            "c": 2 * a * a + 2 * b * b - c * c}


def _heron16(a, b, c):
    """16*area^2 = (a+b+c)(-a+b+c)(a-b+c)(a+b-c)."""
    return (a + b + c) * (b + c - a) * (a + c - b) * (a + b - c)


def _square_identity_holds(sides, m2, labelling) -> bool:
    """4*T1*T2 - P^2 == 4*(X^2 + Z^2 - 2Y^2)^2 * 16*area^2 for one labelling."""
    X, Y, Z = labelling
    t1 = sides[X] ** 2 * m2[Z]
    t2 = sides[Z] ** 2 * m2[X]
    p = 4 * sides[Y] ** 2 * m2[Y] - t1 - t2
    square = (sides[X] ** 2 + sides[Z] ** 2 - 2 * sides[Y] ** 2) ** 2
    return 4 * t1 * t2 - p * p == 4 * square * _heron16(*sides.values())


class TestExactIdentities:
    def test_polynomials_multiply_out(self):
        x, y = Poly.var("x"), Poly.var("y")
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert (x - y) * (x + y) - x * x + y * y == 0
        assert Poly.const(0.5) * 2 == 1
        assert x * y != y * y

    @pytest.mark.parametrize("labelling", LABELLINGS)
    def test_square_identity_in_the_sides(self, labelling):
        a, b, c = (Poly.var(n) for n in "abc")
        sides = {"a": a, "b": b, "c": c}
        assert _square_identity_holds(sides, _doubled_median_squares(a, b, c), labelling)

    def test_a_wrong_identity_fails(self):
        # the check sees a changed factor
        a, b, c = (Poly.var(n) for n in "abc")
        m2 = _doubled_median_squares(a, b, c)
        m2["a"] = m2["a"] + 1
        assert not _square_identity_holds({"a": a, "b": b, "c": c}, m2, "abc")

    def test_key_system_parts_are_the_labelled_residuals(self):
        # The package's key-system formula, run on polynomials with its
        # square roots as variables, is the residual of each labelling,
        # and the square identity holds with the roots' squares put back.
        ops = RootOps()
        x, y = Poly.var("x"), Poly.var("y")
        parts = TARGETS[Target.KEY_SYSTEM].parts(ops, x, y)
        assert len(parts) == 3 and len(ops.roots) == 3
        sides = {"a": x, "b": y, "c": Poly.const(1)}
        roots = dict(zip("abc", (Poly.var(name) for name in ops.roots)))
        m2 = _doubled_median_squares(*sides.values())
        assert list(ops.roots.values()) == [m2[s] for s in "abc"]
        for part, (X, Y, Z) in zip(parts, LABELLINGS):
            assert part == sides[X] * roots[Z] + sides[Z] * roots[X] - 2 * sides[Y] * roots[Y]
            t1 = ops.reduce_roots((sides[X] * roots[Z]) ** 2)
            t2 = ops.reduce_roots((sides[Z] * roots[X]) ** 2)
            p = ops.reduce_roots((2 * sides[Y] * roots[Y]) ** 2) - t1 - t2
            square = (sides[X] ** 2 + sides[Z] ** 2 - 2 * sides[Y] ** 2) ** 2
            assert 4 * t1 * t2 - p * p == 4 * square * _heron16(*sides.values())

    def test_altitude_reduced_is_a_sum_of_squares(self):
        # x*y*F = ((x*y - x)^2 + (x*y - y)^2 + (x - y)^2) / 2 for the
        # package's own formula of F
        x, y = Poly.var("x"), Poly.var("y")
        ((num, den),) = _parts_altitude_reduced(RatioOps, x, y)
        squares = (x * y - x) ** 2 + (x * y - y) ** 2 + (x - y) ** 2
        assert 2 * x * y * num == squares * den
        assert 2 * x * y * num != (squares + x) * den


def _domain_points(rng, mu, count):
    """Random points of W(mu), the triangle with vertices (mu, 1),
    ((1 + mu)/2, (1 + mu)/2) and (1, 1), and points on its edges
    x + y = 1 + mu, x = y and y = 1 and close to (1, 1), as mpf pairs."""
    mu = mp.mpf(mu)
    points = [(mu, 1), ((1 + mu) / 2, (1 + mu) / 2)]
    for _ in range(count):
        y = mp.mpf(rng.uniform(0.5, 1.0))
        x = mp.mpf(rng.uniform(0.0, 1.0)) * y
        points.append((x, y))
    for t in rng.uniform(0.0, 1.0, count):
        t = mp.mpf(t)
        y = (1 + mu) / 2 + t * (1 - mu) / 2
        points += [(1 + mu - y, y), (y, y), (mu + t * (1 - mu), 1)]
    for k in range(1, 60):
        d = mp.mpf(2) ** -k
        points += [(1 - d, 1), (1 - d, 1 - d / 2), (1 - d, 1 - d)]
    return [(x, y) for x, y in points if mu <= x <= y <= 1 and x + y >= 1 + mu]


class TestSignsAt50Digits:
    """What the identity certificates state, at random and edge points of
    W(mu): r1, r3 and F are > 0 and 0 only at (1, 1); r2 is >= 0, and 0 on
    2y^2 = x^2 + 1."""

    @pytest.mark.parametrize("mu", [1e-6, 1e-12])
    def test_strict_parts_are_positive_off_the_equality_point(self, mu, rng):
        points = _domain_points(rng, mu, 300)
        assert len(points) > 1000
        tiny = mp.mpf(10) ** -40
        for x, y in points:
            r1, r2, r3 = oracles.target_parts_hp("key-system", x, y)
            (f,) = oracles.target_parts_hp("altitude-reduced", x, y)
            assert min(r1, r3, f) > 0, (x, y)
            assert r2 >= -tiny, (x, y)
            if abs(2 * y * y - x * x - 1) > mp.mpf(10) ** -20:
                assert r2 > 0, (x, y)

    def test_zero_at_the_equality_point(self):
        assert oracles.target_parts_hp("key-system", 1, 1) == (0, 0, 0)
        assert oracles.target_parts_hp("altitude-reduced", 1, 1) == (0,)

    def test_r2_is_zero_on_its_curve(self, rng):
        for x in rng.uniform(0.01, 1.0, 50):
            x = mp.mpf(x)
            y = mp.sqrt((x * x + 1) / 2)
            r2 = oracles.target_parts_hp("key-system", x, y)[1]
            assert abs(r2) < mp.mpf(10) ** -45, x


class TestFlatEdge:
    """Where 1 + mu rounds to 1, W(mu) holds the flat edge x + y = 1,
    x in [mu, 1/2], of degenerate triangles (x, 1 - x, 1).  Their
    16*area^2 is 0, so the square identity still makes r1, r2 and r3 >= 0
    there: r1 is 0 at (1/2, 1/2), r2 on the whole edge, and r3 nowhere."""

    def test_key_system_on_the_edge_exactly(self):
        # The package's formula on (x, 1 - x): its radicands are the squares
        # of 2 - x, 1 + x and 1 - 2x, which are >= 0 for x in [0, 1/2] and
        # so are its doubled medians there, and its residuals are
        # 2(1 - x)(1 - 2x), 0 and 2x(1 + x).
        ops = RootOps()
        one, x = Poly.const(1), Poly.var("x")
        parts = TARGETS[Target.KEY_SYSTEM].parts(ops, x, one - x)
        medians = (2 * one - x, one + x, one - 2 * x)
        assert list(ops.roots.values()) == [m * m for m in medians]
        roots = dict(zip(ops.roots, medians))
        assert [p.substitute(roots) for p in parts] == [
            2 * (one - x) * (one - 2 * x), 0, 2 * x * (one + x)]

    def test_residuals_are_nonnegative_on_the_edge_and_next_to_it(self):
        # 200 binary64 points x in (0, 1/2]: on the edge, 1 - x, the
        # radicands and their roots are exact at 50 digits, and so are the
        # residuals; 1e-30 inside it the triangles are valid
        inside = mp.mpf(10) ** -30
        for k in range(1, 201):
            x = mp.mpf(k / 400)
            edge = oracles.target_parts_hp("key-system", x, 1 - x)
            assert edge == (2 * (1 - x) * (1 - 2 * x), 0, 2 * x * (1 + x)), k
            assert min(edge) >= 0, k
            assert min(oracles.target_parts_hp("key-system", x, 1 - x + inside)) > 0, k

    @pytest.mark.parametrize("mu, flat", [
        (1e-17, True), (2.0 ** -53, True), (1.1e-16, True), (1e-20, True),
        (math.nextafter(2.0 ** -53, 1.0), False)])
    def test_certificate_names_the_edge_zeros_where_the_edge_is_in_w(self, mu, flat):
        assert (1.0 + mu == 1.0) is flat
        cert = certify(CertificationTask(target=Target.KEY_SYSTEM, mu=mu))
        proof = cert.to_report_dict()["proof"]
        parts = {p["part"]: p for p in proof["parts"]}
        if flat:
            assert proof["floors"]["x+y-1"] == 0.0
            assert parts["r1"]["zero_set"] == "(1,1) or (1/2,1/2)"
            assert parts["r1"]["claim"] == ("r1 > 0 on W(mu) except at (1,1) or (1/2,1/2), "
                                            "where it is 0")
            assert parts["r2"]["zero_set"] == "2*y^2 = x^2 + 1 or x + y = 1"
            assert parts["r2"]["claim"] == ("r2 >= 0 on W(mu), and 0 exactly on "
                                            "2*y^2 = x^2 + 1 or x + y = 1")
        else:
            assert proof["floors"]["x+y-1"] == 2.0 ** -52
            assert parts["r1"]["zero_set"] == _EQUALITY_POINT
            assert parts["r2"]["zero_set"] == "2*y^2 = x^2 + 1"
        assert parts["r3"]["zero_set"] == _EQUALITY_POINT
        altitude = certify(CertificationTask(target=Target.ALTITUDE_REDUCED, mu=mu))
        (f,) = altitude.to_report_dict()["proof"]["parts"]
        assert f["zero_set"] == _EQUALITY_POINT


# certify's settings for the identities, at mu where 1 + mu > 1 and where
# it rounds to 1, limits that would stop a branch-and-bound at once among
# them
IDENTITY_RUNS = [
    *(dict(mu=mu, delta=delta)
      for mu in (1e-6, 1e-12, 1.2e-16, 1.1e-16, 1e-17, 1e-20)
      for delta in (0.0, 1e-7, 1e-3, 0.4)),
    dict(delta=0.0, max_depth=1, box_budget=1, min_box_width=0.5),
    dict(mu=5e-324, delta=0.0),
]


class TestCertificatesByIdentity:
    @pytest.mark.parametrize("target", [Target.KEY_SYSTEM, Target.ALTITUDE_REDUCED])
    @pytest.mark.parametrize("settings", IDENTITY_RUNS)
    def test_no_box_and_every_part_proven(self, target, settings):
        cert = certify(CertificationTask(target=target, **settings))
        assert cert.identity is TARGETS[target].identity
        for boxes in (cert.proven, cert.corner, cert.undecided):
            assert boxes.shape == (4, 0)
        stats = cert.stats
        assert (stats.boxes_processed, stats.levels, stats.evaluations) == (0, 0, 0)
        assert not stats.budget_exhausted
        doc = cert.to_report_dict(include_proven=True)
        assert "corner_box" not in doc and doc["proven"] == []
        # nothing is left out but the degeneracy buffer that defines W(mu)
        assert set(doc["excluded"]) == {"degeneracy_buffer"}
        proof = doc["proof"]
        assert proof["kind"] == "identity"
        assert proof["name"] == cert.identity.name
        assert all(v >= 0 for v in proof["floors"].values())
        names = ("r1", "r2", "r3") if target is Target.KEY_SYSTEM else ("F",)
        assert [p["part"] for p in proof["parts"]] == list(names)
        for part in proof["parts"]:
            if part["part"] == "r2":
                assert part["zero_set"].startswith("2*y^2 = x^2 + 1")
                assert part["claim"].startswith("r2 >= 0 on W(mu)")
            else:
                assert part["zero_set"].startswith(_EQUALITY_POINT)
                assert part["claim"].startswith(f"{part['part']} > 0 on W(mu) except at (1,1)")

    @pytest.mark.parametrize("target", [Target.KEY_SYSTEM, Target.ALTITUDE_REDUCED])
    @pytest.mark.parametrize("mu", ["1e-6", "1e-12", "1.1e-16", "1e-17", "1e-20"])
    @pytest.mark.parametrize("delta", ["0", "1e-7", "1e-3"])
    def test_cli_exits_0_with_no_corner_check(self, target, mu, delta, tmp_path):
        out = tmp_path / "cert.json"
        assert cli.main(["certify", "--target", target.value, "--mu", mu, "--delta", delta,
                         "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"manifest", "certificate"}
        assert doc["certificate"]["proof"]["kind"] == "identity"
        assert doc["certificate"]["stats"]["boxes_processed"] == 0

    @pytest.mark.parametrize("target", [t for t in Target if TARGETS[t].identity is None])
    @pytest.mark.parametrize("settings", [{}, {"delta": 0.0, "mu": 1e-12}])
    def test_other_targets_run_the_branch_and_bound(self, target, settings):
        task = CertificationTask(target=target, **settings)
        cert = certify(task)
        assert cert.identity is None and cert.stats.boxes_processed > 0
        assert _same_bytes(cert, _branch_and_bound(task))


def _same_bytes(a, b) -> bool:
    return (reproducible_bytes(a.to_report_dict(include_proven=True))
            == reproducible_bytes(b.to_report_dict(include_proven=True)))
