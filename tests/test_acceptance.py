"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (run pytest with -s to
see them).  Criterion 7's open-problem half checks the constrained search
as it is: the ordering and middle-dominance constraints do not force the
target inequalities (a witness checked by the 50-digit oracles alone), the
search finds such counterexamples, and every one it reports is genuine by
the same oracles.
"""

import json
import math
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from cevians import bulk
from cevians.bulk import _MathOps
from cevians.intervals import _FloatOps
from cevians.certifier import (
    CertificationTask,
    Target,
    certify,
    corner_argument_check,
    point_values,
)
from cevians.cli import main as cli_main
from cevians.kernel import validate_sides, medians
from cevians.reports import reproducible_bytes
from cevians.search import SearchConfig, SearchMode, is_confirmed_violation, search

from conftest import natural_enclosure, sample_domain_boxes
from oracles import general_cevians_hp, slack_main_hp, slack_quadratic_hp
from test_search import COUNTEREXAMPLE_FEET, COUNTEREXAMPLE_SIDES

SWEEP_SIZE = 1_000_000
MIXED_SIZE = 100_000
SEED = 20260810


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {label}: FAIL")
        raise
    print(f"\ncriterion {label}: PASS")


@pytest.fixture(scope="module")
def sweep():
    """One million seeded valid triangles (sorted sides, random scales)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([SEED, 0])))
    x, y = bulk.sample_normalized_points(rng, SWEEP_SIZE)
    scale = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), SWEEP_SIZE))
    a, b, c = x * scale, y * scale, scale
    m = bulk.medians(_FloatOps, a, b, c)
    return {"x": x, "y": y, "a": a, "b": b, "c": c, "medians": m,
            "tol_scale": c * m[2], "rng": rng}


@pytest.fixture(scope="module")
def certificates():
    out = {}
    for target in Target:
        started = time.perf_counter()
        out[target] = (certify(CertificationTask(target=target)),
                       time.perf_counter() - started)
    return out


def test_criterion_1_main_inequality_sweeps(sweep):
    with criterion("1 (main inequality property suite)"):
        a, b, c = sweep["a"], sweep["b"], sweep["c"]
        tol = 1e-12 * sweep["tol_scale"]
        started = time.perf_counter()

        for family in (bulk.medians, bulk.altitudes, bulk.bisectors):
            la, lb, lc = family(_FloatOps, a, b, c)
            assert (bulk.slack_main_arrays(a, b, c, la, lb, lc) >= -tol).all()
            assert (bulk.slack_quadratic_arrays(a, b, c, la, lb, lc)
                    >= -tol * c).all()

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([SEED, 1])))
        wa, wb, wc = rng.uniform(0.0, 10.0, (3, MIXED_SIZE))
        am, bm, cm = a[:MIXED_SIZE], b[:MIXED_SIZE], c[:MIXED_SIZE]
        ma, mb, mc = (v[:MIXED_SIZE] for v in sweep["medians"])
        ha, hb, hc = bulk.altitudes(_FloatOps, am, bm, cm)
        la, lb, lc = bulk.bisectors(_FloatOps, am, bm, cm)
        fa = wa * ma + wb * ha + wc * la
        fb = wa * mb + wb * hb + wc * lb
        fc = wa * mc + wb * hc + wc * lc
        mixed_tol = 1e-12 * cm * fc
        assert (bulk.slack_main_arrays(am, bm, cm, fa, fb, fc) >= -mixed_tol).all()
        assert (bulk.slack_quadratic_arrays(am, bm, cm, fa, fb, fc)
                >= -mixed_tol * cm).all()

        elapsed = time.perf_counter() - started
        print(f"\n  criterion 1 sweep time: {elapsed:.1f} s (target <= 30 s)")
        assert elapsed <= 30.0


def test_criterion_2_key_system_suite(sweep):
    with criterion("2 (key-system residuals)"):
        a, b, c = sweep["a"], sweep["b"], sweep["c"]
        r1, r2, r3 = bulk.key_residuals(_FloatOps, a, b, c, *sweep["medians"])
        tol = 1e-12 * sweep["tol_scale"]
        assert (r1 >= -tol).all() and (r2 >= -tol).all() and (r3 >= -tol).all()

        for k in (0.5, 1.0, 2.0, 10.0):
            t = validate_sides(k, k, k)
            from cevians.inequalities import key_system_residuals

            for rep in key_system_residuals(t, medians(t)):
                assert abs(rep.value) < 1e-9


def test_criterion_3_lemma_suite(sweep):
    with criterion("3 (lemma suite)"):
        a, b, c = sweep["a"], sweep["b"], sweep["c"]
        tol = 1e-12 * sweep["tol_scale"]

        # square roots of the sides always form a triangle
        assert (np.sqrt(a) + np.sqrt(b) > np.sqrt(c)).all()

        # median ordering and the median triangle inequality
        ma, mb, mc = sweep["medians"]
        assert (ma >= mb).all() and (mb >= mc).all()
        assert (mc + mb > ma).all()

        # scalene two-median bound
        scalene = (a < b) & (b < c)
        lem = bulk.scalene_lemma(_FloatOps, a, b, c, ma, mb, mc)
        assert (lem[scalene] >= -tol[scalene]).all()

        # middle-product dominance for medians and bisectors; strict on
        # clearly scalene triangles for medians
        dom_med = b * mb - np.maximum(a * ma, c * mc)
        assert (dom_med >= -tol).all()
        gap = (b - a > 1e-9 * b) & (c - b > 1e-9 * c)
        assert (dom_med[gap] > 0.0).all()
        la, lb, lc = bulk.bisectors(_FloatOps, a, b, c)
        dom_bis = b * lb - np.maximum(a * la, c * lc)
        assert (dom_bis >= -1e-12 * (c * lc)).all()

        # bisector ratio bound (dimensionless) and square-root chain
        ratio = bulk.bisector_ratio(_FloatOps, a, b, c, la, lb)
        assert (ratio >= -1e-12).all()
        chain = bulk.bisector_sqrt_chain(_FloatOps, a, c, la, lc)
        assert (chain >= -1e-12 * np.sqrt(c) * lc).all()


def test_criterion_4_rigorous_certification(certificates):
    with criterion("4 (rigorous certification)"):
        for target, (cert, elapsed) in certificates.items():
            print(f"\n  {target.value}: proven={cert.proven_count} "
                  f"undecided={cert.undecided_count} "
                  f"boxes={cert.stats.boxes_processed} time={elapsed:.2f} s")
            assert cert.undecided_count == 0, target.value
            assert not cert.stats.budget_exhausted
            assert elapsed <= 60.0

        # delta = 0: nothing excluded, the box holding (1, 1) is proven >= 0,
        # or, for a target proven by its identity, there is no box at all
        for target in Target:
            cert = certify(CertificationTask(target=target, delta=0.0))
            print(f"  {target.value} at delta=0: "
                  f"boxes={cert.stats.boxes_processed} "
                  f"corner_box={cert.corner.T.tolist()}")
            assert cert.undecided_count == 0, target.value
            assert not cert.stats.budget_exhausted
            assert cert.corner.shape[1] == (0 if cert.identity is not None else 1)

        rep = corner_argument_check(1e-3)
        assert rep.both_positive
        assert rep.equal_legs_factor.domain_lo == 1.0 - 2e-3
        assert rep.equal_base_factor.domain_lo == 1.0 - 2e-3
        assert rep.equal_legs_factor.domain_hi == 1.0 - 1e-6


def test_criterion_5_consistency_oracles(sweep):
    with criterion("5 (consistency oracles)"):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([SEED, 2])))

        # factored isosceles forms against the direct slack, 1e4 points each;
        # 1e-10 relative with the c*m_c normalizer as the absolute floor
        for factor, lo in ((bulk.equal_legs_second_factor, 0.5 + 1e-6),
                           (bulk.equal_base_second_factor, 1e-6)):
            xs = rng.uniform(lo, 1.0, 10_000)
            for xv in xs:
                factored = (1.0 - math.sqrt(xv)) * factor(_MathOps, float(xv))
                sides = (xv, xv, 1.0) if lo > 0.5 else (xv, 1.0, 1.0)
                t = validate_sides(*sides)
                direct = 2.0 * float(
                    bulk.slack_main_arrays(t.a, t.b, t.c,
                                           *bulk.medians(
                                               _FloatOps, np.float64(t.a), np.float64(t.b),
                                               np.float64(t.c)))
                )
                floor = t.c * medians(t).lc
                assert abs(factored - direct) <= 1e-10 * max(
                    abs(factored), abs(direct), floor
                )

        # normalized two-variable slack against the direct route, 1e5 points
        x, y = sweep["x"][:100_000], sweep["y"][:100_000]
        mxa, mxb, mxc = bulk.medians(_FloatOps, x, y, 1.0)
        direct = 2.0 * bulk.slack_main_arrays(x, y, 1.0, mxa, mxb, mxc)
        fvals = point_values(Target.MAIN_MEDIAN, x, y)
        floor = 1.0 * mxc
        assert (np.abs(fvals - direct)
                <= 1e-10 * np.maximum.reduce([np.abs(fvals), np.abs(direct),
                                              floor])).all()

        # Stewart feet at one half reproduce the medians
        a, b, c = sweep["a"], sweep["b"], sweep["c"]
        ga, gb, gc = bulk.general_cevians_arrays(a, b, c, 0.5, 0.5, 0.5)
        for gv, mv in zip((ga, gb, gc), sweep["medians"]):
            assert (np.abs(gv - mv) <= 1e-12 * mv).all()


def test_criterion_6_interval_soundness(certificates):
    with criterion("6 (interval soundness)"):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([SEED, 3])))
        for target in Target:
            xlo, xhi, ylo, yhi = sample_domain_boxes(rng, 100_000)
            n = xlo.shape[0]

            # containment of interior point evaluations (clamped lerp)
            px = np.minimum(xlo + rng.uniform(0, 1, n) * (xhi - xlo), xhi)
            py = np.minimum(ylo + rng.uniform(0, 1, n) * (yhi - ylo), yhi)
            flo, fhi = natural_enclosure(target, xlo, xhi, ylo, yhi)
            values = point_values(target, px, py)
            assert (flo <= values).all() and (values <= fhi).all()

            # inclusion isotonicity on nested boxes
            qx = 0.25 * (xhi - xlo)
            qy = 0.25 * (yhi - ylo)
            ilo, ihi = natural_enclosure(target, xlo + qx, xhi - qx,
                                         ylo + qy, yhi - qy)
            assert (flo <= ilo).all() and (ihi <= fhi).all()

        # every proven certificate box passes interior sampling
        for target, (cert, _) in certificates.items():
            xlo, xhi, ylo, yhi = cert.proven
            n = cert.proven_count
            u = rng.uniform(0.0, 1.0, (1000, n))
            v = rng.uniform(0.0, 1.0, (1000, n))
            px = xlo + u * (xhi - xlo)
            py = ylo + v * (yhi - ylo)
            inside = bulk.in_normalized_domain(px, py)
            assert (point_values(target, px[inside], py[inside]) > 0.0).all()


def test_criterion_7a_unconstrained_search():
    with criterion("7a (unconstrained search finds violations)"):
        rep = search(SearchConfig(seed=42, samples=100_000,
                                  mode=SearchMode.UNCONSTRAINED))
        assert len(rep.violations) >= 1
        assert all(is_confirmed_violation(v) for v in rep.violations)


def _oracle_gaps_and_slacks(sides, feet):
    """The four constraint differences and both target slacks at 50 digits.

    Only tests/oracles.py is used: Cevians from planar coordinates, the
    constraints la >= lb >= lc and b*lb >= max(a*la, c*lc) as differences.
    """
    la, lb, lc = general_cevians_hp(*sides, *feet)
    a, b, c = (mp.mpf(s) for s in sides)
    gaps = (la - lb, lb - lc, b * lb - a * la, b * lb - c * lc)
    slacks = (slack_main_hp(a, b, c, la, lb, lc),
              slack_quadratic_hp(a, b, c, la, lb, lc))
    return gaps, slacks


def test_criterion_7b_open_problem_expectation():
    with criterion("7b (open-problem search: constrained counterexamples "
                   "exist and every reported one is genuine)"):
        # (a) the constraints do not force the inequalities: gaps about
        # 0.2987, 3.96e-4, 0.6002, 3.96e-4 and slacks about -0.0582, -0.2710
        gaps, slacks = _oracle_gaps_and_slacks(COUNTEREXAMPLE_SIDES,
                                               COUNTEREXAMPLE_FEET)
        assert min(gaps) > 1e-4
        assert max(slacks) < -0.05

        rep = search(SearchConfig(seed=7, samples=1_000_000,
                                  mode=SearchMode.OPEN_PROBLEM))
        rerun = search(SearchConfig(seed=7, samples=1_000_000,
                                    mode=SearchMode.OPEN_PROBLEM))
        assert rep.to_report_dict() == rerun.to_report_dict()
        assert all(c.min_slack >= 0.0 for c in rep.near_misses)

        # (b) the search finds them: 39,812 of the 358,201
        # constraint-satisfying samples at this seed are negative
        assert rep.totals["reverified_violations"] >= 1

        # (c) each reported violation is genuine in exact terms
        for v in rep.violations:
            gaps, slacks = _oracle_gaps_and_slacks(
                (v.sides.a, v.sides.b, v.sides.c),
                (v.feet.ta, v.feet.tb, v.feet.tc))
            assert min(slacks) < 0, v.index
            assert min(gaps) >= 0, v.index

        worst = rep.violations[0]
        print(
            f"\n  {rep.totals['constrained_negative']} of "
            f"{rep.totals['constraint_satisfying']} constraint-satisfying "
            "samples violate a target inequality;\n"
            f"  {len(rep.violations)} reported, all confirmed by the oracles."
            f"\n  Most negative: sides="
            f"{[worst.sides.a, worst.sides.b, worst.sides.c]}"
            f" feet={[worst.feet.ta, worst.feet.tb, worst.feet.tc]}"
            f" min_slack={worst.min_slack:.6g}"
        )


def test_criterion_8_reproducibility(tmp_path):
    with criterion("8 (byte-identical reports)"):
        def run_to(path, args):
            assert cli_main(args + ["-o", str(path)]) in (0, 1)
            return json.loads(path.read_text())

        search_args = ["search", "--mode", "open-problem", "--samples",
                       "200000", "--seed", "11", "--refine-steps", "25"]
        d1 = run_to(tmp_path / "s1.json", search_args + ["--workers", "1"])
        d2 = run_to(tmp_path / "s2.json", search_args + ["--workers", "1"])
        d4 = run_to(tmp_path / "s4.json", search_args + ["--workers", "4"])
        assert reproducible_bytes(d1) == reproducible_bytes(d2)
        d1["manifest"]["config"]["workers"] = 4
        assert reproducible_bytes(d1) == reproducible_bytes(d4)

        cert_args = ["certify", "--target", "key-system"]
        c1 = run_to(tmp_path / "c1.json", cert_args)
        c2 = run_to(tmp_path / "c2.json", cert_args)
        assert reproducible_bytes(c1) == reproducible_bytes(c2)

        assert cli_main(["table", "--density", "101",
                         "-o", str(tmp_path / "t1.csv")]) == 0
        assert cli_main(["table", "--density", "101",
                         "-o", str(tmp_path / "t2.csv")]) == 0
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
