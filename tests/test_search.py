from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from cevians import bulk
from cevians.exceptions import CevianError
from cevians.intervals import Interval
from cevians.kernel import (
    GeneralCevianParams,
    altitudes,
    bisectors,
    medians,
    validate_sides,
)
from cevians.inequalities import tolerance_scale
from cevians.search import (
    SHARD_SIZE,
    CandidateRecord,
    SearchConfig,
    SearchMode,
    constraint_filter,
    evaluate_candidate,
    is_confirmed_violation,
    refine,
    reverify_candidate,
    search,
    shard_rng,
)

import oracles
from test_kernel import triangle_strategy

# Hand-checkable answer to the constrained question, verified at 50 digits:
# ordinary triangle, both constraints hold, both target slacks negative.
COUNTEREXAMPLE_SIDES = (0.1, 1.0, 1.0)
COUNTEREXAMPLE_FEET = (0.5, 0.6979, 0.3025)

# A refined open-problem candidate (seed 838802048, 65536 samples, index
# 47440) pushed onto the constraint boundary: binary64 accepts
# b*lb >= c*lc, but at 50 digits b*lb - c*lc = -1.49e-17.
BOUNDARY_SIDES = (1.5197120321862864e-12, 0.999999999999212, 1.0)
BOUNDARY_FEET = (0.999899990697116, 0.9998999999990017, 0.00010000000099812902)


def reference_refine(cand, steps, mode=SearchMode.UNCONSTRAINED,
                     foot_margin=1e-4):
    """One candidate's pattern search, one scalar probe at a time.

    The loop that ``refine`` runs for all candidates together, kept here
    as the reference it must match record for record.
    """
    if steps <= 0:
        return cand

    c0 = cand.sides.c
    vec = [
        cand.sides.a / c0,
        cand.sides.b / c0,
        cand.feet.ta,
        cand.feet.tb,
        cand.feet.tc,
    ]

    def build(v):
        x, y, ta, tb, tc = v
        if not (x <= y <= 1.0):
            return None
        for tt in (ta, tb, tc):
            if not (foot_margin <= tt <= 1.0 - foot_margin):
                return None
        try:
            t = validate_sides(x * c0, y * c0, c0)
            probe = evaluate_candidate(t, GeneralCevianParams(ta, tb, tc),
                                       cand.index)
        except (CevianError, ValueError):
            return None
        if t.c != c0 or t.a != x * c0:  # sorting changed roles; reject
            return None
        if mode is SearchMode.OPEN_PROBLEM and not probe.constraints_ok:
            return None
        return probe

    best = cand
    step = 0.05
    for _ in range(steps):
        improved = False
        for i in range(5):
            for sgn in (1.0, -1.0):
                trial = list(vec)
                trial[i] += sgn * step
                probe = build(trial)
                if probe is not None and probe.min_slack < best.min_slack:
                    best = probe
                    vec = trial
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    if best is cand:
        return cand
    return replace(best, refined=True)


def reference_reverify(cand):
    """One candidate's re-verification in scalar ``Interval`` arithmetic.

    What ``reverify_candidate`` computes for all candidates in one array
    pass, kept here as the reference it must match bit for bit.
    """
    a = Interval.point(cand.sides.a)
    b = Interval.point(cand.sides.b)
    c = Interval.point(cand.sides.c)
    one = Interval.point(1.0)

    def cevian_sq(u, v, w, t):
        # Stewart: v^2*t + w^2*(1-t) - u^2*t*(1-t) for the vertex opposite u
        it = Interval.point(t)
        rem = one - it
        return v * v * it + w * w * rem - u * u * it * rem

    da = cevian_sq(a, b, c, cand.feet.ta).sqrt()
    db = cevian_sq(b, c, a, cand.feet.tb).sqrt()
    dc = cevian_sq(c, a, b, cand.feet.tc).sqrt()

    s1 = ((b * c).sqrt() - a) * da + ((a * c).sqrt() - b) * db + ((a * b).sqrt() - c) * dc
    s2 = (b * c - a * a) * da + (a * c - b * b) * db + (a * b - c * c) * dc
    pb = b * db
    gaps = (da - db, db - dc, pb - a * da, pb - c * dc)
    return replace(
        cand,
        reverified=True,
        slack1_upper=s1.hi,
        slack2_upper=s2.hi,
        constraint_lower=min(g.lo for g in gaps),
    )


def edge_pool():
    """Candidates at the edges of the refinement domain, plus sampled ones."""
    specs = [
        (BOUNDARY_SIDES, BOUNDARY_FEET),
        (COUNTEREXAMPLE_SIDES, COUNTEREXAMPLE_FEET),
        ((1e-12, 1.0, 1.0), (0.3, 0.6, 0.9)),            # needle
        ((2e-12, 0.9999999999995, 1.0), (0.5, 0.9, 0.1)),
        ((0.7, 0.7 + 1e-13, 1.0), (0.2, 0.8, 0.5)),       # near-isosceles
        ((0.8, 1.0 - 1e-14, 1.0), (0.6, 0.4, 0.7)),
        ((1.0 - 1e-9, 1.0 - 1e-10, 1.0), (0.5, 0.5, 0.5)),  # near (1, 1)
        ((1.0, 1.0, 1.0), (0.49, 0.5, 0.51)),
        ((0.6, 0.8, 1.0), (1e-4, 1.0 - 1e-4, 0.5)),       # feet at the margin
        ((0.55, 0.75, 1.0), (1.0 - 1e-4, 1e-4, 1e-4)),
        ((3.0, 4.0, 5.0), (0.99, 0.5, 0.01)),             # c0 != 1
        ((0.003, 0.004, 0.005), (0.4, 0.5, 0.6)),
        ((0.1, 7.25, 7.3), (0.5, 0.7, 0.3)),
        ((4.0, 4.5, 5.0), (0.5, 0.5, 0.5)),
    ]
    pool = [
        evaluate_candidate(validate_sides(*sides), GeneralCevianParams(*feet), i)
        for i, (sides, feet) in enumerate(specs)
    ]
    rng = shard_rng(2024, 0)
    x, y = bulk.sample_normalized_points(rng, 12)
    feet = rng.uniform(1e-4, 1.0 - 1e-4, (12, 3))
    for k in range(12):
        pool.append(evaluate_candidate(
            validate_sides(x[k], y[k], 1.0),
            GeneralCevianParams(*feet[k]), 100 + k,
        ))
    return pool


class TestSampling:
    def test_acceptance_rate_matches_region_area(self):
        # the acceptance region is a triangle of area 1/4 in the unit square
        rng = shard_rng(99, 0)
        u = rng.random(1_000_000)
        v = rng.random(1_000_000)
        rate = bulk.in_normalized_domain(u, v).mean()
        assert abs(rate - 0.25) < 0.25 * 0.01

    def test_shard_rng_split_is_documented_function(self):
        a = shard_rng(5, 3).random(4)
        b = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([5, 3]))
        ).random(4)
        assert np.array_equal(a, b)


class TestConstraintFilter:
    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_median_and_bisector_families_pass(self, t):
        # the filter uses exact float comparisons; within an ulp of an
        # isosceles configuration rounding can flip an equality, so the
        # property is asserted away from that sliver (equality itself is fine)
        assume_gap = lambda u, v: u == v or v - u > 1e-9 * v
        if not (assume_gap(t.a, t.b) and assume_gap(t.b, t.c)):
            return
        assert constraint_filter(t, medians(t))
        assert constraint_filter(t, bisectors(t))

    @given(triangle_strategy())
    @settings(max_examples=200)
    def test_altitude_products_equal_within_rounding(self, t):
        # a*h_a = b*h_b = c*h_c exactly in real arithmetic, so the exact
        # filter comparison sits on an equality edge; assert the products
        # agree to rounding instead
        h = altitudes(t)
        products = [t.a * h.la, t.b * h.lb, t.c * h.lc]
        spread = max(products) - min(products)
        assert spread <= 8 * np.finfo(float).eps * max(products)
        assert h.la >= h.lb >= h.lc

    def test_recorded_evaluation_for_arbitrary_feet(self):
        t = validate_sides(3, 4, 5)
        cand = evaluate_candidate(t, GeneralCevianParams(0.99, 0.5, 0.01))
        assert not cand.constraints_ok
        assert cand.slack1 < 0 and cand.slack2 < 0


class TestCandidateRecord:
    def test_min_slack_invariant(self):
        t = validate_sides(3, 4, 5)
        cand = evaluate_candidate(t, GeneralCevianParams(0.5, 0.5, 0.5))
        assert cand.min_slack == min(cand.slack1, cand.slack2)
        with pytest.raises(ValueError):
            CandidateRecord(
                sides=cand.sides, feet=cand.feet, cevians=cand.cevians,
                slack1=1.0, slack2=2.0, constraints_ok=True, min_slack=0.5,
                index=0,
            )

    def test_midpoint_feet_reproduce_median_slacks(self):
        from cevians.inequalities import slack_main, slack_quadratic

        t = validate_sides(2, 3, 4)
        cand = evaluate_candidate(t, GeneralCevianParams(0.5, 0.5, 0.5))
        m = medians(t)
        assert abs(cand.slack1 - slack_main(t, m).value) < 1e-12
        assert abs(cand.slack2 - slack_quadratic(t, m).value) < 1e-12


class TestReverification:
    def test_confirms_genuine_violation(self):
        t = validate_sides(3, 4, 5)
        cand = evaluate_candidate(t, GeneralCevianParams(0.99, 0.5, 0.01))
        (checked,) = reverify_candidate([cand])
        assert is_confirmed_violation(checked)
        assert checked.slack1_upper < 0 and checked.slack2_upper < 0
        assert abs(checked.slack1_upper - cand.slack1) < 1e-10

    def test_does_not_confirm_positive_slacks(self):
        t = validate_sides(3, 4, 5)
        cand = evaluate_candidate(t, GeneralCevianParams(0.5, 0.5, 0.5))
        (checked,) = reverify_candidate([cand])
        assert not is_confirmed_violation(checked)

    def test_constrained_counterexample_is_real(self):
        t = validate_sides(*COUNTEREXAMPLE_SIDES)
        cand = evaluate_candidate(t, GeneralCevianParams(*COUNTEREXAMPLE_FEET))
        assert cand.constraints_ok
        assert cand.slack1 < -0.05 and cand.slack2 < -0.25
        assert is_confirmed_violation(reverify_candidate([cand])[0])

    def test_constraints_are_certified_not_rounded(self):
        t = validate_sides(*BOUNDARY_SIDES)
        cand = evaluate_candidate(t, GeneralCevianParams(*BOUNDARY_FEET), 47440)
        (checked,) = reverify_candidate([cand])
        assert cand.constraints_ok
        assert checked.slack1_upper < 0 and checked.slack2_upper < 0
        assert is_confirmed_violation(checked)
        assert checked.constraint_lower < 0
        assert not is_confirmed_violation(checked, SearchMode.OPEN_PROBLEM)
        _, lb, lc = oracles.general_cevians_hp(*BOUNDARY_SIDES, *BOUNDARY_FEET)
        assert BOUNDARY_SIDES[1] * lb - BOUNDARY_SIDES[2] * lc < 0

        t = validate_sides(*COUNTEREXAMPLE_SIDES)
        (witness,) = reverify_candidate(
            [evaluate_candidate(t, GeneralCevianParams(*COUNTEREXAMPLE_FEET))]
        )
        assert witness.constraint_lower > 0
        assert is_confirmed_violation(witness, SearchMode.OPEN_PROBLEM)


    def test_empty_list(self):
        assert reverify_candidate([]) == []

    @pytest.mark.filterwarnings("error")
    def test_batch_matches_scalar_reference(self):
        # edge_pool() holds the (0.1, 1, 1) witness and the seed-838802048
        # index-47440 candidate; the refined pools add the negative
        # candidates that search() re-verifies.
        base = edge_pool()
        pool = (base + refine(base, 50, SearchMode.UNCONSTRAINED)
                + refine(base, 50, SearchMode.OPEN_PROBLEM))
        out = reverify_candidate(pool)
        assert len(out) == len(pool)
        for cand, got in zip(pool, out):
            want = reference_reverify(cand)
            for field in ("slack1_upper", "slack2_upper", "constraint_lower"):
                assert getattr(got, field).hex() == getattr(want, field).hex()
            assert got.to_dict() == want.to_dict()
        assert any(is_confirmed_violation(c, SearchMode.OPEN_PROBLEM) for c in out)
        assert any(c.constraint_lower < 0 for c in out)


class TestRefine:
    def test_zero_steps_returns_input(self):
        t = validate_sides(3, 4, 5)
        cand = evaluate_candidate(t, GeneralCevianParams(0.4, 0.5, 0.6))
        (out,) = refine([cand], 0)
        assert out is cand

    def test_empty_list(self):
        assert refine([], 30) == []
        assert refine([], 0) == []

    def test_descent_is_monotone(self):
        t = validate_sides(3, 4, 5)
        cand = evaluate_candidate(t, GeneralCevianParams(0.99, 0.5, 0.01))
        (refined,) = refine([cand], 40, SearchMode.UNCONSTRAINED)
        assert refined.min_slack <= cand.min_slack
        assert refined.index == cand.index

    def test_open_problem_projection_keeps_constraints(self):
        t = validate_sides(0.6, 0.8, 1.0)
        cand = evaluate_candidate(t, GeneralCevianParams(0.5, 0.5, 0.5))
        (refined,) = refine([cand], 60, SearchMode.OPEN_PROBLEM)
        assert refined.constraints_ok
        assert refined.min_slack <= cand.min_slack

    def test_deterministic(self):
        t = validate_sides(0.55, 0.75, 1.0)
        cand = evaluate_candidate(t, GeneralCevianParams(0.3, 0.6, 0.7))
        (a,) = refine([cand], 30, SearchMode.OPEN_PROBLEM)
        (b,) = refine([cand], 30, SearchMode.OPEN_PROBLEM)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", list(SearchMode))
    @pytest.mark.parametrize("steps", [1, 7, 200])
    def test_batch_matches_scalar_reference(self, mode, steps):
        pool = edge_pool()
        out = refine(pool, steps, mode)
        assert len(out) == len(pool)
        moved = 0
        for cand, got in zip(pool, out):
            want = reference_refine(cand, steps, mode)
            assert got.to_dict() == want.to_dict()
            assert (got is cand) == (want is cand)
            moved += got is not cand
        assert moved > 0


class TestSearch:
    def test_unconstrained_finds_reverified_violations(self):
        rep = search(SearchConfig(seed=42, samples=30_000,
                                  mode=SearchMode.UNCONSTRAINED, refine_steps=30))
        assert len(rep.violations) >= 1
        assert all(is_confirmed_violation(v) for v in rep.violations)
        assert rep.totals["raw_negative"] > 0
        assert rep.totals["sampled"] == 30_000

    def test_open_problem_mechanics(self):
        rep = search(SearchConfig(seed=7, samples=30_000,
                                  mode=SearchMode.OPEN_PROBLEM, refine_steps=20))
        for cand in rep.violations:
            assert cand.constraints_ok
            assert is_confirmed_violation(cand, SearchMode.OPEN_PROBLEM)
        for cand in rep.near_misses:
            assert cand.constraints_ok
            assert not is_confirmed_violation(cand)
        assert all(c.min_slack >= 0.0 for c in rep.near_misses)

    def test_open_problem_drops_uncertified_constraints(self):
        rep = search(SearchConfig(seed=838802048, samples=65536, record_top=50,
                                  mode=SearchMode.OPEN_PROBLEM))
        assert 47440 not in {c.index for c in rep.violations}
        assert all(is_confirmed_violation(c, SearchMode.OPEN_PROBLEM)
                   for c in rep.violations)
        assert all(c.min_slack >= 0.0 for c in rep.near_misses)

    def test_median_feet_never_violate(self):
        # the sanity sub-run: substituting midpoint feet must never produce
        # violations, matching the median inequalities
        x, y = bulk.sample_normalized_points(shard_rng(3, 0), 200)
        for i in range(200):
            t = validate_sides(x[i], y[i], 1.0)
            cand = evaluate_candidate(t, GeneralCevianParams(0.5, 0.5, 0.5), i)
            assert cand.constraints_ok
            scale = tolerance_scale(t, cand.cevians)
            assert cand.min_slack >= -1e-12 * scale

    def test_reproducibility_and_worker_invariance(self):
        cfg = dict(seed=42, samples=3 * SHARD_SIZE + 17,
                   mode=SearchMode.UNCONSTRAINED, refine_steps=10)
        a = search(SearchConfig(**cfg)).to_report_dict()
        b = search(SearchConfig(**cfg)).to_report_dict()
        c = search(SearchConfig(**cfg, workers=4)).to_report_dict()
        assert a == b == c

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, samples=0, mode=SearchMode.UNCONSTRAINED)
        with pytest.raises(ValueError):
            SearchConfig(seed=1, samples=10, mode=SearchMode.UNCONSTRAINED,
                         record_top=0)
        with pytest.raises(ValueError):
            SearchConfig(seed=1, samples=10, mode=SearchMode.UNCONSTRAINED,
                         workers=0)

    def test_mode_names(self):
        assert SearchMode("open-problem") is SearchMode.OPEN_PROBLEM
        with pytest.raises(ValueError):
            SearchMode("bogus")

    def test_report_dict_shape(self):
        rep = search(SearchConfig(seed=1, samples=2000,
                                  mode=SearchMode.OPEN_PROBLEM, refine_steps=5))
        doc = rep.to_report_dict()
        assert set(doc) == {"mode", "seed", "samples", "record_top",
                            "refine_steps", "outcome", "totals", "violations",
                            "near_misses"}
        for row in doc["violations"]:
            assert row["reverify"]["slack1_upper"] is not None
        if doc["violations"]:
            assert doc["outcome"] == "violations found - re-verified"
        else:
            assert doc["outcome"] == "no violations (consistent with open status)"
