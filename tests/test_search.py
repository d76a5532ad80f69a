import hashlib
import importlib
import itertools
import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevians import bulk, cli
from cevians.exceptions import CevianError
from cevians.intervals import Interval, _FloatOps
from cevians.kernel import (
    GeneralCevianParams,
    altitudes,
    bisectors,
    general_cevians,
    medians,
    validate_sides,
)
from cevians.inequalities import open_problem_slacks, tolerance_scale
from cevians.reports import canonical_json, reproducible_bytes
from cevians.search import (
    FOOT_MARGIN,
    MAX_RECORD_TOP,
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

# the number of samples a shard's plan evaluates at once
_BLOCK = importlib.import_module("cevians.search")._BLOCK

# Hand-checkable answer to the constrained question, verified at 50 digits:
# ordinary triangle, both constraints hold, both target slacks negative.
COUNTEREXAMPLE_SIDES = (0.1, 1.0, 1.0)
COUNTEREXAMPLE_FEET = (0.5, 0.6979, 0.3025)

# A refined open-problem candidate pushed onto the constraint boundary:
# binary64 accepts b*lb >= c*lc and finds a slack negative, but at 50
# digits b*lb - c*lc = -1.49e-17.
BOUNDARY_SIDES = (1.5197120321862864e-12, 0.999999999999212, 1.0)
BOUNDARY_FEET = (0.999899990697116, 0.9998999999990017, 0.00010000000099812902)

# Candidates whose first unconstrained sweep (step 0.05) moves each of
# (x, y, ta, tb, tc) by the sign given: a move only at the last probe
# (-step on tc), and a move on every coordinate in one sweep, ending at
# the last probe or just before it.
SWEEP_CASES = [
    ((0.09, 0.96, 1.0), (0.9999, 0.95, 0.5), (0, 0, 0, 0, -1)),
    ((0.83, 0.94, 1.0), (0.83, 0.2, 0.1), (-1, -1, -1, -1, -1)),
    ((0.77, 0.88, 1.0), (0.44, 0.93, 0.86), (1, 1, 1, 1, 1)),
]


def reference_candidate(t, p, index=-1):
    """One candidate's record by the scalar API, one formula at a time.

    The chain of typed kernel and slack functions that ``evaluate_candidate``
    replaces with one stacked kernel call, kept here as its reference.
    """
    cv = general_cevians(t, p)
    r1, r2 = open_problem_slacks(t, cv)
    s1, s2 = r1.value, r2.value
    return CandidateRecord(
        sides=t,
        feet=p,
        cevians=cv,
        slack1=s1,
        slack2=s2,
        constraints_ok=constraint_filter(t, cv),
        min_slack=min(s1, s2),
        index=index,
    )


def reference_probe(v, c0, mode, index=-1):
    """The record of probe v = (x, y, ta, tb, tc) with c pinned at c0, or None.

    The acceptance rule of one probe of ``reference_refine``, evaluated by
    ``reference_candidate``.
    """
    x, y, ta, tb, tc = v
    if not (x <= y <= 1.0):
        return None
    for tt in (ta, tb, tc):
        if not (FOOT_MARGIN <= tt <= 1.0 - FOOT_MARGIN):
            return None
    try:
        t = validate_sides(x * c0, y * c0, c0)
        probe = reference_candidate(t, GeneralCevianParams(ta, tb, tc), index)
    except (CevianError, ValueError):
        return None
    if t.c != c0 or t.a != x * c0:  # sorting changed roles; reject
        return None
    if mode is SearchMode.OPEN_PROBLEM and not probe.constraints_ok:
        return None
    return probe


def reference_refine(cand, steps, mode=SearchMode.UNCONSTRAINED):
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

    best = cand
    step = 0.05
    for _ in range(steps):
        improved = False
        for i in range(5):
            for sgn in (1.0, -1.0):
                trial = list(vec)
                trial[i] += sgn * step
                probe = reference_probe(trial, c0, mode, cand.index)
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
    ] + [(sides, feet) for sides, feet, _ in SWEEP_CASES]
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


class _ScriptedRng:
    """Serves scripted uniforms first, then falls back to a real generator."""

    def __init__(self, scripted, rng):
        self.scripted = [np.array(u, dtype=float) for u in scripted]
        self.rng = rng
        self.calls = []

    def random(self, *, out):
        # the sampler draws into its rows, as Generator.random(out=...)
        self.calls.append(out.size)
        if self.scripted:
            u = self.scripted.pop(0)
            assert u.size == out.size
            out[...] = u
            return out
        return self.rng.random(out=out)


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov distance between a sample and a continuous CDF."""
    f = cdf(np.sort(samples))
    n = f.size
    return max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


class TestSampling:
    def test_points_lie_in_strict_domain_and_follow_exact_marginals(self):
        n = 1 << 20
        x, y = bulk.sample_normalized_points(shard_rng(17, 0), n)
        assert bulk.in_normalized_domain(x, y).all()
        # density 4 on a triangle of area 1/4: x is triangular on [0, 1]
        # with mode 1/2, and P(Y <= y) = (2y - 1)^2 on [1/2, 1]
        def x_cdf(t):
            return np.where(t <= 0.5, 2.0 * t * t, 1.0 - 2.0 * (1.0 - t) ** 2)

        def y_cdf(t):
            return (2.0 * t - 1.0) ** 2

        bound = 1.95 / np.sqrt(n)  # 0.1% level
        assert ks_statistic(x, x_cdf) < bound
        assert ks_statistic(y, y_cdf) < bound

    def test_points_off_the_strict_domain_are_redrawn(self):
        # u = 0 maps onto the edge x + y = 1, and u = v = 0 onto (0, 1);
        # the third point folds to (0.3, 0.4) and stays
        rng = _ScriptedRng([[0.0, 0.0, 0.7], [0.3, 0.0, 0.6]], shard_rng(1, 0))
        x, y = bulk.sample_normalized_points(rng, 3)
        assert rng.calls == [3, 3, 2, 2]
        assert bulk.in_normalized_domain(x, y).all()
        assert (x[2], y[2]) == ((1.0 - 0.7) + 0.5 * (1.0 - 0.6),
                                1.0 - 0.5 * (1.0 - 0.6))

    def test_output_is_determined_by_generator_state(self):
        a = bulk.sample_normalized_points(shard_rng(8, 2), 1000)
        b = bulk.sample_normalized_points(shard_rng(8, 2), 1000)
        assert all(np.array_equal(p, q) for p, q in zip(a, b))

    @pytest.mark.parametrize("seed, n", [(9, 5000), (0, 1), (3, 17),
                                         (41, SHARD_SIZE - 1), (2**63 + 5, SHARD_SIZE)])
    def test_consumes_two_uniforms_per_point(self, seed, n):
        # the branch-free fold gives the bits of the select it replaced
        rng, ref = shard_rng(seed, 0), shard_rng(seed, 0)
        x, y = bulk.sample_normalized_points(rng, n)
        u, v = ref.random(n), ref.random(n)
        assert rng.bit_generator.state == ref.bit_generator.state
        fold = u + v > 1.0
        u, v = np.where(fold, 1.0 - u, u), np.where(fold, 1.0 - v, v)
        assert np.array_equal(x.view(np.uint64), (u + 0.5 * v).view(np.uint64))
        assert np.array_equal(y.view(np.uint64), (1.0 - 0.5 * v).view(np.uint64))

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    @pytest.mark.parametrize("n", [1, 17, SHARD_SIZE - 1, SHARD_SIZE])
    def test_feet_drawn_in_place_are_the_uniform_draws(self, seed, n):
        # random(out=) and the affine map give the bits of uniform(), and
        # leave the stream where it does
        draw_feet = importlib.import_module("cevians.search")._draw_feet
        rng, ref = shard_rng(seed, 1), shard_rng(seed, 1)
        t = np.empty(n)
        draw_feet(rng, t)
        want = ref.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, n)
        assert np.array_equal(t.view(np.uint64), want.view(np.uint64))
        assert rng.random() == ref.random()

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


def record_fields(cand):
    """Every reported field of a record, floats as hex; checks their Python types."""
    floats = (*cand.sides.as_tuple(), *cand.feet.as_tuple(),
              *cand.cevians.as_tuple(), cand.slack1, cand.slack2, cand.min_slack)
    assert all(type(v) is float for v in floats)
    assert type(cand.constraints_ok) is bool and type(cand.index) is int
    return ([v.hex() for v in floats], cand.cevians.kind,
            cand.constraints_ok, cand.index)


class TestCandidateRecord:
    def test_evaluate_candidate_matches_the_scalar_chain(self):
        pool = edge_pool()
        rng = shard_rng(2025, 0)
        x, y = bulk.sample_normalized_points(rng, 2000)
        c = rng.uniform(0.1, 10.0, 2000)
        feet = rng.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, (2000, 3))
        specs = [(cand.sides, cand.feet, cand.index) for cand in pool] + [
            (validate_sides(x[k] * c[k], y[k] * c[k], c[k]),
             GeneralCevianParams(*feet[k].tolist()), k)
            for k in range(2000)
        ]
        ok = 0
        for t, p, index in specs:
            got = evaluate_candidate(t, p, index)
            assert record_fields(got) == record_fields(reference_candidate(t, p, index))
            ok += got.constraints_ok
        assert 0 < ok < len(specs)

    def test_overflow_rows_raise_in_both(self):
        trial, c0 = kernel_rows()
        raised = 0
        for k in np.flatnonzero(c0 == 1e160):
            x, y, ta, tb, tc = trial[:, k].tolist()
            try:
                t = validate_sides(x * c0[k], y * c0[k], c0[k])
                p = GeneralCevianParams(ta, tb, tc)
            except CevianError:
                continue
            with pytest.raises(CevianError):
                reference_candidate(t, p)
            with pytest.raises(CevianError):
                evaluate_candidate(t, p)
            raised += 1
        assert raised > 0

    @pytest.mark.parametrize("slot", range(2))
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_slacks_must_be_finite(self, slot, bad):
        cand = evaluate_candidate(validate_sides(3, 4, 5),
                                  GeneralCevianParams(0.5, 0.5, 0.5))
        slacks = [cand.slack1, cand.slack2]
        slacks[slot] = bad
        with pytest.raises(CevianError, match="slacks must be finite"):
            replace(cand, slack1=slacks[0], slack2=slacks[1],
                    min_slack=min(slacks))

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
        # edge_pool() holds the (0.1, 1, 1) witness and the constraint
        # boundary candidate; the refined pools add the negative
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


def kernel_rows():
    """Columns (x, y, ta, tb, tc) and c0 for the stacked kernel.

    The edge_pool() candidates, their ten probes at two steps, and rows
    outside the domain: negative Stewart radicands (x + y < 1), x > y,
    x = +-0, x < 0, y > 1, feet on and just past the margin, with c0 in
    {0.005, 5, 7.3, 1e160}; at 1e160 the squares overflow.
    """
    rows = []
    for cand in edge_pool():
        c0 = cand.sides.c
        vec = [cand.sides.a / c0, cand.sides.b / c0, *cand.feet.as_tuple()]
        rows.append((*vec, c0))
        for step in (0.05, 1e-9):
            for i in range(5):
                for sgn in (1.0, -1.0):
                    trial = list(vec)
                    trial[i] += sgn * step
                    rows.append((*trial, c0))
    m = FOOT_MARGIN
    for c0 in (0.005, 5.0, 7.3, 1e160):
        for x, y in ((0.1, 0.2), (0.3, 0.6), (0.9, 0.6), (0.0, 1.0),
                     (-0.0, 0.5), (-0.1, 0.8), (0.5, 1.2), (0.7, 0.8)):
            for feet in ((0.5, 0.5, 0.5), (m, 1.0 - m, m), (1.0 - m, m, 0.5),
                         (m - 1e-12, 0.5, 0.5), (0.5, 1.0 - m + 1e-12, 0.5),
                         (0.2, 0.9, 0.6)):
                rows.append((x, y, *feet, c0))
    cols = np.array(rows).T.copy()
    return cols[:5], cols[5]


def spelled_out(a, b, c, ta, tb, tc):
    """The IEEE operations each row saw before the stacked kernel."""

    def stewart(u, v, w, t):
        return np.sqrt(((v * v) * t + (w * w) * (1.0 - t))
                       - ((u * u) * t) * (1.0 - t))

    la, lb, lc = stewart(a, b, c, ta), stewart(b, c, a, tb), stewart(c, a, b, tc)
    s1 = (((np.sqrt(b * c) - a) * la + (np.sqrt(a * c) - b) * lb)
          + (np.sqrt(a * b) - c) * lc)
    s2 = ((b * c - a * a) * la + (a * c - b * b) * lb) + (a * b - c * c) * lc
    pb = b * lb
    mask = (la >= lb) & (lb >= lc) & (pb >= a * la) & (pb >= c * lc)
    return (la, lb, lc), s1, s2, mask


def same_bits(got, want):
    # int64 views, so NaN payloads and -0.0 count too
    return np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                          np.asarray(want, dtype=float).view(np.int64))


class TestStackedKernel:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_the_per_vertex_functions_bit_for_bit(self):
        trial, c0 = kernel_rows()
        a, b = trial[0] * c0, trial[1] * c0
        ta, tb, tc = trial[2:]
        sides = np.array([a, b, c0])
        cv, s1, s2 = bulk.cevian_triple_slacks(sides, trial[2:])
        # the mask as _records and open-problem _probe_slacks compute it
        mask = bulk.constraint_mask_arrays(*sides, *cv)
        la, lb, lc = bulk.general_cevians_arrays(a, b, c0, ta, tb, tc)
        per_vertex = (
            (la, lb, lc),
            bulk.slack_main_arrays(a, b, c0, la, lb, lc),
            bulk.slack_quadratic_arrays(a, b, c0, la, lb, lc),
            bulk.constraint_mask_arrays(a, b, c0, la, lb, lc),
        )
        for want in (per_vertex, spelled_out(a, b, c0, ta, tb, tc)):
            assert cv.shape == (3, c0.size)
            assert all(same_bits(cv[k], want[0][k]) for k in range(3))
            assert same_bits(s1, want[1])
            assert same_bits(s2, want[2])
            assert mask.dtype == bool and np.array_equal(mask, want[3])
        # the rows reach NaN and both outcomes of the mask
        assert np.isnan(cv).any() and np.isnan(s1).any()
        assert mask.any() and not mask.all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", list(SearchMode))
    def test_probe_acceptance_matches_the_reference_rule(self, mode):
        trial, c0 = kernel_rows()
        ok, ms = importlib.import_module("cevians.search")._probe_slacks(
            trial, c0, mode)
        accepted = 0
        for k in range(c0.size):
            probe = reference_probe(trial[:, k].tolist(), float(c0[k]), mode)
            assert ok[k] == (probe is not None)
            if probe is not None:
                assert ms[k].hex() == probe.min_slack.hex()
                accepted += 1
        assert 0 < accepted < c0.size

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", list(SearchMode))
    def test_probe_block_matches_the_flat_call(self, mode):
        # a refinement round's block: the ten probes of each edge_pool()
        # candidate at (5, 10, L), with one c0 per candidate
        module = importlib.import_module("cevians.search")
        pool = edge_pool()
        c0 = np.array([cand.sides.c for cand in pool])
        pts = np.array([[cand.sides.a / cand.sides.c, cand.sides.b / cand.sides.c,
                         *cand.feet.as_tuple()] for cand in pool]).T
        delta = np.kron(np.eye(5), [1.0, -1.0])
        for step in (0.05, 1e-9):
            block = pts[:, None] + delta[:, :, None] * step
            ok, ms = module._probe_slacks(block, c0, mode)
            assert ok.shape == ms.shape == (10, len(pool))
            flat_ok, flat_ms = module._probe_slacks(block.reshape(5, -1),
                                                    np.tile(c0, 10), mode)
            assert np.array_equal(ok.ravel(), flat_ok)
            assert same_bits(ms.ravel(), flat_ms)
            assert ok.any() and not ok.all()


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
    # with 3 steps the first two sweeps may wrap into the next one, and
    # the last may not
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 200])
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

    @pytest.mark.parametrize(("sides", "feet", "moves"), SWEEP_CASES)
    def test_sweep_cases_move_as_labelled(self, sides, feet, moves):
        cand = evaluate_candidate(validate_sides(*sides),
                                  GeneralCevianParams(*feet))
        got = reference_refine(cand, 1)
        before = np.array(cand.sides.as_tuple()[:2] + cand.feet.as_tuple())
        after = np.array(got.sides.as_tuple()[:2] + got.feet.as_tuple())
        assert np.allclose(after - before, 0.05 * np.array(moves),
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("mode", list(SearchMode))
    def test_sweep_evaluations_follow_moves_not_probes(self, mode,
                                                      monkeypatch):
        # A call count cannot flake: evaluating the ten probes of a sweep
        # one at a time would make ten calls per sweep; batched rounds make
        # at most one call per sweep plus one per move.
        module = importlib.import_module("cevians.search")
        probe_slacks = module._probe_slacks
        calls = []

        def counted(*args):
            calls.append(args)
            return probe_slacks(*args)

        monkeypatch.setattr(module, "_probe_slacks", counted)
        counts = {}
        refine(edge_pool(), 200, mode, counts=counts)
        assert len(calls) == counts["refine_evaluations"]
        assert len(calls) <= counts["refine_sweeps"] + counts["refine_moves"]
        assert len(calls) < 10 * counts["refine_sweeps"]

    # (refine_sweeps, refine_moves, refine_evaluations) on edge_pool():
    # the records alone do not show the rounds, which any layout of a
    # round's probes must keep
    @pytest.mark.parametrize(("mode", "steps", "want"), [
        (SearchMode.UNCONSTRAINED, 1, (1, 109, 6)),
        (SearchMode.UNCONSTRAINED, 7, (7, 578, 31)),
        (SearchMode.UNCONSTRAINED, 200, (200, 3945, 368)),
        (SearchMode.OPEN_PROBLEM, 1, (1, 56, 6)),
        (SearchMode.OPEN_PROBLEM, 7, (7, 296, 30)),
        (SearchMode.OPEN_PROBLEM, 200, (200, 2224, 305)),
    ])
    def test_round_structure_is_pinned(self, mode, steps, want):
        counts = {}
        refine(edge_pool(), steps, mode, counts)
        assert (counts["refine_sweeps"], counts["refine_moves"],
                counts["refine_evaluations"]) == want

    def test_counts_are_zero_without_sweeps(self):
        counts = {"refine_sweeps": 5}
        cand = evaluate_candidate(validate_sides(3, 4, 5),
                                  GeneralCevianParams(0.99, 0.5, 0.01))
        refine([cand], 0, counts=counts)
        assert counts == {"refine_sweeps": 0, "refine_moves": 0,
                          "refine_evaluations": 0}


class TestMergePool:
    def test_equal_min_slack_across_shards_goes_in_index_order(self):
        merge = importlib.import_module("cevians.search")._merge_pool
        pool = edge_pool()[-4:]  # sampled candidates, c = 1
        cols = np.array([cand.sides.as_tuple() + cand.feet.as_tuple()
                         for cand in pool]).T
        # shard pools list their samples in min_slack order; the ties
        # at 0.0 span both shards and must come out by sample index
        shards = [
            (np.array([3, 1]), np.array([-1.0, 0.0]), cols[:, :2]),
            (np.array([8, 0]), np.array([0.0, 0.0]), cols[:, 2:]),
        ]
        got = merge(shards, 3)
        assert [c.index for c in got] == [3, 0, 1]
        want = {3: pool[0], 1: pool[1], 0: pool[3]}
        assert all(record_fields(c) == record_fields(replace(want[c.index], index=c.index))
                   for c in got)
        assert [c.index for c in merge(shards, 10)] == [3, 0, 1, 8]

    def test_any_grouping_and_order_of_folds_gives_the_same_records(self):
        # each search thread folds the shards it claims, in the order it
        # claims them, into its own pools, and search() merges the threads'
        # pools; every assignment of shards to 1-3 threads, in every claim
        # order, must give the records of one merge of all shard pools
        module = importlib.import_module("cevians.search")
        x, y = bulk.sample_normalized_points(shard_rng(5, 0), 8)
        cols = np.array([x, y, np.ones(8), *np.linspace(0.2, 0.8, 24).reshape(3, 8)])
        # shard k's indices lie in [10k, 10k + 10); the ties at 0.0 span
        # shards 0, 1 and 3, and the cut at 4 records falls among them
        shards = [
            (np.array([3, 5]), np.array([-1.0, 0.0]), cols[:, 0:2]),
            (np.array([12, 17]), np.array([0.0, 0.0]), cols[:, 2:4]),
            (np.array([21, 24]), np.array([-1.0, 0.5]), cols[:, 4:6]),
            (np.array([30, 38]), np.array([0.0, 0.5]), cols[:, 6:8]),
        ]
        top = 4
        want = [c.to_dict() for c in module._merge_pool(shards, top)]
        assert [c["index"] for c in want] == [3, 21, 5, 12]
        empty = (np.empty(0, dtype=np.intp), np.empty(0), np.empty((6, 0)))
        for order in itertools.permutations(range(len(shards))):
            for owner in itertools.product(range(3), repeat=len(shards)):
                pools = []
                for thread in range(3):
                    pool = empty
                    for k in order:
                        if owner[k] == thread:
                            pool = module._best([pool, shards[k]], top)
                    pools.append(pool)
                got = module._merge_pool(pools, top)
                assert [c.to_dict() for c in got] == want


def reference_sample(rng, n):
    """The sampler as a select on the fold mask, redrawing off-domain points."""
    u = rng.random(n)
    v = rng.random(n)
    fold = u + v > 1.0
    u = np.where(fold, 1.0 - u, u)
    v = np.where(fold, 1.0 - v, v)
    x = u + 0.5 * v
    y = 1.0 - 0.5 * v
    bad = np.flatnonzero(~bulk.in_normalized_domain(x, y))
    if bad.size:
        x[bad], y[bad] = reference_sample(rng, bad.size)
    return x, y


def reference_shard(seed, shard_index, start, count, mode, record_top):
    """A shard evaluated whole, each formula once on all its samples."""
    rng = shard_rng(seed, shard_index)
    x, y = reference_sample(rng, count)
    ta = rng.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, count)
    tb = rng.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, count)
    tc = rng.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, count)

    la, lb, lc = bulk.general_cevians_arrays(x, y, 1.0, ta, tb, tc)
    s1 = bulk.slack_main_arrays(x, y, 1.0, la, lb, lc)
    s2 = bulk.slack_quadratic_arrays(x, y, 1.0, la, lb, lc)
    ok = bulk.constraint_mask_arrays(x, y, 1.0, la, lb, lc)
    ms = np.minimum(s1, s2)
    idx = start + np.arange(count, dtype=np.int64)

    def top(mask):
        sel = np.flatnonzero(mask)
        if sel.size > record_top:
            kth = np.partition(ms[sel], record_top - 1)[record_top - 1]
            sel = sel[ms[sel] <= kth]
        order = sel[np.argsort(ms[sel], kind="stable")][:record_top]
        cols = np.array([x[order], y[order], np.ones(order.size),
                         ta[order], tb[order], tc[order]])
        return idx[order], ms[order], cols

    pool = ok if mode is SearchMode.OPEN_PROBLEM else np.ones(count, dtype=bool)
    return {
        "sampled": count,
        "constraint_satisfying": int(ok.sum()),
        "raw_negative": int((ms < 0.0).sum()),
        "constrained_negative": int((ok & (ms < 0.0)).sum()),
        "candidates": top(pool),
        "frontier": top(ok & (ms >= 0.0)),
    }


class TestShard:
    @pytest.mark.parametrize("mode", list(SearchMode))
    @pytest.mark.parametrize("count", [SHARD_SIZE, 17, SHARD_SIZE - 1])
    def test_blocks_match_whole_shard_bit_for_bit(self, mode, count):
        module = importlib.import_module("cevians.search")
        # a worker's rows and the shard plan's registers after them, full
        # of junk: a read of an entry the shard or the plan did not write
        # first would change its bits or counts
        rows = module._shard_rows(SHARD_SIZE)
        assert len(rows) == 7 + len(module._SHARD_PLAN.register_dtypes)
        for row in rows:
            row.fill(True if row.dtype == bool else np.nan)
        args = (11, 3, 5 * SHARD_SIZE, count, mode, 50)
        got, want = module._run_shard(*args, rows), reference_shard(*args)
        assert got.keys() == want.keys()
        for key in want:
            if key in ("candidates", "frontier"):
                for g, w in zip(got[key], want[key]):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes()
                    assert not any(np.shares_memory(g, row) for row in rows)
            else:
                assert type(got[key]) is int and got[key] == want[key]
        if count > 17:
            assert want["candidates"][0].size == 50

    @pytest.mark.parametrize("mode", list(SearchMode))
    @pytest.mark.parametrize("record_top", [1, 20, MAX_RECORD_TOP])
    @pytest.mark.parametrize("kind", ["empty", "short", "other", "loose", "nan",
                                      "ties won by pool", "ties won by shard"])
    def test_bound_from_a_pool_folds_as_without_it(self, mode, record_top, kind):
        # a worker bounds the next shard's pools by the worst min_slack of
        # its own full pools; folded into those pools, the bounded shard
        # must give the bytes of the whole shard folded in
        module = importlib.import_module("cevians.search")
        seed, i, start = 11, 3, 3 * SHARD_SIZE
        want = reference_shard(seed, i, start, SHARD_SIZE, mode, record_top)
        # "other" is a full pool of another shard; "short" the same, one
        # entry short of full; "loose" and "nan" the same with its min_slacks
        # raised by 1, so that more than record_top samples lie below its
        # worst, and with its worst made NaN.  The ties pools hold this
        # shard's own best samples under lower or higher indices, so each
        # entry ties with a sample, the worst one at the bound.
        other = reference_shard(seed, 9, 9 * SHARD_SIZE, SHARD_SIZE, mode, record_top)
        other = {key: other[key] for key in ("candidates", "frontier")}
        pools = {
            "empty": {},
            "short": {key: tuple(part[..., :record_top - 1] for part in pool)
                      for key, pool in other.items()},
            "other": other,
            "loose": {key: (idx, ms + 1.0, cols) for key, (idx, ms, cols) in other.items()},
            "nan": {key: (idx, np.where(np.arange(ms.size) == ms.size - 1, np.nan, ms), cols)
                    for key, (idx, ms, cols) in other.items()},
            "ties won by pool": reference_shard(seed, i, 0, SHARD_SIZE, mode, record_top),
            "ties won by shard": reference_shard(seed, i, 9 * SHARD_SIZE, SHARD_SIZE,
                                                 mode, record_top),
        }[kind]
        empty = (np.empty(0, dtype=np.intp), np.empty(0), np.empty((6, 0)))
        pools = {key: pools.get(key, empty) for key in ("candidates", "frontier")}
        bounds = tuple(ms[-1] if ms.size == record_top else np.nan
                       for _, ms, _ in pools.values())
        full = [ms.size == record_top for _, ms, _ in pools.values()]
        assert full == [kind not in ("empty", "short")] * 2
        rows = module._shard_rows(SHARD_SIZE)
        got = module._run_shard(seed, i, start, SHARD_SIZE, mode, record_top, rows, bounds)
        for key, pool in pools.items():
            fold = module._best([pool, got[key]], record_top)
            for g, w in zip(fold, module._best([pool, want[key]], record_top)):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("mode", list(SearchMode))
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_allocate_no_arrays(self, monkeypatch, mode, threads):
        # a warmed shard's blocks run the plan in the worker's registers;
        # a block that made its formulas' temporaries would allocate
        # float64 arrays of one block each, so the bound is below one per
        # block, for the blocks of one thread and of two
        module = importlib.import_module("cevians.search")
        rows = module._shard_rows(SHARD_SIZE, threads)
        block = rows[7].size
        args = (11, 3, 0, SHARD_SIZE, mode, 50, rows)
        module._run_shard(*args)
        plan, grown = module._SHARD_PLAN, []

        def traced(inputs, outputs, registers):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            plan(inputs, outputs, registers)
            grown.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(module, "_SHARD_PLAN", traced)
        tracemalloc.start()
        try:
            module._run_shard(*args)
        finally:
            tracemalloc.stop()
        blocks = SHARD_SIZE // block
        assert len(grown) == blocks
        assert sum(grown) < blocks * block * 8

    # sha256 of canonical_json(search(cfg).to_report_dict()) at seed 7 and
    # 2 * SHARD_SIZE + 17 samples; any change to the stream or arithmetic
    # shows.  Taken again when the main slack became the grouped sum of
    # (sqrt(vw) - u)*l: only slack digits changed, while the totals and
    # every reported index, side, foot and re-verified bound kept theirs.
    # Taken again when a refinement round's window came to wrap into the
    # next sweep: only totals.refine_evaluations changed (207 -> 161
    # unconstrained, 275 -> 210 open-problem); the body without it hashes
    # the same before and after.  Each case is named by its mode, not by
    # its digest.
    @pytest.mark.parametrize("mode, digest", [
        pytest.param(mode, digest, id=mode.value) for mode, digest in (
            (SearchMode.UNCONSTRAINED,
             "31546c27d7e33c55ec6586c79244d4c79312539cf8408e3f73d8192d6e8b7693"),
            (SearchMode.OPEN_PROBLEM,
             "8107e3cae2693847d04c5fa994343e9467a3bfb6a96831a03d81c2fbc7be3986"))])
    def test_report_bytes_are_pinned(self, mode, digest):
        cfg = SearchConfig(seed=7, samples=2 * SHARD_SIZE + 17, mode=mode)
        text = canonical_json(search(cfg).to_report_dict())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


_FEET = st.sampled_from([FOOT_MARGIN, 1.0 - FOOT_MARGIN, 0.5])


class TestShardPlan:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 17, _BLOCK - 1, _BLOCK, 2 * _BLOCK]),
           seed=st.integers(0, 2**32 - 1), x=st.floats(0.0, 1e-3),
           feet=st.tuples(_FEET, _FEET, _FEET))
    def test_plan_matches_float_ops_bit_for_bit(self, n, seed, x, feet):
        # the shard plan, run in junk-filled registers sliced to the block
        # as the shard slices them, against the formula through _FloatOps;
        # the first sample has x near 0 (y = 1), the last the drawn feet
        module = importlib.import_module("cevians.search")
        rng = np.random.default_rng(seed)
        xs, ys = bulk.sample_normalized_points(rng, n)
        ts = rng.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, (3, n))
        xs[0], ys[0] = x, 1.0
        ts[:, -1] = feet
        registers = module._SHARD_PLAN.registers(2 * _BLOCK)
        for r in registers:
            r.fill(True if r.dtype == bool else np.nan)
        ms, ok = np.full(n, np.nan), np.ones(n, dtype=bool)
        with np.errstate(all="ignore"):
            module._SHARD_PLAN((xs, ys, *ts), (ms, ok), [r[:n] for r in registers])
            want_ms, want_ok = bulk.min_slack_and_mask(_FloatOps, xs, ys, *ts)
        assert ms.tobytes() == want_ms.tobytes()
        assert ok.tobytes() == want_ok.tobytes()

    def test_plan_registers_are_fixed_and_small(self, monkeypatch):
        # eight float64 registers and two masks of one block each, about
        # 1 MiB per worker with one thread and 2 MiB with two, whatever the
        # sample count; a block is _BLOCK samples when one thread samples
        # and 2 * _BLOCK when two do, and a search runs every block of a
        # shard but its last at that size
        module = importlib.import_module("cevians.search")
        registers = module._SHARD_PLAN.registers(_BLOCK)
        assert sorted(r.dtype.name for r in registers) == ["bool"] * 2 + ["float64"] * 8
        assert sum(r.nbytes for r in registers) == 66 * _BLOCK
        assert all(r.size == _BLOCK for r in module._shard_rows(SHARD_SIZE)[7:])
        assert all(r.size == _BLOCK for r in module._shard_rows(SHARD_SIZE, 1)[7:])
        for threads in (2, 4):
            rows = module._shard_rows(SHARD_SIZE, threads)
            assert all(r.size == 2 * _BLOCK for r in rows[7:])
        assert all(r.size == 17 for r in module._shard_rows(17)[7:])
        assert all(r.size == 17 for r in module._shard_rows(17, 2)[7:])

        plan, blocks = module._SHARD_PLAN, []

        def spy(inputs, outputs, registers):
            blocks.append((inputs[0].size, {r.size for r in registers}))
            plan(inputs, outputs, registers)

        spy.registers = plan.registers
        monkeypatch.setattr(module, "_SHARD_PLAN", spy)
        monkeypatch.setattr(module, "_usable_cpus", lambda: 2)
        for workers, block in ((1, _BLOCK), (2, 2 * _BLOCK)):
            blocks.clear()
            search(SearchConfig(seed=3, samples=2 * SHARD_SIZE + 17,
                                mode=SearchMode.OPEN_PROBLEM, refine_steps=0,
                                workers=workers))
            assert sorted(blocks) == [(17, {17})] + [(block, {block})] * (
                2 * SHARD_SIZE // block)


class TestSearch:
    def test_open_problem_with_empty_pools(self, tmp_path):
        # seed 0's single sample breaks the constraints, so neither the
        # candidate pool nor the frontier has a record
        out = tmp_path / "r.json"
        argv = ["search", "--mode", "open-problem", "--samples", "1",
                "--seed", "0", "-o", str(out)]
        assert cli.main(argv) == 0
        doc = json.loads(out.read_text())["search"]
        assert doc["totals"]["constraint_satisfying"] == 0
        assert doc["totals"]["candidates_considered"] == 0
        assert doc["violations"] == [] and doc["near_misses"] == []
        assert doc["outcome"] == "no violations (consistent with open status)"

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

    def test_open_problem_drops_uncertified_constraints(self, monkeypatch):
        # refinement hands search() the boundary candidate, whose binary64
        # constraints hold and slack is negative but whose enclosure of
        # b*lb - c*lc reaches below zero: it is neither a violation nor a
        # near miss
        boundary = evaluate_candidate(validate_sides(*BOUNDARY_SIDES),
                                      GeneralCevianParams(*BOUNDARY_FEET), -1)
        assert boundary.constraints_ok and boundary.min_slack < 0.0

        def to_boundary(cands, *args):
            return [replace(boundary, refined=True)] + cands[1:]

        monkeypatch.setattr(importlib.import_module("cevians.search"),
                            "refine", to_boundary)
        rep = search(SearchConfig(seed=7, samples=2000,
                                  mode=SearchMode.OPEN_PROBLEM))
        assert -1 not in {c.index for c in rep.violations + rep.near_misses}
        assert rep.totals["reverified_violations"] == len(rep.violations)
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
        # the partial last shard runs on rows that hold an earlier shard's
        # samples, so a stale read would change the report
        for mode in SearchMode:
            cfg = dict(seed=42, samples=3 * SHARD_SIZE + 17,
                       mode=mode, refine_steps=10)
            a = search(SearchConfig(**cfg)).to_report_dict()
            b = search(SearchConfig(**cfg)).to_report_dict()
            c = search(SearchConfig(**cfg, workers=2)).to_report_dict()
            d = search(SearchConfig(**cfg, workers=4)).to_report_dict()
            assert a == b == c == d
            totals = a["totals"]
            assert 0 < totals["refine_evaluations"] < 10 * totals["refine_sweeps"]
            assert totals["refine_moves"] > 0

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_reuse_their_shard_rows(self, monkeypatch, workers):
        # every shard draws into the rows of the worker that runs it: one
        # set with one worker, at most one per worker with more; threads
        # that switch often, more of them than cores, claim the shards in
        # whatever order they reach the counter without changing the report
        module = importlib.import_module("cevians.search")
        cfg = dict(seed=3, samples=3 * SHARD_SIZE + 17,
                   mode=SearchMode.OPEN_PROBLEM, refine_steps=1)
        want = search(SearchConfig(**cfg)).to_report_dict()
        sample = bulk.sample_normalized_points
        rows = []

        def spy(rng, n, out=None):
            if out is not None:
                rows.append(out[0])  # kept alive, so no address comes back
            return sample(rng, n, out)

        monkeypatch.setattr(module.bulk, "sample_normalized_points", spy)
        monkeypatch.setattr(module, "_usable_cpus", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = search(SearchConfig(**cfg, workers=workers)).to_report_dict()
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert sorted(x.size for x in rows) == [17] + [SHARD_SIZE] * 3
        buffers = {x.__array_interface__["data"][0] for x in rows}
        assert 1 <= len(buffers) <= workers

    def test_held_pools_do_not_grow_with_the_shard_count(self):
        # each shard's pools are folded into the best record_top so far as
        # they arrive; holding every shard's pools until the last one ends,
        # this 32-shard search peaked at 32.5 MiB of traced allocations,
        # against 8.2 MiB folded (10.1 and 9.1 MiB with 2 shards)
        cfg = SearchConfig(seed=3, samples=32 * SHARD_SIZE, mode=SearchMode.UNCONSTRAINED,
                           refine_steps=0, record_top=4096)
        tracemalloc.start()
        try:
            search(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_sampling_memory_is_flat_in_the_shard_count(self, monkeypatch):
        # each thread claims shard indices from one counter and folds its
        # own pools, so sampling holds nothing per shard; with a shard spec
        # and a submitted future per shard, these 20,000 stubbed shards on
        # 2 threads peaked at 47.4 MiB of traced allocations
        module = importlib.import_module("cevians.search")

        def shard(seed, shard_index, start, count, mode, record_top, rows, bounds):
            pool = (np.array([start]), np.array([1.0]), np.ones((6, 1)))
            return {"sampled": count, "constraint_satisfying": 0, "raw_negative": 0,
                    "constrained_negative": 0, "candidates": pool, "frontier": pool}

        monkeypatch.setattr(module, "_run_shard", shard)
        monkeypatch.setattr(module, "_shard_rows", lambda n, threads: ())
        monkeypatch.setattr(module, "_usable_cpus", lambda: 2)
        cfg = SearchConfig(seed=1, samples=20_000 * SHARD_SIZE,
                           mode=SearchMode.UNCONSTRAINED, workers=2)
        tracemalloc.start()
        try:
            per_thread = module._sample_shards(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert sum(totals["sampled"] for totals, _ in per_thread) == cfg.samples

    @pytest.mark.parametrize("cores", [1, 2, 64])
    def test_shard_threads_capped_at_cores_and_shards(self, tmp_path,
                                                      monkeypatch, cores):
        # --workers 10000 on a 3-shard search starts at most
        # min(3, cores) threads, and the report does not depend on it
        module = importlib.import_module("cevians.search")
        pools = []

        class Recording(module.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(self)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(module, "ThreadPoolExecutor", Recording)
        # the count is the affinity mask's; raising=False lets the patch
        # stand in on platforms without sched_getaffinity
        monkeypatch.setattr(module.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        cap = min(3, cores)
        docs = []
        for workers in ("10000", "1"):
            out = tmp_path / f"w{workers}.json"
            argv = ["search", "--mode", "open-problem", "--seed", "5",
                    "--samples", str(2 * SHARD_SIZE + 1), "--refine-steps", "5",
                    "--workers", workers, "-o", str(out)]
            assert cli.main(argv) == 0
            doc = json.loads(out.read_text())
            doc["manifest"]["config"]["workers"] = 1
            docs.append(reproducible_bytes(doc))
        assert docs[0] == docs[1]
        assert [p._max_workers for p in pools] == ([cap] if cap > 1 else [])
        assert all(len(p._threads) <= cap for p in pools)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, samples=0, mode=SearchMode.UNCONSTRAINED)
        for top in (0, MAX_RECORD_TOP + 1):
            with pytest.raises(ValueError, match=r"record_top must lie in \[1, 4096\]"):
                SearchConfig(seed=1, samples=10, mode=SearchMode.UNCONSTRAINED,
                             record_top=top)
        for top in (1, MAX_RECORD_TOP):
            assert SearchConfig(seed=1, samples=10, mode=SearchMode.UNCONSTRAINED,
                                record_top=top).record_top == top
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
