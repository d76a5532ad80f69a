"""Randomized search over triangles and general Cevian triples.

Reproduces the observation that unconstrained Cevians violate the two
target inequalities, and explores whether Cevian triples satisfying the
ordering and middle-dominance constraints can violate them.  Candidate
violations are always re-verified in outward-rounded interval arithmetic
before being reported: the negative slack, and in open-problem mode every
constraint too, so a reported violation is a certainty, not a
floating-point artifact.  (The constrained search does find such
configurations; see the README findings.)

Sampling is sharded: shard i draws from a generator seeded with
SeedSequence([seed, i]) for a seed in [0, 2**64), and shards are merged
in index order, so reports are byte-identical for any worker count.
Refinement is a pattern search run on all candidates at once; each round
evaluates every candidate's remaining probes speculatively in one stacked
kernel call, so its cost follows the moves made rather than the ten
probes of a sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import bulk
from .inequalities import open_problem_slacks
from .intervals import _IntervalOps
from .kernel import (
    CevianTriple,
    GeneralCevianParams,
    SideTriple,
    general_cevians,
    validate_sides,
)

SHARD_SIZE = 1 << 16
# Sampled and refined feet stay within [FOOT_MARGIN, 1 - FOOT_MARGIN].
FOOT_MARGIN = 1e-4


class SearchMode(Enum):
    UNCONSTRAINED = "unconstrained"
    OPEN_PROBLEM = "open-problem"


@dataclass(frozen=True)
class SearchConfig:
    seed: int
    samples: int
    mode: SearchMode
    refine_steps: int = 200
    record_top: int = 20
    workers: int = 1

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if self.record_top < 1:
            raise ValueError("record_top must be at least 1")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class CandidateRecord:
    """One evaluated (triangle, Cevian feet) pair."""

    sides: SideTriple
    feet: GeneralCevianParams
    cevians: CevianTriple
    slack1: float
    slack2: float
    constraints_ok: bool
    min_slack: float
    index: int
    refined: bool = False
    reverified: bool = False
    slack1_upper: float | None = None
    slack2_upper: float | None = None
    constraint_lower: float | None = None

    def __post_init__(self):
        if self.min_slack != min(self.slack1, self.slack2):
            raise ValueError("min_slack must equal min(slack1, slack2)")

    def to_dict(self) -> dict:
        doc = {
            "sides": [self.sides.a, self.sides.b, self.sides.c],
            "feet": [self.feet.ta, self.feet.tb, self.feet.tc],
            "cevians": [self.cevians.la, self.cevians.lb, self.cevians.lc],
            "slack1": self.slack1,
            "slack2": self.slack2,
            "constraints_ok": self.constraints_ok,
            "min_slack": self.min_slack,
            "index": self.index,
            "refined": self.refined,
        }
        if self.reverified:
            doc["reverify"] = {
                "slack1_upper": self.slack1_upper,
                "slack2_upper": self.slack2_upper,
            }
        return doc


@dataclass
class SearchReport:
    mode: SearchMode
    seed: int
    samples: int
    record_top: int
    refine_steps: int
    totals: dict
    violations: list[CandidateRecord]
    near_misses: list[CandidateRecord]

    @property
    def outcome(self) -> str:
        if self.violations:
            return "violations found - re-verified"
        if self.mode is SearchMode.OPEN_PROBLEM:
            return "no violations (consistent with open status)"
        return "no violations"

    def to_report_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "seed": self.seed,
            "samples": self.samples,
            "record_top": self.record_top,
            "refine_steps": self.refine_steps,
            "outcome": self.outcome,
            "totals": self.totals,
            "violations": [c.to_dict() for c in self.violations],
            "near_misses": [c.to_dict() for c in self.near_misses],
        }


def shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    """The documented seed-splitting function: PCG64(SeedSequence([seed, i]))."""
    ss = np.random.SeedSequence([seed, shard_index])
    return np.random.Generator(np.random.PCG64(ss))


def constraint_filter(t: SideTriple, cv: CevianTriple) -> bool:
    """Open-problem conditions: la >= lb >= lc and b*lb >= max(a*la, c*lc)."""
    return bool(bulk.constraint_mask_arrays(*t.as_tuple(), *cv.as_tuple()))


def evaluate_candidate(
    t: SideTriple, p: GeneralCevianParams, index: int = -1
) -> CandidateRecord:
    """Evaluate both target slacks and the constraints for one candidate."""
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


def reverify_candidate(cands: list[CandidateRecord]) -> list[CandidateRecord]:
    """Re-evaluate both slacks and the constraints in interval arithmetic.

    All candidates go through one pass of array interval arithmetic.  Their
    binary64 coordinates are treated as exact point intervals and the
    Cevians are enclosed by :func:`cevians.bulk.stewart_cevians` with
    outward rounding.  A slack violation is confirmed only when an interval
    upper bound is negative.  The open-problem constraints are certified by
    the four differences la - lb, lb - lc, b*lb - a*la and b*lb - c*lc:
    ``constraint_lower`` is the least of their interval lower bounds, so
    the constraints hold exactly when it is nonnegative.
    """
    if not cands:
        return []
    ops = _IntervalOps
    cols = np.array([cand.sides.as_tuple() + cand.feet.as_tuple()
                     for cand in cands]).T
    a, b, c, ta, tb, tc = ((v, v) for v in cols)  # exact point intervals
    da, db, dc = bulk.stewart_cevians(ops, a, b, c, ta, tb, tc)

    def root_gap(u, v, w):
        # sqrt(u*v) - w, one bracket of the grouped main slack
        return ops.sub(ops.sqrt(ops.mul(u, v)), w)

    s1 = ops.add(
        ops.add(ops.mul(root_gap(b, c, a), da), ops.mul(root_gap(a, c, b), db)),
        ops.mul(root_gap(a, b, c), dc),
    )
    s2 = bulk.quadratic_slack(ops, a, b, c, da, db, dc)
    pb = ops.mul(b, db)
    gaps = (ops.sub(da, db), ops.sub(db, dc),
            ops.sub(pb, ops.mul(a, da)), ops.sub(pb, ops.mul(c, dc)))
    lower = np.minimum.reduce([g[0] for g in gaps])
    return [
        replace(
            cand,
            reverified=True,
            slack1_upper=float(s1[1][k]),
            slack2_upper=float(s2[1][k]),
            constraint_lower=float(lower[k]),
        )
        for k, cand in enumerate(cands)
    ]


def is_confirmed_violation(
    cand: CandidateRecord, mode: SearchMode = SearchMode.UNCONSTRAINED
) -> bool:
    """True when re-verification proved a slack negative.

    In open-problem mode it must also have proved every constraint
    difference nonnegative.
    """
    negative = cand.reverified and (
        (cand.slack1_upper is not None and cand.slack1_upper < 0.0)
        or (cand.slack2_upper is not None and cand.slack2_upper < 0.0)
    )
    if mode is SearchMode.OPEN_PROBLEM:
        return negative and (
            cand.constraint_lower is not None and cand.constraint_lower >= 0.0
        )
    return negative


def _probe_slacks(
    trial: np.ndarray,
    c0: np.ndarray,
    mode: SearchMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate pattern-search probes: the columns (x, y, ta, tb, tc) of ``trial``.

    Returns the acceptance mask and min_slack.  A column is accepted
    exactly when :func:`evaluate_candidate` on ``validate_sides(x*c0,
    y*c0, c0)`` would succeed, with ``x <= y <= 1`` so that the roles of
    the sides stay fixed and the feet within ``[FOOT_MARGIN, 1 -
    FOOT_MARGIN]``, and in open-problem mode when the constraints hold.
    All probes go through one :func:`cevians.bulk.cevian_triple_slacks`
    call.  Rejected columns may carry NaN; their min_slack is meaningless.
    """
    x, y = trial[0], trial[1]
    feet = trial[2:]
    # Rejected columns may take the square root of a negative or overflow;
    # the scalar path raises or rejects there, so no warning is wanted.
    with np.errstate(invalid="ignore", over="ignore"):
        sides = trial[:3] * c0  # rows a, b and a scratch row for c0
        sides[2] = c0
        cv, s1, s2, constraints = bulk.cevian_triple_slacks(sides, feet)
        a, b = sides[0], sides[1]
        ok = (
            (x <= y)
            & (y <= 1.0)
            & ((feet >= FOOT_MARGIN) & (feet <= 1.0 - FOOT_MARGIN)
               & (cv > 0.0)).all(axis=0)
            & (a > 0.0)
            & (a + b > c0)
            & np.isfinite(s1) & np.isfinite(s2)
        )
        if mode is SearchMode.OPEN_PROBLEM:
            ok &= constraints
    return ok, np.minimum(s1, s2)


# Probe p of a pattern-search sweep adds column p of _PROBE_DELTA, times
# the step, to (x, y, ta, tb, tc): +step, then -step, on each coordinate
# in turn.  Adding the (signed) zeros leaves the other coordinates exact.
_PROBES = np.arange(10)
_PROBE_DELTA = np.kron(np.eye(5), [1.0, -1.0])


def refine(
    cands: list[CandidateRecord],
    steps: int,
    mode: SearchMode = SearchMode.UNCONSTRAINED,
    counts: dict | None = None,
) -> list[CandidateRecord]:
    """Derivative-free local descent on min_slack, for all candidates at once.

    Each candidate runs its own coordinate-wise pattern search over
    (x, y, ta, tb, tc) with halving steps; c stays pinned at the
    candidate's own longest side.  Moves that leave the triangle domain or
    the foot range are rejected, and in open-problem mode moves that break
    the constraints are rejected too, so no result has larger min_slack
    than its input.  A sweep tries ten probes (+step and -step on each
    coordinate) in order, moving at every probe that lowers min_slack, and
    halves the step when none does; a candidate stops after ``steps``
    sweeps or once its step falls below 1e-12.

    The probes run speculatively, in rounds of one array evaluation each:
    a round holds every probe left in the current sweep of every active
    candidate, taken from its current point.  Each candidate moves to its
    first accepted probe, and only the probes after that one are evaluated
    again, from the new point, in the next round; a candidate whose sweep
    has ended starts its next one there.  The evaluation is element-wise
    and correctly rounded, so a row's value does not depend on the rows
    beside it, and the same probes are accepted as one at a time.  A
    candidate's sweep takes at most one round plus one per move instead of
    ten evaluations, and all candidates share the rounds.

    A candidate that moved is rebuilt by :func:`evaluate_candidate` and
    marked refined; one that never moved is returned as the same object.
    When ``counts`` is given, three counters are written into it:
    ``refine_sweeps``, the most sweeps any candidate ran (one evaluation
    per probe would take ten times as many); ``refine_moves``, the
    accepted probes of all candidates; and ``refine_evaluations``, the
    rounds.
    """
    if counts is None:
        counts = {}
    counts.update(refine_sweeps=0, refine_moves=0, refine_evaluations=0)
    if steps <= 0 or not cands:
        return list(cands)

    c0 = np.array([c.sides.c for c in cands])
    # Column k holds (x, y, ta, tb, tc) of candidate k, so that each
    # coordinate of a batch of probes is one contiguous row.
    pts = np.array([
        [c.sides.a / c.sides.c, c.sides.b / c.sides.c,
         c.feet.ta, c.feet.tb, c.feet.tc]
        for c in cands
    ]).T.copy()
    start = np.array([c.min_slack for c in cands])
    best = start.copy()
    step = np.full(len(cands), 0.05)
    # Each candidate sweeps on its own: it starts its next sweep in the
    # round after its last one ended, without waiting for the others.
    swept = np.zeros(len(cands), dtype=np.int64)  # sweeps finished
    first = np.zeros(len(cands), dtype=np.int64)  # next probe of the sweep
    improved = np.zeros(len(cands), dtype=bool)  # moved in this sweep
    live = np.arange(len(cands))
    while live.size:
        # Column j of trial is probe probe[j] of candidate owner[j], from
        # its current point: every probe left in a live candidate's sweep.
        pending = _PROBES >= first[live][:, None]
        flat = pending.ravel().nonzero()[0]  # faster than a 2-D nonzero
        at, probe = np.divmod(flat, _PROBES.size)
        owner = live[at]
        trial = (pts.take(owner, axis=1)
                 + _PROBE_DELTA.take(probe, axis=1) * step.take(owner))
        ok, ms = _probe_slacks(trial, c0[owner], mode)
        slack = np.full(pending.size, np.inf)
        slack[flat] = np.where(ok, ms, np.inf)
        slack = slack.reshape(pending.shape)
        # Each candidate moves to its first accepted probe; the move
        # repeats the trial's arithmetic, so it lands on the probe.
        take = slack < best[live][:, None]
        hit = take.any(axis=1)
        p = take.argmax(axis=1)[hit]
        moved = live[hit]
        pts[:, moved] = (pts.take(moved, axis=1)
                         + _PROBE_DELTA.take(p, axis=1) * step.take(moved))
        best[moved] = slack[hit, p]
        improved[moved] = True
        first[moved] = p + 1
        # A sweep ends when no probe left in it is accepted, or the last is.
        end = live[~hit | (first[live] == _PROBES.size)]
        step[end[~improved[end]]] *= 0.5
        swept[end] += 1
        first[end] = 0
        improved[end] = False
        live = live[(swept[live] < steps) & (step[live] >= 1e-12)]
        counts["refine_evaluations"] += 1
        counts["refine_moves"] += moved.size
    counts["refine_sweeps"] = int(swept.max())

    # Every accepted probe lowers best strictly, so this marks the movers.
    out = list(cands)
    for k in np.flatnonzero(best < start):
        x, y, ta, tb, tc = pts[:, k].tolist()
        c = cands[k].sides.c
        probe = evaluate_candidate(
            validate_sides(x * c, y * c, c),
            GeneralCevianParams(ta, tb, tc),
            cands[k].index,
        )
        out[k] = replace(probe, refined=True)
    return out


def _run_shard(
    seed: int,
    shard_index: int,
    start: int,
    count: int,
    mode: SearchMode,
    record_top: int,
) -> dict:
    """Sample one shard; rank the mode's candidates and the frontier.

    The candidates are every sample in unconstrained mode and the
    constraint-satisfying ones in open-problem mode; the frontier is the
    constraint-satisfying samples with nonnegative min_slack.
    """
    rng = shard_rng(seed, shard_index)
    x, y = bulk.sample_normalized_points(rng, count)
    ta = rng.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, count)
    tb = rng.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, count)
    tc = rng.uniform(FOOT_MARGIN, 1.0 - FOOT_MARGIN, count)

    la, lb, lc = bulk.general_cevians_arrays(x, y, 1.0, ta, tb, tc)
    s1 = bulk.slack_main_arrays(x, y, 1.0, la, lb, lc)
    s2 = bulk.slack_quadratic_arrays(x, y, 1.0, la, lb, lc)
    ok = bulk.constraint_mask_arrays(x, y, 1.0, la, lb, lc)
    ms = np.minimum(s1, s2)
    idx = start + np.arange(count, dtype=np.int64)

    def top(mask: np.ndarray) -> dict:
        sel = np.flatnonzero(mask)
        if sel.size > record_top:
            # Pre-select by partition; keeping every tie at the threshold
            # leaves the stable order of the first record_top unchanged.
            kth = np.partition(ms[sel], record_top - 1)[record_top - 1]
            sel = sel[ms[sel] <= kth]
        order = sel[np.argsort(ms[sel], kind="stable")][:record_top]
        return {
            "idx": idx[order],
            "x": x[order],
            "y": y[order],
            "ta": ta[order],
            "tb": tb[order],
            "tc": tc[order],
            "ms": ms[order],
        }

    pool = ok if mode is SearchMode.OPEN_PROBLEM else np.ones(count, dtype=bool)
    return {
        "sampled": count,
        "constraint_satisfying": int(ok.sum()),
        "raw_negative": int((ms < 0.0).sum()),
        "constrained_negative": int((ok & (ms < 0.0)).sum()),
        "candidates": top(pool),
        "frontier": top(ok & (ms >= 0.0)),
    }


def _merge_pool(pools: list[dict], record_top: int) -> list[tuple]:
    if not pools:
        return []
    ms = np.concatenate([p["ms"] for p in pools])
    idx = np.concatenate([p["idx"] for p in pools])
    if ms.size == 0:
        return []
    order = np.lexsort((idx, ms))[:record_top]
    out = []
    xs = np.concatenate([p["x"] for p in pools])
    ys = np.concatenate([p["y"] for p in pools])
    tas = np.concatenate([p["ta"] for p in pools])
    tbs = np.concatenate([p["tb"] for p in pools])
    tcs = np.concatenate([p["tc"] for p in pools])
    for i in order:
        out.append((int(idx[i]), float(xs[i]), float(ys[i]),
                    float(tas[i]), float(tbs[i]), float(tcs[i])))
    return out


def _records_from_pool(rows: list[tuple]) -> list[CandidateRecord]:
    records = []
    for idx, x, y, ta, tb, tc in rows:
        t = validate_sides(x, y, 1.0)
        records.append(evaluate_candidate(t, GeneralCevianParams(ta, tb, tc), idx))
    return records


def search(cfg: SearchConfig) -> SearchReport:
    """Sharded sampling plus refinement and rigorous re-verification.

    Unconstrained mode reports the most negative re-verified violations.
    Open-problem mode considers only constraint-satisfying candidates; it
    reports a violation only when re-verification proves a slack negative
    and every constraint difference nonnegative, and it also reports the
    near-miss frontier.  The constrained search does find violations (see
    the README findings), so a nonempty list is a real outcome there.

    A refined candidate whose binary64 slack is negative but which fails
    that check (the enclosure of its slack or, in open-problem mode, of a
    constraint difference reaches across zero) is dropped: it is neither a
    violation nor a near miss, and ``reverified_violations`` does not count
    it.  The near misses therefore all have nonnegative ``min_slack``.
    """
    shards = []
    start = 0
    i = 0
    while start < cfg.samples:
        count = min(SHARD_SIZE, cfg.samples - start)
        shards.append((i, start, count))
        start += count
        i += 1

    def run(spec):
        shard_index, shard_start, count = spec
        return _run_shard(cfg.seed, shard_index, shard_start, count,
                          cfg.mode, cfg.record_top)

    # The pool submits every shard at once and starts a thread per submit
    # while none is idle, so more workers than cores would only add threads.
    threads = min(cfg.workers, len(shards), os.cpu_count() or 1)
    if threads == 1:
        results = [run(s) for s in shards]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, shards))

    totals = {
        "sampled": sum(r["sampled"] for r in results),
        "constraint_satisfying": sum(r["constraint_satisfying"] for r in results),
        "raw_negative": sum(r["raw_negative"] for r in results),
        "constrained_negative": sum(r["constrained_negative"] for r in results),
    }

    candidates = _records_from_pool(
        _merge_pool([r["candidates"] for r in results], cfg.record_top)
    )
    frontier = _merge_pool([r["frontier"] for r in results], cfg.record_top)

    todo = [
        k for k, c in enumerate(candidates)
        if c.min_slack < 0.0 or cfg.mode is SearchMode.OPEN_PROBLEM
    ]
    done = refine([candidates[k] for k in todo], cfg.refine_steps, cfg.mode, totals)
    refined = list(candidates)
    for k, cand in zip(todo, done):
        refined[k] = cand

    negative: list[CandidateRecord] = []
    survivors: list[CandidateRecord] = []
    for cand in refined:
        (negative if cand.min_slack < 0.0 else survivors).append(cand)
    violations = [
        cand for cand in reverify_candidate(negative)
        if is_confirmed_violation(cand, cfg.mode)
    ]

    violations.sort(key=lambda c: (c.min_slack, c.index))

    # Near-miss frontier: constraint-satisfying survivors plus the smallest
    # nonnegative constrained candidates from sampling; confirmed violations
    # never appear here.
    taken = {c.index for c in violations}
    near: list[CandidateRecord] = []
    for cand in ([c for c in survivors if c.constraints_ok]
                 + _records_from_pool(frontier)):
        if cand.index in taken:
            continue
        taken.add(cand.index)
        near.append(cand)
    near.sort(key=lambda c: (c.min_slack, c.index))
    near = near[: cfg.record_top]

    totals["candidates_considered"] = len(candidates)
    totals["reverified_violations"] = len(violations)

    return SearchReport(
        mode=cfg.mode,
        seed=cfg.seed,
        samples=cfg.samples,
        record_top=cfg.record_top,
        refine_steps=cfg.refine_steps,
        totals=totals,
        violations=violations,
        near_misses=near,
    )
