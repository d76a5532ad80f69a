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
in index order, so reports are byte-identical for any worker count.  A
shard draws all its samples at once (the sampler folds them without a
branch, in place) and evaluates them in blocks of 16,384, so no array it
makes is larger than one shard row.  Each worker of a search call holds
one set of shard rows, about 3 MB, and draws and evaluates every shard it
runs in them; the rows go when sampling ends, before refinement.
Refinement is a pattern search run on all candidates at once; each round
evaluates the ten probes of every live candidate's sweep speculatively,
as one fixed (5, 10, L) block in one stacked kernel call, so the rounds
follow the moves made rather than the ten probes of a sweep.  Candidates
that stop leave the round's state arrays.  Candidates travel as (6, n)
column blocks (a, b, c, ta, tb, tc), and each block becomes records
through one such call.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import bulk
from .exceptions import DomainError
from .intervals import _IntervalOps
from .kernel import (
    MAX_RECORD_TOP,
    CevianKind,
    CevianTriple,
    GeneralCevianParams,
    SearchMode,
    SideTriple,
)

# The search calls none of these.  constraint_filter stays importable from
# here, and bench/tracing.py wraps the other three by name here.
from .inequalities import constraint_filter, open_problem_slacks  # noqa: F401
from .kernel import general_cevians, validate_sides  # noqa: F401

SHARD_SIZE = 1 << 16
# A shard's formulas run on blocks of this many samples, so each of their
# temporaries takes 128 KiB instead of a 512 KiB shard row.
_BLOCK = 1 << 14
# Sampled and refined feet stay within [FOOT_MARGIN, 1 - FOOT_MARGIN].
FOOT_MARGIN = 1e-4


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
        if not 1 <= self.record_top <= MAX_RECORD_TOP:
            raise ValueError(f"record_top must lie in [1, {MAX_RECORD_TOP}], "
                             f"got {self.record_top}")
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
        if not (math.isfinite(self.slack1) and math.isfinite(self.slack2)):
            raise DomainError(f"slacks must be finite: {(self.slack1, self.slack2)}")
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


def _columns(cands: list[CandidateRecord]) -> np.ndarray:
    """The (6, n) column block (a, b, c, ta, tb, tc) of ``cands``."""
    return np.array([c.sides.as_tuple() + c.feet.as_tuple() for c in cands]).T


def _records(cols: np.ndarray, index) -> list[CandidateRecord]:
    """Records of the candidates in a (6, n) block (a, b, c, ta, tb, tc).

    The sides must be sorted.  One :func:`cevians.bulk.cevian_triple_slacks`
    call evaluates them all, and :func:`cevians.bulk.constraint_mask_arrays`
    their constraints; as in :func:`cevians.kernel.scalar_eval`, NaN and
    infinities come back as values, which the dataclasses reject.
    """
    with np.errstate(all="ignore"):
        cv, s1, s2 = bulk.cevian_triple_slacks(cols[:3], cols[3:])
        ok = bulk.constraint_mask_arrays(*cols[:3], *cv)
    rows = zip(cols.T.tolist(), cv.T.tolist(), s1.tolist(), s2.tolist(),
               ok.tolist(), np.asarray(index).tolist())
    return [
        CandidateRecord(SideTriple(*col[:3]), GeneralCevianParams(*col[3:]),
                        CevianTriple(*lengths, CevianKind.GENERAL),
                        u, v, good, min(u, v), i)
        for col, lengths, u, v, good, i in rows
    ]


def evaluate_candidate(
    t: SideTriple, p: GeneralCevianParams, index: int = -1
) -> CandidateRecord:
    """Evaluate both target slacks and the constraints for one candidate."""
    return _records(np.array([t.as_tuple() + p.as_tuple()]).T, [index])[0]


def reverify_candidate(cands: list[CandidateRecord]) -> list[CandidateRecord]:
    """Re-evaluate both slacks and the constraints in interval arithmetic.

    All candidates go through one pass of array interval arithmetic.  Their
    binary64 coordinates are treated as exact point intervals and the
    Cevians, the slacks and the constraints run the formulas of
    :mod:`cevians.bulk` with outward rounding.  A slack violation is
    confirmed only when an interval upper bound is negative.  The
    open-problem constraints are certified by the differences lhs - rhs of
    :func:`cevians.bulk.constraint_pairs` (la - lb, lb - lc, b*lb - a*la
    and b*lb - c*lc): ``constraint_lower`` is the least of their interval
    lower bounds, so the constraints hold exactly when it is nonnegative.
    """
    if not cands:
        return []
    ops = _IntervalOps
    a, b, c, ta, tb, tc = ((v, v) for v in _columns(cands))  # exact point intervals
    cevians = bulk.stewart_cevians(ops, a, b, c, ta, tb, tc)
    s1 = bulk.main_slack(ops, a, b, c, *cevians)
    s2 = bulk.quadratic_slack(ops, a, b, c, *cevians)
    lower = np.minimum.reduce([ops.sub(lhs, rhs)[0] for lhs, rhs
                               in bulk.constraint_pairs(ops, a, b, c, *cevians)])
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
    """Evaluate pattern-search probes: the rows (x, y, ta, tb, tc) of ``trial``.

    ``trial`` is (5, ...) and ``c0`` broadcasts against one of its rows:
    (5, 10, L) with (L,) for a refinement round, or (5, n) with (n,).
    Returns the acceptance mask and min_slack, shaped as a row.  A probe
    is accepted exactly when the sides (x*c0, y*c0, c0) and the feet make
    a valid candidate record (a triangle, feet in (0, 1), positive finite
    Cevians and finite slacks), with ``x <= y <= 1`` so that the roles of
    the sides stay fixed and the feet within ``[FOOT_MARGIN, 1 -
    FOOT_MARGIN]``, and in open-problem mode when the constraints hold.
    ``a > 0`` needs no test: b <= c0 follows from y <= 1, so a + b > c0
    implies it.  All probes go through one
    :func:`cevians.bulk.cevian_triple_slacks` call, and only open-problem
    mode computes the constraint mask.  Rejected probes may carry NaN;
    their min_slack is meaningless.
    """
    x, y = trial[0], trial[1]
    feet = trial[2:]
    # Rejected probes may take the square root of a negative or overflow;
    # the scalar path raises or rejects there, so no warning is wanted.
    with np.errstate(invalid="ignore", over="ignore"):
        sides = trial[:3] * c0  # rows a, b and a scratch row for c0
        sides[2] = c0
        cv, s1, s2 = bulk.cevian_triple_slacks(sides, feet)
        ok = (
            (x <= y)
            & (y <= 1.0)
            & ((feet >= FOOT_MARGIN) & (feet <= 1.0 - FOOT_MARGIN)
               & (cv > 0.0)).all(axis=0)
            & (sides[0] + sides[1] > c0)
            & np.isfinite(s1) & np.isfinite(s2)
        )
        if mode is SearchMode.OPEN_PROBLEM:
            ok &= bulk.constraint_mask_arrays(*sides, *cv)
    return ok, np.minimum(s1, s2)


# Probe p of a pattern-search sweep adds _PROBE_DELTA[:, p], times the
# step, to (x, y, ta, tb, tc): +step, then -step, on each coordinate in
# turn.  Adding the (signed) zeros leaves the other coordinates exact.
# The trailing axis broadcasts over the live candidates of a round.
_PROBE_DELTA = np.kron(np.eye(5), [1.0, -1.0])[:, :, None]
_PROBES = np.arange(10)[:, None]


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
    a round evaluates one (5, 10, L) block, all ten probes of the current
    sweep of each of the L live candidates, taken from its current point,
    and masks out the probes the sweep has already passed.  Each candidate
    moves to its first accepted probe, copied from the block, and the
    probes after that one are tried again, from the new point, in the next
    round; a candidate whose sweep has ended starts its next one there.
    The evaluation is element-wise and correctly rounded, so a probe's
    value does not depend on the probes beside it, and the same probes
    are accepted as one at a time.  A candidate's sweep takes at most one
    round plus one per move instead of ten evaluations, and all candidates
    share the rounds.  Only the live candidates' state is kept: a
    candidate that stops writes its point and best back, and the state
    arrays are compacted.

    The movers are rebuilt together by :func:`_records` and marked
    refined; a candidate that never moved is returned as the same object.
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

    cols = _columns(cands)
    # Column k holds (x, y, ta, tb, tc) of candidate k, so that each
    # coordinate of a block of probes is one contiguous row.
    final = np.concatenate([cols[:2] / cols[2], cols[3:]])
    start = np.array([c.min_slack for c in cands])
    final_best = start.copy()
    # The live candidates' state; a candidate that stops is written back
    # to final and final_best, and the arrays keep only the live ones.
    live = np.arange(len(cands))
    pts, best, c0 = final.copy(), start.copy(), cols[2]
    step = np.full(live.size, 0.05)
    # Each candidate sweeps on its own: it starts its next sweep in the
    # round after its last one ended, without waiting for the others.
    swept = np.zeros(live.size, dtype=np.int64)  # sweeps finished
    first = np.zeros(live.size, dtype=np.int64)  # next probe of the sweep
    at = np.arange(live.size)
    while live.size:
        trial = pts[:, None] + _PROBE_DELTA * step
        ok, ms = _probe_slacks(trial, c0, mode)
        # Each candidate moves to its first accepted probe not yet passed.
        take = ok & (ms < best) & (_PROBES >= first)
        p = take.argmax(axis=0)
        hit = take[p, at]
        pts = np.where(hit, trial[:, p, at], pts)
        best = np.where(hit, ms[p, at], best)
        # A sweep ends when no probe left in it is accepted, or the last
        # is; it has moved exactly when first > 0, and halves its step
        # when it ends without a move.
        step = np.where(hit | (first > 0), step, 0.5 * step)
        first = (p + 1) % 10 * hit
        swept += first == 0
        counts["refine_evaluations"] += 1
        counts["refine_moves"] += int(np.count_nonzero(hit))
        keep = (swept < steps) & (step >= 1e-12)
        if not keep.all():
            stop = ~keep
            final[:, live[stop]] = pts[:, stop]
            final_best[live[stop]] = best[stop]
            counts["refine_sweeps"] = max(counts["refine_sweeps"],
                                          int(swept[stop].max()))
            live, pts, best, c0 = live[keep], pts[:, keep], best[keep], c0[keep]
            step, swept, first = step[keep], swept[keep], first[keep]
            at = np.arange(live.size)

    # Every accepted probe lowers best strictly, so this marks the movers;
    # x <= y <= 1 holds for them, so their sides come out sorted.
    movers = np.flatnonzero(final_best < start).tolist()
    c = cols[2, movers]
    rebuilt = _records(np.vstack([final[:2, movers] * c, c, final[2:, movers]]),
                       [cands[k].index for k in movers])
    out = list(cands)
    for k, rec in zip(movers, rebuilt):
        out[k] = replace(rec, refined=True)
    return out


def _shard_rows(n: int) -> tuple[np.ndarray, ...]:
    """One worker's shard rows x, y, ta, tb, tc, ms (float64) and ok (bool).

    Each row is its own array of n entries, at most 512 KiB: freeing one
    3 MiB block raises glibc's mmap and trim thresholds for the whole
    process, which changes the speed of whatever runs after it.
    """
    return tuple(np.empty(n) for _ in range(6)) + (np.empty(n, dtype=bool),)


def _draw_feet(rng: np.random.Generator, t: np.ndarray) -> None:
    """Fill ``t`` with feet uniform on [FOOT_MARGIN, 1 - FOOT_MARGIN), in place.

    The bits, and the generator's state after, are those of
    ``rng.uniform(FOOT_MARGIN, 1 - FOOT_MARGIN, t.size)``.
    """
    rng.random(out=t)
    t *= (1.0 - FOOT_MARGIN) - FOOT_MARGIN
    t += FOOT_MARGIN


def _run_shard(
    seed: int,
    shard_index: int,
    start: int,
    count: int,
    mode: SearchMode,
    record_top: int,
    rows: tuple[np.ndarray, ...],
) -> dict:
    """Sample one shard; rank the mode's candidates and the frontier.

    The candidates are every sample in unconstrained mode and the
    constraint-satisfying ones in open-problem mode; the frontier is the
    constraint-satisfying samples with nonnegative min_slack.  Each pool
    is (index, min_slack, columns) of its best record_top samples.

    The shard runs in the first ``count`` entries of ``rows``, a worker's
    set from :func:`_shard_rows`, and writes each of them before reading
    it; the pools it returns are copies.  The draws cover the whole shard,
    in the order the stream defines, with the ms row as the sampler's
    scratch; the Cevians, slacks and mask then run on blocks of ``_BLOCK``
    samples and fill the ms and ok rows, so no array the shard makes is
    larger than one shard row.
    """
    x, y, ta, tb, tc, ms, ok = (row[:count] for row in rows)
    rng = shard_rng(seed, shard_index)
    bulk.sample_normalized_points(rng, count, out=(x, y, ms))
    for t in (ta, tb, tc):
        _draw_feet(rng, t)

    for lo in range(0, count, _BLOCK):
        b = slice(lo, lo + _BLOCK)
        xb, yb = x[b], y[b]
        la, lb, lc = bulk.general_cevians_arrays(xb, yb, 1.0, ta[b], tb[b], tc[b])
        np.minimum(bulk.slack_main_arrays(xb, yb, 1.0, la, lb, lc),
                   bulk.slack_quadratic_arrays(xb, yb, 1.0, la, lb, lc), out=ms[b])
        ok[b] = bulk.constraint_mask_arrays(xb, yb, 1.0, la, lb, lc)

    def top(mask: np.ndarray) -> tuple:
        sel = np.flatnonzero(mask)
        if sel.size > record_top:
            # Pre-select by partition; keeping every tie at the threshold
            # leaves the stable order of the first record_top unchanged.
            kth = np.partition(ms[sel], record_top - 1)[record_top - 1]
            sel = sel[ms[sel] <= kth]
        order = sel[np.argsort(ms[sel], kind="stable")][:record_top]
        cols = np.array([x[order], y[order], np.ones(order.size),
                         ta[order], tb[order], tc[order]])
        return start + order, ms[order], cols

    pool = ok if mode is SearchMode.OPEN_PROBLEM else np.ones(count, dtype=bool)
    return {
        "sampled": count,
        "constraint_satisfying": int(ok.sum()),
        "raw_negative": int((ms < 0.0).sum()),
        "constrained_negative": int((ok & (ms < 0.0)).sum()),
        "candidates": top(pool),
        "frontier": top(ok & (ms >= 0.0)),
    }


def _merge_pool(pools: list[tuple], record_top: int) -> list[CandidateRecord]:
    """Records of the pools' record_top least-min_slack samples, ties by index."""
    idx, ms, cols = (np.concatenate(part, axis=-1) for part in zip(*pools))
    order = np.lexsort((idx, ms))[:record_top]
    return _records(cols[:, order], idx[order])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where it has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_shards(cfg: SearchConfig) -> list[dict]:
    """Run the shards of ``cfg`` on up to ``cfg.workers`` threads, in index order.

    Each thread holds one set of shard rows and runs every shard it takes
    in them.  The rows go when the last shard is done: kept through
    refinement, they would have later allocations placed above them in the
    heap, and freeing them would then leave a 3 MiB hole there.
    """
    shards = []
    start = 0
    i = 0
    while start < cfg.samples:
        count = min(SHARD_SIZE, cfg.samples - start)
        shards.append((i, start, count))
        start += count
        i += 1

    # A shard takes a free set of rows, or makes one when every set is in
    # use by another shard, and gives it back; so at most one set per
    # thread is made.
    free_rows: queue.SimpleQueue = queue.SimpleQueue()

    def run(spec):
        shard_index, shard_start, count = spec
        try:
            rows = free_rows.get_nowait()
        except queue.Empty:
            rows = _shard_rows(min(SHARD_SIZE, cfg.samples))
        result = _run_shard(cfg.seed, shard_index, shard_start, count,
                            cfg.mode, cfg.record_top, rows)
        free_rows.put(rows)
        return result

    # The pool submits every shard at once and starts a thread per submit
    # while none is idle, so more workers than usable CPUs would only add
    # threads, each holding its own rows.
    threads = min(cfg.workers, len(shards), _usable_cpus())
    if threads == 1:
        return [run(s) for s in shards]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, shards))


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
    results = _sample_shards(cfg)

    totals = {
        "sampled": sum(r["sampled"] for r in results),
        "constraint_satisfying": sum(r["constraint_satisfying"] for r in results),
        "raw_negative": sum(r["raw_negative"] for r in results),
        "constrained_negative": sum(r["constrained_negative"] for r in results),
    }

    candidates = _merge_pool([r["candidates"] for r in results], cfg.record_top)
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
    for cand in [c for c in survivors if c.constraints_ok] + frontier:
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
