"""Tests of the certifier.

`certify` proves key-system (where its square identity applies) and
altitude-reduced by their identities, with no box, and every other run by
`_branch_and_bound`.  Tests of the branch-and-bound call it directly, so
that it still meets altitude-reduced.  They meet key-system as `certify`
runs it, where 1 + mu rounds to 1 and the identity does not apply
(`KEY_FALLBACK`).
"""

import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import iv

from cevians import bulk, certifier, cli
from cevians.certifier import (
    TARGETS,
    CertificationTask,
    Target,
    _GRID_DEPTH,
    certify,
    corner_argument_check,
    equal_base_second_factor,
    equal_legs_second_factor,
    key_system_identity_floors,
    point_values,
    _VERTEX_0_1,
    _VERTEX_1_1,
    _VERTICES,
    _EQUALITY_POINT,
    _bisect,
    _branch_and_bound,
    _clip_to_domain,
    _jets,
    _lower_bounds,
)
from cevians.cli import main as cli_main
from cevians.reports import reproducible_bytes
from cevians.intervals import Interval, _FloatOps, _IntervalOps

import oracles
from conftest import natural_enclosure, sample_domain_boxes

F_06_08 = 0.1593005229059099113924

# Key-system where `certify` runs its branch-and-bound: 1 + mu rounds to 1,
# so the square identity does not apply.  Its r2 is 0 on the curve
# 2y^2 = x^2 + 1 across W, where no box closes, so the run needs a budget.
KEY_FALLBACK = {"mu": 1e-17, "box_budget": 3000}
# The targets whose branch-and-bound closes, every one but key-system.
CLOSING = [t for t in Target if t is not Target.KEY_SYSTEM]


def _column(*bounds):
    """One box (xlo, xhi, ylo, yhi) as a (4, 1) array."""
    return np.array(bounds, dtype=float).reshape(4, 1)


def _form(vertex, target, *box):
    """The vertex form's bound for a target, from its facts there."""
    spec = TARGETS[target]
    return vertex.bounds(spec, spec.facts[vertex.name], *box)


def _point_box_enclosure(target, xlo, xhi, ylo, yhi):
    flo, fhi = natural_enclosure(
        target, *(np.array([v], dtype=float) for v in (xlo, xhi, ylo, yhi)))
    return float(flo[0]), float(fhi[0])


class TestNaturalEnclosure:
    def test_equality_point_contains_zero(self):
        lo, hi = _point_box_enclosure(Target.MAIN_MEDIAN, 1, 1, 1, 1)
        assert lo <= 0.0 <= hi

    def test_point_box_value(self):
        lo, hi = _point_box_enclosure(Target.MAIN_MEDIAN, 0.6, 0.6, 0.8, 0.8)
        assert lo <= F_06_08 <= hi
        assert hi - lo < 1e-13

    def test_wide_box_contains_interior_value(self):
        lo, hi = _point_box_enclosure(Target.MAIN_MEDIAN, 0.55, 0.65, 0.75, 0.85)
        assert lo <= F_06_08 <= hi


class TestClip:
    def test_equality_corner_box_survives(self):
        _, ok = _clip_to_domain(_column(0.99, 1.0, 0.99, 1.0), 0.0)
        assert bool(ok[0])

    def test_outside_domain_empty(self):
        _, ok = _clip_to_domain(_column(0.1, 0.2, 0.3, 0.4), 1e-6)
        assert not bool(ok[0])

    def test_y_floor_from_constraints(self):
        (xlo, xhi, ylo, yhi), ok = _clip_to_domain(_column(0.0, 1.0, 0.0, 1.0), 1e-6)
        assert bool(ok[0])
        assert ylo[0] >= 0.5

    @staticmethod
    def _exact_hull(xlo, xhi, ylo, yhi, mu):
        """Bounding box of box ∩ W in exact arithmetic, or None if it is empty."""
        s, xlo, xhi, ylo, yhi = (Fraction(v) for v in (1.0 + mu, xlo, xhi, ylo, yhi))
        yhi = min(yhi, 1)
        xlo, xhi = max(xlo, Fraction(mu)), min(xhi, yhi)
        y_floor = max(ylo, xlo, s / 2, s - xhi)
        if xlo > xhi or y_floor > yhi:
            return None
        return max(xlo, s - yhi), xhi, y_floor, yhi

    def _assert_covers(self, raw, clipped, mu):
        hull = self._exact_hull(*raw, mu)
        if hull is not None:
            xlo, xhi, ylo, yhi, ok = clipped
            assert ok and Fraction(xlo) <= hull[0] and Fraction(ylo) <= hull[2], raw
            assert Fraction(xhi) >= hull[1] and Fraction(yhi) >= hull[3], raw

    def test_y_floor_is_rounded_down(self):
        # (1 + mu) - xhi rounds up to 0.625375375 here, 5.55e-17 above the
        # exact difference, which would leave a sliver of W in no box.
        mu, raw = 1e-6, (0.24975075000000002, 0.374625625, 0.5005004999999999,
                         0.7502502499999999)
        boxes, ok = _clip_to_domain(_column(*raw), mu)
        clipped = [*boxes[:, 0].tolist(), bool(ok[0])]
        assert Fraction(clipped[2]) <= Fraction(1.0 + mu) - Fraction(raw[1])
        self._assert_covers(raw, clipped, mu)

    def test_certify_clips_keep_the_whole_domain(self, monkeypatch):
        from cevians import certifier

        clip = certifier._clip_to_domain
        seen = []

        def checked(boxes, mu):
            out, ok = clip(boxes, mu)
            for i in range(boxes.shape[1]):
                self._assert_covers(boxes[:, i].tolist(), [*out[:, i], ok[i]], mu)
            seen.append(boxes.shape[1])
            return out, ok

        monkeypatch.setattr(certifier, "_clip_to_domain", checked)
        for target in CLOSING:
            for mu, delta in ((1e-6, 1e-3), (1e-12, 0.0)):
                _branch_and_bound(CertificationTask(target=target, mu=mu, delta=delta))
        for delta in (1e-3, 0.0):
            _branch_and_bound(CertificationTask(Target.KEY_SYSTEM, delta=delta, **KEY_FALLBACK))
        assert sum(seen) > 1000


class TestCertify:
    @pytest.mark.parametrize("target", list(Target))
    def test_defaults_fully_decided(self, target):
        # key-system's branch-and-bound cannot close r2's zero curve; at the
        # defaults `certify` proves it by the square identity instead
        run = certify if target is Target.KEY_SYSTEM else _branch_and_bound
        cert = run(CertificationTask(target=target))
        assert cert.undecided_count == 0
        assert not cert.stats.budget_exhausted
        if target is Target.KEY_SYSTEM:
            assert cert.identity is not None
        else:
            assert cert.proven_count > 0

    def test_determinism(self):
        task = CertificationTask(target=Target.MAIN_MEDIAN)
        a = certify(task).to_report_dict(include_proven=True)
        b = certify(task).to_report_dict(include_proven=True)
        a["stats"]["wall_time_s"] = b["stats"]["wall_time_s"] = 0.0
        assert a == b

    def test_delta_zero_closes_with_a_corner_box(self):
        cert = certify(CertificationTask(target=Target.MAIN_MEDIAN, delta=0.0))
        assert cert.undecided_count == 0
        assert not cert.stats.budget_exhausted
        assert cert.corner.shape == (4, 1)
        cxlo, cxhi, cylo, cyhi = cert.corner[:, 0].tolist()
        assert (cxhi, cyhi) == (1.0, 1.0)
        assert 0.9 < cxlo <= cylo < 1.0
        assert cert.to_report_dict()["corner_box"] == [cxlo, cxhi, cylo, cyhi]
        # the corner box is not a proven box, and no proven box overlaps it
        _, xhi, _, yhi = cert.proven
        assert not ((xhi > cxlo) & (yhi > cylo)).any()

    def test_proven_boxes_inside_working_domain(self):
        task = CertificationTask(target=Target.QUADRATIC_MEDIAN)
        cert = certify(task)
        xlo, xhi, _, yhi = cert.proven
        assert (xlo >= task.mu).all()
        assert (xhi <= 1.0 - task.delta + 1e-15).all()
        assert (yhi <= 1.0).all()
        assert (xhi + yhi >= 1.0 + task.mu).all()

    # at mu = 1e-20, 1 + mu rounds to 1 and key-system's second residual,
    # 0 on a whole curve, goes to the bisection: 3,900 boxes stay undecided
    STUCK = CertificationTask(target=Target.KEY_SYSTEM, mu=1e-20, delta=1e-8,
                              min_box_width=1e-15, max_depth=200, box_budget=8_000)

    def test_proven_boxes_sorted_and_disjoint_from_undecided(self):
        cert = certify(self.STUCK)
        assert cert.undecided_count > 0
        # both sets are sorted by xlo, then ylo, then xhi, then yhi
        for boxes in (cert.proven, cert.undecided):
            xlo, xhi, ylo, yhi = boxes
            order = np.lexsort((yhi, xhi, ylo, xlo))
            assert (order == np.arange(boxes.shape[1])).all()
        # no undecided box interior may overlap a proven box interior
        xlo, xhi, ylo, yhi = cert.proven
        u = cert.undecided
        for i in range(0, u.shape[1], max(1, u.shape[1] // 40)):
            uxlo, uxhi, uylo, uyhi = u[:, i]
            overlap = (xlo < uxhi) & (xhi > uxlo) & (ylo < uyhi) & (yhi > uylo)
            assert not overlap.any()

    def test_report_lists_the_first_undecided_boxes(self):
        cert = certify(self.STUCK)
        assert cert.undecided_count > 1000
        doc = cert.to_report_dict()
        assert len(doc["undecided"]) == 1000
        assert doc["undecided"] == [cert.undecided[:, i].tolist() for i in range(1000)]
        assert doc["undecided_truncated"] is True

    def test_report_lists_every_undecided_box_under_the_cap(self):
        cert = _branch_and_bound(CertificationTask(target=Target.ALTITUDE_REDUCED, max_depth=6,
                                         delta=0.0))
        doc = cert.to_report_dict()
        assert 1 < cert.undecided_count < 1000
        assert doc["undecided"] == [list(box) for box in zip(*cert.undecided.tolist())]
        assert doc["undecided_truncated"] is False

    def test_budget_exhaustion_is_normal_termination(self):
        cert = certify(CertificationTask(target=Target.MAIN_MEDIAN, box_budget=50))
        assert cert.stats.budget_exhausted
        assert cert.undecided_count > 0

    @pytest.mark.parametrize("target, settings", [
        (Target.MAIN_MEDIAN, {}),
        (Target.KEY_SYSTEM, {"mu": 1e-17, "delta": 1e-6, "max_depth": 9}),
        (Target.SCALENE_LEMMA, {"delta": 0.0}),
        (Target.KEY_SYSTEM, {"mu": 1e-20, "delta": 0.0, "max_depth": 10}),
        (Target.QUADRATIC_MEDIAN, {"min_box_width": 1e-3}),
        (Target.ALTITUDE_REDUCED, {"max_depth": 4}),
    ])
    def test_per_level_trace_sums_to_the_totals(self, target, settings):
        cert = _branch_and_bound(CertificationTask(target=target, **settings))
        stats = cert.stats
        levels = np.array(stats.per_level)
        assert levels.shape == (stats.levels, 4)
        boxes, proven, stuck, split = levels.T
        assert boxes.sum() == stats.boxes_processed
        assert proven.sum() == cert.proven_count
        assert stuck.sum() == cert.undecided_count
        assert (boxes - proven - stuck - split).sum() == cert.corner.shape[1]
        # each level holds at most the two halves of every box split above it
        assert (boxes[1:] <= 2 * split[:-1]).all()
        assert split[-1] == 0
        doc = cert.to_report_dict()["stats"]
        assert doc["per_level"] == levels.tolist()

    def test_per_level_trace_leaves_out_an_unprocessed_queue(self):
        cert = certify(CertificationTask(target=Target.MAIN_MEDIAN, box_budget=50))
        boxes, proven, stuck, split = np.array(cert.stats.per_level).T
        assert boxes.sum() == cert.stats.boxes_processed <= 50
        assert proven.sum() == cert.proven_count
        # the queue the budget left is undecided but in no level
        assert stuck.sum() < cert.undecided_count <= 2 * split[-1]

    def test_undecided_hull(self):
        cert = certify(CertificationTask(target=Target.SCALENE_LEMMA))
        assert cert.undecided_count == 0
        assert cert.to_report_dict()["stats"]["undecided_hull"] is None
        # boxes left at the depth limit, away from every vertex
        cert = _branch_and_bound(CertificationTask(target=Target.ALTITUDE_REDUCED, max_depth=6,
                                         delta=0.0))
        uxlo, uxhi, uylo, uyhi = cert.undecided
        assert cert.undecided.shape[1] > 1
        hull = cert.to_report_dict()["stats"]["undecided_hull"]
        assert hull["box"] == [uxlo.min(), uxhi.max(), uylo.min(), uyhi.max()]
        assert set(hull["distance"]) == {v.name for v in _VERTICES}
        for v in _VERTICES:
            # the max-norm distance from the vertex to the nearest point of
            # the hull, which is at most that to any undecided box
            gaps = np.maximum.reduce([uxlo - v.x, v.x - uxhi, uylo - v.y, v.y - uyhi,
                                      np.zeros(uxlo.size)])
            assert 0.0 < hull["distance"][v.name] <= gaps.min()
            xlo, xhi, ylo, yhi = hull["box"]
            nearest = (min(max(v.x, xlo), xhi), min(max(v.y, ylo), yhi))
            assert hull["distance"][v.name] == max(abs(nearest[0] - v.x),
                                                   abs(nearest[1] - v.y))

    def test_undecided_hull_at_the_flat_edge(self):
        # At mu = 1e-20, 1 + mu rounds to 1: the square identity has no
        # positive floor, and key-system's r2, 0 on 2y^2 = x^2 + 1, has no
        # proof.  Most undecided boxes sit at the flat edge x + y = 1, the
        # rest along that curve up to (1, 1), so the hull holds (1, 1) and
        # reaches x = mu.
        task = CertificationTask(target=Target.KEY_SYSTEM, mu=1e-20, delta=0.0,
                                 box_budget=300_000)
        cert = certify(task)
        assert cert.stats.budget_exhausted
        assert cert.undecided_count == 137_510
        xlo, xhi, ylo, yhi = cert.undecided
        width = np.maximum(xhi - xlo, yhi - ylo)
        on_edge = np.abs(xlo + yhi - 1.0) <= 2.0 * width
        assert on_edge.sum() > cert.undecided_count // 2
        hull = cert.to_report_dict()["stats"]["undecided_hull"]
        assert hull["box"] == [task.mu, 1.0, 0.5, 1.0]
        assert hull["distance"] == {"vertex_1_1": 0.0, "vertex_0_1": task.mu}

    @pytest.mark.parametrize("mu, identity", [(1e-6, True), (1e-12, True), (1e-17, False)])
    def test_key_system_report_names_the_route_it_used(self, mu, identity, rng):
        # At mu = 1e-17, 1 + mu rounds to 1: the floor of x + y - 1 is not
        # positive, so r2 is bounded by the branch-and-bound with r1 and r3,
        # and the report must not credit the square identity.  Where it
        # applies, `certify` proves all three parts by it, with no box.
        task = CertificationTask(target=Target.KEY_SYSTEM, mu=mu, box_budget=2000)
        cert = certify(task)
        doc = cert.to_report_dict()
        assert (cert.identity is not None) is identity
        assert ("proof" in doc) is identity
        assert (min(key_system_identity_floors(mu).values()) > 0.0) is identity
        assert ("second_residual" in doc["excluded"]) is not identity
        if identity:
            return
        residual = doc["excluded"]["second_residual"]
        assert residual["equality_locus"] == "2*b^2 = a^2 + c^2"
        assert residual["heron_floors"] == key_system_identity_floors(mu)
        how = residual["certification"]
        assert how.startswith("bounded by the branch-and-bound")
        assert how.endswith("proven boxes certify r1 > 0, r2 > 0, r3 > 0")
        # and so they do, r2 included, at 50 digits
        assert cert.proven_count > 0
        for i in rng.permutation(cert.proven_count)[:20]:
            xlo, xhi, ylo, yhi = cert.proven[:, i]
            for x, y in zip(rng.uniform(xlo, xhi, 20), rng.uniform(ylo, yhi, 20)):
                if _in_domain(x, y, mu, task.delta):
                    assert min(oracles.target_parts_hp("key-system", x, y)) > 0, (x, y)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            CertificationTask(target=Target.MAIN_MEDIAN, mu=0.3)
        with pytest.raises(ValueError):
            CertificationTask(target=Target.MAIN_MEDIAN, delta=0.6)
        with pytest.raises(ValueError):
            CertificationTask(target=Target.MAIN_MEDIAN, max_depth=0)

    def test_target_names(self):
        assert Target("main-median") is Target.MAIN_MEDIAN
        with pytest.raises(ValueError):
            Target("nonsense")


def _assert_covers_domain(cert):
    """The proven, corner and undecided boxes cover W(mu, delta) less the
    excluded corner square, checked exactly in `Fraction`.

    Every box edge bounds a strip of x values, so a box that meets a
    strip's interior spans the whole strip, and the strip's part of W,
    {max(x, s - x) <= y <= 1}, is covered iff those boxes' y intervals
    cover [max(xl, s - xu, s/2), 1].  That covers the interior of W, and
    so W, the closure of its interior, as the union of the boxes is closed.
    """
    task = cert.task
    xlo, xhi, ylo, yhi = np.concatenate([cert.proven, cert.corner, cert.undecided], axis=1)
    mu, s = Fraction(task.mu), Fraction(1.0 + task.mu)
    x_end = Fraction(cert.excluded["corner_square"]["x"][0])
    edges = sorted(set(xlo.tolist()) | set(xhi.tolist()) | {task.mu, float(x_end)})
    strips = 0
    for a, b in zip(edges, edges[1:]):
        xl, xu = max(Fraction(a), mu), min(Fraction(b), x_end)
        y_floor = max(xl, s - xu, s / 2)
        if xl >= xu or y_floor >= 1:
            continue  # no interior point of W lies in this strip
        spans = (xlo <= a) & (xhi >= b)
        reached = y_floor
        for lo, hi in sorted(zip(ylo[spans].tolist(), yhi[spans].tolist())):
            if lo > reached:
                break
            reached = max(reached, Fraction(hi))
        assert reached >= 1, (a, b, float(y_floor), float(reached))
        strips += 1
    assert strips > 0


class TestGrid:
    """The grid levels bisect without bounding, and every limit of a run
    still holds: a box is undecided only at its depth or width limit or in
    the queue an exhausted budget leaves, and the boxes cover W."""

    RUNS = [
        (Target.MAIN_MEDIAN, {"max_depth": 1}),
        (Target.KEY_SYSTEM, {"mu": 1e-17, "max_depth": 2, "delta": 0.0}),
        (Target.QUADRATIC_MEDIAN, {"max_depth": 4}),
        (Target.ALTITUDE_REDUCED, {"min_box_width": 0.2}),
        (Target.SCALENE_LEMMA, {"min_box_width": 0.6, "delta": 0.0}),
        (Target.MAIN_MEDIAN, {"box_budget": 1}),
        (Target.KEY_SYSTEM, {"mu": 1e-17, "box_budget": 10}),
        (Target.QUADRATIC_MEDIAN, {"box_budget": 31, "delta": 0.0}),
        (Target.KEY_SYSTEM, {"mu": 1e-20, "delta": 0.0, "box_budget": 3000}),
        (Target.ALTITUDE_REDUCED, {}),
    ]
    IDS = [f"{t.value}-{'-'.join(f'{k}={v}' for k, v in kw.items()) or 'defaults'}"
           for t, kw in RUNS]

    @staticmethod
    def _traced(monkeypatch, task):
        """The certificate, each level's clipped boxes, and the boxes of each
        bounded level.

        One `_lower_bounds` call may bound a level together with the levels
        below it, so the levels are rebuilt as the level-synchronous loop
        builds them: from the root box, clip and drop the empty boxes;
        bisect every box of a grid level, and the boxes of a bounded level
        that the certificate lists neither proven, corner nor undecided.  A
        level after the grid is bounded when `_lower_bounds` saw every one
        of its boxes.
        """
        bound = certifier._lower_bounds
        seen = set()

        def bound_recording(target, xlo, xhi, ylo, yhi):
            seen.update(zip(xlo.tolist(), xhi.tolist(), ylo.tolist(), yhi.tolist()))
            return bound(target, xlo, xhi, ylo, yhi)

        monkeypatch.setattr(certifier, "_lower_bounds", bound_recording)
        cert = _branch_and_bound(task)
        resolved = {tuple(box) for part in (cert.proven, cert.corner, cert.undecided)
                    for box in part.T.tolist()}
        clipped, bounded = [], []
        boxes = _column(task.mu, 1.0 - task.delta, task.mu, 1.0)
        while True:
            boxes, ok = _clip_to_domain(boxes, task.mu)
            boxes = boxes[:, ok]
            if not ok.any():
                break
            clipped.append(boxes)
            keys = list(map(tuple, boxes.T.tolist()))
            if len(clipped) <= cert.stats.grid_depth:
                assert seen.isdisjoint(keys)
                boxes = _bisect(boxes)
                continue
            if not seen.issuperset(keys):
                break
            bounded.append(set(keys))
            split = np.array([key not in resolved for key in keys])
            if not split.any():
                break
            boxes = _bisect(boxes[:, split])
        return cert, clipped, bounded

    @pytest.mark.parametrize("target, settings", RUNS, ids=IDS)
    def test_undecided_only_at_a_limit(self, target, settings, monkeypatch):
        task = CertificationTask(target=target, **settings)
        cert, clipped, bounded = self._traced(monkeypatch, task)
        stats = cert.stats
        grid_end = min(_GRID_DEPTH, task.max_depth)
        widths = [np.maximum(c[1] - c[0], c[3] - c[2]) for c in clipped]
        assert len(bounded) == stats.levels
        assert stats.max_depth_reached == len(clipped) - 1 - stats.budget_exhausted
        assert stats.levels == stats.max_depth_reached + 1 - stats.grid_depth
        # the grid stops at grid_end, or at the first level with a box at
        # or below min_box_width, or when the budget runs out
        assert stats.grid_depth <= grid_end
        for w in widths[:stats.grid_depth]:
            assert (w > task.min_box_width).all()
        if stats.levels:
            assert stats.grid_depth == grid_end or (
                widths[stats.grid_depth] <= task.min_box_width).any()
        else:
            assert stats.budget_exhausted
        # the grid is a prefix: every level after it is bounded, with the
        # boxes its trace counts
        assert [len(level) for level in bounded] == [
            c[0].shape[0] for c in clipped[stats.grid_depth:stats.grid_depth + stats.levels]]
        assert [len(level) for level in bounded] == [level[0] for level in stats.per_level]
        assert stats.boxes_processed <= task.box_budget
        unbounded = 0
        for box in map(tuple, cert.undecided.T.tolist()):
            levels = [i for i, level in enumerate(bounded) if box in level]
            if not levels:
                unbounded += 1
                continue
            assert len(levels) == 1
            depth = stats.grid_depth + levels[0]
            assert (depth >= task.max_depth
                    or max(box[1] - box[0], box[3] - box[2]) <= task.min_box_width), box
        stuck = sum(level[2] for level in stats.per_level)
        assert unbounded == cert.undecided_count - stuck
        if stats.budget_exhausted:
            # the unbounded boxes are the last level's queue, as clipped
            assert unbounded == clipped[-1][0].shape[0] > 0
        else:
            assert unbounded == 0

    @pytest.mark.parametrize("target, settings", RUNS, ids=IDS)
    def test_per_level_sums_and_cover(self, target, settings):
        cert = _branch_and_bound(CertificationTask(target=target, **settings))
        stats = cert.stats
        assert len(stats.per_level) == stats.levels
        boxes, proven, stuck, split = np.array(stats.per_level, dtype=int).reshape(-1, 4).T
        assert boxes.sum() == stats.boxes_processed
        assert proven.sum() == cert.proven_count
        assert (boxes - proven - stuck - split).sum() == cert.corner.shape[1]
        if stats.budget_exhausted:
            assert stuck.sum() < cert.undecided_count
        else:
            assert stuck.sum() == cert.undecided_count
        doc = cert.to_report_dict()["stats"]
        assert (doc["grid_depth"], doc["levels"]) == (stats.grid_depth, stats.levels)
        _assert_covers_domain(cert)

    @pytest.mark.parametrize("target, settings", RUNS, ids=IDS)
    def test_cli_exit_code_follows_undecided(self, target, settings, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "certify", _branch_and_bound)
        out = tmp_path / "cert.json"
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
        rc = cli_main(["certify", "--target", target.value, *flags, "-o", str(out)])
        cert = json.loads(out.read_text())["certificate"]
        assert rc == (0 if cert["undecided_count"] == 0 else 1)
        assert cert["stats"]["budget_exhausted"] == ("box_budget" in settings)

    def test_defaults_bound_from_the_grid_depth(self):
        stats = certify(CertificationTask(target=Target.MAIN_MEDIAN)).stats
        assert stats.grid_depth == _GRID_DEPTH
        assert stats.max_depth_reached == _GRID_DEPTH + stats.levels - 1


class TestLookAhead:
    """Deciding a level together with the generations below it changes no
    certificate: with the look-ahead off (gate 0), at the default gate and
    at a wide gate, the reports are the same bytes but for
    `stats.evaluations`.  The wide gate is finite: the generations below a
    level of n boxes may hold up to 2**g * n boxes at depth g, and
    unbounded they would grow until box_budget."""

    SETTINGS = [{}, {"delta": 0.0}, {"box_budget": 10}, {"box_budget": 31},
                {"max_depth": 2}, {"max_depth": 7}, {"min_box_width": 0.2}]
    # Its levels hold 32, 64, 116, 206, 346, 524 and 830 boxes before the
    # budget runs out, so at the default gate some levels take generations
    # along and some do not.
    WIDE = (Target.KEY_SYSTEM, {"mu": 1e-20, "delta": 0.0, "box_budget": 3000})
    # Key-system runs at mu = 1e-17, where `certify` runs its
    # branch-and-bound; the first two settings set no limit, so there they
    # take `KEY_FALLBACK`'s budget instead.
    RUNS = ([(t, kw) for kw in SETTINGS for t in CLOSING]
            + [(Target.KEY_SYSTEM, {**KEY_FALLBACK, **kw}) for kw in SETTINGS[:2]]
            + [(Target.KEY_SYSTEM, {"mu": 1e-17, **kw}) for kw in SETTINGS[2:]] + [WIDE])
    IDS = [f"{t.value}-{'-'.join(f'{k}={v}' for k, v in kw.items()) or 'defaults'}"
           for t, kw in RUNS]

    @pytest.mark.parametrize("target, settings", RUNS, ids=IDS)
    def test_same_certificate_as_the_sequential_loop(self, target, settings, monkeypatch):
        task = CertificationTask(target=target, **settings)
        default = certifier._LOOKAHEAD_BOXES
        reports, evaluations = [], []
        for gate in (0, default, 4096):
            monkeypatch.setattr(certifier, "_LOOKAHEAD_BOXES", gate)
            doc = _branch_and_bound(task).to_report_dict(include_proven=True)
            stats = doc["stats"]
            assert stats["evaluations"] <= stats["levels"]
            evaluations.append(stats.pop("evaluations"))
            reports.append(reproducible_bytes(doc))
        assert reports[0] == reports[1] == reports[2]
        assert evaluations[0] == stats["levels"]
        if (target, settings) == self.WIDE:
            sizes = [level[0] for level in stats["per_level"]]
            assert min(sizes) <= default < max(sizes)
            assert evaluations[2] < evaluations[1] < evaluations[0]

    def test_one_evaluation_decides_three_levels(self, monkeypatch):
        # certify-corner's run: levels of 32, 18 and 8 boxes, the last two
        # taken from the two generations below the first
        batches = []
        decide = certifier._decide

        def recording(target, boxes):
            batches.append(boxes.shape[1])
            return decide(target, boxes)

        monkeypatch.setattr(certifier, "_decide", recording)
        stats = certify(CertificationTask(Target.MAIN_MEDIAN, delta=0.0, min_box_width=1e-15,
                                          max_depth=200, box_budget=3000)).stats
        assert [level[0] for level in stats.per_level] == [32, 18, 8]
        assert stats.evaluations == len(batches) == 1
        assert 32 + 18 + 8 < batches[0] <= certifier._LOOKAHEAD_BOXES

    def test_certify_suite_makes_15_evaluations(self, monkeypatch):
        # certify-suite's nine runs that use the branch-and-bound make 42
        # evaluations one level at a time; key-system's and altitude-
        # reduced's six make none, and altitude-reduced's three make 6 for
        # 12 levels bounded
        targets = (Target.MAIN_MEDIAN, Target.QUADRATIC_MEDIAN, Target.KEY_SYSTEM,
                   Target.ALTITUDE_REDUCED, Target.SCALENE_LEMMA)
        settings = ({}, {"mu": 1e-12, "delta": 1e-6}, {"mu": 1e-12, "delta": 1e-7})

        def totals(run, chosen):
            """(evaluations, levels) of `run` over the chosen targets' runs."""
            stats = [run(CertificationTask(t, **kw)).stats for t in chosen for kw in settings]
            return sum(s.evaluations for s in stats), sum(s.levels for s in stats)

        by_identity = (Target.KEY_SYSTEM, Target.ALTITUDE_REDUCED)
        assert totals(certify, targets) == (15, 42)
        assert totals(certify, by_identity) == (0, 0)
        assert totals(_branch_and_bound, (Target.ALTITUDE_REDUCED,)) == (6, 12)
        monkeypatch.setattr(certifier, "_LOOKAHEAD_BOXES", 0)
        assert totals(certify, targets) == (42, 42)


class TestKeyFallback:
    """Key-system where `certify` runs its branch-and-bound (1 + mu rounds
    to 1) decides the same boxes, level by level, as when the
    branch-and-bound still carried key-system's (0, 1) and (1/2, 1/2)
    forms: those forms proved no box there, so retiring them changed no
    decision.  The digests were taken with those forms in place."""

    PINNED = {
        (1e-17, 0.0): "6a47ed4eae54423f58f252a8c805244b77cb849db262cd4eaba8c1f66839aea2",
        (1e-17, 1e-7): "e6f8838dc1d3bc4d193c8c8e8ea38fed52a35cea82ac219a5d6452cb87d0adde",
        (1e-17, 1e-3): "d2fe986267a5f3800d571594cdabca5c462e1a5220f7af3e3a4201619ce5bb59",
        (1.1e-16, 0.0): "6998aef5b6f5552b86953430592344f94630e00491c0e93b0f183e244ae3c776",
        (1.1e-16, 1e-7): "1016fb01da704841cdccb67623e0534534aa6fc4bc099bb28b57db6863b58067",
        (1.1e-16, 1e-3): "7fe9000e9aa6dbafad74a456b987a56b74f0f0d852ef394918b41f15b2f88aa8",
        (1e-20, 0.0): "b79403c2e112945f2eb198fb3a20e9252b2326139691e861cdeafd46e1441971",
        (1e-20, 1e-7): "461a747d45567d447013ada4c4d93f0b4c811e921af80e1f420289c675e5ffcc",
        (1e-20, 1e-3): "c23806ddba8e5375b55af975788f8503f5b1b42ce928c84fadfc6f10319456a3",
    }

    @pytest.mark.parametrize("mu, delta", list(PINNED), ids=[f"mu={m}-delta={d}" for m, d in PINNED])
    def test_decides_as_pinned(self, mu, delta):
        cert = certify(CertificationTask(Target.KEY_SYSTEM, mu, delta, box_budget=40000))
        assert cert.identity is None
        assert cert.stats.budget_exhausted and cert.undecided_count > 0
        assert cert.stats.proven_by == {"bound": cert.proven_count, "vertex_1_1": 0,
                                        "vertex_0_1": 0}
        doc = {"proven": cert.proven.tolist(), "corner": cert.corner.tolist(),
               "undecided": cert.undecided.tolist(), "per_level": cert.stats.per_level,
               "evaluations": cert.stats.evaluations}
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == self.PINNED[(mu, delta)]


class TestProvenBoxSoundness:
    """Spot version of the acceptance sampling: interior points of proven
    boxes evaluate positive."""

    @pytest.mark.parametrize("target", list(Target))
    def test_interior_sampling(self, target, rng):
        settings = KEY_FALLBACK if target is Target.KEY_SYSTEM else {}
        cert = _branch_and_bound(CertificationTask(target=target, **settings))
        xlo, xhi, ylo, yhi = cert.proven
        idx = rng.integers(0, cert.proven_count, 60)
        for i in idx:
            u = rng.uniform(0.05, 0.95, 50)
            v = rng.uniform(0.05, 0.95, 50)
            px = xlo[i] + u * (xhi[i] - xlo[i])
            py = ylo[i] + v * (yhi[i] - ylo[i])
            inside = bulk.in_normalized_domain(px, py)
            if not inside.any():
                continue
            assert (point_values(target, px[inside], py[inside]) > 0.0).all()


class TestProvingBoundSoundness:
    """The branch-and-bound pruning bound never exceeds the sampled minimum
    of the statement it certifies, including on boxes straddling the
    degeneracy edge and the ordering diagonal (where hulls spill outside
    the domain and naive bounds would be wrong in both directions)."""

    def test_adversarial_boxes(self, rng):
        from cevians.certifier import _lower_bounds

        mu = 1e-6
        boxes = []
        for _ in range(120):  # edge-straddling
            x0 = rng.uniform(1e-3, 0.499)
            w = 10 ** rng.uniform(-7, -1.5)
            y0 = 1.0 + mu - x0 - rng.uniform(-2, 1) * w
            boxes.append((x0, x0 + w, y0, y0 + w))
        for _ in range(60):  # diagonal-straddling
            t0 = rng.uniform(0.52, 0.995)
            w = 10 ** rng.uniform(-7, -2)
            boxes.append((t0 - 0.3 * w, t0 + w, t0 - 0.5 * w, t0 + w))
        for _ in range(60):  # near the excluded corner boundary
            w = 10 ** rng.uniform(-8, -2.5)
            x0 = 1.0 - 1e-3 - rng.uniform(0, 3) * w
            boxes.append((x0, x0 + w, rng.uniform(1.0 - 3e-3, 1.0 - w),
                          rng.uniform(1.0 - 3e-3, 1.0 - w) + w))

        for _ in range(60):  # lower-left corner cut off by the edge
            x0 = rng.uniform(1e-3, 0.499)
            w = 10 ** rng.uniform(-7, -1.5)
            y0 = 1.0 + mu - x0 - rng.uniform(1, 2) * w
            boxes.append((x0, x0 + w, y0, y0 + w))

        mean_value_outside = 0
        for raw in boxes:
            (xlo, xhi, ylo, yhi), ok = _clip_to_domain(_column(*raw), mu)
            if not bool(ok[0]):
                continue
            px = rng.uniform(xlo[0], xhi[0], 1500)
            py = rng.uniform(ylo[0], yhi[0], 1500)
            mask = (px >= mu) & (px <= py) & (py <= 1.0) & (px + py >= 1.0 + mu)
            if not mask.any():
                continue
            mx, my = 0.5 * (xlo[0] + xhi[0]), 0.5 * (ylo[0] + yhi[0])
            mid_outside = Fraction(mx) + Fraction(my) < Fraction(1.0 + mu) or mx > my
            for target in Target:
                bound = float(_lower_bounds(TARGETS[target], xlo, xhi, ylo, yhi)[0])
                assert bound <= point_values(target, px[mask], py[mask]).min()
                if mid_outside:
                    jets = _jets(TARGETS[target].parts, 1, xlo, xhi, ylo, yhi)
                    mean_value_outside += all(jet.ok[0] for jet in jets)
        # Lanes where the mean-value form expands about a midpoint outside W.
        assert mean_value_outside > 0


class TestCornerArgument:
    def test_default_delta(self):
        rep = corner_argument_check(1e-3)
        assert rep.both_positive
        assert rep.equal_legs_factor.lower_bound > 0
        assert rep.equal_base_factor.lower_bound > 0
        assert rep.equal_legs_factor.domain_hi == 1.0 - 1e-6

    def test_wide_delta_clamps_domain(self):
        rep = corner_argument_check(0.4)
        assert rep.both_positive
        assert rep.equal_legs_factor.domain_lo > 0.5

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            corner_argument_check(0.0)
        with pytest.raises(ValueError):
            corner_argument_check(0.5)

    def test_report_dict(self):
        doc = corner_argument_check(1e-3).to_report_dict()
        assert doc["both_positive"] is True
        assert doc["sliver"] == [1.0 - 1e-6, 1.0]
        assert len(doc["factors"]) == 2

    # (boxes_processed, lower_bound) of the (equal-legs, equal-base) factors,
    # as the depth-first scalar Interval bisection reported them
    @pytest.mark.parametrize("delta, pinned", [
        (1e-3, ((39, 3.440624278816528e-07), (21, 9.074621756255396e-07))),
        (1e-5, ((13, 8.840687719668948e-07), (7, 5.412612793520565e-07))),
        (1e-6, ((3, 1.1547015570378958e-06), (1, 1.732048206193326e-06))),
        (0.1, ((65, 3.956722030018511e-07), (35, 1.2766296548782916e-06))),
        (0.49, ((69, 3.9579148669588443e-07), (41, 9.792979720479875e-07))),
    ])
    def test_pinned_results(self, delta, pinned):
        rep = corner_argument_check(delta)
        for fac, (boxes, bound) in zip((rep.equal_legs_factor, rep.equal_base_factor),
                                       pinned):
            assert fac.certified
            assert (fac.boxes_processed, fac.lower_bound) == (boxes, bound)

    def test_band_reaching_the_equality_point_is_uncertified(self, monkeypatch):
        # both factors are 0 at x = 1, so no enclosure there is positive
        monkeypatch.setattr(certifier, "_CORNER_ETA", 0.0)
        rep = corner_argument_check(1e-3)
        assert not rep.both_positive
        for fac in (rep.equal_legs_factor, rep.equal_base_factor):
            assert fac.domain_hi == 1.0
            assert not fac.certified
            assert fac.lower_bound == 0.0
            assert fac.boxes_processed > 0

    @pytest.mark.parametrize("factor, sides, lo", [
        (equal_legs_second_factor, lambda x: (x, x, 1.0), 0.5 + 1e-9),
        (equal_base_second_factor, lambda x: (x, 1.0, 1.0), 1e-6),
    ])
    def test_enclosure_contains_mpmath_value(self, rng, factor, sides, lo):
        x = rng.uniform(lo, 1.0 - 1e-6, 1500)
        for n in (100, x.size):  # both rounding paths of the endpoint arrays
            enc_lo, enc_hi = factor(_IntervalOps, (x[:n], x[:n]))
            for xv, elo, ehi in zip(x[:n], enc_lo, enc_hi):
                t = sides(float(xv))
                exact = (2 * oracles.slack_main_hp(*t, *oracles.medians_hp(*t))
                         / (1 - oracles.mp.sqrt(xv)))
                assert elo <= exact <= ehi

    def test_no_scalar_interval_arithmetic(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("scalar Interval arithmetic")

        for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "sqrt"):
            monkeypatch.setattr(Interval, op, forbidden)
        assert corner_argument_check(1e-3).both_positive
        certify(CertificationTask(Target.MAIN_MEDIAN, box_budget=200))


class TestCornerForm:
    """The Taylor form at (1, 1) that closes the equality corner at delta = 0,
    checked against the independent 50-digit oracles."""

    @pytest.mark.parametrize("target", list(Target))
    def test_equilateral_facts(self, target):
        sqrt3 = oracles.mp.sqrt(3)
        values = oracles.target_parts_hp(target.value, 1, 1)
        gx = oracles.target_derivative_hp(target.value, 1, 1, (1, 0))
        gy = oracles.target_derivative_hp(target.value, 1, 1, (0, 1))
        orders = TARGETS[target].facts["vertex_1_1"]
        assert len(orders) == len(values)
        for order, v, dx, dy in zip(orders, values, gx, gy):
            assert v == 0
            if order == 2:
                assert abs(dx) < 1e-25 and abs(dy) < 1e-25
            else:
                assert target is Target.SCALENE_LEMMA
                assert abs(dx + sqrt3 / 2) < 1e-25 and abs(dy + sqrt3 / 2) < 1e-25

    @pytest.mark.parametrize("target", list(Target))
    def test_enclosures_contain_mpmath_derivatives(self, target, rng):
        mu = 1e-6
        orders = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        n = 300
        boxes, _ = _clip_to_domain(sample_domain_boxes(rng, n), mu)
        # and boxes that hold (1, 1), as the certifier meets them
        w = 2.0 ** -np.arange(1, 11)
        (xlo, xhi, ylo, yhi), _ = _clip_to_domain(
            np.concatenate([boxes, [1.0 - w, np.ones_like(w), 1.0 - w, np.ones_like(w)]],
                           axis=1),
            mu)
        parts = _jets(TARGETS[target].parts, 2, xlo, xhi, ylo, yhi)
        natural = TARGETS[target].parts(_IntervalOps, (xlo, xhi), (ylo, yhi))
        for p, nat in zip(parts, natural):
            assert np.array_equal(_bits(p.d[0][0]), _bits(nat[0]))
            assert np.array_equal(_bits(p.d[1][0]), _bits(nat[1]))
            assert p.ok.all()
        # the first-order jets that `_lower_bounds` uses are the value
        # and gradient of the second-order ones, bit for bit
        first = _jets(TARGETS[target].parts, 1, xlo, xhi, ylo, yhi)
        assert len(first) == len(parts)
        for p1, p2 in zip(first, parts):
            assert len(p1.d[0]) == 3 and len(p2.d[0]) == 6
            for c in range(3):
                assert np.array_equal(_bits(p1.d[0][c]), _bits(p2.d[0][c]))
                assert np.array_equal(_bits(p1.d[1][c]), _bits(p2.d[1][c]))
            assert np.array_equal(p1.ok, p2.ok)
        last = xlo.shape[0] - 10
        for i in [*range(0, last, max(1, n // 15)), *range(last, last + 10)]:
            px = rng.uniform(xlo[i], xhi[i])
            py = rng.uniform(ylo[i], yhi[i])
            for comp, order in enumerate(orders):
                exact = oracles.target_derivative_hp(target.value, px, py, order)
                for p, e in zip(parts, exact):
                    assert p.d[0][comp][i] <= e <= p.d[1][comp][i], (order, i)

    @staticmethod
    def _wedge_points(rng, xlo, ylo, mu, count):
        """Points of the domain part of [xlo, 1] x [ylo, 1], many near (1, 1)."""
        scale = np.concatenate([rng.uniform(0.0, 1.0, count),
                                2.0 ** -rng.uniform(1, 45, count)])
        r = rng.uniform(0.0, 1.0, 2 * count)
        dx = -scale * (1.0 - xlo)
        px, py = 1.0 + dx, 1.0 + r * dx
        keep = ((px >= xlo) & (py >= ylo) & (px <= py) & (px + py >= 1.0 + mu)
                & (px < 1.0))
        return px[keep], py[keep]

    @pytest.mark.parametrize("target", CLOSING)
    def test_corner_box_is_nonnegative(self, target, rng):
        task = CertificationTask(target=target, delta=0.0)
        cert = _branch_and_bound(task)
        assert cert.undecided_count == 0
        assert cert.corner.shape[1] == 1
        px, py = self._wedge_points(rng, cert.corner[0, 0], cert.corner[2, 0],
                                    task.mu, 150)
        assert px.size > 100
        for x, y in zip(px, py):
            assert min(oracles.target_parts_hp(target.value, x, y)) > 0, (x, y)

    @pytest.mark.parametrize("target", list(Target))
    def test_bound_holds_below_every_part(self, target, rng):
        # F(p) >= bound * dx^2 / 2 for second-order parts and
        # F(p) >= bound * |dx| for first-order ones, on every corner box
        mu = 1e-6
        w = 2.0 ** -np.arange(1, 9)
        (xlo, xhi, ylo, yhi), _ = _clip_to_domain(
            np.array([1.0 - w, np.ones_like(w), 1.0 - w, np.ones_like(w)]), mu)
        bounds = _form(_VERTEX_1_1, target, xlo, xhi, ylo, yhi)
        if target is Target.KEY_SYSTEM:
            # r2 is 0 on 2y^2 = x^2 + 1, which enters (1, 1) with slope
            # 1/2, inside the form's wedge: the form proves no box
            assert not (bounds > 0.0).any()
        else:
            assert (bounds[-3:] > 0.0).all()
        for i in range(w.size):
            if not np.isfinite(bounds[i]):
                continue
            px, py = self._wedge_points(rng, xlo[i], ylo[i], mu, 40)
            for x, y in zip(px, py):
                parts = oracles.target_parts_hp(target.value, x, y)
                dx = abs(oracles.mp.mpf(x) - 1)
                for k, order in enumerate(TARGETS[target].facts["vertex_1_1"]):
                    scale = dx * dx / 2 if order == 2 else dx
                    assert parts[k] >= oracles.mp.mpf(bounds[i]) * scale, (w[i], x, y)


def _part_scale(fact, x):
    """The factor that scales a (0, 1) form's bound into a bound on a part
    at (x, y): sqrt(x) in s, x in x."""
    mx = oracles.mp.mpf(x)
    return {"s": oracles.mp.sqrt(mx), "x": mx}[fact]


def _in_domain(x, y, mu, delta):
    """(x, y) in W(mu, delta), the sum x + y compared exactly."""
    return (mu <= x <= y <= 1.0 and x <= 1.0 - delta
            and Fraction(x) + Fraction(y) >= Fraction(1.0 + mu))


class TestTargetRegistry:
    """`TARGETS` holds one consistent record per target; the exact facts in
    it are checked against the oracles by `TestCornerForm` and
    `TestVertexForms`."""

    VOCABULARY = {"vertex_1_1": {1, 2}, "vertex_0_1": {"s", "x"}}

    @classmethod
    def _check(cls):
        assert set(TARGETS) == set(Target)
        assert set(cls.VOCABULARY) == {v.name for v in _VERTICES}
        x, y = np.array([0.6]), np.array([0.8])
        for target, spec in TARGETS.items():
            n = len(spec.parts(_FloatOps, x, y))
            if spec.identity is not None:
                assert len(spec.identity.parts) == n, target
            for name, facts in spec.facts.items():
                assert name in cls.VOCABULARY, (target, name)
                assert len(facts) == n, (target, name)
                for fact in facts:
                    assert fact in cls.VOCABULARY[name], (target, name, fact)
            assert spec.corner_factors is (target is Target.MAIN_MEDIAN), target
            # the targets that `certify` proves with no box
            by_identity = target in (Target.KEY_SYSTEM, Target.ALTITUDE_REDUCED)
            assert (spec.identity is not None) is by_identity, target

    def test_registry_is_consistent(self):
        self._check()

    @pytest.mark.parametrize("target, change", [
        (Target.MAIN_BISECTOR, None),
        (Target.MAIN_MEDIAN, {"facts": {"vertex_1_1": (2,), "vertex_2_2": ("s",)}}),
        (Target.MAIN_MEDIAN, {"facts": {"vertex_1_1": (2, 2), "vertex_0_1": ("s",)}}),
        (Target.KEY_SYSTEM, {"facts": {"vertex_1_1": (2, 2, 2), "vertex_0_1": ("x", "x")}}),
        (Target.QUADRATIC_MEDIAN, {"facts": {"vertex_1_1": (2,), "vertex_0_1": ("split",)}}),
        (Target.SCALENE_LEMMA, {"facts": {"vertex_1_1": (3,)}}),
        (Target.SCALENE_LEMMA, {"facts": {"vertex_1_1": (1,), "vertex_0_1": (None,)}}),
        (Target.KEY_SYSTEM, {"facts": {"vertex_1_1": (2, 2, 2),
                                       "vertex_0_1": ("natural", "x", "x")}}),
        (Target.KEY_SYSTEM, {"facts": {"vertex_1_1": (2, 2, 2), "vertex_0_1": ("x", None, "x")}}),
        (Target.KEY_SYSTEM, {"facts": {"vertex_1_1": (2, 2, 2),
                                       "vertex_half_half": ("split", None, "natural")}}),
        (Target.KEY_SYSTEM, {"identity": dataclasses.replace(
            TARGETS[Target.KEY_SYSTEM].identity,
            parts=TARGETS[Target.KEY_SYSTEM].identity.parts + (("r4", _EQUALITY_POINT),))}),
        (Target.KEY_SYSTEM, {"identity": None}),
        (Target.QUADRATIC_MEDIAN, {"corner_factors": True}),
        (Target.MAIN_MEDIAN, {"corner_factors": False}),
    ], ids=["missing", "unknown-vertex", "count", "count-key", "vocabulary-0-1",
            "vocabulary-1-1", "none", "natural", "none-identity-part", "vertex-half-half",
            "identity-count", "identity-missing", "corner-extra", "corner-missing"])
    def test_check_fails_on_a_bad_record(self, target, change, monkeypatch):
        # with one record replaced by a bad one, or missing, the check fails
        if change is None:
            monkeypatch.delitem(TARGETS, target)
        else:
            monkeypatch.setitem(TARGETS, target, dataclasses.replace(TARGETS[target], **change))
        with pytest.raises(AssertionError):
            self._check()


class TestVertexForms:
    """The Taylor forms at the equality vertices (1, 1) and (0, 1): their
    exact facts, the boxes they prove, and the depth they save."""

    @pytest.mark.parametrize("target, variable, slope", [
        (Target.MAIN_MEDIAN, "s", 2),
        (Target.SCALENE_LEMMA, "s", 1),
        (Target.QUADRATIC_MEDIAN, "x", 2),
    ])
    def test_vertex_0_1_facts(self, target, variable, slope):
        assert TARGETS[target].facts["vertex_0_1"] == (variable,)
        assert oracles.target_parts_hp(target.value, 0, 1) == (0,)
        if variable == "s":
            (ds,) = oracles.target_sqrt_derivative_hp(target.value, 0, 1, (1, 0))
            (dy,) = oracles.target_sqrt_derivative_hp(target.value, 0, 1, (0, 1))
        else:
            (ds,) = oracles.target_derivative_hp(target.value, 0, 1, (1, 0))
            (dy,) = oracles.target_derivative_hp(target.value, 0, 1, (0, 1))
        assert abs(ds - slope) < 1e-25
        assert abs(dy) < 1e-25

    @staticmethod
    def _domain_points(rng, box, vertex, mu, delta, count):
        """`count` points of the box's part of W(mu, delta) other than the
        vertex, half of them clustered at the box corner nearest the vertex."""
        xlo, xhi, ylo, yhi = box
        xn, yn = min(max(vertex.x, xlo), xhi), min(max(vertex.y, ylo), yhi)
        xf, yf = (xhi if xn == xlo else xlo), (yhi if yn == ylo else ylo)
        points = []
        for _ in range(20):
            scale = rng.permutation(np.concatenate([np.ones(200),
                                                    2.0 ** -rng.uniform(1, 60, 200)]))
            px = xn + scale * rng.uniform(0, 1, 400) * (xf - xn)
            py = yn + scale * rng.uniform(0, 1, 400) * (yf - yn)
            for x, y in zip(px, py):
                if _in_domain(x, y, mu, delta) and (x, y) != (vertex.x, vertex.y):
                    points.append((x, y))
            if len(points) >= count:
                return points[:count]
        return points

    def test_vertex_proven_boxes_hold_at_50_digits(self, rng):
        # Every proven box that the bounds alone leave unproven was proven
        # by the form of the vertex it lies near; each is checked at 100
        # points, many within 2^-40 of that vertex.  (Key-system's forms
        # prove no box where `certify` runs its branch-and-bound.)
        checked = near_vertex = 0
        for target in CLOSING:
            for mu in (1e-6, 1e-12, 1e-20):
                for delta in (0.0, 1e-3, 1e-7):
                    cert = _branch_and_bound(CertificationTask(target=target, mu=mu, delta=delta))
                    by_vertex = _lower_bounds(TARGETS[target], *cert.proven) <= 0
                    boxes = cert.proven[:, by_vertex].T.tolist()
                    counts = cert.stats.proven_by
                    assert len(boxes) == sum(counts[v.name] for v in _VERTICES)
                    boxes += cert.corner.T.tolist()
                    for box in boxes:
                        vertex = min(_VERTICES, key=lambda v: max(
                            abs(box[0] - v.x), abs(box[2] - v.y)))
                        assert vertex.name in TARGETS[target].facts
                        points = self._domain_points(rng, box, vertex, mu, delta, 100)
                        assert len(points) == 100, (target, mu, delta, box)
                        for x, y in points:
                            parts = oracles.target_parts_hp(target.value, x, y)
                            assert min(parts) > 0, (target, mu, delta, x, y)
                            gap = max(abs(x - vertex.x), abs(y - vertex.y))
                            near_vertex += gap < 2**-40
                        checked += 1
        assert checked > 50
        assert near_vertex > 300

    @pytest.mark.parametrize("target", list(Target))
    def test_forms_see_only_the_box_extended_to_the_vertex(self, target, rng):
        # The Taylor argument runs along segments from the vertex, so each
        # form must enclose its derivatives over the box extended to the
        # vertex: boxes with the same extension get the same bound.
        mu = 1e-6
        w = 2.0 ** -rng.uniform(3, 30, 40)
        t = rng.uniform(0.0, 1.0, 40)
        lo, hi = 1.0 - (1.0 + t) * w, 1.0 - t * w
        same = _form(_VERTEX_1_1, target, lo, np.ones_like(w), lo, np.ones_like(w))
        assert np.array_equal(_bits(_form(_VERTEX_1_1, target, lo, hi, lo, hi)), _bits(same))
        if "vertex_0_1" in TARGETS[target].facts:
            xhi, ylo = (1.0 + t) * w, 1.0 - w
            same = _form(_VERTEX_0_1, target, np.full_like(w, mu), xhi, ylo, np.ones_like(w))
            assert np.array_equal(_bits(_form(_VERTEX_0_1, target, t * w, xhi, ylo,
                                              1.0 - t * w / 2)),
                                  _bits(same))

    @pytest.mark.parametrize("target", [t for t in Target if "vertex_0_1" in TARGETS[t].facts])
    def test_vertex_0_1_bound_holds_below_the_target(self, target, rng):
        # Each part >= bound * sqrt(x) in s or bound * x in x, on boxes
        # touching (0, 1) and on boxes up to twice their width away
        mu = 1e-20
        facts = TARGETS[target].facts["vertex_0_1"]
        w = 2.0 ** -np.arange(3, 30, 3)
        (xlo, xhi, ylo, yhi), ok = _clip_to_domain(np.array([
            np.concatenate([np.full_like(w, mu), w]), np.concatenate([w, 2 * w]),
            np.concatenate([1.0 - w, 1.0 - w]), np.concatenate([np.ones_like(w), 1.0 - w / 2]),
        ]), mu)
        assert ok.all()
        bounds = _form(_VERTEX_0_1, target, xlo, xhi, ylo, yhi)
        assert (bounds[w.size - 3:w.size] > 0.0).all()
        for i in np.nonzero(np.isfinite(bounds))[0]:
            box = (xlo[i], xhi[i], ylo[i], yhi[i])
            for x, y in self._domain_points(rng, box, _VERTEX_0_1, mu, 0.0, 40):
                parts = oracles.target_parts_hp(target.value, x, y)
                for part, fact in zip(parts, facts):
                    assert part >= oracles.mp.mpf(bounds[i]) * _part_scale(fact, x), (box, x, y)

    @pytest.mark.parametrize("target", CLOSING)
    def test_depth_does_not_depend_on_mu(self, target):
        levels = set()
        for mu in (1e-6, 1e-12, 1e-20):
            cert = _branch_and_bound(CertificationTask(target=target, mu=mu, delta=0.0))
            assert cert.undecided_count == 0
            assert cert.corner.shape[1] == 1
            stats = cert.stats
            assert stats.levels == stats.max_depth_reached + 1 - stats.grid_depth
            levels.add(cert.stats.levels)
        assert len(levels) == 1
        assert levels.pop() <= 10

    @pytest.mark.parametrize("target", list(Target))
    def test_proven_by_counts_every_proven_box(self, target):
        names = {"bound"} | {v.name for v in _VERTICES}
        assert len(names) == len(_VERTICES) + 1
        # key-system's form at (1, 1) proves no box (see
        # `TestCornerForm.test_bound_holds_below_every_part`)
        fallback = target is Target.KEY_SYSTEM
        for delta in (0.0, 1e-3):
            settings = KEY_FALLBACK if fallback else {}
            cert = _branch_and_bound(CertificationTask(target=target, delta=delta, **settings))
            counts = cert.stats.proven_by
            assert set(counts) == names
            assert sum(counts.values()) == cert.proven_count
            assert (counts["vertex_1_1"] + cert.corner.shape[1] > 0) is not fallback
            for vertex in _VERTICES:
                if fallback or vertex.name not in TARGETS[target].facts:
                    assert counts[vertex.name] == 0
                elif vertex.x < 1.0:
                    assert counts[vertex.name] > 0
            doc = cert.to_report_dict()["stats"]
            assert doc["proven_by"] == counts and doc["levels"] == cert.stats.levels


class _IvJetOps:
    """Value, gradient and Hessian in mpmath interval arithmetic, one
    component at a time: a jet is [v, gx, gy, hxx, hxy, hyy].  A reference
    for the enclosures that `_JetOps` makes with NumPy endpoint arrays,
    with the same rules and no shared code.  A float operand of add, mul
    or (as the subtrahend) sub is an exact constant, and two floats give a
    float."""

    PAIRS = ((0, 0), (0, 1), (1, 1))

    @staticmethod
    def add(a, b):
        if isinstance(a, float):
            a, b = b, a
        if isinstance(b, float):
            return a + b if isinstance(a, float) else [a[0] + b, *a[1:]]
        return [p + q for p, q in zip(a, b)]

    @staticmethod
    def sub(a, b):
        if isinstance(b, float):
            return a - b if isinstance(a, float) else [a[0] - b, *a[1:]]
        return [p - q for p, q in zip(a, b)]

    @classmethod
    def mul(cls, a, b):
        if isinstance(a, float):
            a, b = b, a
        if isinstance(b, float):
            return a * b if isinstance(a, float) else [p * b for p in a]
        v, w = a[0], b[0]
        g = [a[1 + i] * w + v * b[1 + i] for i in range(2)]
        h = [a[3 + k] * w + v * b[3 + k] + (a[1 + i] * b[1 + j] + a[1 + j] * b[1 + i])
             for k, (i, j) in enumerate(cls.PAIRS)]
        return [v * w, *g, *h]

    @classmethod
    def div(cls, a, b):
        w = b[0]
        q = a[0] / w
        g = [(a[1 + i] - q * b[1 + i]) / w for i in range(2)]
        h = [(a[3 + k] - (g[i] * b[1 + j] + g[j] * b[1 + i]) - q * b[3 + k]) / w
             for k, (i, j) in enumerate(cls.PAIRS)]
        return [q, *g, *h]

    @classmethod
    def sqrt(cls, a):
        if not a[0].a > 0:
            # the root of the radicand's nonnegative part, and derivatives
            # that are unbounded where it reaches 0
            whole = iv.mpf([-oracles.mp.inf, oracles.mp.inf])
            return [iv.sqrt(iv.mpf([0, a[0].b])), *[whole] * 5]
        s = iv.sqrt(a[0])
        g = [a[1 + i] / (2 * s) for i in range(2)]
        h = [(a[3 + k] - 2 * (g[i] * g[j])) / (2 * s) for k, (i, j) in enumerate(cls.PAIRS)]
        return [s, *g, *h]


def _iv_jets(parts, xlo, xhi, ylo, yhi, in_sqrt_x=False):
    one, zero = iv.mpf(1), iv.mpf(0)
    x = [iv.mpf([xlo, xhi]), one, zero, zero, zero, zero]
    y = [iv.mpf([ylo, yhi]), zero, one, zero, zero, zero]
    if in_sqrt_x:
        sy = _IvJetOps.sqrt(y)
        return parts(_IvJetOps, _IvJetOps.mul(x, x), y,
                     roots=(sy, x, _IvJetOps.mul(x, sy)))
    return parts(_IvJetOps, x, y)


def _reference_form(vertex, target, box):
    """The least bound over the parts that the vertex form derives from the
    exact facts, with `_IvJetOps` enclosures over the box extended to the
    vertex, and whether the enclosure of a (0, 1) part's gy straddles 0.
    """
    xlo, xhi, ylo, yhi = box
    spec = TARGETS[target]
    least, straddles = None, False
    for k, fact in enumerate(spec.facts[vertex.name]):
        if vertex is _VERTEX_1_1:
            _, gx, gy, hxx, hxy, hyy = _iv_jets(spec.parts, xlo, 1, ylo, 1)[k]
            if fact == 2:  # least Bernstein coefficient of the Hessian form
                bound = min(hxx.a, (hxx + hxy).a, (hxx + 2 * hxy + hyy).a)
            else:
                bound = min((-gx).a, (-gx - gy).a)
        else:
            # F >= x * (gx - max(gy, 0)), or s * (gs - s_hi * max(gy, 0))
            s_hi = iv.sqrt(xhi).b if fact == "s" else iv.mpf(1)
            jets = _iv_jets(spec.parts, 0, s_hi if fact == "s" else xhi, ylo, 1,
                            in_sqrt_x=fact == "s")
            _, g, gy = jets[k][:3]
            straddles |= bool(gy.a < 0 < gy.b)
            bound = (g - s_hi * (gy.b if gy.b > 0 else 0)).a
        least = bound if least is None else min(least, bound)
    return least, straddles


class TestFormsAgainstTheirReference:
    """No vertex form exceeds the bound its argument derives from the exact
    facts, on the boxes the forms meet in certify runs and on boxes up to
    twice their width from the vertex, wide ones among them.  Sampling the
    target cannot see a form that is too high by less than the target's
    own slack; this comparison can, for example a (0, 1) form that takes
    the lower end of gy where its enclosure straddles 0."""

    @staticmethod
    def _boxes(vertex, target, rng, monkeypatch):
        calls, form = [], vertex.bounds

        def recording(spec, facts, xlo, xhi, ylo, yhi):
            calls.extend(zip(xlo.tolist(), xhi.tolist(), ylo.tolist(), yhi.tolist()))
            return form(spec, facts, xlo, xhi, ylo, yhi)

        monkeypatch.setattr(vertex, "bounds", recording)
        runs = ({}, {"delta": 0.0}, {"mu": 1e-12, "delta": 1e-6})
        if target is Target.KEY_SYSTEM:
            runs = ({**KEY_FALLBACK, **kw} for kw in ({}, {"delta": 0.0}, {"delta": 1e-6}))
        for settings in runs:
            _branch_and_bound(CertificationTask(target=target, **settings))
        met = [calls[i] for i in rng.permutation(len(calls))[:30]]
        # boxes of width w about points of W within w of the vertex, so
        # within 2w of it, as `_Vertex.near` allows
        w = 2.0 ** -rng.uniform(2, 12, 2000)
        px = vertex.x + rng.uniform(-1, 1, w.size) * w
        py = vertex.y + rng.uniform(-1, 1, w.size) * w
        keep = np.nonzero([_in_domain(x, y, 1e-6, 0.0) for x, y in zip(px, py)])[0][:40]
        w, px, py, t = w[keep], px[keep], py[keep], rng.uniform(0, 1, (2, keep.size))
        (xlo, xhi, ylo, yhi), ok = _clip_to_domain(
            np.array([px - t[0] * w, px + (1 - t[0]) * w, py - t[1] * w, py + (1 - t[1]) * w]),
            1e-6)
        assert ok.all() and keep.size == 40
        return met + list(zip(xlo.tolist(), xhi.tolist(), ylo.tolist(), yhi.tolist()))

    @pytest.mark.parametrize("vertex, target", [
        (v, t) for v in _VERTICES for t in Target if v.name in TARGETS[t].facts],
        ids=lambda p: getattr(p, "name", None)
        or p.value)
    def test_form_stays_below_its_reference(self, vertex, target, rng, monkeypatch):
        boxes = self._boxes(vertex, target, rng, monkeypatch)
        forms = _form(vertex, target, *(np.array(c) for c in zip(*boxes)))
        prec, iv.prec = iv.prec, 200
        try:
            compared = straddling = 0
            for box, form in zip(boxes, forms):
                if not np.isfinite(form):
                    continue
                ref, straddles = _reference_form(vertex, target, box)
                assert form <= oracles.mp.mpf(ref) + 1e-40, (box, form, ref)
                compared += 1
                straddling += straddles
        finally:
            iv.prec = prec
        assert compared > 40
        if vertex is _VERTEX_0_1:
            assert straddling > 40


class TestReadmeTable:
    """The README's table at delta = 0 is what `certify` gives, cell by
    cell: the proof of each target, and boxes processed / levels where the
    branch-and-bound runs, or "identity" where the identity proves it."""

    def test_cells_match_certify(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        lines = text[text.index("| target | proof | `--mu"):].split("\n\n", 1)[0].splitlines()
        mus = [float(m) for m in re.findall(r"`--mu ([^`]+)`", lines[0])]
        checked = 0
        for line in lines[2:]:
            name, proof, *cells, corner_width = (c.strip() for c in line.strip("|").split("|"))
            widths = set()
            for mu, cell in zip(mus, cells, strict=True):
                if cell.startswith("does not close"):
                    continue
                cert = certify(CertificationTask(target=Target(name), mu=mu, delta=0.0))
                stats = cert.stats
                if cell == "identity":
                    assert cert.identity is not None, (name, mu)
                    assert proof.startswith(cert.identity.name), (name, mu)
                    assert (stats.boxes_processed, stats.levels) == (0, 0)
                else:
                    m = re.fullmatch(r"([\d,]+) / (\d+)(?:, (\d+) undecided)?", cell)
                    assert cert.identity is None and "branch-and-bound" in proof, (name, mu)
                    assert (stats.boxes_processed, stats.levels, cert.undecided_count) == (
                        int(m[1].replace(",", "")), int(m[2]), int(m[3] or 0)), (name, mu)
                    widths.add(f"1/{round(1 / (cert.corner[1, 0] - cert.corner[0, 0]))}")
                checked += 1
            # one corner box width over the row's branch-and-bound cells, or none
            assert [corner_width] == (sorted(widths) or ["none"]), name
        assert checked == 20


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestOneTreePerBox:
    """The branch-and-bound takes its natural enclosures from the derivative
    evaluation, so the two must agree bit for bit."""

    @pytest.mark.parametrize("target", list(Target))
    def test_ad_values_are_the_natural_extension(self, target, rng):
        mu = 1e-6
        n = 300
        boxes, ok = _clip_to_domain(sample_domain_boxes(rng, n), mu)
        assert ok.all()
        xlo, xhi, ylo, yhi = boxes
        assert xlo.shape[0] == n
        natural = TARGETS[target].parts(_IntervalOps, (xlo, xhi), (ylo, yhi))
        jets = _jets(TARGETS[target].parts, 1, xlo, xhi, ylo, yhi)
        assert len(jets) == len(natural)
        for jet, nat in zip(jets, natural):
            assert np.array_equal(_bits(jet.d[0][0]), _bits(nat[0]))
            assert np.array_equal(_bits(jet.d[1][0]), _bits(nat[1]))

