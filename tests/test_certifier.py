import numpy as np
import pytest

from cevians import bulk, intervals
from cevians.certifier import (
    BoxArray,
    CertificationTask,
    Target,
    certify,
    corner_argument_check,
    equal_base_second_factor,
    equal_legs_second_factor,
    eval_target_interval,
    key_system_identity_floors,
    point_values,
    _EQUILATERAL_ORDER,
    _clip_to_domain,
    _corner_bounds,
    _jet_parts,
    _natural_parts,
    _strict_parts,
)
from cevians.exceptions import BudgetExceededError, EmptyIntersectionError
from cevians.intervals import Box2, Interval, _IntervalOps
from cevians.inequalities import isosceles_slack_case1, isosceles_slack_case2

import oracles
from conftest import sample_domain_boxes

F_06_08 = 0.1593005229059099113924


class TestEvalTargetInterval:
    def test_equality_point_contains_zero(self):
        enc = eval_target_interval(Target.MAIN_MEDIAN, Box2.from_bounds(1, 1, 1, 1))
        assert enc.contains(0.0)

    def test_point_box_value(self):
        enc = eval_target_interval(
            Target.MAIN_MEDIAN, Box2.from_bounds(0.6, 0.6, 0.8, 0.8)
        )
        assert enc.contains(F_06_08)
        assert enc.width < 1e-13

    def test_wide_box_contains_interior_value(self):
        enc = eval_target_interval(
            Target.MAIN_MEDIAN, Box2.from_bounds(0.55, 0.65, 0.75, 0.85)
        )
        assert enc.lo <= F_06_08 <= enc.hi

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersectionError):
            eval_target_interval(Target.MAIN_MEDIAN, Box2.from_bounds(0.1, 0.2, 0.3, 0.4))

    @pytest.mark.parametrize("target", list(Target))
    def test_containment_random_boxes(self, target, rng):
        xlo, xhi, ylo, yhi = sample_domain_boxes(rng, 2000)
        px = np.minimum(xlo + rng.uniform(0, 1, xlo.shape) * (xhi - xlo), xhi)
        py = np.minimum(ylo + rng.uniform(0, 1, ylo.shape) * (yhi - ylo), yhi)
        values = point_values(target, px, py)
        for i in range(0, xlo.shape[0], 97):
            enc = eval_target_interval(
                target, Box2.from_bounds(xlo[i], xhi[i], ylo[i], yhi[i])
            )
            assert enc.lo <= values[i] <= enc.hi

    @pytest.mark.parametrize("target", list(Target))
    def test_inclusion_isotonicity(self, target, rng):
        xlo, xhi, ylo, yhi = sample_domain_boxes(rng, 500)
        for i in range(0, xlo.shape[0], 23):
            outer = Box2.from_bounds(xlo[i], xhi[i], ylo[i], yhi[i])
            qx = 0.25 * (xhi[i] - xlo[i])
            qy = 0.25 * (yhi[i] - ylo[i])
            inner = Box2.from_bounds(xlo[i] + qx, xhi[i] - qx,
                                     ylo[i] + qy, yhi[i] - qy)
            assert eval_target_interval(target, inner).is_subset_of(
                eval_target_interval(target, outer)
            )

    def test_point_values_match_bulk_normalized_slack(self, rng):
        x, y = bulk.sample_normalized_points(rng, 5000)
        assert np.array_equal(
            point_values(Target.MAIN_MEDIAN, x, y),
            bulk.normalized_slack_arrays(x, y),
        )


class TestClip:
    def test_equality_corner_box_survives(self):
        out = _clip_to_domain(*(np.array([v]) for v in (0.99, 1.0, 0.99, 1.0)), 0.0)
        assert bool(out[4][0])

    def test_outside_domain_empty(self):
        out = _clip_to_domain(*(np.array([v]) for v in (0.1, 0.2, 0.3, 0.4)), 1e-6)
        assert not bool(out[4][0])

    def test_y_floor_from_constraints(self):
        xlo, xhi, ylo, yhi, ok = _clip_to_domain(
            *(np.array([v]) for v in (0.0, 1.0, 0.0, 1.0)), 1e-6
        )
        assert bool(ok[0])
        assert ylo[0] >= 0.5


class TestCertify:
    @pytest.mark.parametrize("target", list(Target))
    def test_defaults_fully_decided(self, target):
        cert = certify(CertificationTask(target=target))
        assert cert.undecided_count == 0
        assert cert.proven_count > 0
        assert not cert.stats.budget_exhausted

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
        assert len(cert.corner) == 1
        c = cert.corner
        assert (c.xhi[0], c.yhi[0]) == (1.0, 1.0)
        assert 0.9 < c.xlo[0] <= c.ylo[0] < 1.0
        assert cert.to_report_dict()["corner_box"] == c.bounds_list()[0]
        # the corner box is not a proven box, and no proven box overlaps it
        p = cert.proven
        assert not ((p.xhi > c.xlo[0]) & (p.yhi > c.ylo[0])).any()

    def test_proven_boxes_inside_working_domain(self):
        task = CertificationTask(target=Target.QUADRATIC_MEDIAN)
        cert = certify(task)
        p = cert.proven
        assert (p.xlo >= task.mu).all()
        assert (p.xhi <= 1.0 - task.delta + 1e-15).all()
        assert (p.yhi <= 1.0).all()
        assert (p.xhi + p.yhi >= 1.0 + task.mu).all()

    def test_proven_boxes_sorted_and_disjoint_from_undecided(self):
        cert = certify(CertificationTask(target=Target.MAIN_MEDIAN, delta=1e-8,
                                         min_box_width=1e-15, max_depth=200,
                                         box_budget=8_000))
        assert cert.undecided_count > 0
        p = cert.proven
        order = np.lexsort((p.yhi, p.xhi, p.ylo, p.xlo))
        assert (order == np.arange(len(p))).all()
        # no undecided box interior may overlap a proven box interior
        u = cert.undecided
        for i in range(0, len(u), max(1, len(u) // 40)):
            overlap = (
                (p.xlo < u.xhi[i]) & (p.xhi > u.xlo[i])
                & (p.ylo < u.yhi[i]) & (p.yhi > u.ylo[i])
            )
            assert not overlap.any()

    def test_budget_exhaustion_is_normal_termination(self):
        cert = certify(CertificationTask(target=Target.MAIN_MEDIAN, box_budget=50))
        assert cert.stats.budget_exhausted
        assert cert.undecided_count > 0

    def test_queue_cap_raises_with_partial_certificate(self):
        with pytest.raises(BudgetExceededError) as err:
            certify(CertificationTask(target=Target.MAIN_MEDIAN, delta=0.0,
                                      queue_cap=16))
        partial = err.value.partial_certificate
        assert partial is not None
        assert partial.undecided_count > 0

    def test_key_system_report_documents_identity(self):
        cert = certify(CertificationTask(target=Target.KEY_SYSTEM))
        doc = cert.to_report_dict()
        assert "second_residual" in doc["excluded"]
        assert doc["excluded"]["second_residual"]["equality_locus"] == "2*b^2 = a^2 + c^2"
        floors = key_system_identity_floors(1e-6)
        assert all(v > 0 for v in floors.values())

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


class TestProvenBoxSoundness:
    """Spot version of the acceptance sampling: interior points of proven
    boxes evaluate positive (the key system checks its certified statement)."""

    @pytest.mark.parametrize("target", list(Target))
    def test_interior_sampling(self, target, rng):
        cert = certify(CertificationTask(target=target))
        p = cert.proven
        idx = rng.integers(0, len(p), 60)
        for i in idx:
            u = rng.uniform(0.05, 0.95, 50)
            v = rng.uniform(0.05, 0.95, 50)
            px = p.xlo[i] + u * (p.xhi[i] - p.xlo[i])
            py = p.ylo[i] + v * (p.yhi[i] - p.ylo[i])
            inside = bulk.in_normalized_domain(px, py)
            if not inside.any():
                continue
            if target is Target.KEY_SYSTEM:
                vals = point_values(target, px[inside], py[inside])
                assert (vals > -1e-13).all()
            else:
                vals = point_values(target, px[inside], py[inside])
                assert (vals > 0.0).all()


class TestProvingBoundSoundness:
    """The branch-and-bound pruning bound never exceeds the sampled minimum
    of the statement it certifies, including on boxes straddling the
    degeneracy edge and the ordering diagonal (where hulls spill outside
    the domain and naive bounds would be wrong in both directions)."""

    @staticmethod
    def _strict_point_min(target, x, y):
        from cevians.certifier import _FloatOps, _PARTS

        parts = _PARTS[target](_FloatOps, x, y)
        idx = [0, 2] if target is Target.KEY_SYSTEM else range(len(parts))
        out = None
        for k in idx:
            out = parts[k] if out is None else np.minimum(out, parts[k])
        return out

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

        for raw in boxes:
            arr = [np.array([v]) for v in raw]
            xlo, xhi, ylo, yhi, ok = _clip_to_domain(*arr, mu)
            if not bool(ok[0]):
                continue
            px = rng.uniform(xlo[0], xhi[0], 1500)
            py = rng.uniform(ylo[0], yhi[0], 1500)
            mask = (px >= mu) & (px <= py) & (py <= 1.0) & (px + py >= 1.0 + mu)
            if not mask.any():
                continue
            for target in Target:
                bound = float(_lower_bounds(target, xlo, xhi, ylo, yhi, mu)[0])
                sampled = self._strict_point_min(target, px[mask], py[mask])
                assert bound <= sampled.min()


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

    def test_band_reaching_the_equality_point_is_uncertified(self):
        # both factors are 0 at x = 1, so no enclosure there is positive
        rep = corner_argument_check(1e-3, eta=0.0)
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
        eval_target_interval(Target.MAIN_MEDIAN, Box2.from_bounds(0.6, 0.7, 0.8, 0.9))
        isosceles_slack_case1(0.8)
        isosceles_slack_case2(0.8)


class TestCornerForm:
    """The Taylor form at (1, 1) that closes the equality corner at delta = 0,
    checked against the independent 50-digit oracles."""

    @pytest.mark.parametrize("target", list(Target))
    def test_equilateral_facts(self, target):
        sqrt3 = oracles.mp.sqrt(3)
        values = oracles.target_parts_hp(target.value, 1, 1)
        gx = oracles.target_derivative_hp(target.value, 1, 1, (1, 0))
        gy = oracles.target_derivative_hp(target.value, 1, 1, (0, 1))
        orders = _EQUILATERAL_ORDER[target]
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
        for n in (30, intervals._STEP_MIN_SIZE + 30):  # both rounding paths
            xlo, xhi, ylo, yhi = _clip_to_domain(*sample_domain_boxes(rng, n), mu)[:4]
            # and boxes that hold (1, 1), as the certifier meets them
            w = 2.0 ** -np.arange(1, 11)
            xlo, xhi, ylo, yhi, _ = _clip_to_domain(
                np.concatenate([xlo, 1.0 - w]), np.concatenate([xhi, np.ones_like(w)]),
                np.concatenate([ylo, 1.0 - w]), np.concatenate([yhi, np.ones_like(w)]),
                mu)
            parts = _jet_parts(target, 2, xlo, xhi, ylo, yhi)
            natural = _natural_parts(target, xlo, xhi, ylo, yhi)
            for p, nat in zip(parts, natural):
                assert np.array_equal(_bits(p.d[0][0]), _bits(nat[0]))
                assert np.array_equal(_bits(p.d[0][1]), _bits(nat[1]))
                assert p.ok.all()
            # the first-order jets that `_lower_bounds` uses are the value
            # and gradient of the second-order ones, bit for bit
            first = _jet_parts(target, 1, xlo, xhi, ylo, yhi)
            assert len(first) == len(parts)
            for p1, p2 in zip(first, parts):
                assert len(p1.d) == 3 and len(p2.d) == 6
                for c1, c2 in zip(p1.d, p2.d[:3]):
                    assert np.array_equal(_bits(c1[0]), _bits(c2[0]))
                    assert np.array_equal(_bits(c1[1]), _bits(c2[1]))
                assert np.array_equal(p1.ok, p2.ok)
            last = xlo.shape[0] - 10
            for i in [*range(0, last, max(1, n // 15)), *range(last, last + 10)]:
                px = rng.uniform(xlo[i], xhi[i])
                py = rng.uniform(ylo[i], yhi[i])
                for comp, order in enumerate(orders):
                    exact = oracles.target_derivative_hp(target.value, px, py, order)
                    for p, e in zip(parts, exact):
                        assert p.d[comp][0][i] <= e <= p.d[comp][1][i], (order, i)

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

    @pytest.mark.parametrize("target", list(Target))
    def test_corner_box_is_nonnegative(self, target, rng):
        task = CertificationTask(target=target, delta=0.0)
        cert = certify(task)
        assert cert.undecided_count == 0
        assert len(cert.corner) == 1
        px, py = self._wedge_points(rng, cert.corner.xlo[0], cert.corner.ylo[0],
                                    task.mu, 150)
        assert px.size > 100
        for x, y in zip(px, py):
            parts = oracles.target_parts_hp(target.value, x, y)
            for k, v in enumerate(parts):
                if k in _strict_parts(target, task.mu, len(parts)):
                    assert v > 0, (x, y)
                else:
                    assert v >= -oracles.mp.mpf(10) ** -40

    @pytest.mark.parametrize("target", list(Target))
    def test_bound_holds_below_every_part(self, target, rng):
        # F(p) >= bound * dx^2 / 2 for second-order parts and
        # F(p) >= bound * |dx| for first-order ones, on every corner box
        mu = 1e-6
        w = 2.0 ** -np.arange(1, 9)
        xlo, xhi, ylo, yhi, _ = _clip_to_domain(1.0 - w, np.ones_like(w),
                                                1.0 - w, np.ones_like(w), mu)
        bounds = _corner_bounds(target, xlo, xhi, ylo, yhi, mu)
        assert (bounds[-3:] > 0.0).all()
        for i in range(w.size):
            if not np.isfinite(bounds[i]):
                continue
            px, py = self._wedge_points(rng, xlo[i], ylo[i], mu, 40)
            for x, y in zip(px, py):
                parts = oracles.target_parts_hp(target.value, x, y)
                dx = abs(oracles.mp.mpf(x) - 1)
                for k in _strict_parts(target, mu, len(parts)):
                    order = _EQUILATERAL_ORDER[target][k]
                    scale = dx * dx / 2 if order == 2 else dx
                    assert parts[k] >= oracles.mp.mpf(bounds[i]) * scale, (w[i], x, y)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestOneTreePerBox:
    """The branch-and-bound takes its natural enclosures from the derivative
    evaluation, so the two must agree bit for bit, on both rounding paths."""

    @pytest.mark.parametrize("target", list(Target))
    def test_ad_values_are_the_natural_extension(self, target, rng):
        mu = 1e-6
        for n in (300, intervals._STEP_MIN_SIZE + 300):
            boxes = _clip_to_domain(*sample_domain_boxes(rng, n), mu)
            assert boxes[4].all()
            xlo, xhi, ylo, yhi = boxes[:4]
            assert xlo.shape[0] == n
            natural = _natural_parts(target, xlo, xhi, ylo, yhi)
            jets = _jet_parts(target, 1, xlo, xhi, ylo, yhi)
            assert len(jets) == len(natural)
            for jet, nat in zip(jets, natural):
                assert np.array_equal(_bits(jet.d[0][0]), _bits(nat[0]))
                assert np.array_equal(_bits(jet.d[0][1]), _bits(nat[1]))

    def test_wide_levels_certify_as_with_nextafter(self, monkeypatch):
        # A budget of 8,000 reaches levels of 1,790 and 3,546 boxes.
        task = CertificationTask(target=Target.MAIN_MEDIAN, delta=1e-8,
                                 min_box_width=1e-15, max_depth=200,
                                 box_budget=8_000)
        steps = []
        step_up = intervals._step_up

        def counted(w):
            steps.append(w.size)
            return step_up(w)

        monkeypatch.setattr(intervals, "_step_up", counted)
        reports = []
        for threshold in (intervals._STEP_MIN_SIZE, 10**9):
            monkeypatch.setattr(intervals, "_STEP_MIN_SIZE", threshold)
            steps.clear()
            cert = certify(task)
            assert bool(steps) == (threshold < 10**9)
            doc = cert.to_report_dict(include_proven=True)
            doc["stats"]["wall_time_s"] = 0.0
            reports.append(doc)
        assert reports[0]["stats"]["budget_exhausted"]
        assert reports[0] == reports[1]


class TestBoxArray:
    def test_roundtrip_and_iteration(self):
        arr = BoxArray(np.array([0.1, 0.3]), np.array([0.2, 0.4]),
                       np.array([0.6, 0.7]), np.array([0.8, 0.9]))
        assert len(arr) == 2
        boxes = list(arr)
        assert boxes[0].x.lo == 0.1 and boxes[1].y.hi == 0.9
        assert arr.bounds_list(1) == [[0.1, 0.2, 0.6, 0.8]]

    def test_empty(self):
        assert len(BoxArray.empty()) == 0
        assert BoxArray.concatenate([]).bounds_list() == []
