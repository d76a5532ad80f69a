import numpy as np
import pytest

from cevians import bulk, intervals
from cevians.certifier import (
    BoxArray,
    CertificationTask,
    Target,
    certify,
    corner_argument_check,
    eval_target_interval,
    key_system_identity_floors,
    point_values,
    _ad_parts,
    _clip_to_domain,
    _natural_parts,
)
from cevians.exceptions import BudgetExceededError, EmptyIntersectionError
from cevians.intervals import Box2

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

    def test_delta_zero_undecided_at_corner(self):
        cert = certify(CertificationTask(target=Target.MAIN_MEDIAN, delta=0.0))
        assert cert.undecided_count > 0
        u = cert.undecided
        assert u.xlo.min() >= 1.0 - 1e-3
        assert u.ylo.min() >= 1.0 - 1e-3

    def test_proven_boxes_inside_working_domain(self):
        task = CertificationTask(target=Target.QUADRATIC_MEDIAN)
        cert = certify(task)
        p = cert.proven
        assert (p.xlo >= task.mu).all()
        assert (p.xhi <= 1.0 - task.delta + 1e-15).all()
        assert (p.yhi <= 1.0).all()
        assert (p.xhi + p.yhi >= 1.0 + task.mu).all()

    def test_proven_boxes_sorted_and_disjoint_from_undecided(self):
        cert = certify(CertificationTask(target=Target.MAIN_MEDIAN, delta=0.0))
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
        assert Target.from_name("main-median") is Target.MAIN_MEDIAN
        with pytest.raises(KeyError):
            Target.from_name("nonsense")


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
            ad = _ad_parts(target, xlo, xhi, ylo, yhi)
            assert len(ad) == len(natural)
            for adv, nat in zip(ad, natural):
                assert np.array_equal(_bits(adv.v[0]), _bits(nat[0]))
                assert np.array_equal(_bits(adv.v[1]), _bits(nat[1]))

    def test_wide_levels_certify_as_with_nextafter(self, monkeypatch):
        # A budget of 8,000 reaches levels of 1,718 and 3,402 boxes.
        task = CertificationTask(target=Target.MAIN_MEDIAN, delta=0.0,
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
