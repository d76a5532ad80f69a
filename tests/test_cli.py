import contextlib
import hashlib
import importlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cevians import bulk, certifier, cli
from cevians.bulk import _MathOps
from cevians.cli import _parser, build_parser, main
from cevians.reports import TOOL_VERSION, canonical_json, reproducible_bytes, strip_wall_time
from cevians.search import SearchReport

from conftest import rel_close


def run(argv):
    return main(argv)


def load(path):
    return json.loads(path.read_text())


class TestVerify:
    def test_345_medians_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--sides", "3,4,5", "--cevians", "median",
                    "-o", str(out)]) == 0
        doc = load(out)
        assert rel_close(doc["slacks"]["main"], 1.9912565363238739, 1e-12)
        assert doc["all_nonnegative"] is True
        assert doc["manifest"]["subcommand"] == "verify"

    def test_degenerate_sides_exit_2(self, capsys):
        assert run(["verify", "--sides", "1,1,2", "--cevians", "median"]) == 2
        assert "Degenerate" in capsys.readouterr().err

    def test_equilateral_mixed_all_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "--sides", "1,1,1", "--cevians", "mixed",
                    "--weights", "1,1,1", "-o", str(out)]) == 0
        doc = load(out)
        assert all(abs(v) < 1e-12 for v in doc["slacks"].values())

    def test_normalized_input(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "--normalized", "0.6,0.8", "--cevians",
                    "altitude", "-o", str(out)]) == 0
        doc = load(out)
        assert doc["triangle"]["c"] == 1.0

    @pytest.mark.parametrize("pair", [
        "1.5,1.2",  # x > 1 (and x > y)
        "1.2,1.5",  # x > 1 and y > 1
        "0.6,1.2",  # y > 1
        "0.8,0.6",  # x > y
        "0.5,0.5",  # x + y = 1
    ])
    def test_normalized_pair_outside_the_domain_exits_2(self, pair, capsys):
        assert run(["verify", "--normalized", pair, "--cevians", "median"]) == 2
        x, y = (float(v) for v in pair.split(","))
        assert capsys.readouterr() == (
            "", f"error: DomainError: ({x}, {y}) outside the normalized triangle domain\n")

    @pytest.mark.parametrize("sides", ["inf,inf,inf", "3,4,inf", "-inf,4,5", "3,nan,5"])
    def test_non_finite_sides_exit_2(self, sides, capsys):
        assert run(["verify", f"--sides={sides}", "--cevians", "median"]) == 2
        raw = tuple(float(v) for v in sides.split(","))
        assert capsys.readouterr() == (
            "", f"error: NonPositiveSideError: sides must be finite numbers, got {raw}\n")

    def test_help_states_the_normalized_domain(self, capsys):
        with pytest.raises(SystemExit):
            run(["verify", "--help"])
        assert "0 < x <= y <= 1 < x + y" in capsys.readouterr().out

    def test_general_violation_exits_1(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", "--sides", "3,4,5", "--cevians", "general",
                    "--feet", "0.99,0.5,0.01", "-o", str(out)])
        assert code == 1
        doc = load(out)
        assert doc["slacks"]["open_problem_1"] < 0
        assert doc["checks"]["open_problem_constraints"] is False

    @pytest.mark.parametrize("sides, family", [
        (sides, family)
        for sides in ("1e200,1e200,1e200", "1e154,1e154,1e154", "1e-200,1e-200,1e-200")
        for family in ("median", "altitude", "bisector", "mixed", "general")
        # general Cevians of sides 1e154 stay finite; see the test below
        if (sides, family) != ("1e154,1e154,1e154", "general")
    ])
    def test_extreme_sides_exit_2(self, sides, family, capsys):
        # overflow or underflow leaves a Cevian or slack that is not a
        # positive finite number: a domain error, not a failed slack
        argv = ["verify", "--sides", sides, "--cevians", family]
        if family == "general":
            argv += ["--feet", "0.3,0.5,0.7"]
        assert run(argv) == 2
        assert "error: DomainError" in capsys.readouterr().err

    def test_grouped_slacks_stay_finite_at_large_sides(self, tmp_path):
        # sqrt(bc)*la alone is about 8.9e307 here, so a sum of the three
        # such terms overflows; each grouped term (sqrt(bc) - a)*la is 0
        out = tmp_path / "r.json"
        assert run(["verify", "--sides", "1e154,1e154,1e154", "--cevians",
                    "general", "--feet", "0.3,0.5,0.7", "-o", str(out)]) == 0
        doc = load(out)
        assert doc["slacks"] == {"open_problem_1": 0.0, "open_problem_2": 0.0}
        assert doc["checks"]["open_problem_constraints"] is False

    def test_bad_argument_combinations(self, capsys):
        assert run(["verify", "--cevians", "median"]) == 2
        assert run(["verify", "--sides", "3,4", "--cevians", "median"]) == 2
        assert run(["verify", "--sides", "3,4,5", "--normalized", "0.6,0.8",
                    "--cevians", "median"]) == 2
        assert run(["verify", "--sides", "3,4,5", "--cevians", "general"]) == 2
        assert run(["verify", "--sides", "3,4,5", "--cevians", "mixed",
                    "--weights=-1,0,0"]) == 2
        assert run(["verify", "--sides", "3,4,5", "--cevians", "mixed",
                    "--weights", "0,0,0"]) == 2

    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_exits_2(self, slot, bad, capsys):
        weights = ["1", "1", "1"]
        weights[slot] = bad
        assert run(["verify", "--sides", "3,4,5", "--cevians", "mixed",
                    f"--weights={','.join(weights)}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: weights must be finite")
        assert "Traceback" not in err

    def test_overflowing_mixed_cevians_exit_2(self, capsys):
        # the weights are valid, but the mixture overflows to inf: the
        # error names the Cevian lengths, not a slack computed from them
        assert run(["verify", "--sides", "3,4,5", "--cevians", "mixed",
                    "--weights", "1e308,1e308,1e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: cevian lengths must be finite")
        assert "Traceback" not in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_exits_2(self, tolerance, capsys):
        assert run(["verify", "--sides", "3,4,5", "--cevians", "median",
                    f"--tolerance={tolerance}"]) == 2
        assert "error: --tolerance" in capsys.readouterr().err


_FAMILIES = ("median", "altitude", "bisector", "mixed", "general")
# Shapes whose exit code changed with the scale while every slack was held
# to the degree-2 tolerance: an isosceles bisector_ratio of one rounding
# below its exact 0, and general Cevians whose open_problem_2 fails.
_RESCALED_SHAPES = {
    "bisector": [((0.7862687025930033, 0.7862687025930033, 0.9623097870715039), []),
                 ((0.42756807912657346, 0.42756807912657346, 0.686331407986316), [])],
    "general": [((0.7573835545428638, 0.7024328077307425, 0.8533416333223149),
                 ["--feet", "0.39190788912183694,0.6284417632416911,0.960202912201329"]),
                ((0.28306288308685307, 0.7915981412298653, 0.9100358880212144),
                 ["--feet", "0.33171563156958817,0.9337828548931927,0.3473975321078954"])],
}


def _quiet_run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


class TestVerdictIsUnitFree:
    """A slack of degree d is held to -tolerance*c*lc*c**(d-2), and
    bisector_ratio, of degree 0, to -tolerance*(c + b - a)/c."""

    @pytest.mark.parametrize("tolerance, code", [("1e-12", 0), ("1e-16", 1)])
    def test_needle_bisector_ratio_is_held_to_its_terms(self, tmp_path, tolerance, code):
        # a = b makes the ratio exactly 0; it reads one rounding below, while
        # c*lc/c**2, the degree-0 threshold of the sides, is about 7.5e-9
        out = tmp_path / "r.json"
        assert run(["verify", "--sides", "1,1,1.9999999999999998", "--cevians",
                    "bisector", "--tolerance", tolerance, "-o", str(out)]) == code
        doc = load(out)
        assert doc["slacks"]["bisector_ratio"] == -2.220446049250313e-16
        assert doc["all_nonnegative"] is (code == 0)

    def test_rounded_bisector_ratio_passes_at_small_sides(self, tmp_path):
        out = tmp_path / "r.json"
        x, c = "5.696675129124662e-29", "6.221880183393053e-29"
        assert run(["verify", "--sides", f"{x},{x},{c}", "--cevians", "bisector",
                    "-o", str(out)]) == 0
        doc = load(out)
        # one rounding below its exact value 0, far below the degree-2 threshold
        assert -1e-15 < doc["slacks"]["bisector_ratio"] < doc["threshold"] < 0
        assert doc["all_nonnegative"] is True

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12])
    def test_open_problem_2_fails_at_every_scale(self, tmp_path, scale):
        out = tmp_path / "r.json"
        sides = [1.6736524189148243, 9.930262000160328, 10.0]
        assert run(["verify", "--sides", ",".join(repr(v * scale / 10) for v in sides),
                    "--cevians", "general", "--feet",
                    "0.6433251799701935,0.811788615454133,0.41990834417099293",
                    "-o", str(out)]) == 1
        doc = load(out)
        # about -0.197 at c = 1: degree 3, so -1.97e-37 at c = 1e-12
        assert rel_close(doc["slacks"]["open_problem_2"], -0.197 * scale**3, 1e-2)
        assert doc["all_nonnegative"] is False

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_exit_code_independent_of_scale(self, family):
        # 4**k scales every side exactly, so each slack scales exactly by 4**(k*d)
        rng = random.Random(_FAMILIES.index(family))
        shapes = list(_RESCALED_SHAPES.get(family, []))
        while len(shapes) < 40:
            a, b, c = (rng.uniform(0.05, 1.0) for _ in range(3))
            kind = rng.random()
            if kind < 0.25:
                b = a
            elif kind < 0.35:
                b = c = a
            if sum(sorted((a, b, c))[:2]) <= max(a, b, c):
                continue
            extra = []
            if family == "mixed":
                extra = ["--weights", ",".join(repr(rng.uniform(0, 2)) for _ in range(3))]
            elif family == "general":
                extra = ["--feet", ",".join(repr(rng.uniform(0.01, 0.99)) for _ in range(3))]
            shapes.append(((a, b, c), extra))
        for sides, extra in shapes:
            codes = {_quiet_run(["verify", "--sides",
                                 ",".join(repr(v * 4.0**k) for v in sides),
                                 "--cevians", family, *extra])[0]
                     for k in range(-90, 91, 15)}
            assert len(codes) == 1, (sides, extra, codes)


_SIDE = st.floats(-320.0, math.log10(1.7e308)).map(lambda e: 10.0**e)


class TestVerifyNeverRaises:
    @pytest.mark.parametrize("family", _FAMILIES)
    @given(sides=st.lists(_SIDE, min_size=1, max_size=3).flatmap(
               lambda drawn: st.lists(st.sampled_from(drawn), min_size=3, max_size=3)),
           feet=st.tuples(*[st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)] * 3),
           weights=st.tuples(*[st.floats(0.0, 1e6)] * 3))
    @settings(max_examples=150, deadline=None)
    # a*la underflows to 0 though la is positive: an ordering product that
    # raised a bare ValueError, a traceback, before it became a DomainError
    @example(sides=[1.3804433555697552e-169, 2.823364802301597e-161, 2.823364802301597e-161],
             feet=(0.5, 0.5, 0.5), weights=(1.0, 1.0, 1.0))
    def test_any_positive_sides_keep_the_exit_contract(self, family, sides, feet, weights):
        # three positive finite sides, log-uniform over binary64, in any
        # order and with ties: a verdict or one error line, never a traceback
        argv = ["verify", "--sides", ",".join(map(repr, sides)), "--cevians", family]
        if family == "mixed":
            argv += ["--weights", ",".join(map(repr, weights))]
        elif family == "general":
            argv += ["--feet", ",".join(map(repr, feet))]
        code, err = _quiet_run(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ")
        assert "Traceback" not in err


class TestCertify:
    def test_main_median_defaults(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "main-median", "-o", str(out)]) == 0
        doc = load(out)
        assert doc["certificate"]["undecided"] == []
        assert doc["certificate"]["proven_count"] > 0
        assert doc["corner_check"]["both_positive"] is True
        assert doc["corner_sampling"]["pass"] is True

    def test_delta_zero_exits_0(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "main-median", "--delta", "0",
                    "-o", str(out)]) == 0
        cert = load(out)["certificate"]
        assert cert["undecided_count"] == 0
        assert not cert["stats"]["budget_exhausted"]
        xlo, xhi, ylo, yhi = cert["corner_box"]
        assert xlo <= 1.0 <= xhi and ylo <= 1.0 <= yhi
        assert "second-order Taylor form" in cert["excluded"]["corner_square"]["note"]

    def test_key_system_closes_at_small_mu(self, tmp_path, monkeypatch):
        # the vertex forms at (0, 1) and (1/2, 1/2) close the boxes that
        # used to stay undecided next to (1/2, 1/2); `certify` proves
        # key-system by its square identity there, so this runs the
        # branch-and-bound itself
        monkeypatch.setattr(cli, "certify", certifier._branch_and_bound)
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "key-system", "--mu", "1e-12",
                    "--delta", "1e-6", "-o", str(out)]) == 0
        stats = load(out)["certificate"]["stats"]
        assert load(out)["certificate"]["undecided_count"] == 0
        assert stats["levels"] <= 15
        assert stats["proven_by"]["vertex_half_half"] > 0
        assert stats["proven_by"]["vertex_0_1"] > 0

    def test_corner_box_only_at_delta_zero(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "scalene-lemma", "-o", str(out)]) == 0
        assert "corner_box" not in load(out)["certificate"]
        assert run(["certify", "--target", "scalene-lemma", "--delta", "0",
                    "-o", str(out)]) == 0
        cert = load(out)["certificate"]
        assert cert["corner_box"] is not None
        assert "first-order Taylor form" in cert["excluded"]["corner_square"]["note"]

    @pytest.mark.parametrize("mu, floor", [("1e-17", "1.0"), ("1e-6", "1.000001")])
    def test_degeneracy_buffer_states_the_binary64_sum(self, tmp_path, mu, floor):
        # below 1.1e-16, 1 + mu rounds to 1 and the run covers x + y >= 1
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "main-median", "--mu", mu,
                    "-o", str(out)]) == 0
        buffer = load(out)["certificate"]["excluded"]["degeneracy_buffer"]
        assert buffer["constraints"] == (f"x >= mu and x + y >= {floor}, "
                                         "the binary64 sum 1 + mu")
        assert 1.0 + float(mu) == float(floor)

    @pytest.mark.parametrize("argv, code", [
        (["--delta", "1e-9", "--box-budget", "3000"], 0),
        (["--mu", "1e-12", "--delta", "1e-7"], 0),
    ])
    def test_corner_band_inside_sliver(self, tmp_path, argv, code):
        # 2*delta < eta: the band [1-2*delta, 1] lies inside the eta sliver
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "main-median", *argv,
                    "-o", str(out)]) == code
        doc = load(out)
        assert (doc["certificate"]["undecided_count"] > 0) == (code == 1)
        corner = doc["corner_check"]
        assert corner["both_positive"] is False
        for factor in corner["factors"]:
            assert factor["domain"] == []
            assert factor["certified"] is False
            assert factor["boxes_processed"] == 0

    @pytest.mark.parametrize("delta, covered", [
        ("0", "nothing excluded"),
        ("1e-7", "excluded and not proven"),
        (None, "if corner_check reports both_positive"),
    ])
    def test_corner_note_states_coverage(self, tmp_path, delta, covered):
        out = tmp_path / "cert.json"
        argv = ["certify", "--target", "main-median", "--box-budget", "3000",
                "-o", str(out)]
        if delta is not None:
            argv += ["--delta", delta]
        run(argv)
        doc = load(out)
        note = doc["certificate"]["excluded"]["corner_square"]["note"]
        assert covered in note
        if delta == "0":
            assert "corner_check" not in doc
            assert "corner_sampling" not in doc
        else:
            assert "corner_sampling is binary64 evidence, not part of the proof" in note
            assert doc["corner_check"]["both_positive"] is (delta is None)

    def test_corner_check_only_for_main_median(self, tmp_path):
        # the isosceles factors belong to the main median slack; the other
        # targets keep the sampling of their own corner, as evidence
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "quadratic-median", "-o", str(out)]) == 0
        doc = load(out)
        assert "corner_check" not in doc
        assert doc["corner_sampling"]["pass"] is True
        note = doc["certificate"]["excluded"]["corner_square"]["note"]
        assert note.startswith("excluded and not proven")
        assert "isosceles" not in note and "corner_check" not in note

    @pytest.mark.parametrize("flag, value", [
        ("--mu", "0"),
        ("--mu", "nan"),
        ("--delta", "0.7"),
        ("--max-depth", "0"),
        ("--min-box-width", "0"),
        ("--box-budget", "0"),
    ])
    def test_bad_task_arguments_exit_2(self, capsys, flag, value):
        assert run(["certify", "--target", "main-median", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @given(mu=st.one_of(st.floats(), st.floats(0.0, 0.5)),
           delta=st.one_of(st.floats(), st.floats(0.0, 0.5)),
           width=st.one_of(st.floats(), st.floats(0.0, 1.0)))
    @settings(max_examples=80, deadline=None)
    @example(mu=5e-324, delta=0.0, width=1.0)
    @example(mu=5e-324, delta=1e-3, width=1.0)
    def test_extreme_floats_keep_the_exit_contract(self, mu, delta, width):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["certify", "--target", "main-median", f"--mu={mu!r}",
                        f"--delta={delta!r}", f"--min-box-width={width!r}",
                        "--box-budget", "64"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    def test_unknown_target_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["certify", "--target", "nonsense"])
        assert err.value.code == 2


_SUITE_SETTINGS = ((), ("--mu", "1e-12", "--delta", "1e-6"),
                   ("--mu", "1e-12", "--delta", "1e-7"))


# sha256 of canonical_json(strip_wall_time(body)), the report without its
# manifest (which carries TOOL_VERSION), for certify-suite's 15 argv,
# certify-corner's argv at a budget of 3,000 boxes, the bisector targets at
# the suite's settings, every target at delta = 0, and key-system where
# its square identity does not apply.  The bodies hold every proven box,
# and the suite's bodies the corner check and the corner sampling, so any
# change to a bound, a box or a corner factor shows.  Key-system and
# altitude-reduced are proven by their identities at every mu here but
# 1e-17, with no box; `test_branch_and_bound_bytes_are_pinned` pins their
# branch-and-bound.
@pytest.mark.parametrize("argv, digest", [
    *zip((["certify", "--target", target, "--include-proven", *setting]
          for target in ("main-median", "quadratic-median", "key-system",
                         "altitude-reduced", "scalene-lemma")
          for setting in _SUITE_SETTINGS), (
        "0a1d897d0a6841e3593d936685d291ca7ac5a7d6d16d9523b48699e29d0ecb9a",
        "3b544e70350fe499dc312cf863b3066a337fa5c8f11c1eaed42157dc7a192ed7",
        "ed47d903082713a216405e20cbc92882d5c6a308e9e201fdc7be82e641b8977d",
        "7ea30da303c6e3fb7902a5cdbb678d638e5916bee8d91c8457fd1daa0c9d2db5",
        "0074e87e76270d4ca61eeb1d861c7329012fe5ba424f4870a6f89f8d8c2bfbcf",
        "7c409a7efafbbbbf0edf33227c43bc1428c88ba76db7ff93e4d6adbc9c9fb8a7",
        "1a3f0ba02acc9602ce48c5b8e9f8697161e7b26589762988f06553a2b6199b7e",
        "c7e143f82ade072d35da7af428e83f5635b650005461cd3023e46287cee05e3f",
        "c3744e903569f4c7a5d4e1c8e5053f04324da3e94f47d743557019e9045a7d6a",
        "4dc1985a9eca0a31bacdcd2e756c0f1f550f496f040853e0ab9cc433e9407b8d",
        "e0a41280255ba80e81d361703580f3265a21b595a6603cb359acb23fca9a7851",
        "93e032a509f8b3d9217cda3c79d6b859c9b76368e3d0bc76f2ae4a49458e4c53",
        "a70c3ab2c8f7ad88cf2ea14a2c1a557b0c3dd831d92d3f2d8b8d98bfbf117fda",
        "a0480ddb552c1bf6223f650e8626c6d8b4d564df30f5254e693757be463c3f08",
        "2852692539f231826381e7eff4a7cf97d9784ad5cf3dd5168675d85ae8d14978",
    )),
    (["certify", "--target", "main-median", "--delta", "0", "--min-box-width",
      "1e-15", "--max-depth", "200", "--box-budget", "3000"],
     "15763168bda07ff2976f109b2cbe69315836f8a404f9099f91e4d8ab3f53fc98"),
    # The bisector targets at certify-suite's settings.
    *zip((["certify", "--target", target, "--include-proven", *setting]
          for target in ("main-bisector", "quadratic-bisector")
          for setting in _SUITE_SETTINGS), (
        "0c8392171e464e6e46bc9608a19c0d4b715984888fbd89c35d871634d197621b",
        "a1685c4a06fd316936e27cd4f9c03aec6e93a264a981d5fdb84f6b439f87ea23",
        "d047dd4b03239e007749c6ed24533c4a7f0bbd9828c3c5f7d2573c6f726b57a5",
        "b6579ced47c22e85b1f6244c816285870cd445f484093d4e0cb7749305011b0f",
        "a5c400bc37e2e772b79f11ae1b3a600c359b87cba7dac84a1908f47c1dcd5652",
        "61e59a287af5bcc8d6f6d5af1936b326e1c314e45a0a0b45a7ebbf8ec8a38a1b",
    )),
    # Every target at delta = 0, where each vertex form it has can prove
    # boxes: the corner box, vertex_0_1 and vertex_half_half.
    *zip((["certify", "--target", target, "--delta", "0", "--include-proven", "--mu", mu]
          for mu in ("1e-6", "1e-12")
          for target in ("main-median", "quadratic-median", "key-system",
                         "altitude-reduced", "scalene-lemma", "main-bisector",
                         "quadratic-bisector")), (
        "10f150e0561f44dfadfcc61acd1aef585698a8caf5f83b874a82509e46550451",
        "c8e94682a2d3a30b607a25508a366e4c0e2389a6493d2c7165d52027b85e9674",
        "2386185735eca552555fcc8a7abe2e78a69d8a43cd6d8ece8858507782bd7dcc",
        "442f09fe482658bc8ad8ff492192c662c0c7d428e4c08c0eba2da271364bcaa4",
        "c97cd8de7ebfacb7b2ba73fe3924596b2bed62164f13e1d5b2834cbdb5eb44e9",
        "8c99cdd53808f9f6f25c3b377dc96482760b2ce4948be24277b671971c22219f",
        "a33c19641b00ab707e7d05384a7bbfb24d6fc7c015738add00c72cc782ae7d14",
        "5f099480f75361d4ac45ecbb3e4906d62d6467949fa8cd0a772d09f32676efa7",
        "fd67b06901a4fb292319656a61e25451d51fe865e273b59cb71e71493646fa1a",
        "7ccbf62e37d8a4f074ad73a6e669f6fb9ecad6935a5d3c671a503449e3d7ba18",
        "1523cef81adf0164cb38bd8ff9b3bde90afc359339a24da580ef67eadb608c7d",
        "ca760fbb568e4bc714cf6664b60b1fe5b51ebc50ec40d4c846739e4e29788ed1",
        "26bb49a6c23ba9a212c76c59ccf5f5f5d2bfa2b89694f50def3b48a0d618b610",
        "a5ef69b611513c9428647af413c9c90fa27d655d58cadc44475c82d61ed159d9",
    )),
    # Below mu = 1.1e-16, 1 + mu rounds to 1: the square identity does not
    # apply, and the run exhausts its budget.
    (["certify", "--target", "key-system", "--mu", "1e-17", "--box-budget", "2000",
      "--include-proven"],
     "c4aa218293f50ddc3a13d9f2a785db2394d8b3b608da9965850c21ee6323c9c2"),
])
def test_certificate_bytes_are_pinned(argv, digest, tmp_path):
    assert _body_digest(argv, tmp_path) == digest


def _body_digest(argv, tmp_path):
    out = tmp_path / "r.json"
    run([*argv, "-o", str(out)])
    body = load(out)
    del body["manifest"]
    text = canonical_json(strip_wall_time(body))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The branch-and-bound of the two targets that `certify` proves by their
# identities, through the CLI as it ran them before: the digests are
# those their reports had then.
@pytest.mark.parametrize("argv, digest", [
    *zip((["certify", "--target", target, "--include-proven", *setting]
          for target in ("key-system", "altitude-reduced") for setting in _SUITE_SETTINGS), (
        "64d1805194f0066bc5e73f7fa5e45423fa9d238678df0dd0d4a35e3d1f581ca1",
        "c9646f4152638c68706b74a19a444a392b551c2769ce6f26d2d5513d04eebff1",
        "69e8fd4ca32a56eb51d1969675e32b68b95a5bf9e6470b6ec6b0462d9d3088ad",
        "77ba91f9c2c54c32621e275cb6c80c50ab685b6d23e4bb4843d6b24782759b64",
        "e26cb158852893e47cecf110bc82378f4f6b5c2fbd31e0da9d643b6930682f9f",
        "b7a0931a85ff8e81cacae6fb73cc88a7173325d2904bc93a8ea43df1c6a4915f",
    )),
    *zip((["certify", "--target", target, "--delta", "0", "--include-proven", "--mu", mu]
          for mu in ("1e-6", "1e-12") for target in ("key-system", "altitude-reduced")), (
        "91d4d07bbaf74068b92eb335d321030d5ff29e53558b765340a64fd104cf80f9",
        "95bef387d5b76a242b6cccdddc388161a67be15f723a3de25bfd5f636b4ae275",
        "3d868705529aa5c24f42331a759d3e390f8c8a545920ec16082810baf1bf7b36",
        "842beef519a02b31a576078413d4b14869aae61b603c9049d5c9ee49b8588258",
    )),
])
def test_branch_and_bound_bytes_are_pinned(argv, digest, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "certify", certifier._branch_and_bound)
    assert _body_digest(argv, tmp_path) == digest


# sha256 of canonical_json(strip_wall_time(doc)), the report with its
# manifest but without the manifest's TOOL_VERSION: every family, a
# normalized pair, a scalene median triangle (the scalene-lemma slack), a
# failing general triangle and a triangle scaled by 1e-150.
@pytest.mark.parametrize("argv, code, digest", [
    (["--sides", "2,2,3", "--cevians", "median"], 0,
     "bdb4ab406b9c3c9496e61080fea382cf817821c6f68c479468e280c6350c87e3"),
    (["--sides", "3,5,7", "--cevians", "altitude"], 0,
     "f5a55164e179044e13d0a06d318cca1e6a52cd05036f0f503ea78b1ee6bb6838"),
    (["--sides", "3,5,7", "--cevians", "bisector"], 0,
     "3157026ee6a63f9d7a9f6701a1d2a6b2c6ca3952929fa68f1bc75785363fac45"),
    (["--sides", "3,5,7", "--cevians", "mixed", "--weights", "0.5,2,1"], 0,
     "07acca2681056cbc8844e5513c7811a1d712f1cd1c4058ee46cb5297de086832"),
    (["--sides", "3,5,7", "--cevians", "general", "--feet", "0.3,0.6,0.8"], 0,
     "1182d1d8d30bfbfe1fbeccba764ee864771c6fcb46deeea86b47bb6aef06f25d"),
    (["--normalized", "0.6,0.8", "--cevians", "median"], 0,
     "e71fd84dd13411859ebf5b01c469c51ceca3d07cdbe76f586e7a86ef7b3b97ab"),
    (["--sides", "3,4,5", "--cevians", "median"], 0,
     "48b7bf8d30aebaaee034fe7ba690b4aee40b778783e5b3d5f50003de35cba803"),
    (["--sides", "0.16736524189148243,0.9930262000160328,1", "--cevians", "general",
      "--feet", "0.6433251799701935,0.811788615454133,0.41990834417099293"], 1,
     "d320e0528a87ad52355c129e345d62a15d0d3c06c7c083ae3c30f712d79ed541"),
    (["--sides", "3e-150,4e-150,5e-150", "--cevians", "median"], 0,
     "adcc0660786c4c32846feb86059ecdf46a8d072a3ec654c6227e957373f8a7f8"),
])
def test_verify_bytes_are_pinned(argv, code, digest, tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", *argv, "-o", str(out)]) == code
    doc = load(out)
    del doc["manifest"]["version"]
    text = canonical_json(strip_wall_time(doc))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["certify", "--target", "main-median", "--del", "0"],
    ["search", "--mode", "open-problem", "--samp", "10"],
])
def test_abbreviated_flags_exit_2(argv):
    # A prefix of a flag is not the flag, so renaming a flag cannot leave
    # its old spelling silently accepted.
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


class TestSearch:
    def test_unconstrained_finds_violation(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["search", "--mode", "unconstrained", "--samples", "20000",
                    "--seed", "42", "--refine-steps", "10", "-o", str(out)]) == 0
        doc = load(out)
        assert len(doc["search"]["violations"]) >= 1
        assert doc["manifest"]["seed"] == 42

    def test_open_problem_exits_0(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["search", "--mode", "open-problem", "--samples", "5000",
                    "--seed", "7", "--refine-steps", "5", "-o", str(out)]) == 0

    def test_nonpositive_samples_exit_2(self, capsys):
        assert run(["search", "--mode", "open-problem", "--samples", "0"]) == 2

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CEVIANS_SEED", "123")
        out = tmp_path / "s.json"
        assert run(["search", "--mode", "open-problem", "--samples", "2000",
                    "--refine-steps", "0", "-o", str(out)]) == 0
        assert load(out)["manifest"]["seed"] == 123

    def test_flag_overrides_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CEVIANS_SEED", "123")
        out = tmp_path / "s.json"
        run(["search", "--mode", "open-problem", "--samples", "2000",
             "--seed", "9", "--refine-steps", "0", "-o", str(out)])
        assert load(out)["manifest"]["seed"] == 9

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, tmp_path, monkeypatch, seed):
        base = ["search", "--mode", "open-problem", "--samples", "2000",
                "--refine-steps", "0"]
        flag, env = tmp_path / "flag.json", tmp_path / "env.json"
        assert run(base + ["--seed", str(seed), "-o", str(flag)]) == 0
        monkeypatch.setenv("CEVIANS_SEED", str(seed))
        assert run(base + ["-o", str(env)]) == 0
        assert load(flag)["manifest"]["seed"] == seed
        assert reproducible_bytes(load(flag)) == reproducible_bytes(load(env))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_exits_2(self, monkeypatch, capsys, seed):
        base = ["search", "--mode", "open-problem", "--samples", "2000"]
        assert run(base + ["--seed", str(seed)]) == 2
        monkeypatch.setenv("CEVIANS_SEED", str(seed))
        assert run(base) == 2
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err

    def test_record_top_bound_is_accepted(self, monkeypatch, tmp_path):
        # stub the search: refinement at the bound would hold about 40 MB
        configs = []

        def stub(cfg):
            configs.append(cfg)
            return SearchReport(cfg.mode, cfg.seed, cfg.samples, cfg.record_top,
                                cfg.refine_steps, {}, [], [])

        monkeypatch.setattr(cli, "search", stub)
        assert cli.MAX_RECORD_TOP == 4096
        out = tmp_path / "s.json"
        assert run(["search", "--mode", "open-problem", "--samples", "10",
                    "--record-top", "4096", "-o", str(out)]) == 0
        assert [cfg.record_top for cfg in configs] == [4096]
        assert load(out)["manifest"]["config"]["record_top"] == 4096

    @pytest.mark.parametrize("top", [0, 4097, 10**6])
    def test_record_top_out_of_bound_exits_2(self, top, capsys):
        assert run(["search", "--mode", "unconstrained", "--samples", "10",
                    "--record-top", str(top)]) == 2
        # one error line and no traceback
        assert capsys.readouterr().err == (
            f"error: record_top must lie in [1, 4096], got {top}\n")

    def test_help_states_record_top_bound(self, capsys):
        with pytest.raises(SystemExit):
            run(["search", "--help"])
        assert "(1 to 4096, default 20)" in " ".join(capsys.readouterr().out.split())


class TestSharedParser:
    """main builds its parser once; each call must still see only its own argv."""

    def test_runs_in_one_process_stay_independent(self, tmp_path, monkeypatch):
        with pytest.raises(SystemExit) as err:
            run(["certify", "--target", "no-such-target"])
        assert err.value.code == 2

        cert = ["certify", "--target", "scalene-lemma"]
        with_proven, without = tmp_path / "with.json", tmp_path / "without.json"
        assert run(cert + ["--include-proven", "-o", str(with_proven)]) == 0
        assert run(cert + ["-o", str(without)]) == 0
        assert len(load(with_proven)["certificate"]["proven"]) > 0
        assert "proven" not in load(without)["certificate"]

        monkeypatch.setenv("CEVIANS_SEED", "321")
        found = tmp_path / "search.json"
        assert run(["search", "--mode", "open-problem", "--samples", "2000",
                    "--refine-steps", "0", "-o", str(found)]) == 0
        assert load(found)["manifest"]["seed"] == 321
        assert load(found)["manifest"]["config"]["record_top"] == 20

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
        assert _parser() is _parser()


class TestTable:
    def test_density_three(self, capsys):
        assert run(["table", "--density", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y,F"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert (0.5, 1.0) in {(r[0], r[1]) for r in rows}
        one_one = [r for r in rows if r[0] == 1.0 and r[1] == 1.0]
        assert one_one and one_one[0][2] == 0.0

    def test_density_six_contains_reference_point(self, capsys):
        assert run(["table", "--density", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        # linspace carries float dust, so match the grid point nearest (0.6, 0.8)
        hit = [r for r in rows if abs(r[0] - 0.6) < 1e-9 and abs(r[1] - 0.8) < 1e-9]
        assert hit and rel_close(hit[0][2], 0.1593005229059099, 1e-8)
        x, y = hit[0][0], hit[0][1]
        medians2 = bulk.doubled_medians(_MathOps, x, y, 1.0)
        assert hit[0][2] == bulk.main_slack(_MathOps, x, y, 1.0, *medians2)
        assert all(r[2] >= -1e-12 for r in rows)

    def test_low_density_exits_2(self, capsys):
        assert run(["table", "--density", "1"]) == 2

    def test_density_bound_is_accepted(self, monkeypatch, capsys):
        # stub the grid: the real one at the bound takes over 100 MB an array
        axes = []

        def grid(target, lo, hi, n):
            axes.append(n)
            return np.zeros(0), np.zeros(0), np.zeros(0)

        monkeypatch.setattr(cli, "_grid_values", grid)
        assert cli.MAX_DENSITY == 4096
        assert run(["table", "--density", "4096"]) == 0
        assert axes == [4096]
        assert capsys.readouterr().out == "x,y,F\n"

    @pytest.mark.parametrize("density", [4097, 10**7])
    def test_density_above_bound_exits_2(self, density, capsys):
        assert run(["table", "--density", str(density)]) == 2
        # one error line and no traceback
        assert capsys.readouterr().err == (
            f"error: --density must lie in [2, 4096], got {density}\n")

    def test_help_states_density_bound(self, capsys):
        with pytest.raises(SystemExit):
            run(["table", "--help"])
        assert "grid points per axis (2 to 4096)" in capsys.readouterr().out

    def test_output_file_and_manifest(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["table", "--density", "4", "-o", str(out)]) == 0
        assert out.read_text().startswith("x,y,F\n")
        manifest = load(tmp_path / "grid.csv.manifest.json")
        assert manifest["subcommand"] == "table"
        assert manifest["config"]["density"] == 4


class TestManifestAndReproducibility:
    def test_strip_wall_time(self):
        doc = {"manifest": {"wall_time_s": 3.0},
               "nested": [{"wall_time_s": 1.0, "other": 2}]}
        stripped = strip_wall_time(doc)
        assert stripped["manifest"]["wall_time_s"] == 0.0
        assert stripped["nested"][0]["wall_time_s"] == 0.0
        assert doc["manifest"]["wall_time_s"] == 3.0

    def test_search_reports_byte_identical(self, tmp_path):
        args = ["search", "--mode", "unconstrained", "--samples", "20000",
                "--seed", "5", "--refine-steps", "5"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(args + ["-o", str(out1)])
        run(args + ["-o", str(out2)])
        assert reproducible_bytes(load(out1)) == reproducible_bytes(load(out2))

    def test_multi_worker_report_byte_identical(self, tmp_path):
        base = ["search", "--mode", "open-problem", "--samples", "150000",
                "--seed", "3", "--refine-steps", "5"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(base + ["--workers", "1", "-o", str(out1)])
        run(base + ["--workers", "4", "-o", str(out2)])
        d1, d2 = load(out1), load(out2)
        # worker count is configuration, not result; reports must agree
        # once it is normalized out alongside wall time
        d1["manifest"]["config"]["workers"] = d2["manifest"]["config"]["workers"] = 1
        assert reproducible_bytes(d1) == reproducible_bytes(d2)

    def test_certify_reports_byte_identical(self, tmp_path):
        args = ["certify", "--target", "scalene-lemma"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(args + ["-o", str(out1)])
        run(args + ["-o", str(out2)])
        assert reproducible_bytes(load(out1)) == reproducible_bytes(load(out2))

    def test_table_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["table", "--density", "64", "-o", str(out1)])
        run(["table", "--density", "64", "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_stable_field_names(self, tmp_path):
        out = tmp_path / "v.json"
        run(["verify", "--sides", "3,4,5", "--cevians", "median", "-o", str(out)])
        doc = load(out)
        assert "slacks" in doc and "seed" in doc["manifest"]
        out2 = tmp_path / "c.json"
        run(["certify", "--target", "altitude-reduced", "-o", str(out2)])
        cdoc = load(out2)
        assert "proven_count" in cdoc["certificate"]
        assert "undecided" in cdoc["certificate"]
        out3 = tmp_path / "s.json"
        run(["search", "--mode", "open-problem", "--samples", "1000",
             "--seed", "1", "--refine-steps", "0", "-o", str(out3)])
        assert "violations" in load(out3)["search"]



class TestUnwritableOutput:
    """An -o path that cannot be written is a usage error: exit 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--sides", "3,4,5", "--cevians", "median"],
        ["certify", "--target", "altitude-reduced", "--delta", "0"],
        ["search", "--mode", "open-problem", "--samples", "1000",
         "--seed", "1", "--refine-steps", "0"],
        ["table", "--density", "8"],
    ], ids=lambda argv: argv[0])
    def test_missing_directory_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out.json"
        assert run([*argv, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}")
        assert "Traceback" not in err

    def test_table_manifest_unwritable_exits_2(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        Path(str(out) + ".manifest.json").mkdir()
        assert run(["table", "--density", "8", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["cevians"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_pyproject_version_is_tool_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == TOOL_VERSION
