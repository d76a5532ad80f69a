import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cevians import cli
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

    def test_key_system_closes_at_small_mu(self, tmp_path):
        # the vertex forms at (0, 1) and (1/2, 1/2) close the boxes that
        # used to stay undecided next to (1/2, 1/2)
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
# manifest (which carries TOOL_VERSION), for certify-suite's 15 argv and
# certify-corner's argv at a budget of 3,000 boxes.  The bodies hold every
# proven box, and the suite's bodies the corner check and the corner
# sampling, so any change to a bound, a box or a corner factor shows.
@pytest.mark.parametrize("argv, digest", [
    *zip((["certify", "--target", target, "--include-proven", *setting]
          for target in ("main-median", "quadratic-median", "key-system",
                         "altitude-reduced", "scalene-lemma")
          for setting in _SUITE_SETTINGS), (
        "2db6b66620542d55a3288df044e35a1fc9f6efe2a369ab4ab3087c3ce138141d",
        "9c852828c861c747baf0bf67262554fec77400e98c6072da301115f3e570c1bb",
        "ab10d37ed6686f3ac3e575e1803fe3f271643b87f360de8a5791c3a0247ccc81",
        "4b9d89036ccc15ad724eec7a6c94d484129972ff6f7067f096c3edf412330e41",
        "0f66bf7a796d5e986b44e01e4d1cb9b8ecff4f988e5fed0bdbe238230892e22c",
        "5d7bbd1ef0a94db1089cd2a42efe660622b9ed3f83ff57169c18770b572fd432",
        "ba625b196b7d6bb6f5a0a4ffa325f2086bbe82b4b3262a254b8b7848a00dc926",
        "0c2259983cb3b3bfdd6499f202b227da8faf621e45cf33a2e2f2082b9c03ea29",
        "2997fdca9ce9670c93e98c81975a239d9f7d3544864851c7cbdfbd962afd10e7",
        "77ba91f9c2c54c32621e275cb6c80c50ab685b6d23e4bb4843d6b24782759b64",
        "e26cb158852893e47cecf110bc82378f4f6b5c2fbd31e0da9d643b6930682f9f",
        "b7a0931a85ff8e81cacae6fb73cc88a7173325d2904bc93a8ea43df1c6a4915f",
        "a70c3ab2c8f7ad88cf2ea14a2c1a557b0c3dd831d92d3f2d8b8d98bfbf117fda",
        "a0480ddb552c1bf6223f650e8626c6d8b4d564df30f5254e693757be463c3f08",
        "2852692539f231826381e7eff4a7cf97d9784ad5cf3dd5168675d85ae8d14978",
    )),
    (["certify", "--target", "main-median", "--delta", "0", "--min-box-width",
      "1e-15", "--max-depth", "200", "--box-budget", "3000"],
     "0e5107ed8664efc9a24876e862d0ff5190f416d6d51a63d7d5baa404292ba9e3"),
])
def test_certificate_bytes_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "r.json"
    run([*argv, "-o", str(out)])
    body = load(out)
    del body["manifest"]
    text = canonical_json(strip_wall_time(body))
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
        from cevians.inequalities import normalized_slack

        assert hit[0][2] == normalized_slack((hit[0][0], hit[0][1]))
        assert all(r[2] >= -1e-12 for r in rows)

    def test_low_density_exits_2(self, capsys):
        assert run(["table", "--density", "1"]) == 2

    def test_density_bound_is_accepted(self, monkeypatch, capsys):
        # stub the grid: the real one at the bound takes over 100 MB an array
        axes = []

        def grid(target, axis):
            axes.append(axis.size)
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


def test_pyproject_version_is_tool_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == TOOL_VERSION
