import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cevians.cli import main
from cevians.reports import reproducible_bytes, strip_wall_time

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

    @pytest.mark.parametrize("family", ["median", "altitude", "bisector",
                                        "mixed", "general"])
    @pytest.mark.parametrize("sides", ["1e200,1e200,1e200", "1e154,1e154,1e154",
                                       "1e-200,1e-200,1e-200"])
    def test_extreme_sides_exit_2(self, sides, family, capsys):
        # overflow or underflow leaves a Cevian or slack that is not a
        # positive finite number: a domain error, not a failed slack
        argv = ["verify", "--sides", sides, "--cevians", family]
        if family == "general":
            argv += ["--feet", "0.3,0.5,0.7"]
        assert run(argv) == 2
        assert "error: DomainError" in capsys.readouterr().err

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

    def test_corner_box_only_at_delta_zero(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "scalene-lemma", "-o", str(out)]) == 0
        assert "corner_box" not in load(out)["certificate"]
        assert run(["certify", "--target", "scalene-lemma", "--delta", "0",
                    "-o", str(out)]) == 0
        cert = load(out)["certificate"]
        assert cert["corner_box"] is not None
        assert "first-order Taylor form" in cert["excluded"]["corner_square"]["note"]

    @pytest.mark.parametrize("argv, code", [
        (["--delta", "1e-9", "--box-budget", "3000"], 1),
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

    def test_queue_cap_exits_3(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--target", "main-median", "--delta", "0",
                    "--queue-cap", "16", "-o", str(out)]) == 3
        doc = load(out)
        assert doc["certificate"]["stats"]["budget_exhausted"] is True


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
