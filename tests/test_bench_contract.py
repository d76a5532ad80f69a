"""What the benchmark in ``bench/`` needs of the package.

``bench/run.py`` runs each workload's argv through ``cevians.cli.main`` and,
with ``--trace 1``, wraps package functions by name.  These tests load the
two bench modules that define those contracts, read-only, so that removing a
name or an option the benchmark uses fails here rather than in a benchmark
run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cevians import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


def test_tracer_finds_every_wrapped_name():
    # The constructor looks up every function it would wrap; it is not installed.
    tracer = _load("tracing").Tracer()
    assert tracer.names


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_argv_parses(name, tmp_path):
    ops = workloads.pass_ops(workloads.WORKLOADS[name], 0, 0, smoke=True)
    assert ops
    parser = cli.build_parser()
    for argv in ops:
        # the harness adds -o and nothing else
        args = parser.parse_args([*argv, "-o", str(tmp_path / "report.json")])
        assert args.command == argv[0]


@pytest.mark.parametrize("argv", [
    ["certify", "--target", "key-system", "--include-proven", "--delta", "0"],
    ["certify", "--target", "altitude-reduced", "--include-proven"],
])
def test_checks_accept_a_certificate_by_identity(argv, tmp_path):
    # exit 0, 0 undecided, an empty proven list and 0 boxes processed
    out = tmp_path / "report.json"
    rc = cli.main([*argv, "-o", str(out)])
    doc = json.loads(out.read_text())
    assert doc["certificate"]["stats"]["boxes_processed"] == 0
    assert _load("checks").check_certify(rc, doc) == []
