"""Which modules each subcommand loads, and the lazily filled package namespace."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cevians

SRC = Path(cevians.__file__).resolve().parent.parent
ENGINES = ("cevians.certifier", "cevians.search")

# Runs each argv of sys.argv[3] through cli.main in one fresh interpreter and
# prints the exit codes, and the cevians modules and NumPy if it loaded them.
_CLI_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cevians import cli
codes = [cli.main(argv + ["-o", sys.argv[2]]) for argv in json.loads(sys.argv[3])]
print(json.dumps([codes, sorted(m for m in sys.modules
                               if m.startswith("cevians.") or m == "numpy")]))
"""

# verify's argv for each Cevian family, a failing general triangle and a
# normalized pair.
VERIFY_ARGVS = [
    ["verify", "--sides", "3,4,5", "--cevians", "median"],
    ["verify", "--sides", "3,5,7", "--cevians", "altitude"],
    ["verify", "--sides", "3,5,7", "--cevians", "bisector"],
    ["verify", "--sides", "3,5,7", "--cevians", "mixed", "--weights", "0.5,2,1"],
    ["verify", "--sides", "3,4,5", "--cevians", "general", "--feet", "0.3,0.4,0.5"],
    ["verify", "--sides", "0.16736524189148243,0.9930262000160328,1", "--cevians", "general",
     "--feet", "0.6433251799701935,0.811788615454133,0.41990834417099293"],
    ["verify", "--normalized", "0.6,0.8", "--cevians", "median"],
]


def _fresh(code: str, *args: str, flags=()):
    proc = subprocess.run([sys.executable, *flags, "-c", code, str(SRC), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportBoundary:
    """A subcommand loads only the engine it runs, and only the subcommands
    that work on arrays load NumPy.  Each case runs in a fresh interpreter:
    the test session has loaded both engines."""

    @pytest.mark.parametrize("argvs, loaded, absent", [
        ([["verify", "--sides", "3,4,5", "--cevians", "median"],
          ["verify", "--sides", "3,4,5", "--cevians", "general", "--feet", "0.3,0.4,0.5"]],
         (), (*ENGINES, "cevians.intervals", "numpy")),
        ([["certify", "--target", "scalene-lemma"], ["table", "--density", "3"]],
         ("cevians.certifier", "numpy"), ("cevians.search",)),
        ([["search", "--mode", "open-problem", "--samples", "1000", "--seed", "1"]],
         ("cevians.search", "numpy"), ("cevians.certifier",)),
        ([["table", "--density", "3"]],
         ("cevians.certifier", "numpy"), ("cevians.search",)),
    ], ids=["verify", "certify-table", "search", "table"])
    def test_subcommand_loads_only_its_engine(self, tmp_path, argvs, loaded, absent):
        codes, modules = _fresh(_CLI_PROBE, str(tmp_path / "out"), json.dumps(argvs))
        assert codes == [0] * len(argvs)
        assert set(loaded) <= set(modules)
        assert not set(absent) & set(modules)

    def test_verify_runs_where_numpy_cannot_be_imported(self, tmp_path):
        # -S leaves site-packages, and with it NumPy, off the module path.
        codes, modules = _fresh(_CLI_PROBE, str(tmp_path / "out"), json.dumps(VERIFY_ARGVS),
                                flags=("-S",))
        assert codes == [0, 0, 0, 0, 0, 1, 0]
        assert "numpy" not in modules


class TestReplacedEngineNames:
    def test_handlers_call_what_is_set_on_cli(self, tmp_path, monkeypatch):
        from cevians import cli

        called = []
        for name in ("certify", "corner_argument_check", "point_values", "search"):
            def wrapper(*args, _name=name, _fn=getattr(cli, name)):
                called.append(_name)
                return _fn(*args)
            monkeypatch.setattr(cli, name, wrapper)
        out = str(tmp_path / "r.json")
        assert cli.main(["certify", "--target", "main-median", "-o", out]) == 0
        assert cli.main(["search", "--mode", "open-problem", "--samples", "100",
                         "--refine-steps", "0", "-o", out]) == 0
        assert sorted(set(called)) == ["certify", "corner_argument_check", "point_values",
                                       "search"]


class TestPackageNamespace:
    def test_every_public_name_is_its_defining_modules_object(self):
        for name in cevians.__all__:
            obj = getattr(cevians, name)
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name

    def test_engine_names_resolve_to_the_engine_objects(self):
        certifier = importlib.import_module("cevians.certifier")
        search = importlib.import_module("cevians.search")
        assert cevians.certify is certifier.certify
        assert cevians.SearchMode is search.SearchMode
        # The package attribute is the function, not the submodule.
        assert cevians.search is search.search

    def test_from_import(self):
        from cevians import SearchMode, certify

        assert certify is importlib.import_module("cevians.certifier").certify
        assert SearchMode is importlib.import_module("cevians.kernel").SearchMode

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cevians.no_such_name  # noqa: B018
        assert not hasattr(importlib.import_module("cevians.cli"), "no_such_name")

    def test_moved_names_import_from_the_engines_too(self):
        from cevians.bulk import equal_base_second_factor, equal_legs_second_factor
        from cevians.certifier import Target
        from cevians.certifier import equal_base_second_factor as base
        from cevians.certifier import equal_legs_second_factor as legs
        from cevians.inequalities import constraint_filter
        from cevians.kernel import MAX_RECORD_TOP, SearchMode
        from cevians.search import MAX_RECORD_TOP as top
        from cevians.search import SearchMode as mode
        from cevians.search import constraint_filter as filt

        assert Target is cevians.Target
        assert (base, legs) == (equal_base_second_factor, equal_legs_second_factor)
        assert (mode, top, filt) == (SearchMode, MAX_RECORD_TOP, constraint_filter)

    def test_fresh_package_loads_engines_on_first_access(self):
        code = """
import json, sys
sys.path.insert(0, sys.argv[1])
import cevians
steps = [sorted(m for m in sys.modules if m in ("cevians.certifier", "cevians.search"))]
cevians.certify
steps.append(sorted(m for m in sys.modules if m in ("cevians.certifier", "cevians.search")))
# Importing the submodule first binds it on the package; the function wins.
from cevians.search import SearchConfig
steps.append(callable(cevians.search) and cevians.search.__module__ == "cevians.search")
print(json.dumps(steps))
"""
        assert _fresh(code) == [[], ["cevians.certifier"], True]
