"""canonical_json writes exactly the bytes of the stdlib encoder.

``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` is the reference: the
one-pass writer must match it on arbitrary JSON-like documents and on real
reports of every subcommand.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cevians import cli
from cevians.reports import canonical_json, reproducible_bytes


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_numbers = _floats | _floats.map(np.float64) | st.integers(-(2**256), 2**256)
_scalars = st.none() | st.booleans() | _numbers | st.text()
_json_like = st.recursive(
    _scalars | st.lists(_floats | _floats.map(np.float64)),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=40,
)


class TestAgainstStdlib:
    @settings(max_examples=300, deadline=None)
    @given(_json_like)
    @example({"b": 1, "a": {"z": [], "y": {}, "x": ()}, "é\n\"\\\t ": "ü"})
    @example([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    @example([1.0, math.nan, 2.0])
    @example({"v": math.nan, "w": [math.inf], "u": -math.inf})
    @example([np.float64(0.1), np.float64(-0.0)])
    @example({"x": np.float64(1e-310), "y": [1.5, np.float64(2.5)]})
    @example([True, False, None, 2**200, -(2**200), 0])
    @example([1.0, 2, True, "s"])
    @example(((1.0, 2.0), [[]], [{}]))
    def test_matches_json_dumps(self, doc):
        assert canonical_json(doc) == stdlib(doc)

    @pytest.mark.parametrize("doc", [
        {"k": {1, 2}},
        [np.int64(3)],
        [np.bool_(True)],
        [1.0, np.float32(2.0)],
        object(),
    ])
    def test_rejects_what_json_rejects(self, doc):
        with pytest.raises(TypeError):
            stdlib(doc)
        with pytest.raises(TypeError):
            canonical_json(doc)

    @pytest.mark.parametrize("doc", [{1: "int key"}, {"a": 1, 2.0: "float key"}])
    def test_rejects_keys_that_are_not_str(self, doc):
        # json.dumps converts such keys; every report key is a str
        with pytest.raises(TypeError):
            canonical_json(doc)


REPORT_ARGVS = [
    *(["verify", "--sides", "3,4,5", "--cevians", family]
      for family in ("median", "altitude", "bisector")),
    ["verify", "--sides", "3,4,5", "--cevians", "mixed", "--weights", "1,2,0.5"],
    ["verify", "--sides", "3,4,5", "--cevians", "general",
     "--feet", "0.99,0.5,0.01"],
    ["certify", "--target", "main-median", "--include-proven"],
    ["certify", "--target", "key-system", "--include-proven", "--delta", "0"],
    ["search", "--mode", "unconstrained", "--samples", "4096",
     "--record-top", "10", "--seed", "11"],
    ["search", "--mode", "open-problem", "--samples", "4096",
     "--record-top", "10", "--seed", "11"],
]


@pytest.mark.parametrize("argv", REPORT_ARGVS, ids=lambda argv: " ".join(argv[:4]))
def test_real_report_matches_json_dumps(argv, tmp_path, monkeypatch):
    docs = []

    def capture(doc):
        docs.append(doc)
        return canonical_json(doc)

    monkeypatch.setattr(cli, "canonical_json", capture)
    out = tmp_path / "report.json"
    assert cli.main([*argv, "-o", str(out)]) in (0, 1)
    (doc,) = docs
    assert out.read_text() == stdlib(doc)
    assert reproducible_bytes(doc) == reproducible_bytes(json.loads(out.read_text()))
