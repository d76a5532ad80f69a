"""Run manifests and deterministic report serialization.

Reports are JSON documents with sorted keys; the only nondeterministic
field anywhere in a report is wall time, so :func:`reproducible_bytes`
zeroes every ``wall_time_s`` before serializing and two runs with the same
configuration compare byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

TOOL_VERSION = "0.19.0"


@dataclass(frozen=True)
class RunManifest:
    """Echo of one CLI run: subcommand, resolved configuration, inputs."""

    subcommand: str
    version: str
    seed: int | None
    config: dict
    inputs: dict
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "version": self.version,
            "seed": self.seed,
            "config": self.config,
            "inputs": self.inputs,
            "wall_time_s": self.wall_time_s,
        }


def report_document(manifest: RunManifest, body: dict) -> dict:
    doc = {"manifest": manifest.to_dict()}
    doc.update(body)
    return doc


_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# JSON text of each scalar type, as json.dumps writes it.  bool comes before
# int, whose subclass it is.
_SCALARS = {
    str: _quote,
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: _float_text,
    type(None): lambda value: "null",
}


def _scalar_text(value) -> str:
    """Text of a scalar whose type is a subclass of one in the table, such as np.float64."""
    for kind, text in _SCALARS.items():
        if isinstance(value, kind):
            return text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, written in one pass.

    The stdlib encoder falls back to pure Python whenever ``indent`` is set;
    this writer produces the same bytes with fewer calls per value.  Keys
    must be ``str`` (``_quote`` raises TypeError on any other), tuples are
    written as lists, and a list of finite floats, such as a box's
    coordinates, is written with one join.
    """
    parts: list[str] = []
    emit = parts.append

    def write(value, newline: str) -> None:
        if isinstance(value, dict):
            if not value:
                emit("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key in sorted(value):
                item = value[key]
                text = _SCALARS.get(type(item))
                if text is not None:
                    emit(sep + _quote(key) + ": " + text(item))
                else:
                    emit(sep + _quote(key) + ": ")
                    write(item, inner)
                sep = "," + inner
            emit(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                emit("[]")
                return
            inner = newline + "  "
            if isinstance(value[0], float):
                try:
                    text = ("," + inner).join(map(float.__repr__, value))
                except TypeError:  # an item that is not a float
                    text = None
                # of float.__repr__'s outputs only "nan" and "inf" hold an "n"
                if text is not None and "n" not in text:
                    emit("[" + inner + text + newline + "]")
                    return
            sep = "[" + inner
            for item in value:
                text = _SCALARS.get(type(item))
                if text is not None:
                    emit(sep + text(item))
                else:
                    emit(sep)
                    write(item, inner)
                sep = "," + inner
            emit(newline + "]")
        else:
            emit(_scalar_text(value))

    write(doc, "\n")
    emit("\n")
    return "".join(parts)


def strip_wall_time(doc):
    """Copy of a report with every wall_time_s zeroed, for byte comparison."""
    if isinstance(doc, dict):
        return {
            k: (0.0 if k == "wall_time_s" else strip_wall_time(v))
            for k, v in doc.items()
        }
    if isinstance(doc, list):
        return [strip_wall_time(v) for v in doc]
    return doc


def reproducible_bytes(doc: dict) -> bytes:
    return canonical_json(strip_wall_time(doc)).encode("utf-8")
