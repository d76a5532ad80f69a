"""Run manifests and deterministic report serialization.

Reports are JSON documents with sorted keys; the only nondeterministic
field anywhere in a report is wall time, so :func:`reproducible_bytes`
zeroes every ``wall_time_s`` before serializing and two runs with the same
configuration compare byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

TOOL_VERSION = "0.1.0"


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


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
