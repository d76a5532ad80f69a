"""Spans around the package's layer entry points, and the per-layer metrics.

Each entry point is wrapped where its caller looks it up: names imported
into ``cevians.cli`` and ``cevians.search``, ``cevians.bulk`` functions
(called through the module), and the scalar ``Interval`` operators.  A
span is (name, start, end, parent, thread id); spans stay in per-thread
buffers, so worker threads never share one, and are written out when the
run ends.  Counts come from the spans and from the objects the wrapped
calls return (certificates, corner reports, search reports).
"""

from __future__ import annotations

import importlib
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# name, unit, better, and the end-to-end metric and workload it should move.
PER_LAYER = (
    ("cli.certify_s", "s", "lower", "wall_s on certify-suite"),
    ("cli.corner_s", "s", "lower", "wall_s and failed_frac on certify-suite; 0 on certify-corner"),
    ("cli.failed_frac", "ratio", "lower", "failed_frac on certify-suite"),
    ("reports.emit_s", "s", "lower", "wall_s on certify-suite and search-refine"),
    ("reports.bytes", "bytes", "lower", "wall_s on certify-suite and search-refine"),
    ("certifier.boxes", "count", "lower", "wall_s, undecided and peak_rss_mb on certify-corner"),
    ("certifier.proven_ratio", "ratio", "higher", "wall_s, undecided and peak_rss_mb on certify-corner"),
    ("certifier.undecided", "count", "lower", "undecided on certify-suite and certify-corner"),
    ("certifier.us_per_box", "us", "lower", "wall_s on certify-corner"),
    ("certifier.levels", "count", "lower", "wall_s on certify-suite"),
    ("certifier.us_per_level", "us", "lower", "wall_s on certify-suite"),
    ("certifier.corner_boxes", "count", "lower", "wall_s on certify-suite"),
    ("intervals.ops", "count", "lower", "wall_s on certify-suite, search-sweep and search-refine"),
    ("intervals.s", "s", "lower", "wall_s on certify-suite, search-sweep and search-refine"),
    ("bulk.sample_ns", "ns", "lower", "wall_s on search-sweep; ~0 on search-refine"),
    ("bulk.cevians_ns", "ns", "lower", "wall_s on search-sweep; ~0 on search-refine"),
    ("bulk.slacks_ns", "ns", "lower", "wall_s on search-sweep; ~0 on search-refine"),
    ("bulk.mask_ns", "ns", "lower", "wall_s on search-sweep; ~0 on search-refine"),
    ("bulk.accept_ratio", "ratio", "higher", "wall_s on search-sweep"),
    ("search.shard_self_ns", "ns", "lower", "wall_s on search-sweep"),
    ("search.worker_speedup", "ratio", "higher", "wall_s on search-sweep"),
    ("search.merge_s", "s", "lower", "wall_s on search-sweep"),
    ("search.refine_s", "s", "lower", "wall_s on search-refine; 12-20% of it on search-sweep"),
    ("search.refine_probes", "count", "lower", "wall_s on search-refine; 12-20% of it on search-sweep"),
    ("search.us_per_probe", "us", "lower", "wall_s on search-refine; 12-20% of it on search-sweep"),
    ("search.reverify_s", "s", "lower", "wall_s on search-refine; 12-20% of it on search-sweep"),
    ("search.reverify_calls", "count", "lower", "wall_s on search-refine; 12-20% of it on search-sweep"),
    ("search.violations", "count", "higher", "violations on search-sweep and search-refine"),
    ("kernel.general_cevians_us", "us", "lower", "wall_s on search-refine"),
    ("kernel.validate_sides_us", "us", "lower", "wall_s on search-refine"),
    ("inequalities.open_problem_slacks_us", "us", "lower", "wall_s on search-refine"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of the same pass"),
)

_CLI = ("certify", "corner_argument_check", "_corner_sampling", "search", "canonical_json")
_SEARCH = ("general_cevians", "validate_sides", "open_problem_slacks",
           "evaluate_candidate", "refine", "reverify_candidate",
           "_run_shard", "_merge_pool")
_BULK = ("sample_normalized_points", "in_normalized_domain",
         "general_cevians_arrays", "slack_main_arrays",
         "slack_quadratic_arrays", "constraint_mask_arrays")
_INTERVAL = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "sqrt")


class _Buffer:
    __slots__ = ("tid", "name", "parent", "start", "end", "stack")

    def __init__(self, tid: int):
        self.tid = tid
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    """Span-recording wrappers; ``install`` and ``uninstall`` swap them in and out."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        cli = importlib.import_module("cevians.cli")
        search = importlib.import_module("cevians.search")  # the package attribute is the function
        bulk = importlib.import_module("cevians.bulk")
        from cevians.intervals import Interval

        hooks = {
            "cli.certify": self._on_certificate,
            "cli.corner_argument_check": self._on_corner,
            "cli.search": self._on_search,
            "cli.canonical_json": self._on_json,
            "bulk.in_normalized_domain": self._on_mask,
        }
        self._patches = []
        for owner, prefix, attrs in ((cli, "cli", _CLI), (search, "search", _SEARCH),
                                     (bulk, "bulk", _BULK), (Interval, "Interval", _INTERVAL)):
            for attr in attrs:
                name = f"{prefix}.{attr}"
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original,
                                      self._wrap(original, name, hooks.get(name))))

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fn, name: str, hook):
        nid = len(self.names)
        self.names.append(name)
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(i)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = perf_counter()
                buf.stack.pop()
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_certificate(self, cert) -> None:
        self.counts["boxes"] += cert.stats.boxes_processed
        self.counts["levels"] += cert.stats.max_depth_reached + 1
        self.counts["proven"] += cert.proven_count
        self.counts["undecided"] += cert.undecided_count

    def _on_corner(self, report) -> None:
        self.counts["corner_boxes"] += (report.equal_legs_factor.boxes_processed
                                        + report.equal_base_factor.boxes_processed)

    def _on_search(self, report) -> None:
        self.counts["samples"] += report.totals["sampled"]
        self.counts["violations"] += len(report.violations)

    def _on_json(self, text: str) -> None:
        self.counts["json_bytes"] += len(text.encode("utf-8"))

    def _on_mask(self, mask) -> None:
        with self._lock:  # called from search worker threads
            self.counts["mask_pairs"] += mask.size
            self.counts["mask_accepted"] += int(np.count_nonzero(mask))

    def collect(self) -> tuple[dict[str, np.ndarray], Counter]:
        """Spans and counts recorded since the last call, which are then dropped.

        Call it only while no span is open.  Parents index into the same
        arrays; ``self`` is each span's duration minus its children's.
        """
        cols = {k: [] for k in ("name", "parent", "start", "end", "tid")}
        offset = 0
        for buf in self._buffers:
            n = len(buf.start)
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32).copy())
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["start"].append(np.frombuffer(buf.start).copy())
            cols["end"].append(np.frombuffer(buf.end).copy())
            cols["tid"].append(np.full(n, buf.tid, dtype=np.int64))
            offset += n
            for column in (buf.name, buf.parent, buf.start, buf.end):
                del column[:]
        spans = {k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()}
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        spans["self"] = dur - child
        counts, self.counts = self.counts, Counter()
        return spans, counts

    def save(self, path, spans: dict[str, np.ndarray]) -> None:
        np.savez(path, names=np.array(self.names), **spans)


def pass_metrics(names: list[str], sp: dict[str, np.ndarray], c: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts.

    The run-level metrics (cli.failed_frac, search.worker_speedup and
    trace.overhead_s) come from the harness instead.
    """
    ids = {name: i for i, name in enumerate(names)}
    dur = sp["end"] - sp["start"]

    def mask(*which):
        return np.isin(sp["name"], [ids[w] for w in which])

    def total(*which, field=dur):
        return float(field[mask(*which)].sum())

    def count(*which):
        return int(mask(*which).sum())

    def mean_us(name):
        n = count(name)
        return total(name) / n * 1e6 if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    samples = c["samples"]
    parent = sp["parent"]
    in_refine = np.zeros(parent.size, dtype=bool)
    in_refine[parent >= 0] = sp["name"][parent[parent >= 0]] == ids["search.refine"]
    probes = int((mask("search.evaluate_candidate") & in_refine).sum())
    certify_s = total("cli.certify")
    refine_s = total("search.refine")
    interval_ops = tuple(f"Interval.{op}" for op in _INTERVAL)
    return {
        "cli.certify_s": certify_s,
        "cli.corner_s": total("cli.corner_argument_check", "cli._corner_sampling"),
        "reports.emit_s": total("cli.canonical_json"),
        "reports.bytes": c["json_bytes"],
        "certifier.boxes": c["boxes"],
        "certifier.proven_ratio": ratio(c["proven"], c["boxes"]),
        "certifier.undecided": c["undecided"],
        "certifier.us_per_box": ratio(certify_s * 1e6, c["boxes"]),
        "certifier.levels": c["levels"],
        "certifier.us_per_level": ratio(certify_s * 1e6, c["levels"]),
        "certifier.corner_boxes": c["corner_boxes"],
        "intervals.ops": count(*interval_ops),
        "intervals.s": total(*interval_ops),
        "bulk.sample_ns": ratio(total("bulk.sample_normalized_points") * 1e9, samples),
        "bulk.cevians_ns": ratio(total("bulk.general_cevians_arrays") * 1e9, samples),
        "bulk.slacks_ns": ratio(total("bulk.slack_main_arrays", "bulk.slack_quadratic_arrays") * 1e9, samples),
        "bulk.mask_ns": ratio(total("bulk.constraint_mask_arrays") * 1e9, samples),
        "bulk.accept_ratio": ratio(c["mask_accepted"], c["mask_pairs"]),
        "search.shard_self_ns": ratio(total("search._run_shard", field=sp["self"]) * 1e9, samples),
        "search.merge_s": total("search._merge_pool"),
        "search.refine_s": refine_s,
        "search.refine_probes": probes,
        "search.us_per_probe": ratio(refine_s * 1e6, probes),
        "search.reverify_s": total("search.reverify_candidate"),
        "search.reverify_calls": count("search.reverify_candidate"),
        "search.violations": c["violations"],
        "kernel.general_cevians_us": mean_us("search.general_cevians"),
        "kernel.validate_sides_us": mean_us("search.validate_sides"),
        "inequalities.open_problem_slacks_us": mean_us("search.open_problem_slacks"),
    }
