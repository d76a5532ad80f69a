"""Benchmark of the ``cevians`` CLI: four workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload certify-suite --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # each workload in a fresh process
    python3 bench/run.py --smoke                                 # minimum sizes, checks every metric prints

One run repeats passes over the workload's operations until ``--seconds``
are spent, timing a fixed yardstick computation between passes and, spread
over the run, set-up (fresh interpreters importing ``cevians.cli`` and
finishing one warm-up ``verify``).  Every operation goes through
``cevians.cli.main(argv)`` with ``-o`` into a scratch directory under
``.bench_out/``, and every report is checked independently (see
``checks.py``).  With ``--trace 1`` every pass runs twice, untraced and
then with spans around the layer entry points (see ``tracing.py``); the
run then reports per-layer metrics and the tracing overhead instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(environment, the argv of every operation, per-pass times) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import os

# Pin BLAS pools before NumPy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from workloads import WORKLOADS, pass_ops

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

# Every end-to-end metric: name, unit, and whether BENCHMARK.json gates it.
# wall_s drifts with the shared host's speed by more than any bound can
# absorb, so the gate is on wall_rel, the same pass time in units of the
# yardstick timed beside it.  undecided, violations and failed_frac are
# exact and are 0 on some workloads, so they cannot carry a bound relative
# to their median; failures also go to the result's "failed" count.
E2E = (
    ("setup_s", "s", True),
    ("wall_s", "s", False),
    ("wall_rel", "ratio", True),
    ("undecided", "count", False),
    ("violations", "count", False),
    ("peak_rss_mb", "MB", True),
    ("failed_frac", "ratio", False),
)

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cevians import cli
rc = cli.main(["verify", "--sides", "3,4,5", "--cevians", "median", "-o", sys.argv[2]])
print(time.perf_counter() - t0, rc)
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _import_cli():
    src = ROOT / "src"
    if not (src / "cevians" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src}/cevians")
    sys.path.insert(0, str(src))
    from cevians import cli, reports

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"imported cevians from {cli.__file__}, not from {src}")
    return cli, reports


def measure_setup(tmp: Path) -> float:
    """Seconds to import cevians.cli and finish one verify, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(tmp / "setup.json")],
        capture_output=True, text=True, timeout=120,
    )
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
        raise BenchError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return float(fields[0])


@dataclass
class PassResult:
    index: int
    op_seconds: list[float]
    argvs: list[tuple[str, ...]]
    raised: int = 0
    wrong: int = 0
    undecided: int = 0
    violations: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


@dataclass
class Runner:
    """Runs and checks passes of one workload."""

    cli: object
    reports: object
    workload: object
    seed: int
    smoke: bool
    tmp: Path
    failures: Counter = field(default_factory=Counter)
    _verified: set = field(default_factory=set)

    def run_pass(self, index: int) -> PassResult:
        ops = pass_ops(self.workload, self.seed, index, self.smoke)
        gc.collect()
        outcomes = [self._run_op(argv, k) for k, argv in enumerate(ops)]
        res = PassResult(index, [o[2] for o in outcomes], ops)
        bodies = []
        for argv, rc, _, error, doc in outcomes:
            if error is not None:
                res.raised += 1
                self.failures[(" ".join(argv), error)] += 1
                continue
            problems = self._check(argv, rc, doc)
            if problems:
                res.wrong += 1
                self.failures[(" ".join(argv), problems[0])] += 1
                continue
            res.undecided += doc.get("certificate", {}).get("undecided_count", 0)
            res.violations += len(doc.get("search", {}).get("violations", ()))
            if self.workload.identical_reports:
                bodies.append(self.reports.reproducible_bytes({"search": doc["search"]}))
        if len(set(bodies)) > 1:
            res.wrong += len(bodies) - 1
            self.failures[(" ".join(ops[0]), "reports differ across worker counts")] += 1
        return res

    def _run_op(self, argv, k):
        out = self.tmp / f"op-{k}.json"
        out.unlink(missing_ok=True)
        error = rc = None
        t0 = perf_counter()
        try:
            rc = self.cli.main([*argv, "-o", str(out)])
        except (Exception, SystemExit) as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        doc = None
        if error is None:
            if out.is_file():
                doc = json.loads(out.read_text(encoding="utf-8"))
            else:
                error = f"exit {rc} without a report"
        return argv, rc, seconds, error, doc

    def _check(self, argv, rc, doc) -> list[str]:
        # A report byte-identical to one that passed the full check, with
        # the same exit code, passes too; certify reports repeat every pass.
        key = (argv, rc, hashlib.sha256(self.reports.reproducible_bytes(doc)).digest())
        if key in self._verified:
            return []
        if argv[0] == "certify":
            problems = checks.check_certify(rc, doc)
        else:
            problems = checks.check_search(rc, doc)
        if not problems:
            self._verified.add(key)
        return problems


class Yardstick:
    """A fixed mix of interpreter and NumPy work, timed as a measure of host speed.

    The host is shared: its speed drifts by tens of percent over tens of
    seconds.  Timing this reference beside every pass lets ``wall_rel``
    divide that drift out.
    """

    def __init__(self):
        import numpy

        self._np = numpy
        self._a = numpy.linspace(0.5, 1.0, 100_000)

    def seconds(self) -> float:
        np, a = self._np, self._a
        t0 = perf_counter()
        s = 0.0
        for i in range(120_000):
            s += (i * 0.5) ** 0.5
        for _ in range(20):
            np.minimum(np.nextafter(a * a + a, np.inf), np.sqrt(a))
        return perf_counter() - t0


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail: {n} passes, fewer than 11"
    k = n - 11
    return f"p{100 * (k + 1) / n:.0f} = {sorted(values)[k]:.6f} s over {n} passes"


def worker_speedup(passes: list[PassResult]) -> float:
    """Median ratio of the 1-worker to the 2-worker operation time in a pass."""
    ratios = []
    for p in passes:
        by_workers = {argv[argv.index("--workers") + 1]: t
                      for argv, t in zip(p.argvs, p.op_seconds) if "--workers" in argv}
        if "1" in by_workers and "2" in by_workers:
            ratios.append(by_workers["1"] / by_workers["2"])
    return statistics.median(ratios) if ratios else 0.0


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    nproc = len(os.sched_getaffinity(0))
    return {
        "host": f"shared machine with {nproc} cores visible; other tenants' load adds noise",
        "nproc": nproc,
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _failed_frac(passes: list[PassResult]) -> float:
    return sum(p.failed for p in passes) / sum(len(p.argvs) for p in passes)


def _untraced_run(runner: Runner, args, tmp: Path):
    """End-to-end metrics: passes until the time is spent.

    The yardstick runs before the first pass and after every pass; set-up
    samples are spread over the run, so both see the same host load as the
    passes.
    """
    start = perf_counter()
    deadline = start + args.seconds
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup = []
    yardstick = Yardstick()
    refs = [yardstick.seconds()]
    passes = []
    for index in range(10**9):
        t0 = perf_counter()
        passes.append(runner.run_pass(index))
        refs.append(yardstick.seconds())
        if len(setup) < repeats and perf_counter() >= start + args.seconds * len(setup) / repeats:
            setup.append(measure_setup(tmp))
        if perf_counter() + (perf_counter() - t0) > deadline:
            break
    while len(setup) < repeats:
        setup.append(measure_setup(tmp))
    walls = [p.seconds for p in passes]
    rel = [p.seconds / ((r0 + r1) / 2) for p, r0, r1 in zip(passes, refs, refs[1:])]
    failed = sum(p.failed for p in passes)
    attempted = sum(len(p.argvs) for p in passes)
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "wall_s": (statistics.median(walls), f"median of {len(walls)} passes; {tail(walls)}"),
        "wall_rel": (statistics.median(rel),
                     f"median of {len(rel)} passes, each over the mean yardstick time "
                     f"before and after it (median yardstick {statistics.median(refs):.6f} s)"),
        "undecided": (passes[0].undecided, "certify reports of pass 0 (exact for the seed)"),
        "violations": (passes[0].violations, "search reports of pass 0 (exact for the seed)"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "ru_maxrss of this process"),
        "failed_frac": (failed / attempted, f"{failed} of {attempted} operations"),
    }
    printed = {name: (*values[name], unit) for name, unit, _ in E2E}
    gated = [name for name, _, gate in E2E if gate]
    return passes, printed, gated


def _traced_run(runner: Runner, args):
    """Per-layer metrics: each pass runs untraced, then again traced.

    Alternating keeps both sides of each overhead pair under the same host
    load.  Spans are summarized and dropped after every traced pass; those
    of the first traced pass are written out.
    """
    import tracing

    tracer = tracing.Tracer()
    spans_path = OUT / f"spans-{runner.workload.name}.npz"
    deadline = perf_counter() + args.seconds
    untraced, traced, per_pass = [], [], []
    for index in range(10**9):
        t0 = perf_counter()
        untraced.append(runner.run_pass(index))
        tracer.install()
        try:
            traced.append(runner.run_pass(index))
        finally:
            tracer.uninstall()
        spans, counts = tracer.collect()
        per_pass.append(tracing.pass_metrics(tracer.names, spans, counts))
        if index == 0:
            tracer.save(spans_path, spans)
        del spans
        if perf_counter() + (perf_counter() - t0) > deadline:
            break
    passes = untraced + traced
    overhead = statistics.median(t.seconds - u.seconds for t, u in zip(traced, untraced))
    run_level = {
        "cli.failed_frac": _failed_frac(passes),
        "search.worker_speedup": worker_speedup(untraced),
        "trace.overhead_s": overhead,
    }
    printed = {}
    for name, unit, _, moves in tracing.PER_LAYER:
        value = run_level.get(name)
        if value is None:
            value = statistics.fmean(v[name] for v in per_pass)
        printed[name] = (value, f"moves {moves}", unit)
    printed["trace.overhead_s"] = (
        overhead, f"median of {len(traced)} traced minus untraced passes on the same "
                  f"inputs; spans of the first in {spans_path.relative_to(ROOT)}", "s")
    return passes, printed, list(printed)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT))
    try:
        cli, reports = _import_cli()
        runner = Runner(cli, reports, workload, args.seed, args.smoke, tmp)
        if args.trace:
            passes, printed, gated = _traced_run(runner, args)
        else:
            passes, printed, gated = _untraced_run(runner, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(args)
    argvs = dict.fromkeys(argv for p in passes for argv in p.argvs)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    lines += [f"op {' '.join(argv)}" for argv in argvs]
    lines += [f"failure {n}x {argv}: {why}" for (argv, why), n in sorted(runner.failures.items())]
    lines += [f"metric {name} {value!r} {unit}  # {note}" for name, (value, note, unit) in printed.items()]

    record = {
        "environment": env,
        "passes": [{"index": p.index, "op_seconds": p.op_seconds, "failed": p.failed,
                    "argv": [list(a) for a in p.argvs]} for p in passes],
        "failures": [{"argv": a, "why": w, "count": n} for (a, w), n in runner.failures.items()],
        "metrics": {name: {"value": v, "unit": u, "note": note} for name, (v, note, u) in printed.items()},
    }
    result_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    lines.append(f"result {result_path.relative_to(ROOT)}")

    print("\n".join(lines))
    print(json.dumps({
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": sum(len(p.argvs) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": printed[name][0], "unit": printed[name][2]} for name in gated},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; with --smoke, also check every metric prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traces = (0, 1) if args.smoke else (args.trace,)
    problems = []
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=args.seconds + 170)
            print(f"== {name} trace={trace} exit={proc.returncode}")
            print(proc.stdout, end="")
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            if args.smoke:
                problems += [f"{name} trace={trace}: {p}"
                             for p in _smoke_problems(proc.stdout, spec, trace)]
    for p in problems:
        print(f"problem {p}")
    return 1 if problems else 0


def _smoke_problems(stdout: str, spec: dict, trace: int) -> list[str]:
    import tracing

    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("an output failed its check")
    if trace:
        wanted = {m[0]: m[1] for m in tracing.PER_LAYER}
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        wanted = {name: unit for name, unit, _ in E2E}
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in wanted.items():
        if printed.get(name) != unit:
            problems.append(f"metric {name} not printed with unit {unit}")
    if {k: v.get("unit") for k, v in result["metrics"].items()} != declared:
        problems.append("result metrics differ from BENCHMARK.json")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default 30; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum sizes and one pass per run")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 30.0
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
