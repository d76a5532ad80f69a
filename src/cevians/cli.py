"""Command-line interface: verify, certify, search, and table subcommands.

Exit codes follow a fixed contract.  verify: 0 all slacks pass, 1 some
slack fails, 2 invalid input; a slack of degree d in the sides fails below
-tolerance*c*lc*c**(d-2), and bisector_ratio, of degree 0, below
-tolerance*(c + b - a)/c, the size of its terms, so the verdict does not
depend on units.
certify: 0 empty undecided set (as for every proof by identity), 1
undecided boxes remain (also when the box budget runs out), 2 bad
arguments.  search: unconstrained mode exits 0 iff a re-verified
violation was found, open-problem mode always exits 0 (2 on bad
arguments, among them a --record-top outside [1, 4,096]; refinement
holds about 9 KB per recorded candidate; while the search samples, each
worker thread holds about 4 MB of shard rows and two ranked
pools of 128 bytes per recorded candidate, and nothing per shard).
table: 0, or 2 on bad density (below 2 or above 4,096, whose grid arrays
take about 134 MB each).  Every subcommand exits 2 when its -o output cannot be written.

Each subcommand loads only the engine it runs: verify loads neither
:mod:`cevians.certifier` nor :mod:`cevians.search`, nor NumPy, since it
evaluates on Python floats; certify and table load the certifier and
search loads the search.  Of this module's code, only the grids of table
and of certify's corner sampling use NumPy, and load it when they run.
The parser's choices come from :mod:`cevians.kernel` (``CevianKind``,
``Target``, ``SearchMode`` and ``MAX_RECORD_TOP``), and verify's
``constraint_filter`` from :mod:`cevians.inequalities`.  certify reads
what it does with a target, the corner check too, from its record in
:data:`cevians.certifier.TARGETS`; only table names a target, as its grid
is the main-median slack.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import time
from pathlib import Path

from . import _lazy_getattr, bulk
from .exceptions import CevianError
from .inequalities import (
    bisector_ratio_slack,
    bisector_sqrt_chain_slack,
    constraint_filter,
    key_system_residuals,
    lemma_scalene_slack,
    open_problem_slacks,
    ordering_products,
    slack_main,
    slack_quadratic,
    tolerance_scale,
)
from .kernel import (
    MAX_RECORD_TOP,
    CevianKind,
    GeneralCevianParams,
    MixedWeights,
    NormalizedTriangle,
    SearchMode,
    SideTriple,
    Target,
    altitudes,
    bisectors,
    general_cevians,
    medians,
    mixed_cevians,
    validate_sides,
)
from .reports import (
    TOOL_VERSION,
    RunManifest,
    canonical_json,
    report_document,
)

# The engine names of the certify, table and search handlers load with their
# module on first access, so each subcommand loads only the engine it runs.
__getattr__ = _lazy_getattr(globals(), {
    "certifier": ("TARGETS", "CertificationTask", "certify", "corner_argument_check",
                  "point_values"),
    "search": ("FOOT_MARGIN", "SearchConfig", "search"),
})
# This module.  The handlers look the engine names up on it, which loads
# them on first use and calls any replacement set on the module (as the
# benchmark's tracer and the tests do).
_engines = sys.modules[__name__]

ENV_SEED = "CEVIANS_SEED"
DEFAULT_SEED = 0
# The largest table density; each of its grid arrays takes about 134 MB.
MAX_DENSITY = 4096


class _UsageError(Exception):
    """Bad arguments detected past argparse; mapped to exit code 2."""


def _parse_floats(text: str, n: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise _UsageError(f"{what} must be {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"cannot parse {what}: {exc}") from None


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{ENV_SEED} must be an integer, got {env!r}")
    return DEFAULT_SEED


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(args, manifest: RunManifest, body: dict) -> None:
    text = canonical_json(report_document(manifest, body))
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cevians",
        allow_abbrev=False,
        description="Verify, rigorously certify, and search the "
                    "triangle-Cevian inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", allow_abbrev=False,
                       help="evaluate every applicable slack for one triangle")
    v.add_argument("--sides", help="three side lengths a,b,c in any order")
    v.add_argument("--normalized",
                   help="normalized pair x,y with 0 < x <= y <= 1 < x + y (implies c = 1)")
    v.add_argument("--cevians", required=True, choices=[k.value for k in CevianKind],
                   help="which Cevian family to evaluate")
    v.add_argument("--weights", help="alpha,beta,gamma for --cevians mixed (default 1,1,1)")
    v.add_argument("--feet", help="ta,tb,tc in (0,1) for --cevians general")
    v.add_argument("--tolerance", type=float, default=1e-12,
                   help="slack tolerance: a slack of degree d in the sides fails "
                        "below -tolerance*c*lc*c**(d-2), bisector_ratio below "
                        "-tolerance*(c+b-a)/c (default 1e-12)")
    v.add_argument("-o", "--output", help="write the JSON report to this path")

    c = sub.add_parser("certify", allow_abbrev=False,
                       help="rigorous certification, by identity or branch-and-bound")
    c.add_argument("--target", required=True, choices=[t.value for t in Target])
    c.add_argument("--mu", type=float, default=1e-6, help="degeneracy buffer (default 1e-6)")
    c.add_argument("--delta", type=float, default=1e-3,
                   help="equality-corner half-width (default 1e-3)")
    c.add_argument("--max-depth", type=int, default=60,
                   help="bisection depth before a box is left undecided (default 60)")
    c.add_argument("--min-box-width", type=float, default=1e-9,
                   help="width below which a box is left undecided (default 1e-9)")
    c.add_argument("--box-budget", type=int, default=2_000_000,
                   help="bounded-box budget (stats.boxes_processed) before giving up")
    c.add_argument("--include-proven", action="store_true",
                   help="write the full proven box list into the report")
    c.add_argument("-o", "--output")

    s = sub.add_parser("search", allow_abbrev=False,
                       help="randomized counterexample search")
    s.add_argument("--mode", required=True,
                   choices=[m.value for m in SearchMode])
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${ENV_SEED} or {DEFAULT_SEED})")
    s.add_argument("--refine-steps", type=int, default=200,
                   help="local pattern-search sweeps per candidate (default 200)")
    s.add_argument("--record-top", type=int, default=20,
                   help="extremal candidates kept in the report "
                        f"(1 to {MAX_RECORD_TOP}, default 20)")
    s.add_argument("--workers", type=int, default=1,
                   help="shard worker threads, at most one per usable CPU "
                        "and per shard; results are identical for any count")
    s.add_argument("-o", "--output")

    t = sub.add_parser("table", allow_abbrev=False,
                       help="CSV grid of the normalized main slack")
    t.add_argument("--density", type=int, required=True,
                   help=f"grid points per axis (2 to {MAX_DENSITY})")
    t.add_argument("-o", "--output", help="write CSV here (manifest goes to "
                                          "<output>.manifest.json)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls in one process.

    Reuse is safe: every default is an immutable scalar and no action
    mutates parser state, so each ``parse_args`` sees only its own argv.
    """
    return build_parser()


def _build_triangle(args) -> tuple[SideTriple, dict]:
    if bool(args.sides) == bool(args.normalized):
        raise _UsageError("provide exactly one of --sides or --normalized")
    if args.sides:
        a, b, c = _parse_floats(args.sides, 3, "--sides")
        return validate_sides(a, b, c), {"sides": [a, b, c]}
    x, y = _parse_floats(args.normalized, 2, "--normalized")
    p = NormalizedTriangle(x, y)
    return validate_sides(p.x, p.y, 1.0), {"normalized": [x, y]}


def _checked(config_class, *args, **kwargs):
    """``config_class(*args, **kwargs)``; its ValueError is a usage error."""
    try:
        return config_class(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _manifest(args, started: float, config: dict, seed: int | None = None,
              inputs: dict | None = None) -> RunManifest:
    """The manifest of this run, timed from ``started`` to now."""
    return RunManifest(args.command, TOOL_VERSION, seed, config, inputs or {},
                       time.perf_counter() - started)


_FAMILIES = {"median": medians, "altitude": altitudes, "bisector": bisectors}
# The degree in the sides of each slack that is not of degree 2.
_DEGREES = {"quadratic": 3, "open_problem_2": 3, "bisector_sqrt_chain": 1.5,
            "bisector_ratio": 0}


def cmd_verify(args, started: float) -> int:
    if not (0.0 <= args.tolerance < math.inf):
        raise _UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    t, input_echo = _build_triangle(args)

    weights = feet = None
    if args.cevians == "mixed":
        weights = _parse_floats(args.weights or "1,1,1", 3, "--weights")
        cv = mixed_cevians(t, _checked(MixedWeights, *weights))
    elif args.cevians == "general":
        if not args.feet:
            raise _UsageError("--cevians general requires --feet ta,tb,tc")
        feet = _parse_floats(args.feet, 3, "--feet")
        cv = general_cevians(t, GeneralCevianParams(*feet))
    else:
        cv = _FAMILIES[args.cevians](t)

    checks: dict[str, bool] = {}
    if args.cevians == "general":
        slacks = {rep.name: rep.value for rep in open_problem_slacks(t, cv)}
        checks["open_problem_constraints"] = constraint_filter(t, cv)
    else:
        slacks = {"main": slack_main(t, cv).value,
                  "quadratic": slack_quadratic(t, cv).value}
    if args.cevians in ("median", "bisector"):
        prods = ordering_products(t, cv)
        slacks["middle_dominance"] = prods.product_b - max(prods.product_a, prods.product_c)
        checks["middle_dominant"] = prods.middle_dominant
    if args.cevians == "median":
        for rep in key_system_residuals(t, cv):
            slacks[rep.name] = rep.value
        if t.a < t.b < t.c:
            slacks["scalene_lemma"] = lemma_scalene_slack(t, cv).value
    if args.cevians == "bisector":
        slacks["bisector_ratio"] = bisector_ratio_slack(t, cv).value
        slacks["bisector_sqrt_chain"] = bisector_sqrt_chain_slack(t, cv).value

    scale = tolerance_scale(t, cv)
    threshold = -args.tolerance * scale
    # A slack of degree d in the sides is compared with threshold * c**(d - 2).
    # bisector_ratio has degree 0 and terms of size (c + b - a)/c >= 1, so
    # it is compared with -tolerance times that: the degree-0 threshold
    # c*lc/c**2 shrinks with the bisector lc of a needle triangle until one
    # rounding of la/lb fails it.
    limits = {3: threshold * t.c, 2: threshold, 1.5: threshold / math.sqrt(t.c),
              0: -args.tolerance * ((t.c + t.b) - t.a) / t.c}
    all_ok = all(v >= limits[_DEGREES.get(name, 2)] for name, v in slacks.items())

    config = {"cevians": args.cevians, "tolerance": args.tolerance,
              "weights": list(weights) if weights else None,
              "feet": list(feet) if feet else None}
    body = {
        "triangle": {"a": t.a, "b": t.b, "c": t.c},
        "cevian_lengths": list(cv.as_tuple()),
        "slacks": slacks,
        "checks": checks,
        "scale": scale,
        "threshold": threshold,
        "all_nonnegative": all_ok,
    }
    _emit(args, _manifest(args, started, config, inputs=input_echo), body)
    return 0 if all_ok else 1


def _grid_values(target: Target, lo: float, hi: float, n: int):
    """x, y and target value of each domain point of the n x n grid over
    [lo, hi]^2, x-major."""
    import numpy as np

    axis = np.linspace(lo, hi, n)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    mask = bulk.in_normalized_domain(gx, gy)
    x, y = gx[mask], gy[mask]
    return x, y, _engines.point_values(target, x, y)


def _corner_sampling(target: Target, delta: float) -> dict:
    """Dense binary64 sampling of the corner interior [1-delta, 1]^2.

    Evidence only: a sampled minimum proves nothing between the samples.
    """
    _, _, values = _grid_values(target, 1.0 - delta, 1.0, 129)  # 128 steps
    tol = -1e-12
    return {
        "points": values.size,
        "min_value": float(values.min()),
        "tolerance": tol,
        "pass": bool((values >= tol).all()),
    }


def cmd_certify(args, started: float) -> int:
    task = _checked(_engines.CertificationTask, target=Target(args.target), mu=args.mu,
                    delta=args.delta, max_depth=args.max_depth,
                    min_box_width=args.min_box_width, box_budget=args.box_budget)
    cert = _engines.certify(task)

    body = {"certificate": cert.to_report_dict(include_proven=args.include_proven)}
    # a proof by identity covers the corner square too
    if task.delta > 0.0 and cert.identity is None:
        if _engines.TARGETS[task.target].corner_factors:
            body["corner_check"] = _engines.corner_argument_check(task.delta).to_report_dict()
        body["corner_sampling"] = _corner_sampling(task.target, task.delta)

    config = {**dataclasses.asdict(task), "target": task.target.value}
    _emit(args, _manifest(args, started, config), body)
    return 0 if cert.undecided_count == 0 else 1


def cmd_search(args, started: float) -> int:
    cfg = _checked(_engines.SearchConfig, seed=_resolve_seed(args.seed), samples=args.samples,
                   mode=SearchMode(args.mode), refine_steps=args.refine_steps,
                   record_top=args.record_top, workers=args.workers)
    report = _engines.search(cfg)

    config = {**dataclasses.asdict(cfg), "mode": cfg.mode.value,
              "foot_margin": _engines.FOOT_MARGIN}
    del config["seed"]
    manifest = _manifest(args, started, config, seed=cfg.seed)
    _emit(args, manifest, {"search": report.to_report_dict()})
    if cfg.mode is SearchMode.UNCONSTRAINED:
        return 0 if report.violations else 1
    return 0


def cmd_table(args, started: float) -> int:
    if not 2 <= args.density <= MAX_DENSITY:
        raise _UsageError(
            f"--density must lie in [2, {MAX_DENSITY}], got {args.density}")
    points = _grid_values(Target.MAIN_MEDIAN, 0.0, 1.0, args.density)
    lines = ["x,y,F"]
    lines += [f"{x!r},{y!r},{f!r}" for x, y, f in zip(*(v.tolist() for v in points))]
    csv_text = "\n".join(lines) + "\n"

    manifest = _manifest(args, started, {"density": args.density})
    manifest_text = canonical_json(manifest.to_dict())
    if args.output:
        _write(args.output, csv_text)
        _write(args.output + ".manifest.json", manifest_text)
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(manifest_text)
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "certify": cmd_certify,
    "search": cmd_search,
    "table": cmd_table,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return _HANDLERS[args.command](args, started)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CevianError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
