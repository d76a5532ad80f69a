"""Command-line interface: verify, certify, search, and table subcommands.

Exit codes follow a fixed contract.  verify: 0 all slacks pass, 1 some
slack fails, 2 invalid input.  certify: 0 empty undecided set, 1 undecided
boxes remain (also when the box budget runs out), 2 bad arguments.
search: unconstrained mode exits 0 iff a re-verified violation was found,
open-problem mode always exits 0 (2 on bad arguments, among them a
--record-top outside [1, 4,096]; refinement holds about 9 KB per recorded
candidate).  table: 0, or 2 on bad density (below 2 or above 4,096, whose
grid arrays take about 134 MB each).  Every subcommand exits 2 when its -o
output cannot be written.
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

import numpy as np

from . import bulk
from .certifier import CertificationTask, Target, certify, corner_argument_check, point_values
from .exceptions import CevianError
from .inequalities import (
    bisector_ratio_slack,
    bisector_sqrt_chain_slack,
    key_system_residuals,
    lemma_scalene_slack,
    open_problem_slacks,
    ordering_products,
    slack_main,
    slack_quadratic,
    tolerance_scale,
)
from .kernel import (
    GeneralCevianParams,
    MixedWeights,
    SideTriple,
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
from .search import (
    FOOT_MARGIN,
    MAX_RECORD_TOP,
    SearchConfig,
    SearchMode,
    constraint_filter,
    search,
)

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


def _emit(doc: dict, output: str | None) -> None:
    text = canonical_json(doc)
    if output:
        _write(output, text)
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
    v.add_argument("--normalized", help="normalized pair x,y (implies c = 1)")
    v.add_argument(
        "--cevians",
        required=True,
        choices=["median", "altitude", "bisector", "mixed", "general"],
        help="which Cevian family to evaluate",
    )
    v.add_argument("--weights", help="alpha,beta,gamma for --cevians mixed (default 1,1,1)")
    v.add_argument("--feet", help="ta,tb,tc in (0,1) for --cevians general")
    v.add_argument(
        "--tolerance",
        type=float,
        default=1e-12,
        help="slack tolerance, scaled by the c*lc normalizer (default 1e-12)",
    )
    v.add_argument("-o", "--output", help="write the JSON report to this path")

    c = sub.add_parser("certify", allow_abbrev=False,
                       help="rigorous branch-and-bound certification")
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
                   help="shard worker threads, at most one per core and per "
                        "shard; results are identical for any count")
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
    return validate_sides(x, y, 1.0), {"normalized": [x, y]}


def cmd_verify(args, started: float) -> int:
    if not (0.0 <= args.tolerance < math.inf):
        raise _UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    t, input_echo = _build_triangle(args)

    weights = None
    feet = None
    if args.cevians == "mixed":
        wa, wb, wc = _parse_floats(args.weights or "1,1,1", 3, "--weights")
        try:
            weights = MixedWeights(wa, wb, wc)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        cv = mixed_cevians(t, weights)
    elif args.cevians == "general":
        if not args.feet:
            raise _UsageError("--cevians general requires --feet ta,tb,tc")
        fa, fb, fc = _parse_floats(args.feet, 3, "--feet")
        feet = GeneralCevianParams(fa, fb, fc)
        cv = general_cevians(t, feet)
    elif args.cevians == "median":
        cv = medians(t)
    elif args.cevians == "altitude":
        cv = altitudes(t)
    else:
        cv = bisectors(t)

    slacks: dict[str, float] = {}
    checks: dict[str, bool] = {}
    if args.cevians == "general":
        s1, s2 = open_problem_slacks(t, cv)
        slacks[s1.name] = s1.value
        slacks[s2.name] = s2.value
        checks["open_problem_constraints"] = constraint_filter(t, cv)
    else:
        slacks["main"] = slack_main(t, cv).value
        slacks["quadratic"] = slack_quadratic(t, cv).value
    if args.cevians in ("median", "bisector"):
        prods = ordering_products(t, cv)
        slacks["middle_dominance"] = prods.product_b - max(
            prods.product_a, prods.product_c
        )
        checks["middle_dominant"] = prods.middle_dominant
    if args.cevians == "median":
        for rep in key_system_residuals(t, cv):
            slacks[rep.name] = rep.value
        if t.a < t.b < t.c:
            slacks["scalene_lemma"] = lemma_scalene_slack(t, cv).value
    if args.cevians == "bisector":
        slacks["bisector_ratio"] = bisector_ratio_slack(t).value
        slacks["bisector_sqrt_chain"] = bisector_sqrt_chain_slack(t).value

    scale = tolerance_scale(t, cv)
    threshold = -args.tolerance * scale
    all_ok = all(v >= threshold for v in slacks.values())

    config = {
        "cevians": args.cevians,
        "tolerance": args.tolerance,
        "weights": [weights.alpha, weights.beta, weights.gamma] if weights else None,
        "feet": list(feet.as_tuple()) if feet else None,
    }
    manifest = RunManifest(
        subcommand="verify",
        version=TOOL_VERSION,
        seed=None,
        config=config,
        inputs=input_echo,
        wall_time_s=time.perf_counter() - started,
    )
    body = {
        "triangle": {"a": t.a, "b": t.b, "c": t.c},
        "cevian_lengths": list(cv.as_tuple()),
        "slacks": slacks,
        "checks": checks,
        "scale": scale,
        "threshold": threshold,
        "all_nonnegative": all_ok,
    }
    _emit(report_document(manifest, body), args.output)
    return 0 if all_ok else 1


def _grid_values(target: Target, axis: np.ndarray):
    """x, y and target value of each domain point of the grid axis x axis, x-major."""
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    mask = bulk.in_normalized_domain(gx, gy)
    x, y = gx[mask], gy[mask]
    return x, y, point_values(target, x, y)


def _corner_sampling(target: Target, delta: float) -> dict:
    """Dense binary64 sampling of the corner interior [1-delta, 1]^2.

    Evidence only: a sampled minimum proves nothing between the samples.
    """
    _, _, values = _grid_values(target, np.linspace(1.0 - delta, 1.0, 129))  # 128 steps
    tol = -1e-12
    return {
        "points": values.size,
        "min_value": float(values.min()),
        "tolerance": tol,
        "pass": bool((values >= tol).all()),
    }


def cmd_certify(args, started: float) -> int:
    try:
        task = CertificationTask(
            target=Target(args.target),
            mu=args.mu,
            delta=args.delta,
            max_depth=args.max_depth,
            min_box_width=args.min_box_width,
            box_budget=args.box_budget,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    cert = certify(task)

    body = {"certificate": cert.to_report_dict(include_proven=args.include_proven)}
    if task.delta > 0.0:
        if task.target is Target.MAIN_MEDIAN:
            body["corner_check"] = corner_argument_check(task.delta).to_report_dict()
        body["corner_sampling"] = _corner_sampling(task.target, task.delta)

    manifest = RunManifest(
        subcommand="certify",
        version=TOOL_VERSION,
        seed=None,
        config={**dataclasses.asdict(task), "target": task.target.value},
        inputs={},
        wall_time_s=time.perf_counter() - started,
    )
    _emit(report_document(manifest, body), args.output)
    return 0 if cert.undecided_count == 0 else 1


def cmd_search(args, started: float) -> int:
    seed = _resolve_seed(args.seed)
    try:
        cfg = SearchConfig(
            seed=seed,
            samples=args.samples,
            mode=SearchMode(args.mode),
            refine_steps=args.refine_steps,
            record_top=args.record_top,
            workers=args.workers,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    report = search(cfg)
    manifest = RunManifest(
        subcommand="search",
        version=TOOL_VERSION,
        seed=seed,
        config={
            "mode": cfg.mode.value,
            "samples": cfg.samples,
            "refine_steps": cfg.refine_steps,
            "record_top": cfg.record_top,
            "workers": cfg.workers,
            "foot_margin": FOOT_MARGIN,
        },
        inputs={},
        wall_time_s=time.perf_counter() - started,
    )
    _emit(report_document(manifest, {"search": report.to_report_dict()}), args.output)
    if cfg.mode is SearchMode.UNCONSTRAINED:
        return 0 if report.violations else 1
    return 0


def cmd_table(args, started: float) -> int:
    if not 2 <= args.density <= MAX_DENSITY:
        raise _UsageError(
            f"--density must lie in [2, {MAX_DENSITY}], got {args.density}")
    points = _grid_values(Target.MAIN_MEDIAN, np.linspace(0.0, 1.0, args.density))
    lines = ["x,y,F"]
    lines += [f"{x!r},{y!r},{f!r}" for x, y, f in zip(*(v.tolist() for v in points))]
    csv_text = "\n".join(lines) + "\n"

    manifest = RunManifest(
        subcommand="table",
        version=TOOL_VERSION,
        seed=None,
        config={"density": args.density},
        inputs={},
        wall_time_s=time.perf_counter() - started,
    )
    if args.output:
        _write(args.output, csv_text)
        _write(args.output + ".manifest.json", canonical_json(manifest.to_dict()))
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(canonical_json(manifest.to_dict()))
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
