"""Batch command-line interface.

Subcommands: check, invert, sweep, counterexample, demo.  Problem files
are JSON (see serialization), signals travel as two-column CSV, stdout is
machine readable and diagnostics go to stderr.  Exit codes: 0 success /
admissible, 1 malformed input or an unwritable output, 2 hypothesis or
admissibility failure, 3 singular resolvent or transfer function,
4 numerical failure (a subproblem too ill conditioned to trust, e.g. a
plan that fails its identity check, as a multiple zero of f does).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import demos
from .errors import (
    ConditioningError,
    ConstructionError,
    HypothesisError,
    MalformedSpecError,
    ResolvinvError,
    SeparationError,
    SingularOperatorError,
    SingularResolventError,
)
from .geometry import PositiveHalfLine, UnitCircle
from .operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    apply_plan,
    convolution_series,
    solve_convolution,
    solve_filter,
    volterra_kernel,
)
from .rational import checked_plan, filter_to_series
from .regularize import convergence_sweep
from .serialization import (
    _pair,
    load_problem,
    read_signal,
    series_to_json,
    write_signal,
    write_sweep_csv,
)
from .series import caratheodory_zero_series, check_admissible, evaluate

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INADMISSIBLE = 2
EXIT_SINGULAR = 3
EXIT_NUMERICAL = 4

# error class -> exit code, first match wins: InvalidInputError is a
# MalformedSpecError, RepeatedPoleError a HypothesisError
EXIT_CODES = (
    (MalformedSpecError, EXIT_MALFORMED),
    ((HypothesisError, SeparationError, ConstructionError,
      SingularOperatorError), EXIT_INADMISSIBLE),
    (SingularResolventError, EXIT_SINGULAR),
    (ConditioningError, EXIT_NUMERICAL),
    # an OSError here is an output file or directory that cannot be made
    ((ResolvinvError, OSError), EXIT_MALFORMED),
)


def _problem_solver(problem):
    """Series, spectrum and plan-only ``solve(plan, y)`` of a decoded
    problem, ``None`` for the kinds ``invert`` refuses; any grid or matrix
    is built here, for ``check`` too, its eigenvalues computed once."""
    kind = problem["kind"]
    if kind == "series":
        return problem["series"], problem["spectrum"], None
    if kind == "filter":
        return filter_to_series(problem["spec"]), UnitCircle(), solve_filter
    if kind == "convolution":
        return (convolution_series(problem["terms"]), PositiveHalfLine(),
                lambda plan, y: solve_convolution(plan, y, problem["period"]))
    if kind == "integral":
        series = volterra_kernel(problem["series"])
        A = GridDerivativeOperator(*problem["grid"])
    else:
        series = problem["series"]
        A = DenseMatrixOperator(problem["matrix"])
    solve = None if kind == "sweep" else (
        lambda plan, y: apply_plan(plan, A, y))
    return series, A.spectrum(), solve


def _report_json(report) -> dict:
    return {
        "theorem_mode_ok": report.theorem_mode_ok,
        "hull_vertices": [_pair(v) for v in report.hull.vertices],
        "separation_ok": report.separation_ok,
        "separation_distance": report.separation_distance,
        "summability_value": report.summability_value,
        "per_term": [
            {"a": _pair(t.coefficient), "alpha": _pair(t.pole),
             "distance": t.spectrum_distance, "summand": t.summand}
            for t in report.per_term
        ],
    }


def cmd_check(args) -> int:
    problem = load_problem(args.problem)
    series, spectrum, _ = _problem_solver(problem)
    margin = args.margin if args.margin is not None else problem["margin"]
    report = check_admissible(series, spectrum, margin)
    print(json.dumps(_report_json(report), sort_keys=True))
    return EXIT_OK if report.rejection() is None else EXIT_INADMISSIBLE


def _plan_summary(plan) -> str:
    poles = ", ".join(format(p, ".12g") for p in plan.zeros)
    return (f"plan: gamma={plan.gamma:.12g} beta={plan.beta:.12g} "
            f"remainder poles: [{poles}]")


def cmd_invert(args) -> int:
    problem = load_problem(args.problem)
    if args.input is None or args.output is None:
        raise MalformedSpecError("invert needs --input and --output")
    y = read_signal(args.input)
    kind = problem["kind"]
    series, spectrum, solve = _problem_solver(problem)
    if solve is None:
        raise MalformedSpecError(f"cannot invert problem kind {kind!r}")
    margin = args.margin if args.margin is not None else problem["margin"]
    plan = checked_plan(series, spectrum, margin)
    print(_plan_summary(plan), file=sys.stderr)
    x = solve(plan, y)
    if kind == "integral":
        print(f"boundary residual |y(L)| = {abs(y[-1]):.6g}", file=sys.stderr)
    write_signal(args.output, x)
    print(json.dumps({"kind": kind, "samples": int(x.size),
                      "output": str(args.output)}, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    problem = load_problem(args.problem)
    if problem["kind"] != "sweep":
        raise MalformedSpecError('sweep needs a "sweep" problem file')
    if args.input is None or args.output is None:
        raise MalformedSpecError("sweep needs --input and --output")
    x_true = read_signal(args.input)
    series = problem["series"]
    A = DenseMatrixOperator(problem["matrix"])
    plan = checked_plan(series, A.spectrum(), problem["margin"])
    report = convergence_sweep(series, plan, A, x_true,
                               problem["regularizer"])
    write_sweep_csv(args.output, report)
    print(json.dumps({"improved": report.improved,
                      "records": len(report.records),
                      "output": str(args.output)}, sort_keys=True))
    return EXIT_OK if report.improved else EXIT_INADMISSIBLE


def cmd_counterexample(args) -> int:
    try:
        poles = [complex(s) for s in args.poles]
        target = complex(args.target)
    except ValueError as exc:
        raise MalformedSpecError(f"bad complex literal: {exc}") from exc
    series = caratheodory_zero_series(poles, target)
    value = evaluate(series, target)
    out = series_to_json(series)
    out["f_at_target"] = _pair(value)
    out["abs_f_at_target"] = abs(value)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_demo(args) -> int:
    written = demos.write_demo_files(Path(args.output_dir))
    print(json.dumps({"files": sorted(p.name for p in written),
                      "directory": str(args.output_dir)}, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvinv",
        description="Left inversion of resolvent-series operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def margin(p):
        p.add_argument("--margin", type=float, default=None,
                       help="required hull/spectrum separation")

    p = sub.add_parser("check", help="admissibility report for a problem")
    p.add_argument("problem")
    margin(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invert", help="solve the first-kind problem")
    p.add_argument("problem")
    p.add_argument("--input", help="signal/vector to invert (CSV or JSON)")
    p.add_argument("--output", help="where to write the solution CSV")
    margin(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("sweep", help="regularization convergence sweep")
    p.add_argument("problem")
    p.add_argument("--input", help="true solution vector")
    p.add_argument("--output", help="sweep report CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("counterexample",
                       help="series vanishing inside its pole hull")
    p.add_argument("poles", nargs="+",
                   help="pole list as complex literals, e.g. 1+2j")
    p.add_argument("--target", required=True,
                   help="interior point where the series must vanish")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("demo", help="write demo problem files")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("RESOLVENT_INV_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResolvinvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
