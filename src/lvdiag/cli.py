"""Command-line entry points.

``lvdiag run`` integrates one case, samples one approximation scheme next to
the adaptive reference, and writes the comparison as CSV tables, a JSON
diagnostics report and optionally an SVG phase portrait.  ``lvdiag verify``
re-runs the library's headline claims as a pass/fail table.

Exit codes: 0 success, 1 verification failure, 2 bad arguments, 3 numeric
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .diagnostics import (
    _closes,
    _compare_with_reference,
    _reference,
    conservation_drift,
    divergence_time,
    self_intersection,
)
from .exceptions import IntegrationError, UnknownPresetError
from .integrate import IntegratorConfig, solve
from .methods import MethodKind, method_series, methods_agree
from .model import ModelParams, PopulationState
from .output import report_payload, write_csv_tables, write_phase_svg, write_report_json
from .presets import preset, preset_names
from .series import InitialValueProblem, sample_series

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_DEFAULT_SWEEP = (4, 8, 12, 16, 20)
_EQUIV_TOL = 1e-12
# Coefficients of the large-population case grow so fast that the highest
# orders lose two more digits to rounding.
_EQUIV_TOL_LOOSE = 1e-10
_CONSERVATION_BOUND = 1e-8
_DRIFT_RATIO_FLOOR = 1e3

_CUSTOM_FLAGS = ("a", "b", "c", "d", "x0", "y0")


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0.0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {value}")
    return value


def _order_list(text):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"orders must be non-negative integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvdiag",
        description="Series approximations of prey-predator dynamics and their failure modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = cmd = sub.add_parser("run", help="compare one scheme against the reference and write reports")
    cmd.add_argument("--preset", help=f"named case ({', '.join(preset_names())})")
    group = cmd.add_argument_group("custom problem (all six required together)")
    group.add_argument("--a", type=_positive_float, help="prey growth rate")
    group.add_argument("--b", type=float, help="predation rate (>= 0)")
    group.add_argument("--c", type=_positive_float, help="predator decay rate")
    group.add_argument("--d", type=float, help="conversion rate (>= 0)")
    group.add_argument("--x0", type=_positive_float, help="initial prey population (> 0)")
    group.add_argument("--y0", type=_positive_float, help="initial predator population (> 0)")
    cmd.add_argument(
        "--method",
        choices=[m.value for m in MethodKind],
        default=MethodKind.TAYLOR.value,
        help="approximation scheme (default: taylor)",
    )
    cmd.add_argument(
        "--order", type=_nonnegative_int, help="truncation order (default: the preset's, 5 for custom)"
    )
    cmd.add_argument("--t-end", type=_positive_float, help="report horizon (default: preset's)")
    cmd.add_argument("--points", type=_nonnegative_int, default=2001, help="grid samples (default: 2001)")
    cmd.add_argument("--rel-tol", type=_positive_float, default=1e-10, help="reference relative tolerance")
    cmd.add_argument("--abs-tol", type=_positive_float, default=1e-12, help="reference absolute tolerance")
    cmd.add_argument("--delta", type=_positive_float, default=1.0, help="divergence threshold (default: 1)")
    cmd.add_argument(
        "--format",
        choices=("csv", "json", "svg", "all"),
        default="csv",
        help="outputs next to the always-written JSON report (default: csv)",
    )
    cmd.add_argument("--out", default=".", help="output directory (default: current)")
    run.set_defaults(handler=cmd_run)

    verify = sub.add_parser("verify", help="re-run the library's headline claims")
    verify.add_argument(
        "--orders",
        type=_order_list,
        default=_DEFAULT_SWEEP,
        help="comma-separated truncation orders for the divergence sweep",
    )
    verify.set_defaults(handler=cmd_verify)
    return parser


def _resolve_problem(args):
    """Preset or fully custom parameters; returns (label, params, initial, order, t_end)."""
    custom = [flag for flag in _CUSTOM_FLAGS if getattr(args, flag) is not None]
    if args.preset is not None and custom:
        raise ValueError(f"--preset conflicts with --{'/--'.join(custom)}")
    if args.preset is not None:
        case = preset(args.preset)
        order = case.default_order if args.order is None else args.order
        t_end = case.default_t_end if args.t_end is None else args.t_end
        return case.name, case.params, case.initial, order, t_end
    if len(custom) == len(_CUSTOM_FLAGS):
        params = ModelParams(args.a, args.b, args.c, args.d)
        initial = PopulationState(args.x0, args.y0)
        order = 5 if args.order is None else args.order
        t_end = 10.0 if args.t_end is None else args.t_end
        return "custom", params, initial, order, t_end
    missing = [f"--{flag}" for flag in _CUSTOM_FLAGS if getattr(args, flag) is None]
    raise ValueError(
        "give either --preset or all of --a/--b/--c/--d/--x0/--y0 (missing: "
        + ", ".join(missing)
        + ")"
    )


def cmd_run(args) -> int:
    label, params, initial, order, t_end = _resolve_problem(args)
    method = MethodKind(args.method)
    cfg = IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    ivp = InitialValueProblem(params, initial, t_end)
    report, reference, approx = _compare_with_reference(
        ivp, method, order, t_end=t_end, points=args.points, cfg=cfg, delta=args.delta
    )

    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, f"{label}_{method.value}_order{order}")
    written = []
    if args.format in ("csv", "all"):
        write_csv_tables(base + "_timeseries.csv", base + "_phase.csv", reference, approx, params)
        written += [base + "_timeseries.csv", base + "_phase.csv"]
    write_report_json(base + "_report.json", report_payload(label, t_end, report))
    written.append(base + "_report.json")
    if args.format in ("svg", "all"):
        write_phase_svg(base + "_phase.svg", reference, approx, report.self_intersection)
        written.append(base + "_phase.svg")
    for path in written:
        print(path)
    return EXIT_OK


def _check_equivalence(results):
    for name in ("case-I", "case-V"):
        case = preset(name)
        ivp = InitialValueProblem(case.params, case.initial, case.default_t_end)
        worst = 0.0
        ok = True
        for order in range(1, 21):
            tol = _EQUIV_TOL_LOOSE if name == "case-I" and order > 15 else _EQUIV_TOL
            agreement = methods_agree(ivp, order)
            worst = max(worst, agreement.worst())
            if agreement.worst() > tol:
                ok = False
        results.append(
            (f"{name}: adomian/hpm/vim reproduce the series (orders 1-20)", ok, f"worst {worst:.3e}")
        )


def _check_conservation(results, passes):
    for name, horizon in (("case-I", 10.0), ("case-V", 50.0)):
        traj = passes[name].sample(np.linspace(0.0, horizon, 5001))
        drift = conservation_drift(traj, preset(name).params)
        results.append(
            (
                f"{name}: reference invariant drift on [0, {horizon:g}] below {_CONSERVATION_BOUND:g}",
                drift <= _CONSERVATION_BOUND,
                f"drift {drift:.3e}",
            )
        )


def _check_closure(results, solution):
    period = solution.period
    if period is None:
        raise IntegrationError("case-V: no return to the start section")
    closed = _closes(solution.sample, period)
    results.append(("case-V: reference orbit returns within 1e-6", closed, f"period {period:.9f}"))
    crossing = self_intersection(solution.sample(np.linspace(0.0, period, 2001)))
    results.append(
        (
            "case-V: reference orbit stays simple over one period",
            crossing is None,
            "no crossing" if crossing is None else f"crossing at segments ({crossing.i}, {crossing.j})",
        )
    )


def _check_divergence(results, passes, orders):
    for name in ("case-I", "case-V"):
        case = preset(name)
        window = InitialValueProblem(case.params, case.initial, 10.0)
        grid = np.linspace(0.0, 10.0, 2001)
        reference = passes[name].sample(grid)
        ok = True
        details = []
        for order in orders:
            approx = sample_series(method_series(window, MethodKind.TAYLOR, order), grid)
            t_div = divergence_time(approx, reference, 1.0)
            details.append("none" if t_div is None else f"{t_div:.3f}")
            if t_div is None or not t_div < 10.0:
                ok = False
        results.append(
            (
                f"{name}: taylor orders {','.join(map(str, orders))} diverge before t=10",
                ok,
                "t_div " + "/".join(details),
            )
        )


def _check_self_crossing(results, cfg):
    case = preset("case-V")
    window = InitialValueProblem(case.params, case.initial, 10.0)
    grid = np.linspace(0.0, 10.0, 2001)
    approx = sample_series(method_series(window, MethodKind.TAYLOR, case.default_order), grid)
    crossing = self_intersection(approx)
    results.append(
        (
            f"case-V: order-{case.default_order} series phase curve crosses itself",
            crossing is not None,
            "no crossing" if crossing is None else f"segments ({crossing.i}, {crossing.j})",
        )
    )
    short = InitialValueProblem(case.params, case.initial, 3.0)
    grid3 = np.linspace(0.0, 3.0, 601)
    ref3 = solve(short, cfg).sample(grid3)
    approx3 = sample_series(method_series(short, MethodKind.TAYLOR, case.default_order), grid3)
    ref_drift = conservation_drift(ref3, case.params)
    approx_drift = conservation_drift(approx3, case.params)
    ratio = math.inf if ref_drift == 0.0 else approx_drift / ref_drift
    results.append(
        (
            "case-V: series invariant drift dwarfs the reference on [0, 3]",
            ratio > _DRIFT_RATIO_FLOOR,
            f"ratio {ratio:.3e}",
        )
    )


def _verification_groups(orders):
    """Run the checks group by group; yield (group, elapsed seconds, result triples).

    The first group, "reference", is the two integration passes that the
    conservation, closure and divergence checks share; it has no results.
    """
    start = time.perf_counter()
    cfg = IntegratorConfig()
    case_i, case_v = preset("case-I"), preset("case-V")
    # One pass per preset serves its drift, closure and divergence checks:
    # case-I's over [0, 10], case-V's over [0, 50] and on past 1.2 periods.
    passes = {
        "case-I": solve(InitialValueProblem(case_i.params, case_i.initial, 10.0), cfg),
        "case-V": _reference(InitialValueProblem(case_v.params, case_v.initial, 10.0), cfg, 50.0),
    }
    yield "reference", time.perf_counter() - start, []
    groups = (
        ("equivalence", _check_equivalence),
        ("conservation", lambda results: _check_conservation(results, passes)),
        ("closure", lambda results: _check_closure(results, passes["case-V"])),
        ("divergence", lambda results: _check_divergence(results, passes, orders)),
        ("self-crossing", lambda results: _check_self_crossing(results, cfg)),
    )
    for group, check in groups:
        start = time.perf_counter()
        results = []
        check(results)
        yield group, time.perf_counter() - start, results


def cmd_verify(args) -> int:
    # Timings go to stderr, so stdout stays identical from run to run.
    results = []
    for group, seconds, triples in _verification_groups(args.orders):
        print(f"verify: {group} {seconds * 1e3:.1f} ms", file=sys.stderr)
        results.extend(triples)
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
    except UnknownPresetError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
