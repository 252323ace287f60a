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
import dataclasses
import functools
import math
import os
import sys
import time

import numpy as np

from .diagnostics import (
    _closes,
    _compare_with_reference,
    _named_overflow,
    conservation_drift,
    divergence_time,
    self_intersection,
)
from .exceptions import IntegrationError, NonFiniteError
from .integrate import IntegratorConfig, solve
from .methods import MethodKind, method_series, methods_agree
from .model import ModelParams, PopulationState
from .output import write_csv_tables, write_phase_svg, write_report_json
from .presets import preset, preset_names
from .series import InitialValueProblem, SeriesSolution, sample_series

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Default truncation order 5: the lowest order whose phase curve both leaves
# the true orbit inside the default window and crosses itself there, so the
# default report exhibits every failure mode the diagnostics measure.
_DEFAULT_ORDER = 5
_DEFAULT_SWEEP = (4, 8, 12, 16, 20)
_EQUIV_TOP_ORDER = 20
_EQUIV_TOL = 1e-12
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

    run = sub.add_parser("run", help="compare one scheme against the reference and write reports")
    run.add_argument("--preset", help=f"named case ({', '.join(preset_names())})")
    group = run.add_argument_group("custom problem (all six required together)")
    group.add_argument("--a", type=_positive_float, help="prey growth rate")
    group.add_argument("--b", type=float, help="predation rate (>= 0)")
    group.add_argument("--c", type=_positive_float, help="predator decay rate")
    group.add_argument("--d", type=float, help="conversion rate (>= 0)")
    group.add_argument("--x0", type=_positive_float, help="initial prey population (> 0)")
    group.add_argument("--y0", type=_positive_float, help="initial predator population (> 0)")
    run.add_argument(
        "--method",
        choices=[m.value for m in MethodKind],
        default=MethodKind.TAYLOR.value,
        help="approximation scheme (default: taylor)",
    )
    run.add_argument(
        "--order",
        type=_nonnegative_int,
        help=f"truncation order (default: {_DEFAULT_ORDER}); taylor, adomian and hpm cost O(order^2) time, "
        "vim O(order^3)",
    )
    run.add_argument(
        "--t-end", type=_positive_float, help="report horizon (default: the preset's, 10 for custom)"
    )
    run.add_argument(
        "--points", type=_nonnegative_int, default=2001,
        help="grid samples (default: 2001); the self-crossing scan costs O(points^2) at worst",
    )
    run.add_argument("--rel-tol", type=_positive_float, help="reference relative tolerance")
    run.add_argument("--abs-tol", type=_positive_float, help="reference absolute tolerance")
    run.add_argument("--delta", type=_positive_float, default=1.0, help="divergence threshold (default: 1)")
    run.add_argument(
        "--format",
        choices=("csv", "json", "svg", "all"),
        default="csv",
        help="outputs next to the always-written JSON report (default: csv)",
    )
    run.add_argument("--out", default=".", help="output directory (default: current)")
    run.set_defaults(handler=cmd_run, rel_tol=IntegratorConfig.rel_tol, abs_tol=IntegratorConfig.abs_tol)

    verify = sub.add_parser("verify", help="re-run the library's headline claims")
    verify.add_argument(
        "--orders",
        type=_order_list,
        default=_DEFAULT_SWEEP,
        help="comma-separated truncation orders for the divergence sweep",
    )
    verify.set_defaults(handler=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on the first call and shared by the later ones.

    Parsing leaves the parser as it was, since each call fills a fresh
    namespace, so a process that calls ``main`` many times (the tests, the
    benchmark, a scripted sweep) builds the tree once.  ``build_parser``
    still returns a new parser for callers that change theirs.
    """
    return build_parser()


def _resolve_problem(args):
    """Preset or fully custom parameters; returns (label, problem, order)."""
    custom = [flag for flag in _CUSTOM_FLAGS if getattr(args, flag) is not None]
    if args.preset is not None and custom:
        raise ValueError(f"--preset conflicts with --{'/--'.join(custom)}")
    if args.preset is not None:
        label, ivp = args.preset, preset(args.preset)
    elif len(custom) == len(_CUSTOM_FLAGS):
        params = ModelParams(args.a, args.b, args.c, args.d)
        label, ivp = "custom", InitialValueProblem(params, PopulationState(args.x0, args.y0), 10.0)
    else:
        missing = [f"--{flag}" for flag in _CUSTOM_FLAGS if getattr(args, flag) is None]
        raise ValueError(
            "give either --preset or all of --a/--b/--c/--d/--x0/--y0 (missing: "
            + ", ".join(missing)
            + ")"
        )
    if args.t_end is not None:
        ivp = dataclasses.replace(ivp, t_end=args.t_end)
    return label, ivp, _DEFAULT_ORDER if args.order is None else args.order


def cmd_run(args) -> int:
    label, ivp, order = _resolve_problem(args)
    method = MethodKind(args.method)
    cfg = IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    report, reference, approx, c_ref, c_approx = _compare_with_reference(
        ivp, method, order, points=args.points, cfg=cfg, delta=args.delta
    )

    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, f"{label}_{method.value}_order{order}")
    written = []
    if args.format in ("csv", "all"):
        write_csv_tables(base + "_timeseries.csv", base + "_phase.csv", reference, approx, c_ref, c_approx)
        written += [base + "_timeseries.csv", base + "_phase.csv"]
    write_report_json(base + "_report.json", label, ivp.t_end, report)
    written.append(base + "_report.json")
    if args.format in ("svg", "all"):
        write_phase_svg(base + "_phase.svg", reference, approx, report.self_intersection)
        written.append(base + "_phase.svg")
    for path in written:
        print(path)
    return EXIT_OK


def _check_equivalence():
    for name in ("case-I", "case-V"):
        # np.max, unlike the builtin, keeps a NaN deviation, which then fails the row.
        worst = float(np.max([r.worst() for r in methods_agree(preset(name), _EQUIV_TOP_ORDER)[1:]]))
        yield (
            f"{name}: adomian/hpm/vim reproduce the series (orders 1-{_EQUIV_TOP_ORDER})",
            worst <= _EQUIV_TOL,
            f"worst {worst:.3e}",
        )


def _check_conservation(passes):
    for name, (ivp, solution) in passes.items():
        traj = solution.sample(np.linspace(0.0, ivp.t_end, 5001))
        drift = conservation_drift(traj, ivp.params)
        yield (
            f"{name}: reference invariant drift on [0, {ivp.t_end:g}] below {_CONSERVATION_BOUND:g}",
            drift <= _CONSERVATION_BOUND,
            f"drift {drift:.3e}",
        )


def _check_closure(solution):
    period = solution.period
    if period is None:
        raise IntegrationError("case-V: no return to the start section")
    closed = _closes(solution.sample, period)
    yield "case-V: reference orbit returns within 1e-6", closed, f"period {period:.9f}"
    crossing = self_intersection(solution.sample(np.linspace(0.0, period, 2001)))
    yield (
        "case-V: reference orbit stays simple over one period",
        crossing is None,
        "no crossing" if crossing is None else f"crossing at segments ({crossing.i}, {crossing.j})",
    )


def _overflow_free(series, t_max):
    """Whether ``sample_series`` can overflow nowhere on [0, t_max], judged from the coefficients.

    B = sum_k max(|X_k|, |Y_k|) * max(1, t_max)**k is summed by Horner in
    floats (a Taylor pair has equal lengths).  Every term is non-negative,
    so the computed B is at least the exact sum over (1 + 2**-53)**(2n + 2)
    for degree n.  At 0 <= t <= t_max each intermediate acc*t + c of the
    sampling Horner is at most sum_{i>=j} |c_i| * t**(i-j) * (1 + 2**-53)**(2n + 2),
    and t**(i-j) <= max(1, t_max)**i, so it is at most the computed B times
    (1 + 2**-53)**(4n + 4).  That factor stays below 1.7e8, the largest
    double over 1e300, for any degree below 4e16, so B < 1e300 certifies
    that no sample overflows.  A B that overflows is inf and certifies
    nothing.
    """
    scale = max(1.0, t_max)
    bound = 0.0
    for c in np.maximum(np.abs(series.x_coeffs), np.abs(series.y_coeffs))[::-1].tolist():
        bound = bound * scale + c
    return bound < 1e300


def _check_divergence(passes, orders):
    t_end = 10.0
    grid = np.linspace(0.0, t_end, 2001)
    head = grid[:256]
    # A series is read on the head, the first 256 grid points, where every
    # order from 1 to 150 departs on both presets, when it is certified:
    # B = sum_k max(|X_k|, |Y_k|) * 10**k < 1e300 bounds every Horner
    # intermediate on [0, 10] up to a rounding factor below 1.7e8, so no later
    # sample can overflow (``_overflow_free``).  A series that has not departed
    # there, or is not certified, is read on the whole grid, so an overflow
    # anywhere on it still names its first time.  A sub-grid samples the full
    # grid's bits, both from the series and from the reference, so every row
    # keeps them.
    #
    # Each preset's series is built once, to the highest order, and order k
    # read as its first k + 1 coefficients: the recurrence computes each
    # coefficient from the lower ones only, so that prefix has the bits of a
    # build to k.  Where the one build overflows, each order is built on its
    # own, so the error names the first order, in list order, that overflows.
    for name, (ivp, solution) in passes.items():
        head_reference = solution.sample(head)
        reference = None  # this preset's whole-grid reference, sampled when first needed
        ok = True
        details = []
        try:
            full = method_series(ivp, MethodKind.TAYLOR, max(orders))
        except NonFiniteError:
            full = None
        for order in orders:
            t_div = None
            with _named_overflow(f"{name}: taylor order {order}"):
                if full is None:
                    series = method_series(ivp, MethodKind.TAYLOR, order)
                else:
                    series = SeriesSolution(full.x_coeffs[: order + 1], full.y_coeffs[: order + 1])
                if _overflow_free(series, t_end):
                    t_div = divergence_time(sample_series(series, head), head_reference, 1.0)
                if t_div is None:
                    if reference is None:
                        reference = solution.sample(grid)
                    t_div = divergence_time(sample_series(series, grid), reference, 1.0)
            details.append("none" if t_div is None else f"{t_div:.3f}")
            if t_div is None or not t_div < 10.0:
                ok = False
        yield (
            f"{name}: taylor orders {','.join(map(str, orders))} diverge before t=10",
            ok,
            "t_div " + "/".join(details),
        )


def _check_self_crossing():
    short = dataclasses.replace(preset("case-V"), t_end=3.0)
    series = method_series(short, MethodKind.TAYLOR, _DEFAULT_ORDER)
    crossing = self_intersection(sample_series(series, np.linspace(0.0, 10.0, 2001)))
    yield (
        f"case-V: order-{_DEFAULT_ORDER} series phase curve crosses itself",
        crossing is not None,
        "no crossing" if crossing is None else f"segments ({crossing.i}, {crossing.j})",
    )
    grid3 = np.linspace(0.0, 3.0, 601)
    ref3 = solve(short).sample(grid3)
    approx3 = sample_series(series, grid3)
    ref_drift = conservation_drift(ref3, short.params)
    approx_drift = conservation_drift(approx3, short.params)
    ratio = math.inf if ref_drift == 0.0 else approx_drift / ref_drift
    yield (
        "case-V: series invariant drift dwarfs the reference on [0, 3]",
        ratio > _DRIFT_RATIO_FLOOR,
        f"ratio {ratio:.3e}",
    )


def _verification_groups(orders):
    """Run the checks group by group; yield (group, elapsed seconds, result rows).

    The first group, "reference", is the two integration passes that the
    conservation, closure and divergence checks share; it has no rows.
    """
    start = time.perf_counter()
    # One pass per preset serves its drift, closure and divergence checks:
    # case-I's over [0, 10], case-V's over [0, 50] and on past 1.2 periods.
    long_i = dataclasses.replace(preset("case-I"), t_end=10.0)
    long_v = dataclasses.replace(preset("case-V"), t_end=50.0)
    passes = {"case-I": (long_i, solve(long_i)), "case-V": (long_v, solve(long_v, find_period=True))}
    yield "reference", time.perf_counter() - start, []
    # Each check is a generator, so it runs only when its rows are listed.
    groups = (
        ("equivalence", _check_equivalence()),
        ("conservation", _check_conservation(passes)),
        ("closure", _check_closure(passes["case-V"][1])),
        ("divergence", _check_divergence(passes, orders)),
        ("self-crossing", _check_self_crossing()),
    )
    for group, check in groups:
        start = time.perf_counter()
        rows = list(check)
        yield group, time.perf_counter() - start, rows


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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
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
