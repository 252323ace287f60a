"""The three benchmark workloads: their ops, inputs and correctness oracles.

An op is one call into lvdiag through a public entry point.  Each workload
yields op inputs from its seed, calls the entry point, and checks the result
outside the timed region; a failed check raises ``CheckFailed``.

This module imports only the standard library at load time, so a fresh
interpreter can import it before starting the clock on ``import lvdiag``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from pathlib import Path

_HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, expected, abs_tol=0.0, rel_tol=0.0):
    if value is None or expected is None:
        return value is None and expected is None
    return math.isfinite(value) and abs(value - expected) <= max(abs_tol, rel_tol * abs(expected))


# --- verify -----------------------------------------------------------------

# Values printed by ``lvdiag verify`` with the default sweep, as pinned by the
# acceptance tests: the case-V period to 1e-8 and the drift ratio to 1e-3.
_PERIOD_V = 7.603020304410167
_DRIFT_RATIO_V = 4586243571955.37
_VERIFY_T_DIV = {
    "case-I": (0.170, 0.175, 0.130, 0.115, 0.110),
    "case-V": (0.855, 0.835, 0.935, 0.785, 0.765),
}
_VERIFY_CROSSING = (15, 173)
# Divergence times are grid points of linspace(0, 10, 2001); allow one step.
_GRID_STEP = 10.0 / 2000


def _detail_number(detail, label):
    match = re.match(rf"{label} (\S+)", detail)
    _require(match is not None, f"detail {detail!r} lacks {label!r}")
    return float(match.group(1))


def check_verify_output(rc, text):
    """The ten PASS lines of the default ``verify``, with their details checked."""
    _require(rc == 0, f"verify exited {rc}")
    lines = text.rstrip("\n").split("\n")
    _require(lines[-1].startswith("10/10 checks passed"), f"last line {lines[-1]!r}")
    rows = {}
    for line in lines[:-1]:
        name, status, detail = re.split(r"  +", line.strip(), maxsplit=2)
        _require(status == "PASS", f"{name}: {status} {detail}")
        rows[name] = detail
    _require(len(rows) == 10, f"{len(rows)} checks listed")
    for case in ("case-I", "case-V"):
        worst = _detail_number(rows[f"{case}: adomian/hpm/vim reproduce the series (orders 1-20)"], "worst")
        _require(worst <= 1e-10, f"{case} scheme deviation {worst}")
    for case, horizon in (("case-I", 10), ("case-V", 50)):
        drift = _detail_number(rows[f"{case}: reference invariant drift on [0, {horizon}] below 1e-08"], "drift")
        _require(drift <= 1e-8, f"{case} reference drift {drift}")
    period = _detail_number(rows["case-V: reference orbit returns within 1e-6"], "period")
    _require(_close(period, _PERIOD_V, abs_tol=1e-8), f"period {period}")
    simple = rows["case-V: reference orbit stays simple over one period"]
    _require(simple.startswith("no crossing"), f"reference orbit: {simple}")
    for case, expected in _VERIFY_T_DIV.items():
        detail = rows[f"{case}: taylor orders 4,8,12,16,20 diverge before t=10"]
        t_div = tuple(float(v) for v in detail.split()[1].split("/"))
        _require(
            len(t_div) == len(expected) and all(_close(a, b, abs_tol=_GRID_STEP) for a, b in zip(t_div, expected)),
            f"{case} divergence times {detail}",
        )
    crossing = rows["case-V: order-5 series phase curve crosses itself"]
    _require(crossing.startswith("segments (%d, %d)" % _VERIFY_CROSSING), f"series crossing {crossing}")
    ratio = _detail_number(rows["case-V: series invariant drift dwarfs the reference on [0, 3]"], "ratio")
    _require(_close(ratio, _DRIFT_RATIO_V, rel_tol=1e-3), f"drift ratio {ratio}")


def _call_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


class Verify:
    """One in-process ``lvdiag verify`` with the default sweep per op."""

    name = "verify"
    cycle = 1

    def __init__(self, seed, workdir):
        del seed, workdir  # the default sweep has no inputs to draw

    @staticmethod
    def entry():
        from lvdiag import cli

        return cli.main

    def inputs(self):
        while True:
            yield ("verify",)

    def call(self, entry, op):
        return _call_cli(entry, list(op))

    def check(self, op, result):
        check_verify_output(*result)

    def describe(self, results):
        return {}


# --- run --------------------------------------------------------------------

RUN_PRESETS = ("case-I", "case-V")
RUN_METHODS = ("taylor", "adomian", "hpm", "vim")
_RUN_SUFFIXES = ("_timeseries.csv", "_phase.csv", "_report.json", "_phase.svg")
_RUN_POINTS = 2001
# Every 40th CSV row has its cells checked for the round-trip %.17g format.
_CSV_SAMPLE_STRIDE = 40
_TIMESERIES_HEADER = "t,x_ref,y_ref,x_approx,y_approx,C_ref,C_approx"
_PHASE_HEADER = "x_ref,y_ref,x_approx,y_approx"


def _expected_reports():
    with open(_HERE / "expected_run.json") as handle:
        return json.load(handle)


def check_report(report, expected):
    """A ``run`` report against the seed's: exact flags and indices, floats to tolerance.

    Keys the seed's report lacks are allowed, so the report may gain fields.
    """
    _require(set(expected) <= set(report), f"report keys {list(report)}")
    for key in ("preset", "method", "order", "t_end", "closed_orbit_ref", "closed_orbit_approx"):
        _require(report[key] == expected[key], f"{key} {report[key]!r} != {expected[key]!r}")
    _require(
        _close(report["divergence_time"], expected["divergence_time"], abs_tol=_GRID_STEP),
        f"divergence_time {report['divergence_time']}",
    )
    # The reference drift measures integrator error, which a different step
    # sequence may change; it must stay at the scale verify enforces.
    _require(
        _close(report["max_invariant_drift_ref"], expected["max_invariant_drift_ref"], abs_tol=1e-8),
        f"max_invariant_drift_ref {report['max_invariant_drift_ref']}",
    )
    _require(
        _close(report["max_invariant_drift_approx"], expected["max_invariant_drift_approx"], rel_tol=1e-9),
        f"max_invariant_drift_approx {report['max_invariant_drift_approx']}",
    )
    got, want = report["self_intersection"], expected["self_intersection"]
    if want is None:
        _require(got is None, f"unexpected self_intersection {got}")
    else:
        _require(got is not None and (got["i"], got["j"]) == (want["i"], want["j"]), f"self_intersection {got}")
        _require(
            _close(got["x"], want["x"], rel_tol=1e-9) and _close(got["y"], want["y"], rel_tol=1e-9),
            f"self_intersection point {got}",
        )
    _require(
        _close(report["period_estimate"], expected["period_estimate"], abs_tol=1e-8),
        f"period_estimate {report['period_estimate']}",
    )


class Run:
    """One ``lvdiag run --format all`` per op, over {case-I, case-V} x the four schemes.

    Each cycle visits all eight pairs in an order drawn from the seed, so every
    run weighs the pairs equally.  Outputs go to ``workdir`` and are removed
    after each op has been checked.
    """

    name = "run"
    cycle = len(RUN_PRESETS) * len(RUN_METHODS)

    def __init__(self, seed, workdir):
        self._rng = random.Random(seed)
        self._out = str(workdir)
        self._expected = _expected_reports()
        self._digests = {}

    @staticmethod
    def entry():
        from lvdiag import cli

        return cli.main

    def inputs(self):
        pairs = [(p, m) for p in RUN_PRESETS for m in RUN_METHODS]
        while True:
            self._rng.shuffle(pairs)
            yield from pairs

    def call(self, entry, op):
        preset, method = op
        return _call_cli(entry, ["run", "--preset", preset, "--method", method, "--format", "all", "--out", self._out])

    def paths(self, op):
        preset, method = op
        base = os.path.join(self._out, f"{preset}_{method}_order5")
        return [base + suffix for suffix in _RUN_SUFFIXES]

    def check(self, op, result):
        rc, text = result
        paths = self.paths(op)
        try:
            _require(rc == 0, f"run exited {rc}")
            _require(sorted(text.splitlines()) == sorted(paths), f"printed {text.splitlines()}")
            _require(all(os.path.isfile(p) for p in paths), "an output file is missing")
            contents = []
            for path in paths:
                with open(path, "rb") as handle:
                    contents.append(handle.read())
        finally:
            for path in paths:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        series_csv, phase_csv, report_json, phase_svg = (c.decode() for c in contents)
        check_report(json.loads(report_json), self._expected[f"{op[0]}/{op[1]}"])
        for csv, header in ((series_csv, _TIMESERIES_HEADER), (phase_csv, _PHASE_HEADER)):
            rows = csv.splitlines()
            _require(rows[0] == header and len(rows) == _RUN_POINTS + 1, f"CSV header or row count: {rows[0]!r}")
            _require(all(row.count(",") == header.count(",") for row in rows), "ragged CSV rows")
            sampled = [cell for row in rows[1::_CSV_SAMPLE_STRIDE] for cell in row.split(",") if cell]
            _require(all("%.17g" % float(cell) == cell for cell in sampled), "CSV cells not printed with %.17g")
        _require(phase_svg.startswith("<svg ") and phase_svg.endswith("</svg>\n"), "phase SVG is not one <svg> element")
        digest = hashlib.sha256(b"".join(contents)).hexdigest()
        _require(self._digests.setdefault(op, digest) == digest, "outputs differ from an earlier run with the same flags")

    def describe(self, results):
        return {}


# --- sweep ------------------------------------------------------------------

SWEEP_ORDERS = range(2, 21)
SWEEP_T_END = 10.0
# Parameter ranges: rates log-uniform in [1/2, 2]; the start at (1/3 .. 3)
# times the interior equilibrium (c/d, a/b) in each coordinate, log-uniform.
_RATE_RANGE = (0.5, 2.0)
_START_RANGE = (1.0 / 3.0, 3.0)
# The reference invariant drift stayed below 1.3e-9 on 300 draws at the seed;
# no approximant closed on 480 draws.
SWEEP_DRIFT_BOUND = 1e-7


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_problem(rng):
    """(a, b, c, d, x0, y0) for one unseen problem."""
    a, b, c, d = (_log_uniform(rng, *_RATE_RANGE) for _ in range(4))
    x0 = _log_uniform(rng, *_START_RANGE) * c / d
    y0 = _log_uniform(rng, *_START_RANGE) * a / b
    return a, b, c, d, x0, y0


def check_sweep_report(report, method, order):
    """Properties that held on every draw at the seed."""
    _require(report.method is method and report.order == order, "report echoes another method or order")
    numbers = [report.max_invariant_drift, report.max_invariant_drift_ref]
    numbers += [v for v in (report.divergence_time, report.period_estimate) if v is not None]
    if report.self_intersection is not None:
        numbers += list(report.self_intersection.point)
    _require(all(math.isfinite(v) for v in numbers), f"non-finite field in {report}")
    _require(report.excluded_samples >= 0, f"excluded_samples {report.excluded_samples}")
    if report.period_estimate is not None:
        _require(report.period_estimate > 0.0, f"period {report.period_estimate}")
        _require(report.closed_orbit_ref, "period found but the reference orbit does not close")
    # The claim under test: no truncated series follows the orbit until it closes.
    _require(not report.closed_orbit, "the approximant's curve closes")
    _require(
        report.max_invariant_drift_ref <= SWEEP_DRIFT_BOUND,
        f"reference drift {report.max_invariant_drift_ref} above {SWEEP_DRIFT_BOUND}",
    )
    if report.divergence_time is not None:
        _require(0.0 <= report.divergence_time <= SWEEP_T_END, f"divergence_time {report.divergence_time}")
    if report.self_intersection is not None:
        _require(report.self_intersection.j >= report.self_intersection.i + 2, "adjacent segments reported")


class Sweep:
    """One library ``failure_report(ivp, method, order)`` per op on a drawn problem.

    Each cycle visits every (method, order in 2..20) pair once in an order
    drawn from the seed; the six problem numbers are drawn afresh per op.
    """

    name = "sweep"
    cycle = 1

    def __init__(self, seed, workdir):
        del workdir
        self._rng = random.Random(seed)

    @staticmethod
    def entry():
        from lvdiag import diagnostics

        return diagnostics.failure_report

    def inputs(self):
        from lvdiag import InitialValueProblem, MethodKind, ModelParams, PopulationState

        pairs = [(m, o) for m in MethodKind for o in SWEEP_ORDERS]
        while True:
            self._rng.shuffle(pairs)
            for method, order in pairs:
                a, b, c, d, x0, y0 = draw_problem(self._rng)
                ivp = InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), SWEEP_T_END)
                yield ivp, method, order

    def call(self, entry, op):
        return entry(*op)

    def check(self, op, result):
        check_sweep_report(result, op[1], op[2])

    def describe(self, results):
        n = max(len(results), 1)
        return {
            "period_found_share": sum(r.period_estimate is not None for r in results) / n,
            "self_crossing_share": sum(r.self_intersection is not None for r in results) / n,
        }


WORKLOADS = {w.name: w for w in (Verify, Run, Sweep)}
