"""Command-line interface: outputs, schemas, exit codes, verification."""

import argparse
import csv
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvdiag import (
    MethodKind,
    NonFiniteError,
    SeriesSolution,
    divergence_time,
    failure_report,
    method_series,
    preset,
    preset_names,
    sample_series,
    solve,
)
from lvdiag import cli, diagnostics
from lvdiag.cli import _verification_groups, main
from lvdiag.output import PHASE_HEADER, TIMESERIES_HEADER
from test_series import problems

# The CSV cell format, as lvdiag.output writes it.
CELL_FORMAT = "%.17g"

JSON_FIELDS = [
    "preset",
    "method",
    "order",
    "t_end",
    "divergence_time",
    "max_invariant_drift_ref",
    "max_invariant_drift_approx",
    "self_intersection",
    "closed_orbit_ref",
    "closed_orbit_approx",
    "period_estimate",
    "excluded_samples",
]


def _run(tmp_path, *extra):
    args = ["run", "--out", str(tmp_path)] + list(extra)
    return main(args)


def test_run_format_all_adds_the_svg(tmp_path):
    assert _run(tmp_path, "--preset", "decoupled", "--points", "101", "--format", "all") == 0
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == [
        "decoupled_taylor_order5_phase.csv",
        "decoupled_taylor_order5_phase.svg",
        "decoupled_taylor_order5_report.json",
        "decoupled_taylor_order5_timeseries.csv",
    ]
    svg = (tmp_path / "decoupled_taylor_order5_phase.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2


def test_csv_headers_and_roundtrip(tmp_path):
    _run(tmp_path, "--preset", "decoupled", "--points", "11")
    timeseries = (tmp_path / "decoupled_taylor_order5_timeseries.csv").read_text().splitlines()
    assert timeseries[0] == TIMESERIES_HEADER
    assert len(timeseries) == 12
    first = timeseries[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 1.0
    # 17 significant digits round-trip doubles exactly.
    for cell in timeseries[5].split(","):
        value = float(cell)
        assert CELL_FORMAT % value == cell
    phase = (tmp_path / "decoupled_taylor_order5_phase.csv").read_text().splitlines()
    assert phase[0] == PHASE_HEADER
    assert len(phase) == 12


def test_csv_leaves_invariant_blank_outside_its_domain(tmp_path):
    """The runaway series goes non-positive, where the invariant is undefined."""
    _run(tmp_path, "--preset", "case-I", "--points", "201")
    with open(tmp_path / "case-I_taylor_order5_timeseries.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    blank = [row for row in rows if row["C_approx"] == ""]
    assert blank
    assert all(row["C_ref"] != "" for row in rows)
    assert all(float(row["x_approx"]) <= 0.0 or float(row["y_approx"]) <= 0.0 for row in blank)


def test_report_json_schema(tmp_path):
    _run(tmp_path, "--preset", "case-V", "--points", "201")
    with open(tmp_path / "case-V_taylor_order5_report.json") as handle:
        payload = json.load(handle)
    assert list(payload.keys()) == JSON_FIELDS
    assert payload["preset"] == "case-V"
    assert payload["method"] == "taylor"
    assert payload["order"] == 5
    assert payload["t_end"] == 10.0
    assert 0.0 < payload["divergence_time"] < 10.0
    assert payload["max_invariant_drift_approx"] > 1e3 * payload["max_invariant_drift_ref"]
    crossing = payload["self_intersection"]
    assert set(crossing) == {"i", "j", "x", "y"}
    assert payload["closed_orbit_ref"] is True
    assert payload["closed_orbit_approx"] is False
    assert payload["period_estimate"] == pytest.approx(7.603020304410167, abs=1e-8)


def test_report_json_nulls_for_the_decoupled_case(tmp_path):
    _run(tmp_path, "--preset", "decoupled", "--points", "101")
    with open(tmp_path / "decoupled_taylor_order5_report.json") as handle:
        payload = json.load(handle)
    assert payload["divergence_time"] is None
    assert payload["self_intersection"] is None
    assert payload["period_estimate"] is None
    assert payload["closed_orbit_ref"] is False


@pytest.mark.parametrize("name", preset_names())
def test_a_preset_runs_as_its_problem_given_in_custom_flags(tmp_path, name):
    """A preset is nothing but its problem: the same six numbers and window write the same files."""
    ivp = preset(name)
    p, start = ivp.params, ivp.initial
    numbers = {"a": p.a, "b": p.b, "c": p.c, "d": p.d, "x0": start.x, "y0": start.y, "t-end": ivp.t_end}
    custom = [arg for flag, value in numbers.items() for arg in (f"--{flag}", repr(value))]
    common = ("--method", "vim", "--format", "all")
    assert _run(tmp_path / "preset", "--preset", name, *common) == 0
    assert _run(tmp_path / "custom", *custom, *common) == 0
    for suffix in ("timeseries.csv", "phase.csv", "phase.svg"):
        preset_file = tmp_path / "preset" / f"{name}_vim_order5_{suffix}"
        assert preset_file.read_bytes() == (tmp_path / "custom" / f"custom_vim_order5_{suffix}").read_bytes()
    preset_report = (tmp_path / "preset" / f"{name}_vim_order5_report.json").read_text()
    custom_report = (tmp_path / "custom" / "custom_vim_order5_report.json").read_text()
    assert preset_report.count(f'"preset": "{name}"') == 1
    assert preset_report.replace(f'"preset": "{name}"', '"preset": "custom"') == custom_report


def test_an_unknown_preset_is_a_value_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown preset 'nope'"):
        preset("nope")
    assert _run(tmp_path, "--preset", "nope") == 2
    want = "error: unknown preset 'nope'; available presets: case-I, case-V, decoupled\n"
    assert capsys.readouterr().err == want


def test_io_errors_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    code = main(["run", "--preset", "decoupled", "--points", "51", "--out", str(blocker)])
    assert code == 4
    assert "i/o failure" in capsys.readouterr().err


def test_run_evaluates_the_first_integral_once_per_trajectory(tmp_path, monkeypatch, capsys):
    """The drifts, the excluded samples and the CSV's C columns all read one
    column per trajectory: two evaluations per run, one per trajectory."""
    calls = []

    def counted(*args, kernel=diagnostics._first_integral):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(diagnostics, "_first_integral", counted)
    assert _run(tmp_path, "--preset", "case-I", "--method", "hpm", "--format", "all") == 0
    assert len(calls) == 2
    with open(tmp_path / "case-I_hpm_order5_report.json") as handle:
        assert json.load(handle)["excluded_samples"] > 0


def test_verify_without_a_reference_period_is_a_numeric_failure(monkeypatch, capsys):
    import lvdiag.cli as cli

    monkeypatch.setattr(cli, "solve", lambda ivp, find_period=False: solve(ivp))
    assert main(["verify", "--orders", "4"]) == 3
    assert "numeric failure: case-V: no return to the start section" in capsys.readouterr().err


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("checks passed")
    assert "FAIL" not in out
    assert out.count("PASS") == 10


def test_verify_twice_in_one_process_prints_the_same_table(capsys):
    outs = []
    for _ in range(2):
        assert main(["verify"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].endswith("10/10 checks passed\n")


def test_verify_times_each_group_on_stderr_only(capsys):
    runs = []
    for _ in range(2):
        assert main(["verify", "--orders", "4"]) == 0
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    table = runs[0].out.splitlines()
    results = [triple for _, _, triples in _verification_groups((4,)) for triple in triples]
    assert len(table) == len(results) + 1
    for line, (name, ok, detail) in zip(table, results):
        assert ok and line.startswith(name) and line.endswith(f"  PASS  {detail}")
    for captured in runs:
        lines = captured.err.splitlines()
        groups = [line.split()[1] for line in lines]
        assert groups == ["reference", "equivalence", "conservation", "closure", "divergence", "self-crossing"]
        assert all(line.startswith("verify: ") and line.endswith(" ms") for line in lines)


def test_verify_closure_row_matches_failure_report():
    groups = {group: triples for group, _, triples in _verification_groups((4,))}
    (name, closed, detail), _ = groups["closure"]
    assert name == "case-V: reference orbit returns within 1e-6"
    report = failure_report(preset("case-V"), MethodKind.TAYLOR, 5)
    assert detail == f"period {report.period_estimate:.9f}"
    assert closed is report.closed_orbit_ref is True


def _mutated_verify(monkeypatch, capsys, mutate):
    import lvdiag.methods as methods

    real = methods.taylor_coefficients

    def broken(ivp, order):
        return mutate(real(ivp, order))

    monkeypatch.setattr(methods, "taylor_coefficients", broken)
    code = main(["verify", "--orders", "4"])
    return code, capsys.readouterr().out


def test_verify_catches_a_sign_flip(monkeypatch, capsys):
    def flip(sol):
        x, y = sol.x_coeffs.copy(), sol.y_coeffs.copy()
        x[1:] *= -1.0
        y[1:] *= -1.0
        return SeriesSolution(x, y)

    code, out = _mutated_verify(monkeypatch, capsys, flip)
    assert code == 1
    assert "FAIL" in out


def test_verify_catches_a_subtle_skew(monkeypatch, capsys):
    """A relative coefficient error of 1e-6 must trip the equivalence check."""

    def skew(sol):
        return SeriesSolution(sol.x_coeffs * (1.0 + 1e-6), sol.y_coeffs * (1.0 + 1e-6))

    code, out = _mutated_verify(monkeypatch, capsys, skew)
    assert code == 1
    assert "FAIL" in out


def test_verify_fails_a_nan_deviation(monkeypatch, capsys):
    """A NaN coefficient fails both equivalence rows instead of dropping out of the max."""

    def poison(sol):
        # Under --orders 4 only the equivalence build reaches order 20.
        if sol.y_coeffs.size < 21:
            return sol
        y = sol.y_coeffs.copy()
        y[5] = math.nan
        return SeriesSolution(sol.x_coeffs, y)

    code, out = _mutated_verify(monkeypatch, capsys, poison)
    assert code == 1
    rows = [line for line in out.splitlines() if "reproduce the series" in line]
    assert len(rows) == 2 and all(row.endswith("  FAIL  worst nan") for row in rows)
    assert out.count("FAIL") == 2


def test_verify_fails_a_series_that_never_diverges(monkeypatch, capsys):
    import lvdiag.cli as cli

    monkeypatch.setattr(cli, "divergence_time", lambda approx, reference, delta: None)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "diverge before t=10" in line]
    assert len(rows) == 2 and all(row.endswith("  FAIL  t_div none/none/none/none/none") for row in rows)
    assert out.count("FAIL") == 2


def _full_grid_divergence(passes, orders):
    """The divergence rows as every order on the whole grid gives them, next to
    a full-grid reference: the oracle of ``cli._check_divergence``."""
    grid = np.linspace(0.0, 10.0, 2001)
    for name, (ivp, solution) in passes.items():
        reference = solution.sample(grid)
        ok = True
        details = []
        for order in orders:
            with diagnostics._named_overflow(f"{name}: taylor order {order}"):
                approx = sample_series(method_series(ivp, MethodKind.TAYLOR, order), grid)
            t_div = divergence_time(approx, reference, 1.0)
            details.append("none" if t_div is None else f"{t_div:.3f}")
            if t_div is None or not t_div < 10.0:
                ok = False
        yield (
            f"{name}: taylor orders {','.join(map(str, orders))} diverge before t=10",
            ok,
            "t_div " + "/".join(details),
        )


def _rows_or_error(check, passes, orders):
    try:
        return list(check(passes, orders))
    except NonFiniteError as exc:
        return str(exc)


def _assert_same_divergence_rows(passes, orders):
    want = _rows_or_error(_full_grid_divergence, passes, orders)
    assert _rows_or_error(cli._check_divergence, passes, orders) == want


@pytest.fixture(scope="module")
def preset_passes():
    """verify's two reference passes: case-I over [0, 10], case-V over [0, 50]."""
    long_i = dataclasses.replace(preset("case-I"), t_end=10.0)
    long_v = dataclasses.replace(preset("case-V"), t_end=50.0)
    return {"case-I": (long_i, solve(long_i)), "case-V": (long_v, solve(long_v, find_period=True))}


# Every order from 1 to 150 departs on the head, the first 256 grid points.
# Order 0 departs at t = 9.215 on case-I and 1.620 on case-V, past the head,
# so it is read on the whole grid, as with 20,4,0, where it comes last.
# case-I's order-150 coefficients bound the series at 1.5e301, so it is read
# on the whole grid, as in 4,150 and 150,4, next to an order 4 read on the
# head; so is order 200, which overflows there at t = 3.425.  The
# coefficients of orders 310 and 400 overflow.
@pytest.mark.parametrize(
    "orders",
    [
        (4, 8, 12, 16, 20), (4, 8, 12), (0, 20), (0, 150), (60, 120), (0,), (150,), (0, 1, 2, 3),
        (200,), (400,), (310, 400), (4, 8, 200), (4, 150), (150, 4), (20, 4, 0),
    ],
    ids=lambda orders: ",".join(map(str, orders)),
)
def test_divergence_rows_keep_the_full_grid_bits_on_the_presets(preset_passes, orders):
    _assert_same_divergence_rows(preset_passes, orders)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems(), st.lists(st.integers(0, 40), min_size=1, max_size=3))
def test_divergence_rows_keep_the_full_grid_bits_on_drawn_problems(ivp, orders):
    """Each drawn problem, with its own reference pass over [0, 10]."""
    long = dataclasses.replace(ivp, t_end=10.0)
    _assert_same_divergence_rows({"drawn": (long, solve(long))}, tuple(orders))


CERTIFIED_BELOW = Fraction(1e300)


@st.composite
def bounded_series(draw):
    """A series whose bound B = sum_k max(|X_k|, |Y_k|) * 10**k sits near 1e300.

    Term k of B starts as a drawn share of 1, one of them at least 1/2, and
    the pair is then scaled to 1e300 * 10**offset, the offset within 1e-11
    of 0 (B just under or just over 1e300) or anywhere in [-3, 8].  Returns
    the series and its B, summed exactly."""
    terms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=61))
    terms[draw(st.integers(0, len(terms) - 1))] = (draw(st.floats(0.5, 1.0)), draw(st.floats(-1.0, 1.0)))
    offset = draw(st.one_of(st.floats(-1e-11, 1e-11), st.floats(-3.0, 8.0)))
    x = np.array([m * 10.0**-k for k, (m, _) in enumerate(terms)])
    y = np.array([m * 10.0**-k for k, (_, m) in enumerate(terms)])
    scale = 1e300 * 10.0**offset / float(_exact_bound(x, y))
    x, y = x * scale, y * scale
    return SeriesSolution(x, y), _exact_bound(x, y)


def _exact_bound(x, y):
    return sum(Fraction(max(abs(p), abs(q))) * 10**k for k, (p, q) in enumerate(zip(x.tolist(), y.tolist())))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bounded_series())
@example((SeriesSolution([1e300], [-1e300]), Fraction(1e300)))
@example((SeriesSolution([0.0, 9.999999999e298], [0.0, 0.0]), Fraction(9.999999999e298) * 10))
@example((SeriesSolution([0.0, 1.0000000001e299], [0.0, 0.0]), Fraction(1.0000000001e299) * 10))
def test_a_certified_series_is_finite_on_the_whole_grid(drawn):
    """The coefficient bound decides as the exact B does wherever B is more
    than 2**-40 from 1e300, and a certified series stays within B, times its
    rounding factor, at every grid point: it cannot overflow there."""
    series, bound = drawn
    certified = cli._overflow_free(series, 10.0)
    if bound < CERTIFIED_BELOW * (1 - Fraction(1, 2**40)):
        assert certified
    if bound > CERTIFIED_BELOW * (1 + Fraction(1, 2**40)):
        assert not certified
    if certified:
        traj = sample_series(series, np.linspace(0.0, 10.0, 2001))
        n = series.x_coeffs.size - 1
        limit = 1e300 * (1.0 + 2.0**-53) ** (4 * n + 4)
        assert np.max(np.abs(traj.x)) <= limit and np.max(np.abs(traj.y)) <= limit


# ``main`` parses with one parser per process; these calls share it.


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_a_flag_of_one_call_does_not_leak_into_the_next(tmp_path, capsys):
    assert _run(tmp_path / "seven", "--preset", "decoupled", "--points", "51", "--order", "7") == 0
    assert _run(tmp_path / "default", "--preset", "decoupled", "--points", "51", "--method", "vim") == 0
    assert sorted(_files(tmp_path / "default")) == [
        "decoupled_vim_order5_phase.csv",
        "decoupled_vim_order5_report.json",
        "decoupled_vim_order5_timeseries.csv",
    ]
    assert all("_taylor_order7_" in name for name in _files(tmp_path / "seven"))


def test_a_usage_error_leaves_the_next_call_working(tmp_path, capsys):
    assert main(["run", "--order", "x"]) == 2
    assert "argument --order:" in capsys.readouterr().err
    assert _run(tmp_path, "--preset", "decoupled", "--points", "51", "--format", "json") == 0
    assert capsys.readouterr().err == ""


def test_run_help_is_the_same_text_every_time(capsys):
    helps = []
    for _ in range(2):
        assert main(["run", "--help"]) == 0
        helps.append(capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        cli._parser.__wrapped__().parse_args(["run", "--help"])
    assert exc.value.code == 0
    fresh = capsys.readouterr()
    assert helps[0] == helps[1] == fresh
    assert fresh.out.startswith("usage: lvdiag run ") and fresh.err == ""


def test_a_second_call_builds_no_parser(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["verify", "--orders", "x"]) == 2
    assert built == ["lvdiag", "lvdiag run", "lvdiag verify"]
    assert main(["verify", "--orders", "y"]) == 2
    assert main(["run", "--order", "x"]) == 2
    assert len(built) == 3
