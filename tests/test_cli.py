"""Command-line interface: outputs, schemas, exit codes, verification."""

import argparse
import csv
import json
import math
import warnings

import pytest

from lvdiag import InitialValueProblem, MethodKind, SeriesSolution, failure_report, preset, preset_names, solve
from lvdiag import cli, diagnostics
from lvdiag.cli import _verification_groups, build_parser, main
from lvdiag.output import PHASE_HEADER, TIMESERIES_HEADER

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


def test_run_default_writes_csv_and_json(tmp_path, capsys):
    assert _run(tmp_path, "--preset", "decoupled", "--points", "101") == 0
    base = "decoupled_taylor_order5"
    produced = sorted(f.name for f in tmp_path.iterdir())
    assert produced == [f"{base}_phase.csv", f"{base}_report.json", f"{base}_timeseries.csv"]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert all(str(tmp_path) in line for line in printed)


def test_run_format_json_writes_only_the_report(tmp_path):
    assert _run(tmp_path, "--preset", "decoupled", "--points", "101", "--format", "json") == 0
    assert [f.name for f in tmp_path.iterdir()] == ["decoupled_taylor_order5_report.json"]


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


def test_run_custom_parameters(tmp_path):
    code = _run(
        tmp_path,
        "--a", "1.0", "--b", "0.0", "--c", "1.0", "--d", "0.0",
        "--x0", "2.0", "--y0", "3.0", "--t-end", "1.0", "--points", "51",
    )
    assert code == 0
    assert (tmp_path / "custom_taylor_order5_report.json").exists()


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


def test_run_method_selection(tmp_path):
    assert _run(tmp_path, "--preset", "decoupled", "--points", "51", "--method", "vim") == 0
    assert (tmp_path / "decoupled_vim_order5_report.json").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert _run(tmp_path, "--preset", "case-V", "--a", "1.0") == 2
    assert "--preset conflicts" in capsys.readouterr().err
    assert _run(tmp_path, "--preset", "case-X") == 2
    err = capsys.readouterr().err
    assert "case-I" in err and "case-V" in err and "decoupled" in err
    assert _run(tmp_path, "--a", "1.0", "--b", "0.0") == 2
    assert "missing" in capsys.readouterr().err
    assert _run(tmp_path, "--preset", "case-V", "--order", "-1") == 2
    assert "--order" in capsys.readouterr().err
    custom = ("--a", "1", "--b", "1", "--c", "1", "--d", "1", "--y0", "2")
    assert _run(tmp_path, *custom, "--x0", "0") == 2
    assert "--x0" in capsys.readouterr().err
    assert main(["run"]) == 2
    # Each refusal of a flag's parser names that flag.
    for args, flag in [
        (("run", "--order", "x"), "--order"),
        (("run", "--a", "foo"), "--a"),
        (("verify", "--orders", "4,x"), "--orders"),
        (("verify", "--orders", "-1"), "--orders"),
    ]:
        assert main(list(args)) == 2, args
        assert f"argument {flag}:" in capsys.readouterr().err, args


def test_an_unknown_preset_is_a_value_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown preset 'nope'"):
        preset("nope")
    assert _run(tmp_path, "--preset", "nope") == 2
    want = "error: unknown preset 'nope'; available presets: case-I, case-V, decoupled\n"
    assert capsys.readouterr().err == want


def test_run_needs_four_grid_points(tmp_path, capsys):
    """Fewer samples than a self-crossing needs are refused before any work."""
    out = tmp_path / "out"
    assert main(["run", "--preset", "case-V", "--points", "3", "--out", str(out)]) == 2
    assert "need at least 4 grid points, got 3" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--preset", "case-V", "--points", "4", "--format", "all", "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 4


def test_io_errors_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    code = main(["run", "--preset", "decoupled", "--points", "51", "--out", str(blocker)])
    assert code == 4
    assert "i/o failure" in capsys.readouterr().err


def test_numeric_failures_exit_3(tmp_path, capsys):
    rates = ("--a", "1", "--b", "1", "--c", "1", "--d", "1")
    cases = [
        (
            "--a", "1", "--b", "0", "--c", "1", "--d", "0",
            "--x0", "1", "--y0", "1", "--t-end", "800",
        ),
        # Starts so large that the squared scaled field overflows the initial-step estimate.
        (*rates, "--x0", "1e145", "--y0", "1"),
        (*rates, "--x0", "1e300", "--y0", "1"),
        (*rates, "--x0", "1", "--y0", "1e300"),
        # The step floor is 1e-14 of the horizon, so a long enough window alone trips it.
        (
            "--a", "1000", "--b", "1000", "--c", "1000", "--d", "1000",
            "--x0", "10", "--y0", "10", "--t-end", "1e12",
        ),
    ]
    for args in cases:
        code = _run(tmp_path, *args)
        assert code == 3, args
        err = capsys.readouterr().err
        assert "numeric failure" in err, args
    # The last case's message names the horizon that its floor is a fraction of.
    assert "fell below 0.01, 1e-14 of the horizon 1e+12, at t=0.0; shorten the horizon" in err


@pytest.mark.parametrize("b, d", [("0", "1"), ("1", "0")])
def test_run_without_a_closed_orbit_stays_in_its_window(tmp_path, capsys, b, d):
    """With b or d zero no orbit closes, so no period search runs past t_end.

    A search from this start would run the exponential on past t=5.88, where it
    overflows, though the requested window [0, 1] is harmless.
    """
    args = ("--a", "1", "--b", b, "--c", "1", "--d", d, "--x0", "2", "--y0", "1", "--t-end", "1")
    assert _run(tmp_path, *args, "--format", "json") == 0
    report = json.loads((tmp_path / "custom_taylor_order5_report.json").read_text())
    assert report["period_estimate"] is None and report["closed_orbit_ref"] is False
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("rate", ["1e-300", "1e-20"])
def test_tiny_rates_step_their_window(tmp_path, capsys, rate):
    """a*c underflows, or nearly: the search window 100/sqrt(a*c) is astronomically long.

    The step floor is a fraction of t_end alone, so that window cannot trip it:
    the pass steps across it without a return and the report reads no period.
    """
    args = ("--a", rate, "--b", "1", "--c", rate, "--d", "1", "--x0", "1", "--y0", "1")
    assert _run(tmp_path, *args, "--format", "json") == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "custom_taylor_order5_report.json").read_text())
    assert report["period_estimate"] is None and report["closed_orbit_ref"] is False


@pytest.mark.parametrize(
    "b, x0, y0, cause",
    [
        ("1", "1e307", "1", "(1e+307, 1.0) is too large to take a first step"),
        ("1", "1e300", "1e-300", "(1e+300, 1e-300) is too large to take a first step"),
        ("1e10", "1", "1e300", "(1.0, 1e+300) is not finite"),
    ],
    # Each case is named x0-y0-(the start as the message prints it).
    ids=["1e307-1-(1e+307, 1.0)", "1e300-1e-300-(1e+300, 1e-300)", "1-1e300-(1.0, 1e+300)"],
)
def test_a_start_whose_field_overflows_is_named_as_the_cause(tmp_path, capsys, b, x0, y0, cause):
    """The field at the start overflows, or is too large to square, so no first step can be sized."""
    args = ("--a", "1", "--b", b, "--c", "1", "--d", "1", "--x0", x0, "--y0", y0, "--t-end", "1")
    assert _run(tmp_path, *args) == 3
    assert capsys.readouterr().err == f"numeric failure: the field at the start {cause}\n"


def test_run_overflowing_series_is_a_usage_error(tmp_path, capsys):
    """The recurrence itself overflows from coefficient 305 on; the message names the scheme."""
    out = tmp_path / "out"
    for order in ("305", "400"):
        args = ["run", "--preset", "case-I", "--method", "taylor", "--order", order, "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: taylor order {order}: series coefficient 305 overflows\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "method, order, cause",
    [
        # ADM coefficients from 305 on are inf: the first one is named, not a time.
        ("adomian", "400", "series coefficient 305 overflows"),
        # Every coefficient is finite, but the polynomial overflows on the grid.
        ("taylor", "300", "series overflows at t=1.055"),
    ],
    ids=["adomian-400", "taylor-300-1.055"],
)
def test_run_overflowing_approximant_names_scheme_order_and_time(tmp_path, capsys, method, order, cause):
    out = tmp_path / "out"
    args = ["run", "--preset", "case-I", "--method", method, "--order", order, "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {method} order {order}: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, cause",
    [
        # A Taylor coefficient's fsum overflows; the two before it are finite
        # only because d * conv is retried on scaled operands.
        (
            ("--a", "2", "--b", "8", "--c", "1", "--d", "1000", "--x0", "0.5", "--y0", "2",
             "--order", "151", "--t-end", "1"),
            "taylor order 151: series coefficient 151 overflows",
        ),
        # The approximant is finite on the grid, but its first integral is not:
        # the report's drift would be Infinity, which JSON cannot hold.
        (
            ("--a", "0.4643312958190819", "--b", "0.9771843395825697", "--c", "1.937565049492914",
             "--d", "35.213767701185574", "--x0", "5.563192459176994", "--y0", "1.325847456018371",
             "--method", "hpm", "--order", "92", "--t-end", "70.91234974992943", "--format", "all"),
            "hpm order 92: first integral overflows at t=70.23868242730511",
        ),
    ],
    ids=["taylor-coefficient", "hpm-invariant"],
)
def test_run_overflow_past_the_series_is_a_usage_error_with_no_warning(tmp_path, capsys, args, cause):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", *args, "--out", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr().err == f"error: {cause}\n"
    assert not out.exists()


def test_run_past_an_overflowing_term_of_the_recurrence_succeeds(tmp_path, capsys):
    """Coefficients 149 and 150 are finite although d * conv overflows for them."""
    argv = ("--a", "2", "--b", "8", "--c", "1", "--d", "1000", "--x0", "0.5", "--y0", "2")
    assert _run(tmp_path, *argv, "--order", "150", "--t-end", "1") == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "custom_taylor_order150_report.json") as handle:
        assert json.load(handle)["order"] == 150


def test_run_overflow_on_the_closure_grid_reads_as_not_closed(tmp_path, capsys):
    """Over [0, 1] the order-300 series stays finite; past 1.2 periods it does not, so it does not close."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(tmp_path, "--preset", "case-V", "--order", "300", "--t-end", "1") == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "case-V_taylor_order300_report.json") as handle:
        payload = json.load(handle)
    assert payload["closed_orbit_approx"] is False
    assert payload["closed_orbit_ref"] is True


def test_run_overflowing_vim_iterates_warn_nothing(tmp_path, capsys):
    """VIM's order-320 coefficients leave the double range; only the usage error is reported."""
    out = tmp_path / "out"
    args = ["run", "--preset", "case-I", "--method", "vim", "--order", "320", "--t-end", "0.01"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*args, "--out", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr().err == "error: vim order 320: series coefficient 305 overflows\n"
    assert not out.exists()


def test_run_huge_adomian_approximant_raises_no_warning(tmp_path, capsys):
    assert _run(tmp_path, "--preset", "case-V", "--method", "adomian", "--order", "200") == 0
    assert capsys.readouterr().err == ""


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


def test_verify_overflowing_order_is_a_usage_error(capsys):
    """Both overflows, in the recurrence (400) and on the grid (200), name the preset and order."""
    assert main(["verify", "--orders", "400"]) == 2
    want = "error: case-I: taylor order 400: series coefficient 305 overflows"
    assert capsys.readouterr().err.splitlines()[-1] == want
    assert main(["verify", "--orders", "200"]) == 2
    want = "error: case-I: taylor order 200: series overflows at t=3.4250000000000003"
    assert capsys.readouterr().err.splitlines()[-1] == want


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
    case = preset("case-V")
    ivp = InitialValueProblem(case.params, case.initial, case.t_end)
    report = failure_report(ivp, MethodKind.TAYLOR, 5)
    assert detail == f"period {report.period_estimate:.9f}"
    assert closed is report.closed_orbit_ref is True


def test_verify_with_custom_orders(capsys):
    assert main(["verify", "--orders", "4,8"]) == 0
    assert "orders 4,8 diverge" in capsys.readouterr().out


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


# ``main`` parses with one parser per process; these calls share it.


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_verify_twice_in_one_process_prints_the_same_table(capsys):
    outs = []
    for _ in range(2):
        assert main(["verify"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].endswith("10/10 checks passed\n")


def test_identical_runs_in_one_process_write_identical_files(tmp_path, capsys):
    for out in ("first", "second"):
        assert _run(tmp_path / out, "--preset", "case-V", "--points", "201", "--format", "all") == 0
    first = _files(tmp_path / "first")
    assert len(first) == 4 and first == _files(tmp_path / "second")


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
        build_parser().parse_args(["run", "--help"])
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


def test_build_parser_returns_a_new_parser_every_call():
    first, second = build_parser(), build_parser()
    assert first is not second and cli._parser() not in (first, second)
    first.set_defaults(handler=None)
    assert second.parse_args(["verify"]).handler is cli.cmd_verify
