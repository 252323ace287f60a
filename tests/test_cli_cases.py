"""The command line's cases, one row each, every row run twice in one process.

``CASES`` is the table: each row is an argv without ``--out``, its exit
code, what it prints on stderr, the files it writes and any report fields it
pins, with a one-line reason.  ``test_case`` calls ``main`` twice per row,
each time into a fresh directory, and checks the row's expectations and that
identical flags give identical bytes: the exit code, stdout with the output
directory masked, stderr apart from ``verify``'s timing lines, and every file
written.  A non-zero exit writes no directory, and any warning is an error.

To add a case, append a row.  ``stderr`` is the exact last line of stderr,
``stderr_has`` a substring of it, and with neither stderr must be empty
apart from ``verify``'s timing lines.  Exit codes are written as numbers,
not as ``cli``'s constants, so that a changed constant fails its rows.
"""

import argparse
import json
import re
import warnings
from typing import NamedTuple

import pytest

from lvdiag import MethodKind
from lvdiag.cli import _parser, main


class Case(NamedTuple):
    name: str
    argv: tuple
    why: str
    code: int = 0
    stderr: str | None = None
    stderr_has: str | None = None
    stdout_has: str | None = None
    writes: tuple = ()
    report: dict = {}


_SUFFIXES = {
    "csv": ("phase.csv", "report.json", "timeseries.csv"),
    "json": ("report.json",),
    "svg": ("phase.svg", "report.json"),
    "all": ("phase.csv", "phase.svg", "report.json", "timeseries.csv"),
}


def _files(base, fmt="csv"):
    """The names ``run --format fmt`` writes for ``base``, ``<case>_<method>_order<N>``."""
    return tuple(f"{base}_{suffix}" for suffix in _SUFFIXES[fmt])


METHODS = [kind.value for kind in MethodKind]
UNIT_RATES = ("--a", "1", "--b", "1", "--c", "1", "--d", "1")
D_1000 = ("--a", "2", "--b", "8", "--c", "1", "--d", "1000", "--x0", "0.5", "--y0", "2")
NO_PERIOD = {"period_estimate": None, "closed_orbit_ref": False}
DECOUPLED_NULLS = {**NO_PERIOD, "divergence_time": None, "self_intersection": None}

VERIFY_CASES = [
    Case(
        "verify", ("verify",), "the paper's claims as a table; its timings go to stderr only",
        stdout_has="10/10 checks passed\n",
    ),
    Case(
        "verify-4,8", ("verify", "--orders", "4,8"), "custom orders name themselves in the divergence rows",
        stdout_has="orders 4,8 diverge",
    ),
    Case(
        "verify-0,150", ("verify", "--orders", "0,150"),
        "case-I's order-150 coefficients bound the series at 1.5e301, above the 1e300 that certifies "
        "it finite, so it is read on the whole grid",
    ),
    Case(
        "verify-20,4,0", ("verify", "--orders", "20,4,0"),
        "order 0 departs at t = 9.215 on case-I and 1.620 on case-V, past the first 256 grid points, "
        "so it takes the whole-grid read on both presets",
    ),
    Case(
        "verify-200", ("verify", "--orders", "200"),
        "order 200 overflows on the whole grid, past its departure at t = 0.105: a usage error that "
        "names the first overflowing time",
        code=2, stderr="error: case-I: taylor order 200: series overflows at t=3.4250000000000003",
    ),
    Case(
        "verify-400", ("verify", "--orders", "400"), "the recurrence itself overflows from coefficient 305 on",
        code=2, stderr="error: case-I: taylor order 400: series coefficient 305 overflows",
    ),
    Case(
        "verify-310,400", ("verify", "--orders", "310,400"),
        "where the one build to the highest order overflows, each order is built on its own",
        code=2, stderr="error: case-I: taylor order 310: series coefficient 305 overflows",
    ),
    Case(
        "verify-400,310", ("verify", "--orders", "400,310"),
        "the error names the first overflowing order in list order, not the build to 400",
        code=2, stderr="error: case-I: taylor order 400: series coefficient 305 overflows",
    ),
    Case(
        "verify-4,310,8", ("verify", "--orders", "4,310,8"), "an overflowing order between two good ones",
        code=2, stderr="error: case-I: taylor order 310: series coefficient 305 overflows",
    ),
    Case(
        "verify-4,x", ("verify", "--orders", "4,x"), "the order list's parser names its flag",
        code=2, stderr="lvdiag verify: error: argument --orders: expected comma-separated integers, got '4,x'",
    ),
    Case(
        "verify-negative", ("verify", "--orders", "-1"), "orders are non-negative",
        code=2, stderr="lvdiag verify: error: argument --orders: orders must be non-negative integers, got '-1'",
    ),
]

# Every scheme on every preset and on a custom problem: taylor, the ADM/HPM
# cascade and the VIM iterates.
SCHEME_CASES = [
    *(
        Case(
            f"{case}-{method}", ("run", "--preset", case, "--method", method, "--format", "all"), why,
            writes=_files(f"{case}_{method}_order5", "all"), report=report,
        )
        for method in METHODS
        for case, why, report in (
            ("case-I", "the series leaves the invariant's domain, so its tables also hold empty cells", {}),
            ("case-V", "the periodic preset", {}),
            ("decoupled", "no period is found, so the report holds nulls", DECOUPLED_NULLS),
        )
    ),
    *(
        Case(
            f"case-V-t-end-25-{method}",
            ("run", "--preset", "case-V", "--t-end", "25", "--points", "501", "--method", method, "--format", "all"),
            "past 1.2 periods, so the pass ends at the problem's horizon",
            writes=_files(f"case-V_{method}_order5", "all"),
        )
        for method in METHODS
    ),
    *(
        Case(
            f"custom-{method}",
            ("run", "--a", "1.5", "--b", "0.75", "--c", "2", "--d", "0.5", "--x0", "3", "--y0", "1.25",
             "--method", method, "--format", "all"),
            "the --a/--b/--c/--d/--x0/--y0 path instead of a preset",
            writes=_files(f"custom_{method}_order5", "all"),
        )
        for method in METHODS
    ),
]

EDGE_CASES = [
    Case(
        "case-V-order-0", ("run", "--preset", "case-V", "--order", "0", "--format", "all"),
        "the order-0 approximant is constant at its start: it never leaves the closure ball, "
        "so it must read as not closed",
        writes=_files("case-V_taylor_order0", "all"), report={"closed_orbit_approx": False},
    ),
    Case(
        "case-V-order-300", ("run", "--preset", "case-V", "--order", "300", "--t-end", "1", "--format", "all"),
        "over [0, 1] the series is finite; it overflows inside the closure window [0.5 T, 1.2 T], "
        "so it reads as not closed",
        writes=_files("case-V_taylor_order300", "all"),
        report={"closed_orbit_approx": False, "closed_orbit_ref": True},
    ),
    Case(
        "case-V-vim-80", ("run", "--preset", "case-V", "--method", "vim", "--order", "80", "--t-end", "1",
                          "--format", "all"),
        "VIM runs its iteration past the degree-64 cap",
        writes=_files("case-V_vim_order80", "all"),
    ),
    Case(
        "b-zero", ("run", "--a", "1", "--b", "0", "--c", "1", "--d", "1", "--x0", "2", "--y0", "1", "--t-end", "1",
                   "--format", "all"),
        "b = 0 closes no orbit, so no period search runs past t_end, where the exponential blows up "
        "near t = 5.88",
        writes=_files("custom_taylor_order5", "all"), report=NO_PERIOD,
    ),
    Case(
        "d-zero", ("run", "--a", "1", "--b", "1", "--c", "1", "--d", "0", "--x0", "2", "--y0", "1", "--t-end", "1",
                   "--format", "all"),
        "d = 0 closes no orbit either, so no period search runs past t_end",
        writes=_files("custom_taylor_order5", "all"), report=NO_PERIOD,
    ),
    Case(
        "b-zero-vim", ("run", "--a", "1", "--b", "0", "--c", "1", "--d", "1", "--x0", "2", "--y0", "1",
                       "--t-end", "1", "--method", "vim", "--order", "20", "--format", "all"),
        "VIM keeps zero prey terms up to each iterate's degree, so its products take those zeros "
        "into their dot products",
        writes=_files("custom_vim_order20", "all"),
    ),
    Case(
        "case-I-t-end-400", ("run", "--preset", "case-I", "--t-end", "400", "--format", "all"),
        "the return at T = 326.8 lies past the search window 100/sqrt(ac) = 316.2, yet the report "
        "holds a closed reference",
        writes=_files("case-I_taylor_order5", "all"), report={"closed_orbit_ref": True},
    ),
    Case(
        "tiny-rates", ("run", "--a", "1e-300", "--b", "1", "--c", "1e-300", "--d", "1", "--x0", "1", "--y0", "1",
                       "--format", "all"),
        "a*c underflows and the search window is 1e302; the step floor follows t_end alone, so the "
        "pass steps across it and the report holds no period",
        writes=_files("custom_taylor_order5", "all"), report=NO_PERIOD,
    ),
    Case(
        "rates-1e-20", ("run", "--a", "1e-20", "--b", "1", "--c", "1e-20", "--d", "1", "--x0", "1", "--y0", "1",
                        "--format", "json"),
        "a*c nearly underflows: the search window 1e22 cannot trip the step floor either",
        writes=_files("custom_taylor_order5", "json"), report=NO_PERIOD,
    ),
    Case(
        "slow-rates", ("run", "--a", "1e-5", "--b", "1", "--c", "1e-5", "--d", "1", "--x0", "2e-5", "--y0", "1e-5",
                       "--format", "all"),
        "the orbit returns at T = 660848.267, past 2**19, where adjacent doubles lie further apart "
        "than the period bisection's 1e-10: it stops at neighbours",
        writes=_files("custom_taylor_order5", "all"),
    ),
    Case(
        "points-4", ("run", "--preset", "case-V", "--points", "4", "--format", "all"),
        "the fewest samples a self-crossing needs; few grid points per reference step",
        writes=_files("case-V_taylor_order5", "all"),
    ),
    Case(
        "points-3", ("run", "--preset", "case-V", "--points", "3"),
        "fewer samples than a self-crossing needs are refused before any work",
        code=2, stderr="error: need at least 4 grid points, got 3",
    ),
    Case(
        "points-5001", ("run", "--preset", "case-V", "--points", "5001", "--t-end", "3", "--format", "all"),
        "many grid points per reference step",
        writes=_files("case-V_taylor_order5", "all"),
    ),
    Case(
        "points-201", ("run", "--preset", "case-V", "--points", "201", "--format", "all"),
        "the periodic preset on a coarse grid",
        writes=_files("case-V_taylor_order5", "all"),
    ),
    Case(
        "d-1000-order-150", ("run", *D_1000, "--order", "150", "--t-end", "1", "--format", "all"),
        "coefficients 149 and 150 are finite only through the retry on scaled operands, where "
        "d * conv overflows",
        writes=_files("custom_taylor_order150", "all"), report={"order": 150},
    ),
    Case(
        "d-1000-order-151", ("run", *D_1000, "--order", "151", "--t-end", "1"),
        "a Taylor coefficient whose fsum overflows: a usage error, with no RuntimeWarning",
        code=2, stderr="error: taylor order 151: series coefficient 151 overflows",
    ),
    *(
        Case(
            f"case-V-{method}-1000", ("run", "--preset", "case-V", "--method", method, "--order", "1000",
                                      "--t-end", "1", "--format", "all"),
            "the O(order^2) scalar cascade; the approximant is finite over [0, 1] and leaves the "
            "invariant's domain there",
            writes=_files(f"case-V_{method}_order1000", "all"),
        )
        for method in ("adomian", "hpm")
    ),
    *(
        Case(
            f"case-V-{method}-3000", ("run", "--preset", "case-V", "--method", method, "--order", "3000",
                                      "--t-end", "1"),
            "the coefficients overflow from 2306 on, named without building an (order + 1)^2 array",
            code=2, stderr=f"error: {method} order 3000: series coefficient 2306 overflows",
        )
        for method in ("adomian", "hpm")
    ),
    Case(
        "case-V-adomian-200", ("run", "--preset", "case-V", "--method", "adomian", "--order", "200"),
        "a huge ADM approximant is written with no RuntimeWarning",
        writes=_files("case-V_adomian_order200"),
    ),
    Case(
        "case-I-vim-320", ("run", "--preset", "case-I", "--method", "vim", "--order", "320", "--t-end", "0.01"),
        "VIM's iterates leave the double range; only the usage error is reported",
        code=2, stderr="error: vim order 320: series coefficient 305 overflows",
    ),
    *(
        Case(
            f"case-I-taylor-{order}", ("run", "--preset", "case-I", "--method", "taylor", "--order", order),
            "the recurrence itself overflows from coefficient 305 on; the message names the scheme",
            code=2, stderr=f"error: taylor order {order}: series coefficient 305 overflows",
        )
        for order in ("305", "400")
    ),
    Case(
        "case-I-adomian-400", ("run", "--preset", "case-I", "--method", "adomian", "--order", "400"),
        "ADM's coefficients from 305 on are inf: the first one is named, not a time",
        code=2, stderr="error: adomian order 400: series coefficient 305 overflows",
    ),
    Case(
        "case-I-taylor-300", ("run", "--preset", "case-I", "--method", "taylor", "--order", "300"),
        "every coefficient is finite, but the polynomial overflows on the grid",
        code=2, stderr="error: taylor order 300: series overflows at t=1.055",
    ),
    Case(
        "hpm-92", ("run", "--a", "0.4643312958190819", "--b", "0.9771843395825697", "--c", "1.937565049492914",
                   "--d", "35.213767701185574", "--x0", "5.563192459176994", "--y0", "1.325847456018371",
                   "--method", "hpm", "--order", "92", "--t-end", "70.91234974992943", "--format", "all"),
        "the approximant is finite on the grid but its first integral is not: the report would hold "
        "Infinity, which JSON cannot",
        code=2, stderr="error: hpm order 92: first integral overflows at t=70.23868242730511",
    ),
]

NUMERIC_CASES = [
    Case(
        "blow-up", ("run", "--a", "1", "--b", "0", "--c", "1", "--d", "0", "--x0", "1", "--y0", "1",
                    "--t-end", "800"),
        "exponential growth leaves the double range",
        code=3, stderr_has="numeric failure: state left the finite range near t=",
    ),
    *(
        Case(
            f"start-{x0}-{y0}", ("run", *UNIT_RATES, "--x0", x0, "--y0", y0),
            "the squared scaled field at the start overflows the initial-step estimate",
            code=3, stderr=f"numeric failure: the field at the start {shown} is too large to take a first step",
        )
        for x0, y0, shown in (("1e145", "1", "(1e+145, 1.0)"), ("1e300", "1", "(1e+300, 1.0)"),
                              ("1", "1e300", "(1.0, 1e+300)"))
    ),
    *(
        Case(
            f"start-field-{x0}-{y0}", ("run", "--a", "1", "--b", b, "--c", "1", "--d", "1", "--x0", x0, "--y0", y0,
                                       "--t-end", "1"),
            "the field at the start overflows, or is too large to square, so no first step can be sized",
            code=3, stderr=f"numeric failure: the field at the start {cause}",
        )
        for b, x0, y0, cause in (
            ("1", "1e307", "1", "(1e+307, 1.0) is too large to take a first step"),
            ("1", "1e300", "1e-300", "(1e+300, 1e-300) is too large to take a first step"),
            ("1e10", "1", "1e300", "(1.0, 1e+300) is not finite"),
        )
    ),
    Case(
        "horizon-1e12", ("run", "--a", "1000", "--b", "1000", "--c", "1000", "--d", "1000", "--x0", "10",
                         "--y0", "10", "--t-end", "1e12"),
        "the step floor is 1e-14 of the horizon, so a long enough window alone trips it",
        code=3, stderr_has="fell below 0.01, 1e-14 of the horizon 1e+12, at t=0.0; shorten the horizon",
    ),
]

FLAG_CASES = [
    Case(
        "decoupled-default", ("run", "--preset", "decoupled", "--points", "101"),
        "the default format writes both CSV tables next to the report",
        writes=_files("decoupled_taylor_order5"),
    ),
    Case(
        "decoupled-csv", ("run", "--preset", "decoupled", "--points", "101", "--format", "csv"),
        "an explicit --format csv writes what the default does",
        writes=_files("decoupled_taylor_order5"),
    ),
    Case(
        "decoupled-json", ("run", "--preset", "decoupled", "--points", "101", "--format", "json"),
        "--format json writes the report only",
        writes=_files("decoupled_taylor_order5", "json"),
    ),
    Case(
        "case-V-svg", ("run", "--preset", "case-V", "--format", "svg"),
        "--format svg writes the report and the phase portrait only",
        writes=_files("case-V_taylor_order5", "svg"),
    ),
    Case(
        "custom-uncoupled", ("run", "--a", "1.0", "--b", "0.0", "--c", "1.0", "--d", "0.0", "--x0", "2.0",
                             "--y0", "3.0", "--t-end", "1.0", "--points", "51"),
        "a custom problem with b = d = 0",
        writes=_files("custom_taylor_order5"),
    ),
    Case(
        "case-V-delta-0.5", ("run", "--preset", "case-V", "--delta", "0.5", "--format", "json"),
        "a smaller divergence threshold is crossed sooner than the default's t = 1.005",
        writes=_files("case-V_taylor_order5", "json"), report={"divergence_time": 0.855},
    ),
    Case(
        "case-V-tolerances", ("run", "--preset", "case-V", "--rel-tol", "1e-8", "--abs-tol", "1e-10",
                              "--format", "json"),
        "looser reference tolerances move the period's last digits (7.603020304452251 at the defaults)",
        writes=_files("case-V_taylor_order5", "json"), report={"period_estimate": 7.603020303367432},
    ),
    Case(
        "rel-tol-2", ("run", "--preset", "case-V", "--rel-tol", "2"),
        "tolerances are refused outside (0, 1)",
        code=2, stderr="error: tolerances must lie in (0, 1), got rel_tol=2.0, abs_tol=1e-12",
    ),
]

USAGE_CASES = [
    Case(
        "preset-and-custom", ("run", "--preset", "case-V", "--a", "1.0"), "a preset takes no custom flag",
        code=2, stderr="error: --preset conflicts with --a",
    ),
    Case(
        "unknown-preset", ("run", "--preset", "case-X"), "an unknown preset lists the known ones",
        code=2, stderr="error: unknown preset 'case-X'; available presets: case-I, case-V, decoupled",
    ),
    Case(
        "custom-missing", ("run", "--a", "1.0", "--b", "0.0"), "a custom problem needs all six numbers",
        code=2, stderr="error: give either --preset or all of --a/--b/--c/--d/--x0/--y0 "
        "(missing: --c, --d, --x0, --y0)",
    ),
    Case(
        "no-problem", ("run",), "run needs a problem",
        code=2, stderr="error: give either --preset or all of --a/--b/--c/--d/--x0/--y0 "
        "(missing: --a, --b, --c, --d, --x0, --y0)",
    ),
    Case(
        "negative-order", ("run", "--preset", "case-V", "--order", "-1"), "each refusal of a flag names it",
        code=2, stderr="lvdiag run: error: argument --order: must be a non-negative integer, got -1",
    ),
    Case(
        "order-x", ("run", "--order", "x"), "each refusal of a flag names it",
        code=2, stderr="lvdiag run: error: argument --order: expected an integer, got 'x'",
    ),
    Case(
        "a-foo", ("run", "--a", "foo"), "each refusal of a flag names it",
        code=2, stderr="lvdiag run: error: argument --a: expected a number, got 'foo'",
    ),
    Case(
        "x0-zero", ("run", *UNIT_RATES, "--y0", "2", "--x0", "0"), "a start must be positive",
        code=2, stderr="lvdiag run: error: argument --x0: must be a positive finite number, got 0.0",
    ),
]

CASES = VERIFY_CASES + SCHEME_CASES + EDGE_CASES + NUMERIC_CASES + FLAG_CASES + USAGE_CASES

_TIMING = re.compile(r"verify: \S+ \d+\.\d ms\n")


def _call(argv, directory, capsys):
    """One ``main`` call: (exit code, stdout with the out dir masked, untimed stderr, files or None)."""
    out = directory / "out"
    if argv[0] == "run":
        argv = (*argv, "--out", str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.exists() else None
    return code, captured.out.replace(str(out), "<out>"), _TIMING.sub("", captured.err), files


def test_case_names_are_unique():
    assert len({case.name for case in CASES}) == len(CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_case(case, tmp_path, capsys):
    first = _call(case.argv, tmp_path / "first", capsys)
    assert _call(case.argv, tmp_path / "second", capsys) == first
    code, out, err, files = first
    assert code == case.code
    if case.stderr is not None:
        assert err.splitlines()[-1] == case.stderr
    elif case.stderr_has is not None:
        assert case.stderr_has in err
    else:
        assert err == ""
    if code != 0:
        assert files is None
    if case.argv[0] == "run":
        assert sorted(files or ()) == sorted(case.writes)
        assert sorted(out.splitlines()) == sorted(f"<out>/{name}" for name in case.writes)
    if case.stdout_has is not None:
        assert case.stdout_has in out
    if case.report:
        (report,) = (json.loads(data) for name, data in files.items() if name.endswith("_report.json"))
        assert {field: report[field] for field in case.report} == case.report


def test_every_option_is_in_a_case():
    """Every option of ``run`` and ``verify`` is passed by some row, apart from
    help and the ``--out`` that the runner adds."""
    (commands,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    passed = {arg for case in CASES for arg in case.argv}
    missing = [
        (command, option)
        for command, parser in commands.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help", "--out") and option not in passed
    ]
    assert missing == []
