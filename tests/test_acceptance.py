"""End-to-end acceptance checks.

Each test covers one headline claim at its stated tolerance and prints a
single PASS/FAIL line with the measured numbers (visible under pytest -s),
then asserts it.  Pinned regression values come from independent runs noted
next to each constant.
"""

import math

import numpy as np

from lvdiag import (
    InitialValueProblem,
    ModelParams,
    PopulationState,
    conservation_drift,
    divergence_time,
    methods_agree,
    preset,
    sample_series,
    self_intersection,
    solve,
    taylor_coefficients,
    vim_iterates,
)
from lvdiag.cli import main as cli_main
from lvdiag.diagnostics import _closes

CASE_V = preset("case-V")
CASE_I = preset("case-I")

# Orbit period of the unit case from (3,2); rel_tol=1e-12 pinned run.
PERIOD_V = 7.603020304410167
# Series-vs-reference invariant drift ratio on [0,3], 601 samples, pinned.
DRIFT_RATIO_V_ORDER_5 = 4586243571955.37

SWEEP_ORDERS = (4, 8, 12, 16, 20)


def _ivp(case, t_end):
    return InitialValueProblem(case.params, case.initial, t_end)


def _report(number, name, ok, detail):
    print(f"[{number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_first_order_coefficients_bitwise():
    sol_i = taylor_coefficients(_ivp(CASE_I, 10.0), 1)
    sol_v = taylor_coefficients(_ivp(CASE_V, 10.0), 1)
    ok = (
        sol_i.x_coeffs[1] == 14.0 * (1.0 - 1.0 * 18.0) == -238.0
        and sol_i.y_coeffs[1] == 18.0 * (1.0 * 14.0 - 0.1) == 250.20000000000002
        and sol_v.x_coeffs[1] == -3.0
        and sol_v.y_coeffs[1] == 4.0
    )
    _report(
        1,
        "first-order coefficients bitwise",
        ok,
        f"case-I ({sol_i.x_coeffs[1]}, {sol_i.y_coeffs[1]}), "
        f"case-V ({sol_v.x_coeffs[1]}, {sol_v.y_coeffs[1]})",
    )


def test_criterion_2_method_equivalence_orders_1_to_20():
    worst_overall = 0.0
    ok = True
    for case in (CASE_I, CASE_V):
        ivp = _ivp(case, 10.0)
        for order in range(1, 21):
            tol = 1e-10 if case is CASE_I and order > 15 else 1e-12
            agreement = methods_agree(ivp, order)[-1]
            worst_overall = max(worst_overall, agreement.worst())
            if agreement.worst() > tol:
                ok = False
            # The variational iterate must agree through its iteration order.
            xk, yk = vim_iterates(ivp, order)[-1]
            tay = taylor_coefficients(ivp, order)
            gap = max(
                float(np.max(np.abs(xk[: order + 1] - tay.x_coeffs))),
                float(np.max(np.abs(yk[: order + 1] - tay.y_coeffs))),
            )
            if gap > tol * float(np.max(np.abs(tay.x_coeffs))):
                ok = False
    _report(2, "adomian/hpm/vim match the series", ok, f"worst deviation {worst_overall:.3e}")


def test_criterion_3_reference_conserves_the_invariant():
    drifts = {}
    for name, case, horizon in (("case-V", CASE_V, 50.0), ("case-I", CASE_I, 10.0)):
        window = _ivp(case, horizon)
        traj = solve(window).sample(np.linspace(0.0, horizon, 5001))
        drifts[name] = conservation_drift(traj, case.params)
    ok = all(d <= 1e-8 for d in drifts.values())
    _report(
        3,
        "invariant drift of the reference below 1e-8",
        ok,
        f"case-V [0,50] {drifts['case-V']:.3e}, case-I [0,10] {drifts['case-I']:.3e}",
    )


def test_criterion_4_closed_orbit_and_pinned_period():
    ivp = _ivp(CASE_V, 10.0)
    period = solve(ivp, find_period=True).period
    closes = _closes(solve(_ivp(CASE_V, 1.2 * period)).sample, period)
    one_period = solve(_ivp(CASE_V, period)).sample(np.linspace(0.0, period, 2001))
    crossing = self_intersection(one_period)
    ok = closes and crossing is None and abs(period - PERIOD_V) <= 1e-8
    _report(
        4,
        "reference orbit closes and stays simple",
        ok,
        f"period {period!r} (pin {PERIOD_V}), returns within 1e-6: {closes}, "
        f"crossing: {crossing}",
    )


def test_criterion_5_series_diverges_on_the_large_orbit():
    ivp = _ivp(CASE_I, 10.0)
    grid = np.linspace(0.0, 10.0, 2001)
    reference = solve(ivp).sample(grid)
    times = {}
    for order in SWEEP_ORDERS:
        approx = sample_series(taylor_coefficients(ivp, order), grid)
        times[order] = divergence_time(approx, reference, delta=1.0)
    ok = all(t is not None and t < 10.0 for t in times.values())
    detail = ", ".join(f"N={o}: {t}" for o, t in times.items())
    _report(5, "case-I divergence before t=10 for all sweep orders", ok, detail)


def test_criterion_6_series_phase_curve_crosses_itself():
    order = 5
    ivp = _ivp(CASE_V, 10.0)
    grid = np.linspace(0.0, 10.0, 2001)
    crossing = self_intersection(sample_series(taylor_coefficients(ivp, order), grid))
    period = solve(ivp, find_period=True).period
    reference_loop = solve(_ivp(CASE_V, period)).sample(np.linspace(0.0, period, 2001))
    ref_crossing = self_intersection(reference_loop)
    short = _ivp(CASE_V, 3.0)
    grid3 = np.linspace(0.0, 3.0, 601)
    ref_drift = conservation_drift(solve(short).sample(grid3), CASE_V.params)
    series_drift = conservation_drift(
        sample_series(taylor_coefficients(short, order), grid3), CASE_V.params
    )
    ratio = series_drift / ref_drift
    ok = (
        crossing is not None
        and ref_crossing is None
        and ratio > 1e3
        and abs(ratio - DRIFT_RATIO_V_ORDER_5) <= 1e-3 * DRIFT_RATIO_V_ORDER_5
    )
    _report(
        6,
        f"order-{order} phase curve crosses itself, reference does not",
        ok,
        f"crossing {crossing}, reference crossing {ref_crossing}, drift ratio {ratio:.3e}",
    )


def test_criterion_7_near_centre_period_is_2pi():
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    start = PopulationState(1.0 + 1e-4, 1.0)
    period = solve(InitialValueProblem(p, start, 10.0), find_period=True).period
    gap = abs(period - 2.0 * math.pi)
    _report(7, "linearised period 2*pi near the centre", gap <= 1e-3, f"|T - 2pi| = {gap:.3e}")


def test_criterion_8_decoupled_case_is_exact():
    dec = preset("decoupled")
    ivp = InitialValueProblem(dec.params, dec.initial, 1.0)
    traj = solve(ivp).sample(np.array([0.0, 1.0]))
    end_gap = max(abs(traj.x[-1] - math.e), abs(traj.y[-1] - math.exp(-1.0)))
    sol = taylor_coefficients(ivp, 20)
    coeff_gap = 0.0
    for n in range(21):
        expected = 1.0 / math.factorial(n)
        coeff_gap = max(
            coeff_gap,
            abs(sol.x_coeffs[n] - expected) / expected,
            abs(sol.y_coeffs[n] - (-1.0) ** n * expected) / expected,
        )
    ok = end_gap <= 1e-9 and coeff_gap <= 1e-14
    _report(
        8,
        "decoupled case matches the exponential solution",
        ok,
        f"endpoint error {end_gap:.3e}, coefficient error {coeff_gap:.3e}",
    )


def test_criterion_9_runs_are_deterministic(tmp_path, capsys):
    out = tmp_path / "run"
    flags = [
        "run", "--preset", "case-V", "--format", "all", "--points", "501",
        "--out", str(out),
    ]
    assert cli_main(flags) == 0
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    assert cli_main(flags) == 0
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    capsys.readouterr()
    identical = first == second
    _report(
        9,
        "repeated runs are byte-identical",
        identical and len(first) == 4,
        f"{len(first)} files compared",
    )


def _verify_gate(capsys):
    code = cli_main(["verify"])
    out = capsys.readouterr().out
    print(out)
    return code


def test_verification_command_is_green(capsys):
    assert _verify_gate(capsys) == 0
