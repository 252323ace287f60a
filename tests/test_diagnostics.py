"""Failure detectors: divergence time, self-crossing, drift, bundled report."""

import math
import warnings

import numpy as np
import pytest

from lvdiag import (
    InitialValueProblem,
    MethodKind,
    ModelParams,
    NonFiniteError,
    PopulationState,
    PositivityError,
    Trajectory,
    conservation_drift,
    divergence_time,
    failure_report,
    method_series,
    preset,
    sample_series,
    self_intersection,
    solve,
    taylor_coefficients,
)
from lvdiag.diagnostics import _invariant_column

CASE_V = preset("case-V")
CASE_I = preset("case-I")

GRID_10 = np.linspace(0.0, 10.0, 2001)

# Divergence times for delta=1 on [0,10] with 2001 samples, pinned.
T_DIV_I_ORDER_10 = 0.145
T_DIV_V_ORDER_10 = 0.86
# Where the default-order phase curve of the unit case first crosses itself.
CROSSING_V_ORDER_5 = (15, 173, 2.738777975372945, 2.317415878824727)


def _ivp(case, t_end):
    return InitialValueProblem(case.params, case.initial, t_end)


def _series_trajectory(case, order, grid=GRID_10):
    ivp = _ivp(case, float(grid[-1]))
    return ivp, sample_series(taylor_coefficients(ivp, order), grid)


def test_divergence_time_none_for_identical_trajectories():
    ivp = _ivp(CASE_V, 10.0)
    ref = solve(ivp).sample(GRID_10)
    assert divergence_time(ref, ref) is None


def test_divergence_time_pinned_values():
    for case, expected in ((CASE_I, T_DIV_I_ORDER_10), (CASE_V, T_DIV_V_ORDER_10)):
        ivp, approx = _series_trajectory(case, 10)
        ref = solve(ivp).sample(GRID_10)
        assert divergence_time(approx, ref) == expected


def test_divergence_time_monotone_in_delta():
    ivp, approx = _series_trajectory(CASE_V, 8)
    ref = solve(ivp).sample(GRID_10)
    times = [divergence_time(approx, ref, delta) for delta in (0.25, 1.0, 4.0)]
    assert None not in times
    assert times[0] <= times[1] <= times[2]


def test_divergence_time_validation():
    solution = solve(_ivp(CASE_V, 10.0))
    ref = solution.sample(GRID_10)
    other = solution.sample(np.linspace(0.0, 10.0, 1001))
    with pytest.raises(ValueError):
        divergence_time(other, ref)
    with pytest.raises(ValueError):
        divergence_time(ref, ref, delta=0.0)


def test_self_intersection_figure_eight():
    crossing = self_intersection(
        Trajectory([0.0, 1.0, 2.0, 3.0], [-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0])
    )
    assert (crossing.i, crossing.j) == (0, 2)
    assert crossing.point == (0.0, 0.0)


def test_self_intersection_needs_four_samples():
    with pytest.raises(ValueError):
        self_intersection(Trajectory([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0, 0.0]))


def test_self_intersection_convex_loop_is_simple():
    theta = np.linspace(0.0, 2.0 * math.pi, 101)
    circle = Trajectory(np.linspace(0.0, 1.0, 101), np.cos(theta), np.sin(theta))
    assert self_intersection(circle) is None


def test_self_intersection_collinear_backtrack_counts():
    # The last segment retraces part of the first one along y = 0.
    hook = Trajectory(
        [0.0, 1.0, 2.0, 3.0, 4.0],
        [0.0, 2.0, 2.0, 3.0, 1.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
    )
    crossing = self_intersection(hook)
    assert (crossing.i, crossing.j) == (0, 3)
    assert crossing.point == (1.0, 0.0)


def test_self_intersection_collinear_gap_is_simple():
    # A "C" whose two ends lie on one line with a gap between them, in all
    # four orientations: the boxes of the ends are disjoint along the line.
    xs, ys = [2.0, 3.0, 3.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
    for x, y in ((xs, ys), (xs[::-1], ys[::-1]), (ys, xs), (ys[::-1], xs[::-1])):
        assert self_intersection(Trajectory(np.arange(6.0), x, y)) is None


def test_self_intersection_straight_line_is_simple():
    # The order-1 decomposition draws a straight line; segments 0 and 15 are
    # collinear but disjoint, and rounding must not make them meet.
    ivp = _ivp(CASE_I, 20.0)
    line = sample_series(method_series(ivp, MethodKind.ADOMIAN, 1), np.linspace(0.0, 20.0, 2001))
    assert self_intersection(line) is None


def test_self_intersection_invariant_under_similarity():
    ivp, approx = _series_trajectory(CASE_V, 5)
    before = self_intersection(approx)
    moved = Trajectory(approx.t, 1000.0 * approx.x + 50.0, 1000.0 * approx.y - 20.0)
    after = self_intersection(moved)
    assert (before.i, before.j) == (after.i, after.j)


def test_self_intersection_pinned_crossing():
    _, approx = _series_trajectory(CASE_V, 5)
    crossing = self_intersection(approx)
    i, j, x, y = CROSSING_V_ORDER_5
    assert (crossing.i, crossing.j) == (i, j)
    assert crossing.point[0] == pytest.approx(x, rel=1e-12)
    assert crossing.point[1] == pytest.approx(y, rel=1e-12)


def test_reference_orbit_is_simple_over_one_period():
    ivp = _ivp(CASE_V, 10.0)
    period = solve(ivp, find_period=True).period
    window = InitialValueProblem(CASE_V.params, CASE_V.initial, period)
    traj = solve(window).sample(np.linspace(0.0, period, 2001))
    assert self_intersection(traj) is None


@pytest.mark.parametrize(
    "t, x, y, error, message",
    [
        ([], [], [], ValueError, "trajectory needs at least one sample"),
        ([0.0, 1.0], [1.0], [1.0, 2.0], ValueError, "t, x and y must be 1-d arrays of equal length"),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], ValueError, "sample times must be strictly increasing"),
        ([0.0, 1.0], [1.0, 2.0], [1.0, math.nan], NonFiniteError, "trajectory y values must be finite"),
        ([0.0, 1.0], [1.0, math.inf], [1.0, 2.0], NonFiniteError, "trajectory x values must be finite"),
        ([0.0, math.inf], [1.0, 2.0], [1.0, 2.0], NonFiniteError, "trajectory t values must be finite"),
    ],
    ids=["empty", "unequal-lengths", "repeated-time", "nan-y", "inf-x", "inf-t"],
)
def test_trajectory_refuses_malformed_samples(t, x, y, error, message):
    with pytest.raises(error) as excinfo:
        Trajectory(t, x, y)
    assert excinfo.type is error and str(excinfo.value) == message


def test_conservation_drift_constant_trajectory_is_zero():
    flat = Trajectory([0.0, 1.0, 2.0], [3.0, 3.0, 3.0], [2.0, 2.0, 2.0])
    assert conservation_drift(flat, CASE_V.params) == 0.0


def test_conservation_drift_skips_nonpositive_samples():
    traj = Trajectory([0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    assert conservation_drift(traj, CASE_V.params) == 0.0
    # The column it reads is NaN outside the domain, -0.0 and negatives included.
    traj = Trajectory([0.0, 1.0, 2.0, 3.0], [3.0, 0.0, 3.0, -1.0], [2.0, 2.0, -0.0, 2.0])
    assert np.isnan(_invariant_column(CASE_V.params, traj)).tolist() == [False, True, True, True]
    assert conservation_drift(traj, CASE_V.params) == 0.0


def test_conservation_drift_requires_positive_anchor():
    traj = Trajectory([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(PositivityError):
        conservation_drift(traj, CASE_V.params)


def test_conservation_drift_of_an_overflowing_invariant_is_nonfinite_not_a_warning():
    # d * x overflows at t = 1, so the invariant there is -inf.
    traj = Trajectory([0.0, 1.0, 2.0], [1.0, 1e307, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(NonFiniteError, match=r"^first integral overflows at t=1\.0$"):
        conservation_drift(traj, ModelParams(1.0, 1.0, 1.0, 100.0))


@pytest.mark.parametrize(
    "x, y, rates",
    [
        ([1.0, 1e307], [1.0, 1.0], (1.0, 1.0, 1.0, 100.0)),  # d * x is -inf
        ([1.0, 1e-300], [1.0, 1e300], (1e308, 1.0, 1e308, 1.0)),  # -inf + inf is NaN
    ],
    ids=["d-x-is-inf", "inf-minus-inf"],
)
def test_an_overflowing_invariant_is_refused_with_no_warning(x, y, rates):
    """The column and the drift read from it name the first sample whose C is not finite."""
    traj = Trajectory([0.0, 1.0], x, y)
    p = ModelParams(*rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"^first integral overflows at t=1\.0$"):
            _invariant_column(p, traj)
        with pytest.raises(NonFiniteError, match=r"^first integral overflows at t=1\.0$"):
            conservation_drift(traj, p)


def test_a_drift_past_the_double_range_names_its_time():
    """C is about 1e308 at the start and -1e308 at t = 2: both finite, their difference not."""
    traj = Trajectory([0.0, 1.0, 2.0, 3.0], [math.e, 1.0, 1.0 / math.e, 1.0], [1.0, 1.0, 1.0, 1.0])
    p = ModelParams(1e308, 1.0, 1e308, 1.0)
    assert np.isfinite(_invariant_column(p, traj)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"^first integral overflows at t=2\.0$"):
            conservation_drift(traj, p)


def test_series_drift_dwarfs_the_reference_drift():
    short = _ivp(CASE_V, 3.0)
    grid = np.linspace(0.0, 3.0, 601)
    ref_drift = conservation_drift(solve(short).sample(grid), CASE_V.params)
    series_drift = conservation_drift(
        sample_series(taylor_coefficients(short, 10), grid), CASE_V.params
    )
    assert series_drift > 1e3 * ref_drift


def test_failure_report_unit_case_order_5():
    report = failure_report(_ivp(CASE_V, 10.0), MethodKind.TAYLOR, 5)
    assert report.method is MethodKind.TAYLOR
    assert report.order == 5
    assert report.divergence_time == 1.0050000000000001
    assert report.max_invariant_drift == pytest.approx(159.46149033337852, rel=1e-9)
    assert report.max_invariant_drift_ref <= 1e-8
    assert (report.self_intersection.i, report.self_intersection.j) == (15, 173)
    assert report.closed_orbit_ref is True
    assert report.closed_orbit is False
    assert report.period_estimate == pytest.approx(7.603020304410167, abs=1e-8)
    assert report.excluded_samples == 1571


def test_failure_report_large_amplitude_case_order_5():
    report = failure_report(_ivp(CASE_I, 10.0), MethodKind.TAYLOR, 5)
    assert report.divergence_time == 0.12
    assert report.period_estimate is None
    assert report.closed_orbit_ref is False
    assert report.closed_orbit is False
    assert report.self_intersection is None
    assert report.excluded_samples == 1986


@pytest.mark.parametrize(
    "eps, orders, holds",
    [(2.0, (20, 40), False), (0.1, (20, 40), False), (3e-4, (40,), True)],
)
def test_the_claim_holds_where_the_orbit_outruns_the_series(eps, orders, holds):
    """On unit rates from (1 + eps, 1), every scheme leaves the reference by
    delta = 1e-3 within one period T and fails to close on a wide orbit; on one
    within 3e-4 of the centre, the order-40 approximants follow it and close."""
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    start = PopulationState(1.0 + eps, 1.0)
    period = solve(InitialValueProblem(p, start, 10.0), find_period=True).period
    ivp = InitialValueProblem(p, start, period)
    for order in orders:
        for method in MethodKind:
            report = failure_report(ivp, method, order, delta=1e-3)
            assert report.closed_orbit_ref is True
            if holds:
                assert report.divergence_time is None and report.closed_orbit, (method, order)
            else:
                assert report.divergence_time < period and not report.closed_orbit, (method, order)


def test_failure_report_decoupled_high_order_is_clean():
    ivp = InitialValueProblem(preset("decoupled").params, PopulationState(1.0, 1.0), 1.0)
    report = failure_report(ivp, MethodKind.TAYLOR, 30)
    assert report.divergence_time is None
    assert report.period_estimate is None
    assert report.self_intersection is None
    assert report.excluded_samples == 0
    assert report.max_invariant_drift <= 1e-12


def test_failure_report_on_huge_finite_approximants_raises_no_warning():
    """Overflowing closure distances are dropped; overflowing samples are non-finite."""
    report = failure_report(_ivp(CASE_V, 10.0), MethodKind.TAYLOR, 150)
    assert report.closed_orbit_ref is True
    assert report.closed_orbit is False
    with pytest.raises(NonFiniteError):
        failure_report(_ivp(CASE_I, 10.0), MethodKind.TAYLOR, 160)


def test_failure_report_validation():
    ivp = _ivp(CASE_V, 10.0)
    with pytest.raises(ValueError):
        failure_report(ivp, MethodKind.TAYLOR, 5, points=1)
    with pytest.raises(ValueError, match="need at least 4 grid points, got 3"):
        failure_report(ivp, MethodKind.TAYLOR, 5, points=3)
    # np.linspace would raise TypeError on these.
    for bad in (4.5, math.inf):
        with pytest.raises(ValueError, match=f"need at least 4 grid points, got {bad}"):
            failure_report(ivp, MethodKind.TAYLOR, 5, points=bad)
