"""Adaptive reference integrator: accuracy, dense output, period, closure."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.integrate import solve_ivp

from lvdiag import (
    DivergenceError,
    InitialValueProblem,
    IntegratorConfig,
    MethodKind,
    ModelParams,
    PopulationState,
    Trajectory,
    conservation_drift,
    failure_report,
    preset,
    sample_series,
    solve,
)
from lvdiag.diagnostics import _closes
from lvdiag.integrate import _start_section
from lvdiag.series import taylor_coefficients
from test_series import problems

CASE_V = preset("case-V")
CASE_I = preset("case-I")

# Orbit period for (1,1,1,1) from (3,2), pinned from a rel_tol=1e-12 run.
PERIOD_V = 7.603020304410167
# Prey minimum of the large-amplitude case on [0,10], same pinned source.
CASE_I_MIN_X = 1.271428665778048e-84

TIGHT = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=2.0)


def test_decoupled_case_is_exact_exponentials():
    ivp = replace(preset("decoupled"), t_end=1.0)
    traj = solve(ivp).sample(np.linspace(0.0, 1.0, 11))
    assert abs(traj.x[-1] - math.e) <= 1e-9
    assert abs(traj.y[-1] - 1.0 / math.e) <= 1e-9
    np.testing.assert_allclose(traj.x, np.exp(traj.t), rtol=1e-10)
    np.testing.assert_allclose(traj.y, np.exp(-traj.t), rtol=1e-10)


def test_initial_sample_is_bitwise_the_initial_state():
    traj = solve(replace(CASE_V, t_end=10.0)).sample(np.linspace(0.0, 10.0, 21))
    assert traj.x[0] == 3.0
    assert traj.y[0] == 2.0


def test_invariant_residuals_stay_small_over_long_window():
    ivp = replace(CASE_V, t_end=20.0)
    traj = solve(ivp).sample(np.linspace(0.0, 20.0, 2001))
    assert conservation_drift(traj, CASE_V.params) <= 1e-8


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(problems())
def test_drift_over_one_period_scales_with_rel_tol(ivp):
    """Over one period, at rel_tol 1e-6, 1e-8 and 1e-10 (abs_tol 1e-12), the
    reference's invariant drift stays below

        10 * rel_tol * max over the orbit of (c*|ln x| + a*|ln y| + d*x + b*y),

    rel_tol times the largest magnitude of the invariant's terms.  The error
    control is relative on the log populations, so each term's error scales
    with rel_tol and with the term itself."""
    period = solve(ivp, find_period=True).period
    assume(period is not None)
    p = ivp.params
    for rel_tol in (1e-6, 1e-8, 1e-10):
        orbit = solve(replace(ivp, t_end=period), IntegratorConfig(rel_tol=rel_tol))
        traj = orbit.sample(np.linspace(0.0, period, 2001))
        terms = p.c * np.abs(np.log(traj.x)) + p.a * np.abs(np.log(traj.y)) + p.d * traj.x + p.b * traj.y
        assert conservation_drift(traj, p) <= 10.0 * rel_tol * np.max(terms)


def test_large_amplitude_case_stays_positive_and_resolved():
    """The prey dips below 1e-84 on this window; samples must stay positive."""
    traj = solve(replace(CASE_I, t_end=10.0)).sample(np.linspace(0.0, 10.0, 2001))
    assert bool(np.all(traj.x > 0.0)) and bool(np.all(traj.y > 0.0))
    assert float(np.min(traj.x)) == pytest.approx(CASE_I_MIN_X, rel=1e-6)
    assert conservation_drift(traj, CASE_I.params) <= 1e-8


def test_grid_validation():
    solution = solve(replace(CASE_V, t_end=10.0))
    with pytest.raises(ValueError):
        solution.sample([0.0, 11.0])
    with pytest.raises(ValueError):
        solution.sample([0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        solution.sample([-1.0, 1.0])


def test_degenerate_grid_returns_the_initial_state():
    traj = solve(replace(CASE_V, t_end=10.0)).sample([0.0])
    assert len(traj) == 1
    assert (traj.x[0], traj.y[0]) == (3.0, 2.0)


def test_resampling_on_step_boundaries_is_bitwise_stable():
    """Dense output at a step endpoint must return that endpoint."""
    ivp = replace(CASE_V, t_end=10.0)
    solution = solve(ivp)
    natural = solution.sample(solution.t)
    regrid = solve(replace(CASE_V, t_end=natural.t[-1])).sample(natural.t)
    assert np.array_equal(natural.x, regrid.x)
    assert np.array_equal(natural.y, regrid.y)


def test_dense_output_consistent_with_tight_reference():
    ivp = replace(CASE_V, t_end=5.0)
    grid = np.linspace(0.0, 5.0, 501)
    coarse = solve(ivp).sample(grid)
    tight = solve(ivp, TIGHT).sample(grid)
    cfg = IntegratorConfig()
    scale_x = cfg.abs_tol + cfg.rel_tol * np.abs(tight.x)
    scale_y = cfg.abs_tol + cfg.rel_tol * np.abs(tight.y)
    worst = max(
        float(np.max(np.abs(coarse.x - tight.x) / scale_x)),
        float(np.max(np.abs(coarse.y - tight.y) / scale_y)),
    )
    assert worst <= 10.0


def test_error_shrinks_with_tolerance():
    ivp = replace(CASE_V, t_end=5.0)
    endpoint = np.array([0.0, 5.0])
    tight = solve(ivp, TIGHT).sample(endpoint)
    errors = []
    for rel in (1e-4, 1e-6, 1e-8):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)
        traj = solve(ivp, cfg).sample(endpoint)
        errors.append(max(abs(traj.x[-1] - tight.x[-1]), abs(traj.y[-1] - tight.y[-1])))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-8


def test_agrees_with_independent_integrator():
    p = CASE_V.params
    grid = np.linspace(0.0, 10.0, 101)

    def rhs(t, w):
        return [p.a - p.b * math.exp(w[1]), -p.c + p.d * math.exp(w[0])]

    oracle = solve_ivp(
        rhs, (0.0, 10.0), [math.log(3.0), math.log(2.0)],
        method="DOP853", rtol=1e-12, atol=1e-12, t_eval=grid,
    )
    mine = solve(replace(CASE_V, t_end=10.0)).sample(grid)
    np.testing.assert_allclose(mine.x, np.exp(oracle.y[0]), rtol=1e-8)
    np.testing.assert_allclose(mine.y, np.exp(oracle.y[1]), rtol=1e-8)


def test_unbounded_growth_raises_divergence_error():
    grow = ModelParams(1.0, 0.0, 1.0, 0.0)
    interior = InitialValueProblem(grow, PopulationState(1.0, 1.0), 800.0)
    with pytest.raises(DivergenceError):
        solve(interior)


def test_period_pinned_value():
    period = solve(replace(CASE_V, t_end=10.0), find_period=True).period
    assert abs(period - PERIOD_V) <= 1e-8
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    assert abs(solve(replace(CASE_V, t_end=10.0), tight, find_period=True).period - PERIOD_V) <= 1e-9


def test_near_centre_period_approaches_the_linearised_value():
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    ivp = InitialValueProblem(p, PopulationState(1.0001, 1.0), 10.0)
    assert abs(solve(ivp, find_period=True).period - 2.0 * math.pi) <= 1e-3


def test_period_found_from_a_start_next_to_an_extremum():
    """The start sits next to the predator's maximum, where dy/dt nearly vanishes,
    so the return is searched on a section normal to x."""
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    near = InitialValueProblem(p, PopulationState(0.99999, 2.0), 10.0)
    on_top = solve(InitialValueProblem(p, PopulationState(1.0, 2.0), 10.0), find_period=True).period
    assert abs(solve(near, find_period=True).period - on_top) <= 1e-9
    report = failure_report(near, MethodKind.TAYLOR, 5)
    assert abs(report.period_estimate - on_top) <= 1e-9
    assert report.closed_orbit_ref


def test_no_period_for_degenerate_starts():
    # An equilibrium has no section to return to; the pass ends at t_end.
    at_rest = InitialValueProblem(ModelParams(1.0, 1.0, 1.0, 1.0), PopulationState(1.0, 1.0), 10.0)
    solution = solve(at_rest, find_period=True)
    assert solution.period is None and solution.t_final == 10.0


@pytest.mark.parametrize("b, d", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
def test_no_search_where_no_orbit_can_close(b, d):
    # With b or d zero each population is an exponential: the pass ends at t_end.
    ivp = InitialValueProblem(ModelParams(1.0, b, 1.0, d), PopulationState(2.0, 1.0), 1.0)
    solution = solve(ivp, find_period=True)
    assert solution.period is None and solution.t_final == 1.0
    assert solution.t.tolist() == solve(ivp).t.tolist()


def test_tiny_couplings_still_get_a_section():
    # b*d underflows to 0, yet both couplings are nonzero and the orbit closes.
    p = ModelParams(1.0, 1e-200, 1.0, 1e-200)
    assert _start_section(p, 2e200, 1e200) is not None


def test_tied_log_rates_take_the_predator_section():
    # Unit rates from (2, 2): a - b*y0 = -1 and d*x0 - c = 1 tie, and a tie takes y.
    assert _start_section(ModelParams(1.0, 1.0, 1.0, 1.0), 2.0, 2.0) == (1, 2.0, 1.0)


def test_no_period_when_the_return_is_too_far():
    # This orbit's period exceeds the pass, max(t_end, 100/sqrt(a*c)).
    assert solve(replace(CASE_I, t_end=10.0), find_period=True).period is None


def test_a_horizon_past_the_return_finds_the_period():
    """Case-I returns at T = 326.8, past 100/sqrt(a*c) = 316.2; over [0, 400]
    the event fires, matches scipy's DOP853 event and the orbit reads closed."""
    ivp = replace(CASE_I, t_end=400.0)
    solution = solve(ivp, find_period=True)
    assert solution.t_final == 400.0 >= 1.2 * solution.period
    p = ivp.params
    x0, y0 = ivp.initial.x, ivp.initial.y
    rate_x, rate_y = p.a - p.b * y0, p.d * x0 - p.c
    # The section is normal to the faster log-rate; the return crosses it as the start does.
    comp, level, rate = (1, y0, rate_y) if abs(rate_y) >= abs(rate_x) else (0, x0, rate_x)

    def section(t, w):
        return w[comp] - math.log(level)

    section.direction = 1.0 if rate > 0.0 else -1.0
    section.terminal = True

    def rhs(t, w):
        return [p.a - p.b * math.exp(w[1]), -p.c + p.d * math.exp(w[0])]

    # The section passes through the start, so the event is armed only from t = 1;
    # it stops the oracle before the orbit's next surge overflows the field.
    opts = dict(method="DOP853", rtol=1e-12, atol=1e-12)
    departure = solve_ivp(rhs, (0.0, 1.0), [math.log(x0), math.log(y0)], **opts)
    oracle = solve_ivp(rhs, (1.0, 400.0), departure.y[:, -1], events=section, **opts)
    assert departure.success and oracle.status == 1
    assert abs(solution.period - oracle.t_events[0][0]) <= 1e-7
    report = failure_report(ivp, MethodKind.TAYLOR, 5)
    assert report.period_estimate == solution.period and report.closed_orbit_ref is True


def test_closure_accepts_the_reference_orbit():
    solution = solve(replace(CASE_V, t_end=10.0), find_period=True)
    assert _closes(solution.sample, solution.period) is True


def _window_curve(x, y):
    """A ``_closes`` sampler: the start (0, 0), then (x(t), y(t)) on the closure window."""

    def sample(grid):
        xs, ys = x(grid), y(grid)
        xs[0] = ys[0] = 0.0
        return Trajectory(grid, xs, ys)

    return sample


def test_closure_needs_a_return_strictly_inside_the_ball():
    # The window runs up x = 1e-6 through a vertex at (1e-6, 0): its nearest
    # approach to the start is exactly 1e-6, which does not close.
    curve = _window_curve(lambda grid: np.full(grid.size, 1e-6), lambda grid: grid - grid[grid.size // 2])
    assert _closes(curve, 1.0) is False


def test_closure_needs_a_curve_that_leaves_the_ball():
    # Constant at its start, as an order-0 approximant is, or wandering 1e-7
    # from it: the curve never leaves the 1e-6 ball, so it does not close.
    for wobble in (0.0, 1e-7):
        curve = _window_curve(lambda grid: wobble * np.cos(grid), lambda grid: wobble * np.sin(grid))
        assert _closes(curve, 1.0) is False


def test_closure_window_starts_at_half_the_period():
    # Along the x axis, through the start at t = 0.45 T only: before the window.
    curve = _window_curve(lambda grid: grid - 0.45, lambda grid: np.zeros(grid.size))
    assert _closes(curve, 1.0) is False


def test_closure_measures_the_segments_not_their_extensions():
    # Along the x axis towards the start, stopping 0.4 grid steps short of it:
    # half a step past its end, the last segment would run through the start.
    def x(grid):
        step = grid[-1] - grid[-2]
        return grid[-1] - grid + 0.4 * step

    assert _closes(_window_curve(x, lambda grid: np.zeros(grid.size)), 1.0) is False


def test_closure_rejects_a_runaway_series():
    ivp = replace(CASE_V, t_end=10.0)
    period = solve(ivp, find_period=True).period
    series = taylor_coefficients(ivp, 5)
    assert _closes(lambda grid: sample_series(series, grid), period) is False
