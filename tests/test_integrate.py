"""Adaptive reference integrator: accuracy, dense output, period, closure."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lvdiag import (
    DivergenceError,
    InitialValueProblem,
    IntegratorConfig,
    MethodKind,
    ModelParams,
    PopulationState,
    conservation_drift,
    failure_report,
    preset,
    sample_series,
    solve,
    taylor_coefficients,
)
from lvdiag.diagnostics import _closes

CASE_V = preset("case-V")
CASE_I = preset("case-I")

# Orbit period for (1,1,1,1) from (3,2), pinned from a rel_tol=1e-12 run.
PERIOD_V = 7.603020304410167
# Prey minimum of the large-amplitude case on [0,10], same pinned source.
CASE_I_MIN_X = 1.271428665778048e-84

TIGHT = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)


def _ivp(case, t_end):
    return InitialValueProblem(case.params, case.initial, t_end)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=2.0)


def test_decoupled_case_is_exact_exponentials():
    ivp = _ivp(preset("decoupled"), 1.0)
    traj = solve(ivp).sample(np.linspace(0.0, 1.0, 11))
    assert abs(traj.x[-1] - math.e) <= 1e-9
    assert abs(traj.y[-1] - 1.0 / math.e) <= 1e-9
    np.testing.assert_allclose(traj.x, np.exp(traj.t), rtol=1e-10)
    np.testing.assert_allclose(traj.y, np.exp(-traj.t), rtol=1e-10)


def test_initial_sample_is_bitwise_the_initial_state():
    traj = solve(_ivp(CASE_V, 10.0)).sample(np.linspace(0.0, 10.0, 21))
    assert traj.x[0] == 3.0
    assert traj.y[0] == 2.0


def test_invariant_residuals_stay_small_over_long_window():
    ivp = _ivp(CASE_V, 20.0)
    traj = solve(ivp).sample(np.linspace(0.0, 20.0, 2001))
    assert conservation_drift(traj, CASE_V.params) <= 1e-8


def test_large_amplitude_case_stays_positive_and_resolved():
    """The prey dips below 1e-84 on this window; samples must stay positive."""
    traj = solve(_ivp(CASE_I, 10.0)).sample(np.linspace(0.0, 10.0, 2001))
    assert bool(np.all(traj.x > 0.0)) and bool(np.all(traj.y > 0.0))
    assert float(np.min(traj.x)) == pytest.approx(CASE_I_MIN_X, rel=1e-6)
    assert conservation_drift(traj, CASE_I.params) <= 1e-8


def test_grid_validation():
    solution = solve(_ivp(CASE_V, 10.0))
    with pytest.raises(ValueError):
        solution.sample([0.0, 11.0])
    with pytest.raises(ValueError):
        solution.sample([0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        solution.sample([-1.0, 1.0])


def test_degenerate_grid_returns_the_initial_state():
    traj = solve(_ivp(CASE_V, 10.0), t_end=0.0).sample([0.0])
    assert len(traj) == 1
    assert (traj.x[0], traj.y[0]) == (3.0, 2.0)


def test_resampling_on_step_boundaries_is_bitwise_stable():
    """Dense output at a step endpoint must return that endpoint."""
    ivp = _ivp(CASE_V, 10.0)
    solution = solve(ivp)
    natural = solution.sample(solution.t)
    regrid = solve(ivp, t_end=natural.t[-1]).sample(natural.t)
    assert np.array_equal(natural.x, regrid.x)
    assert np.array_equal(natural.y, regrid.y)


def test_dense_output_consistent_with_tight_reference():
    ivp = _ivp(CASE_V, 5.0)
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
    ivp = _ivp(CASE_V, 5.0)
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
    mine = solve(_ivp(CASE_V, 10.0)).sample(grid)
    np.testing.assert_allclose(mine.x, np.exp(oracle.y[0]), rtol=1e-8)
    np.testing.assert_allclose(mine.y, np.exp(oracle.y[1]), rtol=1e-8)


def test_unbounded_growth_raises_divergence_error():
    grow = ModelParams(1.0, 0.0, 1.0, 0.0)
    interior = InitialValueProblem(grow, PopulationState(1.0, 1.0), 800.0)
    with pytest.raises(DivergenceError):
        solve(interior)


def test_period_pinned_value():
    period = solve(_ivp(CASE_V, 10.0), period_span=1.0).period
    assert abs(period - PERIOD_V) <= 1e-8
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    assert abs(solve(_ivp(CASE_V, 10.0), tight, period_span=1.0).period - PERIOD_V) <= 1e-9


def test_near_centre_period_approaches_the_linearised_value():
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    ivp = InitialValueProblem(p, PopulationState(1.0001, 1.0), 10.0)
    assert abs(solve(ivp, period_span=1.0).period - 2.0 * math.pi) <= 1e-3


def test_period_found_from_a_start_next_to_an_extremum():
    """The start sits next to the predator's maximum, where dy/dt nearly vanishes,
    so the return is searched on a section normal to x."""
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    near = InitialValueProblem(p, PopulationState(0.99999, 2.0), 10.0)
    on_top = solve(InitialValueProblem(p, PopulationState(1.0, 2.0), 10.0), period_span=1.0).period
    assert abs(solve(near, period_span=1.0).period - on_top) <= 1e-9
    report = failure_report(near, MethodKind.TAYLOR, 5)
    assert abs(report.period_estimate - on_top) <= 1e-9
    assert report.closed_orbit_ref


def test_no_period_for_degenerate_starts():
    # An equilibrium has no section to return to; the pass ends at t_end.
    at_rest = InitialValueProblem(ModelParams(1.0, 1.0, 1.0, 1.0), PopulationState(1.0, 1.0), 10.0)
    solution = solve(at_rest, period_span=1.0)
    assert solution.period is None and solution.t_final == 10.0


def test_no_period_when_the_return_is_too_far():
    # This orbit's period exceeds the 100/sqrt(a*c) search horizon.
    assert solve(_ivp(CASE_I, 10.0), period_span=1.0).period is None


def test_closure_accepts_the_reference_orbit():
    solution = solve(_ivp(CASE_V, 10.0), period_span=1.2)
    assert _closes(solution.sample, solution.period) is True


def test_closure_rejects_a_runaway_series():
    ivp = _ivp(CASE_V, 10.0)
    period = solve(ivp, period_span=1.0).period
    series = taylor_coefficients(ivp, 5)
    assert _closes(lambda grid: sample_series(series, grid), period) is False
