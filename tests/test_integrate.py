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
    PeriodNotFoundError,
    PopulationState,
    closed_orbit_check,
    conservation_drift,
    estimate_period,
    failure_report,
    integrate,
    preset,
    sample_series,
    taylor_coefficients,
)

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
    with pytest.raises(ValueError):
        IntegratorConfig(max_step=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(initial_step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(initial_step=math.inf)


def test_decoupled_case_is_exact_exponentials():
    ivp = _ivp(preset("decoupled"), 1.0)
    traj = integrate(ivp, t_grid=np.linspace(0.0, 1.0, 11))
    assert abs(traj.x[-1] - math.e) <= 1e-9
    assert abs(traj.y[-1] - 1.0 / math.e) <= 1e-9
    np.testing.assert_allclose(traj.x, np.exp(traj.t), rtol=1e-10)
    np.testing.assert_allclose(traj.y, np.exp(-traj.t), rtol=1e-10)


def test_initial_sample_is_bitwise_the_initial_state():
    traj = integrate(_ivp(CASE_V, 10.0), t_grid=np.linspace(0.0, 10.0, 21))
    assert traj.x[0] == 3.0
    assert traj.y[0] == 2.0


def test_invariant_residuals_stay_small_over_long_window():
    ivp = _ivp(CASE_V, 20.0)
    traj = integrate(ivp, t_grid=np.linspace(0.0, 20.0, 2001))
    assert conservation_drift(traj, CASE_V.params) <= 1e-8


def test_large_amplitude_case_stays_positive_and_resolved():
    """The prey dips below 1e-84 on this window; samples must stay positive."""
    traj = integrate(_ivp(CASE_I, 10.0), t_grid=np.linspace(0.0, 10.0, 2001))
    assert bool(np.all(traj.x > 0.0)) and bool(np.all(traj.y > 0.0))
    assert float(np.min(traj.x)) == pytest.approx(CASE_I_MIN_X, rel=1e-6)
    assert conservation_drift(traj, CASE_I.params) <= 1e-8


def test_grid_validation():
    ivp = _ivp(CASE_V, 10.0)
    with pytest.raises(ValueError):
        integrate(ivp, t_grid=[0.0, 11.0])
    with pytest.raises(ValueError):
        integrate(ivp, t_grid=[0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        integrate(ivp, t_grid=[-1.0, 1.0])


def test_degenerate_grid_returns_the_initial_state():
    traj = integrate(_ivp(CASE_V, 10.0), t_grid=[0.0])
    assert len(traj) == 1
    assert (traj.x[0], traj.y[0]) == (3.0, 2.0)


def test_resampling_on_step_boundaries_is_bitwise_stable():
    """Dense output at a step endpoint must return that endpoint."""
    ivp = _ivp(CASE_V, 10.0)
    natural = integrate(ivp)
    regrid = integrate(ivp, t_grid=natural.t)
    assert np.array_equal(natural.x, regrid.x)
    assert np.array_equal(natural.y, regrid.y)


def test_dense_output_consistent_with_tight_reference():
    ivp = _ivp(CASE_V, 5.0)
    grid = np.linspace(0.0, 5.0, 501)
    coarse = integrate(ivp, t_grid=grid)
    tight = integrate(ivp, TIGHT, t_grid=grid)
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
    tight = integrate(ivp, TIGHT, t_grid=endpoint)
    errors = []
    for rel in (1e-4, 1e-6, 1e-8):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)
        traj = integrate(ivp, cfg, t_grid=endpoint)
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
    mine = integrate(_ivp(CASE_V, 10.0), t_grid=grid)
    np.testing.assert_allclose(mine.x, np.exp(oracle.y[0]), rtol=1e-8)
    np.testing.assert_allclose(mine.y, np.exp(oracle.y[1]), rtol=1e-8)


def test_initial_step_and_max_step_are_honored():
    ivp = _ivp(CASE_V, 10.0)
    first = integrate(ivp, IntegratorConfig(initial_step=1e-3))
    assert first.t[1] == 1e-3
    capped = integrate(ivp, IntegratorConfig(max_step=0.05))
    assert float(np.max(np.diff(capped.t))) <= 0.05 + 1e-12


def test_unbounded_growth_raises_divergence_error():
    grow = ModelParams(1.0, 0.0, 1.0, 0.0)
    interior = InitialValueProblem(grow, PopulationState(1.0, 1.0), 800.0)
    with pytest.raises(DivergenceError):
        integrate(interior)
    on_axis = InitialValueProblem(grow, PopulationState(1.0, 0.0), 800.0)
    with pytest.raises(DivergenceError):
        integrate(on_axis)


def test_estimate_period_pinned_value():
    period = estimate_period(_ivp(CASE_V, 10.0))
    assert abs(period - PERIOD_V) <= 1e-8
    tight = estimate_period(_ivp(CASE_V, 10.0), IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
    assert abs(tight - PERIOD_V) <= 1e-9


def test_near_centre_period_approaches_the_linearised_value():
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    ivp = InitialValueProblem(p, PopulationState(1.0001, 1.0), 10.0)
    assert abs(estimate_period(ivp) - 2.0 * math.pi) <= 1e-3


def test_period_found_from_a_start_next_to_an_extremum():
    """The start sits next to the predator's maximum, where dy/dt nearly vanishes,
    so the return is searched on a section normal to x."""
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    near = InitialValueProblem(p, PopulationState(0.99999, 2.0), 10.0)
    on_top = estimate_period(InitialValueProblem(p, PopulationState(1.0, 2.0), 10.0))
    assert abs(estimate_period(near) - on_top) <= 1e-9
    report = failure_report(near, MethodKind.TAYLOR, 5)
    assert abs(report.period_estimate - on_top) <= 1e-9
    assert report.closed_orbit_ref


def test_estimate_period_degenerate_inputs():
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(PeriodNotFoundError):
        estimate_period(InitialValueProblem(p, PopulationState(1.0, 1.0), 10.0))
    with pytest.raises(ValueError):
        estimate_period(
            InitialValueProblem(ModelParams(1.0, 0.0, 1.0, 0.0), PopulationState(0.0, 1.0), 10.0)
        )


def test_estimate_period_gives_up_when_the_return_is_too_far():
    # This orbit's period exceeds the 100/sqrt(a*c) search horizon.
    with pytest.raises(PeriodNotFoundError):
        estimate_period(_ivp(CASE_I, 10.0))


def test_closed_orbit_check_accepts_the_reference_orbit():
    ivp = _ivp(CASE_V, 10.0)
    period = estimate_period(ivp)
    span = 1.2 * period
    window = InitialValueProblem(CASE_V.params, CASE_V.initial, span)
    traj = integrate(window, t_grid=np.linspace(0.0, span, 2401))
    assert closed_orbit_check(traj, ivp, 1e-6, period=period) is True


def test_closed_orbit_check_rejects_a_runaway_series():
    ivp = _ivp(CASE_V, 10.0)
    period = estimate_period(ivp)
    span = 1.2 * period
    series = sample_series(taylor_coefficients(ivp, 5), np.linspace(0.0, span, 2401))
    assert closed_orbit_check(series, ivp, 1e-6, period=period) is False


def test_closed_orbit_check_validation():
    ivp = _ivp(CASE_V, 10.0)
    period = estimate_period(ivp)
    short = integrate(_ivp(CASE_V, 3.0), t_grid=np.linspace(0.0, 3.0, 301))
    with pytest.raises(ValueError):
        closed_orbit_check(short, ivp, 1e-6, period=period)
    full = integrate(_ivp(CASE_V, 10.0), t_grid=np.linspace(0.0, 10.0, 1001))
    with pytest.raises(ValueError):
        closed_orbit_check(full, ivp, 0.0, period=period)
