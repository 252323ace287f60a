"""Property tests over drawn problems: reference accuracy, one-pass consistency
and the model's scaling symmetry.

Problems are drawn like the benchmark's sweep: rates in [1/2, 2] and a start
at 1/3 to 3 times the interior equilibrium in each coordinate.  Runs are
derandomized, so every run checks the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lvdiag import (
    InitialValueProblem,
    MethodKind,
    ModelParams,
    PeriodNotFoundError,
    PopulationState,
    closed_orbit_check,
    divergence_time,
    estimate_period,
    integrate,
    method_series,
    sample_series,
    taylor_coefficients,
    vector_field,
)
from lvdiag.diagnostics import _compare_with_reference

T_END = 10.0
# Values of the report's private constants, restated so that the standalone
# computation below is independent of them.
CLOSURE_SPAN = 1.2
CLOSURE_POINTS = 2401
CLOSED_EPS = 1e-6

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

rates = st.floats(0.5, 2.0)
start_factors = st.floats(1.0 / 3.0, 3.0)


@st.composite
def problems(draw):
    a, b, c, d = (draw(rates) for _ in range(4))
    x0 = draw(start_factors) * c / d
    y0 = draw(start_factors) * a / b
    return InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), T_END)


@PROPERTY_SETTINGS
@given(problems())
def test_reference_and_period_match_an_independent_dop853(ivp):
    p = ivp.params
    x0, y0 = ivp.initial.x, ivp.initial.y
    grid = np.linspace(0.0, T_END, 41)
    try:
        period = estimate_period(ivp)
    except PeriodNotFoundError:
        period = None  # see test_one_pass_report_agrees_with_standalone_passes

    def rhs(t, w):
        return [p.a - p.b * math.exp(w[1]), -p.c + p.d * math.exp(w[0])]

    span = T_END if period is None else max(T_END, period)
    oracle = solve_ivp(
        rhs, (0.0, span), [math.log(x0), math.log(y0)],
        method="DOP853", rtol=1e-12, atol=1e-12, t_eval=grid, dense_output=True,
    )
    assert oracle.success
    mine = integrate(ivp, t_grid=grid)
    np.testing.assert_allclose(mine.x, np.exp(oracle.y[0]), rtol=1e-8)
    np.testing.assert_allclose(mine.y, np.exp(oracle.y[1]), rtol=1e-8)
    if period is not None:
        # At the period the oracle is back at the start, so it crosses any
        # line through the start in the direction of departure; the one
        # checked is normal to y (x when dy/dt vanishes), whichever section
        # the search itself used.  The crossing is checked to 1e-8 in time or
        # to the 1e-8 relative state agreement above, whichever is looser:
        # small orbits cross slowly.
        fx0, fy0 = vector_field(p, ivp.initial)
        comp, level, departure = (1, y0, fy0) if fy0 != 0.0 else (0, x0, fx0)
        w = oracle.sol(period)
        value = math.exp(w[comp])
        speed = value * rhs(period, w)[comp]
        assert speed * departure > 0.0
        assert abs(value - level) <= 1e-8 * max(abs(speed), level)


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from(list(MethodKind)), st.integers(2, 12))
def test_one_pass_report_agrees_with_standalone_passes(ivp, method, order):
    points = 401
    report, reference, approx = _compare_with_reference(ivp, method, order, points=points)
    grid = np.linspace(0.0, T_END, points)
    standalone = integrate(ivp, t_grid=grid)
    np.testing.assert_allclose(reference.x, standalone.x, rtol=1e-8)
    np.testing.assert_allclose(reference.y, standalone.y, rtol=1e-8)
    assert report.divergence_time == divergence_time(approx, standalone)

    if report.period_estimate is None:
        # When the search finds no return, the standalone search misses it too.
        with pytest.raises(PeriodNotFoundError):
            estimate_period(ivp)
        assert not (report.closed_orbit_ref or report.closed_orbit)
        return
    period = estimate_period(ivp)
    assert abs(report.period_estimate - period) <= 1e-9
    span = CLOSURE_SPAN * period
    closure_grid = np.linspace(0.0, span, CLOSURE_POINTS)
    window = InitialValueProblem(ivp.params, ivp.initial, span)
    closed_ref = closed_orbit_check(
        integrate(window, t_grid=closure_grid), ivp, CLOSED_EPS, period=period
    )
    series = sample_series(method_series(ivp, method, order), closure_grid)
    closed_approx = closed_orbit_check(series, ivp, CLOSED_EPS, period=period)
    assert (report.closed_orbit_ref, report.closed_orbit) == (closed_ref, closed_approx)


@PROPERTY_SETTINGS
@given(problems())
def test_taylor_coefficients_obey_the_scaling_symmetry(ivp):
    """x = (c/d)*u, y = (a/b)*v, tau = a*t maps the model onto
    u' = u*(1 - v), v' = -(c/a)*v*(1 - u), so X_n = (c/d)*a**n*U_n and
    Y_n = (a/b)*a**n*V_n."""
    order = 20
    p = ivp.params
    k = p.c / p.a
    scaled = InitialValueProblem(
        ModelParams(1.0, 1.0, k, k),
        PopulationState(p.d * ivp.initial.x / p.c, p.b * ivp.initial.y / p.a),
        T_END,
    )
    mine = taylor_coefficients(ivp, order)
    unit = taylor_coefficients(scaled, order)
    powers = p.a ** np.arange(order + 1)
    for coeffs, expected in (
        (mine.x_coeffs, (p.c / p.d) * powers * unit.x_coeffs),
        (mine.y_coeffs, (p.a / p.b) * powers * unit.y_coeffs),
    ):
        assert np.max(np.abs(coeffs - expected) / (1.0 + np.abs(coeffs))) <= 1e-11
