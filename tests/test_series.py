"""Power-series engine: recurrence, its rounding bound, and sampling."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import lvdiag
from lvdiag import (
    InitialValueProblem,
    ModelParams,
    NonFiniteError,
    PopulationState,
    SeriesSolution,
    preset,
    sample_series,
)
from lvdiag.methods import MethodKind, _vim_iterates, method_series
from lvdiag.series import taylor_coefficients

CASE_V = preset("case-V")
CASE_I = preset("case-I")

# Coefficients for (a,b,c,d) = (1,1,1,1), (x0,y0) = (3,2) are rational; these
# are the exact values through order 8, computed with fraction arithmetic.
X_EXACT_V = (3, -3, -9 / 2, 9 / 2, 71 / 8, -183 / 40, -4207 / 240, 947 / 1680, 427673 / 13440)
Y_EXACT_V = (2, 4, 1, -19 / 3, -37 / 6, 91 / 12, 5581 / 360, -1664 / 315, -626777 / 20160)

EPS = Fraction(2) ** -52


def test_order_zero_is_the_initial_state():
    sol = taylor_coefficients(CASE_V, 0)
    assert sol.x_coeffs.tolist() == [3.0]
    assert sol.y_coeffs.tolist() == [2.0]


def test_first_order_coefficients_match_closed_forms_bitwise():
    sol = taylor_coefficients(CASE_I, 1)
    assert sol.x_coeffs[1] == 14.0 * (1.0 - 1.0 * 18.0)
    assert sol.y_coeffs[1] == 18.0 * (1.0 * 14.0 - 0.1)
    assert sol.x_coeffs[1] == -238.0
    assert sol.y_coeffs[1] == 250.20000000000002
    sol_v = taylor_coefficients(CASE_V, 1)
    assert sol_v.x_coeffs[1] == -3.0
    assert sol_v.y_coeffs[1] == 4.0


def test_unit_case_coefficients_match_exact_fractions():
    sol = taylor_coefficients(CASE_V, 8)
    np.testing.assert_allclose(sol.x_coeffs, X_EXACT_V, rtol=1e-13)
    np.testing.assert_allclose(sol.y_coeffs, Y_EXACT_V, rtol=1e-13)


@st.composite
def problems(draw):
    """Rates over more than two decades, the start 1/3 to 3 times the equilibrium."""
    a, b, c, d = (draw(st.floats(0.05, 20.0)) for _ in range(4))
    x0 = draw(st.floats(1.0 / 3.0, 3.0)) * c / d
    y0 = draw(st.floats(1.0 / 3.0, 3.0)) * a / b
    return InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), 1.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems(), st.integers(1, 20))
def test_coefficients_meet_their_rounding_bound(ivp, order):
    """Each step of the recurrence, redone in rational arithmetic on the stored
    lower coefficients, is within 2*eps of the float step, scaled by the
    magnitudes that enter it (the bound the docstring states)."""
    sol = taylor_coefficients(ivp, order)
    X = [Fraction(v) for v in sol.x_coeffs.tolist()]
    Y = [Fraction(v) for v in sol.y_coeffs.tolist()]
    p = ivp.params
    a, b, c, d = (Fraction(v) for v in (p.a, p.b, p.c, p.d))
    for n in range(order):
        products = [X[k] * Y[n - k] for k in range(n + 1)]
        conv = sum(products)
        magnitude = sum(abs(q) for q in products)
        for coeffs, lin, coef in ((X, a * X[n], -b), (Y, -c * Y[n], d)):
            exact = (lin + coef * conv) / (n + 1)
            bound = 2 * EPS * (abs(lin) + abs(coef) * magnitude) / (n + 1)
            assert abs(coeffs[n + 1] - exact) <= bound


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems(), st.integers(0, 40))
def test_swapping_the_populations_reverses_time_bitwise(ivp, order):
    """(x, y, a, b, c, d) -> (y, x, c, d, a, b) maps x(t) to y(-t), so the
    swapped problem's coefficients are X'_n = (-1)**n Y_n and Y'_n = (-1)**n X_n,
    bit for bit: fsum does not depend on the order of its terms and every
    negation is exact.  Adding 0.0 sets aside the sign of a zero coefficient."""
    p, start = ivp.params, ivp.initial
    swapped = InitialValueProblem(ModelParams(p.c, p.d, p.a, p.b), PopulationState(start.y, start.x), 1.0)
    series, mirrored = taylor_coefficients(ivp, order), taylor_coefficients(swapped, order)
    sign = (-1.0) ** np.arange(order + 1)
    assert (mirrored.x_coeffs + 0.0).tobytes() == (sign * series.y_coeffs + 0.0).tobytes()
    assert (mirrored.y_coeffs + 0.0).tobytes() == (sign * series.x_coeffs + 0.0).tobytes()


UNIT_ROUNDOFF = 2.0**-53


def _cascade_error_bounds(ivp, order):
    """Bounds on |X_n - exact| and |Y_n - exact| for the ADM/HPM coefficients,
    carried through the recurrence: step n + 1 rounds within
    (n + 4) u (a|X_n| + b S_n) / (n + 1), S_n = sum_k |X_k Y_{n-k}|, and
    passes on (a E_n + b sum_k (E_k |Y_{n-k}| + |X_k| F_{n-k})) / (n + 1)
    of the errors E, F already in X, Y (c and d for Y)."""
    p = ivp.params
    series = method_series(ivp, MethodKind.ADOMIAN, order)
    x, y = np.abs(series.x_coeffs), np.abs(series.y_coeffs)
    ex, ey = np.zeros((2, order + 1))
    for n in range(order):
        products = x[: n + 1] @ y[n::-1]
        passed_on = ex[: n + 1] @ y[n::-1] + x[: n + 1] @ ey[n::-1]
        rounding = (n + 4) * UNIT_ROUNDOFF
        ex[n + 1] = (p.a * ex[n] + p.b * passed_on + rounding * (p.a * x[n] + p.b * products)) / (n + 1)
        ey[n + 1] = (p.c * ey[n] + p.d * passed_on + rounding * (p.c * y[n] + p.d * products)) / (n + 1)
    return ex, ey


def _vim_error_bounds(ivp, iterations):
    """Bounds on |x_k[j] - exact| and |y_k[j] - exact| for the last VIM iterate,
    carried through the iteration: entry j >= 1 of a step rounds within
    (j + 5) u (|x[j]| + (a|x[j-1]| + b sum_i |x[i] y[j-1-i]|) / j), and the
    step passes on (a E[j-1] + b sum_i (E[i] |y[j-1-i]| + |x[i]| F[j-1-i])) / j
    of the errors E, F already in x, y, for x[j] cancels out of
    x[j] - (j x[j] - ...) / j; entry 0 is the start (c and d for y)."""
    p = ivp.params
    rates, couplings = np.array([[p.a], [p.c]]), np.array([[p.b], [p.d]])
    iterates = _vim_iterates(ivp, iterations)
    errors = np.zeros((2, 1))
    for previous, iterate in zip(iterates, iterates[1:]):
        size, degree = previous.shape[1], iterate.shape[1] - 1
        magnitude, error = np.zeros((2, 2, degree + 1))
        magnitude[:, :size], error[:, :size] = np.abs(previous), errors
        x, y, ex, ey = magnitude[0, :size], magnitude[1, :size], error[0, :size], error[1, :size]
        products = np.convolve(x, y)[:degree]
        passed_on = np.convolve(ex, y) + np.convolve(x, ey)
        j = np.arange(1, degree + 1)
        rounding = (j + 5) * UNIT_ROUNDOFF * (magnitude[:, 1:] + (rates * magnitude[:, :-1] + couplings * products) / j)
        error[:, 1:] = (rates * error[:, :-1] + couplings * passed_on[:degree]) / j + rounding
        errors = error
    return errors


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems(), st.integers(0, 30))
def test_swapping_the_populations_reverses_time_within_rounding(ivp, order):
    """The swap (x, y, a, b, c, d) -> (y, x, c, d, a, b) maps the exact ADM/HPM
    sums and VIM iterates onto their time reversals, as it maps the series,
    and keeps every array's length.  Their float sums depend on the order of
    their terms, so x coefficient n of the swapped problem is (-1)**n times
    y coefficient n of the original (and the reverse) only to within the sum
    of the two coefficients' error bounds, each carried through its scheme's
    steps from the magnitudes that enter it (``_cascade_error_bounds``,
    ``_vim_error_bounds``).  The bounds are first order in u = 2**-53, like
    the step bounds of ``test_methods.py``; the measured gaps stay under a
    tenth of them."""
    p, start = ivp.params, ivp.initial
    swapped = InitialValueProblem(ModelParams(p.c, p.d, p.a, p.b), PopulationState(start.y, start.x), 1.0)
    schemes = [(method, _cascade_error_bounds) for method in (MethodKind.ADOMIAN, MethodKind.HPM)]
    for method, error_bounds in [*schemes, (MethodKind.VIM, _vim_error_bounds)]:
        series, mirrored = method_series(ivp, method, order), method_series(swapped, method, order)
        size = series.x_coeffs.size
        assert series.y_coeffs.size == mirrored.x_coeffs.size == mirrored.y_coeffs.size == size
        (ex, ey), (mirrored_ex, mirrored_ey) = error_bounds(ivp, order), error_bounds(swapped, order)
        sign = (-1.0) ** np.arange(size)
        assert np.all(np.abs(mirrored.x_coeffs - sign * series.y_coeffs) <= mirrored_ex + ey), method
        assert np.all(np.abs(mirrored.y_coeffs - sign * series.x_coeffs) <= mirrored_ey + ex), method


def test_decoupled_coefficients_are_exponential_series():
    p = ModelParams(0.7, 0.0, 1.3, 0.0)
    ivp = InitialValueProblem(p, PopulationState(2.0, 5.0), 1.0)
    sol = taylor_coefficients(ivp, 20)
    for n in range(21):
        expected_x = 2.0 * p.a**n / math.factorial(n)
        expected_y = 5.0 * (-p.c) ** n / math.factorial(n)
        assert sol.x_coeffs[n] == pytest.approx(expected_x, rel=1e-14)
        assert sol.y_coeffs[n] == pytest.approx(expected_y, rel=1e-14)


def test_decoupled_partial_sums_of_the_exponential():
    ivp = InitialValueProblem(ModelParams(1.0, 0.0, 1.0, 0.0), PopulationState(1.0, 1.0), 1.0)
    traj = sample_series(taylor_coefficients(ivp, 4), [1.0])
    assert traj.x[0] == pytest.approx(65.0 / 24.0, rel=1e-15)
    assert traj.y[0] == pytest.approx(0.375, rel=1e-15)


def test_series_satisfies_the_differential_equations():
    """x' - x(a - by) and y' + y(c - dx) must vanish through the truncation order."""
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        a, b, c, d = rng.uniform(0.1, 2.0, size=4)
        x0, y0 = rng.uniform(0.1, 5.0, size=2)
        ivp = InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), 1.0)
        sol = taylor_coefficients(ivp, 12)
        xy = npoly.polymul(sol.x_coeffs, sol.y_coeffs)
        res_x = npoly.polysub(npoly.polyder(sol.x_coeffs), npoly.polysub(a * sol.x_coeffs, b * xy))
        res_y = npoly.polysub(npoly.polyder(sol.y_coeffs), npoly.polyadd(-c * sol.y_coeffs, d * xy))
        scale = max(np.max(np.abs(sol.x_coeffs)), np.max(np.abs(sol.y_coeffs)))
        assert np.max(np.abs(res_x[:12])) <= 1e-12 * scale
        assert np.max(np.abs(res_y[:12])) <= 1e-12 * scale


def test_order_validation():
    with pytest.raises(ValueError):
        taylor_coefficients(CASE_V, -1)
    with pytest.raises(ValueError):
        taylor_coefficients(CASE_V, 2.5)
    # int() of these raises OverflowError or ValueError in numpy's or Python's words.
    with pytest.raises(ValueError, match="^order must be a non-negative integer, got inf$"):
        taylor_coefficients(CASE_V, math.inf)
    for bad in (math.nan, np.float64("inf")):
        with pytest.raises(ValueError, match="^order must be a non-negative integer, got "):
            taylor_coefficients(CASE_V, bad)


def test_overflowing_coefficients_raise_nonfinite():
    """A coefficient past the double range is refused, whichever way fsum fails."""
    with pytest.raises(NonFiniteError, match="series coefficient 305 overflows"):
        taylor_coefficients(CASE_I, 400)  # the partial sums overflow
    huge = InitialValueProblem(CASE_V.params, PopulationState(1e200, 1e200), 1.0)
    with pytest.raises(NonFiniteError, match="series coefficient 1 overflows"):
        taylor_coefficients(huge, 3)  # b * y0 and x0 * (a - b * y0) overflow


# Coefficient 149 of this problem is finite, but d * conv is not.
D_1000 = InitialValueProblem(ModelParams(2.0, 8.0, 1.0, 1000.0), PopulationState(0.5, 2.0), 1.0)


def test_a_coefficient_that_overflows_once_scaled_is_nonfinite_not_a_warning():
    """fsum of coefficient 66's products is finite, but d = 1e6 times it puts
    the coefficient itself past the double range, so the scaled retry
    overflows too; the d = 1000 problem first overflows inside fsum, at 151."""
    ivp = InitialValueProblem(ModelParams(2.0, 8.0, 1.0, 1e6), PopulationState(0.5, 2.0), 1.0)
    sol = taylor_coefficients(ivp, 65)
    X, Y = sol.x_coeffs.tolist(), sol.y_coeffs.tolist()
    conv = math.fsum(X[k] * Y[65 - k] for k in range(66))
    exact = (-Fraction(Y[65]) + Fraction(1e6) * Fraction(conv)) / 66
    assert math.isfinite(conv) and abs(exact) > Fraction(HUGE)
    for order in (66, 67):
        with pytest.raises(NonFiniteError, match="^series coefficient 66 overflows$"):
            taylor_coefficients(ivp, order)
    with pytest.raises(NonFiniteError, match="^series coefficient 151 overflows$"):
        taylor_coefficients(D_1000, 151)


def test_a_coefficient_past_an_overflowing_term_is_retried_within_its_bound():
    """Coefficients 149 and 150 of the d = 1000 problem overflow in d * conv,
    not in value: retried on operands scaled by 2**-64, each is within the
    docstring's 2*eps bound of the rational recurrence on the stored values."""
    sol = taylor_coefficients(D_1000, 150)
    assert sol.y_coeffs[150] == 8.858024204726518e307
    X = [Fraction(v) for v in sol.x_coeffs.tolist()]
    Y = [Fraction(v) for v in sol.y_coeffs.tolist()]
    p = D_1000.params
    a, b, c, d = (Fraction(v) for v in (p.a, p.b, p.c, p.d))
    for n in (148, 149):
        conv = math.fsum(sol.x_coeffs[k] * sol.y_coeffs[n - k] for k in range(n + 1))
        assert p.d * conv == math.inf
        products = [X[k] * Y[n - k] for k in range(n + 1)]
        magnitude = sum(abs(q) for q in products)
        for coeffs, lin, coef in ((X, a * X[n], -b), (Y, -c * Y[n], d)):
            exact = (lin + coef * sum(products)) / (n + 1)
            assert abs(coeffs[n + 1] - exact) <= 2 * EPS * (abs(lin) + abs(coef) * magnitude) / (n + 1)


def _assert_prefixes_are_lower_orders(ivp, top):
    full = taylor_coefficients(ivp, top)
    for order in range(top + 1):
        sol = taylor_coefficients(ivp, order)
        for got, want in ((sol.x_coeffs, full.x_coeffs), (sol.y_coeffs, full.y_coeffs)):
            assert got.view(np.uint64).tolist() == want[: order + 1].view(np.uint64).tolist()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems(), st.integers(0, 60))
def test_a_lower_order_is_a_prefix_bitwise(ivp, top):
    """The recurrence computes coefficient n from the lower ones only, so the
    series to any order k <= K is the first k + 1 coefficients of the series
    to K, bit for bit; ``verify`` reads its divergence orders that way."""
    _assert_prefixes_are_lower_orders(ivp, top)


def test_a_lower_order_is_a_prefix_through_the_scaled_retry():
    """Coefficients 149 and 150 of the d = 1000 problem come from the scaled
    retry, and a build to 150 still holds every lower order's bits."""
    _assert_prefixes_are_lower_orders(D_1000, 150)


@pytest.mark.parametrize("method", list(MethodKind), ids=lambda m: m.value)
@pytest.mark.parametrize("order", [1, 2])
def test_an_overflowing_first_coefficient_is_named_by_every_scheme(method, order):
    """From (1e200, 1e200) on unit rates, b * y0 and d * x0 overflow and so do
    the coefficients themselves: every scheme names coefficient 1."""
    huge = InitialValueProblem(ModelParams(1.0, 1.0, 1.0, 1.0), PopulationState(1e200, 1e200), 1.0)
    with pytest.raises(NonFiniteError, match="^series coefficient 1 overflows$"):
        method_series(huge, method, order)


@pytest.mark.parametrize(
    "params, start",
    [((1.0, 1e110, 1.0, 1.0), (1e-10, 1e200)), ((1.0, 1.0, 1.0, 1e110), (1e200, 1e-10))],
    ids=["b-y0", "d-x0"],
)
def test_a_first_coefficient_past_an_overflowing_term_is_retried_within_its_bound(params, start):
    """b * y0 (or d * x0) overflows but x0 * (a - b * y0) (or y0 * (d * x0 - c))
    does not: retried on operands scaled by 2**-64, the pair is within the
    docstring's 2*eps bound of the rational values, and every scheme names
    coefficient 2, past the double range, at order 2."""
    ivp = InitialValueProblem(ModelParams(*params), PopulationState(*start), 1.0)
    p = ivp.params
    assert math.isinf(max(p.b * start[1], p.d * start[0]))
    sol = taylor_coefficients(ivp, 1)
    X = [Fraction(v) for v in sol.x_coeffs.tolist()]
    Y = [Fraction(v) for v in sol.y_coeffs.tolist()]
    a, b, c, d = (Fraction(v) for v in (p.a, p.b, p.c, p.d))
    product = X[0] * Y[0]
    for got, lin, coef in ((X[1], a * X[0], -b), (Y[1], -c * Y[0], d)):
        assert abs(got - (lin + coef * product)) <= 2 * EPS * (abs(lin) + abs(coef) * abs(product))
    for method in MethodKind:
        assert method_series(ivp, method, 1).x_coeffs.tolist() == pytest.approx(sol.x_coeffs.tolist())
        with pytest.raises(NonFiniteError, match="^series coefficient 2 overflows$"):
            method_series(ivp, method, 2)


def _numpy_scalar_taylor(ivp, order):
    """``taylor_coefficients`` as a loop over numpy float64 scalars in
    preallocated arrays, scaled retry included: the bytes of both arrays, or
    the ``NonFiniteError`` text."""
    p = ivp.params
    x0, y0 = ivp.initial.x, ivp.initial.y
    X = np.zeros(order + 1)
    Y = np.zeros(order + 1)
    X[0], Y[0] = x0, y0
    if order >= 1:
        X[1] = x0 * (p.a - p.b * y0)
        Y[1] = y0 * (p.d * x0 - p.c)
        if not math.isfinite(X[1]):
            X[1] = x0 * (p.a * 2.0**-64 - p.b * (y0 * 2.0**-64)) * 2.0**64
        if not math.isfinite(Y[1]):
            Y[1] = y0 * (p.d * (x0 * 2.0**-64) - p.c * 2.0**-64) * 2.0**64
        if not (math.isfinite(X[1]) and math.isfinite(Y[1])):
            return NonFiniteError, "series coefficient 1 overflows"
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, order):
            try:
                conv = math.fsum(X[k] * Y[n - k] for k in range(n + 1))
            except (OverflowError, ValueError):
                return NonFiniteError, f"series coefficient {n + 1} overflows"
            X[n + 1] = (p.a * X[n] - p.b * conv) / (n + 1)
            Y[n + 1] = (-p.c * Y[n] + p.d * conv) / (n + 1)
            if not math.isfinite(X[n + 1]):
                X[n + 1] = (p.a * (X[n] * 2.0**-64) - p.b * (conv * 2.0**-64)) / (n + 1) * 2.0**64
            if not math.isfinite(Y[n + 1]):
                Y[n + 1] = (-p.c * (Y[n] * 2.0**-64) + p.d * (conv * 2.0**-64)) / (n + 1) * 2.0**64
            if not (math.isfinite(X[n + 1]) and math.isfinite(Y[n + 1])):
                return NonFiniteError, f"series coefficient {n + 1} overflows"
    return X.tobytes(), Y.tobytes()


def assert_taylor_like_numpy_scalars(ivp, order):
    try:
        sol = taylor_coefficients(ivp, order)
        got = sol.x_coeffs.tobytes(), sol.y_coeffs.tobytes()
    except NonFiniteError as exc:
        got = NonFiniteError, str(exc)
    assert got == _numpy_scalar_taylor(ivp, order)


def _with_start(ivp, x0, y0):
    return InitialValueProblem(ivp.params, PopulationState(x0, y0), 1.0)


@pytest.mark.parametrize(
    "ivp, orders",
    [
        *[(preset(name), [*range(41), 305, 400]) for name in lvdiag.preset_names()],
        (_with_start(CASE_V, 0.0, 2.0), range(12)),
        (_with_start(CASE_V, -0.0, 0.0), range(12)),
        (_with_start(CASE_V, 3.0, -0.0), range(12)),
        (_with_start(CASE_V, 1e200, 1e200), range(5)),
        (_with_start(CASE_V, 1e200, 1.0), range(12)),
        (InitialValueProblem(ModelParams(0.7, 0.0, 1.3, 2.0), PopulationState(2.0, 5.0), 1.0), range(41)),
        (InitialValueProblem(ModelParams(0.7, 2.0, 1.3, 0.0), PopulationState(2.0, 5.0), 1.0), range(41)),
        (D_1000, range(148, 152)),
    ],
    ids=["case-I", "case-V", "decoupled", "x0-zero", "zeros", "y0-negative-zero", "huge", "huge-x0",
         "b-zero", "d-zero", "d-1000"],
)
def test_taylor_is_the_numpy_scalar_loop_bitwise(ivp, orders):
    for order in orders:
        assert_taylor_like_numpy_scalars(ivp, order)


@st.composite
def wide_problems(draw):
    """Rates and starts log-uniform over twelve decades, 1e-6 to 1e6."""
    a, b, c, d, x0, y0 = (10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(6))
    return InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), 1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wide_problems(), st.integers(0, 80))
def test_taylor_is_the_numpy_scalar_loop_on_wide_problems(ivp, order):
    assert_taylor_like_numpy_scalars(ivp, order)


def test_sample_series_overflow_is_nonfinite_not_a_warning():
    with pytest.raises(NonFiniteError):
        sample_series(taylor_coefficients(CASE_I, 160), np.linspace(0.0, 10.0, 11))


def test_problem_validation():
    for t_end in (0.0, -1.0):
        with pytest.raises(ValueError):
            InitialValueProblem(CASE_V.params, CASE_V.initial, t_end)
    with pytest.raises(NonFiniteError):
        InitialValueProblem(CASE_V.params, CASE_V.initial, math.inf)


def test_solution_shape_validation():
    for bad in (np.zeros(0), np.zeros((2, 2)), 1.0):
        with pytest.raises(ValueError):
            SeriesSolution(bad, np.zeros(2))
        with pytest.raises(ValueError):
            SeriesSolution(np.zeros(2), bad)
    # The two polynomials may differ in length, as when built by hand.
    sol = SeriesSolution([1, 2], [3.0])
    assert sol.x_coeffs.dtype == sol.y_coeffs.dtype == np.float64
    assert sol.x_coeffs.shape == (2,) and sol.y_coeffs.shape == (1,)


def test_sample_series_quadratic_truncation():
    sol = taylor_coefficients(CASE_V, 2)
    traj = sample_series(sol, [0.0, 1.0])
    assert traj.x.tolist() == [3.0, -4.5]
    assert traj.y.tolist() == [2.0, 7.0]
    with pytest.raises(NonFiniteError):
        sample_series(sol, [math.nan])


def test_sample_series_matches_pointwise_evaluation():
    sol = taylor_coefficients(CASE_V, 7)
    grid = np.linspace(0.0, 2.0, 9)
    traj = sample_series(sol, grid)
    assert traj.t.tolist() == grid.tolist()
    for i, t in enumerate(grid):
        assert traj.x[i] == npoly.polyval(float(t), sol.x_coeffs)
        assert traj.y[i] == npoly.polyval(float(t), sol.y_coeffs)


def test_sample_series_single_point_grid():
    sol = taylor_coefficients(CASE_V, 3)
    traj = sample_series(sol, [0.0])
    assert len(traj) == 1
    assert (traj.x[0], traj.y[0]) == (3.0, 2.0)


def test_sample_series_grid_validation():
    sol = taylor_coefficients(CASE_V, 3)
    with pytest.raises(ValueError):
        sample_series(sol, [])
    with pytest.raises(ValueError):
        sample_series(sol, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        sample_series(sol, [-1.0, 0.0])
    with pytest.raises(ValueError):
        sample_series(sol, [[0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        sample_series(sol, [0.0, math.nan])


def _polyval_outcome(x_coeffs, y_coeffs, grid):
    """``sample_series`` written with numpy's polyval: the value bytes, or the
    overflow error naming the first t where x or y is not finite."""
    grid = np.asarray(grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = npoly.polyval(grid, x_coeffs), npoly.polyval(grid, y_coeffs)
    overflow = ~(np.isfinite(x) & np.isfinite(y))
    if overflow.any():
        return NonFiniteError, f"series overflows at t={float(grid[overflow.argmax()])!r}"
    return grid.tobytes(), x.tobytes(), y.tobytes()


def assert_evaluates_like_polyval(x_coeffs, y_coeffs, grid):
    try:
        traj = sample_series(SeriesSolution(x_coeffs, y_coeffs), grid)
        got = traj.t.tobytes(), traj.x.tobytes(), traj.y.tobytes()
    except NonFiniteError as exc:
        got = NonFiniteError, str(exc)
    assert got == _polyval_outcome(np.asarray(x_coeffs, float), np.asarray(y_coeffs, float), grid)
    return got


HUGE = 1.7976931348623157e308
coefficients = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e3, 1e3),
        st.floats(1e300, HUGE),
        st.floats(-HUGE, -1e300),
    ),
    min_size=1,
    max_size=70,
)
time_grids = st.lists(st.floats(0.0, 4.0), min_size=1, max_size=40, unique=True).map(sorted)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coefficients, coefficients, time_grids)
def test_sample_series_is_numpys_polyval_bitwise(x_coeffs, y_coeffs, grid):
    """Any two lengths, signed zeros and coefficients near the double range's
    edge: the same values, or the same first overflowing t."""
    assert_evaluates_like_polyval(x_coeffs, y_coeffs, grid)


@pytest.mark.parametrize(
    "x_coeffs, y_coeffs, grid",
    [
        ([3.0], [-2.0], [0.0]),
        ([-0.0], [0.0, -0.0], [-0.0, 1.0, 2.0]),
        ([0.0, -0.0, -0.0], [-0.0], [-0.0]),
        ([1e308, 1e308], [1.0], [0.0, 0.5, 1.0, 2.0]),
        ([HUGE, -HUGE], [HUGE], [0.0, 1.0, 2.0]),
        ([1.0, -HUGE, HUGE], [1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.5, 1.0, 1.5]),
    ],
)
def test_sample_series_is_numpys_polyval_on_pinned_edges(x_coeffs, y_coeffs, grid):
    assert_evaluates_like_polyval(x_coeffs, y_coeffs, grid)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(problems(), st.integers(1, 24), st.floats(0.5, 12.0))
def test_vim_iterates_evaluate_like_polyval(ivp, order, t_end):
    """VIM's arrays follow their degree rule, not the order: the approximant,
    and the x of its iterate next to the y of the one before, whose lengths differ."""
    *_, (x_prev, y_prev), (x, y) = _vim_iterates(ivp, order)
    for points in (2001, 2401):
        grid = np.linspace(0.0, t_end, points)
        assert_evaluates_like_polyval(x, y, grid)
        assert_evaluates_like_polyval(x, y_prev, grid)


def test_import_leaves_numpy_polynomial_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lvdiag.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, lvdiag; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
