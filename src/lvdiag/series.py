"""Truncated power-series solutions about t = 0.

The series coefficients follow from substituting x(t) = sum X[n] t**n,
y(t) = sum Y[n] t**n into the model equations and matching powers of t:

    (n+1) * X[n+1] =  a * X[n] - b * sum_{k=0..n} X[k] * Y[n-k]
    (n+1) * Y[n+1] = -c * Y[n] + d * sum_{k=0..n} X[k] * Y[n-k]

with X[0] = x0 and Y[0] = y0.  The first-order coefficients are written in
their factored closed forms x0*(a - b*y0) and y0*(d*x0 - c) so they match
those expressions bit for bit.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ._record import record
from .exceptions import NonFiniteError
from .model import ModelParams, PopulationState, _as_finite_float
from .trajectory import Trajectory

# The scaled retry of a coefficient whose plain evaluation overflows.
_DOWN, _UP = 2.0**-64, 2.0**64


def _check_order(order, name="order"):
    try:
        whole = order == int(order)
    except (OverflowError, ValueError):  # inf or NaN
        whole = False
    if not whole or order < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {order!r}")
    return int(order)


@record
class InitialValueProblem:
    """The model, its start at t=0 and the window [0, t_end] it is studied on.

    ``t_end`` (positive, finite) is the horizon of every reference pass and
    report grid; the series coefficients ignore it.
    """

    params: ModelParams
    initial: PopulationState
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "t_end", _as_finite_float(self.t_end, "t_end"))
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")


@record
class SeriesSolution:
    """Polynomial pair (x, y), each stored lowest degree first; their lengths may differ."""

    x_coeffs: np.ndarray
    y_coeffs: np.ndarray

    def __post_init__(self):
        for name in ("x_coeffs", "y_coeffs"):
            coeffs = np.asarray(getattr(self, name), dtype=float)
            if coeffs.ndim != 1 or coeffs.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-d array")
            object.__setattr__(self, name, coeffs)


def taylor_coefficients(ivp: InitialValueProblem, order: int) -> SeriesSolution:
    """Series coefficients of the solution through the requested order.

    Each new coefficient is computed from the already rounded lower ones.
    The products X[k]*Y[n-k] are rounded and then summed with math.fsum,
    and the linear term, the scaled sum, their difference and the division
    are each rounded once more, so a coefficient is not the correctly
    rounded value of its defining expression (cancellation in
    a*X[n] - b*conv can leave it thousands of ulps away).  The error is
    bounded relative to the magnitudes that enter it:

        |X[n+1] - exact| <= 2*eps * (|lin| + |coef| * sum_k |X[k]*Y[n-k]|) / (n+1)

    where exact is (lin + coef * sum_k X[k]*Y[n-k]) / (n+1) evaluated
    exactly on the stored X[0..n], Y[0..n], lin is a*X[n] for X and
    -c*Y[n] for Y, coef is -b for X and d for Y, and eps = 2**-52.  The
    five roundings allow at most 2.5*eps to first order; on random
    problems the error stays below 1.7*eps, and the tests check 2*eps
    against a rational-arithmetic recurrence.

    The recurrence runs on Python floats, one IEEE double operation per
    arithmetic step, so it rounds as a loop over numpy float64 scalars
    would; the arrays are built once at the end.  Where a term overflows
    although the coefficient does not (d*conv past the double range with
    Y[n+1] inside it), the expression is evaluated once more on X[n] or
    Y[n] and conv scaled by 2**-64 and the result scaled back: a power of
    two scales every rounding exactly, so the bound above still holds.  The
    first-order pair is retried the same way, with the bracket's operands
    (a and y0, or x0 and c) scaled.  A coefficient that is not finite
    either way raises ``NonFiniteError``.
    """
    order = _check_order(order)
    p = ivp.params
    a, b, c, d = p.a, p.b, p.c, p.d
    x0, y0 = ivp.initial.x, ivp.initial.y
    X, Y = [x0], [y0]
    fsum, isfinite, mul = math.fsum, math.isfinite, operator.mul
    if order >= 1:
        x1 = x0 * (a - b * y0)
        y1 = y0 * (d * x0 - c)
        # Retried as in the loop below, on the bracket's operands: b*y0 or
        # d*x0 may overflow where the coefficient does not.
        if not isfinite(x1):
            x1 = x0 * (a * _DOWN - b * (y0 * _DOWN)) * _UP
        if not isfinite(y1):
            y1 = y0 * (d * (x0 * _DOWN) - c * _DOWN) * _UP
        if not (isfinite(x1) and isfinite(y1)):
            raise NonFiniteError("series coefficient 1 overflows")
        X.append(x1)
        Y.append(y1)
    for n in range(1, order):
        try:
            conv = fsum(map(mul, X, reversed(Y)))
        except (OverflowError, ValueError):  # the sum overflows, or holds inf and -inf
            raise NonFiniteError(f"series coefficient {n + 1} overflows") from None
        xn = (a * X[n] - b * conv) / (n + 1)
        yn = (-c * Y[n] + d * conv) / (n + 1)
        if not isfinite(xn):
            xn = (a * (X[n] * _DOWN) - b * (conv * _DOWN)) / (n + 1) * _UP
        if not isfinite(yn):
            yn = (-c * (Y[n] * _DOWN) + d * (conv * _DOWN)) / (n + 1) * _UP
        if not (isfinite(xn) and isfinite(yn)):
            raise NonFiniteError(f"series coefficient {n + 1} overflows")
        X.append(xn)
        Y.append(yn)
    return SeriesSolution(np.array(X), np.array(Y))


def _validated_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise NonFiniteError("time grid must be finite")
    if grid[0] < 0.0:
        raise ValueError(f"time grid must start at or after 0, got {grid[0]}")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def _horner(t, coeffs):
    """The polynomial at every t, with the operations of ``numpy.polynomial``'s polyval.

    The accumulator starts as c[-1] + t*0 and takes acc*t + c[k] from the top
    coefficient down, in place, so each value has polyval's bits.
    """
    acc = t * 0.0
    acc += coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def sample_series(s: SeriesSolution, t_grid) -> Trajectory:
    """Evaluate the series on a grid; ``NonFiniteError`` names the first time that overflows."""
    grid = _validated_grid(t_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _horner(grid, s.x_coeffs), _horner(grid, s.y_coeffs)
    overflow = ~(np.isfinite(x) & np.isfinite(y))
    if overflow.any():
        raise NonFiniteError(f"series overflows at t={float(grid[overflow.argmax()])!r}")
    return Trajectory._checked(grid, x, y)
