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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .exceptions import NonFiniteError
from .model import ModelParams, PopulationState, _as_finite_float
from .trajectory import Trajectory

def _check_order(order, name="order"):
    if order != int(order) or order < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {order!r}")
    return int(order)


@dataclass(frozen=True)
class InitialValueProblem:
    params: ModelParams
    initial: PopulationState
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "t_end", _as_finite_float(self.t_end, "t_end"))
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")


@dataclass(frozen=True)
class SeriesSolution:
    """Polynomial pair (x, y) stored lowest degree first, length order + 1."""

    order: int
    x_coeffs: np.ndarray
    y_coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "order", _check_order(self.order))
        for name in ("x_coeffs", "y_coeffs"):
            coeffs = np.asarray(getattr(self, name), dtype=float)
            if coeffs.shape != (self.order + 1,):
                raise ValueError(f"{name} must have length order + 1 = {self.order + 1}")
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
    """
    order = _check_order(order)
    p = ivp.params
    x0, y0 = ivp.initial.x, ivp.initial.y
    X = np.zeros(order + 1)
    Y = np.zeros(order + 1)
    X[0], Y[0] = x0, y0
    if order >= 1:
        X[1] = x0 * (p.a - p.b * y0)
        Y[1] = y0 * (p.d * x0 - p.c)
    for n in range(1, order):
        try:
            conv = math.fsum(X[k] * Y[n - k] for k in range(n + 1))
        except (OverflowError, ValueError):  # the sum overflows, or holds inf and -inf
            raise NonFiniteError(f"series coefficient {n + 1} overflows") from None
        X[n + 1] = (p.a * X[n] - p.b * conv) / (n + 1)
        Y[n + 1] = (-p.c * Y[n] + p.d * conv) / (n + 1)
    return SeriesSolution(order, X, Y)


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


def sample_series(s: SeriesSolution, t_grid) -> Trajectory:
    """Evaluate the series on a grid; ``NonFiniteError`` names the first time that overflows."""
    grid = _validated_grid(t_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = npoly.polyval(grid, s.x_coeffs), npoly.polyval(grid, s.y_coeffs)
    overflow = ~(np.isfinite(x) & np.isfinite(y))
    if overflow.any():
        raise NonFiniteError(f"series overflows at t={float(grid[overflow.argmax()])!r}")
    return Trajectory(grid, x, y)
