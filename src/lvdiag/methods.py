"""Adomian decomposition, homotopy perturbation and variational iteration.

The schemes are built over exact polynomial arithmetic (coefficients lowest
degree first, as in numpy.polynomial).  Adomian decomposition and homotopy
perturbation reduce to one cascade, coded once; variational iteration has its
own recursion.  Applied to the prey-predator equations with the constant
initial state as starting guess, all of them reproduce the Taylor
coefficients of the true solution; ``methods_agree`` quantifies that
coefficient-level agreement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .series import InitialValueProblem, SeriesSolution, taylor_coefficients

# A variational iterate is only trustworthy through its iteration order, so
# its polynomial is capped at twice that and never beyond this degree.
_VIM_DEGREE_CAP = 64


class MethodKind(enum.Enum):
    TAYLOR = "taylor"
    ADOMIAN = "adomian"
    HPM = "hpm"
    VIM = "vim"


def _check_order(order, name="order"):
    if order != int(order) or order < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {order!r}")
    return int(order)


def _padded(coeffs, length):
    out = np.zeros(length)
    src = np.asarray(coeffs, dtype=float)[:length]
    out[: src.size] = src
    return out


def _truncated(coeffs, degree):
    out = np.asarray(coeffs, dtype=float)[: degree + 1]
    return out if out.size else np.zeros(1)


def _adomian_polynomial(u, v, n):
    """n-th Adomian polynomial of the product nonlinearity x*y.

    For a bilinear nonlinearity the derivative construction collapses to the
    Cauchy product of the component sequences.
    """
    acc = np.zeros(1)
    for k in range(n + 1):
        acc = npoly.polyadd(acc, npoly.polymul(u[k], v[n - k]))
    return acc


def adomian_components(ivp: InitialValueProblem, order: int):
    """Decomposition components (u_n, v_n) for n = 0..order; also the HPM terms.

    Adomian decomposition: u_0, v_0 are the initial populations and each
    update integrates the linear part plus the Adomian polynomial A_n of the
    coupling term x*y:

        u_{n+1}(t) = integral_0^t (a*u_n - b*A_n) ds
        v_{n+1}(t) = integral_0^t (-c*v_n + d*A_n) ds

    Homotopy perturbation: the deformation dx/dt = q*x*(a - b*y),
    dy/dt = -q*y*(c - d*x) with embedding parameter q and constant starting
    guess turns, after expanding both components in powers of q and
    collecting like powers, into the cascade

        x_n' =  a*x_{n-1} - b * sum_{k=0..n-1} x_k * y_{n-1-k},   x_n(0) = 0
        y_n' = -c*y_{n-1} + d * sum_{k=0..n-1} x_k * y_{n-1-k},   y_n(0) = 0

    for n >= 1, and setting q = 1 recovers the approximant.  For the bilinear
    coupling A_n is exactly that Cauchy sum, so the two schemes build the same
    polynomials term by term; ``hpm_terms`` is this function.
    """
    order = _check_order(order)
    p = ivp.params
    u = [np.array([ivp.initial.x])]
    v = [np.array([ivp.initial.y])]
    for n in range(order):
        a_n = _adomian_polynomial(u, v, n)
        u.append(npoly.polyint(npoly.polysub(p.a * u[n], p.b * a_n)))
        v.append(npoly.polyint(npoly.polyadd(-p.c * v[n], p.d * a_n)))
    return list(zip(u, v))


def adomian_series(ivp: InitialValueProblem, order: int) -> SeriesSolution:
    """Sum of the decomposition components, re-expressed as one polynomial pair.

    This is also the homotopy approximant at q = 1 (``hpm_series``).
    """
    components = adomian_components(ivp, order)
    x = np.zeros(order + 1)
    y = np.zeros(order + 1)
    for u_n, v_n in components:
        x[: u_n.size] += u_n
        y[: v_n.size] += v_n
    return SeriesSolution(order, x, y)


# Homotopy perturbation builds the decomposition's cascade (see above).
hpm_terms = adomian_components
hpm_series = adomian_series


def vim_iterates(ivp: InitialValueProblem, iterations: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Variational iterates with Lagrange multiplier -1.

    The correction functional

        x_{k+1}(t) = x_k(t) - integral_0^t [x_k'(s) - x_k(s)*(a - b*y_k(s))] ds
        y_{k+1}(t) = y_k(t) - integral_0^t [y_k'(s) + y_k(s)*(c - d*x_k(s))] ds

    is evaluated exactly on polynomials; the result lists the (x, y) pairs of
    iterates 0..iterations.  Iterate k agrees with the solution series through
    order k; the polynomial itself is truncated to degree min(2k, 64) to keep
    the doubling of degrees bounded.
    """
    iterations = _check_order(iterations, "iterations")
    p = ivp.params
    xp = np.array([ivp.initial.x])
    yp = np.array([ivp.initial.y])
    iterates = [(xp, yp)]
    for k in range(1, iterations + 1):
        cap = min(2 * k, _VIM_DEGREE_CAP)
        xy = npoly.polymul(xp, yp)
        residual_x = npoly.polysub(npoly.polyder(xp), npoly.polysub(p.a * xp, p.b * xy))
        residual_y = npoly.polysub(npoly.polyder(yp), npoly.polyadd(-p.c * yp, p.d * xy))
        xp = _truncated(npoly.polysub(xp, npoly.polyint(residual_x)), cap)
        yp = _truncated(npoly.polysub(yp, npoly.polyint(residual_y)), cap)
        iterates.append((xp, yp))
    return iterates


@dataclass(frozen=True)
class AgreementReport:
    """Per-scheme maximum relative coefficient deviation from the Taylor series."""

    order: int
    adomian: float
    hpm: float
    vim: float

    def worst(self) -> float:
        return max(self.adomian, self.hpm, self.vim)


def _max_relative_deviation(candidate: SeriesSolution, reference: SeriesSolution, order: int) -> float:
    worst = 0.0
    for cand, ref in (
        (candidate.x_coeffs, reference.x_coeffs),
        (candidate.y_coeffs, reference.y_coeffs),
    ):
        cand = _padded(cand, order + 1)
        for n in range(order + 1):
            worst = max(worst, abs(cand[n] - ref[n]) / (1.0 + abs(ref[n])))
    return worst


def methods_agree(ivp: InitialValueProblem, order: int) -> AgreementReport:
    """Compare all perturbation schemes against the Taylor coefficients.

    The deviation metric per coefficient is |candidate - taylor| / (1 + |taylor|);
    the variational iterate number ``order`` is truncated to that order before
    comparing, since that is as far as it is guaranteed to agree.

    Adomian decomposition and homotopy perturbation share one cascade, so
    their cascade is built once and ``adomian`` equals ``hpm``: comparing them
    is not an independent check.  The variational iterates and the Taylor
    recurrence are computed independently.
    """
    order = _check_order(order)
    reference = taylor_coefficients(ivp, order)
    adomian = hpm = _max_relative_deviation(adomian_series(ivp, order), reference, order)
    xp, yp = vim_iterates(ivp, order)[-1]
    vim_solution = SeriesSolution(order, _padded(xp, order + 1), _padded(yp, order + 1))
    vim = _max_relative_deviation(vim_solution, reference, order)
    return AgreementReport(order, adomian, hpm, vim)


def method_series(ivp: InitialValueProblem, method: MethodKind, order: int) -> SeriesSolution:
    """Polynomial approximant of one scheme, as a SeriesSolution.

    For the variational scheme this is the final iterate, whose polynomial
    degree may exceed the iteration count (up to the degree cap).
    """
    if method is MethodKind.TAYLOR:
        return taylor_coefficients(ivp, order)
    if method in (MethodKind.ADOMIAN, MethodKind.HPM):
        return adomian_series(ivp, order)
    if method is MethodKind.VIM:
        xp, yp = vim_iterates(ivp, order)[-1]
        degree = max(xp.size, yp.size) - 1
        return SeriesSolution(degree, _padded(xp, degree + 1), _padded(yp, degree + 1))
    raise ValueError(f"unknown method {method!r}")
