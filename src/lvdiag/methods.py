"""Adomian decomposition, homotopy perturbation and variational iteration.

The schemes are built over exact polynomial arithmetic on plain float arrays,
coefficients lowest degree first.  Adomian decomposition and homotopy
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

from .series import InitialValueProblem, SeriesSolution, _check_order, taylor_coefficients

# A variational iterate k is only trustworthy through order k, so its
# polynomial is capped at degree min(2k, this), but never below k.
_VIM_DEGREE_CAP = 64


class MethodKind(enum.Enum):
    TAYLOR = "taylor"
    ADOMIAN = "adomian"
    HPM = "hpm"
    VIM = "vim"


# Polynomial kernels.  Each one does the arithmetic of its numpy.polynomial
# counterpart (trimseq, polymul, polyadd, polyint, polyder) in the same order,
# so on finite coefficients the results are equal bit for bit, without that
# module's per-call conversion and checks; ``_padd(c1, -c2)`` is polysub's,
# as IEEE-754 defines x - y as x + (-y).  Inputs are 1-d float arrays.
# Non-finite coefficients take the same elementwise arithmetic and are never
# trimmed (NaN != 0); only ``_pint``'s constant term differs from numpy's.


def _trim(c):
    """c without its trailing zeros, but never shorter than one entry."""
    if c[-1] != 0:
        return c
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:1]


def _pmul(c1, c2):
    return _trim(np.convolve(_trim(c1), _trim(c2)))


def _padd(c1, c2):
    c1, c2 = _trim(c1), _trim(c2)
    if c1.size > c2.size:
        out = c1.copy()
        out[: c2.size] += c2
    else:
        out = c2.copy()
        out[: c1.size] += c1
    return _trim(out)


def _pint(c):
    """Antiderivative vanishing at 0; the zero polynomial [0] stays [0.].

    The constant term is +0.0 even when a coefficient is NaN or infinite,
    where polyint, which subtracts the integral's value at 0, makes it NaN.
    """
    n = c.size
    if n == 1 and c[0] == 0:
        return np.zeros(1)
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1] = c[0]
    out[2:] = c[1:] / np.arange(2, n + 1)
    return out


def _pder(c):
    if c.size == 1:
        return c * 0
    return c[1:] * np.arange(1, c.size)


def _padded(coeffs, length):
    out = np.zeros(length)
    src = np.asarray(coeffs, dtype=float)[:length]
    out[: src.size] = src
    return out


def _adomian_polynomial(u, v, n):
    """n-th Adomian polynomial of the product nonlinearity x*y.

    For a bilinear nonlinearity the derivative construction collapses to the
    Cauchy product of the component sequences.
    """
    acc = np.zeros(1)
    for k in range(n + 1):
        acc = _padd(acc, _pmul(u[k], v[n - k]))
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
    polynomials term by term.
    """
    order = _check_order(order)
    p = ivp.params
    u = [np.array([ivp.initial.x])]
    v = [np.array([ivp.initial.y])]
    # Coefficients past the double range become inf or NaN, which sampling refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(order):
            a_n = _adomian_polynomial(u, v, n)
            u.append(_pint(_padd(p.a * u[n], -p.b * a_n)))
            v.append(_pint(_padd(-p.c * v[n], p.d * a_n)))
    return list(zip(u, v))


def adomian_series(ivp: InitialValueProblem, order: int) -> SeriesSolution:
    """Sum of the decomposition components, re-expressed as one polynomial pair.

    This is also the homotopy approximant at q = 1.
    """
    *_, (x, y) = _adomian_sums(ivp, order)
    return SeriesSolution(x, y)


def _adomian_sums(ivp: InitialValueProblem, order: int):
    """Yield, for n = 0..order, the sums (x, y) of decomposition components 0..n.

    Each pair views the first n + 1 entries of accumulators that the later
    components keep adding into, so a caller that keeps one copies it.
    """
    components = adomian_components(ivp, order)
    x = np.zeros(len(components))
    y = np.zeros(len(components))
    for n, (u_n, v_n) in enumerate(components):
        x[: u_n.size] += u_n
        y[: v_n.size] += v_n
        yield x[: n + 1], y[: n + 1]


def vim_iterates(ivp: InitialValueProblem, iterations: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Variational iterates with Lagrange multiplier -1.

    The correction functional

        x_{k+1}(t) = x_k(t) - integral_0^t [x_k'(s) - x_k(s)*(a - b*y_k(s))] ds
        y_{k+1}(t) = y_k(t) - integral_0^t [y_k'(s) + y_k(s)*(c - d*x_k(s))] ds

    is evaluated exactly on polynomials; the result lists the (x, y) pairs of
    iterates 0..iterations.  Iterate k agrees with the solution series through
    order k; the polynomial itself is truncated to degree max(k, min(2k, 64)) to
    keep the doubling of degrees bounded.
    """
    iterations = _check_order(iterations, "iterations")
    p = ivp.params
    xp = np.array([ivp.initial.x])
    yp = np.array([ivp.initial.y])
    iterates = [(xp, yp)]
    for k in range(1, iterations + 1):
        cap = max(k, min(2 * k, _VIM_DEGREE_CAP))
        xy = _pmul(xp, yp)
        residual_x = _padd(_pder(xp), -_padd(p.a * xp, -p.b * xy))
        residual_y = _padd(_pder(yp), -_padd(-p.c * yp, p.d * xy))
        xp = _padd(xp, -_pint(residual_x))[: cap + 1]
        yp = _padd(yp, -_pint(residual_y))[: cap + 1]
        iterates.append((xp, yp))
    return iterates


@dataclass(frozen=True)
class AgreementReport:
    """Per-scheme maximum relative coefficient deviation from the Taylor series.

    ``adomian`` covers homotopy perturbation too: both build one cascade.
    """

    order: int
    adomian: float
    vim: float

    def worst(self) -> float:
        return max(self.adomian, self.vim)


def _max_relative_deviation(candidate, reference) -> float:
    """Worst |c - r| / (1 + |r|) over two (x, y) coefficient pairs of equal lengths."""
    return max(float(np.max(np.abs(c - r) / (1.0 + np.abs(r)))) for c, r in zip(candidate, reference))


def methods_agree(ivp: InitialValueProblem, order: int) -> list[AgreementReport]:
    """Compare all perturbation schemes against the Taylor coefficients, orders 0..order.

    The Taylor recurrence, the decomposition cascade and the variational
    iterates are built once, to ``order``.  Report k reads the first k + 1
    Taylor coefficients, the running sum of decomposition components 0..k
    (the sum ``adomian_series(ivp, k)`` forms) and variational iterate k,
    truncated to order k, since that is as far as it is guaranteed to agree.
    The deviation metric per coefficient is |candidate - taylor| / (1 + |taylor|).
    """
    taylor = taylor_coefficients(ivp, order)
    reports = []
    for k, (adomian, iterate) in enumerate(zip(_adomian_sums(ivp, order), vim_iterates(ivp, order))):
        reference = (taylor.x_coeffs[: k + 1], taylor.y_coeffs[: k + 1])
        vim = [_padded(c, k + 1) for c in iterate]
        adm = _max_relative_deviation(adomian, reference)
        reports.append(AgreementReport(k, adm, _max_relative_deviation(vim, reference)))
    return reports


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
        return SeriesSolution(*vim_iterates(ivp, order)[-1])
    raise ValueError(f"unknown method {method!r}")
