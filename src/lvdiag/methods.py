"""Adomian decomposition, homotopy perturbation and variational iteration.

The schemes' polynomials are plain float arrays, coefficients lowest degree
first, each array as long as its degree rule says.  Adomian decomposition and
homotopy perturbation reduce to one cascade, coded once; variational
iteration has its own recursion.  Applied to the prey-predator equations with
the constant initial state as starting guess, all of them reproduce the
Taylor coefficients of the true solution; ``methods_agree`` quantifies that
coefficient-level agreement.

For this bilinear model every decomposition component is a single term,
u_n = U_n t**n and v_n = V_n t**n, so the cascade is a scalar recurrence,
O(order**2) time and O(order) memory in all, and the approximant of order n
holds U_0..U_n:

    U_0 = x0,  V_0 = y0
    A_n = ((0.0 + U_0 V_n) + U_1 V_{n-1}) + ... + U_n V_0
    U_{n+1} = (a U_n - b A_n) / (n + 1),   V_{n+1} = (-c V_n + d A_n) / (n + 1)

These are the top entries, bit for bit, of the polynomial cascade that forms
A_n as the sum, for k = 0..n, of the ``np.convolve`` products of u_k and
v_{n-k}.  The top entry of each product has the one term U_k V_{n-k}, which
the dot product behind ``np.convolve`` adds to a +0.0 start, and the cascade
adds those tops left to right.  Adding 0.0 first changes only a -0.0
product, to +0.0, and a sum that starts 0.0 + U_0 V_n is never -0.0, so one
+0.0 start gives the same additions.  No BLAS kernel is involved.  The tests
keep the polynomial cascade as the recurrence's oracle.

``method_series`` is the one public way to a scheme's polynomials.  ADM/HPM
component n is U_n t**n, with U_n coefficient n of
``method_series(ivp, MethodKind.ADOMIAN, n)`` (a -0.0 reads +0.0), and
variational iterate k is ``method_series(ivp, MethodKind.VIM, k)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteError
from .series import InitialValueProblem, SeriesSolution, _check_order, taylor_coefficients

# A variational iterate k is only trustworthy through order k, so its
# polynomial is capped at degree min(2k, this), but never below k.
_VIM_DEGREE_CAP = 64


class MethodKind(enum.Enum):
    TAYLOR = "taylor"
    ADOMIAN = "adomian"
    HPM = "hpm"
    VIM = "vim"


def _cascade(ivp: InitialValueProblem, order: int) -> np.ndarray:
    """The (2, order + 1) coefficients of the decomposition approximant of ``order``.

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

    Component n is U_n t**n, with U_n from the module docstring's scalar
    recurrence, so the sum of components 0..n is U_0..U_n, each plus the other
    components' +0.0: that turns -0.0 into +0.0 and keeps inf and NaN.
    Coefficients past the double range come out inf or NaN.
    """
    order = _check_order(order)
    p = ivp.params
    U = [ivp.initial.x]
    V = [ivp.initial.y]
    for n in range(order):
        # A_n = U_0 V_n + ... + U_n V_0, added left to right from +0.0.
        coupling = 0.0
        for u_k, v_n_k in zip(U, reversed(V)):
            coupling += u_k * v_n_k
        U.append((p.a * U[n] - p.b * coupling) / (n + 1))
        V.append((-p.c * V[n] + p.d * coupling) / (n + 1))
    return np.array((U, V)) + 0.0


def _vim_iterates(ivp: InitialValueProblem, iterations: int) -> list[np.ndarray]:
    """Variational iterates with Lagrange multiplier -1.

    The correction functional

        x_{k+1}(t) = x_k(t) - integral_0^t [x_k'(s) - x_k(s)*(a - b*y_k(s))] ds
        y_{k+1}(t) = y_k(t) - integral_0^t [y_k'(s) + y_k(s)*(c - d*x_k(s))] ds

    is evaluated on polynomials, coefficients lowest degree first; the result
    lists iterates 0..iterations, each one (2, degree + 1) array with x_k in
    row 0 and y_k in row 1.  Iterate k agrees with the solution series
    through order k.  Each step would double the degree and add one, so the
    new iterate is cut to degree max(k, min(2k, 64)) to keep that growth
    bounded; both rows hold exactly

        min(2**k - 1, max(k, min(2k, 64))) + 1

    coefficients, trailing zeros included: 1, 2, 4, 7, 9, ... up to 65 from
    iterate 32 on, then k + 1 from iterate 65 on.

    The product x_k*y_k is formed from the rows before they are padded to the
    new degree: np.convolve's dot products group their terms by operand
    length, so zero padding could move the last bits.  Both rows share one residual expression, so the y row is
    formed as -c*y - (-d)*xy.  That rounds exactly as -c*y + d*xy: negation
    is exact and round-to-nearest symmetric, so (-d)*xy is -(d*xy), and
    p - (-q) is p + q in IEEE arithmetic, signed zeros included.  A NaN
    product is the same NaN in both forms, and either form passes it on.
    """
    iterations = _check_order(iterations, "iterations")
    p = ivp.params
    linear = np.array([[p.a], [-p.c]])
    coupling = np.array([[p.b], [-p.d]])
    iterate = np.array([[ivp.initial.x], [ivp.initial.y]])
    iterates = [iterate]
    # Every iterate's divisors 1..degree, sliced from one row built for the
    # largest degree, the last iterate's.  They are small integers held
    # exactly as floats, so each product and quotient rounds as with ints.
    divisors = np.arange(1.0, max(iterations, min(2 * iterations, _VIM_DEGREE_CAP)) + 1.0)
    # Coefficients past the double range become inf or NaN, which sampling refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, iterations + 1):
            degree = min(2 * iterate.shape[1] - 1, max(k, min(2 * k, _VIM_DEGREE_CAP)))
            xy = np.convolve(iterate[0], iterate[1])[:degree]
            padded = np.zeros((2, degree + 1))
            padded[:, : iterate.shape[1]] = iterate
            n = divisors[:degree]
            # The residuals x' - x*(a - b*y) and y' + y*(c - d*x), through degree - 1,
            # integrated from 0 and subtracted: coefficient 0 stays the start.
            residual = n * padded[:, 1:] - (linear * padded[:, :-1] - coupling * xy)
            padded[:, 1:] -= residual / n
            iterate = padded
            iterates.append(iterate)
    return iterates


@dataclass(frozen=True)
class AgreementReport:
    """Per-scheme maximum relative coefficient deviation from the Taylor series.

    ``adomian`` covers homotopy perturbation too: both build one cascade.
    """

    adomian: float
    vim: float

    def worst(self) -> float:
        return _nan_max(self.adomian, self.vim)


def _nan_max(a: float, b: float) -> float:
    """The larger of two floats, NaN when either is (the builtin max drops a NaN in second place)."""
    return a if a >= b or a != a else b


def methods_agree(ivp: InitialValueProblem, order: int) -> list[AgreementReport]:
    """Compare all perturbation schemes against the Taylor coefficients, orders 0..order.

    The Taylor recurrence, the decomposition cascade and the variational
    iterates are built once, to ``order``.  Report k reads the first k + 1
    Taylor coefficients, the running sum of decomposition components 0..k
    (``method_series(ivp, MethodKind.ADOMIAN, k)``'s coefficients) and
    variational iterate k, truncated to order k, since that is as far as it
    is guaranteed to agree.  The deviation metric per coefficient is
    |candidate - taylor| / (1 + |taylor|).  The list index is the order.

    Every order is compared in one pass.  Row k of each scheme's matrix holds
    its order-k coefficients, zero past degree k, where the Taylor rows are
    zero too, so the padding deviates by exactly 0.  A NaN among a row's
    coefficients makes that report's field NaN.
    """
    taylor = taylor_coefficients(ivp, order)
    size = taylor.x_coeffs.size
    within = np.tri(size, dtype=bool)[:, None, :]
    candidates = np.zeros((2, size, 2, size))
    candidates[0] = np.where(within, _cascade(ivp, order), 0.0)
    for k, iterate in enumerate(_vim_iterates(ivp, order)):
        candidates[1, k, :, : k + 1] = iterate[:, : k + 1]
    reference = np.where(within, np.stack((taylor.x_coeffs, taylor.y_coeffs)), 0.0)
    deviation = np.abs(candidates - reference)
    deviation /= 1.0 + np.abs(reference)
    return list(map(AgreementReport, *deviation.max(axis=(2, 3)).tolist()))


def method_series(ivp: InitialValueProblem, method: MethodKind, order: int) -> SeriesSolution:
    """Polynomial approximant of one scheme, as a SeriesSolution.

    For decomposition and homotopy perturbation this is the sum of the
    components 0..order, the homotopy approximant at q = 1.  For the
    variational scheme it is the final iterate, whose polynomial degree may
    exceed the iteration count (up to the degree cap).  A coefficient past
    the double range raises ``NonFiniteError`` naming the lowest such
    degree, as ``taylor_coefficients`` does.
    """
    if method is MethodKind.TAYLOR:
        return taylor_coefficients(ivp, order)
    if method in (MethodKind.ADOMIAN, MethodKind.HPM):
        x, y = _cascade(ivp, order)
    elif method is MethodKind.VIM:
        x, y = _vim_iterates(ivp, order)[-1]
    else:
        raise ValueError(f"unknown method {method!r}")
    overflow = ~(np.isfinite(x) & np.isfinite(y))
    if overflow.any():
        raise NonFiniteError(f"series coefficient {int(overflow.argmax())} overflows")
    return SeriesSolution(x, y)
