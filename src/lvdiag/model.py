"""Planar prey-predator model.

The populations x (prey) and y (predator) evolve under

    dx/dt =  x * (a - b*y)
    dy/dt = -y * (c - d*x)

with growth rate a, predation rate b, predator decay c and conversion rate d.
The module exposes the vector field, its Jacobian, the two equilibria with
their closed-form eigenvalues, and the first integral that closed orbits
conserve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteError, PositivityError

# Real parts below this are treated as rounding residue when classifying a
# neutrally stable equilibrium.
_CENTER_REAL_TOL = 1e-12


def _as_finite_float(value, name):
    out = float(value)
    if not math.isfinite(out):
        raise NonFiniteError(f"{name} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class ModelParams:
    """Positive rate constants of the model.

    The growth and decay rates a, c must be strictly positive.  The coupling
    rates b, d may be zero, which decouples the two populations into plain
    exponentials; negative couplings are rejected.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _as_finite_float(getattr(self, name), name))
        if self.a <= 0.0 or self.c <= 0.0:
            raise ValueError(f"rates a and c must be positive, got a={self.a}, c={self.c}")
        if self.b < 0.0 or self.d < 0.0:
            raise ValueError(f"couplings b and d must be non-negative, got b={self.b}, d={self.d}")


@dataclass(frozen=True)
class PopulationState:
    """A point of the phase plane; populations cannot be negative."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _as_finite_float(self.x, "x"))
        object.__setattr__(self, "y", _as_finite_float(self.y, "y"))
        if self.x < 0.0 or self.y < 0.0:
            raise ValueError(f"populations must be non-negative, got ({self.x}, {self.y})")


class FixedPointKind(enum.Enum):
    SADDLE = "saddle"
    CENTER = "center"


@dataclass(frozen=True)
class FixedPointReport:
    location: PopulationState
    kind: FixedPointKind
    eigenvalues: tuple[complex, complex]


def _field(p, x, y):
    """Vector field on raw floats; no state validation (integrator hot path)."""
    return x * (p.a - p.b * y), -y * (p.c - p.d * x)


def vector_field(p: ModelParams, s: PopulationState) -> tuple[float, float]:
    """Time derivatives (dx/dt, dy/dt) at state s."""
    return _field(p, s.x, s.y)


def jacobian(p: ModelParams, s: PopulationState) -> np.ndarray:
    """2x2 Jacobian of the vector field at state s."""
    return np.array(
        [
            [p.a - p.b * s.y, -p.b * s.x],
            [p.d * s.y, p.d * s.x - p.c],
        ]
    )


def _eigenvalues_2x2(m) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix from the trace/determinant quadratic.

    Triangular matrices short-circuit to their diagonal entries so that the
    equilibrium on the axes reports exact rates instead of sqrt-roundtrip
    approximations.
    """
    m00, m01 = float(m[0][0]), float(m[0][1])
    m10, m11 = float(m[1][0]), float(m[1][1])
    if m01 == 0.0 or m10 == 0.0:
        return complex(m00), complex(m11)
    tr = m00 + m11
    det = m00 * m11 - m01 * m10
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return complex((tr + root) / 2.0), complex((tr - root) / 2.0)
    omega = math.sqrt(-disc) / 2.0
    return complex(tr / 2.0, omega), complex(tr / 2.0, -omega)


def _classify(eigenvalues) -> FixedPointKind:
    lam1, lam2 = eigenvalues
    if lam1.imag == 0.0 and lam2.imag == 0.0:
        if lam1.real * lam2.real < 0.0:
            return FixedPointKind.SADDLE
        raise ValueError(f"equilibrium with eigenvalues {eigenvalues} is neither saddle nor center")
    if abs(lam1.real) <= _CENTER_REAL_TOL:
        return FixedPointKind.CENTER
    raise ValueError(f"equilibrium with eigenvalues {eigenvalues} is neither saddle nor center")


def fixed_points(p: ModelParams) -> tuple[FixedPointReport, ...]:
    """Equilibria of the model with classification and eigenvalues.

    Always contains the extinction saddle at the origin.  The interior centre
    (c/d, a/b) exists only when both couplings are positive, so a decoupled
    model (b = 0 or d = 0) yields a single report.
    """
    reports = []
    origin = PopulationState(0.0, 0.0)
    eigs = _eigenvalues_2x2(jacobian(p, origin))
    reports.append(FixedPointReport(origin, _classify(eigs), eigs))
    if p.b > 0.0 and p.d > 0.0:
        centre = PopulationState(p.c / p.d, p.a / p.b)
        eigs = _eigenvalues_2x2(jacobian(p, centre))
        kind = _classify(eigs)
        if kind is FixedPointKind.CENTER:
            # Purely imaginary by classification; drop the rounding residue.
            eigs = (complex(0.0, eigs[0].imag), complex(0.0, eigs[1].imag))
        reports.append(FixedPointReport(centre, kind, eigs))
    return tuple(reports)


def _first_integral(p, x, y):
    """C = c*ln(x) + a*ln(y) - d*x - b*y on floats or arrays, with no domain check.

    The one evaluation of the invariant: the scalar functions below, the drift
    diagnostic and the report tables all call it, so they agree bit for bit.
    """
    return p.c * np.log(x) + p.a * np.log(y) - p.d * x - p.b * y


def conserved_quantity(p: ModelParams, s: PopulationState) -> float:
    """Value of the first integral C = c*ln(x) + a*ln(y) - d*x - b*y.

    The logarithms are kept as a sum rather than ln(x**c * y**a) so that large
    populations do not overflow the power.  Requires x > 0 and y > 0.
    """
    if s.x <= 0.0 or s.y <= 0.0:
        raise PositivityError(
            f"conserved quantity needs positive populations, got ({s.x}, {s.y})"
        )
    return float(_first_integral(p, s.x, s.y))


def invariant_residual(p: ModelParams, s: PopulationState, s0: PopulationState) -> float:
    """Drift of the first integral at s relative to the anchor state s0."""
    return conserved_quantity(p, s) - conserved_quantity(p, s0)
