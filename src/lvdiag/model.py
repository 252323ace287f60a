"""Planar prey-predator model.

The populations x (prey) and y (predator) evolve under

    dx/dt =  x * (a - b*y)
    dy/dt = -y * (c - d*x)

with growth rate a, predation rate b, predator decay c and conversion rate d.
The module holds the validated parameters and states, and a private kernel
that skips validation: the first integral that closed orbits conserve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteError


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


def _first_integral(p, x, y):
    """C = c*ln(x) + a*ln(y) - d*x - b*y on floats or arrays, with no domain check.

    ``diagnostics._invariant_column`` evaluates it once per trajectory.  The
    logarithms are kept as a sum rather than ln(x**c * y**a) so that large
    populations do not overflow the power.
    """
    return p.c * np.log(x) + p.a * np.log(y) - p.d * x - p.b * y
