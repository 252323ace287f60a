"""Prey-predator dynamics: truncated-series schemes and their failure diagnostics.

The package solves the classic two-species predation model four ways
(Taylor recurrence, Adomian decomposition, homotopy perturbation,
variational iteration), integrates it properly with an adaptive embedded
Runge-Kutta reference, and measures where and how the polynomial
approximants break down: divergence from the orbit, drift of the conserved
quantity, phase curves that cross themselves, and orbits that fail to close.
"""

from .diagnostics import (
    DiagnosticsReport,
    SegmentCrossing,
    conservation_drift,
    divergence_time,
    failure_report,
    self_intersection,
)
from .exceptions import (
    DivergenceError,
    IntegrationError,
    NonFiniteError,
    PositivityError,
    StepSizeUnderflowError,
    UnknownPresetError,
)
from .integrate import IntegratorConfig, solve
from .methods import (
    AgreementReport,
    MethodKind,
    method_series,
    methods_agree,
)
from .model import ModelParams, PopulationState
from .presets import preset, preset_names
from .series import (
    InitialValueProblem,
    SeriesSolution,
    sample_series,
)
from .trajectory import Trajectory

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "DiagnosticsReport",
    "DivergenceError",
    "InitialValueProblem",
    "IntegrationError",
    "IntegratorConfig",
    "MethodKind",
    "ModelParams",
    "NonFiniteError",
    "PopulationState",
    "PositivityError",
    "SegmentCrossing",
    "SeriesSolution",
    "StepSizeUnderflowError",
    "Trajectory",
    "UnknownPresetError",
    "conservation_drift",
    "divergence_time",
    "failure_report",
    "method_series",
    "methods_agree",
    "preset",
    "preset_names",
    "sample_series",
    "self_intersection",
    "solve",
]
