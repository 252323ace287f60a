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
    PeriodNotFoundError,
    PositivityError,
    StepSizeUnderflowError,
    UnknownPresetError,
)
from .integrate import IntegratorConfig, closed_orbit_check, estimate_period, integrate
from .methods import (
    AgreementReport,
    MethodKind,
    adomian_components,
    adomian_series,
    hpm_series,
    hpm_terms,
    method_series,
    methods_agree,
    vim_iterates,
)
from .model import (
    FixedPointKind,
    FixedPointReport,
    ModelParams,
    PopulationState,
    conserved_quantity,
    fixed_points,
    invariant_residual,
    jacobian,
    vector_field,
)
from .presets import CasePreset, preset, preset_names
from .series import (
    InitialValueProblem,
    SeriesSolution,
    coefficient_growth,
    evaluate_series,
    sample_series,
    taylor_coefficients,
)
from .trajectory import Trajectory

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "CasePreset",
    "DiagnosticsReport",
    "DivergenceError",
    "FixedPointKind",
    "FixedPointReport",
    "InitialValueProblem",
    "IntegrationError",
    "IntegratorConfig",
    "MethodKind",
    "ModelParams",
    "NonFiniteError",
    "PeriodNotFoundError",
    "PopulationState",
    "PositivityError",
    "SegmentCrossing",
    "SeriesSolution",
    "StepSizeUnderflowError",
    "Trajectory",
    "UnknownPresetError",
    "adomian_components",
    "adomian_series",
    "closed_orbit_check",
    "coefficient_growth",
    "conservation_drift",
    "conserved_quantity",
    "divergence_time",
    "estimate_period",
    "evaluate_series",
    "failure_report",
    "fixed_points",
    "hpm_series",
    "hpm_terms",
    "integrate",
    "invariant_residual",
    "jacobian",
    "method_series",
    "methods_agree",
    "preset",
    "preset_names",
    "sample_series",
    "self_intersection",
    "taylor_coefficients",
    "vector_field",
    "vim_iterates",
]
