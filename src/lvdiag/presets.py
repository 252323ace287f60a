"""Named problems used by the command-line reports, each on its default window."""

from __future__ import annotations

from .exceptions import UnknownPresetError
from .model import ModelParams, PopulationState
from .series import InitialValueProblem

_REGISTRY = {
    # Slow predator decay, large populations far from the centre.
    "case-I": InitialValueProblem(ModelParams(1.0, 1.0, 0.1, 1.0), PopulationState(14.0, 18.0), 10.0),
    # Unit rates, moderate orbit around the centre (1, 1).
    "case-V": InitialValueProblem(ModelParams(1.0, 1.0, 1.0, 1.0), PopulationState(3.0, 2.0), 10.0),
    # Zero coupling: exact exponentials, a sanity case rather than an orbit.
    "decoupled": InitialValueProblem(ModelParams(1.0, 0.0, 1.0, 0.0), PopulationState(1.0, 1.0), 1.0),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def preset(name: str) -> InitialValueProblem:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise UnknownPresetError(f"unknown preset {name!r}; available presets: {known}") from None
