"""Exception types shared across the package.

Domain problems (bad values handed to a function) derive from ValueError so
callers can treat them like any other argument error; runtime failures of the
adaptive integrator derive from a common IntegrationError base.
"""


class NonFiniteError(ValueError):
    """An input that must be finite is NaN or infinite."""


class PositivityError(ValueError):
    """A logarithm-backed quantity was asked for at a non-positive coordinate.

    Kept distinct from NonFiniteError so callers can tell "outside the domain
    of the conserved quantity" apart from "garbage input".
    """


class IntegrationError(RuntimeError):
    """Base class for reference-integrator failures."""


class StepSizeUnderflowError(IntegrationError):
    """The controller pushed the step below the stiffness floor (1e-14 of the horizon)."""


class DivergenceError(IntegrationError):
    """The integration state left the finite range (blow-up / overflow)."""


class UnknownPresetError(KeyError):
    """Requested case preset does not exist; the message lists the known names."""
