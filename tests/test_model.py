"""Model layer: parameter and state validation, the model's interior rest
point, and the private kernel ``model._first_integral``, the invariant C that
``conservation_drift`` and the CSV ``C_*`` columns evaluate.
"""

import math

import numpy as np
import pytest

from lvdiag import ModelParams, NonFiniteError, PopulationState
from lvdiag.integrate import _make_flow
from lvdiag.model import _first_integral

CASE_I = ModelParams(1.0, 1.0, 0.1, 1.0)
CASE_V = ModelParams(1.0, 1.0, 1.0, 1.0)

# Direct evaluation of the invariant, pinned (17 significant digits).
C_CASE_V_AT_3_2 = -3.208240530771945
C_CASE_I_AT_14_18 = -28.84572250914231
RESIDUAL_2_1_FROM_3_2 = 0.9013877113318904


def test_params_reject_nonpositive_rates():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, -0.1, 1.0)


def test_params_reject_negative_couplings_but_allow_zero():
    with pytest.raises(ValueError):
        ModelParams(1.0, -1e-9, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.0, -2.0)
    decoupled = ModelParams(1.0, 0.0, 1.0, 0.0)
    assert decoupled.b == 0.0 and decoupled.d == 0.0


def test_params_reject_nonfinite():
    with pytest.raises(NonFiniteError):
        ModelParams(math.nan, 1.0, 1.0, 1.0)
    with pytest.raises(NonFiniteError):
        ModelParams(1.0, math.inf, 1.0, 1.0)


def test_state_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        PopulationState(-1.0, 2.0)
    with pytest.raises(NonFiniteError):
        PopulationState(1.0, math.nan)
    on_axis = PopulationState(0.0, 5.0)
    assert on_axis.x == 0.0


def test_field_vanishes_at_reported_fixed_points():
    """The interior equilibrium (c/d, a/b) is a rest point of the flow the reference steps."""
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        a, b, c, d = rng.uniform(0.1, 3.0, size=4)
        (u, v), rhs = _make_flow(ModelParams(a, b, c, d), c / d, a / b)
        du, dv = rhs(u, v)
        assert abs(du) <= 1e-14 and abs(dv) <= 1e-14


def test_conserved_quantity_values():
    assert _first_integral(CASE_V, 3.0, 2.0) == C_CASE_V_AT_3_2
    assert C_CASE_V_AT_3_2 == pytest.approx(math.log(6.0) - 5.0, abs=1e-15)
    assert _first_integral(CASE_V, 1.0, 1.0) == -2.0
    assert _first_integral(CASE_I, 14.0, 18.0) == C_CASE_I_AT_14_18
    direct = 0.1 * math.log(14.0) + math.log(18.0) - 14.0 - 18.0
    assert C_CASE_I_AT_14_18 == pytest.approx(direct, abs=1e-14)
    # Arrays give the scalar values bit for bit.
    values = _first_integral(CASE_V, np.array([3.0, 1.0]), np.array([2.0, 1.0]))
    assert values.tolist() == [C_CASE_V_AT_3_2, -2.0]


def test_invariant_residual_values():
    residual = _first_integral(CASE_V, 2.0, 1.0) - _first_integral(CASE_V, 3.0, 2.0)
    assert residual == RESIDUAL_2_1_FROM_3_2
    assert residual == pytest.approx(2.0 - math.log(3.0), abs=1e-15)


def test_invariant_gradient_orthogonal_to_field():
    """d/dt C(x(t), y(t)) = 0: the first integral is constant along the flow."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        a, b, c, d = rng.uniform(0.05, 4.0, size=4)
        x, y = rng.uniform(0.05, 20.0, size=2)
        p = ModelParams(a, b, c, d)
        fx, fy = x * (a - b * y), -y * (c - d * x)
        grad_dot_f = (c / x - d) * fx + (a / y - b) * fy
        assert abs(grad_dot_f) <= 1e-12 * (1.0 + math.hypot(fx, fy))
