"""Adaptive reference integration of the prey-predator equations.

The stepper is the explicit embedded Runge-Kutta pair of Dormand & Prince
(seven stages, FSAL): the fifth-order result propagates the state and the
difference against the embedded fourth-order result drives a
proportional-integral step controller.  The state is two floats and every
stage is written out, so a step costs a few dozen float operations and six
right-hand-side calls.  Each accepted step is kept in a ``DenseSolution``
together with the quartic interpolation polynomial of Shampine, so one pass
can be sampled on any number of grids without constraining the step sequence.
The orbit period is found as an event on those same steps (Hairer, Norsett &
Wanner, Solving ODEs I, section II.6).

Trajectories are advanced in logarithmic population coordinates, so the
start must have both populations strictly positive: the transform is then
smooth, it makes positivity structural, and relative error control keeps the
huge dynamic range of large-amplitude orbits resolved (populations dive far
below any absolute tolerance while their logarithms stay moderate).

No structural correction (e.g. projection onto the conserved level set) is
applied; whatever drift the scheme produces is left visible to diagnostics.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError, PositivityError, StepSizeUnderflowError
from .series import InitialValueProblem, _validated_grid
from .trajectory import Trajectory

# Dormand-Prince 5(4) tableau (the nodes are unused: the system is autonomous).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Fifth-order minus embedded fourth-order weights (error estimate; E2 = 0).
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)
# Shampine's fourth-order interpolant: rows are the stages, columns the
# theta^1..theta^4 weights.
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for a fourth-order error estimate.
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0
# Steps below this fraction of the horizon indicate stiffness or blow-up.
_MIN_STEP_FRACTION = 1e-14
# Budget of step attempts (accepted plus rejected) per pass.
_MAX_STEPS = 1_000_000

# One record per accepted step: t1, h, u1, v1 and the stage values
# (k1..k7, u and v interleaved), packed so a long pass stays compact.
_STEP_RECORD = struct.Struct("18d")

# Horizon of the return search, in units of the linearised angular period.
_PERIOD_SEARCH_FACTOR = 100.0
# A pass that finds its period runs on to this many periods, the closure window.
_CLOSURE_SPAN = 1.2
_PERIOD_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0) or not (0.0 < self.abs_tol < 1.0):
            raise ValueError(
                f"tolerances must lie in (0, 1), got rel_tol={self.rel_tol}, abs_tol={self.abs_tol}"
            )


@dataclass(frozen=True)
class IntegratorStats:
    """Work done by one pass, after DOPRI5's NACCPT, NREJCT and NFCN counters."""

    accepted: int
    rejected: int
    nonfinite_rejected: int
    rhs_evals: int


@dataclass(frozen=True)
class DenseSolution:
    """The accepted steps of one adaptive pass from t=0, with dense output.

    ``t`` holds the step boundaries (n+1 values, t[0] = 0), ``w`` the states
    there in log populations (n+1 x 2), ``q`` each step's interpolant
    weights (n x 2 x 4) and ``states`` the boundary populations, whose first
    row is the initial state itself.  ``period`` is the located orbit period,
    or None when none was searched for or found.
    """

    t: np.ndarray
    w: np.ndarray
    q: np.ndarray
    states: np.ndarray
    period: float | None
    stats: IntegratorStats

    @property
    def h_min(self) -> float:
        """Smallest accepted step; every pass takes at least one.

        The last step may have been cut short to end the pass on its horizon.
        """
        return float(np.min(np.diff(self.t)))

    @property
    def h_max(self) -> float:
        """Largest accepted step."""
        return float(np.max(np.diff(self.t)))

    @property
    def t_final(self) -> float:
        """Where the pass ended: the last step boundary."""
        return float(self.t[-1])

    def sample(self, t_grid) -> Trajectory:
        """Populations on a strictly increasing grid inside [0, t[-1]], in one call.

        A grid point equal to a step boundary returns that boundary's stored
        state bit for bit; the others come from their step's interpolant.
        """
        grid = _validated_grid(t_grid)
        if grid[-1] > self.t[-1]:
            raise ValueError(
                f"grid point t={grid[-1]!r} lies past the last step, which ends at t={self.t[-1]!r}"
            )
        end = np.searchsorted(self.t, grid)
        exact = self.t[end] == grid
        out = self.states[end]
        inner = ~exact
        if inner.any():
            step = end[inner] - 1
            t0 = self.t[step]
            theta = (grid[inner] - t0) / (self.t[step + 1] - t0)
            powers = np.stack([theta, theta**2, theta**3, theta**4], axis=1)
            w = self.w[step] + np.einsum("scj,sj->sc", self.q[step], powers)
            with np.errstate(over="ignore"):
                out[inner] = np.exp(w)
        if not np.all(np.isfinite(out)):
            raise DivergenceError("a sampled state left the finite range (blow-up)")
        return Trajectory(grid, out[:, 0], out[:, 1])


def _exp(z):
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _make_flow(p, x0, y0):
    """Log-population start and right-hand side (u, v) -> (du, dv) for a positive state."""
    a, b, c, d = p.a, p.b, p.c, p.d

    def rhs(u, v):
        return a - b * _exp(v), -c + d * _exp(u)

    return (math.log(x0), math.log(y0)), rhs


def _rms(a, b):
    return math.sqrt(0.5 * (a * a + b * b))


def _initial_step(rhs, u, v, fu, fv, horizon, cfg):
    """Curvature-based starting step (one trial evaluation)."""
    su = cfg.abs_tol + cfg.rel_tol * abs(u)
    sv = cfg.abs_tol + cfg.rel_tol * abs(v)
    d0 = _rms(u / su, v / sv)
    d1 = _rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, horizon)
    if h0 == 0.0:
        # The scaled field is too large to square (d1 = inf): no step resolves it.
        return 0.0
    gu, gv = rhs(u + h0 * fu, v + h0 * fv)
    d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, horizon)


def _start_section(p, x0, y0):
    """(component, level, direction) of the return section, None where no orbit closes.

    No orbit closes at an equilibrium, nor when b or d is 0 (each is compared
    with zero, as b*d can underflow): each population is then an exponential.

    The section is the line through the (positive) initial state normal to
    the faster changing component, judged by the rate of its logarithm: y when
    |d*x0 - c| >= |a - b*y0|, x otherwise.  A start next to an extremum of the
    slower component would otherwise leave a return excursion narrower than a
    step.  A return counts only when crossed in the same direction as at
    departure.
    """
    if p.b == 0.0 or p.d == 0.0:
        return None
    rate_x = p.a - p.b * y0
    rate_y = p.d * x0 - p.c
    if rate_x == 0.0 and rate_y == 0.0:
        return None
    if abs(rate_y) >= abs(rate_x):
        return 1, y0, 1.0 if rate_y > 0.0 else -1.0
    return 0, x0, 1.0 if rate_x > 0.0 else -1.0


def _bisect_return(w0, qc, t0, t1, level, direction):
    """Section crossing inside one step, polished by bisection on its interpolant."""
    lo, hi = t0, t1
    while hi - lo > _PERIOD_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        theta = (mid - t0) / (t1 - t0)
        w = w0 + qc @ np.array([theta, theta**2, theta**3, theta**4])
        if direction * (_exp(w) - level) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def solve(
    ivp: InitialValueProblem,
    cfg: IntegratorConfig = IntegratorConfig(),
    find_period: bool = False,
) -> DenseSolution:
    """One adaptive pass from t=0, kept as a dense solution.

    The start must have both populations strictly positive (else
    ``PositivityError``).  Without ``find_period`` the pass ends at the
    problem horizon ``ivp.t_end``.  With it, ``period`` is the first
    directed return to the start section, located as an event on the accepted
    steps: the section is the line through the initial state normal to the
    component whose logarithm changes faster at t=0 (y on ties), a return
    counts only when crossed in the same direction as at departure, and the
    root is polished by bisection on the dense output to 1e-10 in time.  The
    pass then ends at max(ivp.t_end, 1.2 * period), the closure window.  When
    no return occurs within the search horizon 100/sqrt(a*c), about sixteen
    linearised revolutions, it ends at max(ivp.t_end, that horizon).  No
    search runs where no orbit can close, at an equilibrium or when b or d is
    0; that pass ends at ``ivp.t_end``.  ``period`` is None in both cases.
    """
    p = ivp.params
    x0, y0 = ivp.initial.x, ivp.initial.y
    if not (x0 > 0.0 and y0 > 0.0):
        raise PositivityError(f"the start ({x0}, {y0}) must have positive populations")
    start, rhs = _make_flow(p, x0, y0)
    u, v = start
    section = _start_section(p, x0, y0) if find_period else None
    # Two square roots, so a product of tiny rates cannot underflow to zero.
    search_end = _PERIOD_SEARCH_FACTOR / math.sqrt(p.a) / math.sqrt(p.c)
    horizon = ivp.t_end if section is None else max(ivp.t_end, search_end)

    records = bytearray()
    accepted = rejected = nonfinite = 0
    period = None
    fu, fv = rhs(u, v)
    if not (math.isfinite(fu) and math.isfinite(fv)):
        raise DivergenceError(f"the field at the start ({x0!r}, {y0!r}) is not finite")
    h = _initial_step(rhs, u, v, fu, fv, horizon, cfg)
    if h == 0.0:
        raise StepSizeUnderflowError(
            f"the field at the start ({x0!r}, {y0!r}) is too large to take a first step"
        )
    nfev = 2
    floor = _MIN_STEP_FRACTION * horizon
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    searching = section is not None
    if searching:
        comp, level, direction = section
        g_prev = 0.0
    t = 0.0
    err_prev = 1.0
    rejected_nonfinite = False
    for _ in range(_MAX_STEPS):
        if t >= horizon:
            break
        clipped = horizon - t <= h
        if clipped:
            h = horizon - t
        if h < floor:
            if rejected_nonfinite:
                raise DivergenceError(f"state left the finite range near t={t!r} (blow-up)")
            if horizon == ivp.t_end:
                remedy = "shorten the horizon"
            elif period is None:
                remedy = f"the horizon is the period search's window, {_PERIOD_SEARCH_FACTOR:g}/sqrt(a*c)"
            else:
                remedy = f"the horizon is the closure window, {_CLOSURE_SPAN:g} periods"
            raise StepSizeUnderflowError(
                f"step size {h!r} fell below {floor!r}, {_MIN_STEP_FRACTION:g} of the horizon "
                f"{horizon:g}, at t={t!r}; {remedy}"
            )
        # Overflow in a trial stage is an expected, handled outcome: the
        # stage turns non-finite and the step is rejected below.
        k2u, k2v = rhs(u + h * (_A21 * fu), v + h * (_A21 * fv))
        k3u, k3v = rhs(u + h * (_A31 * fu + _A32 * k2u), v + h * (_A31 * fv + _A32 * k2v))
        k4u, k4v = rhs(
            u + h * (_A41 * fu + _A42 * k2u + _A43 * k3u),
            v + h * (_A41 * fv + _A42 * k2v + _A43 * k3v),
        )
        k5u, k5v = rhs(
            u + h * (_A51 * fu + _A52 * k2u + _A53 * k3u + _A54 * k4u),
            v + h * (_A51 * fv + _A52 * k2v + _A53 * k3v + _A54 * k4v),
        )
        k6u, k6v = rhs(
            u + h * (_A61 * fu + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u),
            v + h * (_A61 * fv + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v),
        )
        u1 = u + h * (_B1 * fu + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        v1 = v + h * (_B1 * fv + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        k7u, k7v = rhs(u1, v1)
        nfev += 6
        values = (u1, v1, fu, fv, k2u, k2v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v)
        # A sum of finite floats is finite unless it overflows, so the
        # exact test runs only when the cheap one fails.
        finite = math.isfinite(sum(values)) or all(map(math.isfinite, values))
        if finite:
            eu = h * (_E1 * fu + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
            ev = h * (_E1 * fv + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
            su = atol + rtol * max(abs(u), abs(u1))
            sv = atol + rtol * max(abs(v), abs(v1))
            err_norm = _rms(eu / su, ev / sv)
        else:
            err_norm = math.inf
        if err_norm <= 1.0:
            t1 = horizon if clipped else t + h
            records += _STEP_RECORD.pack(t1, h, *values)
            accepted += 1
            if searching:
                g = direction * (_exp(v1 if comp == 1 else u1) - level)
                if g_prev < 0.0 <= g:
                    searching = False
                    qc = h * (np.array(values[2 + comp :: 2]) @ _P)
                    root = _bisect_return((u, v)[comp], qc, t, t1, level, direction)
                    if root <= search_end:
                        period = root
                        horizon = max(ivp.t_end, _CLOSURE_SPAN * root)
                        floor = _MIN_STEP_FRACTION * horizon
                g_prev = g
                searching = searching and t1 < search_end
            safe = max(err_norm, 1e-10)
            factor = _SAFETY * safe**-_ALPHA * err_prev**_BETA
            err_prev = safe
            t, u, v, fu, fv = t1, u1, v1, k7u, k7v
            rejected_nonfinite = False
        else:
            rejected += 1
            nonfinite += not finite
            rejected_nonfinite = not finite
            factor = _MIN_FACTOR if not finite else min(1.0, _SAFETY * err_norm**-_ALPHA)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    if t < horizon:
        raise StepSizeUnderflowError(f"step budget of {_MAX_STEPS} exceeded before t={horizon!r}")

    steps = np.frombuffer(records).reshape(-1, 18)
    t_arr = np.concatenate(([0.0], steps[:, 0]))
    w_arr = np.concatenate(([start], steps[:, 2:4]))
    q_arr = steps[:, 1, None, None] * (steps[:, 4:].reshape(-1, 7, 2).transpose(0, 2, 1) @ _P)
    with np.errstate(over="ignore"):
        states = np.exp(w_arr)
    states[0] = (x0, y0)
    stats = IntegratorStats(accepted, rejected, nonfinite, nfev)
    return DenseSolution(t_arr, w_arr, q_arr, states, period, stats)

