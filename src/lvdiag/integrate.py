"""Adaptive reference integration of the prey-predator equations.

The stepper is the explicit embedded Runge-Kutta pair of Dormand & Prince
(seven stages, FSAL): the fifth-order result propagates the state and the
difference against the embedded fourth-order result drives a
proportional-integral step controller.  The state is two floats and every
stage is written out inline, right-hand side included, so a step is a few
dozen float operations and twelve exponentials with no Python call between
them.  ``IntegratorStats.rhs_evals`` still counts six evaluations per step
attempt, as DOPRI5's NFCN does.  Each accepted step is kept in a
``DenseSolution`` together with the quartic interpolation polynomial of
Shampine, so one pass can be sampled on any number of grids without
constraining the step sequence.  The orbit period is found as an event on
those same steps (Hairer, Norsett & Wanner, Solving ODEs I, section II.6).

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
# Steps below this fraction of t_end indicate stiffness or blow-up.
_MIN_STEP_FRACTION = 1e-14
# Budget of step attempts (accepted plus rejected) per pass.
_MAX_STEPS = 1_000_000

# One record per accepted step: t1, h, u1, v1 and the stage values
# (k1..k7, u and v interleaved), packed so a long pass stays compact.
_STEP_RECORD = struct.Struct("18d")

# A search without a return ends here, in units of the linearised angular period.
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
        Every point is interpolated, each on its own, so a sub-grid samples
        the same bits as the full grid; the boundary hits are then
        overwritten.  The grid and every sampled value are checked once,
        here, and the trajectory is built without a second check.
        """
        grid = _validated_grid(t_grid)
        t = self.t
        if grid[-1] > t[-1]:
            raise ValueError(
                f"grid point t={grid[-1]!r} lies past the last step, which ends at t={t[-1]!r}"
            )
        end = _step_ends(t, grid)
        hits = np.flatnonzero(t.take(end) == grid)
        boundary_states = self.states.take(end[hits], axis=0)
        # Only grid[0] can be t[0] = 0, which ends no step; step 0 serves it.
        end[0] = max(end[0], 1)
        step = end - 1
        t0 = t.take(step)
        theta = grid - t0
        theta /= t.take(end) - t0
        # theta**1..4 with the ufuncs of the ** operator, written straight into
        # the rows the interpolant weighs.  theta keeps its own buffer: numpy's
        # SIMD power loop falls back to libm's pow when input and output overlap.
        powers = np.empty((grid.size, 4))
        powers[:, 0] = theta
        np.square(theta, out=powers[:, 1])
        np.power(theta, 3, out=powers[:, 2])
        np.power(theta, 4, out=powers[:, 3])
        out = np.einsum("scj,sj->sc", self.q.take(step, axis=0), powers)
        out += self.w.take(step, axis=0)
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
        out[hits] = boundary_states
        if not np.all(np.isfinite(out)):
            raise DivergenceError("a sampled state left the finite range (blow-up)")
        return Trajectory._checked(grid, out[:, 0], out[:, 1])


def _step_ends(t, grid):
    """``np.searchsorted(t, grid)`` for a sorted t and a strictly increasing grid.

    Each entry counts the boundaries t[i] < grid[j].  It is found from where
    each boundary falls in the grid, a running sum over those positions, so
    the binary searches run over the step boundaries, which a fine grid
    outnumbers.
    """
    n = grid.size
    return np.bincount(np.searchsorted(grid, t, "right"), minlength=n + 1)[:n].cumsum()


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
    """Section crossing inside one step, polished by bisection on its interpolant.

    ``qc`` holds the step's theta^1..theta^4 weights of the crossing
    component, whose log is ``w0`` at t0.  Each halving evaluates
    w0 + (q1*theta + q2*theta**2 + q3*theta**3 + q4*theta**4) in Python
    floats, summed left to right.  The bracket stops at 1e-10 in time, or
    where lo and hi are adjacent doubles, so that the midpoint is one of them.
    """
    q1, q2, q3, q4 = qc.tolist()
    lo, hi = t0, t1
    while hi - lo > _PERIOD_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        theta = (mid - t0) / (t1 - t0)
        w = w0 + (q1 * theta + q2 * theta**2 + q3 * theta**3 + q4 * theta**4)
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
    root is polished by bisection on the dense output to 1e-10 in time, or to
    adjacent doubles where those lie further apart.  The pass then ends at
    max(ivp.t_end, 1.2 * period), the closure window.  The event is tested
    on every accepted step until it fires, so ``period`` is None only when
    no return occurs by max(ivp.t_end, 100/sqrt(a*c)), where that pass ends
    (100/sqrt(a*c) is about sixteen linearised revolutions).
    No search runs where no orbit can close, at an equilibrium or when b or d
    is 0; that pass ends at ``ivp.t_end`` with ``period`` None.  Whichever
    window the pass spans, a step below 1e-14 of ``ivp.t_end`` is a failure.
    """
    p = ivp.params
    x0, y0 = ivp.initial.x, ivp.initial.y
    if not (x0 > 0.0 and y0 > 0.0):
        raise PositivityError(f"the start ({x0}, {y0}) must have positive populations")
    start, rhs = _make_flow(p, x0, y0)
    u, v = start
    section = _start_section(p, x0, y0) if find_period else None
    horizon = ivp.t_end
    if section is not None:
        # Two square roots, so a product of tiny rates cannot underflow to zero.
        horizon = max(horizon, _PERIOD_SEARCH_FACTOR / math.sqrt(p.a) / math.sqrt(p.c))
        comp, level, direction = section
        g_prev = 0.0

    records = bytearray()
    rejected = nonfinite = 0
    period = None
    fu, fv = rhs(u, v)
    if not (math.isfinite(fu) and math.isfinite(fv)):
        raise DivergenceError(f"the field at the start ({x0!r}, {y0!r}) is not finite")
    h = _initial_step(rhs, u, v, fu, fv, horizon, cfg)
    if h == 0.0:
        raise StepSizeUnderflowError(
            f"the field at the start ({x0!r}, {y0!r}) is too large to take a first step"
        )
    floor = _MIN_STEP_FRACTION * ivp.t_end
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    a, b, d = p.a, p.b, p.d
    # -c is negated once here: negation is exact, so nc + d*e^u rounds as
    # -c + d*e^u does in every stage.
    nc = -p.c
    exp, isfinite, sqrt, pack = math.exp, math.isfinite, math.sqrt, _STEP_RECORD.pack
    # The tableau and the controller's constants, bound as locals like the
    # functions above; -alpha is an exact negation, so safe**neg_alpha is
    # safe**-_ALPHA.
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    neg_alpha, beta = -_ALPHA, _BETA
    t = 0.0
    err_prev = 1.0
    rejected_nonfinite = False
    # |u| and |v| at the step's start, abs written out; an accepted step hands
    # on its end's, which it has already computed for its own error scale.
    su = u if u >= 0.0 else -u
    sv = v if v >= 0.0 else -v
    for _ in range(_MAX_STEPS):
        if t >= horizon:
            break
        clipped = horizon - t <= h
        if clipped:
            h = horizon - t
        if h < floor:
            if rejected_nonfinite:
                raise DivergenceError(f"state left the finite range near t={t!r} (blow-up)")
            raise StepSizeUnderflowError(
                f"step size {h!r} fell below {floor!r}, {_MIN_STEP_FRACTION:g} of the horizon "
                f"{ivp.t_end:g}, at t={t!r}; shorten the horizon"
            )
        # Each stage is the field a - b*e^v, -c + d*e^u, written out.  A stage
        # that overflows (OverflowError, or an inf or NaN reaching the sums) is
        # an expected, handled outcome: the attempt is rejected as non-finite.
        try:
            w = u + h * (a21 * fu)
            z = v + h * (a21 * fv)
            k2u = a - b * exp(z)
            k2v = nc + d * exp(w)
            w = u + h * (a31 * fu + a32 * k2u)
            z = v + h * (a31 * fv + a32 * k2v)
            k3u = a - b * exp(z)
            k3v = nc + d * exp(w)
            w = u + h * (a41 * fu + a42 * k2u + a43 * k3u)
            z = v + h * (a41 * fv + a42 * k2v + a43 * k3v)
            k4u = a - b * exp(z)
            k4v = nc + d * exp(w)
            w = u + h * (a51 * fu + a52 * k2u + a53 * k3u + a54 * k4u)
            z = v + h * (a51 * fv + a52 * k2v + a53 * k3v + a54 * k4v)
            k5u = a - b * exp(z)
            k5v = nc + d * exp(w)
            w = u + h * (a61 * fu + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
            z = v + h * (a61 * fv + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
            k6u = a - b * exp(z)
            k6v = nc + d * exp(w)
            u1 = u + h * (b1 * fu + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
            v1 = v + h * (b1 * fv + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            x1 = exp(u1)
            y1 = exp(v1)
            k7u = a - b * y1
            k7v = nc + d * x1
            # fu and fv are finite already: the start's field, or the k7 of an
            # accepted attempt.  Any inf or NaN among the other stored values
            # makes their sum inf or NaN, and a sum of finite floats is finite
            # unless it overflows, so the exact per-value test runs only when
            # this sum is not finite.  total - total is 0.0 for a finite total
            # and NaN for an inf or NaN one, so the comparison is isfinite's.
            total = (
                u1 + v1 + k2u + k2v + k3u + k3v + k4u + k4v + k5u + k5v + k6u + k6v + k7u + k7v
            )
            finite = total - total == 0.0 or all(map(isfinite, (
                u1, v1, k2u, k2v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v,
            )))
        except OverflowError:
            finite = False
        if finite:
            eu = h * (e1 * fu + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u)
            ev = h * (e1 * fv + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
            # Scaled by atol + rtol * max(|u|, |u1|), abs and max written out;
            # a zero's sign cannot reach the scale, as atol > 0.
            su1 = u1 if u1 >= 0.0 else -u1
            sv1 = v1 if v1 >= 0.0 else -v1
            eu /= atol + rtol * (su1 if su1 > su else su)
            ev /= atol + rtol * (sv1 if sv1 > sv else sv)
            err_norm = sqrt(0.5 * (eu * eu + ev * ev))
        else:
            err_norm = math.inf
        # The controller's max and min are written as the builtins pick:
        # the first argument unless the second is strictly larger (smaller),
        # so a NaN err_norm leaves factor 1.0 and a NaN factor becomes 0.2.
        if err_norm <= 1.0:
            t1 = horizon if clipped else t + h
            records += pack(
                t1, h, u1, v1, fu, fv, k2u, k2v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v
            )
            if section is not None:
                g = direction * ((y1 if comp == 1 else x1) - level)
                if g_prev < 0.0 <= g:
                    section = None
                    if comp:
                        stages = (fv, k2v, k3v, k4v, k5v, k6v, k7v)
                    else:
                        stages = (fu, k2u, k3u, k4u, k5u, k6u, k7u)
                    qc = h * (np.array(stages) @ _P)
                    period = _bisect_return((u, v)[comp], qc, t, t1, level, direction)
                    horizon = max(ivp.t_end, _CLOSURE_SPAN * period)
                g_prev = g
            safe = 1e-10 if 1e-10 > err_norm else err_norm
            factor = safety * safe**neg_alpha * err_prev**beta
            err_prev = safe
            t = t1
            u = u1
            v = v1
            fu = k7u
            fv = k7v
            su = su1
            sv = sv1
            rejected_nonfinite = False
        else:
            rejected += 1
            nonfinite += not finite
            rejected_nonfinite = not finite
            factor = safety * err_norm**neg_alpha if finite else min_factor
            factor = factor if factor < 1.0 else 1.0
        factor = factor if factor > min_factor else min_factor
        h *= factor if factor < max_factor else max_factor
    if t < horizon:
        raise StepSizeUnderflowError(f"step budget of {_MAX_STEPS} exceeded before t={horizon!r}")

    steps = np.frombuffer(records).reshape(-1, 18)
    t_arr = np.concatenate(([0.0], steps[:, 0]))
    w_arr = np.concatenate(([start], steps[:, 2:4]))
    q_arr = steps[:, 1, None, None] * (steps[:, 4:].reshape(-1, 7, 2).transpose(0, 2, 1) @ _P)
    with np.errstate(over="ignore"):
        states = np.exp(w_arr)
    states[0] = (x0, y0)
    # Two evaluations sized the first step; each attempt makes six more.
    accepted = len(steps)
    stats = IntegratorStats(accepted, rejected, nonfinite, 2 + 6 * (accepted + rejected))
    return DenseSolution(t_arr, w_arr, q_arr, states, period, stats)

