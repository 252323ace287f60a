"""Failure diagnostics for series approximants against the reference orbit.

A truncated series can go wrong in ways a single error number hides: it can
leave the true orbit, stop conserving the first integral, or draw a phase
curve that crosses itself, which no actual solution of the model can do.
Each symptom gets its own detector here and ``failure_report`` bundles them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import PositivityError
from .integrate import IntegratorConfig, closed_orbit_check, solve
from .methods import MethodKind, method_series
from .model import ModelParams, _first_integral
from .series import InitialValueProblem, sample_series
from .trajectory import Trajectory

# Two polyline endpoints this close (relative to the bounding-box diagonal)
# are treated as the closure of a loop, not as a genuine near-miss.
_CLOSURE_REL_TOL = 1e-6
# Return distance that counts as "the curve closes" in reports.
_CLOSED_ORBIT_EPS = 1e-6
_CLOSURE_WINDOW_FACTOR = 1.2
_CLOSURE_GRID_POINTS = 2401


@dataclass(frozen=True)
class SegmentCrossing:
    """Self-intersection between polyline segments i and j (j >= i + 2)."""

    i: int
    j: int
    point: tuple[float, float]


@dataclass(frozen=True)
class DiagnosticsReport:
    """Divergence, drift, self-crossing and closure summary for one approximant."""

    method: MethodKind
    order: int
    divergence_time: float | None
    max_invariant_drift: float
    max_invariant_drift_ref: float
    self_intersection: SegmentCrossing | None
    closed_orbit: bool
    closed_orbit_ref: bool
    period_estimate: float | None
    excluded_samples: int


def divergence_time(approx: Trajectory, reference: Trajectory, delta: float = 1.0) -> float | None:
    """First grid time where the approximant leaves the reference by more than delta.

    The deviation at a sample is max(|dx|, |dy|) / (1 + max(|x_ref|, |y_ref|)).
    Returns None when the whole grid stays within delta.  Both trajectories
    must share the identical time grid.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not np.array_equal(approx.t, reference.t):
        raise ValueError("trajectories must share the same time grid")
    gap = np.maximum(np.abs(approx.x - reference.x), np.abs(approx.y - reference.y))
    scale = 1.0 + np.maximum(np.abs(reference.x), np.abs(reference.y))
    exceeded = np.nonzero(gap / scale > delta)[0]
    if exceeded.size == 0:
        return None
    return float(approx.t[exceeded[0]])


def _first_crossing_against(ax, ay, bx, by, i, js):
    """Smallest j in js whose segment crosses segment i; returns (j, point) or None.

    Collinear overlap counts as a degenerate crossing; zero-length segments
    cannot cross anything.
    """
    rx = bx[i] - ax[i]
    ry = by[i] - ay[i]
    if rx == 0.0 and ry == 0.0:
        return None
    sx = bx[js] - ax[js]
    sy = by[js] - ay[js]
    qpx = ax[js] - ax[i]
    qpy = ay[js] - ay[i]
    denom = rx * sy - ry * sx
    t_num = qpx * sy - qpy * sx
    u_num = qpx * ry - qpy * rx
    best_j = None
    best_t = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        t = t_num / denom
        u = u_num / denom
    transversal = (denom != 0.0) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    hits = np.nonzero(transversal)[0]
    if hits.size:
        best_j = int(js[hits[0]])
        best_t = float(t[hits[0]])
    collinear = np.nonzero((denom == 0.0) & (u_num == 0.0) & (sx * sx + sy * sy > 0.0))[0]
    rr = rx * rx + ry * ry
    for idx in collinear:
        j = int(js[idx])
        if best_j is not None and j >= best_j:
            break
        t0 = (qpx[idx] * rx + qpy[idx] * ry) / rr
        t1 = t0 + (sx[idx] * rx + sy[idx] * ry) / rr
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        if hi >= 0.0 and lo <= 1.0:
            best_j = j
            best_t = max(0.0, lo)
            break
    if best_j is None:
        return None
    return best_j, (float(ax[i] + best_t * rx), float(ay[i] + best_t * ry))


def self_intersection(traj: Trajectory) -> SegmentCrossing | None:
    """First self-crossing of the phase polyline, scanning pairs lexicographically.

    Consecutive segments are skipped, and so is the (first, last) pair when
    the polyline closes on itself, so a simple closed orbit sampled over one
    period does not read as self-crossing.
    """
    n = len(traj)
    if n < 4:
        raise ValueError(f"self-intersection needs at least 4 samples, got {n}")
    x, y = traj.x, traj.y
    ax, ay = x[:-1], y[:-1]
    bx, by = x[1:], y[1:]
    segments = n - 1
    diag = math.hypot(float(np.ptp(x)), float(np.ptp(y)))
    closure_gap = math.hypot(float(x[-1] - x[0]), float(y[-1] - y[0]))
    closed = closure_gap <= _CLOSURE_REL_TOL * diag
    for i in range(segments - 2):
        js = np.arange(i + 2, segments)
        if i == 0 and closed:
            js = js[:-1]
        if js.size == 0:
            continue
        hit = _first_crossing_against(ax, ay, bx, by, i, js)
        if hit is not None:
            j, point = hit
            return SegmentCrossing(i, j, point)
    return None


def conservation_drift(traj: Trajectory, p: ModelParams) -> float:
    """Largest drift of the first integral across the trajectory samples.

    Samples with a non-positive coordinate are outside the domain of the
    invariant and are skipped (their count is surfaced by failure_report).
    The first sample anchors the comparison and must be positive.
    """
    positive = (traj.x > 0.0) & (traj.y > 0.0)
    if not positive[0]:
        raise PositivityError(
            f"first sample ({traj.x[0]}, {traj.y[0]}) must have positive populations"
        )
    values = _first_integral(p, traj.x[positive], traj.y[positive])
    return float(np.max(np.abs(values - values[0])))


def _excluded_count(traj: Trajectory) -> int:
    return int(np.count_nonzero(~((traj.x > 0.0) & (traj.y > 0.0))))


def failure_report(
    ivp: InitialValueProblem,
    method: MethodKind,
    order: int,
    t_end: float | None = None,
    points: int = 2001,
    cfg: IntegratorConfig | None = None,
    delta: float = 1.0,
) -> DiagnosticsReport:
    """Run one approximation scheme against the reference and collect diagnostics.

    The approximant and the reference are sampled on a uniform grid of
    ``points`` samples over [0, t_end] (defaulting to the problem horizon).
    Orbit closure is judged on a separate period-aligned grid spanning 1.2
    estimated periods; when no period can be found (e.g. decoupled dynamics)
    both closure flags are False.  The reference is integrated once: the
    period is an event on its steps and both grids sample the same pass.
    """
    return _compare_with_reference(ivp, method, order, t_end, points, cfg, delta)[0]


def _compare_with_reference(
    ivp: InitialValueProblem,
    method: MethodKind,
    order: int,
    t_end: float | None = None,
    points: int = 2001,
    cfg: IntegratorConfig | None = None,
    delta: float = 1.0,
) -> tuple[DiagnosticsReport, Trajectory, Trajectory]:
    """``failure_report`` with the reference and approximant trajectories it compared."""
    horizon = ivp.t_end if t_end is None else float(t_end)
    if not horizon > 0.0:
        raise ValueError(f"t_end must be positive, got {horizon}")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    grid = np.linspace(0.0, horizon, points)
    solution = solve(ivp, cfg, t_end=horizon, period_span=_CLOSURE_WINDOW_FACTOR)
    reference = solution.sample(grid)
    series = method_series(ivp, method, order)
    approx = sample_series(series, grid)
    drift_ref = conservation_drift(reference, ivp.params)
    drift_approx = conservation_drift(approx, ivp.params)
    period = solution.period
    closed_ref = closed_approx = False
    if period is not None:
        closure_grid = np.linspace(0.0, _CLOSURE_WINDOW_FACTOR * period, _CLOSURE_GRID_POINTS)
        closed_ref = closed_orbit_check(
            solution.sample(closure_grid), ivp, _CLOSED_ORBIT_EPS, period=period
        )
        closed_approx = closed_orbit_check(
            sample_series(series, closure_grid), ivp, _CLOSED_ORBIT_EPS, period=period
        )
    report = DiagnosticsReport(
        method=method,
        order=int(order),
        divergence_time=divergence_time(approx, reference, delta),
        max_invariant_drift=drift_approx,
        max_invariant_drift_ref=drift_ref,
        self_intersection=self_intersection(approx),
        closed_orbit=closed_approx,
        closed_orbit_ref=closed_ref,
        period_estimate=period,
        excluded_samples=_excluded_count(approx),
    )
    return report, reference, approx
