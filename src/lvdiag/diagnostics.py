"""Failure diagnostics for series approximants against the reference orbit.

A truncated series can go wrong in ways a single error number hides: it can
leave the true orbit, stop conserving the first integral, or draw a phase
curve that crosses itself, which no actual solution of the model can do.
Each symptom gets its own detector here and ``failure_report`` bundles them.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from functools import partial
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteError, PositivityError
from .integrate import _CLOSURE_SPAN, IntegratorConfig, solve
from .methods import MethodKind, method_series
from .model import ModelParams, _first_integral
from .series import InitialValueProblem, sample_series
from .trajectory import Trajectory

# Two polyline endpoints this close (relative to the bounding-box diagonal)
# are treated as the closure of a loop, not as a genuine near-miss.
_CLOSURE_REL_TOL = 1e-6
# Return distance that counts as "the curve closes" in reports.
_CLOSED_ORBIT_EPS = 1e-6
_CLOSURE_GRID_POINTS = 2401
# Block cap on segment pairs per scan step; bounds the scan's temporaries.
_BLOCK_PAIRS = 1 << 16


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
    That scale mixes absolute and relative error, so t_div is not invariant
    under the model's scalings x -> lambda*x, y -> mu*y.  Returns None when
    the whole grid stays within delta.  Both trajectories must share one grid.
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


def _straddles(ax, ay, bx, by, dx, dy, i, j):
    """Whether segment j's endpoints lie on opposite sides of segment i's line, or on it.

    A side is the sign of the turn (p - a_i) x (b_i - a_i); a turn that
    overflows reads as no crossing.
    """
    ta = (ax[j] - ax[i]) * dy[i] - (ay[j] - ay[i]) * dx[i]
    tb = (bx[j] - ax[i]) * dy[i] - (by[j] - ay[i]) * dx[i]
    return np.isfinite(ta) & np.isfinite(tb) & (np.sign(ta) * np.sign(tb) <= 0.0)


def _crossing_point(ax, ay, dx, dy, i, j):
    """Where segment j meets segment i, as a point of segment i.

    A transversal pair meets at t = t_num/denom along i, a collinear pair at
    the start of their overlap.
    """
    qpx, qpy = ax[j] - ax[i], ay[j] - ay[i]
    denom = dx[i] * dy[j] - dy[i] * dx[j]
    if denom != 0.0:
        t = (qpx * dy[j] - qpy * dx[j]) / denom
    else:
        rr = dx[i] * dx[i] + dy[i] * dy[i]
        t0 = (qpx * dx[i] + qpy * dy[i]) / rr
        t = max(0.0, min(t0, t0 + (dx[j] * dx[i] + dy[j] * dy[i]) / rr))
    return float(ax[i] + t * dx[i]), float(ay[i] + t * dy[i])


def self_intersection(traj: Trajectory) -> SegmentCrossing | None:
    """First self-crossing of the phase polyline, in lexicographic (i, j) order.

    Two closed segments meet when their bounding boxes overlap and each has
    the other's endpoints on opposite sides of its line, or on it (Cormen et
    al., SEGMENTS-INTERSECT): collinear overlap counts, and a zero-length
    segment meets nothing.  Consecutive segments are skipped, and so is the
    (first, last) pair when the polyline closes on itself, so a simple closed
    orbit sampled over one period does not read as self-crossing.

    Only pairs whose x-ranges overlap are tested: the segments are sorted by
    their left end once, and each one is paired with the run of later
    segments that start inside its own x-range, touching ends included
    (the broad phase of Shamos & Hoey's sweep).  Every candidate is tested
    and the smallest hit is kept, so there is no early exit; a curve whose
    segments all overlap in x still costs O(n^2) tests, in blocks of at most
    ``_BLOCK_PAIRS`` pairs.
    """
    n = len(traj)
    if n < 4:
        raise ValueError(f"self-intersection needs at least 4 samples, got {n}")
    x, y = traj.x, traj.y
    ax, ay, bx, by = x[:-1], y[:-1], x[1:], y[1:]
    dx, dy = bx - ax, by - ay
    lox, hix, loy, hiy = np.minimum(ax, bx), np.maximum(ax, bx), np.minimum(ay, by), np.maximum(ay, by)
    has_length = (dx != 0.0) | (dy != 0.0)
    segments = n - 1
    diag = math.hypot(float(np.ptp(x)), float(np.ptp(y)))
    closure_gap = math.hypot(float(x[-1] - x[0]), float(y[-1] - y[0]))
    closed = closure_gap <= _CLOSURE_REL_TOL * diag
    order = np.argsort(lox, kind="stable")
    # Sorted position p is paired with positions p+1 .. ends[p]-1; flat pair
    # index first[p] + m is the pair (p, p+1+m).
    ends = np.searchsorted(lox[order], hix[order], side="right")
    next_position = np.arange(1, segments + 1)
    counts = ends - next_position
    first = np.cumsum(counts) - counts
    shift = first - next_position
    total = int(first[-1] + counts[-1])
    loy_s, hiy_s = loy[order], hiy[order]
    loy_s[~has_length[order]] = np.inf  # a zero-length segment overlaps no box
    best = segments * segments  # above every pair's key i*segments + j
    for k0 in range(0, total, _BLOCK_PAIRS):
        k1 = min(k0 + _BLOCK_PAIRS, total)
        p0 = int(np.searchsorted(first, k0, side="right")) - 1
        p1 = int(np.searchsorted(first, k1 - 1, side="right"))
        run = np.minimum(first[p0:p1] + counts[p0:p1], k1) - np.maximum(first[p0:p1], k0)
        p = np.repeat(np.arange(p0, p1), run)
        q = np.arange(k0, k1) - np.repeat(shift[p0:p1], run)
        keep = (loy_s[p] <= hiy_s[q]) & (loy_s[q] <= hiy_s[p])
        u, v = order[p[keep]], order[q[keep]]
        i, j = np.minimum(u, v), np.maximum(u, v)
        key = i * segments + j
        # Pairs after the best hit so far cannot be the first crossing.
        keep = (j >= i + 2) & (key < best)
        if closed:
            keep &= key != segments - 1  # the (first, last) pair
        i, j, key = i[keep], j[keep], key[keep]
        with np.errstate(over="ignore", invalid="ignore"):
            hit = _straddles(ax, ay, bx, by, dx, dy, i, j) & _straddles(ax, ay, bx, by, dx, dy, j, i)
        if hit.any():
            best = int(np.min(key[hit]))
    if best == segments * segments:
        return None
    first_i, first_j = divmod(best, segments)
    return SegmentCrossing(first_i, first_j, _crossing_point(ax, ay, dx, dy, first_i, first_j))


def _invariant_column(p: ModelParams, traj: Trajectory) -> np.ndarray:
    """C per sample, NaN where a population is non-positive (outside its domain).

    The drifts, the excluded samples and the report tables all read this
    column.  An invariant past the double range inside the domain raises
    ``NonFiniteError`` naming the first such sample's time.
    """
    inside = (traj.x > 0.0) & (traj.y > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = _first_integral(p, traj.x[inside], traj.y[inside])
    finite = np.isfinite(inner)
    if not finite.all():
        t = float(traj.t[inside][np.argmin(finite)])
        raise NonFiniteError(f"first integral overflows at t={t!r}")
    values = np.full(len(traj), np.nan)
    values[inside] = inner
    return values


def _drift(t: np.ndarray, column: np.ndarray) -> float:
    """Largest |C - C[0]| of an ``_invariant_column`` with a finite C[0], skipping its NaNs.

    A drift past the double range raises ``NonFiniteError`` naming its first time.
    """
    with np.errstate(over="ignore"):
        drift = np.abs(column - column[0])
    worst = float(np.fmax.reduce(drift))
    if worst == math.inf:
        raise NonFiniteError(f"first integral overflows at t={float(t[np.argmax(drift == worst)])!r}")
    return worst


def conservation_drift(traj: Trajectory, p: ModelParams) -> float:
    """Largest drift of the first integral across the trajectory samples.

    Samples with a non-positive coordinate are outside the domain of the
    invariant and are skipped (their count is surfaced by failure_report).
    The first sample anchors the comparison and must be positive.  An
    invariant, or a drift from it, past the double range raises
    ``NonFiniteError`` naming the first such sample's time.
    """
    if not (traj.x[0] > 0.0 and traj.y[0] > 0.0):
        raise PositivityError(f"first sample ({traj.x[0]}, {traj.y[0]}) must have positive populations")
    return _drift(traj.t, _invariant_column(p, traj))


def _closes(sample, period: float) -> bool:
    """Whether ``sample`` (time grid to trajectory) returns to its start around ``period``.

    The curve closes when its polyline over the closure window, the points
    t >= 0.5*T of a uniform grid over [0, 1.2*T], passes within 1e-6 of the
    start.  Only the start and the window are sampled, in one call.
    """
    grid = np.linspace(0.0, _CLOSURE_SPAN * period, _CLOSURE_GRID_POINTS)
    traj = sample(np.concatenate((grid[:1], grid[grid >= 0.5 * period])))
    px, py = traj.x[0], traj.y[0]
    x, y = traj.x[1:], traj.y[1:]
    ax, ay = x[:-1], y[:-1]
    # Huge but finite samples may overflow to non-finite distances, which are dropped.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dx, dy = np.diff(x), np.diff(y)
        length_sq = dx * dx + dy * dy
        s = np.where(length_sq > 0.0, ((px - ax) * dx + (py - ay) * dy) / length_sq, 0.0)
        s = np.clip(s, 0.0, 1.0)
        dist_sq = (ax + s * dx - px) ** 2 + (ay + s * dy - py) ** 2
    best = float(np.min(dist_sq[np.isfinite(dist_sq)], initial=math.inf))
    return best < _CLOSED_ORBIT_EPS * _CLOSED_ORBIT_EPS


@contextlib.contextmanager
def _named_overflow(prefix):
    """Name what overflowed in a ``NonFiniteError`` raised in the block."""
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"{prefix}: {exc}") from None


def failure_report(
    ivp: InitialValueProblem,
    method: MethodKind,
    order: int,
    points: int = 2001,
    cfg: IntegratorConfig = IntegratorConfig(),
    delta: float = 1.0,
) -> DiagnosticsReport:
    """Run one approximation scheme against the reference and collect diagnostics.

    The approximant and the reference are sampled on a uniform grid of
    ``points`` samples over the problem's window [0, ivp.t_end].  Orbit
    closure is judged on the closure window, the second half of a separate
    period-aligned grid spanning 1.2 estimated periods; when no period can
    be found (e.g. decoupled dynamics) both closure flags are False.  The
    reference is integrated once: the period is an event on its steps and
    the grid and the window sample the same pass.
    An approximant that overflows on the report grid raises
    ``NonFiniteError``; one that is finite there but not on the closure
    window does not close, so ``closed_orbit`` is False.
    """
    return _compare_with_reference(ivp, method, order, points, cfg, delta)[0]


def _compare_with_reference(
    ivp: InitialValueProblem,
    method: MethodKind,
    order: int,
    points: int = 2001,
    cfg: IntegratorConfig = IntegratorConfig(),
    delta: float = 1.0,
) -> tuple[DiagnosticsReport, Trajectory, Trajectory, np.ndarray, np.ndarray]:
    """``failure_report`` and what it read: (report, reference, approx, c_ref, c_approx)."""
    if not isinstance(points, numbers.Integral) or points < 4:
        raise ValueError(f"need at least 4 grid points, got {points}")
    grid = np.linspace(0.0, ivp.t_end, points)
    solution = solve(ivp, cfg, find_period=True)
    reference = solution.sample(grid)
    scheme = f"{method.value} order {order}"
    with _named_overflow(scheme):
        series = method_series(ivp, method, order)
        approx = sample_series(series, grid)
        # Both C columns start at the problem's start, which solve found positive.
        c_approx = _invariant_column(ivp.params, approx)
        drift_approx = _drift(approx.t, c_approx)
    c_ref = _invariant_column(ivp.params, reference)
    drift_ref = _drift(reference.t, c_ref)
    period = solution.period
    closed_ref = closed_approx = False
    if period is not None:
        closed_ref = _closes(solution.sample, period)
        with contextlib.suppress(NonFiniteError):  # a series that overflows there does not close
            closed_approx = _closes(partial(sample_series, series), period)
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
        excluded_samples=int(np.count_nonzero(np.isnan(c_approx))),
    )
    return report, reference, approx, c_ref, c_approx
