"""Property tests over drawn problems: reference accuracy, one-pass consistency
and the model's scaling and time-reversal symmetries; self-crossings against
an exact oracle and, bit for bit, against an all-pairs scan; and the closure
verdict on its window against the verdict on the whole closure grid.

Problems are drawn like the benchmark's sweep: rates in [1/2, 2] and a start
at 1/3 to 3 times the interior equilibrium in each coordinate.  Runs are
derandomized, so every run checks the same examples.
"""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lvdiag import (
    DivergenceError,
    InitialValueProblem,
    IntegratorConfig,
    MethodKind,
    ModelParams,
    NonFiniteError,
    PopulationState,
    Trajectory,
    conservation_drift,
    divergence_time,
    failure_report,
    method_series,
    preset,
    preset_names,
    sample_series,
    self_intersection,
    solve,
)
from lvdiag.diagnostics import _closes, _compare_with_reference, _invariant_column
from lvdiag.series import taylor_coefficients

T_END = 10.0
# The report's closure window, in periods, restated so that the standalone
# pass below is independent of it.
CLOSURE_SPAN = 1.2

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

rates = st.floats(0.5, 2.0)
start_factors = st.floats(1.0 / 3.0, 3.0)


@st.composite
def problems(draw):
    a, b, c, d = (draw(rates) for _ in range(4))
    x0 = draw(start_factors) * c / d
    y0 = draw(start_factors) * a / b
    return InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), T_END)


@PROPERTY_SETTINGS
@given(problems())
def test_reference_and_period_match_an_independent_dop853(ivp):
    p = ivp.params
    x0, y0 = ivp.initial.x, ivp.initial.y
    grid = np.linspace(0.0, T_END, 41)
    # None when no return is found: see test_one_pass_report_agrees_with_standalone_passes.
    period = solve(ivp, find_period=True).period

    def rhs(t, w):
        return [p.a - p.b * math.exp(w[1]), -p.c + p.d * math.exp(w[0])]

    span = T_END if period is None else max(T_END, period)
    oracle = solve_ivp(
        rhs, (0.0, span), [math.log(x0), math.log(y0)],
        method="DOP853", rtol=1e-12, atol=1e-12, t_eval=grid, dense_output=True,
    )
    assert oracle.success
    mine = solve(ivp).sample(grid)
    np.testing.assert_allclose(mine.x, np.exp(oracle.y[0]), rtol=1e-8)
    np.testing.assert_allclose(mine.y, np.exp(oracle.y[1]), rtol=1e-8)
    if period is not None:
        # At the period the oracle is back at the start, so it crosses any
        # line through the start in the direction of departure, read off the
        # oracle's own log-coordinate field (a log-rate has the sign of the
        # population's rate); the one checked is normal to y (x when the
        # log-rate of y vanishes), whichever section the search itself used.
        # The crossing is checked to 1e-8 in time or to the 1e-8 relative
        # state agreement above, whichever is looser: small orbits cross slowly.
        fu0, fv0 = rhs(0.0, [math.log(x0), math.log(y0)])
        comp, level, departure = (1, y0, fv0) if fv0 != 0.0 else (0, x0, fu0)
        w = oracle.sol(period)
        value = math.exp(w[comp])
        speed = value * rhs(period, w)[comp]
        assert speed * departure > 0.0
        assert abs(value - level) <= 1e-8 * max(abs(speed), level)


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from(list(MethodKind)), st.integers(2, 12))
def test_one_pass_report_agrees_with_standalone_passes(ivp, method, order):
    points = 401
    report, reference, approx, c_ref, c_approx = _compare_with_reference(
        ivp, method, order, points, IntegratorConfig(), 1.0
    )
    grid = np.linspace(0.0, T_END, points)
    standalone = solve(ivp).sample(grid)
    np.testing.assert_allclose(reference.x, standalone.x, rtol=1e-8)
    np.testing.assert_allclose(reference.y, standalone.y, rtol=1e-8)
    assert report.divergence_time == divergence_time(approx, standalone)
    # The drifts and the excluded samples are read from the invariant columns.
    assert c_ref.tobytes() == _invariant_column(ivp.params, reference).tobytes()
    assert c_approx.tobytes() == _invariant_column(ivp.params, approx).tobytes()
    assert report.max_invariant_drift == conservation_drift(approx, ivp.params)
    assert report.max_invariant_drift_ref == conservation_drift(reference, ivp.params)
    assert report.excluded_samples == np.count_nonzero((approx.x <= 0.0) | (approx.y <= 0.0))

    period = solve(ivp, find_period=True).period
    if report.period_estimate is None:
        # When the search finds no return, the standalone search misses it too.
        assert period is None
        assert not (report.closed_orbit_ref or report.closed_orbit)
        return
    assert abs(report.period_estimate - period) <= 1e-9
    window = solve(replace(ivp, t_end=CLOSURE_SPAN * period))
    closed_ref = _closes(window.sample, period)
    series = method_series(ivp, method, order)
    closed_approx = _closes(lambda grid: sample_series(series, grid), period)
    assert (report.closed_orbit_ref, report.closed_orbit) == (closed_ref, closed_approx)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(problems(), st.floats(1.0 / 30.0, 30.0), st.floats(1.0 / 30.0, 30.0))
def test_a_longer_horizon_finds_the_same_period(ivp, stretch_x, stretch_y):
    """The event runs on every step until it fires, and a horizon past the
    return changes no step before it, so a period found over t_end = 10 is
    found, bit for bit, over three search windows.  The stretches scale the
    drawn start by 1/30 to 30 in each coordinate, out to large amplitudes."""
    start = PopulationState(ivp.initial.x * stretch_x, ivp.initial.y * stretch_y)
    ivp = replace(ivp, initial=start)
    period = solve(ivp, find_period=True).period
    if period is None:
        return
    t_end = 3.0 * 100.0 / math.sqrt(ivp.params.a * ivp.params.c)
    long = solve(replace(ivp, t_end=t_end), find_period=True)
    assert long.period == period and long.t_final == t_end


@PROPERTY_SETTINGS
@given(problems())
def test_taylor_coefficients_obey_the_scaling_symmetry(ivp):
    """x = (c/d)*u, y = (a/b)*v, tau = a*t maps the model onto
    u' = u*(1 - v), v' = -(c/a)*v*(1 - u), so X_n = (c/d)*a**n*U_n and
    Y_n = (a/b)*a**n*V_n."""
    order = 20
    p = ivp.params
    k = p.c / p.a
    scaled = InitialValueProblem(
        ModelParams(1.0, 1.0, k, k),
        PopulationState(p.d * ivp.initial.x / p.c, p.b * ivp.initial.y / p.a),
        T_END,
    )
    mine = taylor_coefficients(ivp, order)
    unit = taylor_coefficients(scaled, order)
    powers = p.a ** np.arange(order + 1)
    for coeffs, expected in (
        (mine.x_coeffs, (p.c / p.d) * powers * unit.x_coeffs),
        (mine.y_coeffs, (p.a / p.b) * powers * unit.y_coeffs),
    ):
        assert np.max(np.abs(coeffs - expected) / (1.0 + np.abs(coeffs))) <= 1e-11


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems(), st.sampled_from(list(MethodKind)), st.integers(2, 20), st.integers(-6, 6), st.integers(-6, 6))
# Drawn approximants seldom cross themselves; these presets' do.
@example(preset("case-V"), MethodKind.TAYLOR, 5, 3, -2)
@example(preset("case-V"), MethodKind.ADOMIAN, 5, -1, 1)
@example(preset("case-I"), MethodKind.HPM, 7, 5, -4)
@example(preset("case-I"), MethodKind.VIM, 9, -6, 6)
def test_power_of_two_scalings_map_series_and_reports_exactly(ivp, method, order, k, m):
    """x -> 2**k x, y -> 2**m y, b -> b / 2**m, d -> d / 2**k maps orbits onto
    orbits.  A power of 2 scales every rounding exactly, barring overflow and
    underflow, and in any grouping of a sum, so every scheme's coefficients
    scale by the bytes, VIM's dot products included, and so do the sampled
    approximant, its self-crossing point and the signs its excluded samples
    read.  The reference steps in log coordinates, where the shift k*ln 2
    rounds, so the period agrees only to 1e-9 relative.

    The closure flags and ``divergence_time`` are left out: neither is
    scale-invariant.  Closure is judged against the absolute
    ``_CLOSED_ORBIT_EPS``, and the divergence scale 1 + max(|x|, |y|) mixes
    absolute and relative error."""
    lam, mu = 2.0**k, 2.0**m
    p = ivp.params
    scaled = InitialValueProblem(
        ModelParams(p.a, p.b / mu, p.c, p.d / lam),
        PopulationState(lam * ivp.initial.x, mu * ivp.initial.y),
        ivp.t_end,
    )
    for kind in MethodKind:
        mine, theirs = method_series(ivp, kind, order), method_series(scaled, kind, order)
        assert theirs.x_coeffs.tobytes() == (lam * mine.x_coeffs).tobytes(), kind
        assert theirs.y_coeffs.tobytes() == (mu * mine.y_coeffs).tobytes(), kind
    report, scaled_report = (failure_report(problem, method, order) for problem in (ivp, scaled))
    assert scaled_report.excluded_samples == report.excluded_samples
    crossing, scaled_crossing = report.self_intersection, scaled_report.self_intersection
    if crossing is None:
        assert scaled_crossing is None
    else:
        assert (scaled_crossing.i, scaled_crossing.j) == (crossing.i, crossing.j)
        assert scaled_crossing.point == (lam * crossing.point[0], mu * crossing.point[1])
    period, scaled_period = report.period_estimate, scaled_report.period_estimate
    assert (period is None) == (scaled_period is None)
    if period is not None:
        assert abs(scaled_period - period) <= 1e-9 * period


@pytest.mark.parametrize("name", ["case-I", "case-V"])
@pytest.mark.parametrize("j", [3, -2, 7])
def test_power_of_two_time_scalings_map_series_and_reports_exactly(name, j):
    """Rates times s = 2**j over [0, t_end / s] is the same orbit at s times
    the speed.  Coefficient n scales by s**n and the grid by 1/s, both
    exactly, and each Horner step of a sample then carries one power of s, so
    every scheme's samples keep their bytes, and so do the self-crossing, the
    excluded samples and the closure verdicts; ``divergence_time`` scales by
    1/s exactly.  The reference's first step takes a fifth root, so its pass
    does not scale exactly: the period agrees to 1e-10 relative (4.5e-11
    measured on case-V; case-I's default window finds none)."""
    ivp, s = preset(name), 2.0**j
    p = ivp.params
    scaled = InitialValueProblem(ModelParams(s * p.a, s * p.b, s * p.c, s * p.d), ivp.initial, ivp.t_end / s)
    grid = np.linspace(0.0, ivp.t_end, 2001)
    assert np.linspace(0.0, scaled.t_end, 2001).tobytes() == (grid / s).tobytes()
    for kind in MethodKind:
        for order in (5, 20):
            mine, theirs = method_series(ivp, kind, order), method_series(scaled, kind, order)
            powers = s ** np.arange(float(mine.x_coeffs.size))
            assert theirs.x_coeffs.tobytes() == (powers * mine.x_coeffs).tobytes(), (kind, order)
            assert theirs.y_coeffs.tobytes() == (powers * mine.y_coeffs).tobytes(), (kind, order)
            approx, scaled_approx = sample_series(mine, grid), sample_series(theirs, grid / s)
            assert scaled_approx.x.tobytes() == approx.x.tobytes(), (kind, order)
            assert scaled_approx.y.tobytes() == approx.y.tobytes(), (kind, order)
        report, scaled_report = (failure_report(problem, kind, 5) for problem in (ivp, scaled))
        t_div = report.divergence_time
        assert scaled_report.divergence_time == (None if t_div is None else t_div / s)
        assert scaled_report.self_intersection == report.self_intersection
        assert scaled_report.excluded_samples == report.excluded_samples
        assert scaled_report.closed_orbit_ref is report.closed_orbit_ref
        assert scaled_report.closed_orbit is report.closed_orbit
        period, scaled_period = report.period_estimate, scaled_report.period_estimate
        assert (scaled_period is None) == (period is None)
        if period is not None:
            assert abs(scaled_period * s - period) <= 1e-10 * period


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems())
@example(preset("case-I"))
@example(preset("case-V"))
@example(preset("decoupled"))
# case-I returns at T = 326.8, past its default window's search.
@example(replace(preset("case-I"), t_end=400.0))
def test_swapping_the_populations_keeps_the_period_and_the_reference_closure(ivp):
    """(x, y, a, b, c, d) -> (y, x, c, d, a, b) runs the orbit backwards, so
    the swapped problem's reference has the same period, found by its own
    pass to 1e-9 relative (5.8e-11 at worst over the presets and 150 sweep
    draws), and closes as the original does.  The approximant's verdicts are
    left out: the swapped series is the original at -t, another curve, and
    about one draw in ten crosses itself on one side only."""
    p, start = ivp.params, ivp.initial
    swapped = InitialValueProblem(ModelParams(p.c, p.d, p.a, p.b), PopulationState(start.y, start.x), ivp.t_end)
    report, mirrored = (failure_report(problem, MethodKind.TAYLOR, 5) for problem in (ivp, swapped))
    assert mirrored.closed_orbit_ref is report.closed_orbit_ref
    period, mirrored_period = report.period_estimate, mirrored.period_estimate
    assert (period is None) == (mirrored_period is None)
    if period is not None:
        assert abs(mirrored_period - period) <= 1e-9 * period


def _verdicts(ivp, method, order, rel_tol):
    """What ``failure_report`` concludes, apart from the drifts and the period's
    digits, at one reference tolerance; an error is kept with its text."""
    try:
        report = failure_report(ivp, method, order, cfg=IntegratorConfig(rel_tol=rel_tol))
    except (DivergenceError, NonFiniteError) as exc:
        return type(exc), str(exc)
    crossing = report.self_intersection
    return (
        report.divergence_time,
        None if crossing is None else (crossing.i, crossing.j),
        report.closed_orbit,
        report.closed_orbit_ref,
        report.period_estimate is None,
        report.excluded_samples,
    )


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from(list(MethodKind)), st.integers(2, 20))
def test_verdicts_do_not_depend_on_the_reference_tolerance(ivp, method, order):
    """A looser (1e-8) or tighter (1e-13) reference than the default 1e-10
    moves the reference by far less than any verdict's margin: the same
    divergence time, self-crossing, closure flags, period found or not and
    excluded samples."""
    verdicts = _verdicts(ivp, method, order, IntegratorConfig().rel_tol)
    for rel_tol in (1e-8, 1e-13):
        assert _verdicts(ivp, method, order, rel_tol) == verdicts, rel_tol


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _segments_meet(p1, p2, p3, p4):
    """Cormen et al.'s SEGMENTS-INTERSECT: strict straddle, or an endpoint on the other segment."""

    def direction(a, b, c):
        return _cross(_sub(c, a), _sub(b, a))

    def on_segment(a, b, c):
        return min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])

    d1, d2 = direction(p3, p4, p1), direction(p3, p4, p2)
    d3, d4 = direction(p1, p2, p3), direction(p1, p2, p4)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and on_segment(p3, p4, p1))
        or (d2 == 0 and on_segment(p3, p4, p2))
        or (d3 == 0 and on_segment(p1, p2, p3))
        or (d4 == 0 and on_segment(p1, p2, p4))
    )


def _exact_first_crossing(points, closed):
    """(i, j, point) of the lexicographically first crossing, in exact arithmetic.

    Same rules as ``self_intersection``: j >= i + 2, zero-length segments meet
    nothing, the (first, last) pair is skipped on a closed polyline, and the
    point lies on segment i, at the start of the overlap for a collinear pair.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    segments = len(pts) - 1
    for i in range(segments - 2):
        for j in range(i + 2, segments):
            a, b, c, d = pts[i], pts[i + 1], pts[j], pts[j + 1]
            if a == b or c == d or (closed and (i, j) == (0, segments - 1)):
                continue
            if not _segments_meet(a, b, c, d):
                continue
            r, s, q = _sub(b, a), _sub(d, c), _sub(c, a)
            if _cross(r, s) != 0:
                t = _cross(q, s) / _cross(r, s)
            else:
                t0 = _dot(q, r) / _dot(r, r)
                t = max(Fraction(0), min(t0, t0 + _dot(s, r) / _dot(r, r)))
            return i, j, (float(a[0] + t * r[0]), float(a[1] + t * r[1]))
    return None


@st.composite
def grid_polylines(draw):
    """4 to 24 points on a grid of at most 5 x 5 nodes, thin grids included,
    so that touching, collinear and zero-length segments are common."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    node = st.tuples(st.integers(0, width), st.integers(0, height))
    points = draw(st.lists(node, min_size=4, max_size=24))
    if draw(st.booleans()):
        points[-1] = points[0]
    return points


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(grid_polylines())
def test_self_intersection_matches_an_exact_oracle(points):
    xs, ys = (np.array(column, dtype=float) for column in zip(*points))
    got = self_intersection(Trajectory(np.arange(len(points), dtype=float), xs, ys))
    want = _exact_first_crossing(points, points[-1] == points[0])
    if want is None:
        assert got is None
        return
    i, j, point = want
    assert got is not None and (got.i, got.j) == (i, j)
    assert got.point == pytest.approx(point, abs=1e-12)


# Relative closure tolerance of ``self_intersection``, restated for the reference below.
CLOSURE_REL_TOL = 1e-6
REFERENCE_ROWS = 64


def _all_pairs_first_crossing(x, y):
    """(i, j, point) of the lexicographically first crossing, box-testing every pair.

    Rows of pairs (i, j >= i + 2) are scanned in order and the first row with
    a hit gives the answer.  The pair test and the point use the same float
    formulas as ``self_intersection``, so both results can be compared bit for
    bit; on integer grids every orientation sign is exact.
    """
    ax, ay, bx, by = x[:-1], y[:-1], x[1:], y[1:]
    dx, dy = bx - ax, by - ay
    segments = len(x) - 1
    lox, hix, loy, hiy = np.minimum(ax, bx), np.maximum(ax, bx), np.minimum(ay, by), np.maximum(ay, by)
    has_length = (dx != 0.0) | (dy != 0.0)
    diag = math.hypot(float(np.ptp(x)), float(np.ptp(y)))
    closed = math.hypot(float(x[-1] - x[0]), float(y[-1] - y[0])) <= CLOSURE_REL_TOL * diag

    def straddles(i, j):
        ta = (ax[j] - ax[i]) * dy[i] - (ay[j] - ay[i]) * dx[i]
        tb = (bx[j] - ax[i]) * dy[i] - (by[j] - ay[i]) * dx[i]
        return np.isfinite(ta) & np.isfinite(tb) & (np.sign(ta) * np.sign(tb) <= 0.0)

    for start in range(0, segments - 2, REFERENCE_ROWS):
        i = np.arange(start, min(start + REFERENCE_ROWS, segments - 2))[:, None]
        j = np.arange(start + 2, segments)[None, :]
        boxes = (lox[i] <= hix[j]) & (lox[j] <= hix[i]) & (loy[i] <= hiy[j]) & (loy[j] <= hiy[i])
        boxes &= (j >= i + 2) & has_length[i] & has_length[j]
        if closed:
            boxes &= (i != 0) | (j != segments - 1)
        ci, cj = np.nonzero(boxes)
        ci += start
        cj += start + 2
        with np.errstate(over="ignore", invalid="ignore"):
            hits = np.flatnonzero(straddles(ci, cj) & straddles(cj, ci))
        if hits.size:
            fi, fj = int(ci[hits[0]]), int(cj[hits[0]])
            qpx, qpy = ax[fj] - ax[fi], ay[fj] - ay[fi]
            denom = dx[fi] * dy[fj] - dy[fi] * dx[fj]
            if denom != 0.0:
                t = (qpx * dy[fj] - qpy * dx[fj]) / denom
            else:
                rr = dx[fi] * dx[fi] + dy[fi] * dy[fi]
                t0 = (qpx * dx[fi] + qpy * dy[fi]) / rr
                t = max(0.0, min(t0, t0 + (dx[fj] * dx[fi] + dy[fj] * dy[fi]) / rr))
            return fi, fj, (float(ax[fi] + t * dx[fi]), float(ay[fi] + t * dy[fi]))
    return None


def _scan(x, y):
    got = self_intersection(Trajectory(np.arange(len(x), dtype=float), x, y))
    return None if got is None else (got.i, got.j, got.point)


def _assert_same_crossing(x, y):
    # repr tells every pair of distinct floats apart, -0.0 and 0.0 included.
    assert repr(_scan(x, y)) == repr(_all_pairs_first_crossing(x, y))


@st.composite
def grid_walks(draw):
    """Walks of 4 to 200 points on an integer grid of at most 13 x 13 nodes.

    Each move changes x only, y only, both, or neither, so horizontal and
    vertical runs, repeated vertices, equal left ends and boxes that only
    touch are common.  About half of the walks then close with a step back to
    their start.
    """
    size = draw(st.integers(1, 12))
    coordinate = st.integers(0, size)
    moves = draw(st.integers(3, 199))
    x, y = draw(coordinate), draw(coordinate)
    points = [(x, y)]
    for move in draw(st.lists(st.sampled_from("hvds"), min_size=moves, max_size=moves)):
        if move in "hd":
            x = draw(coordinate)
        if move in "vd":
            y = draw(coordinate)
        points.append((x, y))
    if draw(st.booleans()):
        points.append(points[0])
    return np.array(points, dtype=float)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grid_walks())
def test_self_intersection_matches_an_all_pairs_scan_bitwise(points):
    _assert_same_crossing(points[:, 0], points[:, 1])


@pytest.mark.parametrize("name", preset_names())
def test_self_intersection_matches_an_all_pairs_scan_on_the_presets(name):
    ivp = preset(name)
    grid = np.linspace(0.0, ivp.t_end, 2001)
    for method in MethodKind:
        for order in range(2, 21):
            approx = sample_series(method_series(ivp, method, order), grid)
            _assert_same_crossing(approx.x, approx.y)
    if name == "case-V":
        period = solve(ivp, find_period=True).period
        orbit = solve(replace(ivp, t_end=period)).sample(np.linspace(0.0, period, 2001))
        _assert_same_crossing(orbit.x, orbit.y)


def test_self_intersection_bounds_its_work_when_every_pair_overlaps_in_x():
    # A zigzag between x = 0 and x = 1 climbing in y, whose last segment cuts
    # back down through it: every pair of segments overlaps in x.
    n = 2001
    x = np.where(np.arange(n) % 2 == 1, 1.0, 0.0)
    y = np.arange(n) * 1e-3
    x[-1], y[-1] = 0.5, -1.0
    want = _all_pairs_first_crossing(x, y)
    tracemalloc.start()
    try:
        got = _scan(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert want is not None and repr(got) == repr(want)
    # Blocks of 2**16 pairs peak at about 2.3 MiB here; all 2 million pairs in one block, at 65 MiB.
    assert peak < 8 * 2**20


def _full_grid_closes(sample, period):
    """``_closes`` as it read before it sampled only its window: the whole
    2401-point grid over [0, 1.2 T] is sampled and the window is masked out.
    A window that never leaves the 1e-6 ball around the start does not close."""
    grid = np.linspace(0.0, CLOSURE_SPAN * period, 2401)
    traj = sample(grid)
    window = grid >= 0.5 * period
    px, py = traj.x[0], traj.y[0]
    x, y = traj.x[window], traj.y[window]
    ax, ay = x[:-1], y[:-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if np.all(np.hypot(x - px, y - py) < 1e-6):
            return False
        dx, dy = np.diff(x), np.diff(y)
        length_sq = dx * dx + dy * dy
        s = np.where(length_sq > 0.0, ((px - ax) * dx + (py - ay) * dy) / length_sq, 0.0)
        s = np.clip(s, 0.0, 1.0)
        dist_sq = (ax + s * dx - px) ** 2 + (ay + s * dy - py) ** 2
    best = float(np.min(dist_sq[np.isfinite(dist_sq)], initial=math.inf))
    return best < 1e-6 * 1e-6


def _verdict(closes, sample, period):
    """The closure flag as ``failure_report`` reads it: a series that
    overflows does not close, and any other error is kept with its text."""
    try:
        return closes(sample, period)
    except NonFiniteError:
        return False
    except DivergenceError as exc:
        return type(exc), str(exc)


def assert_same_closure_verdicts(ivp, method, order):
    """The windowed ``_closes`` and the full-grid one agree on the reference and on the series."""
    solution = solve(ivp, find_period=True)
    period = solution.period
    if period is None:  # no closure check runs
        return None
    series = method_series(ivp, method, order)
    verdicts = []
    for sample in (solution.sample, partial(sample_series, series)):
        verdict = _verdict(_closes, sample, period)
        assert verdict == _verdict(_full_grid_closes, sample, period)
        verdicts.append(verdict)
    return tuple(verdicts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems(), st.sampled_from(list(MethodKind)), st.integers(2, 20))
def test_closure_window_keeps_the_full_grid_verdict_on_drawn_problems(ivp, method, order):
    assert_same_closure_verdicts(ivp, method, order)


SMALL_ORBIT = InitialValueProblem(ModelParams(1.0, 1.0, 1.0, 1.0), PopulationState(1.0 + 3e-4, 1.0), 10.0)


@pytest.mark.parametrize(
    "ivp, order, verdicts",
    [
        (preset("case-V"), 5, (True, False)),
        # Constant at its start: it never leaves the 1e-6 ball, so it does not close.
        (preset("case-V"), 0, (True, False)),
        (replace(preset("case-I"), t_end=400.0), 5, (True, False)),
        (SMALL_ORBIT, 40, (True, True)),
        # Finite over [0, 1]; it overflows at t = 7.83, inside the window [3.80, 9.12].
        (replace(preset("case-V"), t_end=1.0), 300, (True, False)),
    ],
    ids=["case-V", "case-V-order-0", "case-I-400", "small-orbit", "case-V-order-300"],
)
def test_closure_window_keeps_the_full_grid_verdict_on_presets(ivp, order, verdicts):
    for method in MethodKind if order <= 40 else [MethodKind.TAYLOR]:
        assert assert_same_closure_verdicts(ivp, method, order) == verdicts, method
