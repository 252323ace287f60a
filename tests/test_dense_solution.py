"""Dense solution of one reference pass: sampling, period event, work counters."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvdiag
from lvdiag import (
    DivergenceError,
    InitialValueProblem,
    IntegratorConfig,
    MethodKind,
    ModelParams,
    NonFiniteError,
    PopulationState,
    PositivityError,
    StepSizeUnderflowError,
    failure_report,
    preset,
    sample_series,
    solve,
    taylor_coefficients,
)
from lvdiag.cli import main
from lvdiag.series import _validated_grid
from lvdiag.trajectory import Trajectory
import lvdiag.integrate as integrate_module

CASE_V = preset("case-V")
CASE_I = preset("case-I")
# Populations far out on a unit-rate orbit: an early trial stage overflows.
FAR_OUT = InitialValueProblem(ModelParams(1, 1, 1, 1), PopulationState(1000, 10000), 10.0)


def _ivp(case, t_end):
    return InitialValueProblem(case.params, case.initial, t_end)


class _FlowSpy:
    """Counts stepping passes (one flow per pass) and exponentials.

    Each right-hand-side evaluation takes two exponentials, e^u and e^v,
    whether it runs through ``_make_flow``'s closure or inline in a step.
    """

    def __init__(self, monkeypatch):
        self.passes = 0
        self.exp_calls = 0
        real = integrate_module._make_flow

        def make_flow(p, x0, y0):
            self.passes += 1
            return real(p, x0, y0)

        spy = self

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, z):
                spy.exp_calls += 1
                return math.exp(z)

        monkeypatch.setattr(integrate_module, "_make_flow", make_flow)
        monkeypatch.setattr(integrate_module, "math", CountingMath())


def test_lvdiag_integrate_is_the_module_that_solve_runs_in(monkeypatch):
    import lvdiag.integrate as m

    assert m is sys.modules["lvdiag.integrate"]
    flows = []
    real = m._make_flow

    def make_flow(p, x0, y0):
        flows.append((x0, y0))
        return real(p, x0, y0)

    monkeypatch.setattr(m, "_make_flow", make_flow)
    solve(_ivp(CASE_V, 1.0))
    assert flows == [(3.0, 2.0)]


@pytest.mark.parametrize("x0, y0", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
def test_a_start_on_an_axis_raises_before_any_rhs_evaluation(monkeypatch, x0, y0):
    spy = _FlowSpy(monkeypatch)
    ivp = InitialValueProblem(ModelParams(1.0, 0.0, 1.0, 0.0), PopulationState(x0, y0), 800.0)
    for find_period in (False, True):
        with pytest.raises(PositivityError, match="positive populations"):
            solve(ivp, find_period=find_period)
    assert spy.exp_calls == 0


def test_sampling_past_the_last_step_raises():
    solution = solve(_ivp(CASE_V, 5.0))
    assert solution.t[-1] == 5.0
    assert len(solution.sample([0.0, 5.0])) == 2
    with pytest.raises(ValueError, match="past the last step"):
        solution.sample([0.0, math.nextafter(5.0, math.inf)])
    with pytest.raises(ValueError, match="past the last step"):
        solution.sample(np.linspace(0.0, 6.0, 7))


def _bump_solution():
    bump = [3600.0, -3600.0, 0.0, 0.0]
    return integrate_module.DenseSolution(
        t=np.array([0.0, 1.0, 2.0]),
        w=np.zeros((3, 2)),
        q=np.array([[bump, bump], [[0.0] * 4, [0.0] * 4]]),
        states=np.ones((3, 2)),
        period=None,
        stats=integrate_module.IntegratorStats(2, 0, 0, 14),
    )


def test_an_interpolant_past_the_double_range_raises_divergence_error():
    """Two steps whose stored states are all 1, but the first step's interpolant
    3600 theta (1 - theta) climbs to log-population 900 mid-step, where exp overflows."""
    solution = _bump_solution()
    traj = solution.sample([0.0, 1.0, 1.5, 2.0])
    assert np.array_equal(traj.x, np.ones(4)) and np.array_equal(traj.y, np.ones(4))
    with pytest.raises(DivergenceError, match="left the finite range"):
        solution.sample([0.0, 0.5, 2.0])


def _masked_sample(solution, t_grid):
    """``DenseSolution.sample`` as it read before it interpolated every point:
    boundary hits take their stored states and only the other points go
    through the interpolant, selected by a mask."""
    grid = _validated_grid(t_grid)
    if grid[-1] > solution.t[-1]:
        raise ValueError(
            f"grid point t={grid[-1]!r} lies past the last step, which ends at t={solution.t[-1]!r}"
        )
    end = np.searchsorted(solution.t, grid)
    exact = solution.t[end] == grid
    out = solution.states[end]
    inner = ~exact
    if inner.any():
        step = end[inner] - 1
        t0 = solution.t[step]
        theta = (grid[inner] - t0) / (solution.t[step + 1] - t0)
        powers = np.stack([theta, theta**2, theta**3, theta**4], axis=1)
        w = solution.w[step] + np.einsum("scj,sj->sc", solution.q[step], powers)
        with np.errstate(over="ignore"):
            out[inner] = np.exp(w)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("a sampled state left the finite range (blow-up)")
    return Trajectory(grid, out[:, 0], out[:, 1])


def _sampled(sample, grid):
    """The sampled bytes, or the type and text of the error raised."""
    try:
        traj = sample(grid)
    except (ValueError, DivergenceError) as exc:
        return type(exc), str(exc)
    return traj.t.tobytes(), traj.x.tobytes(), traj.y.tobytes()


def assert_samples_like_the_masked_body(solution, grid):
    got = _sampled(solution.sample, grid)
    assert got == _sampled(lambda g: _masked_sample(solution, g), grid)
    return got


# The sweep's problems: rates in [1/2, 2], the start 1/3 to 3 times the
# equilibrium in each coordinate, reported over [0, 10].
@st.composite
def sweep_problems(draw):
    a, b, c, d = (draw(st.floats(0.5, 2.0)) for _ in range(4))
    x0 = draw(st.floats(1.0 / 3.0, 3.0)) * c / d
    y0 = draw(st.floats(1.0 / 3.0, 3.0)) * a / b
    return InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), 10.0)


def _oracle_grids(solution, t_end):
    t = solution.t
    for points in (2001, 2401, 5001):
        yield np.linspace(0.0, t_end, points)
        yield np.linspace(0.0, t[-1], points)
    yield t
    yield np.union1d(t[::3], 0.5 * (t[:-1] + t[1:]))
    yield np.array([0.0])
    yield np.array([-0.0])
    yield t[-1:]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sweep_problems(), st.booleans(), st.integers(0, 2**32 - 1))
def test_sample_matches_the_masked_body_bitwise(ivp, find_period, seed):
    solution = solve(ivp, find_period=find_period)
    for grid in _oracle_grids(solution, ivp.t_end):
        assert_samples_like_the_masked_body(solution, grid)
    # A sub-grid samples the matching entries of its full grid, bit for bit.
    full = np.linspace(0.0, solution.t[-1], 2401)
    keep = np.random.default_rng(seed).random(full.size) < 0.4
    keep[0] = True
    whole, part = solution.sample(full), solution.sample(full[keep])
    assert whole.x[keep].tobytes() == part.x.tobytes()
    assert whole.y[keep].tobytes() == part.y.tobytes()


def test_sample_errors_match_the_masked_body():
    solution = solve(_ivp(CASE_V, 5.0))
    past = assert_samples_like_the_masked_body(solution, [0.0, math.nextafter(5.0, math.inf)])
    assert past[0] is ValueError
    assert assert_samples_like_the_masked_body(solution, np.linspace(0.0, 6.0, 7))[0] is ValueError
    bump = _bump_solution()
    for grid in ([0.0, 0.5, 2.0], [0.5], np.linspace(0.0, 2.0, 2001)):
        got = assert_samples_like_the_masked_body(bump, grid)
        assert got == (DivergenceError, "a sampled state left the finite range (blow-up)")
    assert_samples_like_the_masked_body(bump, [0.0, 1.0, 1.5, 2.0])


def test_the_step_budget_is_a_numeric_failure(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 50)
    with pytest.raises(StepSizeUnderflowError, match=r"^step budget of 50 exceeded before t=10\.0$"):
        solve(CASE_V)
    assert main(["run", "--preset", "case-V", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: step budget of 50 exceeded")


def test_step_boundaries_sample_their_stored_states_bitwise():
    solution = solve(_ivp(CASE_V, 10.0))
    picks = np.arange(0, solution.t.size, 7)
    traj = solution.sample(solution.t[picks])
    assert np.array_equal(traj.x, solution.states[picks, 0])
    assert np.array_equal(traj.y, solution.states[picks, 1])
    assert (traj.x[0], traj.y[0]) == (3.0, 2.0)


def test_period_event_sets_the_end_of_the_pass():
    period = solve(_ivp(CASE_V, 10.0), find_period=True).period
    short = solve(_ivp(CASE_V, 1.0), find_period=True)
    assert short.period == period
    assert short.t[-1] == 1.2 * period
    long = solve(_ivp(CASE_V, 10.0), find_period=True)
    assert long.period == period and long.t[-1] == 10.0


def test_pass_without_a_return_ends_at_the_search_horizon():
    solution = solve(_ivp(CASE_I, 10.0), find_period=True)
    assert solution.period is None
    assert solution.t[-1] == 100.0 / math.sqrt(CASE_I.params.a * CASE_I.params.c)
    assert solve(_ivp(CASE_I, 10.0)).period is None


@pytest.mark.parametrize(
    "case, cfg, trial_evals",
    [
        (CASE_V, IntegratorConfig(), 1),
        (CASE_I, IntegratorConfig(), 1),
        (FAR_OUT, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8), 1),
    ],
)
def test_rhs_evaluations_match_step_attempts(monkeypatch, case, cfg, trial_evals):
    spy = _FlowSpy(monkeypatch)
    stats = solve(_ivp(case, 10.0), cfg).stats
    attempts = stats.accepted + stats.rejected
    assert spy.exp_calls == 2 * stats.rhs_evals == 2 * (1 + trial_evals + 6 * attempts)
    assert 0 <= stats.nonfinite_rejected <= stats.rejected
    if case is FAR_OUT:
        assert stats.nonfinite_rejected >= 1


def test_stats_count_the_accepted_steps():
    solution = solve(_ivp(CASE_V, 10.0))
    assert solution.stats.accepted == solution.t.size - 1 == solution.q.shape[0]


def test_step_size_range_and_final_time():
    solution = solve(_ivp(CASE_V, 10.0), find_period=True)
    assert 0.0 < solution.h_min < solution.h_max <= solution.t[-1]
    assert solution.t_final == solution.t[-1] >= 10.0
    assert solution.t_final >= 1.2 * solution.period
    # The shortest horizon is still one step, cut to end on it.
    tiny = solve(_ivp(CASE_V, 1e-9))
    assert (tiny.stats.accepted, tiny.h_min, tiny.h_max, tiny.t_final) == (1, 1e-9, 1e-9, 1e-9)


@pytest.mark.parametrize("case", [CASE_V, CASE_I], ids=["case-V", "case-I"])
def test_failure_report_makes_one_stepping_pass(monkeypatch, case):
    spy = _FlowSpy(monkeypatch)
    report = failure_report(_ivp(case, 10.0), MethodKind.TAYLOR, 5)
    assert spy.passes == 1
    assert (report.period_estimate is None) == (case is CASE_I)


# The step lookup: for sorted boundaries t and a strictly increasing grid,
# the count of boundaries below each grid point.
@st.composite
def boundaries_and_grids(draw):
    times = st.floats(0.0, 64.0)
    t = np.unique(np.array([0.0] + draw(st.lists(times, min_size=1, max_size=30))))
    if draw(st.booleans()):
        grid = t.copy()
    else:
        pool = draw(st.lists(st.one_of(times, st.sampled_from(t.tolist())), min_size=1, max_size=50))
        grid = np.unique(np.array(pool))
    if grid[0] == 0.0 and draw(st.booleans()):
        grid[0] = -0.0
    return t, grid


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(boundaries_and_grids())
def test_step_lookup_is_searchsorted(pair):
    t, grid = pair
    assert np.array_equal(integrate_module._step_ends(t, grid), np.searchsorted(t, grid))


def test_step_lookup_on_single_points_and_boundary_hits():
    t = np.array([0.0, 0.5, 1.0, 3.0])
    for grid in ([0.0], [-0.0], [0.5], [3.0], [0.25], [-0.0, 0.5, 1.0, 3.0], t, [0.1, 0.5, 0.9, 1.0, 2.0]):
        grid = np.array(grid, dtype=float)
        assert np.array_equal(integrate_module._step_ends(t, grid), np.searchsorted(t, grid))


# The period bisection.


def _dot_bisect_return(w0, qc, t0, t1, level, direction):
    """``_bisect_return`` as it read with a numpy dot product per halving (plus the adjacent-doubles stop)."""
    lo, hi = t0, t1
    while hi - lo > integrate_module._PERIOD_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        theta = (mid - t0) / (t1 - t0)
        w = w0 + qc @ np.array([theta, theta**2, theta**3, theta**4])
        if direction * (integrate_module._exp(w) - level) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _bisections(monkeypatch, ivp):
    """The arguments of every period bisection that ``solve(ivp, find_period=True)`` runs."""
    calls = []
    real = integrate_module._bisect_return

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(integrate_module, "_bisect_return", recording)
    period = solve(ivp, find_period=True).period
    monkeypatch.undo()
    assert len(calls) == (period is not None)
    return calls


def _custom(a, b, c, d, x0, y0, t_end):
    return InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), t_end)


# Every preset at its own horizon, and the custom problems of CI's identical-flags step.
CI_PROBLEMS = [preset(name) for name in ("case-I", "case-V", "decoupled")] + [
    _ivp(CASE_V, 25.0),
    _ivp(CASE_V, 1.0),
    _ivp(CASE_V, 3.0),
    _ivp(CASE_I, 400.0),
    _custom(1.5, 0.75, 2, 0.5, 3, 1.25, 10.0),
    _custom(1, 0, 1, 1, 2, 1, 1.0),
    _custom(1, 1, 1, 0, 2, 1, 1.0),
    _custom(1e-300, 1, 1e-300, 1, 1, 1, 10.0),
    _custom(2, 8, 1, 1000, 0.5, 2, 1.0),
    _custom(
        0.4643312958190819, 0.9771843395825697, 1.937565049492914, 35.213767701185574,
        5.563192459176994, 1.325847456018371, 70.91234974992943,
    ),
    _custom(1e-5, 1, 1e-5, 1, 2e-5, 1e-5, 10.0),
]


def test_float_bisection_gives_the_dot_products_periods_bitwise(monkeypatch):
    found = 0
    for ivp in CI_PROBLEMS:
        for args in _bisections(monkeypatch, ivp):
            found += 1
            got, want = integrate_module._bisect_return(*args), _dot_bisect_return(*args)
            assert got.hex() == want.hex(), ivp
    assert found >= 7


def test_float_bisection_on_drawn_problems_is_within_1e_12(monkeypatch):
    """On sweep-like problems the two evaluations of w may round apart: count it."""
    rng = np.random.default_rng(2026)
    found = moved = 0
    for _ in range(200):
        a, b, c, d = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 4))
        x0, y0 = np.exp(rng.uniform(-math.log(3.0), math.log(3.0), 2)) * (c / d, a / b)
        for args in _bisections(monkeypatch, _custom(a, b, c, d, x0, y0, 10.0)):
            found += 1
            got, want = integrate_module._bisect_return(*args), _dot_bisect_return(*args)
            assert abs(got - want) <= 1e-12 * want
            moved += got != want
    assert found >= 150
    # Another BLAS kernel's dot may round a w apart, so a few moved periods are allowed.
    assert moved <= 4, moved


def test_bisection_stops_at_adjacent_doubles(monkeypatch):
    """From t = 2**19 on, neighbouring doubles lie 2**-33 > 1e-10 apart, so the
    bracket cannot shrink to 1e-10; it stops once lo and hi are neighbours."""
    evaluations = []

    def counting_exp(z):
        evaluations.append(z)
        assert len(evaluations) <= 60, "the bisection does not stop"
        return math.exp(z)

    monkeypatch.setattr(integrate_module, "_exp", counting_exp)
    qc = np.array([1.0, 0.0, 0.0, 0.0])  # w = theta across the step
    t0 = 2.0**19
    t1 = math.nextafter(t0, math.inf)
    assert t1 - t0 > integrate_module._PERIOD_BISECT_TOL
    assert integrate_module._bisect_return(0.0, qc, t0, t1, 1.5, 1.0) in (t0, t1)
    assert evaluations == []
    # A one-unit step there halves down to neighbouring doubles around e^w = 1.5.
    crossing = integrate_module._bisect_return(0.0, qc, t0, t0 + 1.0, 1.5, 1.0)
    assert abs(crossing - (t0 + math.log(1.5))) <= 2 * math.ulp(t0)
    assert len(evaluations) == 33


def test_a_period_past_two_to_the_19_ends_the_run(tmp_path):
    """With rates of 1e-5 the orbit returns at T = 660848.267: the run used to
    bisect that return forever.  A subprocess bounds the wait."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lvdiag.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = "run --a 1e-5 --b 1 --c 1e-5 --d 1 --x0 2e-5 --y0 1e-5 --out".split() + [str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-m", "lvdiag.cli", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "custom_taylor_order5_report.json").read_text())
    assert report["period_estimate"] == pytest.approx(660848.267, abs=1e-3)
    assert report["closed_orbit_ref"] is True


BAD_GRIDS = [
    ([], ValueError, "time grid must be a non-empty 1-d array"),
    ([[0.0, 1.0]], ValueError, "time grid must be a non-empty 1-d array"),
    ([-1.0, 0.0], ValueError, "time grid must start at or after 0, got -1.0"),
    ([0.0, 1.0, 1.0], ValueError, "time grid must be strictly increasing"),
    ([0.0, 2.0, 1.0], ValueError, "time grid must be strictly increasing"),
    ([0.0, math.nan], NonFiniteError, "time grid must be finite"),
    ([0.0, math.inf], NonFiniteError, "time grid must be finite"),
]


@pytest.mark.parametrize("grid, error, message", BAD_GRIDS)
def test_public_samplers_check_their_grids(grid, error, message):
    samplers = (solve(_ivp(CASE_V, 5.0)).sample, lambda g: sample_series(taylor_coefficients(CASE_V, 5), g))
    for sample in samplers:
        with pytest.raises(error) as excinfo:
            sample(grid)
        assert excinfo.type is error and str(excinfo.value) == message


def test_sampled_trajectories_are_what_the_checked_constructor_builds():
    """The samplers skip ``Trajectory``'s second check; what they return passes it unchanged."""
    grid = np.linspace(0.0, 5.0, 11)
    for traj in (solve(_ivp(CASE_V, 5.0)).sample(grid), sample_series(taylor_coefficients(CASE_V, 5), grid)):
        checked = Trajectory(traj.t, traj.x, traj.y)
        for name in ("t", "x", "y"):
            got, want = getattr(traj, name), getattr(checked, name)
            assert got is want and got.dtype == np.float64 and got.shape == (11,)


def _time_reversal_gap(ivp):
    """Largest relative gap between the swapped problem's pass at s and the
    original's at T - s, over one period T, with x and y swapped."""
    p, start = ivp.params, ivp.initial
    solution = solve(ivp, find_period=True)
    period = solution.period
    swapped = InitialValueProblem(ModelParams(p.c, p.d, p.a, p.b), PopulationState(start.y, start.x), period)
    s = np.linspace(0.0, period, 2001)
    mirrored = solve(swapped).sample(s)
    back = solution.sample((period - s)[::-1])
    x, y = back.x[::-1], back.y[::-1]
    return max(np.max(np.abs(mirrored.y - x) / x), np.max(np.abs(mirrored.x - y) / y))


# (x, y, a, b, c, d, t) -> (y, x, c, d, a, b, -t) maps orbits onto orbits, so
# the swapped problem, started at (y0, x0), runs the original orbit backwards:
# sampled at s it must match the original at T - s, T its period.  This needs
# neither scipy nor another Runge-Kutta method.  Both passes carry their own
# global error and T its own, so each tolerance is three to five times the
# largest gap measured at the default tolerances: 2.9e-10 on case-V; 2.2e-7
# on case-I over [0, 400], whose period is 43 times case-V's and whose prey
# dips to 1e-84; at most 2.2e-9 over 100 sweep-like problems drawn with
# random.Random, and 1.2e-9 over the 100 drawn here.
@pytest.mark.parametrize(
    "ivp, tol", [(CASE_V, 1e-9), (_ivp(CASE_I, 400.0), 1e-6)], ids=["case-V", "case-I-400"]
)
def test_the_swapped_problem_runs_the_orbit_backwards(ivp, tol):
    assert _time_reversal_gap(ivp) <= tol


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sweep_problems())
def test_the_swapped_problem_runs_drawn_orbits_backwards(ivp):
    assert _time_reversal_gap(ivp) <= 1e-8
