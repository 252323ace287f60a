"""Dense solution of one reference pass: sampling, period event, work counters."""

import math
import sys

import numpy as np
import pytest

from lvdiag import (
    DivergenceError,
    InitialValueProblem,
    IntegratorConfig,
    MethodKind,
    ModelParams,
    PopulationState,
    PositivityError,
    StepSizeUnderflowError,
    failure_report,
    preset,
    solve,
)
from lvdiag.cli import main
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


def test_an_interpolant_past_the_double_range_raises_divergence_error():
    """Two steps whose stored states are all 1, but the first step's interpolant
    3600 theta (1 - theta) climbs to log-population 900 mid-step, where exp overflows."""
    bump = [3600.0, -3600.0, 0.0, 0.0]
    solution = integrate_module.DenseSolution(
        t=np.array([0.0, 1.0, 2.0]),
        w=np.zeros((3, 2)),
        q=np.array([[bump, bump], [[0.0] * 4, [0.0] * 4]]),
        states=np.ones((3, 2)),
        period=None,
        stats=integrate_module.IntegratorStats(2, 0, 0, 14),
    )
    traj = solution.sample([0.0, 1.0, 1.5, 2.0])
    assert np.array_equal(traj.x, np.ones(4)) and np.array_equal(traj.y, np.ones(4))
    with pytest.raises(DivergenceError, match="left the finite range"):
        solution.sample([0.0, 0.5, 2.0])


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
