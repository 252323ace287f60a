"""The reference stepper against a readable copy of itself, bit for bit.

``_readable_solve`` is ``solve`` as it read before its stages were written
inline: every stage calls the right-hand side built by ``_make_flow``, the
error norm calls ``_rms`` and the controller the ``max``/``min`` builtins.
``solve`` must return the same arrays, period and counters, and raise the
same errors, on every problem.  Both run in one process, so the comparison
does not depend on the CPU.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvdiag.integrate as m
from lvdiag import (
    DivergenceError,
    InitialValueProblem,
    IntegratorConfig,
    ModelParams,
    PopulationState,
    PositivityError,
    StepSizeUnderflowError,
    preset,
    preset_names,
    solve,
)

STRICT = IntegratorConfig()
LOOSE = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
# Populations far out on a unit-rate orbit: an early trial stage overflows.
FAR_OUT = InitialValueProblem(ModelParams(1, 1, 1, 1), PopulationState(1000, 10000), 10.0)


def _readable_solve(ivp, cfg=STRICT, find_period=False):
    p = ivp.params
    x0, y0 = ivp.initial.x, ivp.initial.y
    if not (x0 > 0.0 and y0 > 0.0):
        raise PositivityError(f"the start ({x0}, {y0}) must have positive populations")
    start, rhs = m._make_flow(p, x0, y0)
    u, v = start
    section = m._start_section(p, x0, y0) if find_period else None
    horizon = ivp.t_end
    if section is not None:
        horizon = max(horizon, m._PERIOD_SEARCH_FACTOR / math.sqrt(p.a) / math.sqrt(p.c))
        comp, level, direction = section
        g_prev = 0.0

    records = bytearray()
    accepted = rejected = nonfinite = 0
    period = None
    fu, fv = rhs(u, v)
    if not (math.isfinite(fu) and math.isfinite(fv)):
        raise DivergenceError(f"the field at the start ({x0!r}, {y0!r}) is not finite")
    h = m._initial_step(rhs, u, v, fu, fv, horizon, cfg)
    if h == 0.0:
        raise StepSizeUnderflowError(
            f"the field at the start ({x0!r}, {y0!r}) is too large to take a first step"
        )
    nfev = 2
    floor = m._MIN_STEP_FRACTION * ivp.t_end
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    t = 0.0
    err_prev = 1.0
    rejected_nonfinite = False
    for _ in range(m._MAX_STEPS):
        if t >= horizon:
            break
        clipped = horizon - t <= h
        if clipped:
            h = horizon - t
        if h < floor:
            if rejected_nonfinite:
                raise DivergenceError(f"state left the finite range near t={t!r} (blow-up)")
            raise StepSizeUnderflowError(
                f"step size {h!r} fell below {floor!r}, {m._MIN_STEP_FRACTION:g} of the horizon "
                f"{ivp.t_end:g}, at t={t!r}; shorten the horizon"
            )
        k2u, k2v = rhs(u + h * (m._A21 * fu), v + h * (m._A21 * fv))
        k3u, k3v = rhs(u + h * (m._A31 * fu + m._A32 * k2u), v + h * (m._A31 * fv + m._A32 * k2v))
        k4u, k4v = rhs(
            u + h * (m._A41 * fu + m._A42 * k2u + m._A43 * k3u),
            v + h * (m._A41 * fv + m._A42 * k2v + m._A43 * k3v),
        )
        k5u, k5v = rhs(
            u + h * (m._A51 * fu + m._A52 * k2u + m._A53 * k3u + m._A54 * k4u),
            v + h * (m._A51 * fv + m._A52 * k2v + m._A53 * k3v + m._A54 * k4v),
        )
        k6u, k6v = rhs(
            u + h * (m._A61 * fu + m._A62 * k2u + m._A63 * k3u + m._A64 * k4u + m._A65 * k5u),
            v + h * (m._A61 * fv + m._A62 * k2v + m._A63 * k3v + m._A64 * k4v + m._A65 * k5v),
        )
        u1 = u + h * (m._B1 * fu + m._B3 * k3u + m._B4 * k4u + m._B5 * k5u + m._B6 * k6u)
        v1 = v + h * (m._B1 * fv + m._B3 * k3v + m._B4 * k4v + m._B5 * k5v + m._B6 * k6v)
        k7u, k7v = rhs(u1, v1)
        nfev += 6
        values = (u1, v1, fu, fv, k2u, k2v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v)
        finite = all(map(math.isfinite, values))
        if finite:
            eu = h * (m._E1 * fu + m._E3 * k3u + m._E4 * k4u + m._E5 * k5u + m._E6 * k6u + m._E7 * k7u)
            ev = h * (m._E1 * fv + m._E3 * k3v + m._E4 * k4v + m._E5 * k5v + m._E6 * k6v + m._E7 * k7v)
            su = atol + rtol * max(abs(u), abs(u1))
            sv = atol + rtol * max(abs(v), abs(v1))
            err_norm = m._rms(eu / su, ev / sv)
        else:
            err_norm = math.inf
        if err_norm <= 1.0:
            t1 = horizon if clipped else t + h
            records += m._STEP_RECORD.pack(t1, h, *values)
            accepted += 1
            if section is not None:
                g = direction * (m._exp(v1 if comp == 1 else u1) - level)
                if g_prev < 0.0 <= g:
                    section = None
                    qc = h * (np.array(values[2 + comp :: 2]) @ m._P)
                    period = m._bisect_return((u, v)[comp], qc, t, t1, level, direction)
                    horizon = max(ivp.t_end, m._CLOSURE_SPAN * period)
                g_prev = g
            safe = max(err_norm, 1e-10)
            factor = m._SAFETY * safe**-m._ALPHA * err_prev**m._BETA
            err_prev = safe
            t, u, v, fu, fv = t1, u1, v1, k7u, k7v
            rejected_nonfinite = False
        else:
            rejected += 1
            nonfinite += not finite
            rejected_nonfinite = not finite
            factor = m._MIN_FACTOR if not finite else min(1.0, m._SAFETY * err_norm**-m._ALPHA)
        h *= min(m._MAX_FACTOR, max(m._MIN_FACTOR, factor))
    if t < horizon:
        raise StepSizeUnderflowError(f"step budget of {m._MAX_STEPS} exceeded before t={horizon!r}")

    steps = np.frombuffer(records).reshape(-1, 18)
    t_arr = np.concatenate(([0.0], steps[:, 0]))
    w_arr = np.concatenate(([start], steps[:, 2:4]))
    q_arr = steps[:, 1, None, None] * (steps[:, 4:].reshape(-1, 7, 2).transpose(0, 2, 1) @ m._P)
    with np.errstate(over="ignore"):
        states = np.exp(w_arr)
    states[0] = (x0, y0)
    stats = m.IntegratorStats(accepted, rejected, nonfinite, nfev)
    return m.DenseSolution(t_arr, w_arr, q_arr, states, period, stats)


def _outcome(fn, ivp, cfg, find_period):
    """The pass, or the type and text of the error it raised."""
    try:
        return fn(ivp, cfg, find_period)
    except (DivergenceError, StepSizeUnderflowError) as exc:
        return type(exc), str(exc)


def assert_same_pass(ivp, cfg=STRICT, find_period=False):
    """``solve`` and the readable loop agree bit for bit; returns ``solve``'s outcome."""
    got = _outcome(solve, ivp, cfg, find_period)
    want = _outcome(_readable_solve, ivp, cfg, find_period)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert isinstance(got, m.DenseSolution)
    for name in ("t", "w", "q", "states"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.period == want.period
    assert got.stats == want.stats
    return got


rates = st.floats(0.25, 4.0)
start_factors = st.floats(0.1, 10.0)


@st.composite
def problems(draw):
    a, b, c, d = (draw(rates) for _ in range(4))
    x0 = draw(start_factors) * c / d
    y0 = draw(start_factors) * a / b
    t_end = draw(st.floats(0.5, 20.0))
    return InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), t_end)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems(), st.sampled_from([STRICT, LOOSE]), st.booleans())
def test_solve_matches_the_readable_loop_on_drawn_problems(ivp, cfg, find_period):
    assert_same_pass(ivp, cfg, find_period)


@pytest.mark.parametrize("find_period", [False, True])
@pytest.mark.parametrize("name", preset_names())
def test_solve_matches_the_readable_loop_on_every_preset(name, find_period):
    assert_same_pass(preset(name), STRICT, find_period)


@pytest.mark.parametrize("cfg", [STRICT, LOOSE], ids=["strict", "loose"])
@pytest.mark.parametrize("find_period", [False, True])
def test_solve_matches_the_readable_loop_where_stages_overflow(cfg, find_period):
    solution = assert_same_pass(FAR_OUT, cfg, find_period)
    assert solution.stats.nonfinite_rejected >= (cfg is LOOSE)
    steep = InitialValueProblem(ModelParams(50, 1, 50, 1), PopulationState(40, 0.01), 10.0)
    assert_same_pass(steep, cfg, find_period)


def test_solve_matches_the_readable_loop_on_a_blow_up():
    """With b = 0 the prey grows as e^t, so the pass leaves the double range."""
    blow_up = InitialValueProblem(ModelParams(1, 0, 1, 1), PopulationState(2, 1), 800.0)
    for find_period in (False, True):
        kind, text = assert_same_pass(blow_up, STRICT, find_period)
        assert kind is DivergenceError and text.startswith("state left the finite range near t=")


# Rates, start and horizon far from any orbit, found by a search over extreme
# problems: one attempt per pass has stages whose sum is not finite although
# it is not made of finite values only, so ``solve`` decides it value by value.
EXTREME = InitialValueProblem(
    ModelParams(1.0087363033896022e76, 6.346639121339529e90, 2.897377752126963e29, 3.059928539546681e170),
    PopulationState(3.67426742110333e-87, 2.866832884927296e-245),
    2.0143908009016624e-79,
)
EXTREME_CFG = IntegratorConfig(1.1214189961236912e-09, 1.2959796738025918e-09)


@pytest.mark.parametrize("find_period", [False, True])
def test_solve_matches_the_readable_loop_where_the_stage_sum_is_not_finite(monkeypatch, find_period):
    """``solve`` tests finiteness on the sum of an attempt's stages, and only
    where that sum is not finite on each value.  This problem reaches that
    per-value test once per pass and finishes.

    A search over 60,000 extreme draws (rates, x0 and y0 log-uniform in
    1e-300..1e300, t_end in 1e-305..1e3, both tolerances in 1e-12..1e-2,
    each pass cut at 20,000 attempts) reached the per-value test in 201
    passes, 1,081,324 times in all, and every time it decided "not finite":
    a stage sum that was not finite always held an inf or NaN.  So a
    ``solve`` that skipped the per-value test and rejected every such
    attempt would still pass this comparison.
    """
    decisions = []

    def counting_all(values):
        decisions.append(all(values))
        return decisions[-1]

    monkeypatch.setattr(m, "all", counting_all, raising=False)
    solution = assert_same_pass(EXTREME, EXTREME_CFG, find_period)
    assert decisions == [False]
    assert solution.period is None
    if not find_period:
        assert solution.stats == m.IntegratorStats(79, 13, 5, 554)


class _SqrtSpy:
    """``math`` as ``lvdiag.integrate`` reads it, except that the ``nan_at``-th
    ``sqrt`` call of each pass returns NaN.

    A pass is counted from the sizing of its first step, which ``solve`` and
    the readable loop both do through ``_initial_step``, and each pass's
    arguments are kept.  The search window's two roots come before it, and
    only ``solve`` takes them from this module, so building the flow closes
    the previous pass.
    """

    def __init__(self, monkeypatch, nan_at):
        self.nan_at = nan_at
        self.passes = []
        self.calls = None
        spy = self

        class NanOnceMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def sqrt(self, x):
                return spy.sqrt(x)

        make_flow, initial_step = m._make_flow, m._initial_step

        def closing_make_flow(*args):
            self.calls = None
            return make_flow(*args)

        def opening_initial_step(*args):
            self.calls = []
            self.passes.append(self.calls)
            return initial_step(*args)

        monkeypatch.setattr(m, "math", NanOnceMath())
        monkeypatch.setattr(m, "_make_flow", closing_make_flow)
        monkeypatch.setattr(m, "_initial_step", opening_initial_step)

    def sqrt(self, x):
        if self.calls is None:
            return math.sqrt(x)
        self.calls.append(x)
        return math.nan if len(self.calls) == self.nan_at else math.sqrt(x)


@pytest.mark.parametrize("nan_at", [20, 200])
@pytest.mark.parametrize("find_period", [False, True])
def test_a_nan_error_norm_rejects_the_attempt_and_retries_the_same_step(monkeypatch, find_period, nan_at):
    """The controller's NaN rule: a NaN err_norm is not <= 1, and the builtin
    min/max order turns its NaN factor into 1.0, so the attempt is rejected
    and retried with the same h.  The retry redoes the same arithmetic, so
    the pass keeps every bit and only its counters show the extra attempt."""
    ivp = preset("case-V")
    clean = solve(ivp, STRICT, find_period)
    spy = _SqrtSpy(monkeypatch, nan_at)
    hit = assert_same_pass(ivp, STRICT, find_period)
    assert len(spy.passes) == 2 and spy.passes[0] == spy.passes[1]
    calls = spy.passes[0]
    # At most three roots size the first step, so call 20 already lies in the
    # step loop; the retry's error estimate is the one that read NaN.
    assert calls[nan_at] == calls[nan_at - 1]
    for name in ("t", "w", "q", "states"):
        assert getattr(hit, name).tobytes() == getattr(clean, name).tobytes(), name
    assert hit.period == clean.period
    want = m.IntegratorStats(
        clean.stats.accepted, clean.stats.rejected + 1, clean.stats.nonfinite_rejected, clean.stats.rhs_evals + 6
    )
    assert hit.stats == want
