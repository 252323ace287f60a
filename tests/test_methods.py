"""Perturbation schemes and their coefficient-level agreement with the series."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from lvdiag import (
    AgreementReport,
    InitialValueProblem,
    IntegratorConfig,
    MethodKind,
    ModelParams,
    NonFiniteError,
    PopulationState,
    SeriesSolution,
    method_series,
    methods_agree,
    preset,
    preset_names,
    sample_series,
    solve,
    taylor_coefficients,
)
import lvdiag.methods as methods_module
from lvdiag.methods import _cascade, _vim_iterates
from test_series import problems

CASE_V = preset("case-V")
CASE_I = preset("case-I")
IVP_V = InitialValueProblem(CASE_V.params, CASE_V.initial, 10.0)
IVP_I = InitialValueProblem(CASE_I.params, CASE_I.initial, 10.0)


def test_method_kind_wire_names():
    assert [m.value for m in MethodKind] == ["taylor", "adomian", "hpm", "vim"]


def _components(ivp, order):
    """Decomposition components u_n = U_n t**n, n = 0..order, as polynomials:
    n zeros, then U_n, read from the approximant's coefficients (so a -0.0
    U_n reads +0.0)."""
    components = []
    for n, (u_top, v_top) in enumerate(_cascade(ivp, order).T.tolist()):
        u_n, v_n = np.zeros((2, n + 1))
        u_n[n], v_n[n] = u_top, v_top
        components.append((u_n, v_n))
    return components


def test_adomian_component_n_is_the_degree_n_term():
    """Component n of the decomposition carries exactly the t**n term: U_n,
    coefficient n of the order-n approximant."""
    taylor = taylor_coefficients(IVP_V, 6)
    for n in range(7):
        adm = method_series(IVP_V, MethodKind.ADOMIAN, n)
        # Lower-degree parts cancel; what is left is the series coefficient.
        assert adm.x_coeffs[n] == pytest.approx(taylor.x_coeffs[n], rel=1e-13, abs=1e-13)
        assert adm.y_coeffs[n] == pytest.approx(taylor.y_coeffs[n], rel=1e-13, abs=1e-13)


def test_adomian_sum_reproduces_taylor():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c, d = rng.uniform(0.2, 2.0, size=4)
        x0, y0 = rng.uniform(0.2, 4.0, size=2)
        ivp = InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), 1.0)
        adm = method_series(ivp, MethodKind.ADOMIAN, 10)
        tay = taylor_coefficients(ivp, 10)
        np.testing.assert_allclose(adm.x_coeffs, tay.x_coeffs, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(adm.y_coeffs, tay.y_coeffs, rtol=1e-12, atol=1e-12)


# Homotopy perturbation's terms are the decomposition components: one cascade.


def test_hpm_terms_start_at_the_initial_state_and_vanish_at_zero():
    """Term 0 is the start and every later term vanishes at t = 0, so the
    approximant of every order starts exactly there."""
    for n in range(6):
        hpm = method_series(IVP_V, MethodKind.HPM, n)
        assert (hpm.x_coeffs[0], hpm.y_coeffs[0]) == (3.0, 2.0)


def test_hpm_cascade_solves_the_order_by_order_equations():
    p = CASE_V.params
    terms = _components(IVP_V, 6)
    for n in range(1, 7):
        coupling = np.zeros(1)
        for k in range(n):
            coupling = npoly.polyadd(coupling, npoly.polymul(terms[k][0], terms[n - 1 - k][1]))
        res_x = npoly.polysub(
            npoly.polyder(terms[n][0]), npoly.polysub(p.a * terms[n - 1][0], p.b * coupling)
        )
        res_y = npoly.polysub(
            npoly.polyder(terms[n][1]), npoly.polyadd(-p.c * terms[n - 1][1], p.d * coupling)
        )
        assert np.max(np.abs(res_x)) <= 1e-12
        assert np.max(np.abs(res_y)) <= 1e-12


def test_hpm_sum_reproduces_taylor():
    hpm = method_series(IVP_I, MethodKind.HPM, 12)
    tay = taylor_coefficients(IVP_I, 12)
    np.testing.assert_allclose(hpm.x_coeffs, tay.x_coeffs, rtol=1e-12)
    np.testing.assert_allclose(hpm.y_coeffs, tay.y_coeffs, rtol=1e-12)


def test_adomian_cascade_past_the_double_range_raises_no_warning():
    """Coefficients that overflow come out non-finite; the approximant names the first one."""
    u, v = _cascade(IVP_I, 305)
    assert not (math.isfinite(u[305]) and math.isfinite(v[305]))
    for method, order in ((MethodKind.ADOMIAN, 305), (MethodKind.HPM, 400), (MethodKind.VIM, 320)):
        with pytest.raises(NonFiniteError, match=r"^series coefficient 305 overflows$"):
            method_series(IVP_I, method, order)


def _running_sums(components):
    """The decomposition sums as a running loop forms them: 0 + u_0 + ... + u_n, one component at a time."""
    x = np.zeros(len(components))
    y = np.zeros(len(components))
    for n, (u_n, v_n) in enumerate(components):
        x[: n + 1] += u_n
        y[: n + 1] += v_n
        yield x[: n + 1].copy(), y[: n + 1].copy()


@pytest.mark.parametrize(
    "ivp, order",
    [
        (IVP_V, 30),
        # A start of -0.0: the running sum's first entry is 0.0 + -0.0 = 0.0.
        (InitialValueProblem(ModelParams(1.0, 0.5, 1.0, 2.0), PopulationState(-0.0, 1.0), 1.0), 12),
        # Components from 305 on are inf or NaN.
        (IVP_I, 305),
    ],
    ids=["case-V", "negative-zero-start", "case-I-overflow"],
)
def test_adomian_sums_are_the_running_sums_bitwise(ivp, order):
    """``method_series`` at every order n is the running sum of components 0..n,
    or names the first coefficient that overflows; ``methods_agree`` rows read
    those same sums.  The components are the polynomial cascade's."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = list(_running_sums(_convolve_cascade(ivp, order)))
    for n, (x, y) in enumerate(sums):
        overflow = ~(np.isfinite(x) & np.isfinite(y))
        if overflow.any():
            with pytest.raises(NonFiniteError, match=rf"^series coefficient {overflow.argmax()} overflows$"):
                method_series(ivp, MethodKind.ADOMIAN, n)
            continue
        approx = method_series(ivp, MethodKind.ADOMIAN, n)
        assert (approx.x_coeffs.tobytes(), approx.y_coeffs.tobytes()) == (x.tobytes(), y.tobytes())
    top = min(order, 304)  # case-I's Taylor coefficient 305 overflows
    taylor = taylor_coefficients(ivp, top)
    for k, report in enumerate(methods_agree(ivp, top)):
        want = np.stack((taylor.x_coeffs[: k + 1], taylor.y_coeffs[: k + 1]))
        deviation = np.max(np.abs(np.stack(sums[k]) - want) / (1.0 + np.abs(want)))
        assert report.adomian.hex() == float(deviation).hex(), k


def test_adomian_approximant_at_order_1000_stays_under_a_megabyte():
    """The approximant is the recurrence's coefficients: no (order + 1)**2 array is built."""
    tracemalloc.start()
    try:
        series = method_series(IVP_V, MethodKind.ADOMIAN, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.x_coeffs.size == 1001
    assert peak < 2**20


def test_vim_iterate_sequence_shape():
    iterates = _vim_iterates(IVP_V, 4)
    assert len(iterates) == 5
    assert [iterate.shape for iterate in iterates] == [(2, 1), (2, 2), (2, 4), (2, 7), (2, 9)]
    x0, y0 = iterates[0]
    assert x0.tolist() == [3.0]
    assert y0.tolist() == [2.0]


def test_vim_first_iterate_is_the_linear_correction():
    first = method_series(IVP_V, MethodKind.VIM, 1)
    assert first.x_coeffs.tolist() == [3.0, -3.0]
    assert first.y_coeffs.tolist() == [2.0, 4.0]


def test_vim_iterate_k_matches_series_through_order_k():
    """Iterate k is the order-k approximant, bit for bit, and agrees with the series through order k."""
    iterates = _vim_iterates(IVP_V, 10)
    for k in (3, 6, 10):
        xk, yk = iterates[k]
        approx = method_series(IVP_V, MethodKind.VIM, k)
        assert (approx.x_coeffs.tobytes(), approx.y_coeffs.tobytes()) == (xk.tobytes(), yk.tobytes())
        tay = taylor_coefficients(IVP_V, k)
        np.testing.assert_allclose(xk[: k + 1], tay.x_coeffs, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(yk[: k + 1], tay.y_coeffs, rtol=1e-12, atol=1e-12)


def _vim_length(k):
    """Coefficients of VIM iterate k: its degree doubles plus one, up to max(k, min(2k, 64))."""
    return min(2**k - 1, max(k, min(2 * k, 64))) + 1


def test_vim_degree_is_capped():
    iterates = _vim_iterates(IVP_V, 100)
    for k, (xk, yk) in enumerate(iterates):
        assert xk.size == yk.size == _vim_length(k)
    assert iterates[40][0].size == 65
    assert iterates[64][0].size == 65
    # Past order 64 the cap is the order itself, so no term the iterate has right is cut.
    assert iterates[80][0].size == 81
    assert iterates[-1][0].size == 101


DEGENERATE = {
    "x0=0": InitialValueProblem(ModelParams(1.0, 1.0, 1.0, 1.0), PopulationState(0.0, 1.0), 1.0),
    "b=0": InitialValueProblem(ModelParams(1.0, 0.0, 1.0, 1.0), PopulationState(2.0, 1.0), 1.0),
    "d=0": InitialValueProblem(ModelParams(1.0, 1.0, 1.0, 0.0), PopulationState(2.0, 1.0), 1.0),
}


@pytest.mark.parametrize("ivp", DEGENERATE.values(), ids=DEGENERATE)
def test_every_polynomial_has_the_length_of_its_degree_rule(ivp):
    """Zero coefficients stay in place: no scheme's arrays shrink or lag their degree."""
    for n in range(13):
        adm = method_series(ivp, MethodKind.ADOMIAN, n)
        assert adm.x_coeffs.size == adm.y_coeffs.size == n + 1
    for k, (xk, yk) in enumerate(_vim_iterates(ivp, 70)):
        assert xk.size == yk.size == _vim_length(k)


# The polynomial kernels of the oracles below, over plain float arrays,
# lowest degree first.


def _pmul(c1, c2, degree):
    """c1*c2 through ``degree``.

    Each operand is taken at its own degree: np.convolve's dot products group
    their terms by operand length, so zero padding could move the last bits.
    """
    return np.convolve(c1, c2)[: degree + 1]


def _pint(c):
    """Antiderivative vanishing at 0, one degree higher than c."""
    out = np.empty(c.size + 1)
    out[0] = 0.0
    out[1:] = c / np.arange(1, c.size + 1)
    return out


def _convolve_cascade(ivp, order):
    """The decomposition cascade as polynomial arithmetic, O(order**3): A_n as
    the sum of the ``np.convolve`` products of the components, each update
    integrated as a polynomial.  The bitwise oracle of the scalar recurrence
    in ``_cascade``."""
    p = ivp.params
    u = [np.array([ivp.initial.x])]
    v = [np.array([ivp.initial.y])]
    # Coefficients past the double range become inf or NaN, which sampling refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(order):
            a_n = _pmul(u[0], v[n], n)
            for k in range(1, n + 1):
                a_n += _pmul(u[k], v[n - k], n)
            u.append(_pint(p.a * u[n] - p.b * a_n))
            v.append(_pint(-p.c * v[n] + p.d * a_n))
    return list(zip(u, v))


def _is_finite(components):
    return all(np.isfinite(c).all() for pair in components for c in pair)


def _assert_same_tops(ivp, order, oracle):
    """The recurrence's coefficients are the oracle components' top entries,
    bit for bit up to the sign of a zero (both plus 0.0), inf and NaN included."""
    tops = np.array([[pair[c][n] for n, pair in enumerate(oracle)] for c in (0, 1)]) + 0.0
    coeffs = _cascade(ivp, order)
    assert coeffs.dtype == np.float64 and coeffs.shape == tops.shape == (2, order + 1)
    assert coeffs.tobytes() == tops.tobytes()


def _assert_same_approximant(ivp, order, oracle):
    """The ADM coefficient sums have the bits of the oracle components' running
    sum, and so has the approximant when they are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        *_, (x, y) = _running_sums(oracle)
    assert _cascade(ivp, order).tobytes() == x.tobytes() + y.tobytes()
    if _is_finite(oracle):
        approx = method_series(ivp, MethodKind.ADOMIAN, order)
        assert (approx.x_coeffs.tobytes(), approx.y_coeffs.tobytes()) == (x.tobytes(), y.tobytes())


def _assert_convolve_cascade_bits(ivp, order):
    """The coefficients are the oracle's tops, overflowing ones included.
    Finite cascades' coefficients and approximants are the oracle's running
    sum byte for byte.  An overflowing cascade's coefficients keep every
    entry that the oracle's running sum has finite; where the oracle's lower
    NaNs reach the sum, they may hold inf or a finite sum instead of NaN.
    The approximant names the first coefficient that the oracle's sum has
    non-finite."""
    oracle = _convolve_cascade(ivp, order)
    _assert_same_tops(ivp, order, oracle)
    if _is_finite(oracle):
        _assert_same_approximant(ivp, order, oracle)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        *_, sums = _running_sums(oracle)
    for got, want in zip(_cascade(ivp, order), sums):
        finite = np.isfinite(want)
        assert got[finite].tobytes() == want[finite].tobytes()
    overflow = ~(np.isfinite(sums[0]) & np.isfinite(sums[1]))
    with pytest.raises(NonFiniteError, match=rf"^series coefficient {overflow.argmax()} overflows$"):
        method_series(ivp, MethodKind.ADOMIAN, order)


def _ivp(a, b, c, d, x0, y0):
    return InitialValueProblem(ModelParams(a, b, c, d), PopulationState(x0, y0), 1.0)


CASCADE_STARTS = {
    **{name: InitialValueProblem(preset(name).params, preset(name).initial, 1.0) for name in preset_names()},
    **DEGENERATE,
    "x0=-0": _ivp(1.0, 0.5, 1.0, 2.0, -0.0, 1.0),
    "y0=-0": _ivp(1.0, 0.5, 1.0, 2.0, 1.0, -0.0),
    # At the equilibrium (c/d, a/b) every component past the start is zero.
    "equilibrium": _ivp(1.5, 0.75, 2.0, 0.5, 4.0, 2.0),
}


@pytest.mark.parametrize("order", [0, 1, 40])
@pytest.mark.parametrize("ivp", CASCADE_STARTS.values(), ids=CASCADE_STARTS)
def test_adomian_components_are_the_convolve_cascade_bitwise(ivp, order):
    assert _is_finite(_convolve_cascade(ivp, order))
    _assert_convolve_cascade_bits(ivp, order)


def test_overflowing_cascade_keeps_its_top_entries():
    """From component 305 on case-I's tops are inf or NaN.  From component 307
    on the convolve cascade holds NaN (inf * 0) below them, where the
    recurrence's components U_n t**n hold +0.0; those entries sit where the
    running sums are already NaN."""
    oracle = _convolve_cascade(IVP_I, 307)
    assert [_is_finite(oracle[:n]) for n in (305, 306)] == [True, False]
    assert [any(np.isnan(c[:-1]).any() for c in pair) for pair in oracle[305:]] == [False, False, True]
    _assert_convolve_cascade_bits(IVP_I, 307)
    _assert_same_approximant(IVP_I, 307, oracle)


def test_a_negative_zero_coupling_leaves_positive_zeros_below_the_tops():
    """With d = -0.0 the convolve cascade leaves -0.0 below some tops of v
    ((-c) * +0.0 + -0.0 * +0.0); the recurrence's components U_n t**n hold
    +0.0 there.  Running sums start at +0.0, so the approximant has the same
    bits either way."""
    ivp = _ivp(1.0, 1.0, 1.0, -0.0, 2.0, 1.0)
    oracle = _convolve_cascade(ivp, 20)
    assert any(np.signbit(v_n[:-1]).any() for _, v_n in oracle)
    _assert_same_tops(ivp, 20, oracle)
    _assert_same_approximant(ivp, 20, oracle)


def _decades(low, high):
    """Positive floats m * 10**e, m in [1, 10), e in [low, high]."""
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(low, high))


@st.composite
def cascade_problems(draw):
    """Rates and starts over 60 decades, couplings and starts sometimes 0: some
    cascades stay normal, some reach subnormals, some overflow."""
    a, c = draw(_decades(-30, 30)), draw(_decades(-30, 30))
    b, d = (draw(st.one_of(st.just(0.0), _decades(-30, 30))) for _ in range(2))
    x0, y0 = (draw(st.one_of(st.just(0.0), _decades(-30, 30))) for _ in range(2))
    return _ivp(a, b, c, d, x0, y0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cascade_problems(), st.integers(0, 40))
def test_adomian_components_are_the_convolve_cascade_on_drawn_problems(ivp, order):
    _assert_convolve_cascade_bits(ivp, order)


def _row_vim_iterates(ivp, iterations):
    """The variational iteration one row at a time, (x, y) pairs of separate
    arrays, each padded, multiplied and integrated through the kernels above.
    The bitwise oracle of ``_vim_iterates``, which holds both rows in one array."""
    p = ivp.params
    xp, yp = np.array([ivp.initial.x]), np.array([ivp.initial.y])
    iterates = [(xp, yp)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, iterations + 1):
            degree = min(2 * xp.size - 1, max(k, min(2 * k, 64)))
            xy = _pmul(xp, yp, degree - 1)
            x, y = np.zeros(degree + 1), np.zeros(degree + 1)
            x[: xp.size], y[: yp.size] = xp, yp
            n = np.arange(1, degree + 1)
            residual_x = n * x[1:] - (p.a * x[:-1] - p.b * xy)
            residual_y = n * y[1:] - (-p.c * y[:-1] + p.d * xy)
            xp, yp = x - _pint(residual_x), y - _pint(residual_y)
            iterates.append((xp, yp))
    return iterates


def _assert_vim_is_the_row_iteration(ivp, iterations):
    """Every iterate holds the oracle's two rows bit for bit: signed zeros, inf and NaN included."""
    iterates, oracle = _vim_iterates(ivp, iterations), _row_vim_iterates(ivp, iterations)
    assert len(iterates) == len(oracle) == iterations + 1
    for k, (iterate, pair) in enumerate(zip(iterates, oracle)):
        want = np.stack(pair)
        assert iterate.dtype == np.float64 and iterate.shape == want.shape == (2, _vim_length(k)), k
        assert np.array_equal(iterate.view(np.uint64), want.view(np.uint64)), k


@pytest.mark.parametrize(
    "ivp, iterations",
    [(ivp, 100) for ivp in CASCADE_STARTS.values()] + [(IVP_I, 320)],
    ids=[*CASCADE_STARTS, "case-I-overflow"],
)
def test_vim_is_the_row_by_row_iteration_bitwise(ivp, iterations):
    """Iterates 0..100 run past the degree cap at 64; case-I's iterates
    overflow from iterate and coefficient 305 on, to inf and then NaN."""
    _assert_vim_is_the_row_iteration(ivp, iterations)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cascade_problems(), st.integers(0, 100))
def test_vim_is_the_row_by_row_iteration_on_drawn_problems(ivp, iterations):
    _assert_vim_is_the_row_iteration(ivp, iterations)


@pytest.mark.parametrize("method", [MethodKind.ADOMIAN, MethodKind.HPM], ids=lambda m: m.value)
def test_the_cascade_multiplies_no_polynomials(monkeypatch, method):
    """Order 1000 without a polynomial product: the cascade is O(order**2) scalar work."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(methods_module.np, "convolve", refuse)
    assert _cascade(IVP_V, 1000).shape == (2, 1001)
    series = method_series(IVP_V, method, 1000)
    assert series.x_coeffs.size == series.y_coeffs.size == 1001


@pytest.mark.parametrize("ivp", [IVP_I, IVP_V], ids=["case-I", "case-V"])
def test_vim_past_the_degree_cap_still_reproduces_the_series(ivp):
    """Iterate 80 keeps its terms through degree 80, so it agrees like the ADM sum."""
    report = methods_agree(ivp, 80)[-1]
    assert report.vim <= 1e-10
    assert report.adomian <= 1e-10


def test_all_methods_start_exactly_at_the_initial_state():
    for method in MethodKind:
        sol = method_series(IVP_I, method, 6)
        assert sol.x_coeffs[0] == 14.0
        assert sol.y_coeffs[0] == 18.0


def test_methods_agree_within_round_off():
    reports_v = methods_agree(IVP_V, 10)
    assert len(reports_v) == 11
    assert reports_v[-1].worst() <= 1e-12
    report_i = methods_agree(IVP_I, 10)[-1]
    assert report_i.worst() <= 1e-12
    assert report_i.worst() == max(report_i.adomian, report_i.vim)
    decoupled = preset("decoupled")
    report_d = methods_agree(InitialValueProblem(decoupled.params, decoupled.initial, 1.0), 10)[-1]
    assert report_d.worst() <= 1e-14


def _copied(arrays):
    return [array.copy() for array in arrays]


def test_a_nan_deviation_is_the_worst_in_either_place(monkeypatch):
    """A NaN in a scheme's x or y coefficients, or in the Taylor reference, is a NaN row field."""
    assert math.isnan(AgreementReport(1e-16, math.nan).worst())
    assert math.isnan(AgreementReport(math.nan, 1e-16).worst())
    clean = methods_agree(IVP_V, 6)
    for component in (0, 1):

        def poisoned_vim(ivp, iterations):
            iterates = _copied(_vim_iterates(ivp, iterations))
            iterates[4][component][3] = math.nan
            return iterates

        # Row k reads VIM iterate k only, and iterate 4's degree-3 entry lies inside it.
        monkeypatch.setattr(methods_module, "_vim_iterates", poisoned_vim)
        rows = methods_agree(IVP_V, 6)
        assert [math.isnan(r.vim) for r in rows] == [k == 4 for k in range(7)]
        assert [math.isnan(r.worst()) for r in rows] == [k == 4 for k in range(7)]
        assert [r.adomian for r in rows] == [r.adomian for r in clean]
        monkeypatch.undo()

        def poisoned_cascade(ivp, order, cascade=methods_module._cascade):
            coeffs = cascade(ivp, order)
            coeffs[component][2] = math.nan
            return coeffs

        # Every running sum from component 2 on holds the NaN.
        monkeypatch.setattr(methods_module, "_cascade", poisoned_cascade)
        rows = methods_agree(IVP_V, 6)
        assert [math.isnan(r.adomian) for r in rows] == [k >= 2 for k in range(7)]
        assert [math.isnan(r.worst()) for r in rows] == [k >= 2 for k in range(7)]
        assert [r.vim for r in rows] == [r.vim for r in clean]
        monkeypatch.undo()

        def poisoned_taylor(ivp, order):
            series = taylor_coefficients(ivp, order)
            coeffs = [series.x_coeffs.copy(), series.y_coeffs.copy()]
            coeffs[component][3] = math.nan
            return SeriesSolution(*coeffs)

        # The reference: rows from order 3 on compare both schemes with the NaN.
        monkeypatch.setattr(methods_module, "taylor_coefficients", poisoned_taylor)
        rows = methods_agree(IVP_V, 6)
        assert [math.isnan(r.adomian) and math.isnan(r.vim) for r in rows] == [k >= 3 for k in range(7)]
        assert rows[:3] == clean[:3]
        monkeypatch.undo()


def test_methods_agree_validates_order():
    with pytest.raises(ValueError):
        methods_agree(IVP_V, -3)


def test_method_series_rejects_unknown_method():
    with pytest.raises(ValueError):
        method_series(IVP_V, "taylor", 4)


def test_methods_agree_on_every_preset_through_order_20():
    for name in preset_names():
        case = preset(name)
        ivp = InitialValueProblem(case.params, case.initial, 1.0)
        for report in methods_agree(ivp, 20):
            assert report.worst() <= 1e-10, (name, report)


def _agreement_from_scratch(ivp, order):
    """Reference for ``methods_agree``: every scheme rebuilt from order 0 for this one order."""
    taylor = taylor_coefficients(ivp, order)
    adomian = method_series(ivp, MethodKind.ADOMIAN, order)
    vim = (np.zeros(order + 1), np.zeros(order + 1))
    iterate = method_series(ivp, MethodKind.VIM, order)
    for padded, coeffs in zip(vim, (iterate.x_coeffs, iterate.y_coeffs)):
        padded[: min(coeffs.size, order + 1)] = coeffs[: order + 1]

    def deviation(candidate):
        pairs = zip(candidate, (taylor.x_coeffs, taylor.y_coeffs))
        return max(float(np.max(np.abs(c - r) / (1.0 + np.abs(r)))) for c, r in pairs)

    return AgreementReport(deviation((adomian.x_coeffs, adomian.y_coeffs)), deviation(vim))


def _assert_sweep_matches_per_order_reports(ivp, top):
    sweep = methods_agree(ivp, top)
    assert [repr(r) for r in sweep] == [repr(_agreement_from_scratch(ivp, k)) for k in range(top + 1)]
    # A lower order's build is a prefix of a higher one's: no report depends on the top order.
    for k in range(top + 1):
        assert methods_agree(ivp, k) == sweep[: k + 1]


@pytest.mark.parametrize("name", preset_names())
def test_agreement_sweep_matches_per_order_construction_on_presets(name):
    case = preset(name)
    _assert_sweep_matches_per_order_reports(InitialValueProblem(case.params, case.initial, case.t_end), 40)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(problems())
def test_agreement_sweep_matches_per_order_construction_on_random_problems(ivp):
    _assert_sweep_matches_per_order_reports(ivp, 20)


# Exact arithmetic: the identities that let one cascade serve every order.
# Polynomials are lists of Fractions, lowest degree first; the presets'
# parameters are floats, hence dyadic rationals, so every step is exact.


def _q_mul(p, q, degree):
    """p*q through ``degree``."""
    out = [Fraction(0)] * min(len(p) + len(q) - 1, degree + 1)
    for i, pi in enumerate(p[: degree + 1]):
        for j, qj in enumerate(q[: degree + 1 - i]):
            out[i + j] += pi * qj
    return out


def _q_lin(s, p, t, q):
    """s*p + t*q."""
    n = max(len(p), len(q))
    p, q = p + [0] * (n - len(p)), q + [0] * (n - len(q))
    return [s * pi + t * qi for pi, qi in zip(p, q)]


def _q_int(p):
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]


def _q_der(p):
    return [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]


def _q_taylor(a, b, c, d, x0, y0, order):
    X, Y = [x0], [y0]
    for n in range(order):
        conv = sum(X[k] * Y[n - k] for k in range(n + 1))
        X.append((a * X[n] - b * conv) / (n + 1))
        Y.append((-c * Y[n] + d * conv) / (n + 1))
    return X, Y


def _q_coupling(u, v, n):
    """A_n = sum_k u_k*v_{n-k}, through degree n (components 0..n have degrees 0..n)."""
    coupling = [Fraction(0)]
    for k in range(n + 1):
        coupling = _q_lin(1, coupling, 1, _q_mul(u[k], v[n - k], n))
    return coupling


def _q_adomian_step(a, b, c, d, u, v, n):
    """(u_{n+1}, v_{n+1}) = (int(a*u_n - b*A_n), int(-c*v_n + d*A_n)) from components 0..n."""
    coupling = _q_coupling(u, v, n)
    return _q_int(_q_lin(a, u[n], -b, coupling)), _q_int(_q_lin(-c, v[n], d, coupling))


def _q_adomian(a, b, c, d, x0, y0, order):
    u, v = [[x0]], [[y0]]
    for n in range(order):
        u_next, v_next = _q_adomian_step(a, b, c, d, u, v, n)
        u.append(u_next)
        v.append(v_next)
    return u, v


def _q_vim_step(a, b, c, d, xp, yp, k):
    """Iterate k from iterate k - 1, truncated to degree max(k, min(2k, 64)) like the library's."""
    cap = max(k, min(2 * k, 64))
    xy = _q_mul(xp, yp, cap - 1)  # higher terms are cut after integration
    residual_x = _q_lin(1, _q_der(xp), -1, _q_lin(a, xp, -b, xy))
    residual_y = _q_lin(1, _q_der(yp), -1, _q_lin(-c, yp, d, xy))
    x_next = _q_lin(1, xp, -1, _q_int(residual_x))[: cap + 1]
    return x_next, _q_lin(1, yp, -1, _q_int(residual_y))[: cap + 1]


def _q_vim(a, b, c, d, x0, y0, iterations):
    """The correction functional with multiplier -1."""
    iterates = [([x0], [y0])]
    for k in range(1, iterations + 1):
        iterates.append(_q_vim_step(a, b, c, d, *iterates[-1], k))
    return iterates


@pytest.mark.parametrize("name", preset_names())
def test_schemes_reproduce_taylor_exactly_through_order_20(name):
    case = preset(name)
    p = case.params
    args = [Fraction(v) for v in (p.a, p.b, p.c, p.d, case.initial.x, case.initial.y)]
    X, Y = _q_taylor(*args, 20)
    u, v = _q_adomian(*args, 20)
    for n in range(21):
        # Component n is the single term X[n] t**n ...
        assert u[n] == [0] * n + [X[n]] and v[n] == [0] * n + [Y[n]], (name, n)
        # ... so the order-n decomposition sum is the order-n Taylor polynomial.
        assert [sum(u_k[j] for u_k in u[j : n + 1]) for j in range(n + 1)] == X[: n + 1]
        assert [sum(v_k[j] for v_k in v[j : n + 1]) for j in range(n + 1)] == Y[: n + 1]
    for k, (xk, yk) in enumerate(_q_vim(*args, 20)):
        assert xk[: k + 1] == X[: k + 1] and yk[: k + 1] == Y[: k + 1], (name, k)


U = Fraction(2) ** -53  # unit roundoff of a double


def _fractions(coeffs):
    return [Fraction(c) for c in coeffs.tolist()]


def _absolute(p):
    return [abs(c) for c in p]


def _assert_within(computed, exact, bound, where):
    """|computed - exact| <= bound, entry by entry, the shorter lists padded with zeros."""
    n = max(len(computed), len(exact), len(bound))
    padded = [p + [Fraction(0)] * (n - len(p)) for p in (computed, exact, bound)]
    for j, (got, want, limit) in enumerate(zip(*padded)):
        assert abs(got - want) <= limit, (where, j, float(got), float(want))


@pytest.mark.parametrize("name", preset_names())
def test_adomian_and_vim_steps_meet_their_rounding_bound(name):
    """Each float step of the decomposition cascade and of the variational
    iteration, redone in rational arithmetic on the stored float inputs, is
    within a stated number of unit roundoffs u = 2**-53 of the exact step,
    entry by entry, scaled by the magnitudes that enter it.

    Decomposition component n + 1 from the stored components 0..n:

        |u_{n+1} - exact| <= (n + 4) * u * integral_0^t (a*|u_n| + b*sum_k |u_k|*|v_{n-k}|)

    and the same for v_{n+1} with c and d.  Every float component is a
    single t**n term, like the exact one, so A_n's top entry is a sum of
    n + 1 rounded products: at most (n + 1) u, whatever order or fused
    operations the convolution uses.  The two scalings, their difference and
    the division by the new degree cost one u each, and the entries below
    the top are exact zeros.

    Variational iterate k, entry j, from the stored iterate k - 1 = (x, y):

        |x_k[j] - exact| <= (j + 5) * u * (|x[j]| + (a*|x[j-1]| + b*sum_i |x[i]*y[j-1-i]|) / j)

    and the same for y_k with c and d (entry 0 is x[0] itself).  The at most j
    products of (x*y)[j-1] and their sum cost j u; the two scalings, the two
    differences of the residual, the product j*x[j], the division by j and
    the final difference against x[j] add five more, for x[j] cancels out
    of x[j] - (j*x[j] - ...)/j only in exact arithmetic.

    Both bounds are first order in u, as is the Taylor recurrence's 2*eps
    (eps = 2u); the measured worst cases are about a fifth of them.  With
    the exact cascades above, which equal the Taylor polynomials, this rests
    the schemes' agreement on proof plus rounding, not on a tolerance.
    """
    case = preset(name)
    ivp = InitialValueProblem(case.params, case.initial, case.t_end)
    a, b, c, d = (Fraction(v) for v in (ivp.params.a, ivp.params.b, ivp.params.c, ivp.params.d))
    components = _components(ivp, 20)
    u = [_fractions(u_n) for u_n, _ in components]
    v = [_fractions(v_n) for _, v_n in components]
    abs_u, abs_v = [_absolute(p) for p in u], [_absolute(p) for p in v]
    for n in range(20):
        exact_u, exact_v = _q_adomian_step(a, b, c, d, u, v, n)
        coupling = _q_coupling(abs_u, abs_v, n)
        magnitude_u = _q_int(_q_lin(a, abs_u[n], b, coupling))
        magnitude_v = _q_int(_q_lin(c, abs_v[n], d, coupling))
        pairs = zip((u[n + 1], v[n + 1]), (exact_u, exact_v), (magnitude_u, magnitude_v))
        for got, want, magnitude in pairs:
            _assert_within(got, want, [(n + 4) * U * m for m in magnitude], (name, "component", n + 1))
    iterates = [tuple(map(_fractions, pair)) for pair in _vim_iterates(ivp, 20)]
    for k in range(1, 21):
        x, y = iterates[k - 1]
        exact_x, exact_y = _q_vim_step(a, b, c, d, x, y, k)
        cap = max(k, min(2 * k, 64))
        abs_x, abs_y = _absolute(x), _absolute(y)
        products = _q_mul(abs_x, abs_y, cap - 1)
        magnitude_x = _q_lin(1, abs_x, 1, _q_int(_q_lin(a, abs_x, b, products)))[: cap + 1]
        magnitude_y = _q_lin(1, abs_y, 1, _q_int(_q_lin(c, abs_y, d, products)))[: cap + 1]
        for got, want, magnitude in zip(iterates[k], (exact_x, exact_y), (magnitude_x, magnitude_y)):
            bound = [(j + 5) * U * m for j, m in enumerate(magnitude)]
            _assert_within(got, want, bound, (name, "iterate", k))


# SHA-256 of the order-20 coefficient bytes, x then y, as little-endian doubles.
# Taylor sums its products with math.fsum, and the decomposition cascade is a
# scalar recurrence in Python floats that makes no BLAS call, so no BLAS
# kernel's summation order can reach these bytes; CI reruns this test under
# OpenBLAS's Prescott and Haswell kernels.  VIM is left out: its products are
# dot products (np.convolve calls ddot) of many non-zero terms, whose grouping
# the kernel chooses.
SERIES_SHA256 = {
    ("case-I", "taylor"): "383551951f7e167602afa115136b11fcd9f8302cee9287bdf176fa893c53fafd",
    ("case-I", "adomian"): "d820f82f6784b859e6d250ba60b4429e2836c339bef69d1a24a3a7277f2a49e2",
    ("case-I", "hpm"): "d820f82f6784b859e6d250ba60b4429e2836c339bef69d1a24a3a7277f2a49e2",
    ("case-V", "taylor"): "c49cb01aff1bb0f590c639d71e48d0677daecd5f79c8ed16aa32dc97685ff99f",
    ("case-V", "adomian"): "8480386d339cc864e4be8c8cf2a2ea89a27ed7e98406bc02049dfb2176333988",
    ("case-V", "hpm"): "8480386d339cc864e4be8c8cf2a2ea89a27ed7e98406bc02049dfb2176333988",
}


@pytest.mark.parametrize(("name", "method"), SERIES_SHA256, ids=[f"{n}-{m}" for n, m in SERIES_SHA256])
def test_series_bytes_do_not_depend_on_the_blas_kernel(name, method):
    series = method_series(preset(name), MethodKind(method), 20)
    coeffs = np.concatenate([series.x_coeffs, series.y_coeffs]).astype("<f8")
    assert hashlib.sha256(coeffs.tobytes()).hexdigest() == SERIES_SHA256[name, method]


# Why the series fail: the Taylor series has a finite radius of convergence
# rho, and every scheme's polynomial is a truncation of it (Domb & Sykes 1957;
# Hinch, Perturbation Methods, 1991, ch. 8).  Raising the order helps inside
# rho and hurts outside it.


def _radius_bracket(ivp):
    """[min, max] of the root test |c_n|**(-1/n) over Taylor coefficients 60..120 of x and y."""
    series = taylor_coefficients(ivp, 120)
    n = np.arange(60, 121)
    roots = np.concatenate([np.abs(c[60:]) ** (-1.0 / n) for c in (series.x_coeffs, series.y_coeffs)])
    return float(roots.min()), float(roots.max())


@pytest.mark.parametrize(
    ("ivp", "bracket"), [(CASE_I, (0.0951, 0.1004)), (CASE_V, (0.7255, 0.7734))], ids=["case-I", "case-V"]
)
def test_raising_the_order_helps_only_inside_the_radius_of_convergence(ivp, bracket):
    """At t = rho_lo / 2 each scheme's relative error at orders 10, 20, 40
    shrinks, until it is within the reference's accuracy; at t = 1.5 rho_hi
    it grows, from an order-one miss at order 10."""
    rho_lo, rho_hi = _radius_bracket(ivp)
    assert bracket[0] <= rho_lo < rho_hi <= bracket[1]
    t_in, t_out = 0.5 * rho_lo, 1.5 * rho_hi
    # Far above the reference's own error (VIM's order-40 error reads 6e-15 at
    # t_in) and far below every scheme's order-10 error there.
    floor = 1e-11
    ivp = InitialValueProblem(ivp.params, ivp.initial, t_out)
    ref = solve(ivp, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)).sample([t_in, t_out])
    for method in MethodKind:
        errors = []
        for order in (10, 20, 40):
            approx = sample_series(method_series(ivp, method, order), [t_in, t_out])
            errors.append(np.maximum(np.abs(approx.x / ref.x - 1.0), np.abs(approx.y / ref.y - 1.0)))
        inside, outside = zip(*errors)
        for lower, higher in zip(inside, inside[1:]):
            assert higher < lower or higher <= floor, (method, inside)
        assert inside[-1] <= floor, (method, inside)
        assert 1.0 < outside[0] < outside[1] < outside[2], (method, outside)


# Finite coefficients whose products neither overflow nor underflow, so the
# rounding bounds below hold, with signed zeros drawn often.
magnitude = st.floats(1e-100, 1e100)
coefficient = st.one_of(st.just(0.0), st.just(-0.0), magnitude, magnitude.map(lambda c: -c))
coefficient_arrays = st.lists(coefficient, min_size=1, max_size=30).map(np.array)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coefficient_arrays, coefficient_arrays, st.integers(0, 60))
def test_pmul_is_the_truncated_product_within_highams_bound(c1, c2, degree):
    """Entry m of the product is a sum of n rounded products; in any summation
    order it lies within gamma_n * sum_i |c1_i * c2_(m-i)| of the exact sum,
    gamma_n = n*u / (1 - n*u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, eq. 3.5)."""
    product = _pmul(c1, c2, degree)
    assert product.size == min(c1.size + c2.size - 1, degree + 1)
    q1, q2 = _fractions(c1), _fractions(c2)
    for m, got in enumerate(product.tolist()):
        terms = [q1[i] * q2[m - i] for i in range(max(0, m - len(q2) + 1), min(m, len(q1) - 1) + 1)]
        gamma = len(terms) * U / (1 - len(terms) * U)
        assert abs(Fraction(got) - sum(terms)) <= gamma * sum(abs(t) for t in terms), (m, got)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coefficient_arrays)
def test_pint_rounds_each_quotient_once(c):
    integral = _pint(c)
    assert integral.size == c.size + 1
    assert integral[0] == 0.0
    for i, got in enumerate(integral[1:].tolist()):
        assert got == float(Fraction(c[i]) / (i + 1)), (i, got)
