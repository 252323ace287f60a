"""Perturbation schemes and their coefficient-level agreement with the series."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.polynomial import polyutils as pu

from lvdiag import (
    AgreementReport,
    InitialValueProblem,
    IntegratorConfig,
    MethodKind,
    ModelParams,
    PopulationState,
    adomian_components,
    method_series,
    methods_agree,
    preset,
    preset_names,
    sample_series,
    solve,
    taylor_coefficients,
    vim_iterates,
)
from lvdiag.methods import _max_relative_deviation, _padd, _pder, _pint, _pmul, _trim
from test_series import problems

CASE_V = preset("case-V")
CASE_I = preset("case-I")
IVP_V = InitialValueProblem(CASE_V.params, CASE_V.initial, 10.0)
IVP_I = InitialValueProblem(CASE_I.params, CASE_I.initial, 10.0)


def test_method_kind_wire_names():
    assert [m.value for m in MethodKind] == ["taylor", "adomian", "hpm", "vim"]


def test_adomian_component_n_is_the_degree_n_term():
    """Component n of the decomposition carries exactly the t**n term."""
    components = adomian_components(IVP_V, 6)
    taylor = taylor_coefficients(IVP_V, 6)
    for n, (u_n, v_n) in enumerate(components):
        assert u_n.size == n + 1
        # Lower-degree parts cancel; what is left is the series coefficient.
        assert u_n[-1] == pytest.approx(taylor.x_coeffs[n], rel=1e-13, abs=1e-13)
        assert v_n[-1] == pytest.approx(taylor.y_coeffs[n], rel=1e-13, abs=1e-13)


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
    terms = adomian_components(IVP_V, 5)
    x0_term, y0_term = terms[0]
    assert x0_term.tolist() == [3.0]
    assert y0_term.tolist() == [2.0]
    for x_n, y_n in terms[1:]:
        assert x_n[0] == 0.0 and y_n[0] == 0.0


def test_hpm_cascade_solves_the_order_by_order_equations():
    p = CASE_V.params
    terms = adomian_components(IVP_V, 6)
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
    """Coefficients that overflow come out non-finite; sampling refuses them."""
    sol = method_series(IVP_I, MethodKind.ADOMIAN, 305)
    assert not np.all(np.isfinite(sol.x_coeffs))


def test_vim_iterate_sequence_shape():
    iterates = vim_iterates(IVP_V, 4)
    assert len(iterates) == 5
    x0, y0 = iterates[0]
    assert x0.tolist() == [3.0]
    assert y0.tolist() == [2.0]


def test_vim_first_iterate_is_the_linear_correction():
    x1, y1 = vim_iterates(IVP_V, 1)[1]
    assert x1.tolist() == [3.0, -3.0]
    assert y1.tolist() == [2.0, 4.0]


def test_vim_iterate_k_matches_series_through_order_k():
    iterates = vim_iterates(IVP_V, 10)
    for k in (3, 6, 10):
        xk, yk = iterates[k]
        tay = taylor_coefficients(IVP_V, k)
        np.testing.assert_allclose(xk[: k + 1], tay.x_coeffs, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(yk[: k + 1], tay.y_coeffs, rtol=1e-12, atol=1e-12)


def test_vim_degree_is_capped():
    iterates = vim_iterates(IVP_V, 100)
    for k, (xk, yk) in enumerate(iterates):
        cap = max(k, min(2 * k, 64))
        assert xk.size <= cap + 1
        assert yk.size <= cap + 1
    assert iterates[40][0].size == 65
    assert iterates[64][0].size == 65
    # Past order 64 the cap is the order itself, so no term the iterate has right is cut.
    assert iterates[80][0].size == 81
    assert iterates[-1][0].size == 101


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


def test_a_nan_deviation_is_the_worst_in_either_place():
    assert math.isnan(AgreementReport(1e-16, math.nan).worst())
    assert math.isnan(AgreementReport(math.nan, 1e-16).worst())
    finite, poisoned = np.array([1.0, 2.0]), np.array([1.0, math.nan])
    for candidate in ((poisoned, finite), (finite, poisoned)):
        assert math.isnan(_max_relative_deviation(candidate, (finite, finite)))
        assert math.isnan(_max_relative_deviation((finite, finite), candidate))


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
    for padded, coeffs in zip(vim, vim_iterates(ivp, order)[-1]):
        padded[: min(coeffs.size, order + 1)] = coeffs[: order + 1]

    def deviation(candidate):
        pairs = zip(candidate, (taylor.x_coeffs, taylor.y_coeffs))
        return max(float(np.max(np.abs(c - r) / (1.0 + np.abs(r)))) for c, r in pairs)

    return AgreementReport(deviation((adomian.x_coeffs, adomian.y_coeffs)), deviation(vim))


def _assert_sweep_matches_per_order_reports(ivp):
    sweep = methods_agree(ivp, 20)
    assert [repr(r) for r in sweep] == [repr(_agreement_from_scratch(ivp, k)) for k in range(21)]
    # A lower order's build is a prefix of a higher one's: no report depends on the top order.
    for k in range(21):
        assert methods_agree(ivp, k) == sweep[: k + 1]


@pytest.mark.parametrize("name", preset_names())
def test_agreement_sweep_matches_per_order_construction_on_presets(name):
    case = preset(name)
    _assert_sweep_matches_per_order_reports(InitialValueProblem(case.params, case.initial, case.t_end))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(problems())
def test_agreement_sweep_matches_per_order_construction_on_random_problems(ivp):
    _assert_sweep_matches_per_order_reports(ivp)


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
    components = adomian_components(ivp, 20)
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
    iterates = [tuple(map(_fractions, pair)) for pair in vim_iterates(ivp, 20)]
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


# Finite coefficients small enough that no product overflows, with exact and
# signed zeros drawn often so that trailing zeros and all-zero arrays occur.
coefficient = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e100, 1e100))


@st.composite
def polynomials(draw):
    body = draw(st.lists(coefficient, min_size=1, max_size=30))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=30 - len(body)))
    return np.array(body + zeros)


KERNEL_EDGE_CASES = [np.array([-0.0]), np.array([0.0]), np.zeros(5), np.array([2.5]), np.array([1.0, 0.0, -0.0])]


def _same_bytes(kernel_result, numpy_result):
    assert kernel_result.dtype == numpy_result.dtype == np.float64
    assert kernel_result.tobytes() == numpy_result.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(polynomials(), st.sampled_from(KERNEL_EDGE_CASES)), st.one_of(polynomials(), st.sampled_from(KERNEL_EDGE_CASES)))
def test_kernels_match_numpy_polynomial_bit_for_bit(c1, c2):
    c1_before, c2_before = c1.tobytes(), c2.tobytes()
    _same_bytes(_trim(c1), pu.trimseq(c1))
    _same_bytes(_pmul(c1, c2), npoly.polymul(c1, c2))
    _same_bytes(_padd(c1, c2), npoly.polyadd(c1, c2))
    _same_bytes(_padd(c1, -c2), npoly.polysub(c1, c2))
    _same_bytes(_pint(c1), npoly.polyint(c1))
    _same_bytes(_pder(c1), npoly.polyder(c1))
    assert c1.tobytes() == c1_before and c2.tobytes() == c2_before
