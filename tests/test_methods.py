"""Perturbation schemes and their coefficient-level agreement with the series."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from lvdiag import (
    InitialValueProblem,
    MethodKind,
    ModelParams,
    PopulationState,
    adomian_components,
    adomian_series,
    hpm_series,
    hpm_terms,
    method_series,
    methods_agree,
    preset,
    taylor_coefficients,
    vim_iterates,
)

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
        adm = adomian_series(ivp, 10)
        tay = taylor_coefficients(ivp, 10)
        np.testing.assert_allclose(adm.x_coeffs, tay.x_coeffs, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(adm.y_coeffs, tay.y_coeffs, rtol=1e-12, atol=1e-12)


def test_hpm_terms_start_at_the_initial_state_and_vanish_at_zero():
    terms = hpm_terms(IVP_V, 5)
    x0_term, y0_term = terms[0]
    assert x0_term.tolist() == [3.0]
    assert y0_term.tolist() == [2.0]
    for x_n, y_n in terms[1:]:
        assert x_n[0] == 0.0 and y_n[0] == 0.0


def test_hpm_cascade_solves_the_order_by_order_equations():
    p = CASE_V.params
    terms = hpm_terms(IVP_V, 6)
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
    hpm = hpm_series(IVP_I, 12)
    tay = taylor_coefficients(IVP_I, 12)
    np.testing.assert_allclose(hpm.x_coeffs, tay.x_coeffs, rtol=1e-12)
    np.testing.assert_allclose(hpm.y_coeffs, tay.y_coeffs, rtol=1e-12)


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
    iterates = vim_iterates(IVP_V, 40)
    for k, (xk, yk) in enumerate(iterates):
        cap = min(2 * k, 64)
        assert xk.size <= cap + 1
        assert yk.size <= cap + 1
    assert iterates[-1][0].size == 65


def test_all_methods_start_exactly_at_the_initial_state():
    for method in MethodKind:
        sol = method_series(IVP_I, method, 6)
        assert sol.x_coeffs[0] == 14.0
        assert sol.y_coeffs[0] == 18.0


def test_methods_agree_within_round_off():
    report_v = methods_agree(IVP_V, 10)
    assert report_v.order == 10
    assert report_v.worst() <= 1e-12
    report_i = methods_agree(IVP_I, 10)
    assert report_i.worst() <= 1e-12
    assert report_i.worst() == max(report_i.adomian, report_i.hpm, report_i.vim)
    decoupled = preset("decoupled")
    report_d = methods_agree(InitialValueProblem(decoupled.params, decoupled.initial, 1.0), 10)
    assert report_d.worst() <= 1e-14


def test_methods_agree_validates_order():
    with pytest.raises(ValueError):
        methods_agree(IVP_V, -3)


def test_method_series_rejects_unknown_method():
    with pytest.raises(ValueError):
        method_series(IVP_V, "taylor", 4)
