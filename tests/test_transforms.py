"""Trapezoid kernels, their transforms, and the averaged-transform machinery."""

import math

import numpy as np
import pytest

from greenbound import transforms, verify
from greenbound._quad import integrate, integrate_to_infinity
from greenbound.bounds import compute_D, reference_params
from greenbound.errors import ConstraintViolation, NonConvergenceError
from greenbound.specfun import legendre_P_negm, p_sigma
from greenbound.transforms import (
    I_delta_pm,
    T_of_U,
    TrapezoidParams,
    V_of_U,
    averaged_transform_tail,
    c_a_coefficient,
    g_U_pm,
    h_U,
    h_U_pm,
    h_U_pm_at_one,
    h_a,
)


def reference_trapezoid():
    return reference_params().trapezoid


def test_trapezoid_params_validation_order():
    with pytest.raises(ConstraintViolation, match="delta"):
        TrapezoidParams(delta=1.0, alpha_plus=0.1, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    with pytest.raises(ConstraintViolation, match="alpha_plus"):
        TrapezoidParams(delta=2.0, alpha_plus=0.0, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    with pytest.raises(ConstraintViolation, match="beta_minus"):
        # cap is delta^(1+alpha)/(delta+1) = 2^1.1/3 = 0.714...
        TrapezoidParams(delta=2.0, alpha_plus=0.1, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.72)


def test_shape_functions_edge_values():
    p = reference_trapezoid()
    assert V_of_U(p, 1.0) == 1.0
    with pytest.raises(ValueError, match="U >= delta"):
        T_of_U(p, 1.0)
    # at the extremal beta_minus the inner corner lands exactly on 1 at U = delta
    delta, alpha = 2.0, 0.25
    extremal = TrapezoidParams(
        delta=delta,
        alpha_plus=0.1,
        alpha_minus=alpha,
        beta_plus=1.0,
        beta_minus=delta ** (1.0 + alpha) / (delta + 1.0),
    )
    assert math.isclose(T_of_U(extremal, delta), 1.0, rel_tol=1e-14)


def test_V_example_value():
    p = TrapezoidParams(delta=2.0, alpha_plus=0.0366, alpha_minus=0.1, beta_plus=2.72, beta_minus=0.1)
    expected = 2.0 + 2.72 * 2.0 ** (-1.0366) * 3.0
    assert math.isclose(V_of_U(p, 2.0), expected, rel_tol=1e-13)
    assert math.isclose(expected, 5.977, rel_tol=1e-3)


def test_shape_order_T_below_U_below_V():
    p = reference_trapezoid()
    for U in (2.0, 5.0, 50.0):
        assert T_of_U(p, U) < U < V_of_U(p, U)


def test_T_stays_at_least_one_at_extremal_beta():
    # at the largest admissible beta_minus the inner edge touches but never
    # crosses 1
    for delta in (1.2, 2.0, 4.0):
        for alpha in (1e-3, 0.05, 0.3):
            beta_cap = delta ** (1.0 + alpha) / (delta + 1.0)
            p = TrapezoidParams(
                delta=delta,
                alpha_plus=0.1,
                alpha_minus=alpha,
                beta_plus=1.0,
                beta_minus=beta_cap,
            )
            for k in range(60):
                U = delta * (1.0 + 0.35 * k)
                assert T_of_U(p, U) >= 1.0, (delta, alpha, U)
    # on 33 of these 200 caps the unclamped T(delta) rounds below 1
    for delta in np.linspace(1.1, 4.0, 20).tolist():
        for alpha in np.linspace(0.01, 0.45, 10).tolist():
            p = TrapezoidParams(
                delta=delta,
                alpha_plus=0.1,
                alpha_minus=alpha,
                beta_plus=1.0,
                beta_minus=delta ** (1.0 + alpha) / (delta + 1.0),
            )
            assert T_of_U(p, delta) >= 1.0, (delta, alpha)
            assert T_of_U(p, np.array([delta, 2.0 * delta])).min() >= 1.0, (delta, alpha)


def test_u_range_errors_name_the_minimum():
    """An array argument out of range gives a one-line error naming its
    minimum, not the array."""
    p = reference_trapezoid()
    bad = np.concatenate([np.geomspace(2.0, 1e30, 5000), [0.75]])
    for call in (
        lambda: p_sigma(0.3, bad),
        lambda: V_of_U(p, bad),
        lambda: T_of_U(p, bad),
        lambda: h_U_pm(p, +1, 0.3 + 1.0j, bad),
        lambda: g_U_pm(p, +1, bad, 3.0),
        lambda: legendre_P_negm(2, 0.3 + 1.0j, bad),
    ):
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        assert "\n" not in message and len(message) < 120, message
        assert message.endswith("= 0.75"), message



def test_h_U_pm_makes_one_legendre_call(monkeypatch):
    """U and its corners go to legendre_P_negm together, for either sign and
    for scalar or array U, and the result is the two-call difference quotient."""
    p = reference_trapezoid()
    calls = []

    def counted(m, s, u):
        calls.append(np.size(u))
        return legendre_P_negm(m, s, u)

    monkeypatch.setattr(transforms, "legendre_P_negm", counted)
    s = 0.306 + 2.0j
    for sign, corner in ((+1, V_of_U), (-1, T_of_U)):
        for U in (3.0, np.geomspace(2.0, 64.0, 9)):
            calls.clear()
            value = h_U_pm(p, sign, s, U)
            assert calls == [2 * np.size(U)], (sign, calls)
            W = corner(p, U)
            two_calls = 2.0 * math.pi * (
                (W * W - 1.0) * legendre_P_negm(2, s, W) - (U * U - 1.0) * legendre_P_negm(2, s, U)
            ) / (W - U)
            assert np.array_equal(value, two_calls), sign

def test_trapezoid_kernels_piecewise_shape():
    p = reference_trapezoid()
    U = 3.0
    V = V_of_U(p, U)
    T = T_of_U(p, U)
    # plus kernel: 1 on [1, U], linear decay to 0 at V
    assert g_U_pm(p, +1, 1.0, U) == 1.0
    assert g_U_pm(p, +1, U, U) == 1.0
    assert math.isclose(g_U_pm(p, +1, 0.5 * (U + V), U), 0.5, rel_tol=1e-12)
    assert g_U_pm(p, +1, V, U) == 0.0
    assert g_U_pm(p, +1, V + 1.0, U) == 0.0
    # minus kernel: 1 on [1, T], linear decay to 0 at U
    assert g_U_pm(p, -1, 1.0, U) == 1.0
    assert math.isclose(g_U_pm(p, -1, 0.5 * (T + U), U), 0.5, rel_tol=1e-12)
    assert g_U_pm(p, -1, U, U) == 0.0


def test_transform_at_one_is_trapezoid_area():
    """Transform at the endpoint equals 2 pi times the kernel's area."""
    p = reference_trapezoid()
    for U in (2.0, 3.0, 7.0):
        V = V_of_U(p, U)
        for sign in (+1, -1):
            area = integrate(lambda u: g_U_pm(p, sign, u, U), 1.0, V + 1.0, abs_tol=1e-12)
            closed = h_U_pm_at_one(p, sign, U)
            assert abs(2.0 * math.pi * area - closed) <= 1e-10 * abs(closed), (sign, U)


def test_transform_series_matches_closed_form_at_one(full_check):
    result = full_check(verify.trapezoid_ends)
    assert result.passed, result.detail


def test_closed_transform_displays():
    p = reference_trapezoid()
    for U in (2.0, 5.0):
        V = V_of_U(p, U)
        T = T_of_U(p, U)
        plus = 2.0 * math.pi * (U - 1.0) + math.pi * (V - U)
        minus = 2.0 * math.pi * (U - 1.0) - math.pi * (U - T)
        assert math.isclose(h_U_pm_at_one(p, +1, U), plus, rel_tol=1e-14)
        assert math.isclose(h_U_pm_at_one(p, -1, U), minus, rel_tol=1e-14)


def test_h_U_at_s_one():
    for U in (1.1, 2.0, 2.9):
        assert abs(h_U(1.0, U) - 2.0 * math.pi * (U - 1.0)) <= 1e-12 * U


def test_h_U_real_on_critical_line():
    # the hypergeometric series sheds precision as |Im s| grows, so the
    # imaginary residue is held to a scale that widens with t
    for t, tol in ((0.5, 1e-14), (3.0, 1e-13), (12.0, 1e-8)):
        value = h_U(complex(0.5, t), 2.0)
        assert abs(value.imag) <= tol * max(abs(value.real), 1e-30)


def test_h_U_bracket_suite(full_check):
    """Two-sided bracket (4 pi - 8)(U - 1) <= h_U(s) <= 8 (U - 1), 300 samples."""
    result = full_check(verify.transform_bracket)
    assert result.passed, result.detail


def test_resolvent_multiplier():
    assert h_a(2.0, 1.0) == 0.5
    with pytest.raises(ValueError):
        h_a(2.0, 2.0)  # pole at s = a


def test_resolvent_difference_variants(full_check):
    """The factored form reproduces direct subtraction; the displayed form
    deviates on generic inputs and is kept verbatim for comparison.  The
    check also asserts the exact symmetry h_a(s) = h_a(1 - s)."""
    result = full_check(verify.resolvent_identities)
    assert result.passed, result.detail


def test_c_a_coefficient():
    vol = math.pi / 6.0
    assert math.isclose(c_a_coefficient(2.0, vol), 1.0 / (vol * 2.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        c_a_coefficient(1.0, vol)


def test_tail_majorant_requires_sigma_above_alpha():
    p = reference_trapezoid()
    with pytest.raises(NonConvergenceError, match="sigma > alpha"):
        averaged_transform_tail(p, +1, p.alpha_plus, 100.0)


def test_tail_majorant_decays():
    p = reference_trapezoid()
    values = [averaged_transform_tail(p, +1, 0.306, M) for M in (10.0, 100.0, 1000.0)]
    assert values[0] > values[1] > values[2] > 0.0


def test_closed_power_law_tails():
    """(V - U)/(U^2 - 1) is exactly beta_plus U^{-1-alpha_plus}, so its tail
    integral from delta is beta_plus / (alpha_plus delta^alpha_plus); same on
    the minus side.  Larger exponents than the reference seed keep the
    doubling march short."""
    p = TrapezoidParams(delta=2.0, alpha_plus=0.45, alpha_minus=0.4, beta_plus=1.3, beta_minus=0.6)

    def plus_tail(M):
        return p.beta_plus * M**-p.alpha_plus / p.alpha_plus

    value, bound = integrate_to_infinity(
        lambda U: (V_of_U(p, U) - U) / (U * U - 1.0), p.delta, plus_tail, rel_tol=1e-9
    )
    closed = p.beta_plus / (p.alpha_plus * p.delta**p.alpha_plus)
    assert abs(value + bound - closed) <= 1e-6 * closed

    def minus_tail(M):
        return p.beta_minus * M**-p.alpha_minus / p.alpha_minus

    value, bound = integrate_to_infinity(
        lambda U: (U - T_of_U(p, U)) / (U * U - 1.0), p.delta, minus_tail, rel_tol=1e-9
    )
    closed = p.beta_minus / (p.alpha_minus * p.delta**p.alpha_minus)
    assert abs(value + bound - closed) <= 1e-6 * closed


def test_averaged_transform_strip_bound():
    """|I(s)| stays below the majorant integral times |s(1-s)|^{-5/4}."""
    params = reference_params()
    p = params.trapezoid
    D_plus, D_minus = compute_D(params)
    for sign, sigma, cap in ((+1, params.sigma_plus, D_plus), (-1, params.sigma_minus, D_minus)):
        for sigma_prime in (sigma, 1.0 - sigma):
            for t in (2.0, 30.0):
                s = complex(sigma_prime, t)
                value = abs(I_delta_pm(p, sign, s))
                envelope = cap * abs(s * (1.0 - s)) ** -1.25
                assert value <= envelope, (sign, sigma_prime, t, value, envelope)
