"""Trapezoid kernels, their transforms, and the averaged-transform machinery."""

import math
import random

import numpy as np
import pytest
from test_bounds import draw_valid_params

from greenbound import transforms, verify
from greenbound._quad import integrate, integrate_to_infinity
from greenbound.bounds import compute_D, enclose_D, reference_params
from greenbound.errors import ConstraintViolation, NonConvergenceError
from greenbound.specfun import legendre_P_neg1, legendre_P_negm, p_sigma
from greenbound.transforms import (
    I_delta_pm,
    TrapezoidParams,
    averaged_transform_tail,
    corner,
    h_U_pm,
    h_U_pm_at_one,
    h_a,
    resolvent_difference,
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
    assert corner(p, +1, 1.0) == 1.0
    with pytest.raises(ValueError, match="U >= delta"):
        corner(p, -1, 1.0)
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="sign must be"):
            corner(p, sign, 3.0)
    # at the extremal beta_minus the inner corner lands exactly on 1 at U = delta
    delta, alpha = 2.0, 0.25
    extremal = TrapezoidParams(
        delta=delta,
        alpha_plus=0.1,
        alpha_minus=alpha,
        beta_plus=1.0,
        beta_minus=delta ** (1.0 + alpha) / (delta + 1.0),
    )
    assert math.isclose(corner(extremal, -1, delta), 1.0, rel_tol=1e-14)


def test_V_example_value():
    p = TrapezoidParams(delta=2.0, alpha_plus=0.0366, alpha_minus=0.1, beta_plus=2.72, beta_minus=0.1)
    expected = 2.0 + 2.72 * 2.0 ** (-1.0366) * 3.0
    assert math.isclose(corner(p, +1, 2.0), expected, rel_tol=1e-13)
    assert math.isclose(expected, 5.977, rel_tol=1e-3)


def test_shape_order_T_below_U_below_V():
    p = reference_trapezoid()
    for U in (2.0, 5.0, 50.0):
        assert corner(p, -1, U) < U < corner(p, +1, U)


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
                assert corner(p, -1, U) >= 1.0, (delta, alpha, U)
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
            assert corner(p, -1, delta) >= 1.0, (delta, alpha)
            assert corner(p, -1, np.array([delta, 2.0 * delta])).min() >= 1.0, (delta, alpha)


def test_u_range_errors_name_the_minimum():
    """An array argument out of range gives a one-line error naming its
    minimum, not the array."""
    p = reference_trapezoid()
    bad = np.concatenate([np.geomspace(2.0, 1e30, 5000), [0.75]])
    for call in (
        lambda: p_sigma(0.3, bad),
        lambda: corner(p, +1, bad),
        lambda: corner(p, -1, bad),
        lambda: h_U_pm(p, +1, 0.3 + 1.0j, bad),
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
    for sign in (+1, -1):
        for U in (3.0, np.geomspace(2.0, 64.0, 9)):
            calls.clear()
            value = h_U_pm(p, sign, s, U)
            assert calls == [2 * np.size(U)], (sign, calls)
            W = corner(p, sign, U)
            two_calls = 2.0 * math.pi * (
                (W * W - 1.0) * legendre_P_negm(2, s, W) - (U * U - 1.0) * legendre_P_negm(2, s, U)
            ) / (W - U)
            assert np.array_equal(value, two_calls), sign


def test_transform_at_one_is_trapezoid_area():
    """Transform at the endpoint equals 2 pi times the area of the trapezoid
    kernel g_U^+- (1 up to its inner corner, linear down to 0 at its outer)."""
    p = reference_trapezoid()
    for U in (2.0, 3.0, 7.0):
        V = corner(p, +1, U)
        for sign in (+1, -1):
            inner, outer = (U, V) if sign > 0 else (corner(p, -1, U), U)

            def kernel(u):
                return np.where(u <= inner, 1.0, np.clip((outer - u) / (outer - inner), 0.0, 1.0))

            area = integrate(kernel, 1.0, V + 1.0, abs_tol=1e-12)
            closed = h_U_pm_at_one(p, sign, U)
            assert abs(2.0 * math.pi * area - closed) <= 1e-10 * abs(closed), (sign, U)


def test_transform_series_matches_closed_form_at_one(full_check):
    result = full_check(verify.trapezoid_ends)
    assert result.passed, result.detail


def test_closed_transform_displays():
    p = reference_trapezoid()
    for U in (2.0, 5.0):
        V = corner(p, +1, U)
        T = corner(p, -1, U)
        plus = 2.0 * math.pi * (U - 1.0) + math.pi * (V - U)
        minus = 2.0 * math.pi * (U - 1.0) - math.pi * (U - T)
        assert math.isclose(h_U_pm_at_one(p, +1, U), plus, rel_tol=1e-14)
        assert math.isclose(h_U_pm_at_one(p, -1, U), minus, rel_tol=1e-14)


def sharp_cutoff_transform(s, U):
    """h_U(s) = 2 pi sqrt(U^2 - 1) P^{-1}_{s-1}(U), the transform of the indicator of [1, U]."""
    return 2.0 * math.pi * math.sqrt(U * U - 1.0) * legendre_P_neg1(s, U)


def test_h_U_at_s_one():
    for U in (1.1, 2.0, 2.9):
        assert abs(sharp_cutoff_transform(1.0, U) - 2.0 * math.pi * (U - 1.0)) <= 1e-12 * U


def test_h_U_bracket_suite():
    """Two-sided bracket (4 pi - 8)(U - 1) <= h_U(s) <= 8 (U - 1), 300 samples: order_one_bracket's
    inequality times 2 pi sqrt(U^2 - 1), on the strip window it draws from."""
    rng = random.Random(60001)
    for _ in range(300):
        U, s = verify._strip_point(rng, 0.01, 1.99)
        value = sharp_cutoff_transform(s, U).real
        assert (4.0 * math.pi - 8.0) * (U - 1.0) <= value <= 8.0 * (U - 1.0), (U, s, value)


def test_resolvent_multiplier():
    assert h_a(2.0, 1.0) == 0.5
    with pytest.raises(ValueError):
        h_a(2.0, 2.0)  # pole at s = a
    with pytest.raises(ValueError):
        resolvent_difference(2.0, 3.0, 2.0)  # pole at s = a


def test_tail_majorant_requires_sigma_above_alpha():
    p = reference_trapezoid()
    with pytest.raises(NonConvergenceError, match="sigma > alpha"):
        averaged_transform_tail(p.delta, +1, p.alpha_plus, *p.side(+1), 100.0)


def test_tail_majorant_decays():
    p = reference_trapezoid()
    values = [averaged_transform_tail(p.delta, +1, 0.306, *p.side(+1), M) for M in (10.0, 100.0, 1000.0)]
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
        lambda U: (corner(p, +1, U) - U) / (U * U - 1.0), p.delta, plus_tail, rel_tol=1e-9
    )
    closed = p.beta_plus / (p.alpha_plus * p.delta**p.alpha_plus)
    assert abs(value + bound - closed) <= 1e-6 * closed

    def minus_tail(M):
        return p.beta_minus * M**-p.alpha_minus / p.alpha_minus

    value, bound = integrate_to_infinity(
        lambda U: (U - corner(p, -1, U)) / (U * U - 1.0), p.delta, minus_tail, rel_tol=1e-9
    )
    closed = p.beta_minus / (p.alpha_minus * p.delta**p.alpha_minus)
    assert abs(value + bound - closed) <= 1e-6 * closed


def test_averaged_transform_strip_bound():
    """|I(s)| stays below the majorant integral times |s(1-s)|^{-5/4}.

    The strip link |I(s)| |s(1-s)|^{5/4} <= D is also asserted at the four 30-digit pins of
    I_DELTA_MPMATH, which sit on Re s = sigma and include both sides' sampled maxima of that
    ratio (1.2239 plus, 0.5287 minus), against the lower ends of enclose_D: no estimate of I
    enters that part.
    """
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
    floors = dict(zip((+1, -1), (lo for lo, _ in enclose_D(params))))
    for (sign, s), exact in I_DELTA_MPMATH.items():
        assert s.real == params.side(sign)[0], (sign, s)
        ratio = abs(exact) * abs(s * (1.0 - s)) ** 1.25
        assert ratio <= floors[sign], (sign, s, ratio, floors[sign])


# I_delta_pm by mpmath quadrature at 30 digits: legenp(s - 1, -2, u, type=3)
# in the difference quotient, Gauss-Legendre on pieces of each octave at most
# half an oscillation long, and the tail past the last octave extrapolated at
# the ratio 2^-s of the leading U^(-1-s) term, where it is below 1e-11
# relative.  At the reference parameters: the two fixed spectral-strip jobs
# and the strip-ratio maxima of the plus and minus sides.
I_DELTA_MPMATH = {
    (+1, 0.306 + 30.0j): complex(-1.11279428807459802571e-5, -1.429501288922305204918e-6),
    (-1, 0.25 + 2.0j): complex(0.02948807406748320461573, -0.02694455425336456469514),
    (+1, 0.306 + 0.30j): complex(4.425503681022473145659, -2.342094426609341337199),
    (-1, 0.25 + 0.85j): complex(0.4473036082050803503224, -0.2765202610454235964797),
}
# The same quadrature for I_delta_pm(+1, 0.3+1j) on the third draw_valid_params
# set of seed 80300 (delta = 1.579, alpha_plus = 0.143, beta_plus = 0.923).
SEED_80300_MPMATH = complex(0.5281345430835397850555, -0.3238655726354031525217)


def test_averaged_transform_matches_mpmath():
    p = reference_trapezoid()
    for (sign, s), exact in I_DELTA_MPMATH.items():
        value = I_delta_pm(p, sign, s)
        assert abs(value - exact) <= 1e-6 * abs(exact), (sign, s, value)


def test_averaged_transform_returns_where_the_quotient_is_noise(monkeypatch):
    """At alpha_plus = 0.143 h_U_pm loses 9 digits by U = 2^200 and 13 by
    2^300, so octaves far out cannot be solved to 1e-8 of their own size.
    The march must still return, with few integrand abscissas."""
    rng = random.Random(80300)
    p = [draw_valid_params(rng) for _ in range(3)][2].trapezoid
    points = []

    def counted(params, sign, s, U):
        points.append(U.size)
        assert sum(points) <= 10_000, "the march refines rounding noise"
        return h_U_pm(params, sign, s, U)

    monkeypatch.setattr(transforms, "h_U_pm", counted)
    value = I_delta_pm(p, +1, 0.3 + 1.0j)
    assert abs(value - SEED_80300_MPMATH) <= 1e-6 * abs(SEED_80300_MPMATH)
