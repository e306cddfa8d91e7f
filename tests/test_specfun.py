"""Special functions: gamma machinery, hypergeometric series, Legendre bounds.

The bracket suites mirror the inequalities the certificate rests on; they
run the greenbound.verify checks at full sample size and permit zero
violations.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from greenbound import specfun, verify
from greenbound.errors import NonConvergenceError
from greenbound.specfun import (
    C_sigma,
    hyp2f1,
    legendre_P_neg1,
    legendre_P_negm,
    log_gamma_complex,
    p_sigma,
)


def test_log_gamma_matches_real_lgamma():
    for x in (0.1, 0.5, 1.0, 2.5, 7.0, 20.0, 120.5):
        value = log_gamma_complex(complex(x, 0.0))
        assert math.isclose(value.real, math.lgamma(x), rel_tol=1e-13), x
        assert abs(value.imag) < 1e-13


def test_log_gamma_conjugate_symmetry():
    rng = random.Random(52001)
    for _ in range(100):
        z = complex(rng.uniform(0.1, 6.0), rng.uniform(-40.0, 40.0))
        a = log_gamma_complex(z)
        b = log_gamma_complex(z.conjugate())
        assert cmath.isclose(a, b.conjugate(), rel_tol=1e-12), z


def test_log_gamma_recurrence():
    rng = random.Random(52002)
    for _ in range(100):
        z = complex(rng.uniform(0.2, 5.0), rng.uniform(-20.0, 20.0))
        lhs = log_gamma_complex(z + 1.0)
        rhs = log_gamma_complex(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-11, z


def test_hyp2f1_log_series():
    # 2F1(1, 1; 2; z) = -log(1 - z)/z
    for z in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
        value = hyp2f1(1.0, 1.0, 2.0, z)
        assert cmath.isclose(value, -math.log(1.0 - z) / z, rel_tol=1e-13), z


def test_hyp2f1_binomial_series():
    # 2F1(a, b; b; z) = (1 - z)^-a independently of b
    for a in (0.3, 1.7):
        for z in (-0.8, 0.4):
            value = hyp2f1(a, 2.25, 2.25, z)
            assert cmath.isclose(value, (1.0 - z) ** (-a), rel_tol=1e-13)


def test_legendre_P_neg1_domain():
    with pytest.raises(ValueError):
        legendre_P_neg1(0.7, 1.0)
    with pytest.raises(ValueError):
        legendre_P_neg1(0.7, 3.0)


def test_legendre_P_neg1_at_s_one():
    # At s = 1 the series is the constant 1, leaving sqrt((u-1)/(u+1))
    for u in (1.01, 1.5, 2.0, 2.9):
        value = legendre_P_neg1(1.0, u)
        assert cmath.isclose(value, math.sqrt((u - 1.0) / (u + 1.0)), rel_tol=1e-13)


def test_order_one_bracket_suite(full_check):
    """Two-sided bracket for the order-one function, 500 samples."""
    result = full_check(verify.order_one_bracket)
    assert result.passed, result.detail


def test_q_derivative_bracket_suite(full_check):
    """Q' is negative and dominated by the closed envelope, 500 samples."""
    result = full_check(verify.q_derivative_bracket)
    assert result.passed, result.detail


def test_legendre_P_negm_validation():
    with pytest.raises(ValueError):
        legendre_P_negm(1, 0.7, 2.0)  # odd order unsupported
    with pytest.raises(ValueError):
        legendre_P_negm(2, 0.7, 1.0)  # u must exceed 1
    with pytest.raises(ValueError):
        legendre_P_negm(2, 0.5 + 1e-5j, 2.0)  # removable singularity zone


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_legendre_P_negm_refuses_overflowing_u_at_once():
    """Past u ~ 1e154 the descending series' terms overflow; the entry is
    named at once instead of after a million series passes."""
    start = time.perf_counter()
    with pytest.raises(NonConvergenceError, match=r"u = 1e\+160"):
        legendre_P_negm(2, 0.3 + 1j, [3.0, 1e160])
    assert time.perf_counter() - start < 1.0


def _zone_edge(s):
    """u - 1 at the edge of legendre_P_negm's hypergeometric zone for s."""
    return min(10.0 / max(abs(s * (1.0 - s)), 1.0), 0.2)


def _strip_points():
    """s on both strip lines of each sign side, |Im s| <= 30."""
    for sigma in (0.306, 0.25):
        for re in (sigma, 1.0 - sigma):
            for t in (0.5, -2.0, 10.0, 30.0):
                yield complex(re, t)


def test_legendre_P_negm_array_matches_mpmath_and_scalar_calls():
    """The array path against mpmath legenp on both strip lines, within
    1e-12 relative for u - 1 in [1e-6, 1e6], with points on both sides of
    the edge of the hypergeometric zone; and entry by entry against scalar
    calls."""
    mpmath = pytest.importorskip("mpmath")
    for s in _strip_points():
        edge = _zone_edge(s)
        sides = 1.0 + np.array([0.9 * edge, 1.1 * edge])
        assert specfun._near_one(s, sides).tolist() == [True, False]
        u = np.sort(np.concatenate([1.0 + np.geomspace(1e-6, 1e6, 25), sides]))
        values = legendre_P_negm(2, s, u)
        for x, value in zip(u, values):
            with mpmath.workdps(30):
                oracle = complex(mpmath.legenp(s - 1.0, -2, x, type=3))
            assert abs(value - oracle) <= 1e-12 * abs(oracle), (s, x, value, oracle)
            scalar = legendre_P_negm(2, s, float(x))
            assert abs(value - scalar) <= 1e-15 * abs(scalar), (s, x)


def test_orders_zero_and_one_match_mpmath_near_one():
    """P^0_{s-1} (legendre_P_negm) and P^{-1}_{s-1} (legendre_P_neg1) within
    1e-12 relative of mpmath legenp near u = 1 on both strip lines: order 0
    for u - 1 in [1e-6, 1.9], across the edge of the hypergeometric zone,
    and order 1 inside that zone."""
    mpmath = pytest.importorskip("mpmath")
    for s in _strip_points():
        for m, u in ((0, 1.0 + np.geomspace(1e-6, 1.9, 12)), (1, 1.0 + np.geomspace(1e-6, _zone_edge(s), 6))):
            values = legendre_P_negm(0, s, u) if m == 0 else [legendre_P_neg1(s, float(x)) for x in u]
            for x, value in zip(u, values):
                with mpmath.workdps(30):
                    oracle = complex(mpmath.legenp(s - 1.0, -m, x, type=3))
                assert abs(value - oracle) <= 1e-12 * abs(oracle), (m, s, x, value, oracle)


def test_order_one_matches_mpmath_outside_its_zone():
    """Past (u - 1) max(|s(1-s)|, 1) = 10, where the hypergeometric form
    cancels (2e17 off at s = 0.306+30i, u = 2.9), legendre_P_neg1 sums the
    descending series, within 1e-12 relative of mpmath legenp up to u = 3."""
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    for s in [*_strip_points(), 0.306 + 100.0j]:
        edge = 10.0 / max(abs(s * (1.0 - s)), 1.0)
        for x in 1.0 + np.linspace(1.01 * edge, 1.999, 5) if edge < 1.98 else ():
            value = legendre_P_neg1(s, float(x))
            with mpmath.workdps(30):
                oracle = complex(mpmath.legenp(s - 1.0, -1, x, type=3))
            assert abs(value - oracle) <= 1e-12 * abs(oracle), (s, x, value, oracle)
            checked += 1
    assert checked >= 40


def test_hyp2f1_array_matches_scalar_calls():
    """On an array z each entry stops by the scalar rule, whichever entries
    it shares the array with, and agrees with a scalar call to 1e-15 (numpy
    and Python round complex products differently)."""
    z = np.array([[-0.1, -0.01], [0.0, 0.5]])
    values = hyp2f1(0.3 + 2.0j, 0.7 - 2.0j, 3.0, z)
    assert values.shape == z.shape
    for x, value in zip(z.ravel(), values.ravel()):
        scalar = hyp2f1(0.3 + 2.0j, 0.7 - 2.0j, 3.0, float(x))
        assert isinstance(scalar, complex)
        assert abs(value - scalar) <= 1e-15 * abs(scalar), x
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, np.array([0.5, -1.0]))


def test_legendre_P_negm_closed_form_at_s_one(full_check):
    result = full_check(verify.order_two_closed_form)
    assert result.passed, result.detail


def test_legendre_P_negm_order_zero_is_legendre_P():
    # m = 0 reduces to P_{s-1}; compare with the order-one route at s = 1
    for u in (1.2, 2.0, 5.0):
        value = legendre_P_negm(0, 1.0, u).real
        assert math.isclose(value, 1.0, rel_tol=1e-12), u


def test_regular_strip_bound_grid():
    """Envelope for the order-two function on vertical strips.

    Grid over sigma in {0.1, 0.25, 0.306, 0.45}, t log-spaced in [0.01, 50],
    u log-spaced in (1, 100]; zero violations permitted.
    """
    t_grid = [0.01 * (50.0 / 0.01) ** (k / 11.0) for k in range(12)]
    u_grid = [1.0 + 1e-2 * (99.0 / 1e-2) ** (k / 11.0) for k in range(12)]
    for sigma in (0.1, 0.25, 0.306, 0.45):
        for t in t_grid:
            s = complex(sigma, t)
            cap_factor = abs(s * (1.0 - s)) ** -1.25
            for u in u_grid:
                value = abs(legendre_P_negm(2, s, u))
                cap = cap_factor * p_sigma(sigma, u) / (u * u - 1.0)
                assert value <= cap, (sigma, t, u, value, cap)


def test_gamma_ratio_sandwich_suite(full_check):
    """Closed two-sided bounds vs the log-gamma oracle, 1000 samples; the
    simplified decay bound dominates the sharp one."""
    result = full_check(verify.gamma_ratio_sandwich)
    assert result.passed, result.detail


def test_C_sigma_reference_values():
    # pinned against independent evaluation of the closed formulas
    C, C_prime = C_sigma(0.306)
    assert math.isclose(C, 3.431554624209227, rel_tol=1e-12)
    assert math.isclose(C_prime, 3.047607684557647, rel_tol=1e-12)
    with pytest.raises(ValueError):
        C_sigma(0.0)
    with pytest.raises(ValueError):
        C_sigma(0.5)
    with pytest.raises(ValueError, match="overflows"):
        C_sigma(1e-5)  # its exp overflows below about 1.17e-4


def test_p_sigma_series_identity():
    # the coefficient sum collapses: sum |(-3/2)_n|/n! t^n = (1-t)^{3/2} + 3t
    rng = random.Random(52014)
    for _ in range(100):
        sigma = rng.uniform(0.05, 0.45)
        u = 1.0 + math.exp(rng.uniform(math.log(1e-2), math.log(99.0)))
        x = u + math.sqrt(u * u - 1.0)
        t = 1.0 / (x * x)
        C, C_prime = C_sigma(sigma)
        expected = (
            (C * x ** (2.0 - sigma) + C_prime * x ** (1.0 + sigma))
            / (4.0 * math.sqrt(math.pi))
            * ((1.0 - t) ** 1.5 + 3.0 * t)
        )
        assert math.isclose(p_sigma(sigma, u), expected, rel_tol=1e-13), (sigma, u)


def test_p_sigma_at_u_equal_one():
    # x = 1 collapses the envelope to 3 (C + C') / (4 sqrt(pi))
    for sigma in (0.1, 0.306):
        C, C_prime = C_sigma(sigma)
        expected = 3.0 * (C + C_prime) / (4.0 * math.sqrt(math.pi))
        assert math.isclose(p_sigma(sigma, 1.0), expected, rel_tol=1e-13)
