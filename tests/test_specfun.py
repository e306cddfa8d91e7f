"""Special functions: gamma machinery, hypergeometric series, Legendre bounds.

The bracket inequalities that the certificate rests on are greenbound.verify
checks; tests/test_verify.py asserts each at full sample size, and
verify.PROPERTY_CHECKS names the certificate step each supports.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from greenbound import specfun
from greenbound.bounds import reference_params
from greenbound.errors import NonConvergenceError
from greenbound.specfun import (
    C_sigma,
    hyp2f1,
    legendre_P_neg1,
    legendre_P_negm,
    legendre_Q_deriv,
    log_gamma_complex,
    p_sigma,
)
from greenbound.transforms import h_U_pm


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


def test_legendre_P_neg1_near_the_domain_end_matches_mpmath_and_returns_fast():
    """Near u = 3 the hypergeometric zone sums Pfaff's form, whose argument (u-1)/(u+1) stays below
    1/2, not the form in (1-u)/2, whose argument tends to -1 and whose terms barely decay there."""
    mpmath = pytest.importorskip("mpmath")
    for u in (2.9999, 2.99999, 2.9999999):
        start = time.perf_counter()
        value = legendre_P_neg1(0.7, u)
        assert time.perf_counter() - start < 5e-3, u
        with mpmath.workdps(30):
            oracle = complex(mpmath.legenp(0.7 - 1.0, -1, u, type=3))
        assert cmath.isclose(value, oracle, rel_tol=1e-12), u


def test_legendre_P_neg1_real_on_critical_line():
    # real wherever s(1 - s) is; the hypergeometric series sheds precision as
    # |Im s| grows, so the imaginary residue is held to a scale that widens with t
    for t, tol in ((0.5, 1e-14), (3.0, 1e-13), (12.0, 1e-8)):
        value = legendre_P_neg1(complex(0.5, t), 2.0)
        assert abs(value.imag) <= tol * max(abs(value.real), 1e-30)


def test_legendre_P_negm_validation():
    for m in (-1, 3, 1.5, 2.0, True, np.bool_(True)):  # the order is 0, 1 or 2, an int or a numpy integer
        with pytest.raises(ValueError, match="order"):
            legendre_P_negm(m, 0.7, 2.0)
    # an s with a NaN or infinite part is named before any series runs, in the callers too
    for s in (complex(math.nan, 1.0), complex(0.3, math.inf), complex(math.inf, 0.0), complex(0.3, math.nan)):
        for call in (lambda: legendre_P_negm(2, s, [1.1, 5.0]), lambda: legendre_P_neg1(s, 1.1),
                     lambda: h_U_pm(reference_params().trapezoid, +1, s, 2.0)):
            with pytest.raises(ValueError, match="finite s"):
                call()
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
    """The array path against mpmath legenp for the orders m = 0, 1, 2 on both
    strip lines, within 1e-12 relative for u - 1 in [1e-6, 1e6], with points
    on both sides of the edge of the hypergeometric zone, and at u = 1.202
    and 1.22, just past the edge at s = 1/4 + i/2, where the descending
    series takes over and errs most (2e-13 at m = 2); and entry by entry
    against scalar calls, with m an int or a numpy integer."""
    mpmath = pytest.importorskip("mpmath")
    for s in _strip_points():
        edge = _zone_edge(s)
        sides = 1.0 + np.array([0.9 * edge, 1.1 * edge])
        assert specfun._near_one(s, sides).tolist() == [True, False]
        u = np.sort(np.concatenate([1.0 + np.geomspace(1e-6, 1e6, 25), sides, [1.202, 1.22]]))
        for m in range(3):
            values = legendre_P_negm(m, s, u)
            for x, value in zip(u, values):
                with mpmath.workdps(30):
                    oracle = complex(mpmath.legenp(s - 1.0, -m, x, type=3))
                assert abs(value - oracle) <= 1e-12 * abs(oracle), (m, s, x, value, oracle)
                scalar = legendre_P_negm(np.int64(m), s, float(x))
                assert abs(value - scalar) <= 1e-15 * abs(scalar), (m, s, x)


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
    and Python round complex products differently); complex parameters give
    a complex and a complex array, real ones a float and a float64 array."""
    z = np.array([[-0.1, -0.01], [0.0, 0.5]])
    for params, kind in (((0.3 + 2.0j, 0.7 - 2.0j, 3.0), complex), ((-0.5, 3.3, 4.8), float)):
        values = hyp2f1(*params, z)
        assert values.shape == z.shape
        assert values.dtype == np.dtype(kind)
        for x, value in zip(z.ravel(), values.ravel()):
            scalar = hyp2f1(*params, float(x))
            assert type(scalar) is kind
            assert abs(value - scalar) <= 1e-15 * abs(scalar), (params, x)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, np.array([0.5, -1.0]))


def test_hyp2f1_real_parameters_sum_in_floats_near_one():
    """Real a, b, c and z give a float (a float64 array on an array z), within 1e-14 of 40-digit
    mpmath at legendre_Q_deriv's parameters (-1/2, nu; nu+3/2) and its argument 1/x^2 nearest 1
    in the Q' check, x = u + sqrt(u^2 - 1) at u - 1 = 1e-3."""
    mpmath = pytest.importorskip("mpmath")
    u = 1.001
    x = u + math.sqrt((u - 1.0) * (u + 1.0))
    z = 1.0 / (x * x)
    for nu in (0.0, 0.5, 1.0, 3.3, 7.0, 10.0):
        params = (-0.5, nu, nu + 1.5)
        value = hyp2f1(*params, z)
        values = hyp2f1(*params, np.array([z, 0.5]))
        assert type(value) is float and values.dtype == np.float64
        assert values[0] == value
        with mpmath.workdps(40):
            oracle = mpmath.hyp2f1(*params, z)
        assert abs(value - oracle) <= 1e-14 * oracle, nu


def test_legendre_Q_deriv_matches_mpmath():
    """Q_nu'(u) within 1e-14 relative of the derivative of mpmath's legenq at 40 digits, on
    nu in {0, 0.5, 1, 3.3, 7, 10} x u - 1 in {1e-3, 1e-2, 0.1, 1, 10, 99}."""
    mpmath = pytest.importorskip("mpmath")
    for nu in (0.0, 0.5, 1.0, 3.3, 7.0, 10.0):
        for gap in (1e-3, 1e-2, 0.1, 1.0, 10.0, 99.0):
            u = 1.0 + gap
            with mpmath.workdps(40):
                oracle = mpmath.diff(lambda x: mpmath.legenq(nu, 0, x, type=3), mpmath.mpf(u)).real
            value = legendre_Q_deriv(nu, u)
            assert abs(value - oracle) <= 1e-14 * abs(oracle), (nu, u, value, oracle)


def test_legendre_Q_deriv_large_nu():
    """Past nu ~ 512, where (4/x)^nu overflows a double near u = 1, and past nu ~ 540, where
    Gamma(1+nu) Gamma(2+nu) / Gamma(2+2nu) underflows one, the value stays finite and within nu * 1e-14
    relative of an independent 40-digit form: Q_nu(cosh t) = sqrt(pi) Gamma(nu+1) / Gamma(nu+3/2)
    e^{-(nu+1) t} F(1/2, nu+1; nu+3/2; e^{-2t}), differentiated in t.  Bad input raises ValueError."""
    mpmath = pytest.importorskip("mpmath")
    for nu, u in ((600.0, 1.01), (1000.0, 1.001), (5000.0, 1.0001)):
        with mpmath.workdps(40):
            n, v = mpmath.mpf(nu), mpmath.mpf(u)
            w = (v - mpmath.sqrt(v * v - 1)) ** 2
            series = mpmath.hyp2f1(0.5, n + 1, n + 1.5, w) + w / (n + 1.5) * mpmath.hyp2f1(1.5, n + 2, n + 2.5, w)
            scale = mpmath.sqrt(mpmath.pi) * mpmath.gamma(n + 2) / mpmath.gamma(n + 1.5)
            oracle = -scale * w ** ((n + 1) / 2) / mpmath.sqrt(v * v - 1) * series
        value = legendre_Q_deriv(nu, u)
        assert math.isfinite(value) and abs(value - oracle) <= 1e-14 * nu * abs(oracle), (nu, u, value, oracle)
    for nu, u in ((math.inf, 1.5), (math.nan, 1.5), (-0.5, 1.5), (1.0, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            legendre_Q_deriv(nu, u)


def test_legendre_P_negm_order_zero_is_legendre_P():
    # m = 0 reduces to P_{s-1}; compare with the order-one route at s = 1
    for u in (1.2, 2.0, 5.0):
        value = legendre_P_negm(0, 1.0, u).real
        assert math.isclose(value, 1.0, rel_tol=1e-12), u


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


def test_C_sigma_factors_are_the_gamma_ratio_constant():
    """C_sigma's two exponential factors are the upper Gamma-ratio constant exp(b - a + (1/12)(1/a - 1/b))
    at (a, b) = (sigma, sigma + 1/2) and (1 - sigma, 3/2 - sigma), which gamma_ratio_upper computes,
    times (a^2 + y^2)^{-(b - a)/2}: so its value times (a^2 + y^2)^{1/4}, at any y, is the factor."""
    for sigma in (0.1, 0.306, 0.45):
        common = max(1.0, math.tan(math.pi * sigma)) * (1.0 / sigma - 1.0) ** 0.25
        for factor, (a, b) in zip(C_sigma(sigma), ((sigma, sigma + 0.5), (1.0 - sigma, 1.5 - sigma))):
            for y in (0.0, 1.0, 30.0):
                constant = specfun.gamma_ratio_upper(a, b, y) * (a * a + y * y) ** 0.25
                assert math.isclose(factor / common, constant, rel_tol=1e-15), (sigma, a, y)


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
