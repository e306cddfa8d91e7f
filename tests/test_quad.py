"""Adaptive Simpson engine: finite, relative, batched, and marching improper integrals."""

import math

import numpy as np
import pytest

from greenbound import _quad
from greenbound._quad import integrate, integrate_to_infinity
from greenbound.errors import NonConvergenceError


def test_integrate_polynomial_exact():
    value = integrate(lambda x: 3.0 * x * x, 0.0, 2.0, abs_tol=1e-12)
    assert math.isclose(value, 8.0, abs_tol=1e-11)


def test_integrate_oscillatory():
    value = integrate(np.sin, 0.0, math.pi, abs_tol=1e-12)
    assert math.isclose(value, 2.0, rel_tol=1e-11)


def test_integrate_relative_matches_absolute():
    a = integrate(lambda x: np.exp(-x), 0.0, 5.0, abs_tol=1e-13)
    (b,) = _quad._integrate(
        lambda x: np.exp(-x), np.array([0.0]), np.array([5.0]), 1e-11, relative=True
    )
    assert math.isclose(a, b, rel_tol=1e-9)


def test_integrate_complex_transparent():
    value = integrate(lambda x: np.cos(x) + 1j * np.sin(x), 0.0, math.pi, abs_tol=1e-12)
    assert math.isclose(value.real, 0.0, abs_tol=1e-11)
    assert math.isclose(value.imag, 2.0, rel_tol=1e-11)


def test_integrand_calls_stay_within_batch_bound():
    sizes = []

    def peaked(x):
        sizes.append(x.size)
        return 1.0 / (1e-4 + x * x)

    value = integrate(peaked, -1.0, 1.0, abs_tol=1e-12)
    assert math.isclose(value, 200.0 * math.atan(100.0), rel_tol=1e-12)
    edges = np.linspace(-1.0, 1.0, 3 * _quad._MAX_POINTS + 1)
    _quad._integrate(peaked, edges[:-1], edges[1:], 1e-12)
    assert max(sizes) <= _quad._MAX_POINTS < sum(sizes)


def test_many_intervals_in_one_call_match_separate_calls():
    def f(x):
        return np.exp(3j * x) / (1.0 + x * x)

    edges = np.linspace(-2.0, 3.0, 11)
    batched = _quad._integrate(f, edges[:-1], edges[1:], 1e-11)
    for value, a, b in zip(batched, edges[:-1], edges[1:]):
        single = integrate(f, a, b, abs_tol=1e-11)
        assert abs(value - single) <= 1e-15 * abs(single), (a, b)


def test_integrate_to_infinity_power_law():
    # integral of u^-3 from 2 to infinity = 1/8; tail bound integral of M^-3 shape
    def tail(M):
        return 0.5 * M**-2

    value, tail_bound = integrate_to_infinity(lambda u: u**-3, 2.0, tail, rel_tol=1e-10)
    assert math.isclose(value, 0.125, rel_tol=1e-8)
    assert tail_bound <= 1e-9 * value


def test_integrate_to_infinity_exponential():
    def tail(M):
        return math.exp(-M)

    value, _ = integrate_to_infinity(lambda u: np.exp(-u), 0.0, tail, rel_tol=1e-10)
    assert math.isclose(value, 1.0, rel_tol=1e-8)


def test_integrate_to_infinity_rejects_fat_tail():
    # tail bound that never decays cannot reach the tolerance
    def tail(M):
        return 1.0

    with pytest.raises(NonConvergenceError):
        integrate_to_infinity(lambda u: 1.0 / (1.0 + u), 1.0, tail, rel_tol=1e-6)
