"""Adaptive Clenshaw-Curtis engine (17 nodes, CC17 - CC9 error estimate, each
panel accepted on its tolerance alone): finite, relative, batched, and
marching improper integrals."""

import dataclasses
import math
import random

import numpy as np
import pytest
from test_bounds import draw_valid_params

from greenbound import _quad, transforms
from greenbound._quad import integrate, integrate_to_infinity
from greenbound.bounds import compute_D, reference_params
from greenbound.errors import NonConvergenceError

_ENGINE = _quad._integrate  # unpatched, for the oracle and the call counter


def count_engine_calls(monkeypatch):
    """Patch a call counter onto _quad._integrate; returns the list it appends to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _ENGINE(*args, **kwargs)

    monkeypatch.setattr(_quad, "_integrate", counted)
    return calls


def test_integrate_polynomial_exact():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return 3.0 * x * x

    value = integrate(f, 0.0, 2.0, abs_tol=1e-12)
    assert math.isclose(value, 8.0, abs_tol=1e-11)
    # CC9 and CC17 are both exact here: the first pass, one panel of 17
    # nodes, settles it in one integrand call
    assert sizes == [17]


def test_integrate_sees_a_kink_next_to_an_end():
    """The ramp's kink lies 5e-5 from the left end, inside the first node gap
    (0.058 wide on [1, 7]).  The closed rule samples f(a) and sees the kink;
    an open rule such as Gauss-Kronrod G7/K15 sees only the straight part
    there and can accept a panel that is off by far more than 1e-12."""
    kink = 1.0 + 5e-5
    value = integrate(lambda x: np.maximum(x - kink, 0.0), 1.0, 7.0, abs_tol=1e-12)
    assert abs(value - 0.5 * (7.0 - kink) ** 2) <= 1e-12


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

    value = integrate(peaked, -1.0, 1.0, abs_tol=1e-11)
    assert math.isclose(value, 200.0 * math.atan(100.0), rel_tol=1e-12)
    edges = np.linspace(-1.0, 1.0, 3 * _quad._MAX_POINTS + 1)
    _quad._integrate(peaked, edges[:-1], edges[1:], 1e-12)
    assert max(sizes) <= _quad._MAX_POINTS < sum(sizes)


def test_unattainable_tolerance_raises():
    """At abs_tol 1e-12 against an integral of 2.2e4, |CC17 - CC9| is rounding
    noise at every depth, so the engine hits the depth limit rather than
    return a value that misses the tolerance."""
    with pytest.raises(NonConvergenceError):
        integrate(np.exp, 0.0, 10.0, abs_tol=1e-12)


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
    # u^-1.05 over [1, infinity) is 20 with tail 20 M^-0.05: about 530 octaves,
    # 515 in the second engine call, whose errors together stay within rel_tol
    # of the mass
    value, tail_bound = integrate_to_infinity(lambda u: u**-1.05, 1.0, lambda M: 20.0 * M**-0.05, 1e-8)
    assert abs(value + tail_bound - 20.0) <= 1e-8 * 20.0


def test_integrate_to_infinity_exponential():
    def tail(M):
        return math.exp(-M)

    value, _ = integrate_to_infinity(lambda u: np.exp(-u), 0.0, tail, rel_tol=1e-10)
    assert math.isclose(value, 1.0, rel_tol=1e-8)


def test_integrate_to_infinity_rejects_fat_tail(monkeypatch):
    # tail bound that never decays cannot reach the tolerance; the march
    # integrates every octave up to overflow, in two engine calls
    sizes, calls = [], count_engine_calls(monkeypatch)

    def tail(M):
        return 1.0

    def f(u):
        sizes.append(u.size)
        return 1.0 / (1.0 + u)

    with pytest.raises(NonConvergenceError, match="tail bound cannot reach tolerance"):
        integrate_to_infinity(f, 1.0, tail, rel_tol=1e-6)
    assert len(calls) == 2
    assert max(sizes) <= _quad._MAX_POINTS
    assert sum(sizes) > 1000 * 17  # about 1,000 octaves of at least 17 points each



def test_march_to_overflow_reports_the_tail():
    """At delta = 3 the last octave below overflow tops out at 1.35e308, so
    a midpoint taken as 0.5 * (a + b) would overflow; the march must still
    end on its tail bound, not on an engine error at [inf, ...].  The tail
    bound is that of the plus averaged transform at Re s = alpha_plus + 0.01,
    which decays like M^-0.01; the integrand decays as slowly, so the march
    runs to overflow.  compute_D at these parameters fails the same way."""
    ref = reference_params()
    params = dataclasses.replace(
        ref,
        trapezoid=dataclasses.replace(ref.trapezoid, delta=3.0),
        sigma_plus=ref.trapezoid.alpha_plus + 0.01,
    )
    t = params.trapezoid
    assert t.beta_minus < 3.0 ** (1.0 + t.alpha_minus) / 4.0

    def tail(M):
        return transforms.averaged_transform_tail(t.delta, +1, *params.side(+1), M)

    with pytest.raises(NonConvergenceError, match="tail bound cannot reach tolerance"):
        integrate_to_infinity(lambda u: u ** (t.alpha_plus - params.sigma_plus - 1.0), t.delta, tail, 1e-6)
    with pytest.raises(NonConvergenceError):
        compute_D(params)


def block_march(f, a, tail_bound, rel_tol):
    """The march before its stop was predicted: 16 octaves per engine call,
    past the stop too.  The first 16 octaves are each solved to rel_tol of
    their own size; every later octave gets an equal share of rel_tol times
    their mass, shared among the octaves up to the first top whose tail
    bound is below that budget.  The oracle for integrate_to_infinity."""
    total = 0.0
    mass = 0.0
    lo = a
    hi = 2.0 * a if a > 0 else 1.0
    tol, relative = rel_tol, True
    while math.isfinite(hi):
        los, his = [], []
        while math.isfinite(hi) and len(los) < 16:
            los.append(lo)
            his.append(hi)
            lo, hi = hi, 2.0 * hi
        pieces = _ENGINE(f, np.array(los), np.array(his), tol, relative)
        for piece, top in zip(pieces, his):
            total += piece
            mass += abs(piece)
            bound = tail_bound(top)
            if bound <= rel_tol * max(mass, 1e-300):
                return total, bound
        if relative:
            budget, shares, top = rel_tol * max(mass, 1e-300), 0, hi
            while math.isfinite(top):
                shares += 1
                if tail_bound(top) <= budget:
                    break
                top *= 2.0
            tol, relative = budget / max(shares, 1), False
    raise NonConvergenceError("tail bound cannot reach tolerance on [a, infinity)")


@pytest.fixture
def paired(monkeypatch):
    """Each march of transforms also runs block_march.

    The marches' results, the oracle's, and the march's engine calls and
    integrand abscissas gather in paired.records; paired(f, a, tail_bound,
    rel_tol) runs one pair.
    """
    calls = count_engine_calls(monkeypatch)

    def march(f, a, tail_bound, rel_tol):
        calls.clear()
        points = []

        def counted(x):
            points.append(x.size)
            return f(x)

        result = integrate_to_infinity(counted, a, tail_bound, rel_tol)
        oracle = block_march(f, a, tail_bound, rel_tol)
        march.records.append((result, oracle, len(calls), sum(points)))
        return result

    march.records = []
    monkeypatch.setattr(transforms, "integrate_to_infinity", march)
    return march


def test_march_matches_block_oracle(paired):
    paired(lambda u: u**-3, 2.0, lambda M: 0.5 * M**-2, 1e-10)
    paired(lambda u: np.exp(-u), 0.0, lambda M: math.exp(-M), 1e-10)
    rng = random.Random(80300)
    for t in [reference_params().trapezoid] + [draw_valid_params(rng).trapezoid for _ in range(5)]:
        for sign in (+1, -1):
            transforms.I_delta_pm(t, sign, 0.45 + 1.0j)
    t = reference_params().trapezoid
    for sign, s in ((+1, 0.306 + 30.0j), (-1, 0.25 + 2.0j), (+1, 0.694 + 0.5j)):
        transforms.I_delta_pm(t, sign, s)
    assert len(paired.records) == 2 + 2 * 6 + 3
    for (value, bound), (oracle_value, oracle_bound), *_ in paired.records:
        assert abs(value - oracle_value) <= 1e-15 * abs(oracle_value)
        assert abs(bound - oracle_bound) <= 1e-15 * abs(oracle_bound)


def test_march_makes_at_most_two_engine_calls(paired):
    t = reference_params().trapezoid
    for sign in (+1, -1):
        transforms.I_delta_pm(t, sign, 0.45 + 1.0j)
    transforms.I_delta_pm(t, -1, 0.25 + 2.0j)
    transforms.I_delta_pm(t, +1, 0.306 + 30.0j)
    paired(lambda u: u**-3, 2.0, lambda M: 0.5 * M**-2, 1e-10)
    # each of these marches stops past its first block, so it takes both calls
    assert [calls for *_, calls, _ in paired.records] == [2, 2, 2, 2, 2]
    # the far octaves share one error budget and each panel is a 17-node
    # Clenshaw-Curtis pair: 1,496, 2,227 and 15,572 abscissas
    points = [points for *_, points in paired.records]
    assert points[0] <= 2_000 and points[2] <= 3_000 and points[3] <= 20_000, points
