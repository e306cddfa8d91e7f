"""Cusp-neighbourhood smoothing, radii admissibility, and certificate transport."""

import cmath
import math
import random

import numpy as np
import pytest

from greenbound import cusps, verify
from greenbound._quad import integrate
from greenbound.bounds import BoundReport, GroupContext, group_preset, reference_params
from greenbound.cusps import (
    CuspBoundReport,
    CuspGeometry,
    N_delta_eps,
    admissible_eps,
    extend_bounds,
    kernel_mass,
    lambda_xi,
    poisson_kernel,
    r_delta,
)
from greenbound.errors import ConstraintViolation
from greenbound.geom import kernel_L


def small_report():
    return BoundReport(
        q_plus=1.0,
        q_minus=-1.0,
        D_plus=1.0,
        D_minus=1.0,
        N_bar=2.0,
        spectral_factor=1.0,
        A=-3.0,
        B=1.0,
        mode="theorem-exact",
    )


def reference_geometry():
    return CuspGeometry(eps=0.05, eps_prime=0.2, delta=2.0, min_c=1.0, count_pm1=2)


def test_poisson_kernel_values():
    assert poisson_kernel(0.0) == 1.0
    for r in (0.1, 0.5, 0.9):
        assert math.isclose(poisson_kernel(r), (1.0 + r) / (1.0 - r), rel_tol=1e-14)
        # rotation-reflection symmetry
        z = r * cmath.exp(0.7j)
        assert math.isclose(poisson_kernel(z), poisson_kernel(z.conjugate()), rel_tol=1e-14)
    with pytest.raises(ValueError, match="poisson_kernel"):
        poisson_kernel(1.0)
    with pytest.raises(ValueError, match="poisson_kernel"):
        poisson_kernel(0.8 + 0.7j)


def test_poisson_kernel_mean_value():
    # the kernel has circular mean 1 at every radius
    for r in (0.3, 0.8):
        mean = integrate(lambda a: poisson_kernel(r * np.exp(2j * math.pi * a)), 0.0, 1.0, 1e-12)
        assert abs(mean - 1.0) <= 1e-10


def test_phase_average_branches_and_domain():
    assert isinstance(lambda_xi(0.5, 0.3), float)
    assert isinstance(lambda_xi(0.5j, 0.3), complex)
    assert lambda_xi(0.0, 0.3) == 0.0
    with pytest.raises(ValueError, match="lambda_xi"):
        lambda_xi(1.0, 0.3)


def test_lambda_keeps_its_digits_at_small_t():
    """lambda_xi is within 1e-14 relative of 40-digit mpmath at complex and real xi, t from 1e-13 to
    0.8; the difference of the two logs erred 1.1e-4 relative at (0.3i, 1e-13).  So the quadrature of
    Re lambda(xi, y)/y from 1e-16 converges at complex xi, where that noise, about 1e-16/y, made it
    raise NonConvergenceError near y = 1e-10, and the real part of the phase lemma holds at t = 1:
    12 t |gap| reads 0.5655 at 0.9 e^{i pi/8}, the largest of the four."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for xi in (0.3j, 0.9 * cmath.exp(1j * math.pi / 8), 0.45 + 0.45j, 0.9, -0.8):
            for t in (1e-13, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.8):
                phase = mpmath.expjpi(2 * mpmath.mpf(t))
                exact = (mpmath.log(1 - xi / phase) - mpmath.log(1 - xi * phase)) / (2j * mpmath.pi)
                assert abs(lambda_xi(xi, t) - exact) <= 1e-14 * abs(exact), (xi, t)
    for xi in (r * cmath.exp(1j * a) for r in (0.3, 0.9) for a in (math.pi / 8, math.pi / 2)):
        value = integrate(lambda y: lambda_xi(xi, y).real / y, 1e-16, 1.0, abs_tol=1e-10)
        assert 12.0 * abs(value + 0.5 * cmath.log(1.0 - xi).real) <= 0.566, xi


def test_smoothing_radius_values():
    assert math.isclose(r_delta(2.0), 0.026919643087244035, rel_tol=1e-14)
    # decreasing in delta with limit 1/48
    assert r_delta(1.5) > r_delta(2.0) > r_delta(10.0) > 1.0 / 48.0
    assert math.isclose(r_delta(1e8), 1.0 / 48.0, rel_tol=1e-3)
    with pytest.raises(ValueError, match="delta"):
        r_delta(1.0)


def two_half_N_delta_eps(delta, eps, xi):
    """The smoothing integral as its two halves t > 0 and t < 0, each its own engine call in
    log t to half of N_ABS_TOL: the form N_delta_eps had before it folded them into one integrand."""
    tau = math.sqrt(2.0 * delta - 2.0) / eps
    L_delta = kernel_L(delta)
    total = 0.0
    for sign in (1.0, -1.0):

        def g(x):
            t = np.exp(x)
            h = 0.5 * eps * eps * t * t
            J = np.clip(np.log((2.0 + h) / h) / (4.0 * math.pi) - L_delta, 0.0, None)
            return J * poisson_kernel(np.exp(2j * math.pi * sign * t) * xi) * t

        total += integrate(g, math.log(tau * 1e-16), math.log(tau), abs_tol=0.5 * cusps.N_ABS_TOL)
    return total


# spectral-strip's N strata: (delta, eps, |xi|), the smallest eps with the largest |xi|.
_N_STRATA = ((1.5, 0.08125, 0.7875), (2.0, 0.14375, 0.5625), (3.0, 0.20625, 0.3375), (2.0, 0.26875, 0.1125))


def test_smoothing_integral_is_one_engine_call_matching_the_two_halves(monkeypatch):
    """One engine call gives the integral within 1e-13 of the two half integrals, on the smoothing
    grid and on spectral-strip's N strata at four directions of xi each."""
    points = list(verify._SMOOTHING_POINTS)
    points += [(d, e, cmath.rect(r, k * math.pi / 2 + 0.3)) for d, e, r in _N_STRATA for k in range(4)]
    calls = []
    monkeypatch.setattr(cusps, "integrate", lambda *a, **k: calls.append(1) or integrate(*a, **k))
    for delta, eps, xi in points:
        value = N_delta_eps(delta, eps, xi)
        assert abs(value - two_half_N_delta_eps(delta, eps, xi)) <= 1e-13, (delta, eps, xi)
    assert len(points) == 62 and len(calls) == len(points)


def test_smoothing_count_domain():
    with pytest.raises(ValueError, match="delta"):
        N_delta_eps(1.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="eps"):
        N_delta_eps(2.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="xi"):
        N_delta_eps(2.0, 0.1, 1.0)


def test_admissible_radii_formula():
    outer_cap, inner_cap = admissible_eps(2.0, 1.0)
    spread = 2.0 + math.sqrt(3.0)
    assert math.isclose(outer_cap, 1.0 / math.sqrt(spread), rel_tol=1e-14)
    assert math.isclose(inner_cap, outer_cap / spread, rel_tol=1e-14)
    assert math.isclose(outer_cap, 0.5176380902050415, rel_tol=1e-12)
    assert math.isclose(inner_cap, 0.1387007082420295, rel_tol=1e-12)
    # caps scale linearly in min_c and shrink as delta grows
    outer_2, inner_2 = admissible_eps(2.0, 2.0)
    assert math.isclose(outer_2, 2.0 * outer_cap, rel_tol=1e-14)
    assert math.isclose(inner_2, 2.0 * inner_cap, rel_tol=1e-14)
    assert admissible_eps(3.0, 1.0)[0] < outer_cap
    with pytest.raises(ValueError):
        admissible_eps(0.9, 1.0)
    with pytest.raises(ValueError):
        admissible_eps(2.0, 0.0)


def test_geometry_validation():
    reference_geometry()  # the base configuration is admissible
    with pytest.raises(ConstraintViolation, match="delta"):
        CuspGeometry(eps=0.05, eps_prime=0.2, delta=1.0, min_c=1.0, count_pm1=2)
    with pytest.raises(ConstraintViolation, match="0 < eps < eps_prime"):
        CuspGeometry(eps=0.2, eps_prime=0.1, delta=2.0, min_c=1.0, count_pm1=2)
    with pytest.raises(ConstraintViolation, match="min_c"):
        CuspGeometry(eps=0.05, eps_prime=0.2, delta=2.0, min_c=-1.0, count_pm1=2)
    with pytest.raises(ConstraintViolation, match="count_pm1"):
        CuspGeometry(eps=0.05, eps_prime=0.2, delta=2.0, min_c=1.0, count_pm1=3)
    with pytest.raises(ConstraintViolation, match="eps_prime"):
        CuspGeometry(eps=0.05, eps_prime=0.6, delta=2.0, min_c=1.0, count_pm1=2)
    with pytest.raises(ConstraintViolation, match="exceeds eps_prime"):
        CuspGeometry(eps=0.1, eps_prime=0.2, delta=2.0, min_c=1.0, count_pm1=2)


def test_geometry_of_a_certificate_takes_its_delta_and_group_data():
    """CuspGeometry.of gives the hand-built reference geometry at the reference inputs, and one
    sign and the group's min_c for a group without -1."""
    assert CuspGeometry.of(0.05, 0.2, reference_params(), group_preset("sl2z")) == reference_geometry()
    group = GroupContext(name="g", vol=1.0, eta=0.2, contains_minus_one=False, min_c=1.5)
    expected = CuspGeometry(eps=0.05, eps_prime=0.2, delta=2.0, min_c=1.5, count_pm1=1)
    assert CuspGeometry.of(0.05, 0.2, reference_params(), group) == expected


def test_geometry_accepts_the_admissible_maxima():
    """CuspGeometry checks both radius inequalities in admissible_eps's float order, so it
    accepts the pair of maxima admissible_eps returns, for every delta and min_c."""
    rng = random.Random(90400)
    for _ in range(20000):
        delta = 50.0 - rng.uniform(0.0, 49.0)  # (1, 50]
        min_c = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        eps_prime_max, eps_max = admissible_eps(delta, min_c)
        CuspGeometry(eps=eps_max, eps_prime=eps_prime_max, delta=delta, min_c=min_c, count_pm1=2)
        with pytest.raises(ConstraintViolation, match="eps_prime"):
            CuspGeometry(eps=eps_max, eps_prime=math.nextafter(eps_prime_max, math.inf), delta=delta, min_c=min_c,
                         count_pm1=2)


def test_report_validation():
    with pytest.raises(ConstraintViolation, match="case"):
        CuspBoundReport(case="z", base_A=0.0, base_B=1.0, offset_terms="")
    with pytest.raises(ConstraintViolation, match="together"):
        CuspBoundReport(case="c", base_A=0.0, base_B=1.0, offset_terms="", A_tilde=0.0)
    with pytest.raises(ConstraintViolation, match="empty"):
        CuspBoundReport(
            case="c", base_A=0.0, base_B=1.0, offset_terms="", A_tilde=2.0, B_tilde=1.0
        )
    with pytest.raises(ConstraintViolation, match="finite"):
        CuspBoundReport(case="c", base_A=0.0, base_B=1.0, offset_terms="", A_tilde=0.0, B_tilde=math.inf)


def test_extend_offset_terms_are_pinned():
    base, geom = small_report(), reference_geometry()
    offsets = {case: extend_bounds(base, geom, case).offset_terms for case in ("a", "a_prime", "b", "c")}
    assert offsets == {
        "a": "subtract (1/vol) log(eps * height(z))",
        "a_prime": "subtract (1/vol) log(eps * height(w))",
        "b": "subtract (1/vol) log(eps * height(z)) + (1/vol) log(eps * height(w))",
        "c": "subtract count_pm1/(2 pi) log|q(z) - q(w)| + (1/vol) log(eps' * height(z)) "
        "+ (1/vol) log(eps' * height(w))",
    }


def test_extend_mixed_configurations_echo_base():
    base = small_report()
    geom = reference_geometry()
    for case, token in (("a", "height(z)"), ("a_prime", "height(w)"), ("b", "height(z)")):
        report = extend_bounds(base, geom, case)
        assert report.case == case
        assert report.base_A == base.A
        assert report.base_B == base.B
        assert report.A_tilde is None and report.B_tilde is None
        assert token in report.offset_terms
    both = extend_bounds(base, geom, "b").offset_terms
    assert "height(z)" in both and "height(w)" in both
    with pytest.raises(ConstraintViolation, match="case"):
        extend_bounds(base, geom, "d")


def test_kernel_mass_is_the_kernel_integral():
    """kernel_mass(delta) is the integral of J_delta(1 + s^2/2) over the line: 30-digit mpmath
    quadrature of the kernel on its support |s| <= sqrt(2 delta - 2) agrees to 1e-15."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for delta, pinned in ((1.5, 0.29517), (2.0, 0.39183), (3.0, 0.5), (1.0001, None), (50.0, None)):
            edge = mpmath.log((delta + 1) / mpmath.mpf(delta - 1)) / (4 * mpmath.pi)
            tau = mpmath.sqrt(2 * mpmath.mpf(delta) - 2)
            mass = 2 * mpmath.quad(lambda s: mpmath.log(1 + 4 / s**2) / (4 * mpmath.pi) - edge, [0, tau])
            assert abs(kernel_mass(delta) - mass) <= 1e-15 * mass, (delta, kernel_mass(delta), mass)
            if pinned is not None:
                assert round(kernel_mass(delta), 5) == pinned
    for bad in (1.0, 0.5):
        with pytest.raises(ValueError, match="delta > 1"):
            kernel_mass(bad)


def test_extend_same_cusp_offsets():
    """Case c: shift by count (1 - kernel_mass(delta)) / eps', kernel_mass(delta) =
    (2/pi) arctan sqrt((delta-1)/2), widen by count eps' r_delta on each side."""
    base = small_report()
    geom = reference_geometry()
    report = extend_bounds(base, geom, "c")
    assert math.isclose(report.A_tilde - base.A, 6.07096662245749, rel_tol=1e-12)
    assert math.isclose(report.B_tilde - base.B, 6.092502336929101, rel_tol=1e-12)
    # loose cross-check against the displayed 4-decimal offsets
    assert abs((report.A_tilde - base.A) - 6.0710) <= 1e-4
    assert abs((report.B_tilde - base.B) - 6.0925) <= 1e-4
    assert report.A_tilde <= report.B_tilde
    widening = (report.B_tilde - report.A_tilde) - (base.B - base.A)
    assert math.isclose(widening, 2.0 * 2 * 0.2 * r_delta(2.0), rel_tol=1e-12)
    assert "q(z) - q(w)" in report.offset_terms
