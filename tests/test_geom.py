"""Geometry layer: points, matrices, the displacement invariant, kernels."""

import math
import random

import pytest

from greenbound import verify
from greenbound.geom import (
    Rectangle,
    UnimodularMatrix,
    UpperHalfPoint,
    kernel_J,
    kernel_L,
    mobius_apply,
    point_u,
)
from greenbound.lattice import u_of_gamma


def random_point(rng, spread=2.0):
    return UpperHalfPoint(rng.uniform(-spread, spread), math.exp(rng.uniform(-1.5, 1.5)))


def test_point_requires_positive_height():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, -1.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(math.nan, 1.0)


def test_matrix_requires_unit_determinant():
    UnimodularMatrix(1, 5, 0, 1)
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 0, 0, -1)
    with pytest.raises(ValueError):
        UnimodularMatrix(2, 0, 0, 2)


def test_matrix_negation_preserves_determinant():
    gamma = UnimodularMatrix(2, 1, 1, 1)
    assert (-gamma).entries() == (-2, -1, -1, -1)


def test_rectangle_validation_names_the_sides():
    with pytest.raises(ValueError, match="x_min"):
        Rectangle(1.0, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="y_min"):
        Rectangle(0.0, 1.0, 0.0, 2.0)
    # degenerate rectangles describe points and segments
    point = Rectangle(0.25, 0.25, 1.0, 1.0)
    assert (point.x_max - point.x_min, point.y_max - point.y_min) == (0.0, 0.0)


def test_point_u_basics():
    i = UpperHalfPoint(0.0, 1.0)
    assert point_u(i, i) == 1.0
    two_i = UpperHalfPoint(0.0, 2.0)
    # |i - 2i|^2 / (2 * 1 * 2) = 1/4
    assert math.isclose(point_u(i, two_i), 1.25, rel_tol=1e-15)
    assert point_u(i, two_i) == point_u(two_i, i)


def test_point_u_reflects_hyperbolic_distance():
    # u = cosh(dist); points i and e^t i are at hyperbolic distance t
    for t in (0.1, 0.5, 1.0, 2.5):
        z = UpperHalfPoint(0.0, 1.0)
        w = UpperHalfPoint(0.0, math.exp(t))
        assert math.isclose(point_u(z, w), math.cosh(t), rel_tol=1e-13)


def test_mobius_identity_and_translation():
    z = UpperHalfPoint(0.3, 0.7)
    ident = UnimodularMatrix(1, 0, 0, 1)
    assert mobius_apply(ident, z) == z
    shift = UnimodularMatrix(1, 3, 0, 1)
    image = mobius_apply(shift, z)
    assert math.isclose(image.x, 3.3, rel_tol=1e-15)
    assert image.y == z.y


def test_mobius_inversion_at_i():
    inv = UnimodularMatrix(0, -1, 1, 0)
    i = UpperHalfPoint(0.0, 1.0)
    image = mobius_apply(inv, i)
    assert abs(image.x) < 1e-15 and math.isclose(image.y, 1.0, rel_tol=1e-15)


def test_u_is_exact_on_fraction_points():
    """point_u and mobius_apply stay in Fractions on Fraction points: u(z*, (3 4; 2 3) z*) is 17 at the
    count witness z* and u(i, i + 1) is 3/2, both exactly and as Fractions."""
    from fractions import Fraction

    p, q, r = verify.COUNT_WITNESS
    z = UpperHalfPoint(Fraction(p, r), Fraction(q, r))
    i = UpperHalfPoint(Fraction(0), Fraction(1))
    for value, expected in (
        (point_u(z, mobius_apply(UnimodularMatrix(3, 4, 2, 3), z)), 17),
        (point_u(i, mobius_apply(UnimodularMatrix(1, 1, 0, 1), i)), Fraction(3, 2)),
    ):
        assert isinstance(value, Fraction) and value == expected


def test_mobius_apply_rounds_int_entries_as_float_entries():
    """On float points, int entries below 2^26 give the bits of the same entries as floats: each
    int product in mobius_apply is exact in a double."""
    from types import SimpleNamespace

    rng = random.Random(4102)
    for _ in range(300):
        c, d = rng.randint(1, 2**25), rng.randint(-(2**25), 2**25)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c)
        gamma = UnimodularMatrix(a, (a * d - 1) // c, c, d)
        as_floats = SimpleNamespace(entries=lambda g=gamma: tuple(map(float, g.entries())))
        z = random_point(rng)
        assert mobius_apply(gamma, z) == mobius_apply(as_floats, z), (gamma, z)


def test_u_is_mobius_invariant():
    # invariance is exact in arithmetic; the float tolerance absorbs the
    # conditioning of images near the real axis for large matrix entries
    rng = random.Random(4101)
    for _ in range(300):
        gamma = verify.random_unimodular(rng)
        z, w = random_point(rng), random_point(rng)
        direct = point_u(z, w)
        moved = point_u(mobius_apply(gamma, z), mobius_apply(gamma, w))
        assert math.isclose(direct, moved, rel_tol=1e-8), (gamma, z, w)


def test_u_of_gamma_sign_invariance():
    rng = random.Random(4103)
    for _ in range(100):
        gamma = verify.random_unimodular(rng)
        z = random_point(rng)
        assert u_of_gamma(gamma, z) == u_of_gamma(-gamma, z)


def test_kernel_L_values_and_domain():
    # L(u) = log((u+1)/(u-1)) / (4 pi); at u = 3 the log is log 2
    assert math.isclose(kernel_L(3.0), math.log(2.0) / (4.0 * math.pi), rel_tol=1e-15)
    with pytest.raises(ValueError):
        kernel_L(1.0)
    with pytest.raises(ValueError):
        kernel_L(0.5)


def test_kernel_L_is_decreasing():
    values = [kernel_L(u) for u in (1.001, 1.01, 1.5, 2.0, 10.0, 1e4)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kernel_J_truncates():
    delta = 2.0
    assert kernel_J(delta, 2.0) == 0.0
    assert kernel_J(delta, 5.0) == 0.0
    inside = kernel_J(delta, 1.5)
    assert math.isclose(inside, kernel_L(1.5) - kernel_L(2.0), rel_tol=1e-15)
    assert inside > 0.0


def test_kernel_J_continuous_at_cutoff():
    delta = 2.0
    just_in = kernel_J(delta, delta - 1e-9)
    assert 0.0 < just_in < 1e-8
