"""Hyperbolic-plane geometry: points, integer matrices, and point-pair kernels.

Points z = x + iy live in the upper half plane (y > 0).  The point-pair
invariant

    u(z, w) = 1 + |z - w|^2 / (2 Im z Im w)

equals cosh of the hyperbolic distance, so u >= 1 with equality iff z = w.
The free-space Green kernel is

    L(u) = (1/4 pi) log((u + 1)/(u - 1)),

and the truncated kernel J_delta(u) = max(0, L(u) - L(delta)) vanishes for
u >= delta.  The displacement u(z, gamma z) has one implementation, the count
kernel's (lattice.u_of_gamma): (a + d)^2/2 - 1 + (W(x) - c y^2)^2 / (2 y^2) with
W(x) = b + (a - d)x - cx^2; point_u of mobius_apply is its oracle.  Both point_u
and mobius_apply take float or Fraction coordinates, exactly on Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point x + iy of the upper half plane; requires y > 0."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (self.y > 0.0) or not math.isfinite(self.x) or not math.isfinite(self.y):
            raise ValueError(f"point must have finite coordinates and y > 0, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class UnimodularMatrix:
    """An integer matrix (a b; c d) with determinant ad - bc = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1, got {self.a * self.d - self.b * self.c}")

    def __neg__(self) -> "UnimodularMatrix":
        return UnimodularMatrix(-self.a, -self.b, -self.c, -self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class Rectangle:
    """An axis-parallel rectangle [x_min, x_max] x [y_min, y_max] in the upper half plane.

    Degenerate rectangles (zero width and/or zero height) are allowed and
    describe segments or single points.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ValueError(f"rectangle sides must be finite, got {self}")
        if not (self.x_min <= self.x_max):
            raise ValueError(f"x_min must be <= x_max, got [{self.x_min}, {self.x_max}]")
        if not (0.0 < self.y_min <= self.y_max):
            raise ValueError(f"need 0 < y_min <= y_max, got [{self.y_min}, {self.y_max}]")


def point_u(z: UpperHalfPoint, w: UpperHalfPoint) -> float:
    """Point-pair invariant u(z, w) = 1 + |z - w|^2 / (2 Im z Im w)."""
    dx = z.x - w.x
    dy = z.y - w.y
    return 1 + (dx * dx + dy * dy) / (2 * z.y * w.y)


def mobius_apply(gamma: UnimodularMatrix, z: UpperHalfPoint) -> UpperHalfPoint:
    """Apply the Mobius map z -> (az + b)/(cz + d).

    With determinant 1 the image has Im = Im z / |cz + d|^2 > 0.  On floats, int entries below 2^26
    round as float entries would: each int product here is exact in a double.
    """
    a, b, c, d = gamma.entries()
    den_re = c * z.x + d
    den_im = c * z.y
    den2 = den_re * den_re + den_im * den_im
    num_re = a * z.x + b
    # Re((az+b)(conj(cz+d))) picks up the a*c*y^2 cross term.
    x_new = (num_re * den_re + a * c * z.y * z.y) / den2
    y_new = z.y / den2
    return UpperHalfPoint(x_new, y_new)


def kernel_L(u: float) -> float:
    """Free-space kernel L(u) = log((u + 1)/(u - 1)) / (4 pi); requires u > 1."""
    if not (u > 1.0):
        raise ValueError(f"kernel_L requires u > 1, got {u}")
    return math.log((u + 1.0) / (u - 1.0)) / FOUR_PI


def kernel_J(delta: float, u: float) -> float:
    """Truncated kernel J_delta(u) = max(0, L(u) - L(delta)); requires delta > 1, u > 1."""
    if not (delta > 1.0):
        raise ValueError(f"kernel_J requires delta > 1, got {delta}")
    value = kernel_L(u) - kernel_L(delta)
    return value if value > 0.0 else 0.0
