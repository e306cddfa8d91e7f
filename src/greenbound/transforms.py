"""Spherical-transform layer: trapezoid cutoff kernels and their spectral
transforms, plus the resolvent transform.

A radial kernel g(u) has spectral transform h(s) = 2 pi Integral g(u)
P_{s-1}(u) du.  Two families appear:

* trapezoid cutoffs g_U^- <= g_U <= g_U^+ with corners at T(U) < U < V(U):
      h_U^+(s) = 2 pi [(V^2-1) P^{-2}_{s-1}(V) - (U^2-1) P^{-2}_{s-1}(U)] / (V - U),
      h_U^-(s) = 2 pi [(U^2-1) P^{-2}_{s-1}(U) - (T^2-1) P^{-2}_{s-1}(T)] / (U - T),
  with the boundary values h_U^{+-}(1) = 2 pi (U-1) + pi (W-U), W = V or T;
* resolvent h_a(s) = 1 / (s(1-s) + a(a-1)).

The sharp cutoff g_U = indicator of [1, U] between them has the transform
2 pi sqrt(U^2 - 1) P^{-1}_{s-1}(U); no code evaluates it, and its bracket is
greenbound.verify.order_one_bracket's, scaled.

One function gives both corners, corner(params, sign, U) = U + sign beta U^{-1-alpha} (U^2 - 1)
with (alpha, beta) = params.side(sign): V(U) for sign +1, T(U) for sign -1.  The cap beta^- <=
delta^{1+alpha^-} / (delta + 1) (beta_minus_cap) guarantees T(U) >= 1 for U >= delta.

I_delta_pm averages h_U_pm over U >= delta with greenbound._quad's octave
march; averaged_transform_tail bounds the tail in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from greenbound._quad import integrate_to_infinity
from greenbound.errors import ConstraintViolation, NonConvergenceError
from greenbound.specfun import C_sigma, SQRT_PI, legendre_P_negm

TWO_PI = 2.0 * math.pi

# Below this margin the lower trapezoid corner T is numerically at the kernel
# edge u = 1 and its (T^2 - 1) P^{-2}(T) contribution is O((T-1)^2).
_T_EDGE = 1.0 + 1e-9
I_REL_TOL = 1e-8  # relative tolerance of I_delta_pm


def beta_minus_cap(delta: float, alpha_minus: float) -> float:
    """The corner criterion's cap delta^{1+alpha^-} / (delta + 1) on beta^-."""
    return delta ** (1.0 + alpha_minus) / (delta + 1.0)


@dataclass(frozen=True)
class TrapezoidParams:
    """Parameters (delta, alpha^{+-}, beta^{+-}) of the trapezoid smoothing.

    Constraints: delta > 1, 0 < alpha^{+-} < 1/2, beta^{+-} > 0, and the
    corner criterion beta^- <= delta^{1+alpha^-} / (delta + 1).
    """

    delta: float
    alpha_plus: float
    alpha_minus: float
    beta_plus: float
    beta_minus: float

    def __post_init__(self) -> None:
        if not (self.delta > 1.0):
            raise ConstraintViolation(f"delta > 1 violated: delta = {self.delta}")
        if not (0.0 < self.alpha_plus < 0.5):
            raise ConstraintViolation(f"0 < alpha_plus < 1/2 violated: {self.alpha_plus}")
        if not (0.0 < self.alpha_minus < 0.5):
            raise ConstraintViolation(f"0 < alpha_minus < 1/2 violated: {self.alpha_minus}")
        if not (self.beta_plus > 0.0):
            raise ConstraintViolation(f"beta_plus > 0 violated: {self.beta_plus}")
        if not (self.beta_minus > 0.0):
            raise ConstraintViolation(f"beta_minus > 0 violated: {self.beta_minus}")
        cap = beta_minus_cap(self.delta, self.alpha_minus)
        if not (self.beta_minus <= cap):
            raise ConstraintViolation(
                f"beta_minus <= delta^(1+alpha_minus)/(delta+1) violated: {self.beta_minus} > {cap}"
            )

    def side(self, sign: int) -> tuple[float, float]:
        """(alpha, beta) of the plus (sign > 0) or minus side."""
        return (self.alpha_plus, self.beta_plus) if sign > 0 else (self.alpha_minus, self.beta_minus)


def corner(params: TrapezoidParams, sign: int, U):
    """Trapezoid corner W(U) = U + sign beta U^{-1-alpha} (U^2 - 1), (alpha, beta) = params.side(sign):
    V(U) for sign +1, which needs U >= 1, and T(U) for sign -1, which needs U >= delta.  The beta^-
    cap proves T(U) >= 1 there; a W that rounding puts below 1 (beta^- on the cap, U = delta) is
    clamped to 1, which leaves every V >= U >= 1 as it is.  Elementwise on an array U."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    floor, name = (1.0, "1") if sign > 0 else (params.delta, f"delta = {params.delta}")
    if not np.all(U >= floor):
        raise ValueError(f"corner requires U >= {name}, got min U = {np.min(U)}")
    alpha, beta = params.side(sign)
    W = U + sign * beta * U ** (-1.0 - alpha) * (U * U - 1.0)
    return np.maximum(W, 1.0) if np.ndim(W) else max(W, 1.0)


def h_U_pm(params: TrapezoidParams, sign: int, s: complex, U):
    """Trapezoid transform h_U^{+-}(s) via the order -2 Legendre difference quotient
    2 pi [(W^2 - 1) P^{-2}_{s-1}(W) - (U^2 - 1) P^{-2}_{s-1}(U)] / (W - U), with the corner
    W = corner(params, sign, U): V(U) for sign +1, T(U) for sign -1.

    The minus side needs U >= delta so that T(U) >= 1; where T lands on the
    kernel edge its (T^2 - 1) P^{-2}_{s-1}(T) term is zero to well below
    double precision and is dropped.  U and its corners W go to
    legendre_P_negm in one call, which evaluates each entry on its own, so
    corners just above 1 take its hypergeometric form and the rest its
    descending series.  Elementwise on an array U; a scalar U gives a
    complex.  W/U - 1 = beta U^-alpha, so the difference loses about
    log10(U^alpha / beta) digits: at alpha = 0.143, beta = 0.92 the error
    against mpmath is 1e-6 relative at U = 2^200 and 14% at U = 2^300.
    """
    U = np.asarray(U, dtype=float)
    if not np.all(U > 1.0):
        raise ValueError(f"h_U_pm requires U > 1, got min U = {np.min(U)}")
    W = corner(params, sign, U)
    kept = (W > _T_EDGE) | (sign == +1)
    P = legendre_P_negm(2, s, np.concatenate([U.ravel(), W[kept]]))
    W_term = np.zeros(U.shape, dtype=complex)
    W_term[kept] = (W[kept] * W[kept] - 1.0) * P[U.size :]
    value = TWO_PI * (W_term - (U * U - 1.0) * P[: U.size].reshape(U.shape)) / (W - U)
    return value if value.ndim else complex(value)


def h_U_pm_at_one(params: TrapezoidParams, sign: int, U: float) -> float:
    """Boundary value h_U^{+-}(1) = 2 pi (U-1) + pi (W-U), W = corner(params, sign, U): the minus side's
    2 pi (U-1) - pi (U-T), as pi (T-U) is exactly -pi (U-T)."""
    return TWO_PI * (U - 1.0) + math.pi * (corner(params, sign, U) - U)


def h_a(a: float, s: complex) -> complex:
    """Resolvent transform h_a(s) = 1 / (s(1-s) + a(a-1)); poles at s = a and s = 1-a."""
    s = complex(s)
    den = s * (1.0 - s) + a * (a - 1.0)
    if den == 0:
        raise ValueError(f"h_a pole at s = {s} for a = {a}")
    return 1.0 / den


def resolvent_difference(a: float, b: float, s: complex) -> complex:
    """h_a(s) - h_b(s) = (b(b-1) - a(a-1)) / ((a-s)(a-1+s)(b-s)(b-1+s)).

    The source derivation displays the last factor as (b+1-s); expanding
    (b-s)(b-1+s) = s(1-s) + b(b-1) gives (b-1+s).  Raises ValueError at a pole.
    """
    s = complex(s)
    den = (a - s) * (a - 1.0 + s) * (b - s) * (b - 1.0 + s)
    if den == 0:
        raise ValueError(f"resolvent_difference pole at s = {s}")
    return (b * (b - 1.0) - a * (a - 1.0)) / den


def averaged_transform_tail(delta: float, sign: int, sigma: float, alpha: float, beta: float, M) -> float:
    """Analytic bound on |(1/2 pi) Integral_M^inf h_U^{+-}(s) / (U^2-1) dU| for M >= delta.

    Requires sigma > alpha for integrability: the integrand decays like
    U^{alpha - sigma - 1}.  The bound leaves out the
    |s(1-s)|^{-5/4} of the strip bound, which I_delta_pm multiplies in (the D
    integrals strip it off).  It is
    K (1 - M^-2)^-2 M^{alpha-sigma} / (sigma - alpha), K = p0 (kappa^{2-sigma} + 1) / beta,
    which also bounds Integral_M^inf (p(W) + p(U)) U^{1+alpha} / (beta (U^2-1)^2) dU:
    p_sigma(u) <= p0 u^{2-sigma}, p0 = 3 (C + C') 2^{2-sigma} / (4 sqrt(pi)), and W <= kappa U,
    kappa = max(1, 1 + sign beta delta^-alpha), as W / U - 1 = sign beta U^-alpha (1 - U^-2).
    (alpha, beta) is the trapezoid's side(sign); M may be an array.
    """
    if not (sigma > alpha):
        raise NonConvergenceError(
            f"tail bound needs sigma > alpha, got sigma = {sigma}, alpha = {alpha}"
        )
    c_main, c_prime = C_sigma(sigma)
    p0 = 3.0 * (c_main + c_prime) * 2.0 ** (2.0 - sigma) / (4.0 * SQRT_PI)
    kappa = max(1.0, 1.0 + sign * beta * delta ** -alpha)
    coeff = p0 * (kappa ** (2.0 - sigma) + 1.0) / beta
    geometry = (1.0 - M ** -2.0) ** -2.0
    return coeff * geometry * M ** (alpha - sigma) / (sigma - alpha)


def I_delta_pm(params: TrapezoidParams, sign: int, s: complex) -> complex:
    """Averaged transform I_delta^{+-}(s) = (1/2 pi) Integral_delta^inf h_U^{+-}(s)/(U^2-1) dU.

    Defined on the open strip 0 < Re s < 1.  The quadrature marches over
    octaves [M, 2M], evaluating h_U_pm on batches of U, until the
    closed-form tail majorant falls below I_REL_TOL = 1e-8 of the accumulated
    mass.  The value is an adaptive Clenshaw-Curtis estimate, not an
    enclosure: the first 16 octaves are each solved to I_REL_TOL of their own
    CC17 of |integrand| and the later ones together to I_REL_TOL of the mass;
    the tail enters the error budget only.  Where h_U_pm's rounding noise
    exceeds that tolerance, NonConvergenceError is raised.
    """
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise ValueError(f"I_delta_pm requires 0 < Re s < 1, got s = {s}")
    sigma_eff = min(s.real, 1.0 - s.real, 0.49)
    s_factor = abs(s * (1.0 - s)) ** -1.25  # s(1 - s) != 0 on the open strip

    def integrand(U: np.ndarray) -> np.ndarray:
        return h_U_pm(params, sign, s, U) / (U * U - 1.0)

    def tail(M: float) -> float:
        # averaged_transform_tail bounds the tail of the (1/2 pi)-normalized
        # integral without the strip factor; the march integrates the unnormalized integrand.
        return TWO_PI * s_factor * averaged_transform_tail(params.delta, sign, sigma_eff, *params.side(sign), M)

    value, _tail_bound = integrate_to_infinity(integrand, params.delta, tail, I_REL_TOL)
    return value / TWO_PI
