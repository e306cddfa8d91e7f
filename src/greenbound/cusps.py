"""Extension of the Green function certificate to cusp neighbourhoods.

The base certificate A <= gr + kernel sum <= B holds on the thick part of
the quotient.  Near a cusp the Green function grows like a multiple of
log of the cusp height, so the certificate is transported by subtracting
explicit logarithmic offsets; when both points sit deep in the same cusp
neighbourhood an extra shift and a widening of the interval appear.  The
widening is controlled by the smoothing integral

    N(xi) = integral of J_delta(1 + (eps t)^2 / 2) P(e^{2 pi i t} xi) dt,

where P is the Poisson kernel of the unit disc: N deviates from
kernel_mass(delta) / eps - (1/2 pi) log|1 - xi| by at most eps times the
constant r_delta; kernel_mass(delta) = (2/pi) arctan sqrt((delta-1)/2).

The geometry is the single-cusp model: cusp at infinity with identity
scaling, cusp height = Im z, stabilizer = integer translations, and the
rest of the group summarized by min_c, the smallest positive lower-left
entry.  CuspGeometry.of takes delta, min_c and the +-1 count from the
certificate's own parameter set and group, so only the radii are chosen.
Multi-cusp groups need the neighbourhood-disjointness hypothesis checked by
the caller.

The model is sound only for a cusp of width 1, like SL(2, Z)'s at infinity:
identity scaling makes the height Im z and the chart e^{2 pi i z}; a
stabilizer of the integer translations is what the inner radius reduces close
displacements to and what N_delta_eps sums over with period 1; and min_c, the
least positive c outside it, is what the radius inequalities keep far away.
A cusp of width h (the cusp 0 of Gamma_0(N) has width N) needs its scaling
matrix, translations by h and the min_c of the conjugated group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from greenbound._quad import integrate
from greenbound.bounds import BoundReport, GroupContext, ParamSet
from greenbound.errors import ConstraintViolation
from greenbound.geom import kernel_L

N_ABS_TOL = 1e-10  # absolute quadrature tolerance of N_delta_eps
_HEAD_CUT = 1e-16  # relative start of the log-substituted quadrature


def poisson_kernel(zeta):
    """P(zeta) = (1 - |zeta|^2) / |1 - zeta|^2 on the open unit disc, elementwise."""
    z = np.asarray(zeta, dtype=complex)
    norm = z.real * z.real + z.imag * z.imag
    if not np.all(norm < 1.0):
        raise ValueError(f"poisson_kernel requires |zeta| < 1, got zeta = {zeta}")
    den = (1.0 - z.real) ** 2 + z.imag * z.imag
    value = (1.0 - norm) / den
    return value if value.ndim else float(value)


def lambda_xi(xi: complex, t):
    """Boundary phase function (log(1 - e^{-2 pi i t} xi) - log(1 - e^{2 pi i t} xi)) / 2 pi i.

    Principal branches.  Real for real xi (the logs are conjugate), where it
    equals the Fourier series (1/pi) sum xi^n sin(2 pi n t)/n; returns a
    float in that case and the complex value otherwise.  Elementwise on an
    array t.  verify.phase_integral_bound checks on it the lemma behind r_delta.

    Evaluated as log1p(w) / 2 pi i, with 1 + w = (1 - xi e^{-2 pi i t}) / (1 - xi e^{2 pi i t}),
    so w = 2i xi sin(2 pi t) / (1 - xi e^{2 pi i t}), and log1p(w) = log1p(2 Re w + |w|^2) / 2 +
    i atan2(Im w, 1 + Re w).  For |xi| < 1 both logs' arguments have positive real part, so the
    difference of their principal branches is the principal log of the ratio.  At small t the two
    logs nearly cancel: their difference erred 1.1e-4 relative at (0.3i, 1e-13), and this form is
    within 3e-15 of 40-digit mpmath there and for t up to 0.8.
    """
    z = complex(xi)
    if abs(z) >= 1.0:
        raise ValueError(f"lambda_xi requires |xi| < 1, got |xi| = {abs(z)}")
    t = np.asarray(t, dtype=float)
    w = 2j * z * np.sin(2.0 * math.pi * t) / (1.0 - z * np.exp(2j * math.pi * t))
    value = (0.5 * np.log1p(2.0 * w.real + abs(w) ** 2) + 1j * np.arctan2(w.imag, 1.0 + w.real)) / (2j * math.pi)
    if z.imag == 0.0:
        value = value.real
    return value if value.ndim else value.item()


def r_delta(delta: float) -> float:
    """Deviation constant of the smoothing integral: finite for delta > 1, -> 1/48 as delta grows."""
    if not (delta > 1.0):
        raise ValueError(f"r_delta requires delta > 1, got {delta}")
    root = math.sqrt((delta - 1.0) / 2.0)
    return (math.sqrt(2.0 / (delta - 1.0)) + math.atan(root)) / (24.0 * math.pi)


def kernel_mass(delta: float) -> float:
    """Integral of J_delta(1 + s^2/2) over the real line, (2/pi) arctan sqrt((delta - 1)/2): the
    kernel is (1/4 pi) log(1 + 4/s^2) - L(delta) on |s| <= tau = sqrt(2 delta - 2), L(delta) being
    the first term at tau, and by parts Integral_0^tau log(1 + 4/s^2) ds = tau log(1 + 4/tau^2) +
    4 arctan(tau/2).  The case-c shift and verify.smoothing_bracket both read it."""
    if not (delta > 1.0):
        raise ValueError(f"kernel_mass requires delta > 1, got {delta}")
    return (2.0 / math.pi) * math.atan(math.sqrt((delta - 1.0) / 2.0))


def N_delta_eps(delta: float, eps: float, xi: complex) -> float:
    """Smoothing integral of J_delta(1 + (eps t)^2/2) against the rotated Poisson kernel.

    The integrand is supported on |t| <= tau = sqrt(2 delta - 2)/eps and has
    an integrable log singularity at t = 0.  J is even in t, so the halves fold
    into J (P(e^{2 pi i t} xi) + P(e^{-2 pi i t} xi)) on (0, tau], which one
    engine call integrates in log(t) coordinates to N_ABS_TOL; the head below
    tau * 1e-16 contributes less than 1e-12 and is dropped.
    """
    if not (delta > 1.0):
        raise ValueError(f"N_delta_eps requires delta > 1, got {delta}")
    if not (eps > 0.0):
        raise ValueError(f"N_delta_eps requires eps > 0, got {eps}")
    z = complex(xi)
    if abs(z) >= 1.0:
        raise ValueError(f"N_delta_eps requires |xi| < 1, got |xi| = {abs(z)}")
    tau = math.sqrt(2.0 * delta - 2.0) / eps
    L_delta = kernel_L(delta)
    half = 0.5 * eps * eps

    def g(x: np.ndarray) -> np.ndarray:
        t = np.exp(x)
        h = half * t * t  # J_delta(1 + h) from h = u - 1 itself, accurate for h near 0
        phase = np.exp(2j * math.pi * t)
        kernel = poisson_kernel(phase * z) + poisson_kernel(phase.conj() * z)
        return np.clip(np.log((2.0 + h) / h) / (4.0 * math.pi) - L_delta, 0.0, None) * kernel * t

    return integrate(g, math.log(tau * _HEAD_CUT), math.log(tau), abs_tol=N_ABS_TOL)


def _spread(delta: float) -> float:
    """delta + sqrt(delta^2 - 1), the factor in both radius inequalities."""
    return delta + math.sqrt(delta * delta - 1.0)


def admissible_eps(delta: float, min_c: float) -> tuple[float, float]:
    """Largest neighbourhood radii (eps_prime_max, eps_max) for a given delta and min_c."""
    if not (delta > 1.0):
        raise ValueError(f"admissible_eps requires delta > 1, got {delta}")
    if not (min_c > 0.0):
        raise ValueError(f"admissible_eps requires min_c > 0, got {min_c}")
    spread = _spread(delta)
    eps_prime_max = min_c / math.sqrt(spread)
    return eps_prime_max, eps_prime_max / spread


@dataclass(frozen=True)
class CuspGeometry:
    """Neighbourhood radii eps < eps_prime around the cusp, plus group data.

    count_pm1 = #(group intersect {+-1}): 2 when -1 belongs to the group.
    The two radius inequalities are the hypotheses under which close
    displacements are translations (inner radius) and far points stay at
    kernel distance >= delta (outer radius).  They are checked in the float
    order of admissible_eps, so its maxima pass.
    """

    eps: float
    eps_prime: float
    delta: float
    min_c: float
    count_pm1: int

    def __post_init__(self) -> None:
        if not (self.delta > 1.0):
            raise ConstraintViolation(f"delta must exceed 1, got {self.delta}")
        if not (0.0 < self.eps < self.eps_prime):
            raise ConstraintViolation(
                f"radii must satisfy 0 < eps < eps_prime, got ({self.eps}, {self.eps_prime})"
            )
        if not (self.min_c > 0.0):
            raise ConstraintViolation(f"min_c must be positive, got {self.min_c}")
        if self.count_pm1 not in (1, 2):
            raise ConstraintViolation(f"count_pm1 must be 1 or 2, got {self.count_pm1}")
        eps_prime_max = admissible_eps(self.delta, self.min_c)[0]
        if self.eps_prime > eps_prime_max:
            raise ConstraintViolation(
                f"eps_prime ({self.eps_prime}) exceeds min_c/sqrt(delta + sqrt(delta^2-1)) = {eps_prime_max:.7f}"
            )
        eps_max = self.eps_prime / _spread(self.delta)
        if self.eps > eps_max:
            raise ConstraintViolation(f"eps ({self.eps}) exceeds eps_prime/(delta + sqrt(delta^2-1)) = {eps_max:.7f}")

    @classmethod
    def of(cls, eps: float, eps_prime: float, params: ParamSet, group: GroupContext) -> CuspGeometry:
        """The radii eps < eps_prime around the cusp of a certificate at params over group: its
        delta, the group's min_c, and count_pm1 = 2 when -1 belongs to the group, else 1."""
        return cls(eps, eps_prime, params.trapezoid.delta, group.min_c, 2 if group.contains_minus_one else 1)


# The logarithmic offsets each case subtracts from the Green function.
_OFFSETS = {
    "a": "subtract (1/vol) log(eps * height(z))",
    "a_prime": "subtract (1/vol) log(eps * height(w))",
    "b": "subtract (1/vol) log(eps * height(z)) + (1/vol) log(eps * height(w))",
    "c": "subtract count_pm1/(2 pi) log|q(z) - q(w)| + (1/vol) log(eps' * height(z)) "
    "+ (1/vol) log(eps' * height(w))",
}
_CASES = tuple(_OFFSETS)


@dataclass(frozen=True)
class CuspBoundReport:
    """Certificate transported to a cusp configuration.

    For cases a / a_prime / b the interval [base_A, base_B] applies to the
    Green function minus the offsets described in offset_terms.  Case c
    carries its own interval [A_tilde, B_tilde], whose ends must be finite.
    """

    case: str
    base_A: float
    base_B: float
    offset_terms: str
    A_tilde: float | None = None
    B_tilde: float | None = None

    def __post_init__(self) -> None:
        if self.case not in _CASES:
            raise ConstraintViolation(f"case must be one of {_CASES}, got {self.case!r}")
        if (self.A_tilde is None) != (self.B_tilde is None):
            raise ConstraintViolation("A_tilde and B_tilde must be set together")
        if self.A_tilde is not None and not (math.isfinite(self.A_tilde) and math.isfinite(self.B_tilde)):
            raise ConstraintViolation(f"extended ends must be finite, got {self.A_tilde}, {self.B_tilde}")
        if self.A_tilde is not None and self.base_A <= self.base_B:
            if not (self.A_tilde <= self.B_tilde):
                raise ConstraintViolation(
                    f"extended interval is empty: {self.A_tilde} > {self.B_tilde}"
                )


def extend_bounds(base: BoundReport, geom: CuspGeometry, case: str) -> CuspBoundReport:
    """Transport the base certificate to one of the four cusp configurations.

    a:  z in the inner disc, w in the thick part outside the outer disc.
    a_prime:  the mirror configuration.
    b:  z and w in inner discs of two distinct cusps.  Both logarithmic
        offsets use the z-side inner radius eps; callers tracking distinct
        radii per cusp must substitute their own second radius.
    c:  z and w in the same outer disc; the interval shifts by
        count_pm1 (1 - kernel_mass(delta)) / eps' and widens by
        count_pm1 eps' r_delta on each side.
    """
    if case not in _CASES:
        raise ConstraintViolation(f"case must be one of {_CASES}, got {case!r}")
    if case != "c":
        return CuspBoundReport(case=case, base_A=base.A, base_B=base.B, offset_terms=_OFFSETS[case])
    shift = 1.0 - kernel_mass(geom.delta)
    shift *= geom.count_pm1 / geom.eps_prime
    half_width = geom.count_pm1 * geom.eps_prime * r_delta(geom.delta)
    return CuspBoundReport(
        case=case,
        base_A=base.A,
        base_B=base.B,
        offset_terms=_OFFSETS[case],
        A_tilde=base.A + shift - half_width,
        B_tilde=base.B + shift + half_width,
    )
