"""Extension of the Green function certificate to cusp neighbourhoods.

The base certificate A <= gr + kernel sum <= B holds on the thick part of
the quotient.  Near a cusp the Green function grows like a multiple of
log of the cusp height, so the certificate is transported by subtracting
explicit logarithmic offsets; when both points sit deep in the same cusp
neighbourhood an extra shift and a widening of the interval appear.  The
widening is controlled by the smoothing integral

    N(xi) = integral of J_delta(1 + (eps t)^2 / 2) P(e^{2 pi i t} xi) dt,

where P is the Poisson kernel of the unit disc: N deviates from
(1/eps)(2/pi) arctan sqrt((delta-1)/2) - (1/2 pi) log|1 - xi| by at most
eps times the constant r_delta.

The geometry is the single-cusp model: cusp at infinity with identity
scaling, cusp height = Im z, stabilizer = integer translations, and the
rest of the group summarized by min_c, the smallest positive lower-left
entry.  Multi-cusp groups need the neighbourhood-disjointness hypothesis
checked by the caller.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from greenbound._quad import integrate
from greenbound.bounds import BoundReport
from greenbound.errors import ConstraintViolation
from greenbound.geom import UpperHalfPoint, kernel_L
from greenbound.lattice import enumerate_group_elements, reduce_to_fundamental_domain

TWO_PI = 2.0 * math.pi
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
    array t.
    """
    z = complex(xi)
    if abs(z) >= 1.0:
        raise ValueError(f"lambda_xi requires |xi| < 1, got |xi| = {abs(z)}")
    phase = np.exp(2j * math.pi * np.asarray(t, dtype=float))
    value = (np.log(1.0 - z / phase) - np.log(1.0 - z * phase)) / (2j * math.pi)
    if z.imag == 0.0:
        value = value.real
    return value if value.ndim else value.item()


def r_delta(delta: float) -> float:
    """Deviation constant of the smoothing integral: finite for delta > 1, -> 1/48 as delta grows."""
    if not (delta > 1.0):
        raise ValueError(f"r_delta requires delta > 1, got {delta}")
    root = math.sqrt((delta - 1.0) / 2.0)
    return (math.sqrt(2.0 / (delta - 1.0)) + math.atan(root)) / (24.0 * math.pi)


def _J_from_h(h: np.ndarray, L_delta: float) -> np.ndarray:
    # J_delta(1 + h) computed from h = u - 1 directly; safe for h near 0.
    value = np.log((2.0 + h) / h) / (4.0 * math.pi) - L_delta
    return np.clip(value, 0.0, None)


def N_delta_eps(delta: float, eps: float, xi: complex) -> float:
    """Smoothing integral of J_delta(1 + (eps t)^2/2) against the rotated Poisson kernel.

    The integrand is supported on |t| <= tau = sqrt(2 delta - 2)/eps and has
    an integrable log singularity at t = 0.  Each half is integrated in
    log(t) coordinates (adaptive Clenshaw-Curtis on arrays of log t, to an
    absolute tolerance, no panel refined below 50 * 2^-52 of its CC17 of
    |integrand|); the head below tau * 1e-16 contributes less than 1e-12 and
    is dropped.
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

    total = 0.0
    for sign in (1.0, -1.0):

        def g(x: np.ndarray) -> np.ndarray:
            t = np.exp(x)
            kernel = poisson_kernel(np.exp(2j * math.pi * sign * t) * z)
            return _J_from_h(half * t * t, L_delta) * kernel * t

        total += integrate(g, math.log(tau * _HEAD_CUT), math.log(tau), abs_tol=0.5 * N_ABS_TOL)
    return total


def admissible_eps(delta: float, min_c: float) -> tuple[float, float]:
    """Largest neighbourhood radii (eps_prime_max, eps_max) for a given delta and min_c."""
    if not (delta > 1.0):
        raise ValueError(f"admissible_eps requires delta > 1, got {delta}")
    if not (min_c > 0.0):
        raise ValueError(f"admissible_eps requires min_c > 0, got {min_c}")
    spread = delta + math.sqrt(delta * delta - 1.0)
    eps_prime_max = min_c / math.sqrt(spread)
    return eps_prime_max, eps_prime_max / spread


@dataclass(frozen=True)
class CuspGeometry:
    """Neighbourhood radii eps < eps_prime around the cusp, plus group data.

    count_pm1 = #(group intersect {+-1}): 2 when -1 belongs to the group.
    The two radius inequalities are the hypotheses under which close
    displacements are translations (inner radius) and far points stay at
    kernel distance >= delta (outer radius).
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
        spread = self.delta + math.sqrt(self.delta * self.delta - 1.0)
        if self.eps_prime * math.sqrt(spread) > self.min_c:
            raise ConstraintViolation(
                f"eps_prime ({self.eps_prime}) exceeds min_c/sqrt(delta + sqrt(delta^2-1)) = "
                f"{self.min_c / math.sqrt(spread):.7f}"
            )
        if spread * self.eps > self.eps_prime:
            raise ConstraintViolation(
                f"eps ({self.eps}) exceeds eps_prime/(delta + sqrt(delta^2-1)) = "
                f"{self.eps_prime / spread:.7f}"
            )


_CASES = ("a", "a_prime", "b", "c")


@dataclass(frozen=True)
class CuspBoundReport:
    """Certificate transported to a cusp configuration.

    For cases a / a_prime / b the interval [base_A, base_B] applies to the
    Green function minus the offsets described in offset_terms.  Case c
    carries its own interval [A_tilde, B_tilde].
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
        count_pm1 [(1/eps')(1 - (2/pi) arctan sqrt((delta-1)/2))] and
        widens by count_pm1 eps' r_delta on each side.
    """
    if case not in _CASES:
        raise ConstraintViolation(f"case must be one of {_CASES}, got {case!r}")
    if case == "a":
        return CuspBoundReport(
            case=case,
            base_A=base.A,
            base_B=base.B,
            offset_terms="subtract (1/vol) log(eps * height(z))",
        )
    if case == "a_prime":
        return CuspBoundReport(
            case=case,
            base_A=base.A,
            base_B=base.B,
            offset_terms="subtract (1/vol) log(eps * height(w))",
        )
    if case == "b":
        return CuspBoundReport(
            case=case,
            base_A=base.A,
            base_B=base.B,
            offset_terms=(
                "subtract (1/vol) log(eps * height(z)) + (1/vol) log(eps * height(w))"
            ),
        )
    shift = (1.0 - (2.0 / math.pi) * math.atan(math.sqrt((geom.delta - 1.0) / 2.0)))
    shift *= geom.count_pm1 / geom.eps_prime
    half_width = geom.count_pm1 * geom.eps_prime * r_delta(geom.delta)
    return CuspBoundReport(
        case="c",
        base_A=base.A,
        base_B=base.B,
        offset_terms=(
            "subtract count_pm1/(2 pi) log|q(z) - q(w)| "
            "+ (1/vol) log(eps' * height(z)) + (1/vol) log(eps' * height(w))"
        ),
        A_tilde=base.A + shift - half_width,
        B_tilde=base.B + shift + half_width,
    )


def _sample_outside_outer_disc(
    rng: random.Random, eps_prime: float, attempts: int = 200
) -> UpperHalfPoint:
    """Point whose whole orbit stays at height <= 1/eps_prime.

    The reduced representative maximizes the height over the orbit, so the
    condition is checked after fundamental-domain reduction.
    """
    ceiling = 1.0 / eps_prime
    for _ in range(attempts):
        w = UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.05, min(ceiling, 2.0)))
        reduced, _ = reduce_to_fundamental_domain(w)
        if reduced.y <= ceiling:
            return w
    raise RuntimeError(f"could not sample a point outside the outer disc (eps' = {eps_prime})")


def check_lemma_bla(
    delta: float, eps: float, eps_prime: float, samples: int, seed: int = 20406
) -> bool:
    """Randomized verification of the two cusp-distance implications.

    Part (a): if both points have height >= 1/eps', every group element
    moving one within kernel distance < delta of the other is a
    translation.  Part (b): if z has height >= 1/eps and the orbit of w
    stays below height 1/eps', then u(z, gamma w) >= delta for all gamma.
    Uses the modular-group model (min_c = 1); admissibility of the radii is
    rejected up front.  Returns True iff no counterexample was found.
    """
    spread = delta + math.sqrt(delta * delta - 1.0)
    if eps_prime * math.sqrt(spread) > 1.0:
        raise ConstraintViolation(
            f"eps_prime ({eps_prime}) inadmissible for delta = {delta} with min_c = 1"
        )
    if spread * eps > eps_prime:
        raise ConstraintViolation(f"eps ({eps}) inadmissible: exceeds eps_prime/spread")
    rng = random.Random(seed)
    for _ in range(samples):
        z = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(1.0, 2.0) / eps_prime)
        w = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(1.0, 2.0) / eps_prime)
        for gamma, value in enumerate_group_elements(z, w, delta):
            if value < delta and gamma.c != 0:
                return False
    for _ in range(samples):
        z = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(1.0, 2.0) / eps)
        w = _sample_outside_outer_disc(rng, eps_prime)
        for _, value in enumerate_group_elements(z, w, delta):
            if value < delta:
                return False
    return True
