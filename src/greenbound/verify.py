"""Numeric checks shared by the command line and the test suite.

Each check is one function of its sample count n (and, for random checks, a
seed) that returns a CheckResult; a failed inequality is reported, never
raised.  The defaults are the full sizes the test suite runs.
reproduction_battery replays the published constants (count cap, volume
terms, majorant caps, assembled certificates); property_battery runs the
analytic identities and inequalities at the short sizes in PROPERTY_CHECKS.
A short run of a random check tests a prefix of the full run's samples, and
a short grid check the first n points of its grid.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from greenbound._quad import integrate
from greenbound.bounds import (
    COUNT_CAP_STANDARD,
    HEADLINE_A,
    HEADLINE_B,
    ROUNDED_D_MINUS,
    ROUNDED_D_PLUS,
    ROUNDED_Q_MINUS,
    ROUNDED_Q_PLUS,
    assemble,
    compute_D,
    compute_q,
    enclose_D,
    group_preset,
    reference_params,
)
from greenbound.cusps import N_delta_eps, admissible_eps, lambda_xi, poisson_kernel, r_delta
from greenbound.geom import UnimodularMatrix, UpperHalfPoint, mobius_apply, point_u
from greenbound.lattice import (
    count_bound,
    enumerate_group_elements,
    exact_count,
    reduce_to_fundamental_domain,
    truncated_fundamental_domain,
    u_of_gamma,
)
from greenbound.specfun import (
    gamma_ratio_bounds,
    gamma_ratio_upper,
    legendre_P_neg1,
    legendre_P_negm,
    legendre_Q_deriv,
    log_gamma_complex,
)
from greenbound.transforms import h_U, h_U_pm, h_U_pm_at_one, h_a, resolvent_difference


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail line with a value-bearing detail string."""

    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def count_check(grid: tuple[int, int] = (100, 100)) -> CheckResult:
    """Count cap on the truncated domain at U = 17: 216 within 5%."""
    cert = count_bound(truncated_fundamental_domain(), 17.0, grid)
    return _result(
        "count",
        206 <= cert.bound <= 227,
        f"bound {cert.bound} on {grid[0]}x{grid[1]} grid, target 216 within 5% "
        f"([206, 227]), {cert.pairs} kernel pairs",
    )


def volume_checks() -> list[CheckResult]:
    """Closed-form volume terms against 68.41 and -215.84 and their rounded caps."""
    q_plus, q_minus = compute_q(reference_params(), group_preset("sl2z"))
    return [
        _result(
            "q_plus",
            abs(q_plus - 68.41) <= 0.02 and q_plus < ROUNDED_Q_PLUS,
            f"q_plus = {q_plus:.6f}, target 68.41 +- 0.02, cap {ROUNDED_Q_PLUS}",
        ),
        _result(
            "q_minus",
            abs(q_minus - (-215.84)) <= 0.02 and q_minus > ROUNDED_Q_MINUS,
            f"q_minus = {q_minus:.6f}, target -215.84 +- 0.02, cap {ROUNDED_Q_MINUS}",
        ),
    ]


def majorant_cap_checks(D: tuple[float, float]) -> list[CheckResult]:
    """Majorant integrals D = compute_D(reference_params()) against their rounded
    caps; D_plus fails at the reference parameters (see the package documentation)."""
    D_plus, D_minus = D
    return [
        _result(
            "D_plus",
            D_plus <= ROUNDED_D_PLUS,
            f"D_plus = {D_plus:.8f} vs cap {ROUNDED_D_PLUS} "
            "(computed integral exceeds the rounded cap at the reference parameters)",
        ),
        _result(
            "D_minus",
            D_minus <= ROUNDED_D_MINUS,
            f"D_minus = {D_minus:.8f} vs cap {ROUNDED_D_MINUS}",
        ),
    ]


def assembly_checks(D: tuple[float, float]) -> list[CheckResult]:
    """Headline interval in paper arithmetic; strictly tighter in theorem-exact mode on D."""
    ctx = group_preset("sl2z")
    params = reference_params()
    paper = assemble(params, ctx, COUNT_CAP_STANDARD, mode="paper-arithmetic")
    exact = assemble(params, ctx, COUNT_CAP_STANDARD, mode="theorem-exact", D=D)
    return [
        _result(
            "paper_A",
            abs(paper.A - (-28682.0)) <= 100.0,
            f"paper-arithmetic A = {paper.A:.4f}, target -28682 +- 100",
        ),
        _result(
            "paper_B",
            abs(paper.B - 15080.0) <= 100.0,
            f"paper-arithmetic B = {paper.B:.4f}, target 15080 +- 100",
        ),
        _result(
            "exact_A",
            exact.A > HEADLINE_A,
            f"theorem-exact A = {exact.A:.4f}, strictly above headline {HEADLINE_A}",
        ),
        _result(
            "exact_B",
            exact.B < HEADLINE_B,
            f"theorem-exact B = {exact.B:.4f}, strictly below headline {HEADLINE_B}",
        ),
    ]


def reproduction_battery(grid: tuple[int, int] = (100, 100)) -> list[CheckResult]:
    """Replay the published constants; one record per reproduced number.  D is
    enclosed once, for both the cap checks and the theorem-exact assembly."""
    D = compute_D(reference_params())
    return [count_check(grid), *volume_checks(), *majorant_cap_checks(D), *assembly_checks(D)]


def random_unimodular(rng: random.Random) -> UnimodularMatrix:
    """Random word of six inversions and small translations; entries stay modest."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(6):
        k = rng.randint(-3, 3)
        # right-multiply by the translation by k, then by the inversion
        a, b = a, a * k + b
        c, d = c, c * k + d
        a, b, c, d = b, -a, d, -c
    return UnimodularMatrix(a=a, b=b, c=c, d=d)


def _strip_point(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """(x, s): x - 1 uniform in [lo, hi] and a real s in [1/2, 1] with
    s (1 - s) uniform in [0, min(1/4, 1/(2 (x - 1)))], the bracket lemmas' window."""
    x = 1.0 + rng.uniform(lo, hi)
    lam = rng.uniform(0.0, min(0.25, 0.5 / (x - 1.0)))
    return x, 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * lam))


def displacement_identity(n: int = 1000, seed: int = 4102) -> CheckResult:
    """u(z, gamma z) by the count kernel (u_of_gamma, _low's bits on a point) against u of the explicit image."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n):
        gamma = random_unimodular(rng)
        z = UpperHalfPoint(rng.uniform(-2.0, 2.0), 5.0 ** rng.uniform(-1.0, 1.0))
        direct = u_of_gamma(gamma, z)
        oracle = point_u(z, mobius_apply(gamma, z))
        worst = max(worst, abs(direct - oracle) / oracle)
    return _result(
        "displacement-identity",
        worst <= 1e-12,
        f"orbit displacement vs explicit image on {n} samples, worst relative gap "
        f"{worst:.2e} <= 1e-12",
    )


def order_two_closed_form(n: int = 200, seed: int = 52012) -> CheckResult:
    """Order-two function at s = 1 against (u - 1)/(2u + 2), u - 1 log-uniform in [1e-6, 99]."""
    rng = random.Random(seed)
    u = 1.0 + np.exp([rng.uniform(math.log(1e-6), math.log(99.0)) for _ in range(n)])
    closed = (u - 1.0) / (2.0 * u + 2.0)
    worst = np.max(np.abs(legendre_P_negm(2, 1.0, u).real - closed) / closed)
    return _result(
        "order-two-closed-form",
        worst <= 1e-12,
        f"order-two function at s = 1 vs (u-1)/(2u+2) on {n} samples, worst relative gap "
        f"{worst:.2e}",
    )


def order_one_bracket(n: int = 500, seed: int = 52010) -> CheckResult:
    """(2 - 4/pi) sqrt((u-1)/(u+1)) <= P^{-1}_{s-1}(u) <= (4/pi) sqrt((u-1)/(u+1))."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(n):
        u, s = _strip_point(rng, 1e-6, 1.9999)
        value = legendre_P_neg1(s, u).real
        scale = math.sqrt((u - 1.0) / (u + 1.0))
        violations += not ((2.0 - 4.0 / math.pi) * scale <= value <= (4.0 / math.pi) * scale)
    return _result(
        "order-one-bracket",
        violations == 0,
        f"(2 - 4/pi) sqrt((u-1)/(u+1)) <= P <= (4/pi) sqrt(...), {violations} violations / {n}",
    )


def q_derivative_bracket(n: int = 500, seed: int = 52011, u_min: float = 1e-3) -> CheckResult:
    """-(2/(u+1))^nu / (u^2 - 1) <= Q'_nu(u) <= 0 for u - 1 in [u_min, 99]; the
    hypergeometric series slows down as u -> 1, so short runs start further out."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(n):
        nu = rng.uniform(0.0, 10.0)
        u = 1.0 + math.exp(rng.uniform(math.log(u_min), math.log(99.0)))
        floor = -((2.0 / (u + 1.0)) ** nu) / (u * u - 1.0)
        violations += not (floor <= legendre_Q_deriv(nu, u) <= 0.0)
    return _result(
        "q-derivative-bracket",
        violations == 0,
        f"-(2/(u+1))^nu/(u^2-1) <= Q' <= 0 for u - 1 >= {u_min:g}, {violations} violations / {n}",
    )


def gamma_ratio_sandwich(n: int = 1000, seed: int = 52013) -> CheckResult:
    """Closed two-sided bounds on |Gamma(a+iy)/Gamma(b+iy)| against the log-gamma oracle."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(n):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(a, a + 5.0)
        y = rng.uniform(-50.0, 50.0)
        low, high = gamma_ratio_bounds(a, b, y)
        log_ratio = log_gamma_complex(complex(a, y)) - log_gamma_complex(complex(b, y))
        oracle = math.exp(log_ratio.real)
        # for b >= 1/2 the simplified decay bound must dominate the sharp one
        simplified = b < 0.5 or gamma_ratio_upper(a, b, y) >= high
        violations += not (low <= oracle <= high and simplified)
    return _result(
        "gamma-ratio-sandwich",
        violations == 0,
        f"closed bounds vs log-gamma oracle, simplified upper bound above the sharp one, "
        f"{violations} violations / {n}",
    )


def transform_bracket(n: int = 300, seed: int = 60001) -> CheckResult:
    """(4 pi - 8)(U - 1) <= h_U(s) <= 8 (U - 1) on the real strip window."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(n):
        U, s = _strip_point(rng, 0.01, 1.99)
        violations += not ((4.0 * math.pi - 8.0) * (U - 1.0) <= h_U(s, U).real <= 8.0 * (U - 1.0))
    return _result(
        "transform-bracket",
        violations == 0,
        f"(4 pi - 8)(U-1) <= h_U(s) <= 8(U-1), {violations} violations / {n}",
    )


_TRAPEZOID_ENDS_U = (2.0, 2.5, 3.0, 5.0, 9.0, 4.0)


def trapezoid_ends(n: int = len(_TRAPEZOID_ENDS_U)) -> CheckResult:
    """Averaged transforms at s = 1 vs the closed area: real 1e-10, imaginary 1e-12 relative."""
    params = reference_params().trapezoid
    worst_real = worst_imag = 0.0
    for U in _TRAPEZOID_ENDS_U[:n]:
        for sign in (+1, -1):
            series = h_U_pm(params, sign, 1.0, U)
            closed = h_U_pm_at_one(params, sign, U)
            worst_real = max(worst_real, abs(series.real - closed) / abs(closed))
            worst_imag = max(worst_imag, abs(series.imag) / abs(closed))
    return _result(
        "trapezoid-ends",
        worst_real <= 1e-10 and worst_imag <= 1e-12,
        f"averaged transform at s = 1 vs closed trapezoid area at {n} thresholds, worst gap "
        f"{worst_real:.2e}, imaginary part {worst_imag:.2e}",
    )


def resolvent_identities(n: int = 100, seed: int = 60003) -> CheckResult:
    """h_a(s) - h_b(s) against its factored closed form (within 1e-12) and the
    exact symmetry h_a(s) = h_a(1 - s); the displayed closed form must
    deviate (by more than 1e-6), since it is kept only for comparison."""
    rng = random.Random(seed)
    worst = displayed = 0.0
    asymmetric = 0
    for _ in range(n):
        a = rng.uniform(1.1, 4.0)
        b = rng.uniform(1.1, 4.0)
        s = complex(rng.uniform(0.0, 1.0), rng.uniform(-10.0, 10.0))
        direct = h_a(a, s) - h_a(b, s)
        worst = max(worst, abs(resolvent_difference(a, b, s, "factored") - direct))
        displayed = max(displayed, abs(resolvent_difference(a, b, s, "displayed") - direct))
        asymmetric += h_a(a, s) != h_a(a, 1.0 - s)
    return _result(
        "resolvent-identities",
        worst <= 1e-12 and asymmetric == 0 and displayed > 1e-6,
        f"difference factorization worst gap {worst:.2e} <= 1e-12, s <-> 1-s symmetry "
        f"broken {asymmetric} / {n}, displayed form off by {displayed:.2e} > 1e-6",
    )


def poisson_convolution(n: int = 10, seed: int = 90100) -> CheckResult:
    """Circular convolution of two Poisson kernels is the kernel of the product point."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n):
        zeta = rng.uniform(0.0, 0.9) * cmath.exp(2j * math.pi * rng.random())
        eta = rng.uniform(0.0, 0.9) * cmath.exp(2j * math.pi * rng.random())

        def integrand(t: np.ndarray) -> np.ndarray:
            phase = np.exp(2j * math.pi * t)
            return poisson_kernel(phase * zeta) * poisson_kernel(eta / phase)

        value = integrate(integrand, 0.0, 1.0, abs_tol=1e-10)
        worst = max(worst, abs(value - poisson_kernel(zeta * eta)))
    return _result(
        "poisson-convolution",
        worst <= 1e-8,
        f"rotated kernel convolution vs product point on {n} pairs, worst gap {worst:.2e} <= 1e-8",
    )


def phase_fourier_series(n: int = 20, seed: int = 90200) -> CheckResult:
    """lambda(xi, t) against sum over n < 400 of xi^n sin(2 pi n t)/(pi n)."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n):
        xi = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.0, 2.0)
        series = sum(xi**k * math.sin(2.0 * math.pi * k * t) / k for k in range(1, 400))
        worst = max(worst, abs(lambda_xi(xi, t) - series / math.pi))
    return _result(
        "phase-fourier-series",
        worst <= 1e-10,
        f"log-difference phase vs Fourier series on {n} samples, worst gap {worst:.2e}",
    )


# (delta, eps, xi): three short-run points, one off the real axis, then the 3 x 3 x 5 grid.
_SMOOTHING_SHORT = ((2.0, 0.3, 0.5), (1.5, 0.1, -0.5), (3.0, 0.05, 0.45 + 0.45j))
_SMOOTHING_POINTS = _SMOOTHING_SHORT + tuple(
    p
    for p in itertools.product((1.5, 2.0, 3.0), (0.05, 0.1, 0.3), (0.0, 0.5, -0.5, 0.9, 0.5j))
    if p not in _SMOOTHING_SHORT
)


def smoothing_bracket(n: int = len(_SMOOTHING_POINTS)) -> CheckResult:
    """The smoothed count sits within eps r_delta of its main term
    (1/eps)(2/pi) arctan sqrt((delta-1)/2) - (1/2 pi) log|1 - xi|."""
    violations = 0
    for delta, eps, xi in _SMOOTHING_POINTS[:n]:
        value = N_delta_eps(delta, eps, xi)
        main = (2.0 / math.pi) * math.atan(math.sqrt((delta - 1.0) / 2.0)) / eps
        main -= math.log(abs(1.0 - xi)) / (2.0 * math.pi)
        violations += abs(value - main) > eps * r_delta(delta)
    return _result(
        "smoothing-bracket",
        violations == 0,
        f"smoothing integral within eps r_delta of its closed center, "
        f"{violations} violations / {n}",
    )


def _sample_outside_outer_disc(rng: random.Random, eps_prime: float) -> UpperHalfPoint:
    """Point whose whole orbit stays at height <= 1/eps_prime: its reduced point, the highest, does."""
    ceiling = 1.0 / eps_prime
    for _ in range(200):
        w = UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.05, min(ceiling, 2.0)))
        if reduce_to_fundamental_domain(w)[0].y <= ceiling:
            return w
    raise RuntimeError(f"could not sample a point outside the outer disc (eps' = {eps_prime})")


def _cusp_distance_holds(delta: float, eps: float, eps_prime: float, rng: random.Random) -> bool:
    """Two samples of each cusp-distance implication in the modular group; False on a counterexample.

    (a) If z and w have height >= 1/eps', each gamma with u(z, gamma w) < delta is a translation.
    (b) If z has height >= 1/eps and the orbit of w stays below 1/eps', every u(z, gamma w) >= delta.
    """
    for _ in range(2):
        z = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(1.0, 2.0) / eps_prime)
        w = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(1.0, 2.0) / eps_prime)
        if any(value < delta and gamma.c != 0 for gamma, value in enumerate_group_elements(z, w, delta)):
            return False
    for _ in range(2):
        z = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(1.0, 2.0) / eps)
        w = _sample_outside_outer_disc(rng, eps_prime)
        if any(value < delta for _, value in enumerate_group_elements(z, w, delta)):
            return False
    return True


def cusp_distance_lemma(n: int = 50, seed: int = 90300) -> CheckResult:
    """Both cusp-distance implications on n radius pairs, two samples each: delta in [1.5, 3],
    eps' a fraction in [0.3, 0.95] of its admissible maximum at min_c = 1, and eps such a fraction of eps'/spread."""
    rng = random.Random(seed)
    failures = 0
    for k in range(n):
        delta = rng.uniform(1.5, 3.0)
        eps_prime_max, eps_max = admissible_eps(delta, 1.0)
        scale = rng.uniform(0.3, 0.95)
        eps = rng.uniform(0.3, 0.95) * scale * eps_max
        failures += not _cusp_distance_holds(delta, eps, scale * eps_prime_max, random.Random(seed + 100 + k))
    return _result(
        "cusp-distance-lemma",
        failures == 0,
        f"translations-only and far-orbit implications, {failures} failures / {n} configurations",
    )


def count_certificate_soundness(
    n: int = 200, seed: int = 70200, grid: tuple[int, int] = (40, 40)
) -> CheckResult:
    """The grid certificate at U = 17 caps the exact count at n sampled points
    of the truncated domain, and the points count at least the identity pair."""
    box = truncated_fundamental_domain()
    cert = count_bound(box, 17.0, grid)
    rng = random.Random(seed)
    worst = 0
    for _ in range(n):
        z = UpperHalfPoint(rng.uniform(box.x_min, box.x_max), rng.uniform(box.y_min, box.y_max))
        worst = max(worst, exact_count(z, z, 17.0))
    return _result(
        "count-certificate-soundness",
        2 <= worst <= cert.bound,
        f"max exact count {worst} <= certified bound {cert.bound} "
        f"({grid[0]}x{grid[1]} grid) on {n} points",
    )


def majorant_stability() -> CheckResult:
    """The majorant enclosures at the reference parameters are at most 1e-6 wide, relative."""
    widths = [(hi - lo) / lo for lo, hi in enclose_D(reference_params())]
    detail = f"majorant integral enclosures {widths[0]:.2e} (plus) and {widths[1]:.2e} (minus) wide"
    return _result("majorant-stability", all(0.0 < w <= 1e-6 for w in widths), detail + " relative, each <= 1e-6")


# The property checks in battery order, each with the size selftest runs.
PROPERTY_CHECKS = (
    (displacement_identity, {"n": 200}),
    (order_two_closed_form, {"n": 50}),
    (order_one_bracket, {"n": 100}),
    (q_derivative_bracket, {"n": 100, "u_min": 1e-2}),
    (gamma_ratio_sandwich, {"n": 200}),
    (transform_bracket, {"n": 100}),
    (trapezoid_ends, {"n": 5}),
    (resolvent_identities, {"n": 50}),
    (poisson_convolution, {"n": 3}),
    (phase_fourier_series, {"n": 20}),
    (smoothing_bracket, {"n": 3}),
    (cusp_distance_lemma, {"n": 5}),
    (count_certificate_soundness, {"n": 20, "grid": (20, 20)}),
    (majorant_stability, {}),
)


def property_battery() -> list[CheckResult]:
    """The analytic property checks at their short selftest sizes."""
    return [check(**size) for check, size in PROPERTY_CHECKS]
