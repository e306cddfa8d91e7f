"""Numeric checks shared by the command line and the test suite, and the ledger of what each proves.

Each check is one function of its sample count n alone that returns a CheckResult; a failed
inequality is reported, never raised.  A random check draws from its own fixed seed.  The defaults
are the full sizes the test suite runs.  reproduction_battery replays the published constants from
one nine-row table, each value printed as its repr, to the last bit; it reads q+- and D+- from the
theorem-exact report.  property_battery runs the analytic identities and inequalities at the short
sizes in PROPERTY_CHECKS, which sets n and nothing else.  A short run tests a prefix of the full
run, with no exceptions: a random check draws the first n of the full run's samples (same seed,
same range), a grid check takes the first n points of its grid.  The unit suite asserts each
property check once, at full size (tests/test_verify.py).

The ledger.  Each row of the two tables, PROPERTY_CHECKS and reproduction_battery's, names the step
of the certificate it supports, one key of STEPS, which states each step in one line; selftest and
reproduce-paper print it as "PASS  <name> [<step>]: <detail>", and their --json records carry it as
"step".  Why the checks of each step support it:

* K_a -> gr.  K_a's spectral transform is h_a (greenbound.transforms), and the singular part of the
  limit is L = Q_0 / (2 pi) (greenbound.geom).  The limit's lemmas are identities of h_a and the
  sign and size of Q'_nu.
* N_bar.  The count kernel's u(z, gamma z) must be u of the explicit image, and the grid
  certificate of greenbound.lattice must cap the exact counts and stay within the N_bar the
  certificate uses, COUNT_CAP_STANDARD.
* S(eta).  The 2 pi - 4 of the prefactor is half the lower constant 4 pi - 8 of the sharp-cutoff
  bracket (4 pi - 8)(U - 1) <= h_U(s) <= 8 (U - 1), the order-one Legendre bracket times
  2 pi sqrt(U^2 - 1).
* q+-.  P^{-2}_0(u) = (u-1)/(2u+2), so (u^2 - 1) P^{-2}_0(u) = (u - 1)^2 / 2, and the difference
  quotient that defines h_U^+- is at s = 1 the trapezoid area that bounds.compute_q's closed forms
  average over U.
* D+-.  compute_D takes the upper ends of enclosures at most D_REL_WIDTH wide.  The envelope's
  constants (specfun.C_sigma) carry exp(1/2 + 1/(24 sigma (1/2 + sigma))) and
  exp(1/2 + 1/(24 (1 - sigma)(3/2 - sigma))): the upper Gamma-ratio constant
  exp(b - a + (1/12)(1/a - 1/b)) at (a, b) = (sigma, sigma + 1/2) and (1 - sigma, 3/2 - sigma).
* A, B.  Paper arithmetic replays the published certificate, and the theorem-exact one lies
  strictly inside the headline interval.
* cusp extension.  The smoothed count N_delta_eps integrates J_delta against the rotated Poisson
  kernel, whose circular convolutions are Poisson kernels again.  For real xi the phase lambda(xi, t)
  has t-derivative P(e^{2 pi i t} xi) - 1, so by parts, with the phase lemma, it carries the log|1 - xi|
  term of the smoothed count's centre and its width eps r_delta.  The cusp-distance implications pick the case.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from greenbound._quad import integrate
from greenbound.bounds import (
    COUNT_CAP_STANDARD,
    COUNT_GRID,
    COUNT_RADIUS,
    D_REL_WIDTH,
    HEADLINE_A,
    HEADLINE_B,
    ROUNDED_D_MINUS,
    ROUNDED_D_PLUS,
    ROUNDED_Q_MINUS,
    ROUNDED_Q_PLUS,
    assemble,
    enclose_D,
    group_preset,
    reference_params,
)
from greenbound.cusps import N_delta_eps, admissible_eps, kernel_mass, lambda_xi, poisson_kernel, r_delta
from greenbound.geom import UnimodularMatrix, UpperHalfPoint, mobius_apply, point_u
from greenbound.lattice import (
    COUNT_WITNESS,
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
    p_sigma,
)
from greenbound.transforms import h_U_pm, h_U_pm_at_one, h_a, resolvent_difference


# The certificate's steps in the order the bound is built, each with the statement its checks support;
# the module docstring says why each kind of check supports its step.
STEPS = {
    "K_a -> gr": "gr is the limit as a -> 1 of the resolvent kernels K_a = (1/2 pi) Q_{a-1}",
    "N_bar": "N_bar caps the displacement counts N(z, z, COUNT_RADIUS) on the truncated domain",
    "S(eta)": "S(eta) turns eigenfunction sums into counts, with the prefactor pi/(2 pi - 4)^2",
    "q+-": "q+- are the s = 1 terms, the trapezoid areas h_U^+-(1) = 2 pi (U-1) + pi (W-U) averaged over U",
    "D+-": "D+- are proved upper bounds on the integrals of the strip envelope of |P^{-2}_{s-1}(u)| (u^2 - 1)",
    "A, B": "A = -q_plus - D_plus S(eta) N_bar and B = -q_minus + D_minus S(eta) N_bar",
    "cusp extension": "extend_bounds moves [A, B] into a cusp neighbourhood",
}


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail line with a value-bearing detail string, and the key of STEPS that its
    table row names (empty for a check run outside the batteries)."""

    name: str
    passed: bool
    detail: str
    step: str = ""


def _result(name: str, passed: bool, detail: str, step: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail, step=step)


def reproduction_battery(grid: tuple[int, int] = COUNT_GRID) -> list[CheckResult]:
    """Replay the published constants: one record per row of a table of (name, value, predicate,
    target, step), its detail "<name> = <repr(value)>, <target>".  D_plus fails at the reference
    parameters (see the package documentation).  The q and D rows read the theorem-exact report."""
    cert = count_bound(truncated_fundamental_domain(), COUNT_RADIUS, grid)
    ctx, params = group_preset("sl2z"), reference_params()
    paper = assemble(params, ctx, COUNT_CAP_STANDARD, mode="paper-arithmetic")
    exact = assemble(params, ctx, COUNT_CAP_STANDARD, mode="theorem-exact")
    q_plus, q_minus, D_plus, D_minus = exact.q_plus, exact.q_minus, exact.D_plus, exact.D_minus
    table = (
        ("count", cert.bound, 206 <= cert.bound <= 227,
         f"target 216 within 5% ([206, 227]) on {grid[0]}x{grid[1]} grid, {cert.pairs} kernel pairs", "N_bar"),
        ("q_plus", q_plus, abs(q_plus - 68.41) <= 0.02 and q_plus < ROUNDED_Q_PLUS,
         f"target 68.41 +- 0.02, cap {ROUNDED_Q_PLUS}", "q+-"),
        ("q_minus", q_minus, abs(q_minus - (-215.84)) <= 0.02 and q_minus > ROUNDED_Q_MINUS,
         f"target -215.84 +- 0.02, cap {ROUNDED_Q_MINUS}", "q+-"),
        ("D_plus", D_plus, D_plus <= ROUNDED_D_PLUS,
         f"cap {ROUNDED_D_PLUS} (computed integral exceeds the rounded cap at the reference parameters)", "D+-"),
        ("D_minus", D_minus, D_minus <= ROUNDED_D_MINUS, f"cap {ROUNDED_D_MINUS}", "D+-"),
        ("paper_A", paper.A, abs(paper.A - (-28682.0)) <= 100.0, "paper-arithmetic, target -28682 +- 100", "A, B"),
        ("paper_B", paper.B, abs(paper.B - 15080.0) <= 100.0, "paper-arithmetic, target 15080 +- 100", "A, B"),
        ("exact_A", exact.A, exact.A > HEADLINE_A, f"theorem-exact, strictly above headline {HEADLINE_A}", "A, B"),
        ("exact_B", exact.B, exact.B < HEADLINE_B, f"theorem-exact, strictly below headline {HEADLINE_B}", "A, B"),
    )
    return [_result(name, passed, f"{name} = {value!r}, {target}", step) for name, value, passed, target, step in table]


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


def displacement_identity(n: int = 1000) -> CheckResult:
    """u(z, gamma z) by the count kernel (u_of_gamma, _low's bits on a point) against u of the explicit image."""
    rng = random.Random(4102)
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


def order_two_closed_form(n: int = 200) -> CheckResult:
    """Order-two function at s = 1 against (u - 1)/(2u + 2), u - 1 log-uniform in [1e-6, 99]."""
    rng = random.Random(52012)
    u = 1.0 + np.exp([rng.uniform(math.log(1e-6), math.log(99.0)) for _ in range(n)])
    closed = (u - 1.0) / (2.0 * u + 2.0)
    worst = np.max(np.abs(legendre_P_negm(2, 1.0, u).real - closed) / closed)
    return _result(
        "order-two-closed-form",
        worst <= 1e-12,
        f"order-two function at s = 1 vs (u-1)/(2u+2) on {n} samples, worst relative gap "
        f"{worst:.2e}",
    )


def order_one_bracket(n: int = 500) -> CheckResult:
    """(2 - 4/pi) sqrt((u-1)/(u+1)) <= P^{-1}_{s-1}(u) <= (4/pi) sqrt((u-1)/(u+1)).

    At u = U and multiplied by 2 pi sqrt(U^2 - 1) > 0, this is the sharp-cutoff
    corollary (4 pi - 8)(U - 1) <= h_U(s) <= 8 (U - 1) for the transform
    h_U(s) = 2 pi sqrt(U^2 - 1) P^{-1}_{s-1}(U) of the indicator of [1, U],
    on the same strip window and for U - 1 in [1e-6, 1.9999]."""
    rng = random.Random(52010)
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


def q_derivative_bracket(n: int = 500) -> CheckResult:
    """-(2/(u+1))^nu / (u^2 - 1) <= Q'_nu(u) <= 0 for nu in [0, 10] and u - 1 log-uniform in [1e-3, 99]."""
    rng = random.Random(52011)
    violations = 0
    for _ in range(n):
        nu = rng.uniform(0.0, 10.0)
        u = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(99.0)))
        floor = -((2.0 / (u + 1.0)) ** nu) / (u * u - 1.0)
        violations += not (floor <= legendre_Q_deriv(nu, u) <= 0.0)
    return _result(
        "q-derivative-bracket",
        violations == 0,
        f"-(2/(u+1))^nu/(u^2-1) <= Q' <= 0 for u - 1 >= 0.001, {violations} violations / {n}",
    )


def gamma_ratio_sandwich(n: int = 1000) -> CheckResult:
    """Closed two-sided bounds on |Gamma(a+iy)/Gamma(b+iy)| against the log-gamma oracle."""
    rng = random.Random(52013)
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


# (sigma, t): three short-run strips, the first where the full grid's worst ratio sits, then the rest of sigma
# in {0.1, 0.25, 0.306, 0.45} x 12 t log-spaced in [0.01, 50]; u: 12 in (1, 100], 12 with log2(u^2 - 1) in [7, 598].
_ENVELOPE_T = [0.01 * (50.0 / 0.01) ** (k / 11.0) for k in range(12)]
_ENVELOPE_SHORT = ((0.25, _ENVELOPE_T[10]), (0.1, _ENVELOPE_T[0]), (0.45, _ENVELOPE_T[8]))
_ENVELOPE_STRIPS = _ENVELOPE_SHORT + tuple(
    p for p in itertools.product((0.1, 0.25, 0.306, 0.45), _ENVELOPE_T) if p not in _ENVELOPE_SHORT
)
_ENVELOPE_U = np.array([1.0 + 1e-2 * (99.0 / 1e-2) ** (k / 11.0) for k in range(12)]
                       + [math.sqrt(1.0 + 2.0 ** (7.0 + 591.0 * k / 11.0)) for k in range(12)])


def envelope_bound(n: int = len(_ENVELOPE_STRIPS)) -> CheckResult:
    """|P^{-2}_{s-1}(u)| (u^2 - 1) <= |s(1 - s)|^{-5/4} p_sigma(u), the envelope D+- integrate, at n strip points
    x 24 u.  The step uses it for sigma in (0, 1/2), real t and u > 1 (enclose_D's nodes reach U^2 - 1 = 2^600); the
    check samples sigma in {0.1, 0.25, 0.306, 0.45}, t in [0.01, 50], u in [1.01, 1.0e90] (0.369 past u = 100)."""
    violations = 0
    worst = (0.0, 0.0, 0.0, 0.0)
    for sigma, t in _ENVELOPE_STRIPS[:n]:
        s = complex(sigma, t)
        ratio = np.abs(legendre_P_negm(2, s, _ENVELOPE_U)) * (_ENVELOPE_U * _ENVELOPE_U - 1.0)
        ratio /= abs(s * (1.0 - s)) ** -1.25 * p_sigma(sigma, _ENVELOPE_U)
        violations += int(np.sum(~(ratio <= 1.0)))
        k = int(np.argmax(ratio))
        worst = max(worst, (float(ratio[k]), sigma, t, float(_ENVELOPE_U[k])))
    ratio, sigma, t, u = worst
    return _result(
        "envelope-bound",
        violations == 0,
        f"|P^-2|(u^2-1) / (|s(1-s)|^-5/4 p_sigma(u)) at {n} strip points x 24 u in [1.01, 1.0e90], "
        f"worst ratio {ratio:.3f} at sigma = {sigma:g}, t = {t:.3g}, u = {u:.3g}, {violations} violations",
    )


_TRAPEZOID_ENDS_U = (2.0, 2.5, 3.0, 5.0, 9.0, 4.0)


def trapezoid_ends(n: int = len(_TRAPEZOID_ENDS_U)) -> CheckResult:
    """Trapezoid transforms h_U^+-(1), by their order-two series at s = 1, vs the closed area
    2 pi (U-1) + pi (W-U): real 1e-10, imaginary 1e-12 relative."""
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
        f"trapezoid transform at s = 1 vs closed trapezoid area at {n} thresholds, worst gap "
        f"{worst_real:.2e}, imaginary part {worst_imag:.2e}",
    )


def resolvent_identities(n: int = 100) -> CheckResult:
    """h_a(s) - h_b(s) against its closed form resolvent_difference (within 1e-12) and the
    exact symmetry h_a(s) = h_a(1 - s)."""
    rng = random.Random(60003)
    worst = 0.0
    asymmetric = 0
    for _ in range(n):
        a = rng.uniform(1.1, 4.0)
        b = rng.uniform(1.1, 4.0)
        s = complex(rng.uniform(0.0, 1.0), rng.uniform(-10.0, 10.0))
        direct = h_a(a, s) - h_a(b, s)
        worst = max(worst, abs(resolvent_difference(a, b, s) - direct))
        asymmetric += h_a(a, s) != h_a(a, 1.0 - s)
    return _result(
        "resolvent-identities",
        worst <= 1e-12 and asymmetric == 0,
        f"difference factorization worst gap {worst:.2e} <= 1e-12, s <-> 1-s symmetry broken {asymmetric} / {n}",
    )


def poisson_convolution(n: int = 10) -> CheckResult:
    """Circular convolution of two Poisson kernels is the kernel of the product point."""
    rng = random.Random(90100)
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


def phase_integral_bound(n: int = 16) -> CheckResult:
    """12 t |Integral_0^t lambda(xi, y)/y dy + (1/2) log(1 - xi)| <= 1, the phase lemma, at the first n of
    (xi, t) in {0.9, -0.8, 0.4, -0.3} x {7, 2, 0.5, 0.1}: xi-major, so a short run starts at the worst, (0.9, 7).
    The cusp step uses it at every t in (0, sqrt(2 delta - 2)/eps] and |xi| < 1 (the real part for complex
    xi); the check samples real xi in [-0.8, 0.9] and t in [0.1, 7], and past t = 7, 12 t |gap| tends to at
    most 6 Li_2(|xi|)/pi^2 < 1 (0.790 at xi = 0.9).  From t 1e-16, as in N_delta_eps, it leaves out < 2e-14."""
    worst = (0.0, 0.0, 0.0)
    for xi, t in itertools.islice(itertools.product((0.9, -0.8, 0.4, -0.3), (7.0, 2.0, 0.5, 0.1)), n):
        gap = integrate(lambda y: lambda_xi(xi, y) / y, t * 1e-16, t, abs_tol=1e-10) + 0.5 * math.log(1.0 - xi)
        worst = max(worst, (12.0 * t * abs(gap), xi, t))
    ratio, xi, t = worst
    return _result(
        "phase-integral-bound",
        ratio <= 1.0,
        f"12 t |int_0^t lambda/y dy + log(1 - xi)/2| <= 1 on {n} (xi, t) points, worst {ratio:.3f} at ({xi:g}, {t:g})",
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
    kernel_mass(delta) / eps - (1/2 pi) log|1 - xi|, with the case-c shift's kernel mass."""
    violations = 0
    for delta, eps, xi in _SMOOTHING_POINTS[:n]:
        value = N_delta_eps(delta, eps, xi)
        main = kernel_mass(delta) / eps
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


def cusp_distance_lemma(n: int = 50) -> CheckResult:
    """Both cusp-distance implications on n radius pairs, two samples each: delta in [1.5, 3],
    eps' a fraction in [0.3, 0.95] of its admissible maximum at min_c = 1, and eps such a fraction of eps'/spread."""
    rng = random.Random(90300)
    failures = 0
    for k in range(n):
        delta = rng.uniform(1.5, 3.0)
        eps_prime_max, eps_max = admissible_eps(delta, 1.0)
        scale = rng.uniform(0.3, 0.95)
        eps = rng.uniform(0.3, 0.95) * scale * eps_max
        failures += not _cusp_distance_holds(delta, eps, scale * eps_prime_max, random.Random(90400 + k))
    return _result(
        "cusp-distance-lemma",
        failures == 0,
        f"translations-only and far-orbit implications, {failures} failures / {n} configurations",
    )


def count_certificate_soundness(n: int = 200) -> CheckResult:
    """The 40x40 grid certificate at U = COUNT_RADIUS caps the exact count at the witness COUNT_WITNESS
    and at n points, the points count at least the identity pair, and the certified bound is at most
    COUNT_CAP_STANDARD, the default N_bar of the certificate.

    The points are uniform on the truncated domain [-1/2, 1/2] x [sqrt(3)/2, 2], the range on which the
    N_bar step caps N(z, z, COUNT_RADIUS).  Their floats miss the maximum, 214 on the arc |z|^2 = 2,
    so the witness, a rational point of that arc, is counted exactly in every run, which keeps a short
    run a prefix of the full one: exact_count on its Fraction coordinates decides each tie there exactly
    (its float point counts 210)."""
    from fractions import Fraction  # on first use, as in lattice.enumerate_group_elements

    box = truncated_fundamental_domain()
    cert = count_bound(box, COUNT_RADIUS, (40, 40))
    p, q, r = COUNT_WITNESS
    exact = UpperHalfPoint(Fraction(p, r), Fraction(q, r))
    witness = exact_count(exact, exact, COUNT_RADIUS)
    rng = random.Random(70200)
    worst = 0
    for _ in range(n):
        z = UpperHalfPoint(rng.uniform(box.x_min, box.x_max), rng.uniform(box.y_min, box.y_max))
        worst = max(worst, exact_count(z, z, COUNT_RADIUS))
    return _result(
        "count-certificate-soundness",
        2 <= worst <= cert.bound and witness <= cert.bound <= COUNT_CAP_STANDARD,
        f"exact count {witness} at the witness ({p} + {q}i)/{r} and max {worst} on {n} points"
        f" <= certified bound {cert.bound} (40x40 grid) <= N_bar {COUNT_CAP_STANDARD:g}",
    )


def majorant_stability() -> CheckResult:
    """The majorant enclosures at the reference parameters pass compute_D's test, 0 < hi - lo <= D_REL_WIDTH lo."""
    enclosures = enclose_D(reference_params())
    plus, minus = ((hi - lo) / lo for lo, hi in enclosures)
    cap = np.format_float_scientific(D_REL_WIDTH, trim="-", exp_digits=1)
    detail = f"majorant integral enclosures {plus:.2e} (plus) and {minus:.2e} (minus) wide relative, each <= {cap}"
    return _result("majorant-stability", all(0.0 < hi - lo <= D_REL_WIDTH * lo for lo, hi in enclosures), detail)


# The property checks in battery order, each with the size selftest runs and the step it supports.
PROPERTY_CHECKS = (
    (displacement_identity, {"n": 200}, "N_bar"),
    (order_two_closed_form, {"n": 50}, "q+-"),
    (order_one_bracket, {"n": 100}, "S(eta)"),
    (q_derivative_bracket, {"n": 100}, "K_a -> gr"),
    (gamma_ratio_sandwich, {"n": 200}, "D+-"),
    (envelope_bound, {"n": 3}, "D+-"),
    (trapezoid_ends, {"n": 5}, "q+-"),
    (resolvent_identities, {"n": 50}, "K_a -> gr"),
    (poisson_convolution, {"n": 3}, "cusp extension"),
    (phase_integral_bound, {"n": 3}, "cusp extension"),
    (smoothing_bracket, {"n": 3}, "cusp extension"),
    (cusp_distance_lemma, {"n": 5}, "cusp extension"),
    (count_certificate_soundness, {"n": 20}, "N_bar"),
    (majorant_stability, {}, "D+-"),
)


def property_battery() -> list[CheckResult]:
    """The analytic property checks at their short selftest sizes, each carrying its step."""
    return [replace(check(**size), step=step) for check, size, step in PROPERTY_CHECKS]
