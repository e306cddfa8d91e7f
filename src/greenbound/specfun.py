"""Special functions in plain doubles, each with a documented truncation rule.

* hyp2f1: the Gauss hypergeometric series.
* log_gamma_complex: upward recurrence and the Stirling series.
* legendre_P_negm and legendre_P_neg1: P^{-m}_{s-1}(u) for every order m >= 0, by Pfaff's
  hypergeometric form near u = 1 (_near_one says where) and a descending series elsewhere.
* legendre_Q_deriv: Q_nu'(u).
* C_sigma, p_sigma, gamma_ratio_bounds and gamma_ratio_upper: the explicit
  constants of the spectral-side estimates.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from greenbound.errors import NonConvergenceError

SQRT_PI = math.sqrt(math.pi)

_MAX_TERMS = 10**6

# Bernoulli coefficients B_{2k} / (2k (2k-1)) for the Stirling series.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def log_gamma_complex(z: complex) -> complex:
    """log Gamma(z) via upward recurrence to Re z >= 10 plus the Stirling series.

    Raises at the poles (nonpositive real integers).  The imaginary part is
    only branch-normalized for Re z > 0; every use in this package either has
    Re z > 0 or exponentiates the result, which kills the 2 pi i ambiguity.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise ValueError(f"log Gamma pole at {z}")
    shift = 0.0 + 0.0j
    while z.real < 10.0:
        shift += cmath.log(z)
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    series = 0.0 + 0.0j
    power = w
    for coeff in _STIRLING:
        series += coeff * power
        power *= w2
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series - shift


def _recip_gamma(z: complex) -> complex:
    """1 / Gamma(z), entire; exactly 0 at the poles of Gamma."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0.0 + 0.0j
    if z.real >= 0.5:
        return cmath.exp(-log_gamma_complex(z))
    # Reflection: 1/Gamma(z) = sin(pi z) Gamma(1 - z) / pi.
    return cmath.sin(math.pi * z) * cmath.exp(log_gamma_complex(1.0 - z)) / math.pi


def hyp2f1(a: complex, b: complex, c: complex, z):
    """Gauss hypergeometric series F(a, b; c; z) for real |z| < 1.

    Terms follow the ratio recurrence t_{n+1} = t_n (a+n)(b+n) z / ((c+n)(n+1)); summation stops
    once three consecutive terms fall below 1e-16 times the partial sum (after at least ten terms).
    For positive z near 1 the terms decay like z^n, so the rule drops a tail of about the last term
    times z / (1 - z); no caller sums there (_P_negm_near_one sums at z <= 1/11 in _near_one's zone
    and z < 1/2 in legendre_P_neg1's, legendre_Q_deriv at 1/x^2).  Elementwise on an array z, each
    entry stopping by that rule on its own (its sum stays fixed while the others go on).  Real a, b,
    c give a float (or float64 array) summed in floats, complex ones a complex (or complex array).
    Past 1e6 terms it raises NonConvergenceError.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.abs(z) < 1.0):
        raise ValueError(f"hyp2f1 series requires |z| < 1, got max |z| = {np.max(np.abs(z))}")
    if _is_nonpositive_integer(complex(c)):
        raise ValueError(f"hyp2f1 undefined for c = {c}")
    # A scalar runs in Python arithmetic, many times faster than numpy on one entry; the loop
    # reads the same for both.  The sums start real and turn complex with a complex term ratio.
    if z.ndim:
        total = term = np.ones(z.shape)
        live, any_live = np.ones(z.shape, dtype=bool), np.any
    else:
        z, total, term, live, any_live = float(z), 1.0, 1.0, True, bool
    small_run = 0
    for n in range(_MAX_TERMS):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1))) * z
        total = total + term * live
        small_run = (small_run + 1) * (abs(term) < 1e-16 * abs(total))
        if n > 10:
            live = live & (small_run < 3)
            if not any_live(live):
                return total
    raise NonConvergenceError(f"hyp2f1 did not converge for max |z| = {np.max(np.abs(z))}")


def legendre_P_neg1(s: complex, u: float) -> complex:
    """Order -1 Legendre function P^{-1}_{s-1}(u) on the cut, for 1 < u < 3.

    Where (u - 1) max(|s(1-s)|, 1) <= 10, Pfaff's form _P_negm_near_one: its argument (u-1)/(u+1) < 1/2
    ends the sum in at most about 70 terms, which cancel by about two digits at most.  Elsewhere the
    descending series of legendre_P_negm.  The zone reaches past _near_one's cap on u - 1 because that
    series divides by cos(pi s): near s = 1/2, where order_one_bracket samples, all of 1 < u < 3 is in it.
    """
    if not (1.0 < u < 3.0):
        raise ValueError(f"legendre_P_neg1 requires 1 < u < 3, got u = {u}")
    near = (u - 1.0) * max(abs(s * (1.0 - s)), 1.0) <= 10.0
    return _P_negm_near_one(1, complex(s), u) if near else legendre_P_negm(1, s, u)


def legendre_Q_deriv(nu: float, u: float) -> float:
    """Derivative Q_nu'(u) for finite nu >= 0 and u > 1, in hypergeometric form.

    With G = Gamma(1+nu) Gamma(2+nu) / Gamma(2+2nu) and z = 2/(u+1), Q_nu'(u) = -(2/(u+1))^nu G
    F(nu, 1+nu; 2+2nu; z) / (u^2-1).  Two quadratic transformations (DLMF 15.8(iii)) move the argument
    away from 1.  F(nu, nu+1; 2nu+2; z) = (1 - z/2)^-nu F(nu/2, (nu+1)/2; nu+3/2; (z/(2-z))^2), with
    1 - z/2 = u/(u+1) and z/(2-z) = 1/u, gives -(2/u)^nu G F(nu/2, (nu+1)/2; nu+3/2; 1/u^2) / (u^2-1).
    F(a, a+1/2; c; y) = ((1+r)/2)^-2a F(2a, 2a-c+1; c; (1-r)/(1+r)), with r = sqrt(1 - 1/u^2), (1+r)/2
    = x/(2u) and (1-r)/(1+r) = 1/x^2 for x = u + sqrt(u^2-1), then gives the form summed here:
    Q_nu'(u) = -(4/x)^nu G F(-1/2, nu; nu+3/2; 1/x^2) / (u^2-1).  A series crawls as its argument
    nears 1; as u -> 1 its gap to 1 is (u-1)/2 for z, 2(u-1) for 1/u^2 and 2 sqrt(2(u-1)) for 1/x^2, whose
    terms (c - a - b = 2) also fall like n^-3: about 400 of them at u - 1 = 1e-3.  F is in (0, 1] and
    (4/x)^nu meets G in one exponent, so nothing overflows at large nu; the lgamma terms leave a relative
    error up to about nu * 2e-15.  u^2 - 1 is (u-1)(u+1), a few ulps near u = 1.  Always negative.
    """
    if not (0.0 <= nu < math.inf and u > 1.0):
        raise ValueError(f"legendre_Q_deriv requires finite nu >= 0 and u > 1, got nu = {nu}, u = {u}")
    gap = (u - 1.0) * (u + 1.0)
    x = u + math.sqrt(gap)
    log_g = math.lgamma(1.0 + nu) + math.lgamma(2.0 + nu) - math.lgamma(2.0 + 2.0 * nu)
    return -math.exp(nu * math.log(4.0 / x) + log_g) / gap * hyp2f1(-0.5, nu, nu + 1.5, 1.0 / (x * x))


def _near_one(s: complex, u: np.ndarray) -> np.ndarray:
    """Entries that _P_negm_near_one evaluates: (u-1) max(|s(1-s)|, 1) <= 10 and u - 1 <= 0.2.

    There the terms of Pfaff's form peak near exp(2 sqrt(|s(1-s)| zeta)) <= e^4.5, zeta = (u-1)/(u+1)
    <= 1/11, so they cancel by at most about two digits and end in a few dozen terms.  For m <= 2 the
    cap on u - 1 is a speed choice, as that sum converges for every u < 3: past it, it takes 30-50 terms
    where the descending series takes 12-16 (one zone up to u = 3 cost perfbench's spectral-strip
    median job 16%).  The descending series needs about 17 / sqrt(2 (u - 1)) terms near u = 1 and
    cancels there, which is what the zone avoids; at the cap (s = 1/4 + i/2) its error grows about
    tenfold an order, from 2e-15 at m = 0 to 2e-13 at m = 2, 1e-12 at m = 3 and 1e-11 at m = 4.
    """
    return ((u - 1.0) * max(abs(s * (1.0 - s)), 1.0) <= 10.0) & (u - 1.0 <= 0.2)


def _P_negm_near_one(m: int, s: complex, u):
    """P^{-m}_{s-1}(u) = zeta^{m/2} ((u+1)/2)^{s-1} F(1+m-s, 1-s; 1+m; zeta) / m!, zeta = (u-1)/(u+1),
    for integer m >= 0 and 1 < u < 3, elementwise (a float u sums in Python arithmetic in hyp2f1).
    DLMF 14.3.1 by Pfaff's transformation (DLMF 15.8.1): one form for every order, whose argument
    stays in [0, 1/2) where that of F(s, 1-s; 1+m; (1-u)/2) tends to -1 and its terms barely decay."""
    zeta = (u - 1.0) / (u + 1.0)
    series = hyp2f1(1.0 + m - s, 1.0 - s, 1.0 + m, zeta)
    return zeta ** (0.5 * m) * (0.5 * (u + 1.0)) ** (s - 1.0) / math.factorial(m) * series


@functools.lru_cache(maxsize=64)
def _descending_gammas(m: int, s: complex) -> tuple[complex, complex]:
    """The n = 0 Gamma factors G1(0), G2(0) of the descending series; one
    I_delta_pm asks for them about 7 times at the same s (261 calls, 234 hits,
    on the 36 seeded I_delta_pm jobs of perfbench's spectral-strip, seeds 1-3)."""
    return (
        _recip_gamma(m + 1.0 - s) * _recip_gamma(0.5 + s),
        _recip_gamma(m + 0.0 + s) * _recip_gamma(1.5 - s),
    )


def _P_negm_descending(m: int, s: complex, u: np.ndarray) -> np.ndarray:
    """The descending series of legendre_P_negm on a 1-D array u > 1."""
    x = u + np.sqrt(u * u - 1.0)
    inv_x2 = 1.0 / (x * x)

    # x^{m-s} and x^{m-1+s}; each subsequent term carries another x^{-2}.
    pow1 = np.exp((m - s) * np.log(x))
    pow2 = np.exp((m - 1.0 + s) * np.log(x))

    g1, g2 = _descending_gammas(m, s)
    scale = (x - 1.0 / x) ** m

    coeff = 1.0  # (-1)^n (1/2 - m)_n / n!
    total = np.zeros(x.size, dtype=complex)
    out = np.empty(x.size, dtype=complex)
    todo = np.arange(x.size)  # entries still summing; the arrays above hold only these
    for n in range(_MAX_TERMS):
        if not todo.size:
            break
        part1 = g1 * pow1
        part2 = g2 * pow2
        total += coeff * (part1 - part2)
        if n == 0 and not np.isfinite(total + scale).all():  # past u ~ 1e154, else it never stops
            bad = u[~np.isfinite(total + scale)][0]
            raise NonConvergenceError(f"legendre_P_negm series terms are not finite at u = {bad}")
        if n >= m + 2:
            # For n >= m every factor ratio has modulus < 1, so both parts
            # decay at least geometrically with ratio x^-2; bound the tail by
            # the current part magnitudes rather than their difference, which
            # may cancel.
            tail = abs(coeff) * (np.abs(part1) + np.abs(part2)) * inv_x2 / (1.0 - inv_x2)
            done = tail < 1e-15 * np.abs(total)
            out[todo[done]] = total[done]
            todo, total, pow1, pow2, inv_x2 = (v[~done] for v in (todo, total, pow1, pow2, inv_x2))
        # Advance n -> n+1.
        coeff *= (m - 0.5 - n) / (n + 1.0)
        pow1 *= inv_x2
        pow2 *= inv_x2
        g1 *= (m - n - s) / (n + 0.5 + s)
        g2 *= (m - n - 1.0 + s) / (n + 1.5 - s)
    else:
        raise NonConvergenceError(f"legendre_P_negm series did not converge at u = {u[todo[0]]}")

    prefactor = SQRT_PI / (scale * cmath.cos(math.pi * s))
    return prefactor * out


def legendre_P_negm(m: int, s: complex, u):
    """Order -m Legendre function P^{-m}_{s-1}(u) for every integer m >= 0 and u > 1.

    m is an int or a numpy integer; anything else, a float such as 2.0 too, raises ValueError.

    Each entry of u takes one of two forms (_near_one says why).  Near u = 1, where
    (u - 1) max(|s(1-s)|, 1) <= 10 and u - 1 <= 0.2, Pfaff's form _P_negm_near_one.  Everywhere
    else, the descending series in x = u + sqrt(u^2 - 1) > 1:

        P^{-m}_{s-1}(u) = sqrt(pi) / ((x - 1/x)^m cos(pi s)) *
            sum_n ((1/2 - m)_n / n!) (-1)^n [ G1(n) x^{m-s-2n}
                                              - G2(n) x^{m-1+s-2n} ],

    with G1(n) = 1/(Gamma(m-n+1-s) Gamma(n+1/2+s)) and G2(n) = 1/(Gamma(m-n+s) Gamma(n+3/2-s)).
    This is the raw tan(pi s)-prefactored series with the reflection formula folded into each term,
    which keeps every factor finite: at s = 1 the reciprocal Gammas vanish on the former pole terms
    and the series terminates.

    Every entry is evaluated as a scalar call would evaluate it: each form is elementwise, and each
    entry stops at its own cutoff.  The Gamma factors G1(0), G2(0) are cached per (m, s).

    The strip point s = 1/2 is a removable singularity handled analytically but not numerically, as
    cos(pi s) vanishes there; inputs within 1e-3 of it (both components) are rejected.  An entry
    whose series terms overflow (u past about 1e154) raises NonConvergenceError naming its u.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"legendre_P_negm requires an integer m >= 0, got m = {m!r}")
    m = int(m)  # a numpy integer would turn the descending series' complex factors into numpy ones
    u = np.asarray(u, dtype=float)
    if not np.all(u > 1.0):
        raise ValueError(f"legendre_P_negm requires u > 1, got min u = {np.min(u)}")
    s = complex(s)
    if abs(s.real - 0.5) < 1e-3 and abs(s.imag) < 1e-3:
        raise ValueError(f"legendre_P_negm excluded zone around s = 1/2, got s = {s}")

    flat = u.ravel()
    near = _near_one(s, flat)
    value = np.empty(flat.size, dtype=complex)
    if near.any():
        value[near] = _P_negm_near_one(m, s, flat[near])
    if not near.all():
        value[~near] = _P_negm_descending(m, s, flat[~near])
    value = value.reshape(u.shape)
    return value if value.ndim else complex(value)


def C_sigma(sigma: float) -> tuple[float, float]:
    """Strip constants (C_sigma, C_sigma') for 0 < sigma < 1/2.

    C_sigma  = max(1, tan(pi sigma)) (1/sigma - 1)^{1/4}
               exp(1/2 + 1/(24 sigma (1/2 + sigma)))
    C_sigma' = same with exp(1/2 + 1/(24 (1 - sigma) (3/2 - sigma))).
    """
    if not (0.0 < sigma < 0.5):
        raise ValueError(f"C_sigma requires 0 < sigma < 1/2, got {sigma}")
    if sigma < 1.2e-4:  # the exp below overflows near sigma = 1.17e-4
        raise ValueError(f"C_sigma overflows for sigma below 1.2e-4, got {sigma}")
    common = max(1.0, math.tan(math.pi * sigma)) * (1.0 / sigma - 1.0) ** 0.25
    c_main = common * math.exp(0.5 + 1.0 / (24.0 * sigma * (0.5 + sigma)))
    c_prime = common * math.exp(0.5 + 1.0 / (24.0 * (1.0 - sigma) * (1.5 - sigma)))
    return c_main, c_prime


def p_sigma(sigma: float, u):
    """Envelope p_sigma(u) controlling |P^{-2}_{s-1}(u)| (u^2 - 1) on the strip.

    p_sigma(u) = (C_sigma x^{2-sigma} + C_sigma' x^{1+sigma}) / (4 sqrt(pi)) *
                 ((1 - x^{-2})^{3/2} + 3 x^{-2}),   x = u + sqrt(u^2 - 1),

    defined for u >= 1 (x = 1 gives the finite limit 3 (C + C') / (4 sqrt(pi))).
    Elementwise on an array u; a scalar u gives a float.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(u >= 1.0):
        raise ValueError(f"p_sigma requires u >= 1, got min u = {np.min(u)}")
    c_main, c_prime = C_sigma(sigma)
    x = u + np.sqrt(u * u - 1.0)
    inv_x2 = 1.0 / (x * x)
    shape = (1.0 - inv_x2) ** 1.5 + 3.0 * inv_x2
    value = (c_main * x ** (2.0 - sigma) + c_prime * x ** (1.0 + sigma)) / (4.0 * SQRT_PI) * shape
    return value if value.ndim else float(value)


def gamma_ratio_bounds(a: float, b: float, y: float) -> tuple[float, float]:
    """Two-sided sandwich for |Gamma(a + iy) / Gamma(b + iy)|, 0 < a <= b.

    core  = (a^2 + y^2)^{a/2 - 1/4} / (b^2 + y^2)^{b/2 - 1/4}
    lower = exp(-(1/12)(1/a - 1/b)) core
    upper = exp(b - a + (1/12)(1/a - 1/b)) core
    """
    if not (0.0 < a <= b):
        raise ValueError(f"gamma_ratio_bounds requires 0 < a <= b, got a={a}, b={b}")
    wiggle = (1.0 / a - 1.0 / b) / 12.0
    log_core = (0.5 * a - 0.25) * math.log(a * a + y * y) - (0.5 * b - 0.25) * math.log(b * b + y * y)
    return math.exp(-wiggle + log_core), math.exp(b - a + wiggle + log_core)


def gamma_ratio_upper(a: float, b: float, y: float) -> float:
    """Simplified decay bound exp(b - a + (1/12)(1/a - 1/b)) (a^2 + y^2)^{-(b-a)/2}.

    Valid for b >= a > 0 with b >= 1/2; always dominates the sharp sandwich
    upper bound because (b^2 + y^2)^{b/2 - 1/4} >= (a^2 + y^2)^{b/2 - 1/4}.
    """
    if not (b >= a > 0.0):
        raise ValueError(f"gamma_ratio_upper requires b >= a > 0, got a={a}, b={b}")
    if not (b >= 0.5):
        raise ValueError(f"gamma_ratio_upper requires b >= 1/2, got b = {b}")
    wiggle = (1.0 / a - 1.0 / b) / 12.0
    return math.exp(b - a + wiggle) * (a * a + y * y) ** (-(b - a) / 2.0)
