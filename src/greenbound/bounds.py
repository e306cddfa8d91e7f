"""Assembly of the explicit two-sided Green function bounds.

The certificate has the shape

    A <= gr(z, w) + sum over close gamma of (L(u(z, gamma w)) - L(delta)) <= B

with

    A = -q_plus  - D_plus  * S(eta) * N_bar,
    B = -q_minus + D_minus * S(eta) * N_bar,

where q_pm are closed-form volume terms, D_pm are integrals of the
spectral-side majorants of the averaged transforms, S(eta) is the factor
translating eigenfunction sums into lattice counts for a spectral gap eta,
and N_bar is a uniform bound on the average of the two displacement counts
N(z, z, 17) and N(w, w, 17).

Two arithmetic modes are supported.  theorem-exact (the default) evaluates
q_pm in closed form and D_pm by adaptive quadrature with a certified tail,
and includes the pi/(2 pi - 4)^2 prefactor in the spectral factor.
paper-arithmetic reproduces the historical headline numbers: it plugs in
the rounded caps q_plus = 69.0, q_minus = -216, D_plus = 18.5,
D_minus = 9.61 and omits the prefactor.  theorem-exact always gives the
tighter certificate; paper-arithmetic exists only for reproduction.

The group volume follows the stack convention (integrals over the quotient
carry a factor 1/#(Gamma intersect {+-1})), so the modular group has
volume pi/6, half the hyperbolic area of its fundamental domain.  The q
forensics force this normalization; see the numeric checks in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from greenbound._quad import integrate_to_infinity
from greenbound.errors import ConstraintViolation
from greenbound.specfun import p_sigma
from greenbound.transforms import (
    TrapezoidParams,
    T_of_U,
    V_of_U,
    averaged_transform_tail,
)

# Spectral gap presets for congruence subgroups: Selberg's classical 3/16,
# and the bound (25/64)(39/64) = 975/4096 from the best known progress
# towards his eigenvalue conjecture.
ETA_SELBERG = 3.0 / 16.0
ETA_KIM_SARNAK = 975.0 / 4096.0

VOLUME_MODULAR = math.pi / 6.0  # stack volume of SL(2, Z) \ H
MIN_C_MODULAR = 1.0  # smallest positive lower-left entry over SL(2, Z)

# Rounded constants of the historical arithmetic (paper-arithmetic mode).
ROUNDED_Q_PLUS = 69.0
ROUNDED_Q_MINUS = -216.0
ROUNDED_D_PLUS = 18.5
ROUNDED_D_MINUS = 9.61
COUNT_CAP_STANDARD = 216.0  # certified N(z, z, 17) cap on the truncated domain
HEADLINE_A = -2.87e4
HEADLINE_B = 1.51e4

# The constants above with their meaning, as reproduce-paper lists them.
CONSTANTS = {
    "volume_modular": (VOLUME_MODULAR, "stack volume pi/6 of the modular quotient"),
    "eta_selberg": (ETA_SELBERG, "classical spectral gap 3/16"),
    "eta_kim_sarnak": (ETA_KIM_SARNAK, "strongest supported spectral gap 975/4096"),
    "min_c_modular": (MIN_C_MODULAR, "smallest positive lower-left entry over the group"),
    "count_cap": (COUNT_CAP_STANDARD, "certified displacement count on the truncated domain"),
    "rounded_q_plus": (ROUNDED_Q_PLUS, "rounded cap on the plus volume term"),
    "rounded_q_minus": (ROUNDED_Q_MINUS, "rounded floor on the minus volume term"),
    "rounded_D_plus": (ROUNDED_D_PLUS, "rounded cap on the plus majorant integral"),
    "rounded_D_minus": (ROUNDED_D_MINUS, "rounded cap on the minus majorant integral"),
    "headline_A": (HEADLINE_A, "published lower certificate"),
    "headline_B": (HEADLINE_B, "published upper certificate"),
}

_MODES = ("theorem-exact", "paper-arithmetic")


@dataclass(frozen=True)
class GroupContext:
    """Group-level inputs: volume, spectral gap, -1 membership, cusp width floor.

    vol is the stack volume of the quotient; eta > 0 lower-bounds the
    nonzero spectrum of the Laplacian; min_c is the smallest positive value
    of the cusp-normalized lower-left entry over group elements outside the
    cusp stabilizer (1 for the modular group).
    """

    name: str
    vol: float
    eta: float
    contains_minus_one: bool
    min_c: float

    def __post_init__(self) -> None:
        if not (self.vol > 0.0 and math.isfinite(self.vol)):
            raise ConstraintViolation(f"group volume must be positive, got {self.vol}")
        if not (0.0 < self.eta <= 0.25):
            raise ConstraintViolation(f"spectral gap must lie in (0, 1/4], got {self.eta}")
        if not (self.min_c > 0.0 and math.isfinite(self.min_c)):
            raise ConstraintViolation(f"min_c must be positive, got {self.min_c}")


def group_preset(name: str) -> GroupContext:
    """Built-in group contexts; currently only "sl2z"."""
    if name == "sl2z":
        return GroupContext(
            name="sl2z",
            vol=VOLUME_MODULAR,
            eta=ETA_KIM_SARNAK,
            contains_minus_one=True,
            min_c=MIN_C_MODULAR,
        )
    raise ValueError(f"unknown group preset {name!r}; available: 'sl2z'")


def eta_presets() -> list[tuple[str, float]]:
    """Named spectral-gap presets, weakest first."""
    return [("selberg-3-16", ETA_SELBERG), ("kim-sarnak", ETA_KIM_SARNAK)]


@dataclass(frozen=True)
class ParamSet:
    """Full free-parameter set: trapezoid shape plus the strip abscissas.

    sigma_plus / sigma_minus are the real parts at which the averaged
    transforms are bounded on vertical lines.  Constructing a ParamSet
    checks alpha < sigma < 1/2 on both sides, and TrapezoidParams the rest of
    the eta-free hypotheses; validate() adds sigma (1 - sigma) <= eta for a
    group.
    """

    trapezoid: TrapezoidParams
    sigma_plus: float
    sigma_minus: float

    def __post_init__(self) -> None:
        for label, alpha, sigma in (
            ("plus", self.trapezoid.alpha_plus, self.sigma_plus),
            ("minus", self.trapezoid.alpha_minus, self.sigma_minus),
        ):
            if not (alpha < sigma):
                raise ConstraintViolation(
                    f"sigma_{label} must exceed alpha_{label}: {sigma} <= {alpha}"
                )
            if not (sigma < 0.5):
                raise ConstraintViolation(f"sigma_{label} must be below 1/2, got {sigma}")

    @property
    def delta(self) -> float:
        return self.trapezoid.delta

    @property
    def alpha_plus(self) -> float:
        return self.trapezoid.alpha_plus

    @property
    def alpha_minus(self) -> float:
        return self.trapezoid.alpha_minus

    @property
    def beta_plus(self) -> float:
        return self.trapezoid.beta_plus

    @property
    def beta_minus(self) -> float:
        return self.trapezoid.beta_minus


def reference_params() -> ParamSet:
    """The tuned parameter set behind the headline certificate (delta = 2)."""
    return ParamSet(
        trapezoid=TrapezoidParams(
            delta=2.0,
            alpha_plus=0.0366,
            alpha_minus=2.96e-3,
            beta_plus=2.72,
            beta_minus=0.668,
        ),
        sigma_plus=0.306,
        sigma_minus=0.250,
    )


def sigma_ceiling(eta: float) -> float:
    """Largest sigma in (0, 1/2] with sigma (1 - sigma) <= eta, as validate computes it.

    The closed-form root can round to a sigma whose float sigma (1 - sigma)
    exceeds eta (0.39999999999999997 at eta = 0.24); it is stepped down to
    the first float that passes.
    """
    if not (0.0 < eta <= 0.25):
        raise ConstraintViolation(f"spectral gap must lie in (0, 1/4], got {eta}")
    sigma = 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * eta))
    while sigma * (1.0 - sigma) > eta:
        sigma = math.nextafter(sigma, 0.0)
    return sigma


def validate(params: ParamSet, ctx: GroupContext) -> ParamSet:
    """Check the spectral-gap hypothesis sigma (1 - sigma) <= eta on both sides.

    The other hypotheses (delta > 1, alpha, beta > 0, alpha < sigma < 1/2 and
    the beta^- cap) hold for every constructed ParamSet.  Raises
    ConstraintViolation naming the first violating side; returns params
    unchanged.
    """
    for label, sigma in (("plus", params.sigma_plus), ("minus", params.sigma_minus)):
        if sigma * (1.0 - sigma) > ctx.eta:
            raise ConstraintViolation(
                f"sigma_{label} ({sigma}) has sigma (1 - sigma) = "
                f"{sigma * (1.0 - sigma):.6f} above the spectral gap {ctx.eta:.6f}"
            )
    return params


def compute_q(params: ParamSet, ctx: GroupContext) -> tuple[float, float]:
    """Closed-form volume terms (q_plus, q_minus); q_minus is always <= 0."""
    t = params.trapezoid
    log_term = math.log((t.delta + 1.0) / 2.0)
    q_plus = (t.beta_plus / (2.0 * t.alpha_plus * t.delta**t.alpha_plus) - log_term) / ctx.vol
    q_minus = -(t.beta_minus / (2.0 * t.alpha_minus * t.delta**t.alpha_minus) + log_term) / ctx.vol
    return q_plus, q_minus


def _side(params: ParamSet, sign: int) -> tuple[float, float, float]:
    """(sigma, alpha, beta) of the plus (sign > 0) or minus side."""
    t = params.trapezoid
    if sign > 0:
        return params.sigma_plus, t.alpha_plus, t.beta_plus
    return params.sigma_minus, t.alpha_minus, t.beta_minus


def _D_one_sign(params: ParamSet, sign: int, rel_tol: float) -> float:
    t = params.trapezoid
    sigma, alpha, beta = _side(params, sign)
    corner = V_of_U if sign > 0 else T_of_U

    def integrand(U: np.ndarray) -> np.ndarray:
        # past ~1e77 the intermediate powers overflow while the true
        # integrand (~U^{sigma+alpha-2}) underflows; the analytic tail
        # majorant covers everything from there on
        with np.errstate(over="ignore"):
            den = beta * (U * U - 1.0) ** 2
        value = np.zeros(U.shape)
        ok = den < np.inf
        u = U[ok]
        at_corner, at_u = p_sigma(sigma, np.concatenate([corner(t, u), u])).reshape(2, -1)
        value[ok] = (at_corner + at_u) * u ** (1.0 + alpha) / den[ok]
        return value

    def tail(M: float) -> float:
        return averaged_transform_tail(t, sign, sigma, M)

    value, tail_bound = integrate_to_infinity(integrand, t.delta, tail, rel_tol)
    # Adding the certified tail keeps the reported value an upper estimate.
    return value + tail_bound


def compute_D(params: ParamSet, rel_tol: float = 1e-6) -> tuple[float, float]:
    """Majorant integrals (D_plus, D_minus) over [delta, infinity).

    Each value is adaptive quadrature over octaves of [delta, M], on arrays
    of U, plus the analytic bound for the tail past M, so the results are
    upper estimates converging from above as rel_tol shrinks.  Each sign
    takes two engine calls of integrate_to_infinity, and each integrand call
    one p_sigma call on U and its corner together; at the reference
    parameters the march stops at M = delta 2^84 (plus) and 2^93 (minus).
    """
    return _D_one_sign(params, +1, rel_tol), _D_one_sign(params, -1, rel_tol)


# Outward rounding for enclose_D.  Every quantity it bounds is nonnegative, so
# a lower (upper) end is widened by the factor 1 - w (1 + w) after each
# operation.  With unit roundoff u = 2^-53 and a result of relative error at
# most e, fl(y (1 + w)) >= y (1 + w)(1 - u) >= exact value once w >= e + 2u
# (and symmetrically below).  The two widths cover:
_W_OP = 2.0**-51  # +, -, *, / and sqrt, correctly rounded (e <= u)
_W_LIBM = 2.0**-48  # **, exp and tan from libm or numpy SIMD: e up to 15 ulp
_TAIL_MARGIN = 2.0**-24  # on the plain float value of averaged_transform_tail
_ENCLOSE_PER_OCTAVE = 8192  # geometric panels per octave of [delta, M]
_ENCLOSE_OCTAVES = 100  # M = delta 2^100; averaged_transform_tail covers the rest
_ENCLOSE_CHUNK = 2**16  # nodes per vectorised evaluation, to bound memory


def _dn(x, w=_W_OP):
    return x * (1.0 - w)


def _up(x, w=_W_OP):
    return x * (1.0 + w)


def _C_sigma_enclosure(sigma: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Enclosures of C_sigma / (4 sqrt pi) and C_sigma' / (4 sqrt pi).

    Each factor of C_sigma is monotone in its rounded inputs (tan on
    (0, pi/2), x^{1/4}, exp and 1/x), so it is evaluated once per end with
    the matching widening; pi enters as the floats either side of math.pi.
    """
    pi_lo, pi_hi = math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0)
    arg_lo, arg_hi = _dn(pi_lo * sigma), _up(pi_hi * sigma)
    tan_lo = max(1.0, _dn(math.tan(arg_lo), _W_LIBM))
    tan_hi = max(1.0, _up(math.tan(arg_hi), _W_LIBM))
    root_lo = _dn(_dn(_dn(1.0 / sigma) - 1.0) ** 0.25, _W_LIBM)
    root_hi = _up(_up(_up(1.0 / sigma) - 1.0) ** 0.25, _W_LIBM)
    norm_lo, norm_hi = 4.0 * _dn(math.sqrt(pi_lo)), 4.0 * _up(math.sqrt(pi_hi))
    common_lo = _dn(_dn(tan_lo * root_lo) / norm_hi)
    common_hi = _up(_up(tan_hi * root_hi) / norm_lo)
    out = []
    for a_lo, a_hi, b_lo, b_hi in (
        (_dn(24.0 * sigma), _up(24.0 * sigma), _dn(0.5 + sigma), _up(0.5 + sigma)),
        (
            _dn(24.0 * _dn(1.0 - sigma)),
            _up(24.0 * _up(1.0 - sigma)),
            _dn(1.5 - sigma),
            _up(1.5 - sigma),
        ),
    ):
        # exp(1/2 + 1/(a b)) decreases in a and b
        e_lo = _dn(math.exp(_dn(0.5 + _dn(1.0 / _up(a_hi * b_hi)))), _W_LIBM)
        e_hi = _up(math.exp(_up(0.5 + _up(1.0 / _dn(a_lo * b_lo)))), _W_LIBM)
        out.append((_dn(common_lo * e_lo), _up(common_hi * e_hi)))
    return out[0], out[1]


def _x_power_part(x, sigma, consts, up):
    """(C x^{2-sigma} + C' x^{1+sigma}) / (4 sqrt pi) at x >= 1, rounded up or down.

    Uses x^{2-sigma} = x^2 / x^sigma and x^{1+sigma} = x x^sigma, one power.
    """
    (c_lo, c_hi), (cp_lo, cp_hi) = consts
    xs = x**sigma
    if up:
        big = _up(_up(x * x) / _dn(xs, _W_LIBM))
        return _up(_up(c_hi * big) + _up(cp_hi * _up(x * _up(xs, _W_LIBM))))
    big = _dn(_dn(x * x) / _up(xs, _W_LIBM))
    return _dn(_dn(c_lo * big) + _dn(cp_lo * _dn(x * _dn(xs, _W_LIBM))))


def _shape(x, up):
    """(1 - y)^{3/2} + 3 y at y = x^-2 (x >= 1), rounded up or down."""
    if up:
        y = np.minimum(_up(1.0 / _dn(x * x)), 1.0)
        rest = _up(1.0 - y)
        return _up(_up(rest * _up(np.sqrt(rest))) + _up(3.0 * y))
    y = _dn(1.0 / _up(x * x))
    rest = _dn(1.0 - y)
    return _dn(_dn(rest * _dn(np.sqrt(rest))) + _dn(3.0 * y))


def _x_of(w, up):
    """x = w + sqrt(w^2 - 1) at w >= 1, rounded up or down (and kept >= 1)."""
    if up:
        return _up(w + _up(np.sqrt(_up(_up(w * w) - 1.0))))
    return np.maximum(_dn(w + _dn(np.sqrt(np.maximum(_dn(_dn(w * w) - 1.0), 0.0)))), 1.0)


def _node_bounds(params: ParamSet, sign: int, u: np.ndarray) -> dict[str, np.ndarray]:
    """Directed values at the nodes u of the monotone pieces of the D integrand."""
    sigma, alpha, beta = _side(params, sign)
    consts = _C_sigma_enclosure(sigma)
    sq_lo, sq_hi = _dn(_dn(u * u) - 1.0), _up(_up(u * u) - 1.0)
    ua = u**alpha
    ua1_lo, ua1_hi = _dn(u * _dn(ua, _W_LIBM)), _up(u * _up(ua, _W_LIBM))  # U^{1+alpha}
    g_lo = _dn(_dn(_dn(ua1_lo / sq_hi) / sq_hi) / beta)
    g_hi = _up(_up(_up(ua1_hi / sq_lo) / sq_lo) / beta)
    # corner offset beta U^{-1-alpha} (U^2 - 1)
    m_lo = _dn(_dn(beta / ua1_hi) * sq_lo)
    m_hi = _up(_up(beta / ua1_lo) * sq_hi)
    if sign > 0:
        w_lo, w_hi = _dn(u + m_lo), _up(u + m_hi)
    else:  # T(U) >= 1 for U >= delta under the beta^- cap
        w_lo, w_hi = np.maximum(_dn(u - m_hi), 1.0), np.maximum(_up(u - m_lo), 1.0)
    xu_lo, xu_hi = _x_of(u, False), _x_of(u, True)
    xw_lo, xw_hi = _x_of(w_lo, False), _x_of(w_hi, True)
    return {
        # p_sigma(U) g(U) / beta decreases in U
        "own_lo": _dn(_dn(_x_power_part(xu_lo, sigma, consts, False) * _shape(xu_hi, False)) * g_lo),
        "own_hi": _up(_up(_x_power_part(xu_hi, sigma, consts, True) * _shape(xu_lo, True)) * g_hi),
        # the corner term's power part increases, its shape factor and g decrease
        "pow_lo": _x_power_part(xw_lo, sigma, consts, False),
        "pow_hi": _x_power_part(xw_hi, sigma, consts, True),
        "rest_lo": _dn(_shape(xw_hi, False) * g_lo),
        "rest_hi": _up(_shape(xw_lo, True) * g_hi),
    }


def _panel_bounds(params: ParamSet, sign: int, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the D integral over each panel [nodes[i], nodes[i+1]].

    nodes must increase from at least delta with nodes[i+1] <= 2 nodes[i],
    so that each panel width is an exact float difference (Sterbenz).
    """
    los, his = [], []
    for start in range(0, nodes.size - 1, _ENCLOSE_CHUNK):
        u = nodes[start : start + _ENCLOSE_CHUNK + 1]
        f = _node_bounds(params, sign, u)
        # Decreasing pieces peak at the left end a of [a, b], increasing at b.
        hi = _up(f["own_hi"][:-1] + _up(f["pow_hi"][1:] * f["rest_hi"][:-1]))
        lo = _dn(f["own_lo"][1:] + _dn(f["pow_lo"][:-1] * f["rest_lo"][1:]))
        width = u[1:] - u[:-1]
        his.append(_up(hi * width))
        los.append(_dn(lo * width))
    return np.concatenate(los), np.concatenate(his)


def _enclosure_nodes(delta: float) -> np.ndarray:
    """Panel ends delta 2^(k / _ENCLOSE_PER_OCTAVE) over _ENCLOSE_OCTAVES octaves."""
    k = np.arange(_ENCLOSE_OCTAVES * _ENCLOSE_PER_OCTAVE + 1)
    return delta * np.exp2(k / _ENCLOSE_PER_OCTAVE)


def _enclose_one_sign(params: ParamSet, sign: int) -> tuple[float, float]:
    t = params.trapezoid
    sigma, alpha, _ = _side(params, sign)
    if not (2.0**-20 <= sigma <= 0.5 - 2.0**-20 and sigma - alpha >= 2.0**-20):
        raise ConstraintViolation(
            "enclose_D needs 2^-20 <= sigma <= 1/2 - 2^-20 and sigma - alpha >= 2^-20, "
            f"got sigma = {sigma}, alpha = {alpha}"
        )
    if not (1.0 + 2.0**-20 <= t.delta <= 2.0**200):
        raise ConstraintViolation(f"enclose_D needs 1 + 2^-20 <= delta <= 2^200, got {t.delta}")
    nodes = _enclosure_nodes(t.delta)
    lo, hi = _panel_bounds(params, sign, nodes)
    tail = _up(averaged_transform_tail(t, sign, sigma, float(nodes[-1])), _TAIL_MARGIN)
    return _dn(math.fsum(lo)), _up(_up(math.fsum(hi)) + tail)


def enclose_D(params: ParamSet) -> tuple[tuple[float, float], tuple[float, float]]:
    """Certified enclosures ((lo_plus, hi_plus), (lo_minus, hi_minus)) of D_plus and D_minus.

    Unlike compute_D (an estimate), each pair provably contains the exact
    integral of (p_sigma(U) + p_sigma(V or T)) g(U) / beta over [delta,
    infinity), g(U) = U^{1+alpha} / (U^2 - 1)^2.

    Monotonicity, for U >= delta > 1, 0 < alpha < sigma < 1/2:

    * x = u + sqrt(u^2 - 1) increases in u, with x' = x / sqrt(u^2 - 1).
    * The shape factor (1 - y)^{3/2} + 3 y of p_sigma, y = x^-2, has
      derivative 3 - (3/2)(1 - y)^{1/2} > 0 in y, so it decreases in x.
    * The x-power part C x^{2-sigma} + C' x^{1+sigma} of p_sigma increases.
    * g decreases: d log g / dU = ((1 + alpha)(U^2 - 1) - 4 U^2) / (U (U^2 -
      1)) < 0.  Moreover x(U)^e g(U) decreases for e <= 2: its log-derivative
      times U (U^2 - 1) is e U sqrt(U^2 - 1) + (1 + alpha)(U^2 - 1) - 4 U^2
      < (2 + 3/2 - 4) U^2 < 0.  So p_sigma(U) g(U), a sum of two such terms
      times the decreasing shape factor, decreases.
    * V(U) = U + beta (U^{1-alpha} - U^{-1-alpha}) increases: V' = 1 + beta
      ((1 - alpha) U^{-alpha} + (1 + alpha) U^{-2-alpha}) > 0.
    * T(U) = U - beta (U^{1-alpha} - U^{-1-alpha}) increases: the bracket in
      T' = 1 - beta ((1 - alpha) U^{-alpha} + (1 + alpha) U^{-2-alpha})
      decreases in U, and at U = delta the cap beta <= delta^{1+alpha} /
      (delta + 1) gives T' >= (delta - 1)(1 + alpha (delta + 1)) / (delta
      (delta + 1)) > 0.  The cap also gives T(delta) >= 1.

    So on a panel [a, b] the bound takes p_sigma(U) g(U) and the shape factor
    at V or T times g at one end each, and the x-power part at V or T at the
    other, times the width b - a.

    Rounding.  Panel ends are floats with b <= 2a, so b - a is exact.  Each
    operation's result is widened outward by _W_OP (correctly rounded +, -,
    *, /, sqrt: at most u = 2^-53 relative) or _W_LIBM (**, exp, tan: any
    error up to 15 ulp, well above the few ulp that glibc's error tables and
    numpy's accuracy tests allow these functions); only the exact exponents
    sigma, alpha and 1/4 are used, and pi enters as the floats either side
    of math.pi.  Each panel bound takes about 60 such steps.  Sums are taken
    by math.fsum, correctly rounded, then widened once more.  Nothing underflows or overflows: the last node is at most 2^300.

    Tail.  Past the last node M the bound adds averaged_transform_tail(M),
    the analytic majorant compute_D also adds, computed in plain floats by
    fewer than 40 operations.  Its relative error is below 2^-48 times the
    sum of the condition numbers of tan (2 pi sigma / sin(2 pi sigma)), exp
    (1/2 + 1/(12 sigma)), 1/(sigma - alpha) and M^(alpha - sigma) (log M),
    each below 2^21 on the checked range 2^-20 <= sigma <= 1/2 - 2^-20,
    sigma - alpha >= 2^-20, 1 + 2^-20 <= delta <= 2^200; so the relative
    margin _TAIL_MARGIN = 2^-24 covers it.

    The grid is fixed: _ENCLOSE_PER_OCTAVE geometric panels per octave from
    delta to M = delta 2^_ENCLOSE_OCTAVES.  The bounds are first order, so
    hi - lo shrinks only as 1/panels; at the reference parameters it is
    about 4e-4 relative, in about 0.3 s for both signs.  Raises
    ConstraintViolation outside the checked range.
    """
    return _enclose_one_sign(params, +1), _enclose_one_sign(params, -1)


def spectral_factor(eta: float, include_phi_constant: bool) -> float:
    """Factor converting D_pm into count-weighted bound contributions.

    eta^(-5/4)/4 + 4 sqrt(2), times pi/(2 pi - 4)^2 when
    include_phi_constant is set.  The prefactor belongs to the certificate;
    omitting it reproduces the historical headline arithmetic.
    """
    if not (0.0 < eta <= 0.25):
        raise ConstraintViolation(f"spectral gap must lie in (0, 1/4], got {eta}")
    factor = eta ** (-1.25) / 4.0 + 4.0 * math.sqrt(2.0)
    if include_phi_constant:
        factor *= math.pi / (2.0 * math.pi - 4.0) ** 2
    return factor


@dataclass(frozen=True)
class BoundReport:
    """Assembled certificate; constructing one re-checks its sign structure."""

    q_plus: float
    q_minus: float
    D_plus: float
    D_minus: float
    N_bar: float
    spectral_factor: float
    A: float
    B: float
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConstraintViolation(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not (self.D_plus > 0.0 and self.D_minus > 0.0):
            raise ConstraintViolation(
                f"D values must be positive, got ({self.D_plus}, {self.D_minus})"
            )
        if not (self.q_minus <= 0.0 <= self.q_plus):
            raise ConstraintViolation(
                f"q values must satisfy q_minus <= 0 <= q_plus, got "
                f"({self.q_plus}, {self.q_minus})"
            )
        if not (self.A <= self.B):
            raise ConstraintViolation(f"certificate is empty: A = {self.A} > B = {self.B}")

    @property
    def width(self) -> float:
        return self.B - self.A


def assemble(
    params: ParamSet,
    ctx: GroupContext,
    N_bar: float,
    mode: str = "theorem-exact",
    rel_tol: float = 1e-6,
    D: tuple[float, float] | None = None,
) -> BoundReport:
    """Build the certificate A <= . <= B for a uniform count bound N_bar.

    N_bar bounds the average (N(z, z, 17) + N(w, w, 17)) / 2 over the
    intended range of base points; it must be finite and at least 2 (the
    identity pair is always counted).  In theorem-exact mode, D = (D_plus,
    D_minus) stands in for compute_D(params, rel_tol); the optimizer passes
    its memoized values this way.
    """
    if not (N_bar >= 2.0 and math.isfinite(N_bar)):
        raise ConstraintViolation(f"N_bar must be finite and at least 2, got {N_bar}")
    validate(params, ctx)
    if mode == "paper-arithmetic":
        q_plus, q_minus = ROUNDED_Q_PLUS, ROUNDED_Q_MINUS
        D_plus, D_minus = ROUNDED_D_PLUS, ROUNDED_D_MINUS
        factor = spectral_factor(ctx.eta, include_phi_constant=False)
    elif mode == "theorem-exact":
        q_plus, q_minus = compute_q(params, ctx)
        D_plus, D_minus = compute_D(params, rel_tol=rel_tol) if D is None else D
        factor = spectral_factor(ctx.eta, include_phi_constant=True)
    else:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    A = -q_plus - D_plus * factor * N_bar
    B = -q_minus + D_minus * factor * N_bar
    return BoundReport(
        q_plus=q_plus,
        q_minus=q_minus,
        D_plus=D_plus,
        D_minus=D_minus,
        N_bar=N_bar,
        spectral_factor=factor,
        A=A,
        B=B,
        mode=mode,
    )
