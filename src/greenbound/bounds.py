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
N(z, z, U) and N(w, w, U) at U = COUNT_RADIUS; certificate_end evaluates A and B.

delta, the radius of the truncated kernel J_delta, enters three hypotheses:
delta > 1 (TrapezoidParams), the beta^- cap beta^- <= delta^{1+alpha^-} /
(delta + 1) (beta_minus_cap, so T(U) >= 1 for U >= delta), and the lower end
U = delta of the D integrals and of the transforms I_delta^{+-} they bound.
Nothing in the code ties COUNT_RADIUS, or S(eta), to delta.

Two arithmetic modes are supported.  theorem-exact (the default) evaluates
q_pm in closed form, takes D_pm as the upper ends of the certified
enclosures of enclose_D (outward-rounded midpoint sums with a proved range
of the integrand's second derivative, trapezoid sums where that proves it
convex, and an analytic tail), and includes the pi/(2 pi - 4)^2 prefactor.
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from greenbound.errors import ConstraintViolation, NonConvergenceError
from greenbound.specfun import SQRT_PI, C_sigma
from greenbound.transforms import TrapezoidParams, averaged_transform_tail

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
COUNT_CAP_STANDARD = 216.0  # certified N(z, z, COUNT_RADIUS) cap on the truncated domain
COUNT_RADIUS = 17.0  # displacement radius U of the counts N_bar bounds
COUNT_GRID = (100, 100)  # grid on which COUNT_CAP_STANDARD is certified
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

    def side(self, sign: int) -> tuple[float, float, float]:
        """(sigma, alpha, beta) of the plus (sign > 0) or minus side."""
        return (self.sigma_plus if sign > 0 else self.sigma_minus, *self.trapezoid.side(sign))

    def record(self) -> dict[str, float]:
        """The seven free parameters as one flat mapping: the trapezoid fields, then the two sigmas."""
        return {**vars(self.trapezoid), "sigma_plus": self.sigma_plus, "sigma_minus": self.sigma_minus}

    @classmethod
    def from_record(cls, values: dict[str, float]) -> ParamSet:
        """The ParamSet whose record() is values."""
        v = dict(values)
        sigmas = v.pop("sigma_plus"), v.pop("sigma_minus")
        return cls(TrapezoidParams(**v), *sigmas)


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


# Outward rounding for enclose_D: a lower (upper) end of a quantity >= 0 is
# widened by 1 - w (1 + w) after each operation; with u = 2^-53 and a result
# of relative error e, fl(y (1 + w)) >= y (1 + w)(1 - u) >= the exact value
# once w >= e + 2u (and symmetrically below).  The widths cover:
_W_OP = 2.0**-51  # +, -, *, / and sqrt, correctly rounded (e <= u)
_W_LIBM = 2.0**-48  # **, exp, tan and log1p from libm or numpy SIMD: e up to 15 ulp
_W_EVAL = 2.0**-46  # the short plain-float expressions of _x_parts
_TAIL_MARGIN = 2.0**-24  # on the plain float value of averaged_transform_tail
_W_CONVEX = 2.0**-30  # slack of the plain-float curvature bounds
D_REL_WIDTH = 1e-6  # widest enclosure, relative to its lower end, that compute_D accepts
_PANELS = 200.0  # panels on an octave of U^2 - 1 next to delta or below 1; see _grid
_SCREEN_PANELS = 50.0  # the coarse grid of D_floor
_CELL = 4  # panels per curvature cell
_TABLES = 4  # node tables kept, a fine and a coarse one for each of two values of delta
_ENCLOSURES = 4096  # one-sign grid bounds kept process-wide, fine and coarse; see _grid_bounds


def _dn(x, w=_W_OP):
    return x * (1.0 - w)


def _up(x, w=_W_OP):
    return x * (1.0 + w)


def _widen(x, side):
    return x + side * np.abs(x) * _W_OP  # outward by _W_OP, downward for side -1, for any sign


def _grid(t0: float, octaves: int, panels: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t (t^2 = U^2 - 1) past t0, rounded up to 26 bits, the curvature cell ends and the steps
    of each octave: the j-th octave [X, 2 X] of U^2 - 1 from delta takes max(3, ceil(panels 2^(-k/32)
    / sqrt(1 + k))) steps even in s = log(U^2 - 1), k = max(0, min(j, log2 X)), the first cut at
    2^-11, ..., 2^-1 of itself; each cut and every _CELL-th node of an octave ends a cell."""
    k = np.maximum(0.0, np.minimum(np.arange(octaves), 2.0 * math.log2(t0) + np.arange(octaves)))
    n = np.maximum(3, np.ceil(panels * np.exp2(-k / 32.0) / np.sqrt(1.0 + k))).astype(int)
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    cuts = 2.0 ** -np.arange(11.0, 0.0, -1.0) / n[0]
    offsets = np.concatenate([cuts, (np.repeat(np.arange(octaves), n) + j / np.repeat(n, n))[1:], [octaves]])
    m, e = np.frexp(t0 * np.exp2(0.5 * offsets))
    return np.ldexp(np.ceil(m * 2.0**26), e - 26), np.concatenate([cuts > 0, j[1:] % _CELL == 0, [True]]), n


def _C_sigma_enclosure(sigma: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Enclosures of C_sigma / (4 sqrt pi) and C_sigma' / (4 sqrt pi), from each end of their
    factors' rounded inputs: tan on (0, pi/2), x^{1/4}, exp and 1/x are monotone."""
    ends = []
    for d, o, pi, pi_o in ((_dn, _up, math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0)),
                           (_up, _dn, math.nextafter(math.pi, 4.0), math.nextafter(math.pi, 0.0))):
        tan = max(1.0, d(math.tan(d(pi * sigma)), _W_LIBM))
        common = d(d(tan * d(d(d(1.0 / sigma) - 1.0) ** 0.25, _W_LIBM)) / (4.0 * o(math.sqrt(pi_o))))
        # exp(1/2 + 1/(24 a b)) falls in a and b
        ends.append([d(common * d(math.exp(d(0.5 + d(1.0 / o(o(24.0 * o(a)) * o(b))))), _W_LIBM))
                     for a, b in ((sigma, 0.5 + sigma), (1.0 - sigma, 1.5 - sigma))])
    return (ends[0][0], ends[1][0]), (ends[0][1], ends[1][1])


def _x_parts(x_lo, x_hi, sigma, consts):
    """Directed x-power part P = (C x^{2-sigma} + C' x^{1+sigma}) / (4 sqrt pi), rising, and shape
    factor S = (1 - y)^{3/2} + 3 y >= 1, y = x^-2, falling, over 1 <= x_lo <= x <= x_hi."""
    (c_lo, c_hi), (cp_lo, cp_hi) = consts
    x = np.stack([x_lo, x_hi])
    xs, y = x**sigma, 1.0 / (x * x)
    P = np.array([[c_lo], [c_hi]]) * x * x / xs + np.array([[cp_lo], [cp_hi]]) * x * xs
    S = (1.0 - y) * np.sqrt(1.0 - y) + 3.0 * y
    return _dn(P[0], _W_EVAL), _up(P[1], _W_EVAL), _dn(S[1], _W_EVAL), _up(S[0], _W_EVAL)


def _u_parts(X_lo: np.ndarray, X_hi: np.ndarray):
    """Directed u^2, u and x_U = u + sqrt(U^2 - 1) at X_lo <= U^2 - 1 <= X_hi, each lower end first."""
    u2_lo, u2_hi = _dn(1.0 + X_lo), _up(1.0 + X_hi)
    u_lo, u_hi = _dn(np.sqrt(u2_lo)), _up(np.sqrt(u2_hi))
    return u2_lo, u2_hi, u_lo, u_hi, _dn(u_lo + _dn(np.sqrt(X_lo))), _up(u_hi + _up(np.sqrt(X_hi)))


def _node_bounds(side: tuple[float, float, float], sign: int, X_lo: np.ndarray, X_hi: np.ndarray, u):
    """Directed (own, pow, rest) at nodes X_lo <= U^2 - 1 <= X_hi, lower and upper ends interleaved:
    own = p_sigma(U) G, pow the x-power part P of p_sigma(W) and rest its shape factor S times
    G = U^alpha / (2 beta (U^2 - 1)), W = V or T, on side = (sigma, alpha, beta); u is _u_parts(X_lo,
    X_hi)."""
    sigma, alpha, beta = side
    consts = _C_sigma_enclosure(sigma)
    u2_lo, u2_hi, u_lo, u_hi, xu_lo, xu_hi = u
    ua = u2_lo ** (0.5 * alpha)  # U^alpha; (u2_hi / u2_lo)^(alpha / 2) <= u2_hi / u2_lo
    ua_lo, ua_hi = _dn(ua, _W_LIBM), _up(_up(ua, _W_LIBM) * _up(u2_hi / u2_lo))
    G_lo, G_hi = _dn(ua_lo / _up(2.0 * beta * X_hi)), _up(ua_hi / _dn(2.0 * beta * X_lo))
    m_lo, m_hi = _dn(_dn(beta * X_lo) / _up(u_hi * ua_hi)), _up(_up(beta * X_hi) / _dn(u_lo * ua_lo))
    w_lo, w_hi = (_dn(u_lo + m_lo), _up(u_hi + m_hi)) if sign > 0 else (  # T(U) >= 1 under the beta^- cap
        np.maximum(_dn(u_lo - m_hi), 1.0), np.maximum(_up(u_hi - m_lo), 1.0))
    pu_lo, pu_hi, su_lo, su_hi = _x_parts(xu_lo, xu_hi, sigma, consts)
    xw_lo = np.maximum(_dn(w_lo + _dn(np.sqrt(np.maximum(_dn(_dn(w_lo * w_lo) - 1.0), 0.0)))), 1.0)
    xw_hi = _up(w_hi + _up(np.sqrt(_up(_up(w_hi * w_hi) - 1.0))))  # x = w + sqrt(w^2 - 1)
    pw_lo, pw_hi, sw_lo, sw_hi = _x_parts(xw_lo, xw_hi, sigma, consts)
    own = _dn(pu_lo * su_lo * G_lo, 2.0 * _W_OP), _up(pu_hi * su_hi * G_hi, 2.0 * _W_OP)
    return *own, pw_lo, pw_hi, _dn(sw_lo * G_lo), _up(sw_hi * G_hi)


def _span(v, slack=_W_CONVEX):
    """Range over each cell of a quantity monotone in s, from its node values, widened."""
    lo, hi = np.minimum(v[..., :-1], v[..., 1:]), np.maximum(v[..., :-1], v[..., 1:])
    return lo - slack * np.abs(lo), hi + slack * np.abs(hi)


def _imul(x, y):
    a, b, c, d = x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]
    return np.minimum(np.minimum(a, b), np.minimum(c, d)), np.maximum(np.maximum(a, b), np.maximum(c, d))


def _isq(x):
    low = np.where(x[0] > 0.0, x[0] ** 2, np.where(x[1] < 0.0, x[1] ** 2, 0.0))
    return low, np.maximum(x[0] ** 2, x[1] ** 2)


def _curvature(side: tuple[float, float, float], sign: int, nodes: np.ndarray, spans: np.ndarray, f):
    """Bounds (lo, hi) on F'' over each cell between the cell ends (NaN where untested), from their
    nodes and spans in _node_table; f holds the node bounds, and row 0 below is own, row 1 the corner."""
    sigma, alpha, beta = side
    c_main, c_prime = C_sigma(sigma)
    low = np.stack([f[0][1:], _dn(f[2][:-1] * f[4][1:])])  # each term's least and greatest value
    high = np.stack([f[1][:-1], _up(f[3][1:] * f[5][:-1])])
    X, U, r2, om, um1 = nodes
    r2_, om_, ro = spans[0:2], spans[2:4], spans[4:6]
    gb = np.stack([0.0 * X, sign * beta * U**-alpha])  # g = gb r^2 = W / U - 1
    wm1 = um1 + gb * r2 * U  # W - 1
    # log W = log U + log(1 + g); its first two derivatives in s are d1, d2
    g = _imul(_span(gb), r2_)
    G1 = (om_[0] - 0.5 * alpha * r2_[1], om_[1] - 0.5 * alpha * r2_[0])  # (log g)'
    G1_sq, inv_c = _isq(G1), (1.0 / (1.0 + g[1]), 1.0 / (1.0 + g[0]))
    c1 = _imul(_imul(g, G1), inv_c)  # (log c)', c = 1 + g
    cc = _imul(_imul(g, (G1_sq[0] - (1.0 + 0.5 * alpha) * ro[1], G1_sq[1] - (1.0 + 0.5 * alpha) * ro[0])), inv_c)
    c1_sq = _isq(c1)
    d1 = (np.maximum(0.5 * r2_[0] + c1[0], 0.0), 0.5 * r2_[1] + c1[1])
    d2 = (0.5 * ro[0] + cc[0] - c1_sq[1], 0.5 * ro[1] + cc[1] - c1_sq[0])
    # omega = arccosh W = log x, x = W + tau, tau = sqrt(W^2 - 1)
    W, tau = 1.0 + wm1, np.sqrt(wm1 * (wm1 + 2.0))
    cond = 2.0**-45 * X / (U + 1.0) / wm1  # relative error of tau, q and z, as W - 1 cancels
    loose = _W_CONVEX + np.maximum(cond[..., :-1], cond[..., 1:])
    x = W + tau
    z, xs = np.sqrt(2.0 * tau / x), x**sigma  # z = sqrt(1 - x^-2)
    a, b, y = c_main * x * x / xs, c_prime * x * xs, 1.0 / (x * x)
    nu = ((2.0 - sigma) * a + (1.0 + sigma) * b) / (a + b) - 2.0 * y * (3.0 - 1.5 * z) / (z**3 + 3.0 * y)
    vw = b / (a + b) * (a / (a + b))  # w (1 - w), w = b / (a + b) falls in x: least at an end
    nu = (np.minimum(nu[:, :-1], nu[:, 1:]) - _W_CONVEX, np.maximum(nu[:, :-1], nu[:, 1:]) + _W_CONVEX)
    v, q = _span(1.0 / (W * W)), _span(tau / W, loose)  # q = sqrt(1 - v)
    phi1 = (1.0 + v[0] / (q[1] + 1.0 - v[0]), 1.0 + v[1] / (q[0] + 1.0 - v[1]))
    phi2 = ((2.0 * v[0] * (q[0] + 1.0) + v[0] ** 2 / q[1]) / (q[1] + 1.0 - v[0]) ** 2,
            (2.0 * v[1] * (q[1] + 1.0) + v[1] ** 2 / q[0]) / (q[0] + 1.0 - v[1]) ** 2)  # 2 v phi_v
    rho = (d1[0] * phi1[0], d1[1] * phi1[1])  # omega'
    first, second = _imul(d2, phi1), (phi2[0] * d1[0] ** 2, phi2[1] * d1[1] ** 2)
    drho = (first[0] - second[1], first[1] - second[0])  # omega''
    slope = _isq(tuple(nr + 0.5 * alpha * r - 1.0 for nr, r in zip(_imul(nu, rho), r2_)))  # psi'^2
    z_lo, z_hi = _span(z, loose)
    mu = [3 * (1 - a**2) * (3 - 2 * a**3 + a**4) / (a * (b**3 + 3 - 3 * b**2) ** 2)  # (log S)'', low and high
          for a, b in ((z_hi, z_lo), (z_lo, z_hi))]
    spread = (1.0 - _W_CONVEX) * (1.0 - 2.0 * sigma) ** 2 * np.minimum(vw[:, :-1], vw[:, 1:])  # log-sum-exp''
    nu_drho = _imul(nu, drho)  # kappa <= psi'' + psi'^2 <= kappa_hi
    kappa = nu_drho[0] + (mu[0] + spread) * rho[0] ** 2 + slope[0] + 0.5 * alpha * ro[0]
    kappa_hi = nu_drho[1] + (mu[1] + (0.5 - sigma) ** 2) * rho[1] ** 2 + slope[1] + 0.5 * alpha * ro[1]
    size = np.maximum(-nu[0], nu[1]) * (np.maximum(-first[0], first[1]) + second[1]) + slope[1] + 1.0
    margin = _W_CONVEX * np.sum((size + (mu[1] + 1.0) * rho[1] ** 2) * high, axis=0)
    d1_node = 0.5 * r2 + gb[1] * r2 * (om - 0.5 * alpha * r2) / (1.0 + gb[1] * r2)
    safe = (cond[1] <= 2.0**-20) & (1.0 + gb[1] * r2 >= 2.0**-17) & (d1_node >= 2.0**-17 * r2)
    safe = np.where(safe[:-1] & safe[1:], 1.0, np.nan)
    low_F = np.sum(kappa * np.where(kappa >= 0.0, low, high), axis=0) - margin
    return safe * low_F, safe * (np.sum(kappa_hi * np.where(kappa_hi >= 0.0, high, low), axis=0) + margin)


@functools.lru_cache(maxsize=_TABLES)
def _node_table(delta: float, panels: float) -> dict:
    """Read-only U-only parts of _panels on _grid(delta, octaves up to U^2 - 1 = 2^600, panels):
    X_lo, X_hi interleave nodes t^2 and panel midpoints t t' in s after delta^2 - 1; u = _u_parts;
    h_lo <= h <= h_hi bound the half panel widths in s; ends index the cell ends in X_lo, with nodes
    (U^2 - 1, U, r^2 = 1 - 1/U^2, 1 - r^2, U - 1) there and spans (of r^2, 1 - r^2, r^2 (1 - r^2)) per
    cell; tail_U are the U that end the octaves, and size the nodes of a grid ending with each."""
    sq_lo, sq_hi = _dn(_dn(delta * delta) - 1.0), _up(_up(delta * delta) - 1.0)
    top = np.arange(1, math.floor(600.0 - math.log2(sq_hi)) + 1)  # U^2 - 1 <= 2^600
    t, cells, n = _grid(math.sqrt(delta * delta - 1.0), int(top[-1]), panels)
    X = np.empty(2 * t.size)
    X[0], X[1::2], X[2::2] = sq_lo, t * t, t[:-1] * t[1:]
    X_hi = np.insert(X[1:], 0, sq_hi)
    ends = 2 * np.flatnonzero(np.concatenate([[True], cells[1:-1], [True]])) + 1
    U, r2, om = np.sqrt(1.0 + X[ends]), X[ends] / (1.0 + X[ends]), 1.0 / (1.0 + X[ends])
    r2_, om_ = _span(r2), _span(om)
    table = dict(X_lo=X, X_hi=X_hi, u=np.stack(_u_parts(X, X_hi)), ends=ends, size=11 + np.cumsum(n),
                 h_lo=_dn(np.log1p(_dn(X[1:] / X_hi[:-1]) - 1.0), _W_LIBM),
                 h_hi=_up(np.log1p(_up(X_hi[1:] / X[:-1]) - 1.0), _W_LIBM), tail_U=np.sqrt(1.0 + sq_lo * np.exp2(top)),
                 nodes=np.stack([X[ends], U, r2, om, X[ends] / (U + 1.0)]),
                 spans=np.stack([*r2_, *om_, r2_[0] * om_[0], r2_[1] * om_[1]]))
    for v in table.values():
        v.setflags(write=False)
    return table


def _panels(side: tuple[float, float, float], sign: int, table: dict, n: int) -> tuple[float, float]:
    """Bounds on the integral of F in s over the first n nodes of table (_node_table), from delta: a
    first-order panel to t[0]^2 and panels [t[i]^2, t[i+1]^2] halved at their midpoint t[i] t[i+1]
    in s; the cell ends split these into curvature cells."""
    X, X_hi, u = table["X_lo"][: 2 * n], table["X_hi"][: 2 * n], table["u"][:, : 2 * n]
    c = np.searchsorted(table["ends"], 2 * n)
    ends = table["ends"][:c]
    f = _node_bounds(side, sign, X, X_hi, u)
    own_lo, own_hi, pow_lo, pow_hi, rest_lo, rest_hi = f
    F2 = _curvature(side, sign, table["nodes"][:, :c], table["spans"][:, : c - 1], [v[ends] for v in f])
    F2_lo, F2_hi = (np.repeat(v, np.diff(ends) // 2) for v in F2)
    F_lo, F_hi = _dn(own_lo + _dn(pow_lo * rest_lo)), _up(own_hi + _up(pow_hi * rest_hi))
    h_lo, h_hi = table["h_lo"][: 2 * n - 1], table["h_hi"][: 2 * n - 1]
    # First order on each half panel: own and rest fall in s, pow rises
    lo = _dn(h_lo * _dn(own_lo[1:] + _dn(pow_lo[:-1] * rest_lo[1:])))
    hi = _up(h_hi * _up(own_hi[:-1] + _up(pow_hi[1:] * rest_hi[:-1])))
    # Whole panels: the midpoint rule plus h^3 F''(xi) / 24, and the trapezoid rule where convex
    h = (_dn(h_lo[1::2] + h_lo[2::2]), _up(h_hi[1::2] + h_hi[2::2]))
    cube = (_dn(_dn(h[0] * h[0]) * h[0]) / 24.0, _up(_up(h[1] * h[1]) * h[1]) / 24.0)
    lo2 = _widen(_dn(h[0] * F_lo[2::2]) + _widen(np.minimum(F2_lo * cube[0], F2_lo * cube[1]), -1), -1)
    hi2 = _widen(_up(h[1] * F_hi[2::2]) + _widen(np.maximum(F2_hi * cube[0], F2_hi * cube[1]), 1), 1)
    trap = _up(_up(h_hi[1::2] * _up(F_hi[1:-1:2] + F_hi[2::2])) + _up(h_hi[2::2] * _up(F_hi[2::2] + F_hi[3::2]))) / 2
    hi2 = np.where(F2_lo >= 0.0, np.minimum(hi2, trap), hi2)
    lo_sum = np.where(np.isnan(lo2), lo[1::2] + lo[2::2], np.maximum(lo2, 0.0))
    hi_sum = np.where(np.isnan(hi2), hi[1::2] + hi[2::2], hi2)
    w = (lo.size + 4) * 2.0**-52  # np.sum errs by less than n u of the sum of n terms >= 0
    return _dn(lo[0] + np.sum(lo_sum), w), _up(hi[0] + np.sum(hi_sum), w)


@functools.lru_cache(maxsize=_ENCLOSURES)
def _grid_bounds(delta: float, sign: int, side: tuple, panels: float) -> tuple[float, float, float, float]:
    """The enclosure (lo, hi) of D for side = (sigma, alpha, beta) on _grid at panels, then the grid's own
    upper end, without the tail past M, and M rounded down: lo and the grid's upper end bound the
    integral over [delta, M], and hi adds averaged_transform_tail(M), rounded up.  Memoized
    process-wide on exactly the floats it reads, so the other side's parameters never split a key;
    a ConstraintViolation is raised afresh each call."""
    sigma, alpha, beta = side
    e = 2.0**-20
    if not (2.0**-11 <= sigma <= 0.5 - e and sigma - alpha >= e
            and 1 + e <= delta <= 2.0**200 and e <= beta <= 1 / e):
        raise ConstraintViolation("enclose_D needs sigma >= 2^-11, sigma - alpha, 1/2 - sigma, delta - 1 and beta >= "
                                  f"2^-20, delta <= 2^200, beta <= 2^20; got {sigma}, {alpha}, {delta}, {beta}")
    table = _node_table(delta, panels)
    floor = C_sigma(sigma)[0] * delta ** (alpha - sigma) / (4.0 * SQRT_PI * beta * (sigma - alpha))
    fits = averaged_transform_tail(delta, sign, sigma, alpha, beta, table["tail_U"]) <= floor * 2.0**-22
    n = int(table["size"][fits.argmax() if fits.any() else -1])
    lo, hi = _panels(side, sign, table, n)
    M = float(table["u"][2, 2 * n - 1])
    return float(lo), float(_up(hi + _up(averaged_transform_tail(delta, sign, *side, M), _TAIL_MARGIN))), float(hi), M


def D_floor(params: ParamSet, sign: int) -> float:
    """A proved lower bound on D_plus (sign > 0) or D_minus: the lower end of the coarse-grid enclosure
    (_SCREEN_PANELS steps an octave), without the positive tail; memoized in _grid_bounds."""
    return float(_grid_bounds(params.trapezoid.delta, sign, params.side(sign), _SCREEN_PANELS)[0])


def enclose_D(params: ParamSet) -> tuple[tuple[float, float], tuple[float, float]]:
    """Certified enclosures ((lo_plus, hi_plus), (lo_minus, hi_minus)) of D_plus and D_minus.

    D is the integral over U >= delta of (p_sigma(U) + p_sigma(W)) U^{1+alpha} / (beta
    (U^2 - 1)^2), W = V(U) (plus) or T(U) (minus); in s = log(U^2 - 1) it is that of F =
    (p_sigma(U) + p_sigma(W)) G, G = U^alpha / (2 beta (U^2 - 1)), with terms own and
    corner.  The nodes are U^2 - 1 = t^2, t a float of 26 bits, even in s on each octave
    (_grid), so t^2 and a panel's midpoint t t' in s are exact.  The last node M is the
    first octave end where averaged_transform_tail(M), which the upper end adds, is below
    2^-22 of C delta^(alpha-sigma) / (4 sqrt(pi) beta (sigma-alpha)) <= D (U^4 >= (U^2-1)^2).

    Node table.  What depends on U alone (nodes and cell ends out to U^2 - 1 = 2^600, directed
    U^2 - 1, u^2, u and u + sqrt(U^2 - 1), panel widths, and U, r^2, 1 - r^2 and spans at the cell
    ends) is built once per delta and steps an octave (_node_table, a small LRU cache).  A grid of
    k octaves is a prefix of it, as _grid's steps on an octave do not depend on how many follow and
    an octave's first node ends a cell: an enclosure reads the first nodes, with a k-octave grid's bits.
    Each sign's enclosure, the tail included, is memoized process-wide on the floats (delta, sigma,
    alpha, beta, panels) it reads (_grid_bounds, an LRU cache of _ENCLOSURES entries), so a repeated
    enclosure, in one call or across calls, costs a lookup only.

    Curvature.  p_sigma(w) = exp(Phi(omega)), omega = arccosh w = log x, where Phi is the
    log-sum-exp log(C e^{(2-sigma) omega} + C' e^{(1+sigma) omega}), whose second
    derivative (1 - 2 sigma)^2 w (1 - w), w the weight of C', lies in [0, (1/2 - sigma)^2],
    plus log S, S = z^3 + 3 (1 - z^2), z = sqrt(1 - e^{-2 omega}), with (log S)'' = mu = 3
    (1 - z^2)(3 - 2 z^3 + z^4) / (z S^2) > 0.  So Phi is convex and nu = Phi' rises.  A
    term of F is exp(psi), psi = Phi(omega(s)) + log G(s), omega = arccosh U or arccosh W,
    with second derivative (psi'' + psi'^2) exp(psi), psi' = nu omega' + alpha r^2 / 2 - 1,
    psi'' = nu omega'' + Phi'' omega'^2 + alpha r^2 (1 - r^2) / 2, r^2 = (U^2 - 1) / U^2.
    With log W = log U + log(1 + g), g = +-beta U^-alpha r^2: (log U)' = r^2 / 2, (log U)''
    = r^2 (1 - r^2) / 2, (log g)' = 1 - r^2 - alpha r^2 / 2, (log g)'' = -(1 + alpha / 2)
    r^2 (1 - r^2), omega' = (log W)'(1 + phi) and omega'' = (log W)''(1 + phi) - 2 v phi_v
    (log W)'^2, phi = v / (q + 1 - v), v = W^-2, q = sqrt(1 - v), forms that keep apart
    the terms that cancel in omega''.  On a cell of _CELL panels _curvature takes each
    monotone piece (r^2, beta U^-alpha, v, q, z, w, nu) between its values at the ends,
    bounds the rest by interval arithmetic, and sums into L <= F'' <= H the bounds on
    psi'' + psi'^2 times the terms' extremes; L >= 0 proves F convex there.  It runs in
    plain floats, only where W / U and (log W)' are not small and W - 1 does not cancel to
    more than 2^25 of its error: node values err by less than 2^-45 (U - 1) / (W - 1),
    ranges are widened by 2^-30, and L and H by 2^-30 of the terms' size.

    Bounds.  A panel of width h in s lies within h F(m) + h^3 [L, H] / 24 (the midpoint
    rule with its remainder), and on a convex panel also below the trapezoid rule on its
    halves.  Untested panels and the tiny first panel from delta are first order on each
    half: own and S(W) G fall in s ((log G)' < 0, and psi' <= (2 - sigma + alpha) / 2 - 1
    for own) and the x-power part of p_sigma(W) rises, as U, V and T do (V' > 0; T' > 0
    and T(delta) >= 1 under the beta^- cap).

    Rounding.  Node values are outward rounded, each operation widened by _W_OP (correctly
    rounded +, -, *, /, sqrt: at most u = 2^-53 relative) or _W_LIBM (**, exp, tan, log1p:
    any error up to 15 ulp, well above what glibc's error tables and numpy's accuracy tests
    allow); the plain floats of _x_parts (one power within 2^-48, steps within 2^-53, and S
    >= 1 absorbing the cancellation in 1 - y) are within _W_EVAL.  Only the exact exponents
    sigma, alpha / 2 and 1/4 are used, and pi is enclosed by the floats either side of
    math.pi.  Widths are log1p of outward-rounded node ratios, np.sum of n panel bounds is
    widened by n u, and with 2^-20 <= beta <= 2^20 and 2^-19 <= U^2 - 1 <= 2^600 nothing
    overflows: W <= 2^321, so the x-power parts C x^2 stay below 2^644 C, and sigma >= 2^-11
    keeps C below 2^250 (at sigma = 3e-4, C ~ 2^404 and C x^2 overflows; below 1.2e-4 C
    itself does).  averaged_transform_tail(M) takes fewer than 40 plain float operations; its
    relative error is below 2^-48 times the sum of the condition numbers of tan (2 pi sigma /
    sin(2 pi sigma)), exp (1/2 + 1/(12 sigma)), 1/(sigma - alpha) and M^(alpha - sigma) (log
    M), each below 2^21 on the range _grid_bounds checks (ConstraintViolation outside it),
    so _TAIL_MARGIN = 2^-24 covers it.  At the reference parameters the enclosures are about
    1e-7 and 3e-7 relative wide.
    """
    return tuple(_grid_bounds(params.trapezoid.delta, sign, params.side(sign), _PANELS)[:2] for sign in (+1, -1))


def _upper_end(params: ParamSet, sign: int) -> float:
    lo, hi, grid_hi, M = _grid_bounds(params.trapezoid.delta, sign, params.side(sign), _PANELS)
    if not hi - lo <= D_REL_WIDTH * lo:
        side, (sigma, alpha, _) = "plus" if sign > 0 else "minus", params.side(sign)
        raise NonConvergenceError(f"D_{side} enclosure {(lo, hi)} wider than {D_REL_WIDTH}: {(hi - lo) / lo:.3g} of "
                                  f"its lower end, {(hi - grid_hi) / lo:.3g} of it the tail past U = {M:.3g}; raise "
                                  f"sigma_{side} - alpha_{side} = {sigma - alpha:.3g} to shrink that tail")
    return hi


def compute_D(params: ParamSet) -> tuple[float, float]:
    """Majorant integrals (D_plus, D_minus): the upper ends of enclose_D, proved upper bounds.
    Raises NonConvergenceError if an enclosure is wider than D_REL_WIDTH = 1e-6 of its lower end,
    naming how much of that width the tail past the last node adds, which shrinks as sigma - alpha grows."""
    return tuple(_upper_end(params, sign) for sign in (+1, -1))


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
    """Assembled certificate; constructing one re-checks its sign structure and finite ends."""

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
        if not (math.isfinite(self.A) and math.isfinite(self.B)):
            raise ConstraintViolation(f"certificate ends must be finite, got A = {self.A}, B = {self.B}")
        if not (self.A <= self.B):
            raise ConstraintViolation(f"certificate is empty: A = {self.A} > B = {self.B}")

    @property
    def width(self) -> float:
        return self.B - self.A


def certificate_end(q: float, D: float, factor: float, N_bar: float, sign: int) -> float:
    """A = -q_plus - D_plus factor N_bar (sign > 0) or B = -q_minus + D_minus factor N_bar; rounding
    is monotone, so with factor, N_bar > 0 a smaller D never gives a smaller A or a larger B."""
    return -q - D * factor * N_bar if sign > 0 else -q + D * factor * N_bar


def assemble(params: ParamSet, ctx: GroupContext, N_bar: float, mode: str = "theorem-exact") -> BoundReport:
    """Build the certificate A <= . <= B for a uniform count bound N_bar.

    N_bar bounds the average (N(z, z, U) + N(w, w, U)) / 2, U = COUNT_RADIUS, over the
    intended range of base points; it must be finite and at least 2 (the
    identity pair is always counted).  In theorem-exact mode D_plus and
    D_minus are the upper ends of the certified enclosures, compute_D(params),
    whose grid bounds are memoized process-wide (_grid_bounds).
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
        D_plus, D_minus = compute_D(params)
        factor = spectral_factor(ctx.eta, include_phi_constant=True)
    else:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    A, B = certificate_end(q_plus, D_plus, factor, N_bar, +1), certificate_end(q_minus, D_minus, factor, N_bar, -1)
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
