"""Constant assembly: volume terms, majorant integrals, and the certificate."""

import math
import random
from unittest import mock

import numpy as np
import pytest

from greenbound import bounds
from greenbound.bounds import (
    COUNT_CAP_STANDARD,
    ETA_KIM_SARNAK,
    ETA_SELBERG,
    HEADLINE_A,
    HEADLINE_B,
    MIN_C_MODULAR,
    ROUNDED_D_MINUS,
    ROUNDED_D_PLUS,
    ROUNDED_Q_MINUS,
    ROUNDED_Q_PLUS,
    VOLUME_MODULAR,
    BoundReport,
    GroupContext,
    ParamSet,
    assemble,
    certificate_end,
    compute_D,
    compute_q,
    enclose_D,
    group_preset,
    reference_params,
    sigma_ceiling,
    spectral_factor,
    validate,
)
from greenbound.errors import ConstraintViolation
from greenbound.specfun import SQRT_PI, C_sigma
from greenbound.transforms import TrapezoidParams, averaged_transform_tail


def test_module_constants():
    assert VOLUME_MODULAR == math.pi / 6.0
    assert MIN_C_MODULAR == 1.0
    assert ETA_SELBERG == 3.0 / 16.0
    assert ETA_KIM_SARNAK == 975.0 / 4096.0
    assert (ROUNDED_Q_PLUS, ROUNDED_Q_MINUS) == (69.0, -216.0)
    assert (ROUNDED_D_PLUS, ROUNDED_D_MINUS) == (18.5, 9.61)
    assert COUNT_CAP_STANDARD == 216.0
    assert (HEADLINE_A, HEADLINE_B) == (-2.87e4, 1.51e4)


def test_group_preset_sl2z():
    ctx = group_preset("sl2z")
    assert ctx.name == "sl2z"
    assert ctx.vol == VOLUME_MODULAR
    assert ctx.eta == ETA_KIM_SARNAK
    assert ctx.contains_minus_one is True
    assert ctx.min_c == 1.0
    with pytest.raises(ValueError, match="unknown group preset"):
        group_preset("psl2z")


def test_group_context_validation():
    with pytest.raises(ConstraintViolation, match="volume"):
        GroupContext(name="x", vol=0.0, eta=0.2, contains_minus_one=True, min_c=1.0)
    with pytest.raises(ConstraintViolation, match="spectral gap"):
        GroupContext(name="x", vol=1.0, eta=0.3, contains_minus_one=True, min_c=1.0)
    with pytest.raises(ConstraintViolation, match="min_c"):
        GroupContext(name="x", vol=1.0, eta=0.2, contains_minus_one=True, min_c=0.0)


def test_sigma_ceiling_values():
    assert sigma_ceiling(975.0 / 4096.0) == 0.390625
    assert sigma_ceiling(3.0 / 16.0) == 0.25
    assert sigma_ceiling(0.25) == 0.5
    # the closed-form root 0.39999999999999997 has s (1 - s) > 0.24; the
    # ceiling is the largest float below it that passes
    sigma = sigma_ceiling(0.24)
    above = math.nextafter(sigma, 1.0)
    assert sigma * (1.0 - sigma) <= 0.24 < above * (1.0 - above)
    assert sigma < 0.39999999999999997
    with pytest.raises(ConstraintViolation):
        sigma_ceiling(0.0)
    with pytest.raises(ConstraintViolation):
        sigma_ceiling(0.26)


def test_validate_accepts_the_sigma_ceiling():
    """On 683 of these etas the closed-form root rounds above the ceiling.
    ParamSet needs alpha < sigma < 1/2, so alpha is tiny and sigma stays
    below 1/2."""
    t = TrapezoidParams(delta=2.0, alpha_plus=1e-4, alpha_minus=1e-4, beta_plus=1.0, beta_minus=0.1)
    for eta in np.linspace(0.001, 0.25, 2490).tolist():
        sigma = min(sigma_ceiling(eta), math.nextafter(0.5, 0.0))
        ctx = GroupContext(name="grid", vol=1.0, eta=eta, contains_minus_one=True, min_c=1.0)
        validate(ParamSet(trapezoid=t, sigma_plus=sigma, sigma_minus=sigma), ctx)


def test_reference_params_values():
    p = reference_params()
    t = p.trapezoid
    assert t.delta == 2.0
    assert t.alpha_plus == 0.0366
    assert t.alpha_minus == 2.96e-3
    assert t.beta_plus == 2.72
    assert t.beta_minus == 0.668
    assert p.sigma_plus == 0.306
    assert p.sigma_minus == 0.250
    validate(p, group_preset("sl2z"))


def test_param_set_constraints():
    t = TrapezoidParams(delta=2.0, alpha_plus=0.1, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    with pytest.raises(ConstraintViolation, match="sigma_plus must exceed alpha_plus"):
        ParamSet(trapezoid=t, sigma_plus=0.05, sigma_minus=0.2)
    with pytest.raises(ConstraintViolation, match="sigma_minus must be below 1/2"):
        ParamSet(trapezoid=t, sigma_plus=0.2, sigma_minus=0.5)
    p = ParamSet(trapezoid=t, sigma_plus=0.2, sigma_minus=0.3)
    assert p.trapezoid == t and (p.sigma_plus, p.sigma_minus) == (0.2, 0.3)


def test_validate_checks_spectral_gap():
    ctx = group_preset("sl2z")
    t = TrapezoidParams(delta=2.0, alpha_plus=0.1, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    good = ParamSet(trapezoid=t, sigma_plus=0.39, sigma_minus=0.39)
    assert validate(good, ctx) is good
    bad = ParamSet(trapezoid=t, sigma_plus=0.45, sigma_minus=0.2)
    with pytest.raises(ConstraintViolation, match="sigma_plus.*spectral gap"):
        validate(bad, ctx)
    # the plus side is reported first when both sides violate
    both = ParamSet(trapezoid=t, sigma_plus=0.45, sigma_minus=0.45)
    with pytest.raises(ConstraintViolation, match="sigma_plus"):
        validate(both, ctx)
    # a tighter gap rejects what kim-sarnak accepts
    selberg = GroupContext(
        name="x", vol=ctx.vol, eta=ETA_SELBERG, contains_minus_one=True, min_c=1.0
    )
    with pytest.raises(ConstraintViolation, match="spectral gap"):
        validate(reference_params(), selberg)


def test_volume_terms_reference_values():
    q_plus, q_minus = compute_q(reference_params(), group_preset("sl2z"))
    assert math.isclose(q_plus, 68.415327491868, rel_tol=1e-12)
    assert math.isclose(q_minus, -215.83707676492415, rel_tol=1e-12)


def test_volume_terms_closed_form():
    ctx = group_preset("sl2z")
    t = TrapezoidParams(delta=3.0, alpha_plus=0.2, alpha_minus=0.1, beta_plus=1.5, beta_minus=0.8)
    p = ParamSet(trapezoid=t, sigma_plus=0.3, sigma_minus=0.3)
    q_plus, q_minus = compute_q(p, ctx)
    log_term = math.log(2.0)
    assert math.isclose(q_plus, (1.5 / (2.0 * 0.2 * 3.0**0.2) - log_term) / ctx.vol, rel_tol=1e-14)
    assert math.isclose(q_minus, -(0.8 / (2.0 * 0.1 * 3.0**0.1) + log_term) / ctx.vol, rel_tol=1e-14)
    assert q_minus <= 0.0


# D_plus and D_minus at the reference parameters by 30-digit mpmath quadrature
# (test_enclose_D_contains_mpmath_quadrature computes them again).
D_PLUS_MPMATH = 18.563806879166080
D_MINUS_MPMATH = 9.6018700179587493


def test_majorant_integrals_reference_values():
    """compute_D gives the upper ends of the certified enclosures, within 1e-6
    above the mpmath values; the enclosures prove that D_plus exceeds its
    rounded cap and that D_minus stays within its own."""
    D_plus, D_minus = compute_D(reference_params())
    enclosures = enclose_D(reference_params())
    assert (D_plus, D_minus) == (enclosures[0][1], enclosures[1][1])
    assert D_PLUS_MPMATH <= D_plus <= D_PLUS_MPMATH * (1.0 + 1e-6)
    assert D_MINUS_MPMATH <= D_minus <= D_MINUS_MPMATH * (1.0 + 1e-6)
    for lo, hi in enclosures:
        assert 0.0 < lo < hi <= lo * (1.0 + 1e-6)
    (lo_plus, _), (_, hi_minus) = enclosures
    assert hi_minus <= ROUNDED_D_MINUS
    assert lo_plus > ROUNDED_D_PLUS  # the rounded cap understates the integral


def test_spectral_factor_values():
    bare = spectral_factor(ETA_KIM_SARNAK, include_phi_constant=False)
    full = spectral_factor(ETA_KIM_SARNAK, include_phi_constant=True)
    assert math.isclose(bare, 7.160460678635234, rel_tol=1e-15)
    assert math.isclose(full, 4.315275373722399, rel_tol=1e-15)
    assert math.isclose(full / bare, math.pi / (2.0 * math.pi - 4.0) ** 2, rel_tol=1e-15)
    with pytest.raises(ConstraintViolation):
        spectral_factor(0.3, include_phi_constant=True)


def test_paper_arithmetic_reproduction():
    report = assemble(reference_params(), group_preset("sl2z"), 216.0, "paper-arithmetic")
    assert report.mode == "paper-arithmetic"
    assert (report.q_plus, report.q_minus) == (69.0, -216.0)
    assert (report.D_plus, report.D_minus) == (18.5, 9.61)


def test_theorem_exact_is_strictly_tighter():
    report = assemble(reference_params(), group_preset("sl2z"), 216.0, "theorem-exact")
    assert report.mode == "theorem-exact"
    assert report.width < HEADLINE_B - HEADLINE_A


def test_count_cap_monotonicity():
    p = reference_params()
    ctx = group_preset("sl2z")
    tight = assemble(p, ctx, 216.0, "paper-arithmetic")
    loose = assemble(p, ctx, 300.0, "paper-arithmetic")
    assert loose.A < tight.A
    assert loose.B > tight.B
    exact_tight = assemble(p, ctx, 216.0, "theorem-exact")
    exact_loose = assemble(p, ctx, 300.0, "theorem-exact")
    assert exact_loose.A < exact_tight.A
    assert exact_loose.B > exact_tight.B


def test_certificate_end_is_monotone_in_D():
    """With factor, N_bar > 0, a larger D never raises A nor lowers B, down to one ulp of D: the
    float expression is monotone, so the optimize screen may score a candidate by a lower bound
    on its D (bounds.D_floor) and skip it without changing the search path."""
    rng = random.Random(80400)
    for _ in range(2000):
        q, factor, N_bar = rng.uniform(-300.0, 300.0), math.exp(rng.uniform(-5.0, 5.0)), rng.uniform(2.0, 1e3)
        D = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-20.0, 10.0))
        for D_next in (D, math.nextafter(D, math.inf), D + abs(D) * rng.random(), D + rng.uniform(0.0, 1e3)):
            assert -certificate_end(q, D_next, factor, N_bar, +1) >= -certificate_end(q, D, factor, N_bar, +1)
            assert certificate_end(q, D_next, factor, N_bar, -1) >= certificate_end(q, D, factor, N_bar, -1)


def test_assemble_input_checks():
    p = reference_params()
    ctx = group_preset("sl2z")
    with pytest.raises(ConstraintViolation, match="N_bar"):
        assemble(p, ctx, 1.0)
    with pytest.raises(ValueError, match="mode"):
        assemble(p, ctx, 216.0, "rounded")


def test_report_validation():
    kwargs = dict(
        q_plus=1.0,
        q_minus=-1.0,
        D_plus=1.0,
        D_minus=1.0,
        N_bar=2.0,
        spectral_factor=1.0,
        A=-3.0,
        B=1.0,
        mode="theorem-exact",
    )
    report = BoundReport(**kwargs)
    assert report.width == 4.0
    with pytest.raises(ConstraintViolation, match="mode"):
        BoundReport(**{**kwargs, "mode": "loose"})
    with pytest.raises(ConstraintViolation, match="D values"):
        BoundReport(**{**kwargs, "D_plus": 0.0})
    with pytest.raises(ConstraintViolation, match="q values"):
        BoundReport(**{**kwargs, "q_plus": -0.5})
    with pytest.raises(ConstraintViolation, match="empty"):
        BoundReport(**{**kwargs, "A": 2.0})
    for end in ({"A": -math.inf}, {"B": math.inf}, {"A": math.nan}):
        with pytest.raises(ConstraintViolation, match="finite"):
            BoundReport(**{**kwargs, **end})


def test_majorant_integral_reports_nonconvergence_honestly():
    """With sigma barely above alpha the tail bound stays large up to the last
    node; that must surface as the convergence error, not a crash."""
    from greenbound.errors import NonConvergenceError

    t = TrapezoidParams(delta=2.0, alpha_plus=0.3, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    p = ParamSet(trapezoid=t, sigma_plus=0.302, sigma_minus=0.3)
    with pytest.raises(NonConvergenceError, match="wider than 1e-06"):
        compute_D(p)


def test_enclose_D_contains_compute_D_on_random_params():
    rng = random.Random(80300)
    for _ in range(5):
        p = draw_valid_params(rng)
        estimates = compute_D(p)
        for (lo, hi), estimate in zip(enclose_D(p), estimates):
            assert 0.0 < lo < hi <= lo * (1.0 + 1e-6)
            assert estimate == hi


def test_enclose_D_rejects_out_of_range_inputs():
    t = TrapezoidParams(delta=2.0, alpha_plus=0.3, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    edge = ParamSet(trapezoid=t, sigma_plus=0.5 - 2.0**-30, sigma_minus=0.3)
    with pytest.raises(ConstraintViolation):
        enclose_D(edge)
    near_one = TrapezoidParams(
        delta=1.0 + 2.0**-30, alpha_plus=0.3, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1
    )
    with pytest.raises(ConstraintViolation):
        enclose_D(ParamSet(trapezoid=near_one, sigma_plus=0.35, sigma_minus=0.3))
    # below sigma = 2^-11 C_sigma x^2 overflows at the far nodes, or C_sigma itself
    tiny = TrapezoidParams(delta=2.0, alpha_plus=1e-6, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    for sigma in (1e-5, 1.17e-4, 1.5e-4, 3e-4):
        with pytest.raises(ConstraintViolation, match="2\\^-11"):
            enclose_D(ParamSet(trapezoid=tiny, sigma_plus=sigma, sigma_minus=0.3))


def test_enclose_D_upper_end_carries_the_tail():
    """With sigma barely above alpha on the plus side the tail past the last
    node outweighs the panel sums, so the upper end must hold both."""
    from greenbound.bounds import _grid_bounds
    from greenbound.transforms import averaged_transform_tail

    t = TrapezoidParams(delta=2.0, alpha_plus=0.3, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    p = ParamSet(trapezoid=t, sigma_plus=0.302, sigma_minus=0.3)
    for sign, sigma, (lo, hi) in zip((1, -1), (0.302, 0.3), enclose_D(p)):
        panel_lo, panel_hi, M = _grid_bounds(t.delta, sign, p.side(sign), bounds._PANELS)
        tail = averaged_transform_tail(t.delta, sign, sigma, *t.side(sign), M)
        assert lo == panel_lo and 0.0 < lo < panel_hi
        assert hi >= panel_hi + tail
        if sign > 0:
            assert M >= 2.0**299  # the grid ran to its last node
            assert tail > panel_hi  # the case where dropping the tail shows


def grid_bounds_without_table(params, sign):
    """_grid_bounds with no cached prefix: the octave count by the tail rule,
    then a fresh table of _grid over exactly that many octaves (_grid patched to stop there)."""
    t = params.trapezoid
    sigma, alpha, beta = params.side(sign)
    sq_lo, sq_hi = (bounds._dn(bounds._dn(t.delta * t.delta) - 1.0), bounds._up(bounds._up(t.delta * t.delta) - 1.0))
    floor = C_sigma(sigma)[0] * t.delta ** (alpha - sigma) / (4.0 * SQRT_PI * beta * (sigma - alpha))
    ends = np.arange(1, math.floor(600.0 - math.log2(sq_hi)) + 1)
    fits = averaged_transform_tail(t.delta, sign, sigma, alpha, beta, np.sqrt(1.0 + sq_lo * np.exp2(ends))) <= floor * 2.0**-22
    octaves = int(ends[fits.argmax() if fits.any() else -1])
    grid = bounds._grid
    nodes = grid(math.sqrt(t.delta * t.delta - 1.0), octaves, bounds._PANELS)[0]
    with mock.patch.object(bounds, "_grid", lambda t0, _octaves, panels: grid(t0, octaves, panels)):
        table = bounds._node_table.__wrapped__(t.delta, bounds._PANELS)
    assert np.array_equal(table["X_lo"][1::2], nodes * nodes)
    lo, hi = bounds._panels(params.side(sign), sign, table, nodes.size)
    return lo, hi, bounds._dn(math.sqrt(bounds._dn(1.0 + nodes[-1] * nodes[-1])))


def test_node_table_prefix_gives_the_same_bits():
    """_grid_bounds reads a prefix of one table per delta, built out to 2^600;
    it gives the bits of a table of exactly its own octaves, at the reference
    parameters, on seeded sets and at other delta, also after enough other
    delta to evict every table, and the cache stays within its size.  The
    grid bounds are taken unmemoized, so the second pass rebuilds tables."""
    rng = random.Random(1600)
    sets = [reference_params()] + [draw_valid_params(rng) for _ in range(4)]
    t = reference_params().trapezoid
    for delta in (1.5, 3.0, 10.0):
        beta_minus = min(t.beta_minus, 0.99 * delta ** (1.0 + t.alpha_minus) / (delta + 1.0))
        shape = TrapezoidParams(delta, t.alpha_plus, t.alpha_minus, t.beta_plus, beta_minus)
        sets.append(ParamSet(trapezoid=shape, sigma_plus=0.306, sigma_minus=0.25))
    for _ in range(2):
        for params in sets:
            for sign in (1, -1):
                fresh = bounds._grid_bounds.__wrapped__(params.trapezoid.delta, sign, params.side(sign), bounds._PANELS)
                assert fresh == grid_bounds_without_table(params, sign), (params, sign)
                assert bounds._node_table.cache_info().currsize <= bounds._TABLES
    assert bounds._node_table.cache_info().maxsize == bounds._TABLES
    table = bounds._node_table(2.0, bounds._PANELS)
    for values in table.values():
        with pytest.raises(ValueError, match="read-only"):
            values[..., 0] = 0


def test_grid_bounds_memo_is_keyed_on_delta(cold_enclosures):
    """The same (sigma, alpha, beta) at delta = 2 and at delta = 3 are two memo entries, each
    with the bits of _panels run unmemoized on a table of its own delta."""
    t = reference_params().trapezoid
    shape = TrapezoidParams(3.0, t.alpha_plus, t.alpha_minus, t.beta_plus, t.beta_minus)
    pair = (reference_params(), ParamSet(trapezoid=shape, sigma_plus=0.306, sigma_minus=0.25))
    for sign in (1, -1):
        assert pair[0].side(sign) == pair[1].side(sign)
        cold_enclosures.cache_clear()
        for params in pair:
            memoized = cold_enclosures(params.trapezoid.delta, sign, params.side(sign), bounds._PANELS)
            assert memoized == grid_bounds_without_table(params, sign), (params, sign)
        assert cold_enclosures.cache_info().currsize == 2
    assert cold_enclosures.cache_info().maxsize == bounds._ENCLOSURES


def test_grid_bounds_memo_keeps_no_raise(cold_enclosures):
    """A side outside the enclosure's range raises ConstraintViolation on every call; no entry
    is stored for it."""
    tiny = TrapezoidParams(delta=2.0, alpha_plus=1e-6, alpha_minus=0.1, beta_plus=1.0, beta_minus=0.1)
    params = ParamSet(trapezoid=tiny, sigma_plus=1e-5, sigma_minus=0.3)
    for _ in range(2):
        with pytest.raises(ConstraintViolation, match="2\\^-11"):
            enclose_D(params)
    assert cold_enclosures.cache_info().currsize == 0


def _D_pieces(ctx, params, sign):
    """The factors of the D integrand in mpmath context ctx (mp or iv),
    rebuilt from the docstrings of C_sigma, p_sigma and transforms.corner.

    Returns (x, P, S, g, corner): x(u) = u + sqrt(u^2 - 1), the x-power part
    P and shape factor S of p_sigma, g(U) = U^{1+alpha} / (beta (U^2 - 1)^2)
    and the corner V(U) or T(U).
    """
    t = params.trapezoid
    if sign > 0:
        sigma, alpha, beta = params.sigma_plus, t.alpha_plus, t.beta_plus
    else:
        sigma, alpha, beta = params.sigma_minus, t.alpha_minus, t.beta_minus
    sigma, alpha, beta = ctx.mpf(sigma), ctx.mpf(alpha), ctx.mpf(beta)
    tan = ctx.tan(ctx.pi * sigma)
    # max(1, tan(pi sigma)), taken per end for an interval
    top = ctx.mpf([max(1, tan.a), max(1, tan.b)]) if hasattr(tan, "a") else max(1, tan)
    common = top * (1 / sigma - 1) ** ctx.mpf(0.25) / (4 * ctx.sqrt(ctx.pi))
    c_main = common * ctx.exp(ctx.mpf(0.5) + 1 / (24 * sigma * (ctx.mpf(0.5) + sigma)))
    c_prime = common * ctx.exp(ctx.mpf(0.5) + 1 / (24 * (1 - sigma) * (ctx.mpf(1.5) - sigma)))

    def x(u):
        return u + ctx.sqrt(u * u - 1)

    def P(x):
        return c_main * x ** (2 - sigma) + c_prime * x ** (1 + sigma)

    def S(x):
        return (1 - x**-2) ** ctx.mpf(1.5) + 3 * x**-2

    def g(U):
        return U ** (1 + alpha) / (beta * (U * U - 1) ** 2)

    def corner(U):
        return U + sign * beta * U ** (-1 - alpha) * (U * U - 1)

    return x, P, S, g, corner


def mpmath_D(mpmath, params, sign):
    """D_plus or D_minus by 30-digit mpmath quadrature in log U."""
    with mpmath.workdps(30):
        x, P, S, g, corner = _D_pieces(mpmath.mp, params, sign)
        delta = mpmath.mpf(params.trapezoid.delta)

        def integrand(s):  # U = delta e^s; T >= 1 is proved, but a float beta^- on its cap rounds
            U = delta * mpmath.exp(s)
            xu, xw = x(U), x(max(corner(U), 1))
            return (P(xu) * S(xu) + P(xw) * S(xw)) * g(U) * U

        return mpmath.quad(integrand, [0, 1, 4, 16, 64, 256, mpmath.inf])


@pytest.mark.parametrize("sign", [1, -1])
def test_enclose_D_contains_mpmath_quadrature(sign):
    mpmath = pytest.importorskip("mpmath")
    params = reference_params()
    oracle = mpmath_D(mpmath, params, sign)
    lo, hi = enclose_D(params)[0 if sign > 0 else 1]
    assert lo <= oracle <= hi <= lo * (1.0 + 1e-6)
    assert abs(oracle - (D_PLUS_MPMATH if sign > 0 else D_MINUS_MPMATH)) <= 1e-15 * oracle


def test_enclose_D_is_narrow_and_contains_mpmath_on_varied_params():
    """Both enclosures are at most 1e-6 wide and contain the mpmath value on
    the random sets, close to delta = 1 with beta^- under and on its cap, and
    for a plus side whose integrand is not convex on a stretch of octaves."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(80300)
    sets = [draw_valid_params(rng) for _ in range(5)]
    for delta in (1.05, 1.001):
        for share in (0.5, 0.999, 1.0):
            beta_minus = share * delta**1.01 / (delta + 1.0)
            t = TrapezoidParams(delta, alpha_plus=0.05, alpha_minus=0.01, beta_plus=2.7, beta_minus=beta_minus)
            sets.append(ParamSet(trapezoid=t, sigma_plus=0.3, sigma_minus=0.3))
    t = TrapezoidParams(2.1, alpha_plus=0.013, alpha_minus=0.17, beta_plus=2.86, beta_minus=0.7)
    sets.append(ParamSet(trapezoid=t, sigma_plus=0.139, sigma_minus=0.32))
    for params in sets:
        for sign, (lo, hi) in zip((1, -1), enclose_D(params)):
            assert 0.0 < lo < hi <= lo * (1.0 + 1e-6), (params, sign)
            assert lo <= mpmath_D(mpmath, params, sign) <= hi, (params, sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_enclose_D_panel_bounds_agree_with_interval_arithmetic(sign):
    """Per panel [a, b] in U, the node bounds of own, pow and rest at a and b
    contain their exact values; the first-order panel bounds built from them
    sit outside the exact monotone corner values (rounded outward by at most
    1e-12), inside the naive mpmath.iv range of the integrand in s, and times
    the panel width in s around the panel's quadrature."""
    mpmath = pytest.importorskip("mpmath")

    params = reference_params()
    alpha, beta = (params.trapezoid.alpha_plus, params.trapezoid.beta_plus) if sign > 0 else (
        params.trapezoid.alpha_minus,
        params.trapezoid.beta_minus,
    )
    panels = [(2.0, 2.001), (2.5, 3.0), (7.0, 7.25), (1e3, 1.2e3), (1e12, 1.5e12)]
    panels.append((2.0**100, 2.0**100 * 1.01))
    iv, mp = mpmath.iv, mpmath.mp
    saved = iv.dps, mp.dps
    iv.dps = mp.dps = 50
    try:
        x, P, S, g, corner = _D_pieces(mp, params, sign)
        ix, iP, iS, ig, icorner = _D_pieces(iv, params, sign)

        def pieces(U):  # own, pow, rest at U, in the variable s = log(U^2 - 1)
            G = g(U) * (U * U - 1) / (2 * U)
            return P(x(U)) * S(x(U)) * G, P(x(corner(U))), S(x(corner(U))) * G

        for a, b in panels:
            # U^2 - 1 at a and b, enclosed between the floats either side
            X = [mp.mpf(v) ** 2 - 1 for v in (a, b)]
            X_lo = np.array([float(mpmath.nstr(v, 17)) for v in X])
            X_lo, X_hi = np.nextafter(X_lo, 0.0), np.nextafter(X_lo, np.inf)
            node = bounds._node_bounds(params.side(sign), sign, X_lo, X_hi, bounds._u_parts(X_lo, X_hi))
            own_lo, own_hi, pow_lo, pow_hi, rest_lo, rest_hi = node
            ends = pieces(mp.mpf(a)), pieces(mp.mpf(b))
            for k, exact in enumerate(ends):
                for value, low, high in zip(exact, (own_lo, pow_lo, rest_lo), (own_hi, pow_hi, rest_hi)):
                    assert low[k] <= value <= high[k]
            lo = own_lo[1] + pow_lo[0] * rest_lo[1]
            hi = own_hi[0] + pow_hi[1] * rest_hi[0]
            exact_lo = ends[1][0] + ends[0][1] * ends[1][2]
            exact_hi = ends[0][0] + ends[1][1] * ends[0][2]
            assert exact_hi <= hi <= exact_hi * (1 + mp.mpf(1e-12))
            assert exact_lo * (1 - mp.mpf(1e-12)) <= lo <= exact_lo
            width = mp.log(X[1] / X[0])
            U = iv.mpf([a, b])
            W = icorner(U)  # naively T(U) may dip below 1, where T >= 1 is proved
            xu, xw = ix(U), ix(iv.mpf([max(1, W.a), W.b]))
            naive = (iP(xu) * iS(xu) + iP(xw) * iS(xw)) * ig(U) * (U * U - 1) / (2 * U)
            assert naive.a <= lo and hi <= naive.b

            def f(s):  # U^2 - 1 = e^s
                own, pow_, rest = pieces(mp.sqrt(1 + mp.exp(s)))
                return own + pow_ * rest

            quad = mp.quad(f, [mp.log(X[0]), mp.log(X[1])])
            assert lo * width <= quad <= hi * width
    finally:
        iv.dps, mp.dps = saved


def draw_valid_params(rng):
    delta = rng.uniform(1.3, 3.0)
    alpha_plus = rng.uniform(0.01, 0.2)
    alpha_minus = rng.uniform(0.01, 0.2)
    beta_plus = rng.uniform(0.5, 3.0)
    cap = delta ** (1.0 + alpha_minus) / (delta + 1.0)
    beta_minus = rng.uniform(0.1, 0.999) * cap
    trapezoid = TrapezoidParams(
        delta=delta,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        beta_plus=beta_plus,
        beta_minus=beta_minus,
    )
    # keep sigma well above alpha so the tail majorant closes quickly
    sigma_plus = rng.uniform(alpha_plus + 0.12, 0.38)
    sigma_minus = rng.uniform(alpha_minus + 0.12, 0.38)
    return ParamSet(trapezoid=trapezoid, sigma_plus=sigma_plus, sigma_minus=sigma_minus)


def test_random_valid_params_pass_validation():
    ctx = group_preset("sl2z")
    rng = random.Random(80100)
    for _ in range(100):
        p = draw_valid_params(rng)
        assert validate(p, ctx) is p


def test_random_certificates_are_ordered():
    """Assembled intervals are nonempty and scale monotonically in N_bar."""
    ctx = group_preset("sl2z")
    rng = random.Random(80200)
    for _ in range(20):
        p = draw_valid_params(rng)
        report = assemble(p, ctx, 216.0, "theorem-exact")
        assert report.A <= report.B
        assert report.D_plus > 0.0 and report.D_minus > 0.0
        assert report.q_minus <= 0.0 <= report.q_plus
        assert report.width > 0.0


def test_param_record_round_trip():
    """record() lists the trapezoid fields, then the sigmas, and from_record inverts it."""
    p = reference_params()
    assert list(p.record()) == [
        "delta", "alpha_plus", "alpha_minus", "beta_plus", "beta_minus", "sigma_plus", "sigma_minus",
    ]
    assert p.record() == {"delta": 2.0, "alpha_plus": 0.0366, "alpha_minus": 2.96e-3, "beta_plus": 2.72,
                          "beta_minus": 0.668, "sigma_plus": 0.306, "sigma_minus": 0.25}
    rng = random.Random(80300)
    for q in [p, *(draw_valid_params(rng) for _ in range(50))]:
        assert ParamSet.from_record(q.record()) == q
    with pytest.raises(ConstraintViolation, match="sigma_plus"):
        ParamSet.from_record({**p.record(), "sigma_plus": 0.5})
