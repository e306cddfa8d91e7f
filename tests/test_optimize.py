"""Coordinate-descent tuning of the certificate parameters."""

import math

import pytest
from test_bounds import D_MINUS_MPMATH, D_PLUS_MPMATH

from greenbound import optimize
from greenbound.bounds import ParamSet, _upper_end, assemble, group_preset, reference_params, validate
from greenbound.errors import ConstraintViolation
from greenbound.optimize import search

N_BAR = 216.0
SEED_B = 9165.7369649571  # B at reference_params(), N_bar = 216


def test_config_validation():
    with pytest.raises(ConstraintViolation, match="max_iters"):
        search(reference_params(), group_preset("sl2z"), N_BAR, 0)


def test_single_iteration_returns_validated_seed():
    ctx = group_preset("sl2z")
    seed = reference_params()
    params, report = search(seed, ctx, N_BAR, 1)
    assert params == seed
    direct = assemble(seed, ctx, N_BAR, "theorem-exact")
    assert report.A == direct.A
    assert report.B == direct.B
    assert report.mode == "theorem-exact"


def test_invalid_seed_is_rejected():
    ctx = group_preset("sl2z")
    t = reference_params().trapezoid
    bad_seed = ParamSet(trapezoid=t, sigma_plus=0.45, sigma_minus=0.25)
    with pytest.raises(ConstraintViolation, match="seed parameters are invalid"):
        search(bad_seed, ctx, N_BAR, 1)


def test_width_objective_never_worsens():
    ctx = group_preset("sl2z")
    seed = reference_params()
    base = assemble(seed, ctx, N_BAR, "theorem-exact")
    params, report = search(seed, ctx, N_BAR, 3)
    assert report.width <= base.width
    validate(params, ctx)
    assert report.A <= report.B


def test_minus_side_moves_without_the_plus_side():
    """B is searched on its own: in three iterations the plus side finds no
    better A, and B still drops below the seed's, although no minus move
    lowers max(|A|, |B|)."""
    ctx = group_preset("sl2z")
    seed = reference_params()
    base = assemble(seed, ctx, N_BAR, "theorem-exact")
    assert base.B == SEED_B
    params, report = search(seed, ctx, N_BAR, 3)
    assert report.A == base.A
    assert report.B < SEED_B
    validate(params, ctx)


def test_search_is_deterministic():
    ctx = group_preset("sl2z")
    first = search(reference_params(), ctx, N_BAR, 3)
    second = search(reference_params(), ctx, N_BAR, 3)
    assert first[0] == second[0]
    assert (first[1].A, first[1].B) == (second[1].A, second[1].B)


def test_longer_budget_does_not_regress():
    ctx = group_preset("sl2z")
    short = search(reference_params(), ctx, N_BAR, 2)
    longer = search(reference_params(), ctx, N_BAR, 4)
    assert longer[1].width <= short[1].width + 1e-12 * abs(short[1].width)
    assert math.isfinite(longer[1].width)


def test_search_result_is_pinned():
    """optimize --max-iters 25 scores every candidate on the upper ends of
    enclose_D; its path and result are fixed to the last bit."""
    ctx = group_preset("sl2z")
    params, report = search(reference_params(), ctx, N_BAR, 25)
    assert (report.A, report.B) == (-17307.291135686035, 9154.736655067029)
    t = params.trapezoid
    assert (t.delta, t.alpha_plus, t.alpha_minus, t.beta_plus, t.beta_minus) == (
        2.0,
        0.038963511852965475,
        0.003731038598193473,
        2.673965263910509,
        0.6683930032505743,
    )
    assert (params.sigma_plus, params.sigma_minus) == (0.2923714123420863, 0.2502180733913586)


def test_search_encloses_each_side_point_once(monkeypatch):
    """Each side stops on its own step floor, its enclosures are memoized, and
    the screen skips the candidates whose proved lower bound already misses,
    so 25 iterations take at most 70 fine enclosures (230 unscreened)."""
    calls = []
    enclose = optimize._enclose_one_sign

    def counted(params, sign):
        calls.append(sign)
        return enclose(params, sign)

    monkeypatch.setattr(optimize, "_enclose_one_sign", counted)
    search(reference_params(), group_preset("sl2z"), N_BAR, 25)
    assert len(calls) <= 70


@pytest.mark.parametrize("n_bar", [N_BAR, 80.0])
@pytest.mark.parametrize("max_iters", [1, 5, 12, 25])
def test_screen_changes_no_decision(monkeypatch, max_iters, n_bar):
    """With a screen that never skips, search returns the same parameters and
    report to the last bit."""
    ctx = group_preset("sl2z")
    screened = search(reference_params(), ctx, n_bar, max_iters)
    monkeypatch.setattr(optimize, "_grid_bounds", lambda params, sign, panels: (-math.inf, math.inf, 1.0))
    assert repr(search(reference_params(), ctx, n_bar, max_iters)) == repr(screened)


def test_screen_end_is_a_proved_lower_bound():
    """The coarse grid's lower end lies below the 30-digit D and within 2e-6 of it."""
    for sign, D in ((+1, D_PLUS_MPMATH), (-1, D_MINUS_MPMATH)):
        low = optimize._grid_bounds(reference_params(), sign, optimize._SCREEN_PANELS)[0]
        assert D * (1.0 - 2e-6) <= low <= D


@pytest.mark.parametrize("max_iters", [5, 9, 25])
def test_search_report_reassembles_exactly(max_iters):
    """Assembling afresh at the returned parameters gives the report's A and
    B to the last bit."""
    ctx = group_preset("sl2z")
    params, report = search(reference_params(), ctx, N_BAR, max_iters)
    direct = assemble(params, ctx, N_BAR, "theorem-exact")
    assert (direct.A, direct.B) == (report.A, report.B)


def test_each_assembled_D_was_enclosed_at_its_own_floats(monkeypatch):
    """The memo is keyed on each side's exact (sigma, alpha, beta), so every D
    that search hands to assemble is the upper end of an enclosure made at
    exactly that candidate's floats, never at a neighbouring point's."""
    enclosed, assembled = {}, []
    enclose, assemble_ = optimize._enclose_one_sign, optimize.assemble

    def recorded_enclose(params, sign):
        enclosed[sign, params.side(sign)] = result = enclose(params, sign)
        return result

    def recorded_assemble(params, ctx, N_bar, D):
        assembled.append((params, D))
        return assemble_(params, ctx, N_bar, D=D)

    monkeypatch.setattr(optimize, "_enclose_one_sign", recorded_enclose)
    monkeypatch.setattr(optimize, "assemble", recorded_assemble)
    search(reference_params(), group_preset("sl2z"), N_BAR, 25)
    assert len(assembled) > 50
    for params, D in assembled:
        for sign, value in zip((+1, -1), D):
            assert value == _upper_end(enclosed[sign, params.side(sign)], sign)
