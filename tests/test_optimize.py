"""Coordinate-descent tuning of the certificate parameters."""

import math

import pytest
from test_bounds import D_MINUS_MPMATH, D_PLUS_MPMATH

from greenbound import bounds, optimize
from greenbound.bounds import ParamSet, assemble, compute_D, group_preset, reference_params, validate
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


def test_search_encloses_each_side_point_once(monkeypatch, cold_enclosures):
    """Each side stops on its own step floor, its enclosures are memoized, and
    the screen skips the candidates whose proved lower bound already misses,
    so 25 iterations from a cold memo take at least one and at most 70 fine
    enclosures (230 unscreened).  A memo miss reads its node table once."""
    panels = []
    node_table = bounds._node_table

    def counted(delta, grid_panels):
        panels.append(grid_panels)
        return node_table(delta, grid_panels)

    monkeypatch.setattr(bounds, "_node_table", counted)
    search(reference_params(), group_preset("sl2z"), N_BAR, 25)
    assert 1 <= panels.count(bounds._PANELS) <= 70


def test_repeated_searches_enclose_nothing_anew(cold_enclosures):
    """The memo outlives a search: a second identical search, and a shorter
    one after it, whose path is a prefix of the longer one's, make no memo
    miss and return what they return from a cold memo."""
    ctx = group_preset("sl2z")
    short = repr(search(reference_params(), ctx, N_BAR, 9))
    cold_enclosures.cache_clear()
    full = repr(search(reference_params(), ctx, N_BAR, 25))
    info = cold_enclosures.cache_info()
    assert 0 < info.currsize <= info.maxsize == bounds._ENCLOSURES
    assert repr(search(reference_params(), ctx, N_BAR, 25)) == full
    assert repr(search(reference_params(), ctx, N_BAR, 9)) == short
    assert cold_enclosures.cache_info().misses == info.misses
    assert cold_enclosures.cache_info().currsize == info.currsize

@pytest.mark.parametrize("n_bar", [N_BAR, 80.0])
@pytest.mark.parametrize("max_iters", [1, 5, 12, 25])
def test_screen_changes_no_decision(monkeypatch, cold_enclosures, max_iters, n_bar):
    """With a screen that never skips, search returns the same parameters and
    report to the last bit."""
    ctx = group_preset("sl2z")
    screened = search(reference_params(), ctx, n_bar, max_iters)
    monkeypatch.setattr(optimize, "D_floor", lambda params, sign: -math.inf)
    assert repr(search(reference_params(), ctx, n_bar, max_iters)) == repr(screened)


def test_screen_end_is_a_proved_lower_bound():
    """The coarse grid's lower end lies below the 30-digit D and within 2e-6 of it."""
    for sign, D in ((+1, D_PLUS_MPMATH), (-1, D_MINUS_MPMATH)):
        params = reference_params()
        low = bounds.D_floor(params, sign)
        assert D * (1.0 - 2e-6) <= low <= D


@pytest.mark.parametrize("max_iters", [5, 9, 25])
def test_search_report_reassembles_exactly(max_iters):
    """Assembling afresh at the returned parameters gives the report's A and
    B to the last bit."""
    ctx = group_preset("sl2z")
    params, report = search(reference_params(), ctx, N_BAR, max_iters)
    direct = assemble(params, ctx, N_BAR, "theorem-exact")
    assert (direct.A, direct.B) == (report.A, report.B)


def test_each_assembled_D_was_enclosed_at_its_own_floats(monkeypatch, cold_enclosures):
    """The memo is keyed on each side's exact (delta, sigma, alpha, beta), so
    every D that search assembles comes from an enclosure made at exactly that
    candidate's floats, never at a neighbouring point's: from a cold memo, each
    side of each assembled candidate was a fine memo miss, and its D equals,
    bit for bit, the one compute_D gives on an empty memo."""
    missed, assembled = set(), []
    node_table, panels, assemble_ = bounds._node_table, bounds._panels, optimize.assemble
    key = []

    def recorded_node_table(delta, grid_panels):
        key[:] = [delta, grid_panels]
        return node_table(delta, grid_panels)

    def recorded_panels(side, sign, table, n):
        missed.add((*key, sign, side))
        return panels(side, sign, table, n)

    def recorded_assemble(params, ctx, N_bar):
        assembled.append((params, report := assemble_(params, ctx, N_bar)))
        return report

    monkeypatch.setattr(bounds, "_node_table", recorded_node_table)
    monkeypatch.setattr(bounds, "_panels", recorded_panels)
    monkeypatch.setattr(optimize, "assemble", recorded_assemble)
    search(reference_params(), group_preset("sl2z"), N_BAR, 25)
    assert len(assembled) > 50
    for params, report in assembled:
        for sign in (+1, -1):
            assert (params.trapezoid.delta, bounds._PANELS, sign, params.side(sign)) in missed
    monkeypatch.undo()
    for params, report in assembled:
        cold_enclosures.cache_clear()
        assert (report.D_plus, report.D_minus) == compute_D(params)
