"""Coordinate-descent tuning of the certificate parameters."""

import math

import pytest

from greenbound.bounds import ParamSet, assemble, group_preset, reference_params, validate
from greenbound.errors import ConstraintViolation
from greenbound.optimize import SearchConfig, search

N_BAR = 216.0


def make_config(**overrides):
    fields = dict(
        objective="width",
        max_iters=1,
        seed_params=reference_params(),
    )
    fields.update(overrides)
    return SearchConfig(**fields)


def test_config_validation():
    with pytest.raises(ConstraintViolation, match="objective"):
        make_config(objective="area")
    with pytest.raises(ConstraintViolation, match="max_iters"):
        make_config(max_iters=0)


def test_single_iteration_returns_validated_seed():
    ctx = group_preset("sl2z")
    seed = reference_params()
    params, report = search(make_config(max_iters=1), ctx, N_BAR)
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
        search(make_config(seed_params=bad_seed), ctx, N_BAR)


def test_width_objective_never_worsens():
    ctx = group_preset("sl2z")
    seed = reference_params()
    base = assemble(seed, ctx, N_BAR, "theorem-exact")
    params, report = search(make_config(max_iters=3), ctx, N_BAR)
    assert report.width <= base.width
    validate(params, ctx)
    assert report.A <= report.B


def test_max_abs_objective_never_worsens():
    ctx = group_preset("sl2z")
    seed = reference_params()
    base = assemble(seed, ctx, N_BAR, "theorem-exact")
    params, report = search(
        make_config(objective="max-abs", max_iters=3), ctx, N_BAR
    )
    assert max(abs(report.A), abs(report.B)) <= max(abs(base.A), abs(base.B))
    validate(params, ctx)


def test_search_is_deterministic():
    ctx = group_preset("sl2z")
    cfg = make_config(max_iters=3)
    first = search(cfg, ctx, N_BAR)
    second = search(cfg, ctx, N_BAR)
    assert first[0] == second[0]
    assert (first[1].A, first[1].B) == (second[1].A, second[1].B)


def test_longer_budget_does_not_regress():
    ctx = group_preset("sl2z")
    short = search(make_config(max_iters=2), ctx, N_BAR)
    longer = search(make_config(max_iters=4), ctx, N_BAR)
    assert longer[1].width <= short[1].width + 1e-12 * abs(short[1].width)
    assert math.isfinite(longer[1].width)
