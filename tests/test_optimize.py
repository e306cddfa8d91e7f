"""Coordinate-descent tuning of the certificate parameters."""

import math

import pytest

from greenbound.bounds import ParamSet, assemble, group_preset, reference_params, validate
from greenbound.errors import ConstraintViolation
from greenbound.optimize import SearchConfig, search
from greenbound.transforms import TrapezoidParams

N_BAR = 216.0


def make_config(**overrides):
    fields = dict(
        objective="width",
        max_iters=1,
        step_shrink=0.7,
        seed_params=reference_params(),
    )
    fields.update(overrides)
    return SearchConfig(**fields)


def test_config_validation():
    with pytest.raises(ConstraintViolation, match="objective"):
        make_config(objective="area")
    with pytest.raises(ConstraintViolation, match="max_iters"):
        make_config(max_iters=0)
    with pytest.raises(ConstraintViolation, match="step_shrink"):
        make_config(step_shrink=1.0)
    with pytest.raises(ConstraintViolation, match="step_shrink"):
        make_config(step_shrink=0.0)


def test_single_iteration_returns_validated_seed():
    ctx = group_preset("sl2z")
    seed = reference_params()
    params, report = search(make_config(max_iters=1), ctx, seed.trapezoid.delta, N_BAR)
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
        search(make_config(seed_params=bad_seed), ctx, t.delta, N_BAR)


def test_width_objective_never_worsens():
    ctx = group_preset("sl2z")
    seed = reference_params()
    base = assemble(seed, ctx, N_BAR, "theorem-exact")
    params, report = search(make_config(max_iters=3), ctx, seed.trapezoid.delta, N_BAR)
    assert report.width <= base.width
    validate(params, ctx)
    assert report.A <= report.B


def test_max_abs_objective_never_worsens():
    ctx = group_preset("sl2z")
    seed = reference_params()
    base = assemble(seed, ctx, N_BAR, "theorem-exact")
    params, report = search(
        make_config(objective="max-abs", max_iters=3), ctx, seed.trapezoid.delta, N_BAR
    )
    assert max(abs(report.A), abs(report.B)) <= max(abs(base.A), abs(base.B))
    validate(params, ctx)


def test_search_is_deterministic():
    ctx = group_preset("sl2z")
    cfg = make_config(max_iters=3)
    first = search(cfg, ctx, 2.0, N_BAR)
    second = search(cfg, ctx, 2.0, N_BAR)
    assert first[0] == second[0]
    assert (first[1].A, first[1].B) == (second[1].A, second[1].B)


def test_delta_override_rebuilds_seed():
    ctx = group_preset("sl2z")
    params, report = search(make_config(max_iters=1), ctx, 2.5, N_BAR)
    assert params.trapezoid.delta == 2.5
    # the other seed coordinates carry over unchanged
    seed = reference_params()
    assert params.trapezoid.alpha_plus == seed.trapezoid.alpha_plus
    assert params.sigma_minus == seed.sigma_minus
    assert report.A <= report.B


def test_seed_outside_cap_at_new_delta_is_rejected():
    """Rebuilding the seed at a smaller delta can break the beta_minus cap;
    that must surface as an invalid-seed error, not a silent projection."""
    ctx = group_preset("sl2z")
    t = TrapezoidParams(
        delta=2.0, alpha_plus=0.0366, alpha_minus=2.96e-3, beta_plus=2.72, beta_minus=0.66
    )
    seed = ParamSet(trapezoid=t, sigma_plus=0.306, sigma_minus=0.25)
    with pytest.raises(ConstraintViolation, match="seed parameters are invalid"):
        search(make_config(seed_params=seed), ctx, 1.2, N_BAR)


def test_longer_budget_does_not_regress():
    ctx = group_preset("sl2z")
    short = search(make_config(max_iters=2), ctx, 2.0, N_BAR)
    longer = search(make_config(max_iters=4), ctx, 2.0, N_BAR)
    assert longer[1].width <= short[1].width + 1e-12 * abs(short[1].width)
    assert math.isfinite(longer[1].width)
