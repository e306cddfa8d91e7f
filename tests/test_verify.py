"""The self-check batteries and their shared check functions."""

import inspect

import pytest

from greenbound.bounds import COUNT_CAP_STANDARD, assemble, compute_D, compute_q, group_preset, reference_params
from greenbound.lattice import count_bound, truncated_fundamental_domain
from greenbound.verify import PROPERTY_CHECKS, reproduction_battery


@pytest.mark.parametrize("check", [check for check, _ in PROPERTY_CHECKS], ids=lambda c: c.__name__)
def test_property_check_passes_at_full_size(check, full_check):
    """Every check selftest runs at its short size also runs in the suite at full size."""
    result = full_check(check)
    assert result.passed, result.detail


def test_property_checks_set_only_the_sample_count():
    """selftest's short run of each check is a prefix of its full run, so PROPERTY_CHECKS passes
    no keyword but n, and no check takes another parameter: a range or grid knob that moves the
    short run off the full one shows here."""
    extra = {
        check.__name__: sorted((set(size) | set(inspect.signature(check).parameters)) - {"n"})
        for check, size in PROPERTY_CHECKS
    }
    assert not any(extra.values()), extra


def test_reproduction_battery_encloses_D_once(cold_enclosures):
    """The majorant cap rows read D from the theorem-exact report, so the battery encloses D once:
    from a cold memo, one miss per sign and no second lookup."""
    results = reproduction_battery(grid=(10, 10))
    info = cold_enclosures.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    assert [r.name for r in results if not r.passed] == ["D_plus"]


def test_reproduction_details_carry_each_value_to_the_last_bit():
    """Each reproduce-paper detail reads "<name> = <repr(value)>, ...", so the golden record of
    reproduce-paper sees a one-ulp move of any reproduced number; the values are computed here
    by the same calls, in the table's order."""
    ctx, params = group_preset("sl2z"), reference_params()
    paper = assemble(params, ctx, COUNT_CAP_STANDARD, mode="paper-arithmetic")
    exact = assemble(params, ctx, COUNT_CAP_STANDARD, mode="theorem-exact")
    values = {
        "count": count_bound(truncated_fundamental_domain(), 17.0, (10, 10)).bound,
        **dict(zip(("q_plus", "q_minus"), compute_q(params, ctx))),
        **dict(zip(("D_plus", "D_minus"), compute_D(params))),
        "paper_A": paper.A, "paper_B": paper.B, "exact_A": exact.A, "exact_B": exact.B,
    }
    results = reproduction_battery((10, 10))
    assert [r.name for r in results] == list(values)
    for r in results:
        assert r.detail.startswith(f"{r.name} = {values[r.name]!r}, "), r.detail
