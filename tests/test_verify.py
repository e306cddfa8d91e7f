"""The self-check batteries and their shared check functions."""

import pytest

from greenbound.verify import PROPERTY_CHECKS, reproduction_battery


@pytest.mark.parametrize("check", [check for check, _ in PROPERTY_CHECKS], ids=lambda c: c.__name__)
def test_property_check_passes_at_full_size(check, full_check):
    """Every check selftest runs at its short size also runs in the suite at full size."""
    result = full_check(check)
    assert result.passed, result.detail


def test_reproduction_battery_encloses_D_once(cold_enclosures):
    """The majorant cap checks and the theorem-exact assembly share one
    enclosure of D at the reference parameters: from a cold memo, one miss
    per sign, and the second reader hits."""
    results = reproduction_battery(grid=(10, 10))
    info = cold_enclosures.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    assert [r.name for r in results if not r.passed] == ["D_plus"]
