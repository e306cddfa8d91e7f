"""The self-check batteries and their shared check functions."""

import pytest

from greenbound import bounds
from greenbound.verify import PROPERTY_CHECKS, reproduction_battery


@pytest.mark.parametrize("check", [check for check, _ in PROPERTY_CHECKS], ids=lambda c: c.__name__)
def test_property_check_passes_at_full_size(check, full_check):
    """Every check selftest runs at its short size also runs in the suite at full size."""
    result = full_check(check)
    assert result.passed, result.detail


def test_reproduction_battery_encloses_D_once(monkeypatch):
    """The majorant cap checks and the theorem-exact assembly share one
    enclosure of D at the reference parameters: one per sign."""
    signs = []
    enclose = bounds._enclose_one_sign

    def counted(params, sign):
        signs.append(sign)
        return enclose(params, sign)

    monkeypatch.setattr(bounds, "_enclose_one_sign", counted)
    results = reproduction_battery(grid=(10, 10))
    assert sorted(signs) == [-1, +1]
    assert [r.name for r in results if not r.passed] == ["D_plus"]
