"""The self-check batteries and their shared check functions."""

import pytest

from greenbound.verify import PROPERTY_CHECKS


@pytest.mark.parametrize("check", [check for check, _ in PROPERTY_CHECKS], ids=lambda c: c.__name__)
def test_property_check_passes_at_full_size(check, full_check):
    """Every check selftest runs at its short size also runs in the suite at full size."""
    result = full_check(check)
    assert result.passed, result.detail
