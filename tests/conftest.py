"""Fixtures shared across the test modules."""

import functools

import pytest


@pytest.fixture(scope="session")
def full_check():
    """Run a greenbound.verify check at its full (default) size, once a session.

    The checks are seeded and deterministic, so the battery guard in
    tests/test_verify.py, the acceptance criteria and the unit tests that
    assert the same check again share one run of it; tests/test_source.py
    pins those unit tests (FULL_CHECK_WRAPPERS).  verify.PROPERTY_CHECKS,
    not this fixture, names the certificate step each check supports.
    """
    return functools.cache(lambda check: check())


@pytest.fixture
def cold_enclosures():
    """Empty the process-wide memo of one-sign grid bounds (bounds._grid_bounds), so a test
    that counts enclosures sees every one it causes, whatever ran before it in the process."""
    from greenbound import bounds

    bounds._grid_bounds.cache_clear()
    return bounds._grid_bounds
