"""Fixtures shared across the test modules."""

import functools

import pytest


@pytest.fixture(scope="session")
def full_check():
    """Run a greenbound.verify check at its full (default) size, once a session.

    The checks are seeded and deterministic, so the unit tests, the
    acceptance criteria and the battery guard that assert the same check
    share one run of it.
    """
    return functools.cache(lambda check: check())
