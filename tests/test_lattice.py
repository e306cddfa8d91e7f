"""Orbit enumeration, grid count certificates, and domain reduction."""

import math
import random

import pytest

from greenbound import verify
from greenbound.geom import Rectangle, UpperHalfPoint, mobius_apply, point_u, u_of_gamma
from greenbound.lattice import (
    CountCertificate,
    count_bound,
    enumerate_candidates,
    exact_count,
    min_u_over_rect,
    reduce_to_fundamental_domain,
    truncated_fundamental_domain,
)

STANDARD_U = 17.0


def test_truncated_fundamental_domain_box():
    box = truncated_fundamental_domain()
    assert box.x_min == -0.5
    assert box.x_max == 0.5
    assert math.isclose(box.y_min, math.sqrt(3.0) / 2.0, rel_tol=1e-15)
    assert box.y_max == 2.0


def test_candidate_enumeration_is_canonical():
    box = truncated_fundamental_domain()
    cands = enumerate_candidates(box, STANDARD_U)
    assert len(cands.matrices) == 378
    assert len(cands.min_u) == 378
    seen = set()
    for gamma in cands.matrices:
        # sign normalization: c > 0, or the translation family c = 0, a = d = 1
        assert gamma.c > 0 or (gamma.c == 0 and gamma.a == 1 and gamma.d == 1)
        key = (gamma.a, gamma.b, gamma.c, gamma.d)
        assert key not in seen
        seen.add(key)
    # canonical order: translations by increasing b, then sorted by (c, a, d)
    translations = [g for g in cands.matrices if g.c == 0]
    rest = [g for g in cands.matrices if g.c > 0]
    assert cands.matrices[: len(translations)] == tuple(translations)
    assert [g.b for g in translations] == sorted(g.b for g in translations)
    keys = [(g.c, g.a, g.d) for g in rest]
    assert keys == sorted(keys)
    # the estimates are finite and the superset contains live candidates
    # (an elliptic element attains u = 1 on the boundary, so allow one ulp)
    assert all(math.isfinite(v) and v >= 1.0 - 1e-12 for v in cands.min_u)
    assert sum(1 for v in cands.min_u if v <= STANDARD_U) >= 100


def test_count_certificate_reference_grid():
    box = truncated_fundamental_domain()
    cert = count_bound(box, STANDARD_U, (100, 100))
    assert cert.bound == 214
    assert cert.grid == (100, 100)
    assert len(cert.per_cell_counts) == 100
    assert all(len(row) == 100 for row in cert.per_cell_counts)
    assert cert.bound == 2 * max(max(row) for row in cert.per_cell_counts)


def test_coarser_grids_only_loosen():
    box = truncated_fundamental_domain()
    coarse = count_bound(box, STANDARD_U, (20, 20))
    fine = count_bound(box, STANDARD_U, (40, 40))
    assert coarse.bound == 218
    assert fine.bound == 214
    assert coarse.bound >= fine.bound


def test_certificate_rejects_tampering():
    with pytest.raises(ValueError, match="twice the max cell count"):
        CountCertificate(
            region=truncated_fundamental_domain(),
            U=2.0,
            grid=(1, 1),
            per_cell_counts=((3,),),
            bound=4,
        )
    with pytest.raises(ValueError, match=">= 2"):
        CountCertificate(
            region=truncated_fundamental_domain(),
            U=2.0,
            grid=(1, 1),
            per_cell_counts=((0,),),
            bound=0,
        )


def test_exact_count_small_values():
    i = UpperHalfPoint(0.0, 1.0)
    # U = 1: only the stabilizer pair {1, -1} together with the rotation of
    # order two fixing i
    assert exact_count(i, i, 1.0) == 4
    assert exact_count(i, i, 3.0) == 28


def test_exact_count_monotone_in_U():
    z = UpperHalfPoint(0.3, 1.2)
    counts = [exact_count(z, z, U) for U in (1.0, 2.0, 5.0, 17.0)]
    assert counts == sorted(counts)
    assert counts[0] >= 2


def test_exact_count_symmetric_in_arguments():
    rng = random.Random(70100)
    for _ in range(20):
        z = UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
        w = UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
        assert exact_count(z, w, 5.0) == exact_count(w, z, 5.0)


def test_point_region_at_threshold_one():
    point = Rectangle(0.0, 0.0, 1.0, 1.0)
    cert = count_bound(point, 1.0, (1, 1))
    assert cert.bound == 4


def test_certificate_dominates_exact_counts(full_check):
    """Soundness: the grid bound caps the exact count at 200 sampled points."""
    result = full_check(verify.count_certificate_soundness)
    assert result.passed, result.detail


def test_min_u_lower_bounds_sampled_values():
    """min_u_over_rect must never exceed the value at any point of the cell."""
    rng = random.Random(70300)
    for _ in range(30):
        gamma = verify.random_unimodular(rng)
        x0 = rng.uniform(-0.6, 0.4)
        y0 = rng.uniform(0.8, 1.8)
        rect = Rectangle(x0, x0 + 0.2, y0, y0 + 0.2)
        low = min_u_over_rect(gamma, rect)
        sampled = min(
            u_of_gamma(gamma, UpperHalfPoint(x0 + 0.2 * ix / 8.0, y0 + 0.2 * iy / 8.0))
            for ix in range(9)
            for iy in range(9)
        )
        assert low <= sampled + 1e-9, (gamma, low, sampled)


def test_reduction_round_trip_and_membership():
    rng = random.Random(70400)
    for _ in range(200):
        z = UpperHalfPoint(rng.uniform(-40.0, 40.0), math.exp(rng.uniform(math.log(1e-4), math.log(50.0))))
        reduced, gamma = reduce_to_fundamental_domain(z)
        image = mobius_apply(gamma, z)
        assert abs(image.x - reduced.x) <= 1e-9 * max(1.0, abs(reduced.x))
        assert abs(image.y - reduced.y) <= 1e-9 * reduced.y
        assert abs(reduced.x) <= 0.5 + 1e-12
        assert reduced.x * reduced.x + reduced.y * reduced.y >= 1.0 - 1e-12
        # the reduced representative maximizes height over the orbit
        assert reduced.y >= z.y * (1.0 - 1e-12)


def test_reduction_fixes_interior_points():
    z = UpperHalfPoint(0.1, 1.3)
    reduced, gamma = reduce_to_fundamental_domain(z)
    assert (reduced.x, reduced.y) == (z.x, z.y)
    assert (gamma.a, gamma.b, gamma.c, gamma.d) == (1, 0, 0, 1)


def test_enumeration_values_match_direct_u():
    from greenbound.lattice import enumerate_group_elements

    z = UpperHalfPoint(0.2, 1.1)
    w = UpperHalfPoint(-0.3, 0.95)
    for gamma, value in enumerate_group_elements(z, w, 6.0):
        assert value <= 6.0
        direct = point_u(z, mobius_apply(gamma, w))
        assert math.isclose(value, direct, rel_tol=1e-12)


def test_enumeration_requires_sane_threshold():
    z = UpperHalfPoint(0.0, 1.0)
    with pytest.raises(ValueError, match="U >= 1"):
        exact_count(z, z, 0.5)
