"""Orbit enumeration, grid count certificates, and domain reduction."""

import hashlib
import math
import random
import sys
import time

import numpy as np
import pytest

from greenbound import lattice, verify
from greenbound.bounds import COUNT_RADIUS
from greenbound.geom import Rectangle, UnimodularMatrix, UpperHalfPoint, mobius_apply, point_u
from greenbound.lattice import (
    CountCertificate,
    count_bound,
    enumerate_candidates,
    exact_count,
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


def test_truncated_fundamental_domain_contains_the_true_box():
    """The float box contains [-1/2, 1/2] x [sqrt(3)/2, 2]: its x sides and y_max are exact, and
    4 y_min^2 <= 3 in exact arithmetic (float(sqrt(3)/2) squared is 8.7e-17 below 3/4)."""
    from fractions import Fraction

    box = truncated_fundamental_domain()
    assert (box.x_min, box.x_max, box.y_max) == (-0.5, 0.5, 2.0)
    assert 4 * Fraction(box.y_min) ** 2 <= 3


def test_candidate_enumeration_is_canonical():
    box = truncated_fundamental_domain()
    cands = enumerate_candidates(box, STANDARD_U)
    assert len(cands.matrices) == 378
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


def _loop_candidates(region, U):
    """The candidate set by a plain (c, a, d) loop over the ranges enumerate_candidates documents."""
    root_2u = math.sqrt(2.0 * U)
    b_max = region.y_max * math.sqrt(max(2.0 * U - 2.0, 0.0))
    found = [(1, b, 0, 1) for b in lattice._int_range(-b_max, b_max)]
    for c in lattice._int_range(1.0, root_2u / region.y_min):
        for a in lattice._int_range(-root_2u + c * region.x_min, root_2u + c * region.x_max):
            for d in lattice._int_range(-root_2u - c * region.x_max, root_2u - c * region.x_min):
                if (a * d - 1) % c == 0:
                    found.append((a, (a * d - 1) // c, c, d))
    return tuple(UnimodularMatrix(*m) for m in found)


def test_array_enumeration_matches_the_loop():
    """The array enumeration gives the loop's matrices in the loop's order: on 300 seeded regions
    (points and segments included) with |x| <= 4, y in [0.6, 3] and U in [1, 40], on the
    truncated domain at U = 881 (27,326 candidates) and near x = 1e6; it refuses a region whose
    entries would overflow its 64-bit integers."""
    rng = random.Random(70500)
    for _ in range(300):
        x0, y0 = rng.uniform(-4.0, 3.5), rng.uniform(0.6, 2.5)
        width, height = (rng.choice([0.0, rng.uniform(0.0, s)]) for s in (4.0 - x0, 3.0 - y0))
        U = rng.choice([float(rng.randint(1, 40)), rng.uniform(1.0, 40.0)])
        region = Rectangle(x0, x0 + width, y0, y0 + height)
        assert enumerate_candidates(region, U).matrices == _loop_candidates(region, U), (region, U)
    box = truncated_fundamental_domain()
    assert enumerate_candidates(box, 881.0).matrices == _loop_candidates(box, 881.0)
    far = Rectangle(1e6 + 0.3, 1e6 + 0.5, 1.0, 1.2)  # entries up to 4e12
    assert enumerate_candidates(far, 9.0).matrices == _loop_candidates(far, 9.0)
    with pytest.raises(ValueError, match="64-bit"):  # entries near 6e9: ad would wrap
        enumerate_candidates(Rectangle(1e9, 1e9, 1.0, 1.0), 17.0)


def test_count_certificate_reference_grid():
    box = truncated_fundamental_domain()
    cert = count_bound(box, STANDARD_U, (100, 100))
    assert cert.bound == 214
    assert cert.grid == (100, 100)
    assert len(cert.per_cell_counts) == 100
    assert all(len(row) == 100 for row in cert.per_cell_counts)
    assert cert.bound == 2 * max(max(row) for row in cert.per_cell_counts)


def test_the_witness_attains_the_certified_count():
    """z* = (-161 + 719i)/521 lies on |z|^2 = 2, the axis of (3 4; 2 3), and N(z*, z*, 17) is 214,
    the certificate's bound, so the bound is sharp.  The count is exact: exact_count on the Fraction
    coordinates decides each tie there exactly.  The float point nearest z* counts 210, so no float
    sample can stand in for the witness.  The count's radius is the one the N_bar step uses."""
    from fractions import Fraction

    assert lattice.WITNESS_U == COUNT_RADIUS

    p, q, r = lattice.COUNT_WITNESS
    exact, near = UpperHalfPoint(Fraction(p, r), Fraction(q, r)), UpperHalfPoint(p / r, q / r)
    assert exact.x**2 + exact.y**2 == 2
    assert exact_count(exact, exact, STANDARD_U) == 214
    assert exact_count(near, near, STANDARD_U) == 210
    assert count_bound(truncated_fundamental_domain(), STANDARD_U, (100, 100)).bound == 214


def test_coarse_grids_refine_to_the_same_bound():
    """Splitting the maximal cells brings every grid, from 1x1 to 400x400, to the same bound."""
    box = truncated_fundamental_domain()
    for n in (1, 2, 3, 4, 7, 10, 17, 20, 33, 40, 64, 150, 400):
        assert count_bound(box, STANDARD_U, (n, n)).bound == 214, n


def test_screen_tests_few_pairs():
    """Settling candidates on whole blocks evaluates kernels at most 0.10 times
    per (cell, candidate) pair at 333x333 (it evaluates 0.010: 0.021 on the 167
    columns it counts, which the other 166 mirror, on one matrix of each
    inverse pair)."""
    box = truncated_fundamental_domain()
    cert = count_bound(box, STANDARD_U, (333, 333))
    assert cert.bound == 214
    assert cert.pairs <= 0.10 * 333 * 333 * enumerate_candidates(box, STANDARD_U).columns.shape[1]


def test_refinement_tests_few_pairs():
    """An 11x11 grid refines for 6 rounds on the witness path (20 ending at a
    centre, 39 when each round halved its pieces); pieces evaluate only the
    candidates still open on them, 20k kernel evaluations in all on the 6
    columns counted (the other 5 mirror them; 39k on all 11), on one matrix
    of each inverse pair.  At U = 5 on 12x12 the vertex test ends the
    refinement in round 5, at the tangency of two horocycles, after 2.2k
    evaluations; without it the refinement waits 15 rounds for a centre at
    the maximum, whose last round tests the centres of 342 tied pieces (17k
    evaluations, 22k were their quarters tested too)."""
    box = truncated_fundamental_domain()
    cert = count_bound(box, STANDARD_U, (11, 11))
    assert cert.bound == 214 and cert.rounds == 6
    assert cert.pairs <= 150_000
    cert = count_bound(box, 5.0, (12, 12))
    assert cert.bound == 64 and cert.rounds == 5
    assert cert.pairs <= 10_000


def test_long_pieces_are_halved_along_their_length():
    """Only the sides at least half as long as a piece's longest are split, so the long cells of
    1x30, 30x1 and 2x40 grids are halved across their length until they are near square.  Their
    pairs stay within 2% of those of halving every piece across its wider side (without the
    witness and the vertex test, 63,058, 28,456 and 33,821 against 62,644, 31,766 and 33,260);
    quartering every piece took 454,010 on 1x30."""
    box = truncated_fundamental_domain()
    for grid, halving_pairs in (((1, 30), 62_644), ((30, 1), 31_766), ((2, 40), 33_260)):
        cert = count_bound(box, STANDARD_U, grid)
        assert cert.bound == 214, grid
        assert cert.pairs <= 1.02 * halving_pairs, grid


# (region, U, grid, pairs, digest of per_cell_counts) without the witness and the vertex test, and both with them:
# the U = 17 counts take the witness path, the U = 5 and 9 counts end at the vertex test.
PINNED = [
    (truncated_fundamental_domain(), 17.0, (10, 10), 24_916, "feab7fc2fe5203e7", (20_287, "7c121ba397a3e2fc")),
    (truncated_fundamental_domain(), 5.0, (12, 12), 16_598, "a7608c7aeab97251", (2_217, "f2f080a9e2cc02ab")),
    (truncated_fundamental_domain(), 9.0, (12, 12), 4_024, "475fe8e8317e67fd", (2_632, "475fe8e8317e67fd")),
    (Rectangle(-0.3819660112501051, 0.1180339887498949, 1.1495190528383288, 1.7165063509461096), 17.0, (25, 25),
     29_546, "79240777e8adc72f", (26_777, "a28984c59d042093")),  # a lattice-grid sub-rectangle job; holds z*
]


def _pins(cert):
    return cert.pairs, hashlib.sha256(str(cert.per_cell_counts).encode()).hexdigest()[:16]


def _no_witness(monkeypatch):
    monkeypatch.setattr(lattice, "_witness", lambda region, U: None)


def _no_vertex(monkeypatch):
    monkeypatch.setattr(lattice, "_vertex", lambda *args: (None, 0))


def test_certificates_are_pinned(monkeypatch):
    """Every stop decision of the screen and the refinement shows in pairs, and every count in
    the digest: a refactor of the kernels or of the refinement must keep both, on the witness and
    vertex paths and, with the witness and the vertex test taken away, on the path that ends at a
    centre."""
    for region, U, grid, _, _, fast in PINNED:
        assert _pins(count_bound(region, U, grid)) == fast, (U, grid)
    _no_witness(monkeypatch)
    _no_vertex(monkeypatch)
    for region, U, grid, pairs, digest, _ in PINNED:
        assert _pins(count_bound(region, U, grid)) == (pairs, digest), (U, grid)


def test_the_witness_moves_no_bound(monkeypatch):
    """On the truncated domain and on a sub-rectangle that holds z* and its mirror, the witness path
    ends at the witness with the bound of the run that ends at a centre, no cell counting fewer, and
    fewer pairs.  U = 17 on a region reaching below the truncated domain and U = 17.5 on it take no
    witness and give the witness-free certificate, pairs included."""
    box, sub = truncated_fundamental_domain(), PINNED[3][0]
    mirror = Rectangle(-sub.x_max, -sub.x_min, sub.y_min, sub.y_max)
    jobs = [(box, 17.0, (n, n)) for n in (10, 11, 20, 40, 100)] + [(sub, 17.0, (25, 25)), (mirror, 17.0, (25, 25))]
    others = [(Rectangle(-0.5, 0.5, 0.7, 2.0), 17.0, (10, 10)), (box, 17.5, (10, 10))]
    witnessed = [count_bound(*job) for job in jobs + others]
    _no_witness(monkeypatch)
    for cert, job in zip(witnessed, jobs):
        free = count_bound(*job)
        assert (cert.stop, free.stop) == ("witness", "centre"), job
        assert cert.bound == free.bound == 214, job
        assert (np.array(cert.per_cell_counts) >= free.per_cell_counts).all(), job
        assert cert.pairs < free.pairs, job
    for cert, job in zip(witnessed[len(jobs):], others):
        free = count_bound(*job)
        assert cert.stop == "centre" and (cert, cert.pairs, cert.witness) == (free, free.pairs, free.witness), job


def test_the_record_names_the_stop(monkeypatch):
    """A count at U = 17 on the truncated domain ends at the witness, the float point nearest z*; at
    U = 9 it ends at the vertex test, at a crossing of level circles within 1e-7 of i, and without
    the vertex test at a centre; it names the point, and the centre test counts the bound there.
    Under a low MAX_WORK the refinement ends at its cap, names no point, and the bound stays twice
    its largest count, above the sharp 214.  The rounds counted are the record's too."""
    box = truncated_fundamental_domain()
    p, q, r = lattice.COUNT_WITNESS
    cert = count_bound(box, 17.0, (10, 10))
    assert (cert.stop, cert.witness, cert.rounds) == ("witness", (p / r, q / r), 6)
    rows = lattice._rows(*enumerate_candidates(box, 9.0 * (1.0 + lattice.SAFE_MARGIN)).columns.astype(float))
    vertex = count_bound(box, 9.0, (12, 12))
    _no_vertex(monkeypatch)
    centre = count_bound(box, 9.0, (12, 12))
    assert (vertex.stop, vertex.rounds, centre.stop, centre.rounds) == ("vertex", 3, "centre", 18)
    assert abs(complex(*vertex.witness) - 1j) < 1e-7
    for cert in (vertex, centre):
        x, y = cert.witness
        assert cert.bound == 132 and box.x_min <= x <= box.x_max and box.y_min <= y <= box.y_max
        assert 2 * np.count_nonzero(lattice._centre(rows, x, y) <= 9.0 * (1.0 + lattice.SAFE_MARGIN)) == 132
    monkeypatch.setattr(lattice, "MAX_WORK", 100_000)  # above what the screen needs, below the refinement
    cert = count_bound(box, 17.0, (10, 10))
    assert (cert.stop, cert.witness) == ("cap", None) and cert.bound > 214


def test_a_point_counts_what_the_domain_counts_there():
    """count_bound draws its candidates for its cutoff U (1 + SAFE_MARGIN), the threshold it counts
    at, so a one-point region counts what the full domain's candidates count at that point: at the
    centre where the 12x12 count at U = 9 ends without the vertex test, 132, as exact_count does at
    the cutoff (116 at U).  Drawn for U, its candidates missed two pairs with u in (9, cutoff] there,
    and it counted 128."""
    x, y = -3.1789143880208326e-07, 0.9999999014385567
    z, cutoff = UpperHalfPoint(x, y), 9.0 * (1.0 + lattice.SAFE_MARGIN)
    assert count_bound(Rectangle(x, x, y, y), 9.0, (1, 1)).bound == 132
    assert (exact_count(z, z, cutoff), exact_count(z, z, 9.0)) == (132, 116)


def test_the_level_sets_are_circles_and_lines():
    """u(z, gamma z) = U on the level sets of _level_sets: at 16 points of each circle and line
    (those with y >= 1/2), u_of_gamma is U within 1e-12 relative, for seeded candidates of every
    kind, elliptic (|a + d| < 2), parabolic (|a + d| = 2), hyperbolic and translations, at seeded U.
    Two vertices are pinned: at U = 9 the level sets of 16 of the truncated domain's candidates, 14
    circles and 2 lines, pass through i; at U = 5 the horocycles of (2 -1; 1 0) and (-3 -2; 2 1) at
    the cusps 1 and -1 touch at (-1 + 2 sqrt(2) i)/3, where the 12x12 count ends at its vertex test."""
    rng = random.Random(70600)
    kinds = set()
    for _ in range(6):
        U = rng.uniform(1.5, 40.0)
        columns = enumerate_candidates(truncated_fundamental_domain(), U).columns
        for a, b, c, d in rng.sample(columns.T.tolist(), 40):
            gamma = UnimodularMatrix(a, b, c, d)
            rows = lattice._rows(*np.array([[a], [b], [c], [d]], float))
            x, half_r, half_k, line = lattice._level_sets(rows, U)[:, 0]
            kind = "translation" if c == 0 else "elliptic" if abs(a + d) < 2 else "parabolic" if abs(a + d) == 2 \
                else "hyperbolic"
            if c == 0:
                points = [(rng.uniform(-3.0, 3.0), line) for _ in range(16)]
            else:  # the circles of centres (x, +-R/2) and radius K/2, none when R^2 < 0 (NaN)
                turns = [2.0 * math.pi * (k + rng.random()) / 16.0 for k in range(16)]
                points = [(x + half_k * math.cos(t), s * half_r + half_k * math.sin(t)) for s in (1, -1) for t in turns]
            for px, py in points:
                if py >= 0.5:
                    assert math.isclose(lattice.u_of_gamma(gamma, UpperHalfPoint(px, py)), U, rel_tol=1e-12), (gamma, U)
                    kinds.add(kind)
    assert kinds == {"elliptic", "parabolic", "hyperbolic", "translation"}
    x, half_r, half_k, line = lattice._level_sets(lattice._rows(*enumerate_candidates(
        truncated_fundamental_domain(), 9.0).columns.astype(float)), 9.0)
    through_i = [np.abs(np.abs(x + s * 1j * half_r - 1j) - half_k) < 1e-12 for s in (1, -1)]
    assert np.count_nonzero(through_i[0] | through_i[1]) == 14 and np.count_nonzero(line == 1.0) == 2
    horocycles = lattice._rows(*np.array([[2, -3], [-1, -2], [1, 2], [0, 1]], float))  # (2 -1; 1 0), (-3 -2; 2 1)
    x, half_r, half_k, _ = lattice._level_sets(horocycles, 5.0)
    upper = x + 1j * half_r  # the centres of the upper circles, tangent to the real axis at the cusps
    assert np.allclose(upper, [1 + math.sqrt(2) * 1j, -1 + math.sqrt(0.5) * 1j]) and np.allclose(half_k, half_r)
    assert math.isclose(abs(upper[1] - upper[0]), half_k.sum(), rel_tol=1e-15)  # tangent
    touch = complex(*count_bound(truncated_fundamental_domain(), 5.0, (12, 12)).witness)
    assert abs(touch - (-1 + 2 * math.sqrt(2) * 1j) / 3) < 1e-15


def _lattice_grid_round(seed):
    """The count jobs (region, U, grid) of one lattice-grid benchmark round (perfbench/workloads.py)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return [tuple(job.args.values()) for job in workloads.LatticeGrid().seeded_jobs(random.Random(seed))]


def test_the_vertex_test_moves_no_bound(monkeypatch):
    """The vertex test leaves the split sequence as it is and ends the refinement at a point that
    counts the top, as the centre test does, so it only ends it earlier.  On the truncated domain at
    U = 2, 3, 5, 9, 12.5 and 33 on 1x1 to 20x20 grids and on a lattice-grid benchmark round, the bound
    is that of the count without it, no cell counts fewer, and no count takes more rounds; the
    full-domain counts at U = 5 and 9 end at the vertex test with fewer pairs."""
    box = truncated_fundamental_domain()
    jobs = [(box, U, (n, n)) for U in (2.0, 3.0, 5.0, 9.0, 12.5, 33.0) for n in (1, 2, 7, 11, 20)]
    jobs += _lattice_grid_round(1)
    fast = [count_bound(*job) for job in jobs]
    _no_vertex(monkeypatch)
    for cert, job in zip(fast, jobs):
        free = count_bound(*job)
        assert cert.bound == free.bound and cert.rounds <= free.rounds, job
        assert (np.array(cert.per_cell_counts) >= free.per_cell_counts).all(), job
        if job[0] == box and job[1] in (5.0, 9.0):
            assert cert.stop == "vertex" and cert.pairs < free.pairs, job


def test_centre_gives_the_lower_bound_bits_on_a_point():
    """_centre returns exactly the bits of _both's lower bound on a point, for integer (a, b, c, d)
    with c >= 0 at either sign of x, in the broadcast shapes of the block pass, the per-cell pass
    and the refinement."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.integers(-40, 40)
    matrices = st.lists(st.tuples(entry, entry, st.integers(0, 12), entry), min_size=1, max_size=6)
    side = st.one_of(st.just(0.0), st.floats(0.0, 0.7))

    def same(got, want):
        return np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        matrices, st.floats(-2.0, 1.5), side, st.floats(0.5, 2.0), side, st.integers(1, 4), st.integers(1, 4)
    )
    def check(mats, x0, width, y0, height, nx, ny):
        rows = lattice._rows(*np.array(mats, dtype=float).T)
        xs, ys = np.linspace(x0, x0 + width, nx), np.linspace(y0, y0 + height, ny)
        ix, iy = (np.tile(np.arange(n), (rows.shape[1], 1)) for n in (nx, ny))
        flat = np.repeat(rows, nx, axis=1)
        shapes = [
            (rows[:, :, None, None], xs[None, :, None], ys),  # blocks: (candidates, x, 1) x (y)
            (rows[:, :, None, None], xs[ix][:, :, None], ys[iy][:, None, :]),  # cells of each open pair
            (flat, xs[ix].ravel(), ys[np.minimum(ix, ny - 1)].ravel()),  # centres: one point per pair
        ]
        for g, x, y in shapes:
            x, y = np.broadcast_arrays(x, y)
            assert same(lattice._centre(g, x, y), lattice._both(g, np.array([x, x]), np.array([y, y]))[0])

    check()


def test_inverse_pairs_share_their_kernel_bits():
    """count_bound counts one matrix of each inverse pair with weight 2 (1 for a matrix that is its own
    inverse up to sign), which holds only if the candidate set is closed under gamma -> gamma^-1, whose
    c >= 0 form is (-d, b, c, -a) (the translation by -b for c = 0), and the two members get the same
    bits from every kernel.  Closure is checked at U = 5, 9, 17, 33 and 300 on the truncated domain and
    on a seeded sub-rectangle; the bits of _low, _high (on seeded boxes, segments included) and _centre
    (at seeded points) on each candidate and on its inverse's rows; and _inverse_pairs keeps the first
    member of each pair in canonical order, with weights summing to the number of candidates."""
    rng = random.Random(70700)
    box = truncated_fundamental_domain()
    for U in (5.0, 9.0, 17.0, 33.0, 300.0):
        x0, y0 = rng.uniform(-0.5, 0.2), rng.uniform(box.y_min, 1.5)
        for region in (box, Rectangle(x0, x0 + rng.uniform(0.0, 0.3), y0, y0 + rng.uniform(0.0, 0.5))):
            columns = enumerate_candidates(region, U).columns
            a, b, c, d = columns
            inverse = np.where(c == 0, [a, -b, c, d], [-d, b, c, -a])
            order = {m: i for i, m in enumerate(map(tuple, columns.T.tolist()))}
            partner = np.array([order[m] for m in map(tuple, inverse.T.tolist())])  # KeyError: not closed
            assert (partner[partner] == np.arange(partner.size)).all()
            rows, weight = lattice._inverse_pairs(columns)
            first = partner >= np.arange(partner.size)
            assert (rows == lattice._rows(*columns.compress(first, axis=1).astype(float))).all(), (U, region)
            own = partner[first] == first.nonzero()[0]  # its own inverse
            assert weight.sum() == partner.size and (weight == np.where(own, 1, 2)).all()
            g, h = lattice._rows(*columns.astype(float)), lattice._rows(*inverse.astype(float))
            for _ in range(4):
                X0, Y0 = rng.uniform(region.x_min, region.x_max), rng.uniform(region.y_min, region.y_max)
                X, Y = np.array([[X0], [X0 + rng.choice([0.0, rng.uniform(0.0, 0.2)])]]), np.array([[Y0], [Y0 + 0.1]])
                for got, want in zip(lattice._both(h, X, Y), lattice._both(g, X, Y)):
                    assert got.tobytes() == want.tobytes(), (U, region, X, Y)
                assert lattice._centre(h, X0, Y0).tobytes() == lattice._centre(g, X0, Y0).tobytes(), (U, X0, Y0)


def test_displacement_check_exercises_the_count_kernel(monkeypatch):
    """selftest's displacement-identity check reads u(z, gamma z) through the count kernel: with W
    scaled by 1 + 1e-9 in _centre, it fails."""
    assert verify.displacement_identity(n=50).passed

    def skewed(g, x, y):
        cx = g[2] * x
        s = (g[0:2] + cx) ** 2
        w = (g[3] + g[4] * x - cx * x) * (1.0 + 1e-9)
        return 0.5 * (s[0] + s[1] + (w / y) ** 2 + (g[2] * y) ** 2)

    monkeypatch.setattr(lattice, "_centre", skewed)
    assert not verify.displacement_identity(n=50).passed


def _oracle_count_bound(region, U, grid, x_nodes=lattice._x_nodes, halves=False):
    """count_bound by testing every candidate on every piece: the grid screen
    and the refinement of the maximal cells without any pruning, without the
    vertex test (compare with count_bound with _vertex taken away), and without the
    mirror, on the grid of the region moved to the strip around x = 0, as
    count_bound counts, with x nodes x_nodes(moved region, nx); the certificate
    names the caller's region.  Each round splits every maximal piece across
    each side at least half as long as its longest, as count_bound does, or with
    halves=True across its wider side only, the earlier rule, which reaches the
    same bound and is kept as its reference.  At U = 17 on a moved region inside
    the truncated domain that holds the float point nearest z* = (-161 + 719i)/521
    or its mirror, T is the count there, each round splits every piece that counts
    more than T, and the refinement stops once none does, as count_bound does."""
    cutoff = U * (1.0 + lattice.SAFE_MARGIN)
    moved = lattice._centred(region)
    rows = lattice._rows(*enumerate_candidates(moved, cutoff).columns.astype(float))[:, None, :]

    def count(cells):
        x0, x1, y0, y1 = (v[:, None] for v in cells)
        low = lattice._low(rows, np.array([y0, y1]), *lattice._parts(rows, np.array([x0, x1])))
        return np.count_nonzero(low <= cutoff, axis=1)

    box, y, floor = truncated_fundamental_domain(), 719 / 521, None
    inside = (box.x_min <= moved.x_min <= moved.x_max <= box.x_max
              and box.y_min <= moved.y_min <= moved.y_max <= box.y_max)
    held = [x for x in (-161 / 521, 161 / 521) if moved.x_min <= x <= moved.x_max and moved.y_min <= y <= moved.y_max]
    if U == 17.0 and inside and held:
        floor = count([np.array([v]) for v in (held[0], held[0], y, y)])[0]
    nx, ny = grid
    xs = x_nodes(moved, nx)
    ys = np.linspace(moved.y_min, moved.y_max, ny + 1)
    cells = [np.repeat(xs[:-1], ny), np.repeat(xs[1:], ny), np.tile(ys[:-1], nx), np.tile(ys[1:], nx)]
    owner, counts, work = np.arange(nx * ny), count(cells), 0
    while True:
        top = counts.max()
        if floor is not None and top <= floor:
            break
        hot = np.flatnonzero(counts > (top - 1 if floor is None else floor))
        x0, x1, y0, y1 = (v[hot] for v in cells)
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        if halves:
            cut_x = x1 - x0 >= y1 - y0
            cut_y = ~cut_x
        else:
            longest = np.maximum(x1 - x0, y1 - y0)
            cut_x, cut_y = 2.0 * (x1 - x0) >= longest, 2.0 * (y1 - y0) >= longest
        work += (len(x0) + np.sum(2 ** (cut_x.astype(int) + cut_y))) * rows.shape[2]
        if (
            work > lattice.MAX_WORK
            or not np.all((~cut_x | ((x0 < xm) & (xm < x1))) & (~cut_y | ((y0 < ym) & (ym < y1))))
            or (floor is None and np.any(count((xm, xm, ym, ym)) >= top))
        ):
            break
        # Kid (i, j) takes the upper half across x when i = 1, across y when j = 1;
        # a side that is not cut has the lower half only, which is the whole side.
        for i, j in ((0, 1), (1, 0), (1, 1), (0, 0)):
            real = (cut_x | (i == 0)) & (cut_y | (j == 0))
            kid = (
                xm if i else x0, x1 if i else np.where(cut_x, xm, x1),
                ym if j else y0, y1 if j else np.where(cut_y, ym, y1),
            )
            if i or j:
                counts = np.concatenate([counts, count(kid)[real]])
                owner = np.concatenate([owner, owner[hot][real]])
                cells = [np.concatenate([v, k[real]]) for v, k in zip(cells, kid)]
            else:
                counts[hot] = count(kid)
                for v, k in zip(cells, kid):
                    v[hot] = k
    per_cell = np.zeros(nx * ny, dtype=np.int64)
    np.maximum.at(per_cell, owner, counts)
    rows = tuple(tuple(int(v) for v in row) for row in per_cell.reshape(nx, ny))
    return CountCertificate(region=region, U=U, grid=grid, per_cell_counts=rows, bound=2 * int(top))


def test_count_bound_matches_the_all_pairs_oracle(monkeypatch):
    """On random regions (segments and points included), U in [1, 17] and
    grids up to 30x30, pruning changes no cell count of the certificate."""
    hypothesis = pytest.importorskip("hypothesis")
    _no_vertex(monkeypatch)
    st = hypothesis.strategies
    side = st.one_of(st.just(0.0), st.floats(0.0, 0.6))

    full = truncated_fundamental_domain()

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        st.floats(-0.8, 0.5), side, st.floats(0.85, 1.8), side,
        st.one_of(st.integers(1, 17).map(float), st.floats(1.0, 17.0)),
        st.integers(1, 30), st.integers(1, 30),
    )
    @hypothesis.example(-0.5, 0.6, 0.9, 0.6, 9.0, 11, 29)  # block sides 3 and 5 divide neither grid side
    @hypothesis.example(-0.3, 0.5, 1.0, 0.5, 5.5, 1, 30)
    @hypothesis.example(-0.3, 0.5, 1.0, 0.5, 5.5, 30, 1)
    @hypothesis.example(0.1, 0.0, 1.1, 0.0, 17.0, 3, 4)  # a point
    @hypothesis.example(0.0, 0.0, 1.0, 0.6, 3.0, 1, 5)  # a segment
    @hypothesis.example(full.x_min, 1.0, full.y_min, full.y_max - full.y_min, 17.0, 11, 11)  # sure at the first split
    @hypothesis.example(0.04, 0.6, 1.12, 0.23, 16.05, 3, 2)  # ends at the last of 7 hot centres
    @hypothesis.example(0.40625, 0.40853598691700443, 1.5, 0.40853598691700443, 16.0, 1, 4)  # moved by -1
    @hypothesis.example(-0.375, 0.75, 0.9, 0.5, 9.0, 7, 6)  # symmetric about x = 0: mirrored columns
    @hypothesis.example(-0.4, 0.2, 1.3, 0.2, 17.0, 5, 7)  # holds the witness
    def check(x0, width, y0, height, U, nx, ny):
        region = Rectangle(x0, x0 + width, y0, y0 + height)
        assert count_bound(region, U, (nx, ny)) == _oracle_count_bound(region, U, (nx, ny))

    check()


def test_the_split_rule_moves_no_bound():
    """Where the refinement ends by its centre test, the bound is twice the count at a centre,
    max over z of N(z); how the pieces were split does not enter it.  So count_bound's bound is
    the halving oracle's on the full domain at U = 5, 9 and 17 on nine grids, on a lattice-grid
    sub-rectangle, on [3 - 0.4, 3 + 0.4] x [1, 1.6] and on a segment."""
    box = truncated_fundamental_domain()
    jobs = [(box, U, (n, n)) for U in (5.0, 9.0, 17.0) for n in (1, 2, 7, 10, 12, 17, 28, 36, 63)]
    jobs += [(PINNED[3][0], 17.0, PINNED[3][2]), (Rectangle(2.6, 3.4, 1.0, 1.6), 17.0, (6, 5)),
             (Rectangle(0.0, 0.0, 1.0, 2.0), 3.0, (1, 5))]
    for region, U, grid in jobs:
        assert count_bound(region, U, grid).bound == _oracle_count_bound(region, U, grid, halves=True).bound, (
            region, U, grid)
    assert count_bound(Rectangle(0.0, 0.0, 1.0, 2.0), 3.0, (1, 5)).bound == 36


def _plain_nodes(region, n):
    return np.linspace(region.x_min, region.x_max, n + 1)


def test_symmetric_regions_count_half_the_columns_and_mirror_them(monkeypatch):
    """On a region symmetric about x = 0 after the move to the centre strip, count_bound counts the
    first ceil(nx/2) columns and mirrors them: the certificate is the unmirrored count on the same
    (exactly antisymmetric) nodes, and column i has the counts of column nx - 1 - i, at even and odd
    nx, at nx = 1, and on [3 - w, 3 + w], symmetric only once moved by -3."""
    _no_vertex(monkeypatch)
    box = truncated_fundamental_domain()
    shifted = Rectangle(3.0 - 0.4, 3.0 + 0.4, 1.0, 1.6)
    moved = lattice._centred(shifted)
    assert moved.x_min == -moved.x_max
    for region, U, grid in ((box, 17.0, (8, 5)), (box, 9.0, (9, 7)), (box, 5.0, (1, 4)), (shifted, 17.0, (6, 5)),
                            (shifted, 9.0, (5, 3)), (Rectangle(-0.25, 0.25, 1.2, 1.2), 17.0, (4, 1))):
        cert = count_bound(region, U, grid)
        assert cert == _oracle_count_bound(region, U, grid), (region, U, grid)
        assert cert.per_cell_counts == cert.per_cell_counts[::-1], (region, U, grid)
    xs = lattice._x_nodes(box, 17)
    assert (xs == -xs[::-1]).all() and not (_plain_nodes(box, 17) == -_plain_nodes(box, 17)[::-1]).all()


def test_antisymmetric_nodes_move_no_certificate(monkeypatch):
    """The antisymmetric x nodes differ from np.linspace's by an ulp, and no count feels it: on the
    full domain at U = 5, 9 and 17, on the grids that the CLI, selftest and the benchmark count on
    and a few between, count_bound equals the unmirrored count on plain np.linspace nodes."""
    _no_vertex(monkeypatch)
    box = truncated_fundamental_domain()
    for U in (5.0, 9.0, 17.0):
        for n in (10, 20, 40, 50, 100):
            assert count_bound(box, U, (n, n)) == _oracle_count_bound(box, U, (n, n), _plain_nodes), (U, n)


def test_counts_do_not_depend_on_the_chunk_size(monkeypatch):
    """Chunks narrower than the candidate list, or than a row of cells,
    split the screen and the refinement into blocks."""
    box = truncated_fundamental_domain()
    whole = [count_bound(box, STANDARD_U, grid) for grid in ((4, 4), (30, 120))]
    monkeypatch.setattr(lattice, "_CHUNK", 100)
    assert [count_bound(box, STANDARD_U, grid) for grid in ((4, 4), (30, 120))] == whole


def test_segment_region_refines_quickly():
    """A zero-width region is bisected along its one side only."""
    start = time.perf_counter()
    cert = count_bound(Rectangle(0.0, 0.0, 1.0, 2.0), 3.0, (1, 5))
    assert cert.bound == 36
    assert time.perf_counter() - start < 1.0


FAR_POINT = (999999.6661726177, 1.8153809179298033, 4.907111401264591)  # x, y, U


def test_far_point_counts_as_its_translate():
    """u(z + n, gamma' (z + n)) with gamma' = T^n gamma T^-n is u(z, gamma z), so a point near
    x = 1e6 counts what its translate by -1e6 (an exact subtraction) counts: 60.  Counted in place,
    where the 1e-6 margin no longer covers the rounding of the float lower bound, it gave 56, and
    exact_count, whose floats carried |z - gamma z|^2 from coordinates of size 1e6, gave 58."""
    x, y, U = FAR_POINT
    far = count_bound(Rectangle(x, x, y, y), U, (1, 1))
    assert far.bound == count_bound(Rectangle(x - 1e6, x - 1e6, y, y), U, (1, 1)).bound == 60
    assert exact_count(UpperHalfPoint(x, y), UpperHalfPoint(x, y), U) == 60
    assert far.region == Rectangle(x, x, y, y)
    shifted = count_bound(Rectangle(x - 2.0, x + 3.0, y, y + 1.0), U, (3, 2))
    assert shifted.bound == count_bound(Rectangle(x - 1e6 - 2.0, x - 1e6 + 3.0, y, y + 1.0), U, (3, 2)).bound


def test_centring_moves_inexact_sides_outward():
    """Where x - n rounds, the moved side steps one ulp outward, so the moved region holds the
    exact translate; exact shifts and regions already around x = 0 are kept as they are."""
    from fractions import Fraction

    box = truncated_fundamental_domain()
    assert lattice._centred(box) is box
    region = Rectangle(0.3, 2.9, 1.0, 2.0)  # n = 2; 0.3 - 2 rounds
    moved = lattice._centred(region)
    assert Fraction(moved.x_min) < Fraction(0.3) - 2 and Fraction(moved.x_max) == Fraction(2.9) - 2
    assert (moved.y_min, moved.y_max) == (1.0, 2.0)
    assert lattice._centred(Rectangle(-3.7, -2.2, 1.0, 2.0)) == Rectangle(-3.7 + 3, -2.2 + 3, 1.0, 2.0)


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
    from fractions import Fraction

    i = UpperHalfPoint(0.0, 1.0)
    # U = 1: only the stabilizer pair {1, -1} together with the rotation of
    # order two fixing i
    assert exact_count(i, i, 1.0) == 4
    # 18 sign representatives with (a^2 + b^2 + c^2 + d^2)/2 <= 3; ties such
    # as (0, -1; 1, -2), with u = 3 exactly, round up in floating point.  On
    # exact coordinates, at i and at its translate i + 5, the ties are exact.
    assert exact_count(i, i, 3.0) == 36
    for x in (0, 5):
        exact_i = UpperHalfPoint(Fraction(x), Fraction(1))
        assert exact_count(exact_i, exact_i, 3.0) == 36


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


def test_a_one_point_region_stops_at_its_own_point():
    """A round tests its centres before it stops at a float, so a one-point region ends at its
    centre, its own point, in one round, with the bound exact_count gives there."""
    for x, y, U, bound in ((0.1, 1.2, 5.0, 56), (0.0, 1.0, 1.0, 4), (0.3, 1.5, 9.0, 110)):
        cert = count_bound(Rectangle(x, x, y, y), U, (1, 1))
        assert (cert.stop, cert.rounds, cert.witness, cert.bound) == ("centre", 1, (x, y), bound), (x, y, U)
        assert exact_count(UpperHalfPoint(x, y), UpperHalfPoint(x, y), U) == bound


def closed_form_u(gamma, z):
    """u(z, gamma z) by the scalar closed form, sharing no code with the count kernels:
    (1/2) [(a - cx)^2 + ((b + (a - d)x - cx^2)/y)^2 + (cy)^2 + (d + cx)^2]."""
    a, b, c, d = (float(gamma.a), float(gamma.b), float(gamma.c), float(gamma.d))
    x, y = z.x, z.y
    t1 = a - c * x
    t4 = d + c * x
    w = b + (a - d) * x - c * x * x
    return 0.5 * (t1 * t1 + (w / y) ** 2 + (c * y) ** 2 + t4 * t4)


def _kernel_bounds(gamma, rect):
    """(_low, _high) of the count kernels over rect, on the rows of gamma or -gamma, whichever has
    c >= 0 (u is sign-invariant), as count_bound runs them."""
    s = -1.0 if gamma.c < 0 else 1.0
    g = lattice._rows(*(s * v for v in gamma.entries()))
    low, high = lattice._both(g, np.array([rect.x_min, rect.x_max]), np.array([rect.y_min, rect.y_max]))
    return float(low), float(high)


def test_min_u_lower_bounds_sampled_values():
    """The kernels' lower bound must never exceed the value at any point of the cell."""
    rng = random.Random(70300)
    for _ in range(30):
        gamma = verify.random_unimodular(rng)
        x0 = rng.uniform(-0.6, 0.4)
        y0 = rng.uniform(0.8, 1.8)
        rect = Rectangle(x0, x0 + 0.2, y0, y0 + 0.2)
        low = _kernel_bounds(gamma, rect)[0]
        sampled = min(
            closed_form_u(gamma, UpperHalfPoint(x0 + 0.2 * ix / 8.0, y0 + 0.2 * iy / 8.0))
            for ix in range(9)
            for iy in range(9)
        )
        assert low <= sampled + 1e-9, (gamma, low, sampled)


def _unimodular(hypothesis):
    """Strategy: matrices of SL(2, Z) with either sign of c, |c| <= 12."""
    st = hypothesis.strategies

    @st.composite
    def unimodular(draw):
        c = draw(st.integers(-12, 12))
        if c == 0:
            d = draw(st.sampled_from((-1, 1)))
            return UnimodularMatrix(d, draw(st.integers(-12, 12)), 0, d)
        d = draw(st.integers(-12, 12))
        hypothesis.assume(math.gcd(c, d) == 1)
        a = (pow(d, -1, abs(c)) if abs(c) > 1 else 0) + abs(c) * draw(st.integers(-3, 3))
        return UnimodularMatrix(a, (a * d - 1) // c, c, d)

    return unimodular()


def _cells(hypothesis):
    """Strategies for a cell (x0, width, y0, height), degenerate ones included,
    and fractions of it at which to sample u."""
    st = hypothesis.strategies
    side = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
    fractions = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8)
    return st.floats(-1.0, 1.0), side, st.floats(0.5, 2.0), side, fractions


def _sample_points(x0, width, y0, height, fractions):
    grid = [(i / 8.0, j / 8.0) for i in range(9) for j in range(9)]
    return [UpperHalfPoint(x0 + fx * width, y0 + fy * height) for fx, fy in fractions + grid]


def test_u_lower_bound_property():
    """On random matrices (either sign of c) and cells, degenerate ones included,
    the bound is at most u at sampled points and is u itself on a point cell."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_unimodular(hypothesis), *_cells(hypothesis))
    def check(gamma, x0, width, y0, height, fractions):
        low = _kernel_bounds(gamma, Rectangle(x0, x0 + width, y0, y0 + height))[0]
        for z in _sample_points(x0, width, y0, height, fractions):
            assert low <= closed_form_u(gamma, z) * (1.0 + 1e-12), (gamma, z, low)
        point = _kernel_bounds(gamma, Rectangle(x0, x0, y0, y0))[0]
        assert math.isclose(point, closed_form_u(gamma, UpperHalfPoint(x0, y0)), rel_tol=1e-12)

    check()


def test_u_upper_bound_property():
    """On random matrices (either sign of c) and cells, degenerate ones included,
    the upper bound is at least u at sampled points and at least the lower
    bound, and is u itself on a point cell."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_unimodular(hypothesis), *_cells(hypothesis))
    def check(gamma, x0, width, y0, height, fractions):
        cell = Rectangle(x0, x0 + width, y0, y0 + height)
        low, high = _kernel_bounds(gamma, cell)
        for z in _sample_points(x0, width, y0, height, fractions):
            assert high >= closed_form_u(gamma, z) * (1.0 - 1e-12), (gamma, z, high)
        assert high >= low
        point = _kernel_bounds(gamma, Rectangle(x0, x0, y0, y0))[1]
        assert math.isclose(point, closed_form_u(gamma, UpperHalfPoint(x0, y0)), rel_tol=1e-12)

    check()


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
    """The line walk (gamma_t w = gamma_0 w + t) yields the matrices that point_u of mobius_apply,
    matrix by matrix, finds with u(z, gamma w) <= U, with values within 1e-13 relative.  The direct
    search covers a box that holds every such sign representative: u >= Im z / (2 Im gamma w) gives
    |cw + d|^2 <= 2 U Im w / Im z, which bounds c and d, and |Re gamma_0 w| <= 1 + 1/(c^2 Im w) with
    |Re gamma_t w - Re z| <= 2 U Im z bounds t."""
    from greenbound.lattice import enumerate_group_elements

    rng = random.Random(78700)
    found = 0
    for U in (1.5, 3.0, 6.0, 17.0):
        for _ in range(3):
            z, w = (UpperHalfPoint(rng.uniform(-0.6, 0.6), rng.uniform(0.8, 1.6)) for _ in range(2))
            walked = {g.entries(): value for g, value in enumerate_group_elements(z, w, U)}
            direct = {}
            t_max = int(3.0 + 2.0 * U * z.y)
            for c in range(int(math.sqrt(2.0 * U / (z.y * w.y))) + 1):
                reach = int(c * abs(w.x) + math.sqrt(2.0 * U * w.y / z.y)) + 1
                for d in range(-reach, reach + 1) if c else (1,):
                    if math.gcd(c, d) != 1:
                        continue
                    a0 = pow(d, -1, c) if c else 1
                    b0 = (a0 * d - 1) // c if c else 0
                    for t in range(-t_max, t_max + 1):
                        gamma = UnimodularMatrix(a0 + t * c, b0 + t * d, c, d)
                        value = point_u(z, mobius_apply(gamma, w))
                        if value <= U:
                            direct[gamma.entries()] = value
            assert walked.keys() == direct.keys()
            for entries, value in walked.items():
                assert math.isclose(value, direct[entries], rel_tol=1e-13)
            found += len(walked)
    assert found >= 100, found


def test_enumeration_requires_sane_threshold():
    z = UpperHalfPoint(0.0, 1.0)
    with pytest.raises(ValueError, match="U >= 1"):
        exact_count(z, z, 0.5)
    # refused from the closed-form work estimate, before any enumeration
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above the cap"):
        exact_count(z, z, 1e12)
    assert time.perf_counter() - start < 0.1


def test_work_cap_charges_the_block_screen(monkeypatch):
    """The cap charges two tests per candidate and block, not one per candidate
    and cell: 900x900 at U = 17 counts (cells x candidates estimated 6.46e8
    steps), while a 20000x20000 grid and a one-point count at U = 5e4 are still
    refused before anything is enumerated or allocated."""
    region = truncated_fundamental_domain()
    assert count_bound(region, STANDARD_U, (900, 900)).bound == 214

    def unreachable(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(lattice, "enumerate_candidates", unreachable)
    monkeypatch.setattr(lattice.np, "linspace", unreachable)
    for box, U, grid in ((region, STANDARD_U, (20000, 20000)), (Rectangle(0.1, 0.1, 1.1, 1.1), 5e4, (1, 1))):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="above the cap"):
            count_bound(box, U, grid)
        assert time.perf_counter() - start < 0.1


def test_work_cap_accepts_delta_50_counts():
    """U = 4,999 (delta = 50) on the truncated domain is estimated below MAX_WORK on 1x1 and on
    40x40; the estimate alone is checked here, as the counts take seconds."""
    box = truncated_fundamental_domain()
    for grid in ((1, 1), (40, 40)):
        lattice._check_work(box, 4999.0, grid)


def test_screen_refuses_open_pairs_above_the_cap(monkeypatch):
    """After the block pass the screen checks its per-cell tests, open pairs
    times cells per block, against MAX_WORK before it runs them."""
    region = truncated_fundamental_domain()
    cutoff = STANDARD_U * (1.0 + lattice.SAFE_MARGIN)
    rows, weight = lattice._inverse_pairs(enumerate_candidates(region, cutoff).columns)
    xs = np.linspace(region.x_min, region.x_max, 101)
    ys = np.linspace(region.y_min, region.y_max, 101)
    side = (lattice._block_side(100), lattice._block_side(100))
    args = (rows, weight, xs, ys, side, STANDARD_U, cutoff, cutoff * (1.0 + lattice.PRUNE_SLACK))
    tests = lattice._screen(*args)[3].size * side[0] * side[1]
    monkeypatch.setattr(lattice, "MAX_WORK", tests)
    lattice._screen(*args)
    monkeypatch.setattr(lattice, "MAX_WORK", tests - 1)
    with pytest.raises(ValueError, match="stay open"):
        lattice._screen(*args)
