"""Lattice-point counting in SL(2, Z).

Two counting modes feed the bound pipeline:

* count_bound certifies a uniform upper bound for N(z, U) = #{gamma :
  u(z, gamma z) <= U} over a rectangle R of base points: it subdivides R
  into grid cells, counts for each cell the sign-representatives gamma whose
  displacement could dip below the threshold anywhere on the cell, and
  returns twice the worst cell count (gamma and -gamma move points
  identically).
* exact_count counts #{gamma in SL(2, Z), both signs : u(z, gamma w) <= U}
  at a single pair of points, by direct orbit enumeration.  It is the
  oracle the certificate is tested against.

Candidate enumeration derives from the closed form

    u(z, gamma z) = (1/2) [(a - cx)^2 + ((b + (a-d)x - cx^2)/y)^2
                           + (cy)^2 + (d + cx)^2]:

every square is at most 2U on the counted set, which pins (c, then a and d)
into explicit intervals, and b = (ad - 1)/c must be integral.  Translations
(c = 0) obey |b| <= y sqrt(2U - 2).  Continuous interval endpoints get a
1e-9 slack before floor/ceil so borderline integers are kept.

Every (matrix, cell) decision goes through one interval lower bound on u
over the cell, _lower_u, which bounds each part of the closed form below
separately and exactly (see its docstring); on a single point it is u
itself.  A matrix counts for a cell when that bound is at most
U (1 + SAFE_MARGIN), so a cell's count covers every point of the cell.
count_bound screens the grid once, then halves, across the wider side, the
cells that attain the current maximum, round after round, and keeps for
each grid cell the maximum over its pieces.  It stops when a maximal piece
counts as many matrices at its centre as over the whole piece (the maximum
is attained there, so no refinement can lower it), when a split no longer
changes a float, or when the refinement work would pass MAX_WORK.  Most
pairs do not count (about 70% on the truncated domain), so a matrix is
tested only on the cells whose grid column and grid row leave it a chance
and on the pieces whose parent does; count_bound explains why no decision
changes.

Before enumerating anything, enumerate_candidates, count_bound and
enumerate_group_elements estimate their work in closed form and raise
ValueError above MAX_WORK, so a region reaching towards the real axis, a
huge grid or a huge orbit count fails at once instead of running for hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from greenbound.geom import (
    Rectangle,
    UnimodularMatrix,
    UpperHalfPoint,
    mobius_apply,
    point_u,
)

RANGE_SLACK = 1e-9  # absolute slack on continuous coefficient ranges
SAFE_MARGIN = 1e-6  # relative inclusion margin on the count threshold
TIE_MARGIN = 1e-9  # relative distance from U below which exact_count decides exactly
# Cap on the estimated steps of the grid screen (cells x candidates), of the
# refinement after it and of the orbit loop of enumerate_group_elements:
# 400x400 cells at U = 17 on the truncated domain estimate 1.3e8 and take
# 0.25 s on a 2-core box.  The screen and the refinement are estimated as if
# they tested every candidate everywhere.  A step of the pure-Python candidate
# loop costs about 70 screen steps (1.15e8 of them took 16.4 s on the same
# box), so it counts LOOP_WEIGHT steps against the same cap.
MAX_WORK = 2**28
LOOP_WEIGHT = 64
_CHUNK = 2**13  # (cell, candidate) pairs per kernel call, to bound memory
PRUNE_SLACK = 1e-12  # relative slack of the pruning threshold over the count threshold


@dataclass(frozen=True)
class CandidateSet:
    """Sign-representatives that could satisfy min over R of u(z, gamma z) <= U.

    Representatives are normalized to c > 0, or c = 0 with a = d = 1; no
    two entries are negatives of each other.
    """

    region: Rectangle
    U: float
    matrices: tuple[UnimodularMatrix, ...]


@dataclass(frozen=True)
class CountCertificate:
    """Grid certificate: bound >= 2 max cell count >= sup over R of N(z, U)."""

    region: Rectangle
    U: float
    grid: tuple[int, int]
    per_cell_counts: tuple[tuple[int, ...], ...]
    bound: int
    pairs: int = field(default=0, compare=False)  # kernel pairs evaluated; work, not proof

    def __post_init__(self) -> None:
        max_count = max(max(row) for row in self.per_cell_counts)
        if self.bound != 2 * max_count:
            raise ValueError(f"bound {self.bound} is not twice the max cell count {max_count}")
        if self.bound < 2:
            raise ValueError(f"bound must be >= 2 (identity pair), got {self.bound}")


def truncated_fundamental_domain() -> Rectangle:
    """Box [-1/2, 1/2] x [sqrt(3)/2, 2] covering the fundamental domain up to height 2.

    Every orbit has a representative with height in [sqrt(3)/2, 2] or inside
    a cusp neighbourhood, so a uniform count bound on this box extends to
    the thick part of the quotient.
    """
    return Rectangle(-0.5, 0.5, math.sqrt(3.0) / 2.0, 2.0)


def _int_range(lo: float, hi: float) -> range:
    """Integers n with lo <= n <= hi, after the 1e-9 slack."""
    start = math.ceil(lo - RANGE_SLACK)
    stop = math.floor(hi + RANGE_SLACK)
    return range(start, stop + 1)


def _check_work(region: Rectangle, U: float, cells: int = 1) -> None:
    """Raise ValueError when counting on region is estimated above MAX_WORK steps.

    For c = 1 .. C = sqrt(2U)/y_min, a and d each take at most
    n(c) = 2 sqrt(2U) + 1 + c (x_max - x_min) values, and ad = 1 (mod c)
    leaves at most n(c)/c + 1 values of d per a; the sums over c are taken
    in closed form (harmonic sum <= 1 + log C).  Each loop step counts
    LOOP_WEIGHT against the cap.  NaN or infinity is refused.
    """
    root_2u = math.sqrt(2.0 * U)
    n0 = 2.0 * root_2u + 1.0
    w = region.x_max - region.x_min
    C = root_2u / region.y_min
    loop, candidates = 0.0, 2.0 * region.y_max * math.sqrt(max(2.0 * U - 2.0, 0.0)) + 1.0
    if C >= 1.0:
        s1, s2, s3 = C, C * (C + 1.0) / 2.0, C * (C + 1.0) * (2.0 * C + 1.0) / 6.0
        loop = n0 * n0 * s1 + 2.0 * n0 * w * s2 + w * w * s3
        candidates += n0 * (n0 * (1.0 + math.log(C)) + (2.0 * w + 1.0) * s1) + w * (w + 1.0) * s2
    work = LOOP_WEIGHT * loop + cells * candidates
    if not (work <= MAX_WORK):
        raise ValueError(
            f"counting on [{region.x_min:g}, {region.x_max:g}] x "
            f"[{region.y_min:g}, {region.y_max:g}] at U = {U:g} with {cells} cells "
            f"is estimated at {work:.3g} steps, above the cap {MAX_WORK}; "
            "shrink the region, U or the grid"
        )


def _dist0(lo, hi):
    """Distance from 0 of the interval [lo, hi] (elementwise)."""
    return np.maximum(np.maximum(lo, -hi), 0.0)


def _lower_u(a, b, c, d, X0, X1, Y0, Y1):
    """Lower bound on u(z, gamma z) over z in [X0, X1] x [Y0, Y1], for c >= 0.

    Arguments broadcast, in count_bound candidates as columns and cells as
    rows; c is 0 or an integer >= 1.  Each part of the closed form is
    bounded below exactly over the cell:

    * (a - cx)^2 and (d + cx)^2 by the squared distance from 0 of the range
      of a monotone linear function, spanned by its values at X0 and X1;
    * W(x) = b + (a - d)x - cx^2 is concave, so its range is spanned by the
      endpoint values and, when the vertex x = (a - d)/(2c) lies in the
      cell, the vertex value; |W| is at least that range's distance w from 0;
    * W^2/y^2 + c^2 y^2 increases in |W| and, at |W| = w, is least at
      y = sqrt(w/c) clamped to [Y0, Y1] (at Y1 when c = 0).

    On a single point every part is exact and the bound is u itself.
    """
    cx0, cx1 = c * X0, c * X1
    w0 = b + (a - d) * X0 - cx0 * X0
    w1 = b + (a - d) * X1 - cx1 * X1
    c1 = np.maximum(c, 1.0)
    xv = (a - d) / (2.0 * c1)  # for c = 0, a = d and W is constant
    wv = np.where((X0 <= xv) & (xv <= X1), b + (a - d) * xv - c * xv * xv, -np.inf)
    w = _dist0(np.minimum(w0, w1), np.maximum(np.maximum(w0, w1), wv))
    yc = np.where(c > 0.0, np.clip(np.sqrt(w / c1), Y0, Y1), Y1)
    return 0.5 * (_dist0(a - cx1, a - cx0) ** 2 + (w / yc) ** 2 + (c * yc) ** 2 + _dist0(d + cx0, d + cx1) ** 2)


def u_lower_bound(gamma: UnimodularMatrix, region: Rectangle) -> float:
    """Lower bound on u(z, gamma z) over z in region; u itself on a point region."""
    s = -1.0 if gamma.c < 0 else 1.0  # u is sign-invariant; _lower_u needs c >= 0
    a, b, c, d = (s * v for v in gamma.entries())
    return float(_lower_u(a, b, c, d, region.x_min, region.x_max, region.y_min, region.y_max))


def enumerate_candidates(region: Rectangle, U: float) -> CandidateSet:
    """All sign-representatives whose displacement could be <= U somewhere on region.

    Returned in canonical order: translations by increasing b, then c > 0
    sorted by (c, a, d).  The set is a superset of the matrices any
    sub-rectangle of region can count for the same U.
    """
    if not (U >= 1.0):
        raise ValueError(f"enumerate_candidates requires U >= 1, got U = {U}")
    _check_work(region, U)
    matrices: list[UnimodularMatrix] = []
    root_2u = math.sqrt(2.0 * U)
    b_max = region.y_max * math.sqrt(max(2.0 * U - 2.0, 0.0))
    for b in _int_range(-b_max, b_max):
        matrices.append(UnimodularMatrix(1, b, 0, 1))
    c_max = root_2u / region.y_min
    for c in _int_range(1.0, c_max):
        for a in _int_range(-root_2u + c * region.x_min, root_2u + c * region.x_max):
            for d in _int_range(-root_2u - c * region.x_max, root_2u - c * region.x_min):
                if (a * d - 1) % c == 0:
                    matrices.append(UnimodularMatrix(a, (a * d - 1) // c, c, d))
    return CandidateSet(region=region, U=U, matrices=tuple(matrices))


def _span(ok: np.ndarray) -> range:
    """From the first to past the last index where ok is set (empty when none is)."""
    hit = np.flatnonzero(ok)
    return range(hit[0], hit[-1] + 1) if hit.size else range(0)


def _screen(cols: np.ndarray, xs: np.ndarray, ys: np.ndarray, cutoff: float, relaxed: float):
    """Per grid cell (x-major), the count of columns (a, b, c, d) of cols with _lower_u <= cutoff.

    Each kernel call covers the span of grid columns and rows whose strips
    a candidate passes at relaxed, broadcast (columns, 1) x (1, rows), or on
    small grids several candidates and the union of their spans.  Also
    returns the pairs evaluated and, as bits, the candidates each strip passed.
    """
    nx, ny, k = len(xs) - 1, len(ys) - 1, cols.shape[1]
    X0, X1, Y0, Y1 = xs[:-1, None], xs[1:, None], ys[:-1], ys[1:]
    col_ok, row_ok = np.empty((k, nx), dtype=bool), np.empty((k, ny), dtype=bool)
    step = max(1, _CHUNK // max(nx, ny))
    for j in range(0, k, step):
        part = cols[:, j : j + step, None]
        col_ok[j : j + step] = _lower_u(*part, xs[:-1], xs[1:], ys[0], ys[-1]) <= relaxed
        row_ok[j : j + step] = _lower_u(*part, xs[0], xs[-1], ys[:-1], ys[1:]) <= relaxed
    counts = np.zeros((nx, ny), dtype=np.int64)
    tested = k * (nx + ny)
    group = max(1, _CHUNK // (nx * ny))
    for j in range(0, k, group):
        part = cols[:, j : j + group, None, None]
        x_span, y_span = _span(col_ok[j : j + group].any(axis=0)), _span(row_ok[j : j + group].any(axis=0))
        tested += part.shape[1] * len(x_span) * len(y_span)
        for r in y_span[::_CHUNK]:
            y = slice(r, min(r + _CHUNK, y_span.stop))
            width = max(1, _CHUNK // (part.shape[1] * (y.stop - r)))
            for i in x_span[::width]:
                x = slice(i, min(i + width, x_span.stop))
                counts[x, y] += np.count_nonzero(_lower_u(*part, X0[x], X1[x], Y0[y], Y1[y]) <= cutoff, axis=0)
    return counts.ravel(), tested, np.packbits(col_ok.T, axis=1), np.packbits(row_ok.T, axis=1)


def _sift(cols: np.ndarray, boxes, masks: np.ndarray, keep: float, cutoff: float):
    """Test piece i of each box (X0, X1, Y0, Y1) of boxes on the candidates set in bit row i of masks.

    Returns per box and piece the count with _lower_u <= cutoff and the bits
    of those with _lower_u <= keep, and the pairs tested.
    """
    k = cols.shape[1]
    counts = np.zeros((len(boxes), len(masks)), dtype=np.int64)
    kept = np.zeros((len(boxes),) + masks.shape, dtype=np.uint8)
    tested, step = 0, max(1, _CHUNK // k)
    for i in range(0, len(masks), step):
        rows = slice(i, i + step)
        bits = np.unpackbits(masks[rows], axis=1, count=k)
        p, c = np.nonzero(bits)
        cand = cols[:, c]
        for j, box in enumerate(boxes):
            low = _lower_u(*cand, *(v[rows][p] for v in box))
            counts[j, rows] = np.bincount(p[low <= cutoff], minlength=len(bits))
            bits[p, c] = low <= keep
            kept[j, rows] = np.packbits(bits, axis=1)
        tested += len(boxes) * p.size
    return counts, kept, tested


def count_bound(region: Rectangle, U: float, grid: tuple[int, int]) -> CountCertificate:
    """Certified uniform bound on N(z, U) = #{gamma : u(z, gamma z) <= U} over region.

    Subdivides region into grid = (nx, ny) cells and counts for each cell
    the candidates whose interval lower bound on u over the cell is at most
    cutoff = U (1 + 1e-6).  The cells attaining the maximal count are then
    halved across their wider side, round after round, until a maximal piece
    counts as many matrices at its centre as over the whole piece, a split
    leaves a float unchanged, or the refinement work would pass MAX_WORK.  A
    cell's count is the maximum over its pieces and the bound is twice the
    largest.

    A candidate is tested on a grid cell only when its bounds over the
    cell's grid column and grid row, strips across the region, both pass.
    A cell that becomes maximal carries, as bits, the candidates both its
    strips passed; a piece's centre and halves test only what it carries,
    and each half carries on those that pass on it.  Strips and pieces pass
    at cutoff (1 + PRUNE_SLACK); counts use cutoff.  A strip or a parent
    contains what is tested after it, so its exact bound is never higher,
    and the slack absorbs the rounding of both bounds: every decision is the
    one a test of every candidate on every piece makes.  `pairs` counts the
    kernel pairs evaluated.

    The result is a proof: every matrix with u <= U at some point of a
    piece has its lower bound there <= U, and the margin U 1e-6 absorbs the
    rounding of the bound, a few ulps of terms of size U (x/y)^2, wherever
    |x|/y stays below about 1e4, as on the truncated fundamental domain.
    """
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid}")
    if not (U >= 1.0):
        raise ValueError(f"count_bound requires U >= 1, got U = {U}")
    _check_work(region, U, nx * ny)
    cutoff = U * (1.0 + SAFE_MARGIN)
    relaxed = cutoff * (1.0 + PRUNE_SLACK)
    cols = np.array([m.entries() for m in enumerate_candidates(region, U).matrices], dtype=float).T

    xs = np.linspace(region.x_min, region.x_max, nx + 1)
    ys = np.linspace(region.y_min, region.y_max, ny + 1)
    counts, pairs, col_bits, row_bits = _screen(cols, xs, ys, cutoff, relaxed)
    # Pieces: the grid cells that have been maximal and their halves, with
    # their grid cell (owner), their count and the candidates they carry.
    box = [np.empty(0) for _ in range(4)]
    owner, score = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    masks = np.empty((0, col_bits.shape[1]), dtype=np.uint8)
    work = 0
    while True:
        top = max(counts.max(), score.max(initial=0))
        fresh = np.flatnonzero(counts == top)  # grid cells maximal for the first time
        ix, iy = np.divmod(fresh, ny)
        box = [np.concatenate([v, e]) for v, e in zip(box, (xs[ix], xs[ix + 1], ys[iy], ys[iy + 1]))]
        owner, score = np.concatenate([owner, fresh]), np.concatenate([score, counts[fresh]])
        masks = np.concatenate([masks, col_bits[ix] & row_bits[iy]])
        counts[fresh] = 0
        hot = np.flatnonzero(score == top)
        x0, x1, y0, y1 = (v[hot] for v in box)
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        wide = x1 - x0 >= y1 - y0
        work += 3 * hot.size * cols.shape[1]
        if work > MAX_WORK or not np.all(np.where(wide, (x0 < xm) & (xm < x1), (y0 < ym) & (ym < y1))):
            break
        # The first halves replace their pieces in place; the second are appended.
        centre = (xm, xm, ym, ym)
        first = (x0, np.where(wide, xm, x1), y0, np.where(wide, y1, ym))
        second = (np.where(wide, xm, x0), x1, np.where(wide, y0, ym), y1)
        counted, carried, tested = _sift(cols, (centre, first, second), masks[hot], relaxed, cutoff)
        pairs += tested
        if np.any(counted[0] >= top):
            break
        score[hot], masks[hot] = counted[1], carried[1]
        score, masks = np.concatenate([score, counted[2]]), np.concatenate([masks, carried[2]])
        owner = np.concatenate([owner, owner[hot]])
        for j in range(4):
            box[j][hot] = first[j]
            box[j] = np.concatenate([box[j], second[j]])

    np.maximum.at(counts, owner, score)
    return CountCertificate(
        region=region,
        U=U,
        grid=(nx, ny),
        per_cell_counts=tuple(tuple(int(v) for v in row) for row in counts.reshape(nx, ny)),
        bound=2 * int(top),
        pairs=pairs,
    )


def _exact_u(z: UpperHalfPoint, gamma: UnimodularMatrix, w: UpperHalfPoint):
    """u(z, gamma w) as a Fraction, exact on the float coordinates."""
    from fractions import Fraction  # on first use: near ties are rare, the import costs 2 ms and 0.4 MB

    x, y, wx, wy = (Fraction(t) for t in (z.x, z.y, w.x, w.y))
    a, b, c, d = gamma.entries()
    den = (c * wx + d) ** 2 + (c * wy) ** 2
    gx, gy = ((a * wx + b) * (c * wx + d) + a * c * wy * wy) / den, wy / den
    return 1 + ((x - gx) ** 2 + (y - gy) ** 2) / (2 * y * gy)


def enumerate_group_elements(
    z: UpperHalfPoint, w: UpperHalfPoint, U: float
) -> Iterator[tuple[UnimodularMatrix, float]]:
    """Yield sign-representatives gamma with u(z, gamma w) <= U, and the value.

    Orbit enumeration: for c = 0 the images are w + b; for c > 0 and each
    coprime pair (c, d) in range, the solutions (a, b) of ad - bc = 1 form a
    line gamma_t w = gamma_0 w + t, so t runs over an interval.  Every
    candidate is verified against point_u directly before being yielded.
    A value within TIE_MARGIN of U is decided in exact rational arithmetic
    on the float inputs (a tie such as u(i, gamma i) = 3 can round to either
    side), and the value yielded is then at most U.
    The (c, d) loop takes at most (c_max + 1)(2 q_max + 3) steps; above
    MAX_WORK (or for a non-finite estimate) ValueError is raised first.
    """
    if not (U >= 1.0):
        raise ValueError(f"enumerate_group_elements requires U >= 1, got U = {U}")
    rho = U + math.sqrt(U * U - 1.0)
    c_max = math.sqrt(rho / (z.y * w.y))
    q_max = math.sqrt(w.y * rho / z.y)
    work = (c_max + 1.0) * (2.0 * q_max + 3.0)
    if not (work <= MAX_WORK):
        raise ValueError(
            f"orbit enumeration at U = {U:g} for heights {z.y:g}, {w.y:g} is estimated at "
            f"{work:.3g} steps, above the cap {MAX_WORK}; lower U"
        )

    def _yield_range(c: int, d: int, a0: int, b0: int) -> Iterator[tuple[UnimodularMatrix, float]]:
        base = mobius_apply(UnimodularMatrix(a0, b0, c, d), w)
        disc = 2.0 * z.y * base.y * (U - 1.0) - (z.y - base.y) ** 2
        if disc < -TIE_MARGIN * z.y * base.y * U:
            return
        r = math.sqrt(max(disc, 0.0))
        center = z.x - base.x
        for t in _int_range(center - r - 1.0, center + r + 1.0):
            gamma = UnimodularMatrix(a0 + t * c, b0 + t * d, c, d)
            value = point_u(z, mobius_apply(gamma, w))
            if abs(value - U) <= TIE_MARGIN * U:  # a near tie: decide it exactly
                value = min(value, U) if _exact_u(z, gamma, w) <= U else math.inf
            if value <= U:
                yield gamma, value

    # Translations: u(z, w + b) <= U.
    yield from _yield_range(0, 1, 1, 0)

    for c in _int_range(1.0, c_max + 1.0):
        for d in _int_range(-q_max - c * w.x - 1.0, q_max - c * w.x + 1.0):
            if math.gcd(c, abs(d)) != 1:
                continue
            a0 = pow(d % c, -1, c) if c > 1 else 0
            b0 = (a0 * d - 1) // c
            yield from _yield_range(c, d, a0, b0)


def exact_count(z: UpperHalfPoint, w: UpperHalfPoint, U: float) -> int:
    """#{gamma in SL(2, Z), both signs, with u(z, gamma w) <= U}.

    Twice the representative count: gamma and -gamma give the same u.
    Always even; >= 2 for U >= 1 when z = w (the identity pair).
    """
    return 2 * sum(1 for _ in enumerate_group_elements(z, w, U))


def reduce_to_fundamental_domain(z: UpperHalfPoint) -> tuple[UpperHalfPoint, UnimodularMatrix]:
    """Standard reduction to |x| <= 1/2, |z| >= 1; returns (image, gamma with gamma z = image).

    The reduced point maximizes Im over the SL(2, Z) orbit.
    """
    a, b, c, d = 1, 0, 0, 1
    x, y = z.x, z.y
    for _ in range(100000):
        n = round(x)
        if n != 0:
            x -= n
            a, b = a - n * c, b - n * d
        norm = x * x + y * y
        if norm < 1.0 - 1e-15:
            x, y = -x / norm, y / norm
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise RuntimeError(f"fundamental domain reduction did not terminate for {z}")
    return UpperHalfPoint(x, y), UnimodularMatrix(a, b, c, d)
