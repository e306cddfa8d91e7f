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

A matrix counts for a cell when one interval lower bound on u over the
cell, _lower_u, is at most U (1 + SAFE_MARGIN); _lower_u bounds each part
of the closed form below separately and exactly (see its docstring) and is
u itself on a single point, so a cell's count covers every point of the
cell.  The region is first moved into the strip around x = 0 by an
integer translation, which changes no count and keeps the rounding of the
bound small.  count_bound screens the grid once, settling most matrices on
whole blocks of cells from both sides, by _lower_u and by an upper bound,
_upper_u, then halves the cells that attain the maximum, round after round,
until a centre attains it (see its docstring).  One pass gives both bounds
from their shared x-only parts (_parts), and a centre is tested by u itself.

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
# Cap on the estimated steps (kernel evaluations, about 2 ns each in the screen:
# 1.3e8 took 0.25 s on a 2-core box) of the grid screen, of the refinement and of
# the orbit loop of enumerate_group_elements.  A pure-Python candidate loop step
# costs about 70 (1.15e8 took 16.4 s), so it counts LOOP_WEIGHT; a grid cell, its
# counts and certificate entry, about 16 (4e6 cells at U = 1.0001 took 0.13 s).
MAX_WORK = 2**28
LOOP_WEIGHT = 64
CELL_WEIGHT = 16
_CHUNK = 2**13  # kernel evaluations per call, to bound memory
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
    pairs: int = field(default=0, compare=False)  # bounds evaluated per candidate and box; work, not proof

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


def _centred(region: Rectangle) -> Rectangle:
    """region moved by -n, n = round(its x midpoint), each x side outward by one ulp where the shift rounds.

    Conjugating by the translation z -> z - n maps the matrices counted at z onto those counted at
    z - n, so every count is unchanged, and the rounding of the count kernels follows |x - n| / y.
    """
    n = round(0.5 * region.x_min + 0.5 * region.x_max)
    if n == 0:
        return region
    from fractions import Fraction  # a region away from the centre strip is rare; see _exact_u

    def move(x: float, outward: float) -> float:
        return x - n if Fraction(x - n) == Fraction(x) - n else math.nextafter(x - n, outward)

    return Rectangle(move(region.x_min, -math.inf), move(region.x_max, math.inf), region.y_min, region.y_max)


def _check_work(region: Rectangle, U: float, grid: tuple[int, int] = (1, 1)) -> None:
    """Raise ValueError when counting on region with grid cells is estimated above MAX_WORK steps.

    For c = 1 .. C = sqrt(2U)/y_min, a and d each take at most
    n(c) = 2 sqrt(2U) + 1 + c (x_max - x_min) values, and ad = 1 (mod c)
    leaves at most n(c)/c + 1 values of d per a; the sums over c are taken
    in closed form (harmonic sum <= 1 + log C).  Each loop step counts
    LOOP_WEIGHT against the cap, each cell CELL_WEIGHT and the block screen two
    steps per candidate and block; _screen checks the per-cell tests it leaves
    open.  NaN or infinity is refused.
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
    blocks = math.prod(-(-n // _block_side(n)) for n in grid)
    work = LOOP_WEIGHT * loop + 2.0 * blocks * candidates + CELL_WEIGHT * grid[0] * grid[1]
    if not (work <= MAX_WORK):
        raise ValueError(
            f"counting on [{region.x_min:g}, {region.x_max:g}] x "
            f"[{region.y_min:g}, {region.y_max:g}] at U = {U:g} on a {grid[0]}x{grid[1]} grid "
            f"is estimated at {work:.3g} steps, above the cap {MAX_WORK}; "
            "shrink the region, U or the grid"
        )


def _dist0(lo, hi):
    """Distance from 0 of the interval [lo, hi] (elementwise)."""
    return np.maximum(np.maximum(lo, -hi), 0.0)


def _at(a, b, c, d, x):
    """a - cx, d + cx and W(x) = b + (a - d)x - cx^2: the x-only parts of the closed form at x."""
    cx = c * x
    return a - cx, d + cx, b + (a - d) * x - cx * x


def _parts(a, b, c, d, X0, X1):
    """_at at X0 and at X1, W at the vertex x = (a - d)/(2c), and whether the vertex lies in [X0, X1]."""
    xv = (a - d) / (2.0 * np.maximum(c, 1.0))  # for c = 0, a = d and W is constant
    return (*_at(a, b, c, d, X0), *_at(a, b, c, d, X1), _at(a, b, c, d, xv)[2], (X0 <= xv) & (xv <= X1))


def _low(c, Y0, Y1, a0, d0, w0, a1, d1, w1, wv, inside):
    w = _dist0(np.minimum(w0, w1), np.maximum(np.maximum(w0, w1), np.where(inside, wv, -np.inf)))
    yc = np.where(c > 0.0, np.minimum(np.maximum(np.sqrt(w / np.maximum(c, 1.0)), Y0), Y1), Y1)
    return 0.5 * (_dist0(a1, a0) ** 2 + (w / yc) ** 2 + (c * yc) ** 2 + _dist0(d0, d1) ** 2)


def _high(c, Y0, Y1, a0, d0, w0, a1, d1, w1, wv, inside):
    w = np.maximum(np.maximum(np.abs(w0), np.abs(w1)), np.abs(np.where(inside, wv, 0.0)))
    return 0.5 * (np.maximum(a0**2, a1**2) + (w / Y0) ** 2 + (c * Y1) ** 2 + np.maximum(d0**2, d1**2))


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
    return _low(c, Y0, Y1, *_parts(a, b, c, d, X0, X1))


def _upper_u(a, b, c, d, X0, X1, Y0, Y1):
    """Upper bound on u(z, gamma z) over z in [X0, X1] x [Y0, Y1], for c >= 0.

    Arguments broadcast as for _lower_u.  Each part of the closed form is
    bounded above over the cell:

    * (a - cx)^2 and (d + cx)^2 by their larger value at X0 and X1 (a square
      of a linear function is convex);
    * |W(x)| by the largest of |W(X0)|, |W(X1)| and, when the vertex
      x = (a - d)/(2c) lies in the cell, |W(vertex)| (W is concave), and
      W^2/y^2 by that over Y0^2;
    * (cy)^2 by (c Y1)^2.

    On a single point every part is exact and the bound is u itself.  Each
    part is computed from the same floats as in _lower_u and rounding is
    monotone, so in floats too the bound is never below _lower_u.
    """
    return _high(c, Y0, Y1, *_parts(a, b, c, d, X0, X1))


def _both_u(a, b, c, d, X0, X1, Y0, Y1):
    """(_lower_u, _upper_u) from one evaluation of their shared x-only parts, bit for bit."""
    parts = _parts(a, b, c, d, X0, X1)
    return _low(c, Y0, Y1, *parts), _high(c, Y0, Y1, *parts)


def _point_u(a, b, c, d, x, y):
    """u(z, gamma z) at z = x + iy by the closed form: _lower_u on the point, from the same floats."""
    ax, dx, w = _at(a, b, c, d, x)
    return 0.5 * (ax**2 + (w / y) ** 2 + (c * y) ** 2 + dx**2)


def _signed(gamma: UnimodularMatrix):
    """Entries of gamma or -gamma, whichever has c >= 0 (u is sign-invariant)."""
    s = -1.0 if gamma.c < 0 else 1.0
    return (s * v for v in gamma.entries())


def u_lower_bound(gamma: UnimodularMatrix, region: Rectangle) -> float:
    """Lower bound on u(z, gamma z) over z in region; u itself on a point region."""
    return float(_lower_u(*_signed(gamma), region.x_min, region.x_max, region.y_min, region.y_max))


def u_upper_bound(gamma: UnimodularMatrix, region: Rectangle) -> float:
    """Upper bound on u(z, gamma z) over z in region; u itself on a point region."""
    return float(_upper_u(*_signed(gamma), region.x_min, region.x_max, region.y_min, region.y_max))


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


def _block_side(n: int) -> int:
    """Cells per block side on a grid side of n cells: about 1.5 n^(1/3).

    A candidate costs two evaluations per block, and one per cell of the
    blocks its level set u = U crosses, about n/b of them for blocks of side
    b; the sum is least at b proportional to n^(1/3), and the factor 1.5
    measured fastest at U = 5 to 17 on the truncated domain.
    """
    return max(1, round(1.5 * n ** (1.0 / 3.0)))


def _screen(
    cols: np.ndarray, xs: np.ndarray, ys: np.ndarray, side: tuple[int, int], U: float, cutoff: float, relaxed: float
):
    """Per grid cell (x-major), the count of columns (a, b, c, d) of cols with _lower_u <= cutoff.

    The grid is cut into blocks of side[0] x side[1] cells, partial at the
    far edges, and numbered x-major.  Per candidate and block, _upper_u <= U
    makes it sure (it counts on every cell of the block), _lower_u > relaxed
    makes it fail, and otherwise it is open and tested on each cell of the
    block.  Kernel calls broadcast (candidates, x, 1) x (1, y).  Also returns
    the pairs evaluated, the sure count per block and the open (block,
    candidate) pairs as two index arrays, sorted.
    """
    nx, ny, k = len(xs) - 1, len(ys) - 1, cols.shape[1]
    ex, ey = np.append(np.arange(0, nx, side[0]), nx), np.append(np.arange(0, ny, side[1]), ny)
    nbx, nby = len(ex) - 1, len(ey) - 1
    sure = np.zeros((nbx, nby), dtype=np.int64)
    open_b, open_c = [], []
    step = max(1, _CHUNK // (nbx * nby))  # candidates per call
    width = max(1, _CHUNK // (step * nby))
    for j in range(0, k, step):
        part = cols[:, j : j + step, None, None]
        for i in range(0, nbx, width):
            x = slice(i, i + width)
            block = (xs[ex[:-1][x], None], xs[ex[1:][x], None], ys[ey[:-1]], ys[ey[1:]])
            low, high = _both_u(*part, *block)
            is_sure = high <= U
            sure[x] += np.count_nonzero(is_sure, axis=0)
            c, bx, by = np.nonzero((low <= relaxed) & ~is_sure)
            open_b.append((bx + i) * nby + by)
            open_c.append(c + j)
    counts = np.repeat(np.repeat(sure, np.diff(ex), axis=0), np.diff(ey), axis=1).ravel()
    order = np.argsort(np.concatenate(open_b), kind="stable")  # block by block, so that a call's cells are near
    b, c = np.concatenate(open_b)[order], np.concatenate(open_c)[order]
    if not (b.size * side[0] * side[1] <= MAX_WORK):  # the per-cell tests below
        raise ValueError(f"{b.size * side[0] * side[1]} cell tests stay open, above the cap {MAX_WORK}")
    ox, oy = np.arange(side[0]), np.arange(side[1])
    step = max(1, _CHUNK // (side[0] * side[1]))
    for i in range(0, b.size, step):
        q = slice(i, i + step)
        ix, iy = ex[b[q] // nby, None] + ox, ey[b[q] % nby, None] + oy
        ok = (ix < nx)[:, :, None] & (iy < ny)[:, None, :]  # cells of partial blocks
        ix, iy = np.minimum(ix, nx - 1), np.minimum(iy, ny - 1)
        cells = (xs[ix, None], xs[ix + 1, None], ys[iy][:, None], ys[iy + 1][:, None])
        ok &= _lower_u(*cols[:, c[q], None, None], *cells) <= cutoff
        cell = (ix[:, :, None] * ny + iy[:, None, :])[ok]
        if cell.size:
            low = cell.min()
            hit = np.bincount(cell - low)
            counts[low : low + hit.size] += hit
    return counts, 2 * k * nbx * nby + b.size * side[0] * side[1], sure, b, c


def _each(kernel, cols: np.ndarray, cand: np.ndarray, at: np.ndarray, box):
    """kernel on each pair i, candidate cand[i] over box (v[at[i]] for v in box), on the last axis; _CHUNK per call."""
    chunks = (slice(i, i + _CHUNK) for i in range(0, max(cand.size, 1), _CHUNK))
    out = [kernel(*cols[:, cand[s]], *(v[at[s]] for v in box)) for s in chunks]
    return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)


def count_bound(region: Rectangle, U: float, grid: tuple[int, int]) -> CountCertificate:
    """Certified uniform bound on N(z, U) = #{gamma : u(z, gamma z) <= U} over region.

    Subdivides region into grid = (nx, ny) cells and counts for each cell
    the candidates whose interval lower bound on u over the cell is at most
    cutoff = U (1 + 1e-6).  The cells attaining the maximal count are then
    halved across their wider side, round after round, until a maximal piece
    counts as many matrices at its centre as over the whole piece (the
    maximum is attained there, so no refinement can lower it), a split
    leaves a float unchanged, or the refinement work would pass MAX_WORK.  A
    cell's count is the maximum over its pieces and the bound is twice the
    largest.

    Candidates are settled on whole boxes from both sides.  The grid is cut
    into blocks of about 1.5 n^(1/3) cells a side on a grid side of n (see
    _block_side), the last one along a side possibly partial; block edges
    are grid nodes, so a block contains its cells exactly in floats, and a
    cell or piece contains its pieces.  Per candidate and block, and in the refinement per open
    candidate and half piece, _lower_u and _upper_u decide, both from one pass (_both_u):

    * fail, when _lower_u > relaxed = cutoff (1 + PRUNE_SLACK).  A box's
      exact lower bound is never above that of a cell or piece inside it
      (each part is an exact minimum over the box), and the slack absorbs
      the rounding of both bounds, so the candidate fails at cutoff on all
      of them;
    * sure, when _upper_u <= U.  Then the exact maximum of u over the box is
      at most U plus a few ulps, so the float _lower_u of any cell, piece or
      centre inside it is at most cutoff and the candidate counts there.
      SAFE_MARGIN absorbs the rounding of _lower_u, and that of _upper_u,
      which has the same parts and operations, on the same |x|/y range.  A
      sure candidate is counted on every cell and every later piece of the
      box without another test;
    * open otherwise: tested on each cell of the block with _lower_u.  A grid
      cell that becomes maximal starts with its block's sure count and open
      (block, candidate) pairs, found by binary search in the screen's
      sorted list, and keeps them as (piece, candidate) pairs.  A piece's
      centre and halves evaluate only its open candidates.

    Each round tests the centres of the maximal pieces first, with u itself
    (_point_u, the bits of _lower_u on the point), and stops if one reaches
    the maximum; only then are both halves tested, in one pass, and the pairs
    still open on a half are kept under its piece.  So every count is the one
    a test of every candidate on every piece makes, and only the cells that a
    candidate's level set u = U crosses test it one by one.  `pairs` counts
    each bound evaluated on one candidate and box: two per pass of _both_u,
    one per centre.

    The result is a proof: every matrix with u <= U at some point of a
    piece has its lower bound there <= U, and the margin U 1e-6 absorbs the
    rounding of the bound, a few ulps of terms of size U (x/y)^2, wherever
    |x|/y stays below about 1e4.  So the count runs on the region moved by
    n = round(its x midpoint) (_centred), where |x| is at most half its
    width plus 1/2, and holds on any region narrower than about 2e4 y_min.
    The certificate names the caller's region; its cells are the moved grid's.
    """
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid}")
    if not (U >= 1.0):
        raise ValueError(f"count_bound requires U >= 1, got U = {U}")
    centred = _centred(region)
    _check_work(centred, U, grid)
    cutoff = U * (1.0 + SAFE_MARGIN)
    relaxed = cutoff * (1.0 + PRUNE_SLACK)
    cols = np.array([m.entries() for m in enumerate_candidates(centred, U).matrices], dtype=float).T

    xs = np.linspace(centred.x_min, centred.x_max, nx + 1)
    ys = np.linspace(centred.y_min, centred.y_max, ny + 1)
    side = (_block_side(nx), _block_side(ny))
    counts, pairs, block_sure, block_of, block_cand = _screen(cols, xs, ys, side, U, cutoff, relaxed)
    # Pieces: the grid cells that have been maximal and their halves, with
    # their grid cell (owner), their count and the count of candidates sure
    # on them; the (piece, cand) pairs list the candidates still open.
    box = [np.empty(0) for _ in range(4)]
    owner, score, sure, piece, cand = (np.empty(0, dtype=np.int64) for _ in range(5))
    work = 0
    while True:
        top = max(counts.max(), score.max(initial=0))
        fresh = np.flatnonzero(counts == top)  # grid cells maximal for the first time
        ix, iy = np.divmod(fresh, ny)
        block = np.ravel_multi_index((ix // side[0], iy // side[1]), block_sure.shape)
        lo = np.searchsorted(block_of, block)
        n = np.searchsorted(block_of, block, side="right") - lo  # the open pairs of each cell's block
        piece = np.concatenate([piece, np.repeat(score.size + np.arange(fresh.size), n)])
        cand = np.concatenate([cand, block_cand[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)]])
        box = [np.concatenate([v, e]) for v, e in zip(box, (xs[ix], xs[ix + 1], ys[iy], ys[iy + 1]))]
        owner, score = np.concatenate([owner, fresh]), np.concatenate([score, counts[fresh]])
        sure = np.concatenate([sure, block_sure.ravel()[block]])
        counts[fresh] = 0
        hot = np.flatnonzero(score == top)
        x0, x1, y0, y1 = (v[hot] for v in box)
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        wide = x1 - x0 >= y1 - y0
        work += 3 * hot.size * cols.shape[1]
        if work > MAX_WORK or not np.all(np.where(wide, (x0 < xm) & (xm < x1), (y0 < ym) & (ym < y1))):
            break
        slot = np.full(score.size, -1)
        slot[hot] = np.arange(hot.size)
        on_hot = slot[piece] >= 0
        at, c = slot[piece[on_hot]], cand[on_hot]  # the open pairs of the hot pieces, at their slot in hot
        low = _each(_point_u, cols, c, at, (xm, ym))
        pairs += at.size
        if np.any(sure[hot] + np.bincount(at[low <= cutoff], minlength=hot.size) >= top):
            break
        # The first halves replace their pieces in place; the second are appended.  Both are
        # tested in one pass, the pairs of the second half at slots hot.size + at.
        first = (x0, np.where(wide, xm, x1), y0, np.where(wide, y1, ym))
        second = (np.where(wide, xm, x0), x1, np.where(wide, y0, ym), y1)
        at, c = np.concatenate([at, at + hot.size]), np.concatenate([c, c])
        low, high = _each(_both_u, cols, c, at, [np.concatenate(v) for v in zip(first, second)])
        is_sure = high <= U
        keep = (low <= relaxed) & ~is_sure
        ids = np.concatenate([hot, score.size + np.arange(hot.size)])
        piece, cand = np.concatenate([piece[~on_hot], ids[at[keep]]]), np.concatenate([cand[~on_hot], c[keep]])
        counted, sured = (
            sure[hot] + np.bincount(at[ok], minlength=2 * hot.size).reshape(2, -1) for ok in (low <= cutoff, is_sure)
        )
        pairs += 2 * at.size
        score[hot], sure[hot] = counted[0], sured[0]
        score, sure = np.concatenate([score, counted[1]]), np.concatenate([sure, sured[1]])
        owner = np.concatenate([owner, owner[hot]])
        for j in range(4):
            box[j][hot] = first[j]
            box[j] = np.concatenate([box[j], second[j]])

    np.maximum.at(counts, owner, score)
    return CountCertificate(
        region=region,
        U=U,
        grid=(nx, ny),
        per_cell_counts=tuple(tuple(row.tolist()) for row in counts.reshape(nx, ny)),
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
    Away from x = 0 it enumerates gamma' at z - n, w - m (n, m the rounded real parts, exact
    subtractions) and yields T^n gamma' T^-m, so the floats keep size 1, not n.
    """
    if not (U >= 1.0):
        raise ValueError(f"enumerate_group_elements requires U >= 1, got U = {U}")
    n, m = round(z.x), round(w.x)
    if n or m:
        for g, value in enumerate_group_elements(UpperHalfPoint(z.x - n, z.y), UpperHalfPoint(w.x - m, w.y), U):
            a = g.a + n * g.c
            yield UnimodularMatrix(a, g.b + n * g.d - m * a, g.c, g.d - m * g.c), value
        return
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
