"""Lattice-point counting in SL(2, Z): N(z, U) = #{gamma : u(z, gamma z) <= U}.

* count_bound certifies a uniform upper bound on N over a rectangle of base
  points, and its docstring holds the proof.  enumerate_candidates draws the
  matrices it may count, _inverse_pairs keeps one of each inverse pair, _screen
  counts them on a grid of cells and _refine splits the maximal cells.  Its
  kernels read u(z, gamma z) = (tr gamma)^2/2 - 1 + (W(x) - c y^2)^2 / (2 y^2),
  W(x) = b + (a - d)x - cx^2: _rows holds a candidate's coefficients, _parts
  W's range over [X0, X1], _low and _high the exact minimum and maximum of u
  over a box (_both takes both), and _centre u at a point, with _low's bits
  there; _level_sets and _vertex are its vertex test.
* exact_count counts at one pair of points by orbit enumeration
  (enumerate_group_elements), exactly on exact coordinates; it is the oracle
  the certificate is tested against.
* u_of_gamma evaluates u(z, gamma z); truncated_fundamental_domain and
  reduce_to_fundamental_domain place points.

Every counting entry point estimates its work in closed form before it
enumerates anything, and raises ValueError above MAX_WORK, so a region
reaching towards the real axis, a huge grid or a huge orbit count fails at
once instead of running for hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
# the orbit loop of enumerate_group_elements.  The array enumeration of candidates
# costs 1.0 to 4.8 ns per step of its (c, a, d) box (1.15e8 steps at U = 5e4 on a
# point took 0.11 s, 7.9e6 at U = 4,999 on the truncated domain 14 ms, 1.2e5 at
# U = 300 0.58 ms), so a step counts LOOP_WEIGHT, the upper end rounded up; a value
# of c, its ranges and inverse table in Python, took 3.6 to 9 us with its box steps
# (U = 1 to 17 at y_min = 1e-4 to 3e-3), so it counts C_WEIGHT on top of them; a
# grid cell, its counts and certificate entry, about 8 (1e6 cells at U = 1.0001
# took 15-16 ms in a fresh process, 8-13 ms when repeated; 4e6 took 28-37 ms).
MAX_WORK = 2**28
LOOP_WEIGHT = 3
C_WEIGHT = 4096
CELL_WEIGHT = 8
_CHUNK = 2**13  # kernel evaluations per call, to bound memory
PRUNE_SLACK = 1e-12  # relative slack of the pruning threshold over the count threshold
# Rows of (x0, x1, y0, y1, xm, ym, xt, yt) that give ((x0, x1), (y0, y1)) of quarters 0 to 3 of a
# piece, the upper half of x in quarters 1 and 3 and of y in 2 and 3; xt and yt end the lower
# halves, at the middle of a side that is cut and at its upper end otherwise.
_QUARTERS = np.array([[[0, 4, 0, 4], [6, 1, 6, 1]], [[2, 2, 5, 5], [7, 7, 3, 3]]])
# (p, q, r): z* = (p + iq)/r has |z*|^2 = 2, on the axis of (3 4; 2 3), where u(z*, gamma z*) = WITNESS_U for
# gamma and its inverse, so N(z*, z*, WITNESS_U) = 214 attains its supremum on the truncated domain.
COUNT_WITNESS = (-161, 719, 521)
WITNESS_U = 17.0  # min over z of u(z, gamma z) = (tr gamma)^2/2 - 1 at trace 6


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Sign-representatives that could satisfy min over R of u(z, gamma z) <= U.

    Representatives are normalized to c > 0, or c = 0 with a = d = 1; no
    two entries are negatives of each other.  columns holds their (a, b, c, d)
    as four integer rows, one column each; matrices builds them on first read.
    """

    columns: np.ndarray = field(repr=False)

    @cached_property
    def matrices(self) -> tuple[UnimodularMatrix, ...]:
        return tuple(UnimodularMatrix(*m) for m in self.columns.T.tolist())


@dataclass(frozen=True, eq=False)
class CountCertificate:
    """Grid certificate: bound >= 2 max cell count >= sup over R of N(z, U).

    per_cell_counts holds the count of each cell as one read-only int64
    array of shape grid, x-major (per_cell_counts[i, j] is the cell i from
    the left and j from the bottom); it is built from any array or nested
    sequence of integers of that shape, and a ragged shape or a value that
    is not an integer is refused.  Two certificates are equal when their
    region, U, grid, bound and counts are; pairs, stop, witness and rounds
    record how the count ran and are not compared.  Certificates are not
    hashable.
    """

    region: Rectangle
    U: float
    grid: tuple[int, int]
    per_cell_counts: np.ndarray
    bound: int
    pairs: int = 0  # bounds evaluated per candidate and box; work, not proof
    # How the refinement ended ("witness", "centre", "vertex", "float" or "cap"; empty when built by hand),
    # and the point (x, y) whose count the bound attains, for "witness", "centre" and "vertex" only.
    stop: str = ""
    witness: tuple[float, float] | None = None
    rounds: int = 0  # refinement rounds that split or tested pieces; work, not proof

    def __post_init__(self) -> None:
        try:
            counts = np.array(self.per_cell_counts)  # a copy the certificate alone holds
        except ValueError:  # a ragged nesting
            counts = None
        if counts is None or counts.shape != tuple(self.grid):
            raise ValueError(f"per_cell_counts is not a grid of shape {tuple(self.grid)}")
        if counts.dtype.kind not in "iu" or not np.can_cast(counts.dtype, np.int64):
            raise ValueError(f"per_cell_counts holds {counts.dtype} values, not integers")
        counts = counts.astype(np.int64, copy=False)
        counts.flags.writeable = False
        object.__setattr__(self, "per_cell_counts", counts)
        max_count = int(counts.max())
        if self.bound != 2 * max_count:
            raise ValueError(f"bound {self.bound} is not twice the max cell count {max_count}")
        if self.bound < 2:
            raise ValueError(f"bound must be >= 2 (identity pair), got {self.bound}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = (self.region, self.U, self.grid, self.bound) == (other.region, other.U, other.grid, other.bound)
        return same and np.array_equal(self.per_cell_counts, other.per_cell_counts)


def truncated_fundamental_domain() -> Rectangle:
    """Box [-1/2, 1/2] x [sqrt(3)/2, 2] covering the fundamental domain up to height 2.

    Every orbit has a representative with height in [sqrt(3)/2, 2] or inside
    a cusp neighbourhood, so a uniform count bound on this box extends to
    the thick part of the quotient.  The float box contains the true one: its
    x sides and y_max are exact, and float(sqrt(3)/2) lies 5.0e-17 below sqrt(3)/2.
    """
    return Rectangle(-0.5, 0.5, math.sqrt(3.0) / 2.0, 2.0)


def _int_range(lo: float, hi: float) -> range:
    """Integers n with lo <= n <= hi, after the 1e-9 slack that keeps borderline integers."""
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
    from fractions import Fraction  # on first use: a region away from the centre strip is rare

    def move(x: float, outward: float) -> float:
        return x - n if Fraction(x - n) == Fraction(x) - n else math.nextafter(x - n, outward)

    return Rectangle(move(region.x_min, -math.inf), move(region.x_max, math.inf), region.y_min, region.y_max)


def _x_nodes(region: Rectangle, n: int) -> np.ndarray:
    """The n + 1 x nodes of an n-column grid on region, evenly spaced; exactly antisymmetric
    (node i is minus node n - i) when x_min == -x_max, which np.linspace alone is not, so that
    count_bound's mirror holds bit for bit."""
    xs = np.linspace(region.x_min, region.x_max, n + 1)
    return 0.5 * (xs - xs[::-1]) if region.x_min == -region.x_max else xs


def _witness(region: Rectangle, U: float) -> tuple[float, float] | None:
    """The float point nearest z* (COUNT_WITNESS), or its mirror, that region holds, when U is WITNESS_U
    and region lies inside the truncated domain; None otherwise (see count_bound)."""
    box = truncated_fundamental_domain()
    if U != WITNESS_U or not (box.x_min <= region.x_min and region.x_max <= box.x_max
                              and box.y_min <= region.y_min and region.y_max <= box.y_max):
        return None
    p, q, r = COUNT_WITNESS
    y = q / r
    for x in (p / r, -p / r):  # -(p / r) is the float nearest -p/r: rounding is symmetric
        if region.x_min <= x <= region.x_max and region.y_min <= y <= region.y_max:
            return x, y
    return None


def _check_work(region: Rectangle, U: float, grid: tuple[int, int] = (1, 1)) -> None:
    """Raise ValueError when counting on region with grid cells is estimated above MAX_WORK steps.

    For c = 1 .. C = sqrt(2U)/y_min, a and d each take at most
    n(c) = 2 sqrt(2U) + 1 + c (x_max - x_min) values, and ad = 1 (mod c)
    leaves at most n(c)/c + 1 values of d per a; the sums over c are taken
    in closed form (harmonic sum <= 1 + log C).  Each step of that (c, a, d)
    box counts LOOP_WEIGHT against the cap, each value of c C_WEIGHT, each cell
    CELL_WEIGHT and the block screen two steps per candidate and block; _screen
    checks the per-cell tests it leaves open.  NaN or infinity is refused.

    A count that passes keeps its traces small enough for _rows' m0 to be
    exact: |a + d| <= 2 sqrt(2U) + c (x_max - x_min) + 2, and the loop term
    alone, at most MAX_WORK / LOOP_WEIGHT, bounds n0^2 C and w^2 C^3 / 3 by
    2^28 / 3 with C >= 1, so 2 sqrt(2U) < 2^14, c w <= C w < 2^14 and
    |a + d| < 2^16, far below 2^26.
    """
    root_2u = math.sqrt(2.0 * U)
    n0 = 2.0 * root_2u + 1.0
    w = region.x_max - region.x_min
    C = root_2u / region.y_min
    loop, s1, candidates = 0.0, 0.0, 2.0 * region.y_max * math.sqrt(max(2.0 * U - 2.0, 0.0)) + 1.0
    if C >= 1.0:
        s1, s2, s3 = C, C * (C + 1.0) / 2.0, C * (C + 1.0) * (2.0 * C + 1.0) / 6.0
        if w == 0.0:  # no width terms, not 0 * inf where s2 or s3 overflows
            s2 = s3 = 0.0
        loop = n0 * n0 * s1 + 2.0 * n0 * w * s2 + w * w * s3
        candidates += n0 * (n0 * (1.0 + math.log(C)) + (2.0 * w + 1.0) * s1) + w * (w + 1.0) * s2
    blocks = math.prod(-(-n // _block_side(n)) for n in grid)
    work = LOOP_WEIGHT * loop + C_WEIGHT * s1 + 2.0 * blocks * candidates + CELL_WEIGHT * grid[0] * grid[1]
    if not (work <= MAX_WORK):
        raise ValueError(
            f"counting on [{region.x_min:g}, {region.x_max:g}] x "
            f"[{region.y_min:g}, {region.y_max:g}] at U = {U:g} on a {grid[0]}x{grid[1]} grid "
            f"is estimated at {work:.3g} steps, above the cap {MAX_WORK}; "
            "shrink the region, U or the grid"
        )


def _ramp(n: np.ndarray) -> np.ndarray:
    """0, 1, ..., n[0] - 1, 0, 1, ..., n[1] - 1, ...: each entry's place in its run, for run lengths n."""
    return np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)


def _rows(a, b, c, d):
    """A candidate's kernel rows: c, b, e = a - d, m0 = (a + d)^2/2 - 1, the vertex x = e/(2c) of W, W there, max(c, 1).

    The kernels read u(z, gamma z) = m0 + (W(x) - c y^2)^2 / (2 y^2), W(x) = b + e x - c x^2 (see _low),
    and the bounds the vertex and W there, so a candidate computes them once, not once per box; for
    c = 0, a = d and W is constant.  m0 is exact in floats while |a + d| < 2^26 (_check_work keeps the
    count's candidates below 2^16).  a, b, c, d share one shape.
    """
    e, t = a - d, a + d
    c1 = np.maximum(c, 1.0)
    xv = e / (2.0 * c1)
    cv = c * xv
    return np.array([c, b, e, 0.5 * (t * t) - 1.0, xv, b + e * xv - cv * xv, c1])


def _inverse_pairs(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel rows (_rows) of one matrix of each inverse pair among the candidates (a, b, c, d) in
    columns, and its weight: 2, or 1 for a matrix that is its own inverse up to sign.

    The c >= 0 form of gamma^-1 is (-d, b, c, -a), of trace -(a + d), and the inverse of the
    translation by b is the translation by -b; so a + d <= 0 is kept for c > 0 and b <= 0 for c = 0,
    the first of the two in enumerate_candidates' order, and the weight is 1 at a + d = 0
    (gamma^2 = -1) and at the identity.
    """
    key = np.where(columns[2] == 0, columns[1], columns[0] + columns[3])
    kept = key <= 0
    return _rows(*columns.compress(kept, axis=1).astype(float)), np.where(key.compress(kept) < 0, 2, 1)


def _tally(at: np.ndarray, weight: np.ndarray, n: int) -> np.ndarray:
    """The sum of weight at each index 0 .. n - 1 of at, as int64 (bincount adds in floats, exact below 2^53)."""
    return np.bincount(at, weights=weight, minlength=n).astype(np.int64)


def _parts(g, X):
    """The range [lo, hi] of W(x) = b + (a - d)x - cx^2 over [X0, X1], for kernel rows g (_rows) and X = (X0, X1)
    stacked: W is concave, so lo is the lesser of its values at X0 and X1, and hi the greater, or W at the
    vertex x = (a - d)/(2c) when that lies in [X0, X1].  u depends on x only through W."""
    cx = g[0] * X
    w = g[1] + g[2] * X - cx * X
    inside = (X[0] <= g[4]) & (g[4] <= X[1])
    return np.minimum(w[0], w[1]), np.maximum(np.maximum(w[0], w[1]), np.where(inside, g[5], -np.inf))


def _low(g, Y, lo, hi):
    """min of u(z, gamma z) over z in [X0, X1] x [Y0, Y1], for c >= 0, exact but for rounding.

    From the kernel rows g (_rows), Y = (Y0, Y1) stacked and W's range [lo, hi] = _parts(g, X),
    X = (X0, X1), broadcast, in count_bound candidates as columns and cells as rows; c is 0 or an
    integer >= 1.  Expanding u - 1 = |cz^2 + (d - a)z - b|^2 / (2y^2) (_level_sets) gives

        u(z, gamma z) = m0 + (W(x) - c y^2)^2 / (2 y^2),  m0 = (a + d)^2/2 - 1 = min u,

    so u depends on x only through W, and for each y the square is least at the W in [lo, hi] nearest
    c y^2: its root is max(0, c y - hi/y, lo/y - c y).  The first branch is least at
    y1 = sqrt(max(-hi, 0)/c) clamped to [Y0, Y1] (at Y1 when c = 0), and the second falls as y grows,
    so it is least at Y1; the two are never both positive, so the minimum over the box is
    m0 + max(0, (c y1^2 - hi)/y1, (lo - c Y1^2)/Y1)^2 / 2.  On a single point, y1 = y and the bound
    is u itself, with _centre's bits.

    Forward error: m0 is exact (_rows), and the one cancellation left is W - c y^2, which enters
    squared; with delta the rounding of that difference, a few ulps of |b| + |(a - d)x| + c x^2 + c y^2,
    the bound errs by about sqrt(2 (u - m0)) delta / y, a few ulps of U (1 + (x/y)^2) at u near U.
    y1's own rounding moves it by second order, as the first branch is stationary there.
    """
    root = np.where(g[0] > 0, np.sqrt(np.maximum(-hi, 0.0) / g[6]), np.inf)  # Y1 where c = 0
    y1 = np.minimum(np.maximum(root, Y[0]), Y[1])
    s = np.maximum(np.maximum((g[0] * y1 * y1 - hi) / y1, (lo - g[0] * Y[1] * Y[1]) / Y[1]), 0.0)
    return g[3] + 0.5 * s * s


def _high(g, Y, lo, hi):
    """max of u(z, gamma z) over z in [X0, X1] x [Y0, Y1], for c >= 0, exact but for rounding.

    Arguments as for _low.  The square (W - c y^2)^2 / y^2 is convex in W, so it is greatest at lo
    or hi; for fixed W, W/y - c y is monotone in y when W >= 0, and its absolute value convex when
    W < 0, so it is greatest at Y0 or Y1: the maximum is the largest of the four corner terms,
    m0 + ((W - c y^2)/y)^2 / 2 for W in {lo, hi} and y in {Y0, Y1}.  Each corner term is computed
    in _low's order of operations, so the terms _low takes at a clamped y1 have its bits, and on a
    point the bound is u itself with _low's bits; only an interior y1 is not a corner (see _both).
    """
    k0, k1 = g[0] * Y[0] * Y[0], g[0] * Y[1] * Y[1]
    s = np.maximum(np.maximum(hi - k0, k0 - lo) / Y[0], np.maximum(hi - k1, k1 - lo) / Y[1])
    return g[3] + 0.5 * s * s


def _both(g, X, Y):
    """(_low, _high) from the candidates' kernel rows g (_rows) over X = (X0, X1) and Y = (Y0, Y1) stacked,
    so that a call is a fixed, short list of numpy operations whatever the number of pairs.

    The upper bound is the larger of the two, so that it is never below the lower bound in floats:
    where _low's y1 lies inside a box a few ulps tall, its term can round an ulp above every corner (7 to
    11% of the U = 300 candidates on boxes 1 to 100 ulps tall around their y1).  Both bound u over the
    same box, so the larger is still an upper bound.
    """
    lo, hi = _parts(g, X)
    low = _low(g, Y, lo, hi)
    return low, np.maximum(_high(g, Y, lo, hi), low)


def _centre(g, x, y):
    """u(z, gamma z) = m0 + ((W(x) - c y^2)/y)^2 / 2 at z = x + iy from the candidates' kernel rows g (_rows),
    which it reads only up to m0: _low's bits on the point, X = (x, x) and Y = (y, y), the one identity the
    refinement's stop rule needs.  Any sign of c is taken."""
    cx = g[0] * x
    s = (g[1] + g[2] * x - cx * x - g[0] * y * y) / y
    return g[3] + 0.5 * s * s


def _level_sets(g, U):
    """The level sets u(z, gamma z) = U of the candidates with kernel rows g (_rows): circles and lines.

    u - 1 = |cz^2 + (d - a)z - b|^2 / (2y^2), and with s = x - xv the numerator is
    (wv + c (y^2 - s^2))^2 + 4 c^2 s^2 y^2, so for c >= 1 the level set is
    (s^2 + y^2 - R y - wv/c)(s^2 + y^2 + R y - wv/c) = 0: the circles of centres
    (xv, +-R/2) and radius K/2, K = sqrt(2 (U - 1))/c, R^2 = K^2 - 4 wv/c, none
    when R^2 < 0 (then min u = t^2/2 - 1 > U).  For c = 0 it is the line
    y = |b| / sqrt(2 (U - 1)).  Returns the rows xv, R/2, K/2 and the line's
    height, one column a candidate, NaN where there is no circle or no line.
    """
    k = math.sqrt(2.0 * (U - 1.0))
    arc = g[0] > 0
    with np.errstate(divide="ignore", invalid="ignore"):  # c = 0, R^2 < 0 or U = 1
        K = np.where(arc, k / g[0], np.nan)
        R = np.sqrt(K * K - 4.0 * g[5] / g[0])
        return np.array([g[4], 0.5 * R, 0.5 * K, np.where(arc, np.nan, np.abs(g[1]) / k)])


def _vertex(rows, weight, cand, at, c, box, sure, U: float, cutoff: float, top: int):
    """The vertex test: a crossing of the level sets of candidates cand that counts top.

    rows and weight hold the kernel rows (_rows) and weights of all the
    candidates, one of each inverse pair (_inverse_pairs); the round's
    hot pieces have the boxes box, the sure counts sure and the open (slot,
    candidate) pairs (at, c).  Takes the level sets of cand (_level_sets),
    the crossing points of every two of them, the point of closest approach
    for a tangent pair (h^2 clamped at 0), and keeps those in a hot piece:
    a point in no hot piece lies in a piece that counts less than top.  A
    point in hot piece j counts sure[j] and the weights of the open
    candidates of j with _centre <= cutoff, which is its count over all the
    candidates with the centre test's bits (a candidate sure on j counts
    there, one failed on it does not).  Two level sets are the same circle
    or line only for an inverse pair, of which cand holds one matrix, so no
    two of them are.  Returns the first point that counts top, or None, and
    the kernel evaluations spent.  With the centres as complex numbers, the
    ordered pair of circles (i, j) gives the crossing z_i + (f + ih)(z_j - z_i)
    and (j, i) the other, so one sign serves both.  Each pass takes at most
    about _CHUNK pairs of circles, or of points and hot pieces or open pairs,
    to bound memory.
    """
    x, half_r, half_k, line = _level_sets(rows.take(cand, axis=1), U)
    z, r2 = np.concatenate([x + 1j * half_r, x - 1j * half_r]), np.concatenate([half_k, half_k]) ** 2
    found, step = [], max(1, _CHUNK // max(z.size, 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # no circle, or a circle with itself: NaN, dropped
        for s in range(0, z.size, step):  # circles s to s + step with all, _CHUNK pairs a pass
            zi, ri = z[s : s + step, None], r2[s : s + step, None]
            dz = z - zi
            d2 = dz.real**2 + dz.imag**2
            f = 0.5 + 0.5 * (ri - r2) / d2  # the chord's foot, as a fraction of the way from z_i to z_j
            found.append((zi + (f + 1j * np.sqrt(np.maximum(ri / d2 - f * f, 0.0))) * dz).ravel())
        for y in line.compress(line < np.inf):  # a line meets a circle at x +- w
            w = np.sqrt(np.maximum(r2 - (y - z.imag) ** 2, 0.0))
            found.append(np.concatenate([z.real - w, z.real + w]) + 1j * y)
    p = np.concatenate(found)
    evaluated, step = 0, max(1, _CHUNK // max(box.shape[2], at.size))
    for s in range(0, p.size, step):  # _CHUNK points by hot pieces or by open pairs a pass
        q = p[s : s + step, None]
        inside = (box[0, 0] <= q.real) & (q.real <= box[0, 1]) & (box[1, 0] <= q.imag) & (q.imag <= box[1, 1])
        held = inside.any(axis=1)
        if not held.any():
            continue
        q, piece = q.compress(held), inside.argmax(axis=1).compress(held)  # the first hot piece holding it
        point, k = (piece[:, None] == at).nonzero()  # each point with each open pair of its piece
        zk = q.take(point)
        ck = c.take(k)
        ok = _centre(rows.take(ck, axis=1), zk.real, zk.imag) <= cutoff
        count = sure.take(piece) + _tally(point, weight.take(ck) * ok, piece.size)
        evaluated += point.size
        if count.max() >= top:
            i = count.argmax()
            return (float(q[i].real), float(q[i].imag)), evaluated
    return None, evaluated


def u_of_gamma(gamma: UnimodularMatrix, z: UpperHalfPoint) -> float:
    """u(z, gamma z) = (tr gamma)^2/2 - 1 + (W(x) - c y^2)^2 / (2 y^2): _centre on gamma's kernel rows, so
    _low's bits on the point; -gamma and gamma^-1 have the same rows, so they give the same bits."""
    return float(_centre(_rows(*map(float, gamma.entries())), z.x, z.y))


def enumerate_candidates(region: Rectangle, U: float) -> CandidateSet:
    """All sign-representatives whose displacement could be <= U somewhere on region.

    By the closed form

        u(z, gamma z) = (1/2) [(a - cx)^2 + ((b + (a - d)x - cx^2)/y)^2 + (cy)^2 + (d + cx)^2],

    every square is at most 2U on the counted set, which pins c, then a and
    d, into explicit intervals, and b = (ad - 1)/c must be integral;
    translations (c = 0) obey |b| <= y sqrt(2U - 2).  The set is built as
    integer arrays: each a steps straight through its class of d, so work
    and memory follow the candidates, not the (a, d) box, and only each c's
    ranges and inverse table are Python loops.  Returned in canonical order: translations by increasing b, then c > 0
    sorted by (c, a, d).  The set is a superset of the matrices any
    sub-rectangle of region can count for the same U.  The entries are
    64-bit integers, so a region where |a| and |d| could pass 2^31, that is
    sqrt(2U) (1 + max |x| / y_min) + 1 >= 2^31, raises ValueError.
    """
    if not (U >= 1.0):
        raise ValueError(f"enumerate_candidates requires U >= 1, got U = {U}")
    _check_work(region, U)
    root_2u = math.sqrt(2.0 * U)
    reach = root_2u + root_2u / region.y_min * max(abs(region.x_min), abs(region.x_max)) + 1.0  # |a|, |d| at most
    if not reach * reach < 2.0**62:  # so that ad and b fit in int64
        raise ValueError(
            f"enumerate_candidates: entries up to {reach:.3g} at x up to "
            f"{max(abs(region.x_min), abs(region.x_max)):g} overflow 64-bit integers; "
            "translate the region towards x = 0 by an integer (count_bound does)"
        )
    b_max = region.y_max * math.sqrt(max(2.0 * U - 2.0, 0.0))
    b = _int_range(-b_max, b_max)
    b = np.arange(b.start, b.stop)
    cs = _int_range(1.0, root_2u / region.y_min)
    ar = [_int_range(-root_2u + c * region.x_min, root_2u + c * region.x_max) for c in cs]
    dr = [_int_range(-root_2u - c * region.x_max, root_2u - c * region.x_min) for c in cs]
    # ad = 1 (mod c): a is a unit mod c, and d runs over the class of a's inverse in dr.  Each c has
    # a table of the inverses of its first c values of a, -1 for no unit; the tables lie end to end.
    tables = [[pow(r, -1, c) if math.gcd(r, c) == 1 else -1 for r in a[:c]] for c, a in zip(cs, ar)]
    c, a0, na, d0, d1, nt = np.array(
        [(c, a.start, len(a), d.start, d.stop, len(t)) for c, a, d, t in zip(cs, ar, dr, tables)], dtype=np.int64
    ).reshape(-1, 6).T
    k, i = np.repeat(np.arange(c.size), na), _ramp(na)  # per a: the index of its c and its place in ar
    inv = np.array([v for t in tables for v in t], dtype=np.int64)[np.repeat(np.cumsum(nt) - nt, na) + i % c[k]]
    unit = inv >= 0
    k, a, inv = k[unit], (a0[k] + i)[unit], inv[unit]
    c, d0 = c[k], d0[k]
    first = d0 + (inv - d0) % c  # the least d of each a
    n = np.maximum((d1[k] - 1 - first) // c + 1, 0)
    a, c = np.repeat(a, n), np.repeat(c, n)
    d = np.repeat(first, n) + c * _ramp(n)
    columns = [[np.ones_like(b), b, np.zeros_like(b), np.ones_like(b)], [a, (a * d - 1) // c, c, d]]
    return CandidateSet(np.concatenate(columns, axis=1))


def _block_side(n: int) -> int:
    """Cells per block side on a grid side of n cells: about 1.5 n^(1/3).

    A candidate costs two evaluations per block, and one per cell of the
    blocks its level set u = U crosses, about n/b of them for blocks of side
    b; the sum is least at b proportional to n^(1/3), and the factor 1.5
    measured fastest at U = 5 to 17 on the truncated domain.
    """
    return max(1, round(1.5 * n ** (1.0 / 3.0)))


def _screen(rows: np.ndarray, weight: np.ndarray, xs: np.ndarray, ys: np.ndarray, side: tuple[int, int], U: float,
            cutoff: float, relaxed: float):
    """Per grid cell (x-major), the weight of the candidates (columns of the kernel rows, _rows, with
    weights weight) with _low <= cutoff.

    The grid is cut into blocks of side[0] x side[1] cells, numbered
    x-major; the nodes are padded at the far ends with copies of the last,
    so that every block is whole, and the degenerate cells this adds are
    cropped from the counts at the end.  Per candidate and block, _high <= U
    makes it sure (it counts on every cell of the block), _low > relaxed
    makes it fail, and otherwise it is open and tested on each cell of the
    block.  Kernel calls broadcast (candidates, x, 1) x (1, y) on blocks and
    (pairs, x, 1) x (pairs, 1, y) on the cells of the open pairs' blocks.
    The open pairs are sorted by block, so a pass sums its weighted hits
    over each run of one block's pairs (np.add.reduceat) into a
    (blocks, side[0], side[1]) array that starts at the sure counts.  Also
    returns the pairs evaluated, the sure count (weight) per block and the
    open (block, candidate) pairs as two index arrays, sorted.
    """
    nx, ny, k = len(xs) - 1, len(ys) - 1, rows.shape[1]
    nbx, nby = -(-nx // side[0]), -(-ny // side[1])
    xs = np.append(xs, np.full(nbx * side[0] - nx, xs[-1]))  # padded: the cells added have width 0
    ys = np.append(ys, np.full(nby * side[1] - ny, ys[-1]))
    xc = np.array([xs[:-1], xs[1:]]).reshape(2, nbx, side[0])  # (x0, x1) of each cell, by block
    yc = np.array([ys[:-1], ys[1:]]).reshape(2, nby, side[1])
    xb = np.array([xc[0, :, 0], xc[1, :, -1]])[:, None, :, None]  # block ends
    yb = np.array([yc[0, :, 0], yc[1, :, -1]])
    sure = np.zeros((nbx, nby), dtype=np.int64)
    open_b, open_c = [], []
    step = max(1, _CHUNK // (nbx * nby))  # candidates per call
    width = max(1, _CHUNK // (step * nby))
    for j in range(0, k, step):
        part = rows[:, j : j + step, None, None]
        for i in range(0, nbx, width):
            x = slice(i, i + width)
            low, high = _both(part, xb[:, :, x], yb)
            is_sure = high <= U
            sure[x] += np.einsum("k,kxy->xy", weight[j : j + step], is_sure)
            c, bx, by = np.nonzero((low <= relaxed) & ~is_sure)
            open_b.append((bx + i) * nby + by)
            open_c.append(c + j)
    order = np.argsort(np.concatenate(open_b), kind="stable")  # block by block, so that a call's cells are near
    b, c = np.concatenate(open_b)[order], np.concatenate(open_c)[order]
    if not (b.size * side[0] * side[1] <= MAX_WORK):  # the per-cell tests below
        raise ValueError(f"{b.size * side[0] * side[1]} cell tests stay open, above the cap {MAX_WORK}")
    cells = np.repeat(sure.ravel(), side[0] * side[1]).reshape(nbx * nby, *side)  # by block, then x-major
    bx, by = np.divmod(b, nby)
    w = weight.take(c)[:, None, None]
    step = max(1, _CHUNK // (side[0] * side[1]))
    first = np.ones(b.size, dtype=bool)  # where a pass or the run of a block's pairs starts
    first[1:] = b[1:] != b[:-1]
    first[::step] = True
    for i in range(0, b.size, step):
        q = slice(i, i + step)
        g = rows.take(c[q], axis=1)[:, :, None, None]
        low = _low(g, yc[:, by[q], None, :], *_parts(g, xc[:, bx[q], :, None]))
        at = first[q].nonzero()[0]
        cells[b[q].take(at)] += np.add.reduceat((low <= cutoff) * w[q], at)
    counts = cells.reshape(nbx, nby, *side).transpose(0, 2, 1, 3).reshape(nbx * side[0], nby * side[1])
    return counts[:nx, :ny].ravel(), 2 * k * nbx * nby + b.size * side[0] * side[1], sure, b, c


def _each(kernel, rows: np.ndarray, cand: np.ndarray, at: np.ndarray, box: np.ndarray):
    """kernel on each pair i: the kernel rows of candidate cand[i] over the box column at[i] (last axis).

    _CHUNK / 2 pairs per call, so that _both's temporaries stay in cache: _both on 8,192 pairs took
    0.68 ms in two calls and 1.02 ms in one (median of 30, 2-core box).
    """
    step = max(1, _CHUNK // 2)
    chunks = (slice(i, i + step) for i in range(0, max(cand.size, 1), step))
    out = [kernel(rows.take(cand[s], axis=1), *box.take(at[s], axis=-1)) for s in chunks]
    return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)


def _refine(rows, weight, xs, ys, side, screen, U: float, cutoff: float, relaxed: float, witness):
    """The refinement rounds of count_bound (see there), after the screen.

    rows are the candidates' kernel rows and weight their weights, xs and
    ys the grid's nodes, side the block sides, screen what _screen returned,
    cutoff and relaxed the count and pruning thresholds and witness
    _witness's point or None.
    Returns the counts of the counted grid cells (x-major, each the largest
    of its pieces), the top count, how the refinement stopped and at which
    point, and the pairs (the screen's included) and rounds spent.  The
    rounds' arrays are freed on return, before count_bound mirrors the
    counts into the certificate.
    """
    counts, pairs, block_sure, block_of, block_cand = screen
    ny, nby, block_sure = len(ys) - 1, block_sure.shape[1], block_sure.ravel()
    floor = None
    if witness is not None:  # the centre test's count at the witness: its block's sure and open candidates
        ix, iy = (min(max(v.searchsorted(p, side="right") - 1, 0), v.size - 2) for v, p in zip((xs, ys), witness))
        block = ix // side[0] * nby + iy // side[1]
        cand = block_cand[slice(*block_of.searchsorted([block, block + 1]))]
        floor = block_sure[block] + weight.take(cand).compress(_centre(rows[:4, cand], *witness) <= cutoff).sum()
        pairs += cand.size
    # A round splits the hot cells and pieces, those that count lim or more: the maximal ones,
    # or with a witness all that count more than it.  Pieces: the grid cells that have been hot
    # and their kids.  box holds their ((x0, x1), (y0, y1)) and tally their grid cell (owner),
    # count (score) and count of candidates sure on them, one column each, all sums of weights.
    # pair files the (piece, candidate) pairs still open, in arrays with the scores of their
    # pieces, under the largest of those scores, so a round reads the pairs of its hot pieces
    # from the arrays filed under lim or more and no others.  grid_top is the largest count of a
    # grid cell not yet a piece, and last the previous round's top.
    box = np.empty((2, 2, 0))
    tally, pair = np.empty((3, 0), dtype=np.int64), {}
    grid_top, work, rounds, last = counts.max(), 0, 0, None
    while True:
        top = max(grid_top, tally[1].max(initial=0))
        if floor is not None and top <= floor:
            stop = "witness"
            break
        lim = top if floor is None else floor + 1
        if grid_top >= lim:  # grid cells hot for the first time become pieces
            fresh = (counts >= lim).nonzero()[0]
            ix, iy = np.divmod(fresh, ny)
            block = ix // side[0] * nby + iy // side[1]
            lo, hi = np.searchsorted(block_of, [block, block + 1])  # the open pairs of each cell's block
            n = hi - lo
            cand = block_cand[np.repeat(lo, n) + _ramp(n)]
            piece = np.repeat(tally.shape[1] + np.arange(fresh.size), n)
            score = counts[fresh]
            pair.setdefault(score.max(), []).append((np.array([piece, cand]), np.repeat(score, n)))
            box = np.concatenate([box, [[xs[ix], xs[ix + 1]], [ys[iy], ys[iy + 1]]]], axis=2)
            tally = np.concatenate([tally, [fresh, score, block_sure[block]]], axis=1)
            counts[fresh] = 0
            grid_top = counts.max()
        hot = (tally[1] >= lim).nonzero()[0]
        h, b = hot.size, box.take(hot, axis=2)
        mid = 0.5 * (b[:, 0] + b[:, 1])  # xm, ym
        size = b[:, 1] - b[:, 0]
        cut = 2.0 * size >= size.max(axis=0)  # the sides split: each at least half the longest
        inner = (b[:, 0] < mid) & (mid < b[:, 1])
        # Quarter q of a hot piece takes the upper half of x if q & 1 and of y if q & 2, and a side
        # not cut whole; it is a kid of the piece when every side it halves is cut: the four
        # quarters of a near-square piece, the two halves across the length of a long one.
        is_kid = np.ones((4, h), dtype=bool)
        is_kid[1:3] = cut
        is_kid[3] = cut[0] & cut[1]
        work += (h + np.count_nonzero(is_kid)) * rows.shape[1]
        held = [entry for key in [k for k in pair if k >= lim] for entry in pair.pop(key)]
        held = held or [(np.empty((2, 0), dtype=np.int64), np.empty(0, dtype=np.int64))]
        part, score = held[0] if len(held) == 1 else (np.concatenate(column, axis=-1) for column in zip(*held))
        on = score >= lim
        if not on.all():  # the pairs of the pieces that are not hot are filed again, in one array
            part, cold, score = part.compress(on, axis=1), part.compress(~on, axis=1), score.compress(~on)
            pair.setdefault(score.max(), []).append((cold, score))
        at, c = part
        at = hot.searchsorted(at)  # slot in hot
        rounds += 1
        if floor is None:
            low = _each(_centre, rows[:4], c, at, mid)
            pairs += at.size
            sure = tally[2].take(hot)
            centre = sure + _tally(at, weight.take(c) * (low <= cutoff), h)
            if centre.max() >= top:
                stop, witness = "centre", tuple(mid[:, centre.argmax()].tolist())
                break
            if top == last:  # the top stalled: the vertex test, on the hot piece with the best centre
                cand = c.compress(at == centre.argmax())
                witness, n = _vertex(rows, weight, cand, at, c, b, sure, U, cutoff, top)
                pairs, work = pairs + n, work + n
                if witness is not None:
                    stop = "vertex"
                    break
        if work > MAX_WORK or not (inner | ~cut).all():
            stop, witness = "cap" if work > MAX_WORK else "float", None
            break
        # Every kid in one pass: quarter q of hot piece i is box q h + i of quarters.
        quarters = np.concatenate([b.reshape(4, h), mid, np.where(cut, mid, b[:, 1])])[_QUARTERS].reshape(2, 2, 4 * h)
        is_kid = is_kid.ravel()
        kid = (at + h * np.arange(4)[:, None]).ravel()
        on = is_kid[kid]
        kid, c = kid.compress(on), np.concatenate([c] * 4).compress(on)
        low, high = _each(_both, rows, c, kid, quarters)
        is_sure = high <= U
        keep = (low <= relaxed) & ~is_sure
        # Quarter 0 of each piece replaces it in place; the other kids are appended.
        rest = is_kid[h:]
        ids = np.concatenate([hot, tally.shape[1] - 1 + np.cumsum(rest)])
        pairs += 2 * kid.size
        new = tally.take(np.concatenate([hot] * 4), axis=1)  # owner, score and sure
        w = weight.take(c)
        new[1:] = new[2] + [_tally(kid, w * ok, 4 * h) for ok in (low <= cutoff, is_sure)]
        kept = kid.compress(keep)
        if kept.size:
            score = new[1, kept]
            pair.setdefault(score.max(), []).append((np.array([ids[kept], c.compress(keep)]), score))
        tally[:, hot], box[..., hot] = new[:, :h], quarters[..., :h]
        tally = np.concatenate([tally, new[:, h:].compress(rest, axis=1)], axis=1)
        box = np.concatenate([box, quarters[..., h:].compress(rest, axis=2)], axis=2)
        last = top

    np.maximum.at(counts, tally[0], tally[1])
    return counts, top, stop, witness, pairs, rounds


def count_bound(region: Rectangle, U: float, grid: tuple[int, int]) -> CountCertificate:
    """Certified uniform bound on N(z, U) = #{gamma : u(z, gamma z) <= U} over region.

    Subdivides region into grid = (nx, ny) cells and counts for each cell
    the candidates whose interval lower bound on u over the cell is at most
    cutoff = U (1 + 1e-6).  The candidates are drawn for cutoff, the
    threshold they are counted at, so a point counts the same over the
    candidates of any region that holds it.  The cells attaining the maximal
    count are then split, round after round, until a maximal piece counts as
    many matrices at its centre as over the whole piece (the maximum is
    attained there, so no refinement can lower it), a split would leave a
    float unchanged, or the refinement work would pass MAX_WORK.  A cell's
    count is the maximum over its pieces and the bound is twice the largest
    (gamma and -gamma give the same u).  A round splits each maximal piece,
    in one pass, across every side at least half as long as its longest: a
    near-square piece into four quarters, a long piece or a segment into two
    halves across its length, so that a 1x30 grid does not split its long
    cells into thin strips.  The bound does not depend on the rule: where
    the centre test ends the refinement, the bound is twice the count at a
    centre, and no piece counts fewer matrices than a point in it, so the
    bound is twice the largest count at a point of the region, however the
    pieces were split.  Only the counts of the cells that held a maximal
    piece can differ, each still an upper bound.

    Inverse pairs.  u(z, gamma^-1 z) = u(gamma z, z) = u(z, gamma z), as
    gamma is an isometry, so a matrix and its inverse count alike at every
    point.  The count keeps one of each pair (_inverse_pairs) and counts it
    with weight 2, or 1 where gamma is its own inverse up to sign (the
    identity, and trace 0, where gamma^2 = -1); below, the candidates are
    these representatives.  That counts every candidate once, as the
    candidate set is closed under inversion: the c >= 0 form of gamma^-1 is
    (-d, b, c, -a), and the range enumerate_candidates gives a at c is
    exactly minus that of d (the float ends and their slack negate exactly),
    and the translations by b and -b are both drawn.  It holds in floats,
    bit for bit: (-d, b, c, -a) has gamma's c, b and a - d and the trace
    -(a + d), of the same square, so its kernel rows (_rows) are gamma's,
    and both members get the same bits on every box and point; so do the
    translations by b and -b, as every kernel squares W - c y^2 = +-b.  So
    every count, split, top and stop is the one the full candidate set
    gives; the weights are summed wherever candidates are counted (the
    screen's sure and per-cell counts, the witness's count, the centre test,
    the kids' counts and the vertex test's crossings), in exact int64.  The member kept is the first in canonical
    order (a + d <= 0 for c > 0, b <= 0 for c = 0), so the vertex test meets
    the crossings of the full set where each first occurs there, in the same
    order.  `pairs`, the screen's open-pair cap and the refinement cap count
    evaluations, one per representative, about half as many; where that cap
    ends the refinement, the same budget refines further, so the bound can
    only fall: 60,810 against 60,948 at U = 4,999 on 40x40.

    The witness.  At U = WITNESS_U = 17, on a region that lies inside the
    truncated domain once moved (_centred below) and holds the float point
    nearest z* = COUNT_WITNESS or its mirror (_witness), the count T there,
    107 per sign, is taken first, as the centre test counts a point: the
    candidates sure on the screen's block that holds it, and those of the
    block's open candidates with _centre <= cutoff (a candidate that fails
    on the block fails there too).  Each round then splits every grid cell
    and piece that counts more than T, tests no centre, and the refinement
    stops as soon as none does.  The bound cannot move: T is a count at a
    point of the region and no piece counts fewer matrices than a point in
    it, so the top is at least T in every round and the refinement ends at
    top = T, the value the centre test reaches once no point counts more.
    T is the supremum there: sup N(z, 17) over the truncated domain is 214,
    attained on the arc |z|^2 = 2, the axis of (3 4; 2 3), where
    u(z, gamma z) = 17 + 2 (|z|^2 - 2)^2 / y^2 touches 17 for gamma and its
    inverse; z* = (-161 + 719i)/521 lies on the arc (verify's
    count_certificate_soundness counts 214 there exactly), and at its float
    point that pair has u within the margin of 17.  The proof never rests on
    T, as the bound is twice the largest count of a piece whatever the rule:
    were a point to count more than T at the cutoff, the pieces around it
    would stay above T until the float or cap exit, slower but still sound.
    Every grid tested, 1x1 to 900x900, ends at 214 either way.  Without the
    witness, the centre test waits for a centre within about 1e-3 of the arc.

    The vertex test.  Without a witness, the supremum sits where level sets
    u(z, gamma z) = U cross or touch: at U = 9 sixteen of them cross at i,
    at U = 5 the horocycles at the cusps 1 and -1 touch at
    (-1 + 2 sqrt(2) i)/3.  A centre counts it only within about 1e-6 of that
    point, 12 to 17 rounds of halving away.  But every level set is a circle
    or a line, as u - 1 = |cz^2 + (d - a)z - b|^2 / (2y^2) (_level_sets), so
    the crossings can be computed.  The wait shows as a top that stalls: in
    every round whose centre test fails and whose top is the previous
    round's, the hot piece with the best centre count is tested (_vertex):
    the crossings of its open candidates' level sets that lie in a hot piece
    are counted with the centre test's bits, and one that counts the top
    ends the refinement.
    The bound cannot move: the stop is the centre test's own proof, a float
    point of the region whose count is the top, and the split sequence is
    the same as without the test, so it can only end the refinement earlier,
    and no cell counts fewer than without it.  Its evaluations count in
    `pairs` and against the refinement cap.

    The certificate says how the refinement ended, in `stop`: "witness",
    "centre", "vertex", "float" (a split would leave a float unchanged) or
    "cap" (MAX_WORK); in `witness`, the point whose count the bound attains,
    in the caller's coordinates: the witness's float point, the centre or
    the crossing that reached the top; None after "float" or "cap"; and in
    `rounds`, the rounds of the refinement that split or tested pieces.  A
    one-point region stops at "centre" in its first round, at its own point.

    Candidates are settled on whole boxes from both sides.  The grid is cut
    into blocks of about 1.5 n^(1/3) cells a side on a grid side of n (see
    _block_side), the last one along a side possibly partial; block edges
    are grid nodes, so a block contains its cells exactly in floats, and a
    cell or piece contains its pieces.  Per candidate and block, and in the
    refinement per open candidate and kid of a piece, _low and _high decide,
    both from one pass (_both):

    * fail, when _low > relaxed = cutoff (1 + PRUNE_SLACK).  _low is the
      exact minimum of u over the box, so it is never above that of a cell
      or piece inside it, and the slack absorbs the rounding of both, so
      the candidate fails at cutoff on all of them;
    * sure, when _high <= U.  _high is the exact maximum of u over the box
      but for rounding, so that maximum is at most U plus a few ulps, and
      the float _low of any cell, piece or centre inside it is at most
      cutoff: the candidate counts there.  SAFE_MARGIN absorbs the rounding
      of _low, and that of _high, whose corner terms take _low's operations
      on the same |x|/y range.  A sure candidate is counted on every cell
      and every later piece of the box without another test;
    * open otherwise: tested on each cell of the block with _low.  A grid
      cell that becomes maximal starts with its block's sure count and open
      (block, candidate) pairs, found by binary search in the screen's
      sorted list, and keeps them as (piece, candidate) pairs.  A piece's
      centre and kids evaluate only its open candidates.

    Without a witness, each round tests the centres of the maximal pieces
    first, with u itself (_centre, the bits of _low on the point), and stops
    if one reaches the maximum, then runs the vertex test; only then does it
    stop at a float or at the cap, or test the kids, all in one pass, and
    keep the pairs still open on a kid under its piece.  So every count is
    the one a test of every candidate on every piece makes, and only the
    cells that a candidate's level set u = U crosses test it one by one.
    `pairs` counts each bound evaluated on one representative and box: two per
    pass of _both, one per centre and per crossing of the vertex test.  The
    refinement cap charges those crossings too and, per round, one centre
    and one test per kid for each hot piece and candidate, open or not.  A
    round costs a fixed number of numpy calls, whatever its numbers of
    pieces and pairs: the pieces keep their boxes in one array and their
    grid cell, count and sure count in another, the quarters of every hot
    piece come from one gather (_QUARTERS), the ones
    that are not kids of their piece masked out, so each gather, update and
    split is one call, and the grid is searched for cells to split only in
    rounds where a grid cell counts enough to be split.  The open pairs of
    the grid cells that become pieces in a round, and those of a round's
    kids, are kept in one array each, filed under the largest count of its
    pieces, so a round reads only the arrays that hold a piece it splits,
    joined, files their other pairs again in one array, and never scans the
    pairs of all the pieces.

    The result is a proof: every matrix with u <= U at some point of a
    piece has its lower bound there <= U, and the margin U 1e-6 absorbs the
    rounding of the bound (_low states it), a few ulps of U (1 + (x/y)^2),
    wherever |x|/y stays below about 1e4.  So the count runs on the region
    moved by n = round(its x midpoint) (_centred), where |x| is at most half
    its width plus 1/2, and holds on any region narrower than about 2e4 y_min.
    The certificate names the caller's region; its cells are the moved grid's.

    The mirror.  The reflection iota(z) = -conj(z) normalizes SL(2, Z):
    iota gamma iota is (a, -b; -c, d), whose c >= 0 representative is
    (-a, b, c, -d), so N(-conj(z), U) = N(z, U).  When the moved region has
    x_min == -x_max, the screen and the refinement run on the first
    ceil(nx/2) columns only, and column nx - 1 - i takes the counts of
    column i; for odd nx the middle column straddles x = 0 and is refined
    whole, both halves kept.  That holds in floats, bit for bit: the x
    nodes are exactly antisymmetric (_x_nodes); the candidate set is closed
    under the mirror, and where gamma has the kernel rows (_rows)
    (c, b, e, m0, xv, wv), its mirror has (c, b, -e, m0, -xv, wv), so its
    W(-x) has W(x)'s bits; _parts over (-X1, -X0) gives the same range, so
    _low, _high and _centre return the same bits on a cell and on its
    mirror, and the refinement splits them alike.  The mirror (-a, b, c, -d)
    of a representative is the inverse of another, (d, b, c, a), of the same
    trace and weight, with the same bits (Inverse pairs), so the weighted
    counts mirror too.  A region symmetric about a
    half-integer counts in full: there the mirror is x -> 1 - x, which does
    not round symmetrically.  The certificate is
    the one the full grid gives, and `pairs` counts the work done, about
    half.  _check_work still charges the full grid, so every refusal before
    enumeration is unchanged; the screen's open-pair cap and the refinement
    cap charge only the columns counted.  Where that cap ends the
    refinement (U in the thousands on the truncated domain), the same budget
    refines the counted columns further, so the bound is at most the full
    grid's: 60,810 against 60,948 at U = 4,999 on 40x40.
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
    rows, weight = _inverse_pairs(enumerate_candidates(centred, cutoff).columns)

    xs = _x_nodes(centred, nx)
    ys = np.linspace(centred.y_min, centred.y_max, ny + 1)
    mx = (nx + 1) // 2 if centred.x_min == -centred.x_max else nx  # columns counted; the rest mirror them
    side = (_block_side(nx), _block_side(ny))
    screen, witness = _screen(rows, weight, xs[: mx + 1], ys, side, U, cutoff, relaxed), _witness(centred, U)
    counts, top, stop, witness, pairs, rounds = _refine(rows, weight, xs, ys, side, screen, U, cutoff, relaxed,
                                                        witness)
    counts = counts.reshape(mx, ny)
    return CountCertificate(
        region=region,
        U=U,
        grid=(nx, ny),
        per_cell_counts=np.concatenate([counts, counts[: nx - mx][::-1]]),
        bound=2 * int(top),
        pairs=pairs,
        stop=stop,
        witness=None if witness is None else (witness[0] + round(region.x_min - centred.x_min), witness[1]),
        rounds=rounds,
    )


def enumerate_group_elements(
    z: UpperHalfPoint, w: UpperHalfPoint, U: float
) -> Iterator[tuple[UnimodularMatrix, float]]:
    """Yield sign-representatives gamma with u(z, gamma w) <= U, and the value.

    Orbit enumeration: for c = 0 the images are w + b; for c > 0 and each coprime pair (c, d) in
    range, the solutions (a, b) of ad - bc = 1 form a line gamma_t w = gamma_0 w + t, walked by
    translation from one mobius_apply over an interval of t; a matrix is built only to be yielded
    or decided.  The coordinates may be floats or exact (Fractions): the walk runs on float copies
    of z and w, and a value within TIE_MARGIN of U (a tie such as u(i, gamma i) = 3 can round to
    either side) is decided by point_u of mobius_apply on the coordinates given, as Fractions, so
    on exact coordinates the count is exact; the value yielded is then at most U.  Float inputs
    are their own copies.
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
    zf, wf = (UpperHalfPoint(float(p.x), float(p.y)) for p in (z, w))  # the float path's copies
    rho = U + math.sqrt(U * U - 1.0)
    c_max = math.sqrt(rho / (zf.y * wf.y))
    q_max = math.sqrt(wf.y * rho / zf.y)
    work = (c_max + 1.0) * (2.0 * q_max + 3.0)
    if not (work <= MAX_WORK):
        raise ValueError(
            f"orbit enumeration at U = {U:g} for heights {zf.y:g}, {wf.y:g} is estimated at "
            f"{work:.3g} steps, above the cap {MAX_WORK}; lower U"
        )

    def _yield_range(c: int, d: int, a0: int, b0: int) -> Iterator[tuple[UnimodularMatrix, float]]:
        base = mobius_apply(UnimodularMatrix(a0, b0, c, d), wf)
        disc = 2.0 * zf.y * base.y * (U - 1.0) - (zf.y - base.y) ** 2
        if disc < -TIE_MARGIN * zf.y * base.y * U:
            return
        r = math.sqrt(max(disc, 0.0))
        center = zf.x - base.x
        for t in _int_range(center - r - 1.0, center + r + 1.0):
            value = point_u(zf, UpperHalfPoint(base.x + t, base.y))  # gamma_t w = gamma_0 w + t
            if abs(value - U) <= TIE_MARGIN * U:  # a near tie: decide it exactly, on Fractions
                from fractions import Fraction  # on first use: ties are rare, the import costs 2 ms and 0.4 MB

                gamma = UnimodularMatrix(a0 + t * c, b0 + t * d, c, d)
                exact_z, exact_w = (UpperHalfPoint(Fraction(p.x), Fraction(p.y)) for p in (z, w))
                if point_u(exact_z, mobius_apply(gamma, exact_w)) <= U:
                    yield gamma, min(value, U)
            elif value <= U:
                yield UnimodularMatrix(a0 + t * c, b0 + t * d, c, d), value

    # Translations: u(z, w + b) <= U.
    yield from _yield_range(0, 1, 1, 0)

    for c in _int_range(1.0, c_max + 1.0):
        for d in _int_range(-q_max - c * wf.x - 1.0, q_max - c * wf.x + 1.0):
            if math.gcd(c, abs(d)) != 1:
                continue
            a0 = pow(d % c, -1, c) if c > 1 else 0
            b0 = (a0 * d - 1) // c
            yield from _yield_range(c, d, a0, b0)


def exact_count(z: UpperHalfPoint, w: UpperHalfPoint, U: float) -> int:
    """#{gamma in SL(2, Z), both signs, with u(z, gamma w) <= U}.

    Twice the representative count: gamma and -gamma give the same u.
    Always even; >= 2 for U >= 1 when z = w (the identity pair).  Exact on exact
    (Fraction) coordinates, where enumerate_group_elements decides ties in Fractions.
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
