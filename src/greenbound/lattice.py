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

Per cell, the minimum of u over (x, y) uses the exact inner minimum in y
(closed form y* = sqrt(|W|/|c|) clamped to the cell, W(x) = b + (a-d)x -
cx^2) and multistart golden-section in x with absolute tolerance 1e-10,
started from the cell edges and midpoint.  The counting decision per
(matrix, cell) is accelerated by an interval lower bound on u (to discard)
and by the three golden-section start values (to accept); both shortcuts
reproduce exactly the decision the golden-section minimum would make.

Before enumerating anything, enumerate_candidates and count_bound estimate
their work in closed form and raise ValueError above MAX_WORK, so a region
reaching towards the real axis or a huge grid fails at once instead of
running for hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
GOLDEN_X_TOL = 1e-10  # absolute x tolerance of the golden-section search
SAFE_MARGIN = 1e-6  # relative inclusion margin on the count threshold
# Cap on the estimated (c, a, d) triples of the candidate loop and cells x
# candidates of the grid screen: 400x400 cells at U = 17 on the truncated
# domain estimate 1.3e8 and take about 15 s on 2 cores.
MAX_WORK = 2**28

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CandidateSet:
    """Sign-representatives that could satisfy min over R of u(z, gamma z) <= U.

    matrices[i] has min_u[i] = estimated min of u(z, matrices[i] z) over the
    rectangle.  Representatives are normalized to c > 0, or c = 0 with
    a = d = 1; no two entries are negatives of each other.
    """

    region: Rectangle
    U: float
    matrices: tuple[UnimodularMatrix, ...]
    min_u: tuple[float, ...]


@dataclass(frozen=True)
class CountCertificate:
    """Grid certificate: bound >= 2 max cell count >= sup over R of N(z, U)."""

    region: Rectangle
    U: float
    grid: tuple[int, int]
    per_cell_counts: tuple[tuple[int, ...], ...]
    bound: int

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
    in closed form (harmonic sum <= 1 + log C).  NaN or infinity is refused.
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
    work = loop + cells * candidates
    if not (work <= MAX_WORK):
        raise ValueError(
            f"counting on [{region.x_min:g}, {region.x_max:g}] x "
            f"[{region.y_min:g}, {region.y_max:g}] at U = {U:g} with {cells} cells "
            f"is estimated at {work:.3g} steps, above the cap {MAX_WORK}; "
            "shrink the region, U or the grid"
        )


def _min_u_in_y(a: float, b: float, c: float, d: float, x: float, y_lo: float, y_hi: float) -> float:
    """min over y in [y_lo, y_hi] of u(x + iy, gamma(x + iy)) at fixed x.

    The y-dependent part W^2/y^2 + c^2 y^2 has unconstrained minimizer
    y* = sqrt(|W|/|c|); the minimum sits at the clamp of y* for c != 0 and
    at y_hi for c = 0.
    """
    t1 = a - c * x
    t4 = d + c * x
    w = b + (a - d) * x - c * x * x
    if c == 0.0:
        yc = y_hi
    else:
        ystar = math.sqrt(abs(w) / c)
        yc = y_lo if ystar < y_lo else (y_hi if ystar > y_hi else ystar)
    return 0.5 * (t1 * t1 + (w / yc) ** 2 + (c * yc) ** 2 + t4 * t4)


def _golden_min(g, lo: float, hi: float) -> float:
    if hi - lo <= GOLDEN_X_TOL:
        return min(g(lo), g(0.5 * (lo + hi)), g(hi))
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = g(x1)
    f2 = g(x2)
    best = f1 if f1 < f2 else f2
    while hi - lo > GOLDEN_X_TOL:
        if f1 <= f2:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = g(x1)
        else:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = g(x2)
        if f1 < best:
            best = f1
        if f2 < best:
            best = f2
    return best


def min_u_over_rect(gamma: UnimodularMatrix, region: Rectangle) -> float:
    """Estimated min over z in region of u(z, gamma z).

    Exact in y at each x; multistart golden-section in x (full interval plus
    both halves, all three start abscissas evaluated directly).
    """
    a, b, c, d = (float(gamma.a), float(gamma.b), float(gamma.c), float(gamma.d))
    if c < 0.0 or (c == 0.0 and a < 0.0):
        a, b, c, d = -a, -b, -c, -d  # u is sign-invariant; normalize for y*
    y_lo, y_hi = region.y_min, region.y_max

    def g(x: float) -> float:
        return _min_u_in_y(a, b, c, d, x, y_lo, y_hi)

    x_lo, x_hi = region.x_min, region.x_max
    if x_lo == x_hi:
        return g(x_lo)
    mid = 0.5 * (x_lo + x_hi)
    best = min(g(x_lo), g(mid), g(x_hi))
    for lo, hi in ((x_lo, x_hi), (x_lo, mid), (mid, x_hi)):
        value = _golden_min(g, lo, hi)
        if value < best:
            best = value
    return best


def enumerate_candidates(region: Rectangle, U: float) -> CandidateSet:
    """All sign-representatives whose displacement could be <= U somewhere on region.

    Returned in canonical order: translations by increasing b, then c > 0
    sorted by (c, a, d).  Each entry carries its min_u_over_rect estimate;
    the set is a superset of the matrices any sub-rectangle of region can
    count for the same U.
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
    min_u = tuple(min_u_over_rect(m, region) for m in matrices)
    return CandidateSet(region=region, U=U, matrices=tuple(matrices), min_u=min_u)


def _cell_pass(a, b, c, d, X0, XM, X1, Y0, Y1, cutoff):
    """Vectorized per-cell screen for one candidate.

    Returns (accept, ambiguous) boolean grids: accept cells have one of the
    three golden-section start values already <= cutoff; ambiguous cells
    cannot be decided by the interval lower bound either.
    """
    best = None
    for X in (X0, XM, X1):
        t1 = a - c * X
        t4 = d + c * X
        w = b + (a - d) * X - c * X * X
        if c == 0.0:
            yc = np.broadcast_to(Y1, np.broadcast_shapes(X.shape, Y1.shape))
        else:
            ystar = np.sqrt(np.abs(w) / c)
            yc = np.clip(ystar, Y0, Y1)
        g = 0.5 * (t1 * t1 + (w / yc) ** 2 + (c * yc) ** 2 + t4 * t4)
        best = g if best is None else np.minimum(best, g)
    accept = best <= cutoff

    # Interval lower bound on u over the cell.
    e1a = a - c * X1
    e1b = a - c * X0
    lo1 = np.where(e1a * e1b <= 0.0, 0.0, np.minimum(e1a * e1a, e1b * e1b))
    e4a = d + c * X0
    e4b = d + c * X1
    lo4 = np.where(e4a * e4b <= 0.0, 0.0, np.minimum(e4a * e4a, e4b * e4b))
    w0 = b + (a - d) * X0 - c * X0 * X0
    w1 = b + (a - d) * X1 - c * X1 * X1
    # W is concave in x (coefficient -c <= 0): its minimum over the cell is
    # the endpoint minimum, but its maximum may sit at the interior vertex.
    w_lo = np.minimum(w0, w1)
    w_hi = np.maximum(w0, w1)
    if c > 0.0:
        xv = (a - d) / (2.0 * c)
        wv = b + (a - d) * xv - c * xv * xv
        w_hi = np.where((X0 <= xv) & (xv <= X1), np.maximum(w_hi, wv), w_hi)
        w_hi = np.broadcast_to(w_hi, w_lo.shape)
    w_abs = np.where(w_lo * w_hi <= 0.0, 0.0, np.minimum(np.abs(w_lo), np.abs(w_hi)))
    if c == 0.0:
        ypart = (w_abs / Y1) ** 2
    else:
        ystar = np.sqrt(w_abs / c)
        yc = np.clip(ystar, Y0, Y1)
        ypart = (w_abs / yc) ** 2 + (c * yc) ** 2
    lower = 0.5 * (lo1 + lo4 + ypart)
    ambiguous = ~accept & (lower <= cutoff)
    return accept, ambiguous


def count_bound(region: Rectangle, U: float, grid: tuple[int, int]) -> CountCertificate:
    """Certified uniform bound on N(z, U) = #{gamma : u(z, gamma z) <= U} over region.

    Subdivides region into grid = (nx, ny) cells.  A representative is
    counted for a cell when its estimated min_u over the cell is at most
    U (1 + 1e-6); the certificate bound is twice the maximal cell count.
    """
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid}")
    if not (U >= 1.0):
        raise ValueError(f"count_bound requires U >= 1, got U = {U}")
    _check_work(region, U, nx * ny)
    cutoff = U * (1.0 + SAFE_MARGIN)
    candidates = enumerate_candidates(region, U)

    xs = np.linspace(region.x_min, region.x_max, nx + 1)
    ys = np.linspace(region.y_min, region.y_max, ny + 1)
    X0 = xs[:-1][:, None]
    X1 = xs[1:][:, None]
    XM = 0.5 * (X0 + X1)
    Y0 = ys[:-1][None, :]
    Y1 = ys[1:][None, :]

    counts = np.zeros((nx, ny), dtype=np.int64)
    ambiguous_jobs: list[tuple[UnimodularMatrix, int, int]] = []
    for m in candidates.matrices:
        a, b, c, d = (float(m.a), float(m.b), float(m.c), float(m.d))
        accept, ambiguous = _cell_pass(a, b, c, d, X0, XM, X1, Y0, Y1, cutoff)
        counts += accept
        for ix, iy in zip(*np.nonzero(ambiguous)):
            ambiguous_jobs.append((m, int(ix), int(iy)))

    for m, ix, iy in ambiguous_jobs:
        cell = Rectangle(float(xs[ix]), float(xs[ix + 1]), float(ys[iy]), float(ys[iy + 1]))
        if min_u_over_rect(m, cell) <= cutoff:
            counts[ix, iy] += 1

    per_cell = tuple(tuple(int(v) for v in row) for row in counts)
    return CountCertificate(
        region=region,
        U=U,
        grid=(nx, ny),
        per_cell_counts=per_cell,
        bound=2 * int(counts.max()),
    )


def enumerate_group_elements(
    z: UpperHalfPoint, w: UpperHalfPoint, U: float
) -> Iterator[tuple[UnimodularMatrix, float]]:
    """Yield sign-representatives gamma with u(z, gamma w) <= U, and the value.

    Orbit enumeration: for c = 0 the images are w + b; for c > 0 and each
    coprime pair (c, d) in range, the solutions (a, b) of ad - bc = 1 form a
    line gamma_t w = gamma_0 w + t, so t runs over an interval.  Every
    candidate is verified against point_u directly before being yielded.
    """
    if not (U >= 1.0):
        raise ValueError(f"enumerate_group_elements requires U >= 1, got U = {U}")
    rho = U + math.sqrt(U * U - 1.0)

    def _yield_range(c: int, d: int, a0: int, b0: int) -> Iterator[tuple[UnimodularMatrix, float]]:
        base = mobius_apply(UnimodularMatrix(a0, b0, c, d), w)
        disc = 2.0 * z.y * base.y * (U - 1.0) - (z.y - base.y) ** 2
        if disc < 0.0:
            return
        r = math.sqrt(disc)
        center = z.x - base.x
        for t in _int_range(center - r - 1.0, center + r + 1.0):
            gamma = UnimodularMatrix(a0 + t * c, b0 + t * d, c, d)
            value = point_u(z, mobius_apply(gamma, w))
            if value <= U:
                yield gamma, value

    # Translations: u(z, w + b) <= U.
    yield from _yield_range(0, 1, 1, 0)

    c_max = math.sqrt(rho / (z.y * w.y))
    q_max = math.sqrt(w.y * rho / z.y)
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
