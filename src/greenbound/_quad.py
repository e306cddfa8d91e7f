"""Adaptive Simpson quadrature used throughout the numeric pipeline.

One routine, `_integrate`, refines any number of intervals at once.  A panel
is split at its quarter points and accepted when its halves agree with the
whole to 15 tol, with the Richardson correction added; tol halves on each
split, and a panel 60 splits deep raises NonConvergenceError.  Acceptance is
decided per panel, so the tree is that of the textbook recursion in any
order of refinement.  The first pass evaluates every interval's ends,
midpoint and quarter points together; after it the open panels are refined
depth-first in batches, which bounds the abscissas of each integrand call
and the open set.  Integrands map a 1-D float array to a real or complex
array of its shape, elementwise.

Improper integrals over [a, infinity) march over octaves [M, 2M] and stop
once a caller-supplied analytic bound on the remaining tail drops below the
requested tolerance; the averaged transforms I_delta_pm are the one caller
(the majorant integrals D_pm are enclosed by greenbound.bounds.enclose_D).
The march takes at most two engine calls: a first block of octaves, then
every octave up to the last one where, by the mass of that block alone, the
stop rule must fire.  Its error budget: each first-block octave to tol of its
own size, the far octaves together to tol times the first block's mass, and
the tail bound, which the caller keeps out of the value.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from greenbound.errors import NonConvergenceError

# Abscissas per integrand call.  Batches of half as many panels bound the
# integrand's temporaries and, refined depth-first, the open panels.
_MAX_POINTS = 1024
# Octaves in integrate_to_infinity's first engine call.  Their mass predicts
# how far the second call must reach; a march that stops inside this block
# integrates up to _BLOCK_OCTAVES - 1 octaves past its stop.
_BLOCK_OCTAVES = 16


def _simpson(fa, fm, fb, h):
    return h * (fa + 4.0 * fm + fb) / 6.0


def _eval(f: Callable, x: np.ndarray) -> np.ndarray:
    return np.concatenate([f(x[i : i + _MAX_POINTS]) for i in range(0, x.size, _MAX_POINTS)])


def _pop(stack: list[np.ndarray]) -> np.ndarray:
    """Up to _MAX_POINTS // 2 of the newest, so deepest, panels off the stack."""
    room, batch = _MAX_POINTS // 2, []
    while stack and room:
        top = stack.pop()
        if top.shape[1] > room:
            stack.append(top[:, :-room])
            top = top[:, -room:]
        batch.append(top)
        room -= top.shape[1]
    return np.concatenate(batch, axis=1)


def _integrate(f: Callable, a: np.ndarray, b: np.ndarray, tol: float, relative=False) -> list:
    """Integrals of f over the intervals [a[i], b[i]], a < b, in order.

    tol is each interval's absolute tolerance; with relative=True it is
    relative to the size of a 16-panel Simpson pass over the interval,
    floored at 1e-300.
    """
    k = a.size
    # Halving each end before adding gives the same bits as 0.5 * (a + b)
    # but does not overflow on an interval whose ends sum past the largest float.
    m = 0.5 * a + 0.5 * b
    x = [a, m, b, 0.5 * a + 0.5 * m, 0.5 * m + 0.5 * b]
    if relative:
        h = ((b - a) / 16)[:, None]
        x0 = a[:, None] + np.arange(16) * h
        x += [x0.ravel(), (x0 + 0.5 * h).ravel(), (x0 + h).ravel()]
    y = _eval(f, np.concatenate(x))
    fa, fm, fb, *quarters = y[: 5 * k].reshape(5, k)
    tol = np.full(k, float(tol))
    if relative:
        coarse = 0.0
        for panel in _simpson(*y[5 * k :].reshape(3, k, 16), h).T:
            coarse = coarse + panel
        tol *= np.maximum(np.abs(coarse), 1e-300)
    # One column per open panel, in the integrand's dtype: a, b, f(a),
    # f(mid), f(b), Simpson estimate, tol, depth, interval index.  The first
    # batch is every interval, its quarter points evaluated with the rest.
    whole = _simpson(fa, fm, fb, b - a)
    batch = np.array([a, b, fa, fm, fb, whole, tol, np.zeros(k), np.arange(k)])
    stack = []
    sums = []  # per batch, the sum of its accepted panels on each interval
    while True:
        a, b, fa, fm, fb, whole, tol, depth, owner = batch
        a, b, tol, depth = a.real, b.real, tol.real, depth.real
        if depth.max() >= 60:  # the depth limit of the textbook recursion
            i = depth.argmax()
            raise NonConvergenceError(f"adaptive Simpson hit max depth on [{a[i]}, {b[i]}]")
        m = 0.5 * a + 0.5 * b
        if quarters is None:
            quarters = _eval(f, np.concatenate([0.5 * a + 0.5 * m, 0.5 * m + 0.5 * b])).reshape(2, -1)
        flm, frm = quarters
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        err = left + right - whole
        ok = np.abs(err) <= 15.0 * tol
        sums.append(np.zeros(k, dtype=y.dtype))
        np.add.at(sums[-1], owner.real[ok].astype(int), (left + right + err / 15.0)[ok])
        if not ok.all():
            half, deeper = 0.5 * tol, depth + 1.0
            stack.append(np.array([a, m, fa, flm, fm, left, half, deeper, owner])[:, ~ok])
            stack.append(np.array([m, b, fm, frm, fb, right, half, deeper, owner])[:, ~ok])
        if not stack:
            return np.sum(sums, axis=0).tolist()
        batch, quarters = _pop(stack), None


def integrate(f: Callable, a: float, b: float, abs_tol: float) -> float | complex:
    """Integrate f over [a, b] to absolute tolerance abs_tol."""
    if not (b >= a):
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0
    return _integrate(f, np.array([a], float), np.array([b], float), abs_tol)[0]


def integrate_to_infinity(
    f: Callable, a: float, tail_bound: Callable[[float], float], rel_tol: float
) -> tuple[float, float]:
    """Integrate f over [a, infinity) against an analytic tail majorant.

    tail_bound(M) must dominate |integral of f over [M, infinity)| and decay
    to 0.  Octaves [M, 2M] are summed until tail_bound(M) <= rel_tol times
    the accumulated absolute mass (floored at 1e-300).  The first
    _BLOCK_OCTAVES octaves take one engine call, each to rel_tol of its own
    16-panel Simpson size.  If the march goes on, the mass only grows, so it
    stops at the latest at the first octave top M_k with tail_bound(M_k) <=
    rel_tol times the first block's mass; the n octaves up to M_k (or up to
    overflow) take the second call, each to the absolute tolerance rel_tol
    times that mass over n.  Nothing past M_k is integrated.  Returns (value
    over [a, M], tail_bound(M)); the caller decides whether the tail belongs
    in the value or only in the error budget.
    """
    total = mass = 0.0
    lo, hi = a, (2.0 * a if a > 0 else 1.0)
    tops = []  # octave tops for the next engine call
    while math.isfinite(hi) and len(tops) < _BLOCK_OCTAVES:
        tops.append(hi)
        hi *= 2.0
    bounds = [tail_bound(top) for top in tops]
    tol, relative = rel_tol, True
    while tops:
        pieces = _integrate(f, np.array([lo, *tops[:-1]]), np.array(tops), tol, relative)
        for piece, bound in zip(pieces, bounds):
            total += piece
            mass += abs(piece)
            if bound <= rel_tol * max(mass, 1e-300):
                return total, bound
        floor = rel_tol * max(mass, 1e-300)
        lo, tops, bounds = tops[-1], [], []
        while math.isfinite(hi) and not (bounds and bounds[-1] <= floor):
            tops.append(hi)
            bounds.append(tail_bound(hi))
            hi *= 2.0
        tol, relative = floor / max(len(tops), 1), False
    raise NonConvergenceError("tail bound cannot reach tolerance on [a, infinity)")
