"""Adaptive Clenshaw-Curtis quadrature, the one engine of the numeric pipeline.

_integrate refines any number of intervals at once, integrate takes one finite
interval, and integrate_to_infinity marches over octaves against a caller's
analytic tail bound; the averaged transforms I_delta_pm are its one caller (the
majorant integrals D_pm are enclosed by greenbound.bounds.enclose_D).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from greenbound.errors import NonConvergenceError

# Abscissas per integrand call.  Batches of _MAX_POINTS // 17 panels bound
# the integrand's temporaries and, refined depth-first, the open panels.
_MAX_POINTS = 1024
# Octaves in integrate_to_infinity's first engine call.  Their mass predicts
# how far the second call must reach; a march that stops inside this block
# integrates up to _BLOCK_OCTAVES - 1 octaves past its stop.
_BLOCK_OCTAVES = 16


def _cc_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [-1, 1] at the nodes cos(k pi / n), k = 0..n, n even."""
    j, k = np.arange(1, n // 2 + 1)[:, None], np.arange(n + 1)
    b = np.where(2 * j == n, 1.0, 2.0) / (4.0 * j * j - 1.0)
    w = 1.0 - np.sum(b * np.cos(2.0 * np.pi * j * k / n), axis=0)
    return w * np.where(k % n == 0, 1.0, 2.0) / n


# Nodes in increasing order, -1, 0 and 1 exact; the weights are symmetric.
_NODES = np.sin(np.pi * np.arange(-8, 9) / 16)
_W17 = _cc_weights(16)
_W17_MINUS_W9 = _W17 - np.insert(_cc_weights(8), np.arange(1, 9), 0.0)


def _eval(f: Callable, x: np.ndarray) -> np.ndarray:
    return np.concatenate([f(x[i : i + _MAX_POINTS]) for i in range(0, x.size, _MAX_POINTS)])


def _pop(stack: list[np.ndarray]) -> np.ndarray:
    """Up to _MAX_POINTS // 17 of the newest, so deepest, panels off the stack."""
    room, batch = _MAX_POINTS // _NODES.size, []
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
    relative to the interval's first-pass CC17 of |f|, floored at 1e-300.
    f maps a 1-D float array to a real or complex array of its shape,
    elementwise.  A panel is sampled at the 17 nodes cos(k pi / 16), both
    ends included.  Its value is the Clenshaw-Curtis sum CC17, its error
    estimate |CC17 - CC9|, CC9 taking every other node.  It is accepted when
    that estimate is at most tol; else it is split at its midpoint, tol
    halves, and a panel 60 splits deep raises NonConvergenceError, as a tol
    below the integrand's rounding noise does.  The rule is closed, so a kink
    between an end and the next node still shows in the estimate.
    Acceptance is per panel, so the tree is that of the textbook recursion
    in any order of refinement.  The first pass evaluates every interval;
    after it the open panels are refined depth-first in batches of
    _MAX_POINTS // 17, which bounds the abscissas of each integrand call and
    the open set.
    """
    k = a.size
    # One column per open panel: a, b, tol, depth, interval index.
    batch = np.array([a, b, np.full(k, float(tol)), np.zeros(k), np.arange(k)])
    stack, total = [], None  # total is made on the first pass, in the integrand's dtype
    while True:
        a, b, tol, depth, owner = batch
        if depth.max() >= 60:  # the depth limit of the textbook recursion
            i = depth.argmax()
            raise NonConvergenceError(f"adaptive quadrature hit max depth on [{a[i]}, {b[i]}]")
        # Halving each end before adding gives the same bits as 0.5 * (a + b)
        # but does not overflow on an interval whose ends sum past the largest float.
        m, h = 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a
        x = m[:, None] + h[:, None] * _NODES
        x[:, 0], x[:, -1] = a, b
        y = _eval(f, x.ravel()).reshape(x.shape)
        if total is None:
            total = np.zeros(k, dtype=y.dtype)
            if relative:
                tol = tol * np.maximum(h * (np.abs(y) @ _W17), 1e-300)
        ok = np.abs(h * (y @ _W17_MINUS_W9)) <= tol
        np.add.at(total, owner[ok].astype(int), (h * (y @ _W17))[ok])
        if not ok.all():
            half, deeper = 0.5 * tol, depth + 1.0
            stack.append(np.array([a, m, half, deeper, owner])[:, ~ok])
            stack.append(np.array([m, b, half, deeper, owner])[:, ~ok])
        if not stack:
            return total.tolist()
        batch = _pop(stack)


def integrate(f: Callable, a: float, b: float, abs_tol: float) -> float | complex:
    """Integrate f over [a, b] to abs_tol; NonConvergenceError if rounding noise exceeds it."""
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
    size, the first pass's CC17 of |f| over it.  If the march goes on, the
    mass only grows, so it stops at the latest at the first octave top M_k
    with tail_bound(M_k) <= rel_tol times the first block's mass; the n
    octaves up to M_k (or up to overflow) take the second call, each to the
    absolute tolerance rel_tol times that mass over n.  Nothing past M_k is
    integrated.  Returns (value over [a, M], tail_bound(M)); the caller
    decides whether the tail belongs in the value or only in the error budget.
    That budget: each first-block octave to rel_tol of its own size, the far
    octaves together to rel_tol times the first block's mass, and the tail bound.
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
