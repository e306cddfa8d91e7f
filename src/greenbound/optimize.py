"""Derivative-free tuning of the certificate parameters.

A = -q_plus - D_plus S N_bar depends only on delta and the plus side
(alpha_plus, beta_plus, sigma_plus), and B = -q_minus + D_minus S N_bar only
on delta and the minus side.  delta stays at the seed's and every constraint
(the beta_minus cap, the sigma window) touches one side, so the width B - A
and max(|A|, |B|) are both minimized by minimizing -A and B separately: the
search is one coordinate descent on the plus side, then one on the minus side.

The parameters enter the bounds through closed forms and through quadrature,
so no gradients are available.  Each descent works in log-space: each of its
three coordinates is scaled up or down by a multiplicative step, infeasible
candidates are projected back onto the constraint set where a projection is
canonical (the beta_minus cap and the sigma window) and skipped otherwise,
and a coordinate's step shrinks whenever neither direction improves.  A side
stops once its three steps are all below STEP_FLOOR, or after max_iters - 1
sweeps.  Deterministic by construction: no randomness, strict-improvement
moves, fixed coordinate order.

The D enclosures dominate the cost.  Candidates are scored by assemble, and
each side's enclosures, fine and coarse, are memoized process-wide by bounds
on that side's exact floats (delta, sigma, alpha, beta), so the side not being
searched is enclosed once, a step that lands on the same floats again reuses
the enclosure, a later search in the same process that retraces a path (the
same seed with fewer or as many iterations) encloses nothing anew, and each
reported D was enclosed at its own parameters.  Each candidate is screened
first: D_floor, the lower end of its D enclosure on a coarse grid, is a proved
lower bound on D, so in assemble's end formula (certificate_end) it scores no
worse than the fine upper end, rounding being monotone.  If it already reaches
the score to beat, the candidate could not be taken and is skipped unenclosed.
A skip therefore never drops a candidate that would have won, whether or not
its fine enclosure is already memoized, and the result is the unscreened
search's to the last bit.
"""

from __future__ import annotations

import math

from greenbound.bounds import (
    BoundReport,
    D_floor,
    GroupContext,
    ParamSet,
    assemble,
    certificate_end,
    compute_q,
    sigma_ceiling,
    spectral_factor,
    validate,
)
from greenbound.errors import ConstraintViolation, NonConvergenceError
from greenbound.transforms import beta_minus_cap

INITIAL_STEP = 1.3  # starting multiplicative step for every coordinate
STEP_FLOOR = 1e-3  # a side stops once each of its relative steps is below this
STEP_SHRINK = 0.7  # a coordinate's step is multiplied by this when neither direction improves
_SIDES = (
    (+1, ("alpha_plus", "beta_plus", "sigma_plus")),
    (-1, ("alpha_minus", "beta_minus", "sigma_minus")),
)
_BETA_CAP_MARGIN = 1.0 - 1e-9
_SIGMA_FLOOR_REL = 1e-6


def _make_params(values: dict[str, float], sigma_max: float) -> ParamSet:
    """Project the raw parameter record (ParamSet.record) onto the feasible set and build a ParamSet.

    beta_minus is clipped just below its cap, and each sigma is clipped into
    (alpha, sigma_max].  Anything still infeasible (for example alpha at or
    above sigma_max) surfaces as a ConstraintViolation from the constructors.
    """
    v = dict(values)
    v["beta_minus"] = min(v["beta_minus"], _BETA_CAP_MARGIN * beta_minus_cap(v["delta"], v["alpha_minus"]))
    for side in ("plus", "minus"):
        alpha = v[f"alpha_{side}"]
        floor = alpha * (1.0 + _SIGMA_FLOOR_REL)
        v[f"sigma_{side}"] = min(max(v[f"sigma_{side}"], floor), sigma_max)
    return ParamSet.from_record(v)


def search(seed: ParamSet, ctx: GroupContext, N_bar: float, max_iters: int) -> tuple[ParamSet, BoundReport]:
    """Minimize -A over the plus side from the seed, then B over the minus side.

    The seed evaluation counts as the first iteration, so max_iters = 1
    returns the validated seed without moving; max_iters < 1 and a seed that
    fails validation against ctx raise ConstraintViolation.  Candidates that
    violate a constraint after projection, or whose enclosure is too wide,
    are skipped, so neither -A nor B ever exceeds the seed's.
    """
    if max_iters < 1:
        raise ConstraintViolation(f"max_iters must be at least 1, got {max_iters}")
    try:
        validate(seed, ctx)
    except ConstraintViolation as exc:
        raise ConstraintViolation(f"seed parameters are invalid: {exc}") from exc
    sigma_max = sigma_ceiling(ctx.eta)
    factor = spectral_factor(ctx.eta, include_phi_constant=True)

    def screened(params: ParamSet, sign: int, bar: float) -> bool:
        end = certificate_end(compute_q(params, ctx)[0 if sign > 0 else 1], D_floor(params, sign), factor, N_bar, sign)
        return (-end if sign > 0 else end) >= bar

    current, report = seed, assemble(seed, ctx, N_bar)
    step_floor = math.log1p(STEP_FLOOR)
    for sign, names in _SIDES:
        score = -report.A if sign > 0 else report.B
        steps = dict.fromkeys(names, math.log(INITIAL_STEP))
        for _ in range(max_iters - 1):
            if all(step < step_floor for step in steps.values()):
                break
            for name in names:
                best = None
                for direction in (1.0, -1.0):
                    values = current.record()
                    values[name] *= math.exp(direction * steps[name])
                    try:
                        candidate = _make_params(values, sigma_max)
                        if screened(candidate, sign, score if best is None else best[0]):
                            continue
                        candidate_report = assemble(candidate, ctx, N_bar)
                    except (ConstraintViolation, NonConvergenceError):
                        continue
                    candidate_score = -candidate_report.A if sign > 0 else candidate_report.B
                    if candidate_score < score and (best is None or candidate_score < best[0]):
                        best = (candidate_score, candidate, candidate_report)
                if best is None:
                    steps[name] *= STEP_SHRINK
                else:
                    score, current, report = best
    return current, report
