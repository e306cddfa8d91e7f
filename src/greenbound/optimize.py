"""Derivative-free tuning of the certificate parameters.

The six free parameters (alpha_plus, beta_plus, sigma_plus, alpha_minus,
beta_minus, sigma_minus) enter the bounds through closed forms and through
quadrature, so no gradients are available.  The search is plain coordinate
descent in log-space: each coordinate is scaled up or down by a
multiplicative step, infeasible candidates are projected back onto the
constraint set where a projection is canonical (the beta_minus cap and the
sigma window) and skipped otherwise, and the per-coordinate step shrinks
whenever neither direction improves the objective.  Deterministic by
construction: no randomness, strict-improvement moves, fixed coordinate
order.

The majorant integrals dominate the cost, so they are memoized per sign on
the parameters they actually depend on; stepping a plus-side coordinate
never recomputes the minus-side integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from greenbound.bounds import (
    BoundReport,
    GroupContext,
    ParamSet,
    _enclose_one_sign,
    _side,
    _upper_end,
    assemble,
    sigma_ceiling,
    validate,
)
from greenbound.errors import ConstraintViolation, NonConvergenceError
from greenbound.transforms import TrapezoidParams

INITIAL_STEP = 1.3  # starting multiplicative step for every coordinate
STEP_FLOOR = 1e-3  # stop once every relative step is below this
STEP_SHRINK = 0.7  # a coordinate's step is multiplied by this when neither direction improves
_OBJECTIVES = ("width", "max-abs")
_COORDINATES = (
    "alpha_plus",
    "beta_plus",
    "sigma_plus",
    "alpha_minus",
    "beta_minus",
    "sigma_minus",
)
_BETA_CAP_MARGIN = 1.0 - 1e-9
_SIGMA_FLOOR_REL = 1e-6
_KEY_DIGITS = 12


@dataclass(frozen=True)
class SearchConfig:
    """Search settings: objective, iteration budget, start point.

    The seed evaluation counts as the first iteration, so max_iters = 1
    returns the validated seed without moving.
    """

    objective: str
    max_iters: int
    seed_params: ParamSet

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise ConstraintViolation(
                f"objective must be one of {_OBJECTIVES}, got {self.objective!r}"
            )
        if self.max_iters < 1:
            raise ConstraintViolation(f"max_iters must be at least 1, got {self.max_iters}")


def _make_params(delta: float, values: dict[str, float], sigma_max: float) -> ParamSet:
    """Project the raw coordinate values onto the feasible set and build a ParamSet.

    beta_minus is clipped just below its cap, and each sigma is clipped into
    (alpha, sigma_max].  Anything still infeasible (for example alpha at or
    above sigma_max) surfaces as a ConstraintViolation from the constructors.
    """
    v = dict(values)
    cap = delta ** (1.0 + v["alpha_minus"]) / (delta + 1.0)
    v["beta_minus"] = min(v["beta_minus"], _BETA_CAP_MARGIN * cap)
    for side in ("plus", "minus"):
        alpha = v[f"alpha_{side}"]
        floor = alpha * (1.0 + _SIGMA_FLOOR_REL)
        v[f"sigma_{side}"] = min(max(v[f"sigma_{side}"], floor), sigma_max)
    sigmas = {name: v.pop(name) for name in ("sigma_plus", "sigma_minus")}
    return ParamSet(trapezoid=TrapezoidParams(delta=delta, **v), **sigmas)


def _coordinate_values(params: ParamSet) -> dict[str, float]:
    values = {**vars(params.trapezoid), "sigma_plus": params.sigma_plus, "sigma_minus": params.sigma_minus}
    return {name: values[name] for name in _COORDINATES}


def _cached_D(params: ParamSet, cache: dict) -> tuple[float, float]:
    """(D_plus, D_minus), the upper ends of enclosures memoized on the parameters of their side."""
    D = []
    for sign in (+1, -1):
        key = (sign,) + tuple(round(x, _KEY_DIGITS) for x in (params.trapezoid.delta, *_side(params, sign)))
        if key not in cache:
            cache[key] = _enclose_one_sign(params, sign)
        D.append(_upper_end(cache[key], sign))
    return D[0], D[1]


def _objective_value(report: BoundReport, objective: str) -> float:
    if objective == "width":
        return report.width
    return max(abs(report.A), abs(report.B))


def search(cfg: SearchConfig, ctx: GroupContext, N_bar: float) -> tuple[ParamSet, BoundReport]:
    """Minimize the configured objective starting from the seed parameters.

    delta stays at the seed's.  The seed is validated against ctx; an
    invalid seed raises ConstraintViolation.  Candidates that violate a
    constraint after projection, or whose quadrature fails to converge, are
    skipped.  The returned objective never exceeds the seed's.
    """
    sigma_max = sigma_ceiling(ctx.eta)
    current = cfg.seed_params
    delta = current.trapezoid.delta
    try:
        validate(current, ctx)
    except ConstraintViolation as exc:
        raise ConstraintViolation(f"seed parameters are invalid: {exc}") from exc

    cache: dict = {}
    report = assemble(current, ctx, N_bar, D=_cached_D(current, cache))
    score = _objective_value(report, cfg.objective)

    steps = {name: math.log(INITIAL_STEP) for name in _COORDINATES}
    step_floor = math.log1p(STEP_FLOOR)
    for _ in range(cfg.max_iters - 1):
        if all(step < step_floor for step in steps.values()):
            break
        for name in _COORDINATES:
            best = None
            for direction in (1.0, -1.0):
                values = _coordinate_values(current)
                values[name] *= math.exp(direction * steps[name])
                try:
                    candidate = _make_params(delta, values, sigma_max)
                    candidate_report = assemble(
                        candidate, ctx, N_bar, D=_cached_D(candidate, cache)
                    )
                except (ConstraintViolation, NonConvergenceError):
                    continue
                candidate_score = _objective_value(candidate_report, cfg.objective)
                if candidate_score < score and (best is None or candidate_score < best[0]):
                    best = (candidate_score, candidate, candidate_report)
            if best is None:
                steps[name] *= STEP_SHRINK
            else:
                score, current, report = best
    return current, report
