"""Explicit two-sided bounds for automorphic Green functions on the modular surface.

The package computes certified constants A <= gr(z, w) + sum of kernel terms <= B
for the Green function of the Laplacian on SL(2, Z) \\ H, together with the
lattice-point counts, special-function inequalities, and integral transforms
that enter the derivation.
"""

from greenbound.geom import (
    Rectangle,
    UnimodularMatrix,
    UpperHalfPoint,
    kernel_J,
    kernel_L,
    mobius_apply,
    point_u,
)
from greenbound.lattice import (
    CandidateSet,
    CountCertificate,
    count_bound,
    enumerate_candidates,
    exact_count,
    truncated_fundamental_domain,
    u_of_gamma,
)
from greenbound.bounds import (
    BoundReport,
    GroupContext,
    ParamSet,
    assemble,
    compute_D,
    compute_q,
    enclose_D,
    group_preset,
    spectral_factor,
    validate,
)
from greenbound.transforms import TrapezoidParams
from greenbound.cusps import CuspBoundReport, CuspGeometry, extend_bounds
from greenbound.optimize import search

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CandidateSet",
    "CountCertificate",
    "CuspBoundReport",
    "CuspGeometry",
    "GroupContext",
    "ParamSet",
    "Rectangle",
    "TrapezoidParams",
    "UnimodularMatrix",
    "UpperHalfPoint",
    "assemble",
    "compute_D",
    "compute_q",
    "count_bound",
    "enclose_D",
    "enumerate_candidates",
    "exact_count",
    "extend_bounds",
    "group_preset",
    "kernel_J",
    "kernel_L",
    "mobius_apply",
    "point_u",
    "search",
    "spectral_factor",
    "truncated_fundamental_domain",
    "u_of_gamma",
    "validate",
    "__version__",
]
