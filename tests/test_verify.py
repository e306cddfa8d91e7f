"""The self-check batteries and their shared check functions."""

import inspect
import json
import re

import pytest

from greenbound.bounds import COUNT_CAP_STANDARD, assemble, compute_D, compute_q, group_preset, reference_params
from greenbound.cli import main
from greenbound.lattice import count_bound, truncated_fundamental_domain
from greenbound.verify import PROPERTY_CHECKS, STEPS, reproduction_battery


@pytest.mark.parametrize("check", [check for check, _, _ in PROPERTY_CHECKS], ids=lambda c: c.__name__)
def test_property_check_passes_at_full_size(check, full_check):
    """Every check selftest runs at its short size also runs in the suite at full size."""
    result = full_check(check)
    assert result.passed, result.detail


def test_property_checks_set_only_the_sample_count():
    """selftest's short run of each check is a prefix of its full run, so PROPERTY_CHECKS passes
    no keyword but n, and no check takes another parameter: a range or grid knob that moves the
    short run off the full one shows here."""
    extra = {
        check.__name__: sorted((set(size) | set(inspect.signature(check).parameters)) - {"n"})
        for check, size, _ in PROPERTY_CHECKS
    }
    assert not any(extra.values()), extra


def test_every_check_names_a_listed_step_and_every_step_has_a_check(tmp_path, capsys):
    """The ledger: selftest and reproduce-paper print each check's step on its line and write the
    same step into its --json entry; selftest's steps are PROPERTY_CHECKS', every step printed is a
    key of STEPS, and every key of STEPS has at least one check."""
    steps = {}
    for command, argv in (("selftest", []), ("reproduce-paper", ["--grid", "10x10"])):
        path = tmp_path / f"{command}.json"
        main([command, *argv, "--json", str(path)])
        lines = [line for line in capsys.readouterr().out.splitlines() if line[:6] in ("PASS  ", "FAIL  ")]
        steps[command] = [re.fullmatch(r"(?:PASS|FAIL)  \S+ \[(.+?)\]: .*", line)[1] for line in lines]
        checks = json.loads(path.read_text(encoding="utf-8"))["checks"]
        assert steps[command] == [check["step"] for check in checks], command
    assert steps["selftest"] == [step for _, _, step in PROPERTY_CHECKS]
    listed = set(steps["selftest"] + steps["reproduce-paper"])
    assert listed <= set(STEPS), sorted(listed - set(STEPS))
    assert set(STEPS) <= listed, sorted(set(STEPS) - listed)


def test_reproduction_battery_encloses_D_once(cold_enclosures):
    """The majorant cap rows read D from the theorem-exact report, so the battery encloses D once:
    from a cold memo, one miss per sign and no second lookup."""
    results = reproduction_battery(grid=(10, 10))
    info = cold_enclosures.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    assert [r.name for r in results if not r.passed] == ["D_plus"]


def test_reproduction_details_carry_each_value_to_the_last_bit():
    """Each reproduce-paper detail reads "<name> = <repr(value)>, ...", so the golden record of
    reproduce-paper sees a one-ulp move of any reproduced number; the values are computed here
    by the same calls, in the table's order."""
    ctx, params = group_preset("sl2z"), reference_params()
    paper = assemble(params, ctx, COUNT_CAP_STANDARD, mode="paper-arithmetic")
    exact = assemble(params, ctx, COUNT_CAP_STANDARD, mode="theorem-exact")
    values = {
        "count": count_bound(truncated_fundamental_domain(), 17.0, (10, 10)).bound,
        **dict(zip(("q_plus", "q_minus"), compute_q(params, ctx))),
        **dict(zip(("D_plus", "D_minus"), compute_D(params))),
        "paper_A": paper.A, "paper_B": paper.B, "exact_A": exact.A, "exact_B": exact.B,
    }
    results = reproduction_battery((10, 10))
    assert [r.name for r in results] == list(values)
    for r in results:
        assert r.detail.startswith(f"{r.name} = {values[r.name]!r}, "), r.detail
