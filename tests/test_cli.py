"""Command-line interface: exit codes, stdout tables, and machine records."""

import contextlib
import io
import json
import math
import pathlib
import re
import time

import pytest

from greenbound.bounds import ParamSet, assemble, enclose_D, group_preset, reference_params
from greenbound.transforms import TrapezoidParams
from greenbound.lattice import COUNT_WITNESS, count_bound, truncated_fundamental_domain
from greenbound import cli
from greenbound.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    main,
    parse_bound_report,
    parse_count_certificate,
    parse_cusp_report,
)


def read_record(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_count_single_point(capsys):
    assert main(["count", "--point", "0,1", "--U", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bound:   4" in out
    assert "grid:    1x1" in out


def test_count_preset_region(capsys, tmp_path):
    path = tmp_path / "count.json"
    code = main(["count", "--preset", "y0", "--grid", "20x20", "--json", str(path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "bound:   214" in out
    record = read_record(path)
    assert record["tool"] == "greenbound"
    assert record["command"] == "count"
    cert = parse_count_certificate(record)
    assert cert.bound == 214
    assert cert.grid == (20, 20)
    # the work counter is carried and deterministic
    assert cert.pairs == record["pairs"] == count_bound(truncated_fundamental_domain(), 17.0, (20, 20)).pairs > 0
    # and so is how the refinement stopped: at the witness, the float point nearest z*, after 1 round
    p, q, r = COUNT_WITNESS
    assert (cert.stop, cert.witness) == ("witness", (p / r, q / r)) and "stop:    witness" in out
    assert cert.rounds == record["rounds"] == 1 and "rounds:  1" in out
    fields = {"region": dict, "U": float, "grid": list, "per_cell_counts": list, "bound": int, "pairs": int,
              "stop": str, "witness": list, "rounds": int}
    assert set(record) == {"tool", "version", "command", "config", *fields}
    assert all(isinstance(record[name], kind) for name, kind in fields.items())
    assert set(record["region"]) == {"x_min", "x_max", "y_min", "y_max"}
    assert record["grid"] == [20, 20] and len(record["per_cell_counts"]) == 20
    assert all(isinstance(row, list) and len(row) == 20 for row in record["per_cell_counts"])
    assert cert == count_bound(truncated_fundamental_domain(), 17.0, (20, 20))
    ragged, fractional = json.loads(json.dumps(record)), json.loads(json.dumps(record))
    ragged["per_cell_counts"][3].pop()
    fractional["per_cell_counts"][3][4] += 0.5
    for tampered, match in ((ragged, "not a grid"), (fractional, "not integers")):
        with pytest.raises(ValueError, match=match):
            parse_count_certificate(tampered)


def test_count_rejects_bad_region(capsys):
    assert main(["count", "--region=-0.5,0.5,0,2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "greenbound:" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["--region=-0.5,0.5,1,inf", "--grid", "2x2"], id="-0.5,0.5,1,inf"),
    pytest.param(["--region=-0.5,0.5,1e-300,1", "--grid", "2x2"], id="-0.5,0.5,1e-300,1"),
    pytest.param(["--point", "0.1,1e-300", "--U", "2"], id="point-0.1,1e-300"),
])
def test_count_refuses_infinite_side_or_work(argv, capsys):
    """An infinite side, or a region whose candidate loop would run for
    ages, is refused with a one-line error before any enumeration, and a
    zero-width region's estimate is a number, not 0 * inf."""
    assert main(["count", *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("greenbound: ") and err.count("\n") == 1
    assert "Traceback" not in err and "nan" not in err


@pytest.mark.parametrize("argv, config", [
    pytest.param(["count", "--U", "0.5"], None, id="U-below-1"),
    pytest.param(["count", "--grid", "0x3"], None, id="empty-grid"),
    pytest.param(["bounds", "--mode", "fast"], None, id="unknown-mode"),
    pytest.param(["bounds"], [1, 2], id="config-list"),
    pytest.param(["bounds", "--json", "{missing}/bounds.json"], None, id="json-into-missing-directory"),
])
def test_refusals_are_one_line(argv, config, capsys, tmp_path):
    """RunConfig's U and grid checks, the mode parser, a config file that holds no mapping and a --json
    path that cannot be written each exit 1 with one stderr line and no traceback."""
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("greenbound: ") and err.count("\n") == 1 and "Traceback" not in err


def test_sl2z_preset_replaces_a_group_mapping(capsys, tmp_path):
    """--preset sl2z is laid over the config's entries, so it replaces a group mapping, even one that
    would be refused, and the record is the one without the config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"group": {"volume": 1.0}}), encoding="utf-8")
    records = []
    for extra in (["--preset", "sl2z", "--config", str(path)], []):
        assert main(["bounds", *extra, "--json", str(tmp_path / "bounds.json")]) == EXIT_OK
        records.append(json.loads((tmp_path / "bounds.json").read_text(encoding="utf-8")))
    assert capsys.readouterr().err == ""
    assert records[0] == records[1]


@pytest.mark.parametrize("command", ["count", "reproduce-paper"])
def test_empty_grid_is_refused(command, capsys):
    """An empty --grid is a config error with one line, not the default grid."""
    assert main([command, "--grid", ""]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "greenbound: constraint error: grid must look like 100x100 or hold two integers, got ''\n"
    assert captured.out == ""


def test_count_far_point_is_counted_in_the_centre_strip(capsys):
    """The count of a point near x = 1e6 is that of its translate near x = 0 (60), not the 56 of
    the uncentred float lower bound."""
    assert main(["count", "--point", "999999.6661726177,1.8153809179298033", "--U", "4.907111401264591"]) == EXIT_OK
    assert "bound:   60\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bounds", "--n-bar", "1e308"],
    ["bounds", "--mode", "paper", "--n-bar", "1e307"],
    ["cusp-extend", "--case", "c", "--eps", "1e-311", "--eps-prime", "1e-309"],
])
def test_non_finite_certificate_ends_are_refused(argv, capsys, tmp_path):
    """An end that overflows to infinity is a vacuous certificate and no strict JSON: exit 1 with
    one stderr line and no record."""
    path = tmp_path / "out.json"
    assert main([*argv, "--json", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("greenbound: constraint error: ") and captured.err.count("\n") == 1
    assert "must be finite" in captured.err and captured.out == ""
    assert not path.exists()


def test_unknown_preset_is_config_error(capsys):
    assert main(["count", "--preset", "psl2z"]) == EXIT_CONFIG
    assert "unknown preset" in capsys.readouterr().err


def test_bounds_paper_arithmetic(capsys, tmp_path):
    path = tmp_path / "bounds.json"
    assert main(["bounds", "--mode", "paper", "--json", str(path)]) == EXIT_OK
    record = read_record(path)
    assert record["mode"] == "paper-arithmetic"
    paper = assemble(reference_params(), group_preset("sl2z"), 216.0, "paper-arithmetic")
    assert (record["A"], record["B"]) == (paper.A, paper.B)
    report = parse_bound_report(record)
    assert report.A == record["A"]
    assert report.width == record["width"]
    assert record["config"]["n_bar"] == 216.0


def test_bounds_theorem_exact_round_trip(tmp_path):
    path = tmp_path / "bounds.json"
    assert main(["bounds", "--mode", "exact", "--json", str(path)]) == EXIT_OK
    record = read_record(path)
    assert record["mode"] == "theorem-exact"
    report = parse_bound_report(record)
    # serialized floats reconstruct the identical certificate
    assert (report.A, report.B) == (record["A"], record["B"])
    exact = assemble(reference_params(), group_preset("sl2z"), 216.0, "theorem-exact")
    assert (report.A, report.B) == (exact.A, exact.B)


def test_bounds_n_bar_flag(tmp_path):
    path = tmp_path / "bounds.json"
    assert main(["bounds", "--mode", "paper", "--n-bar", "300", "--json", str(path)]) == EXIT_OK
    record = read_record(path)
    assert record["N_bar"] == 300.0
    paper = assemble(reference_params(), group_preset("sl2z"), 300.0, "paper-arithmetic")
    assert (record["A"], record["B"]) == (paper.A, paper.B)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bounds_rejects_infinite_n_bar(source, capsys, tmp_path):
    """An infinite count bound is refused, from the flag or a config file,
    with a one-line error and exit 1 instead of the certificate (-inf, inf)."""
    config = tmp_path / "config.json"
    config.write_text('{"n_bar": Infinity}', encoding="utf-8")
    argv = ["--n-bar", "inf"] if source == "flag" else ["--config", str(config)]
    assert main(["bounds", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert captured.err.startswith("greenbound: ") and "n_bar" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "config, argv",
    [
        ('{"grid": [1]}', []),
        ('{"grid": 5}', []),
        ('{"group": {"vol": 1}}', []),
        ('{"region": {"x_min": 0}}', []),
        ('{"n_bar": null}', []),
        ('{"cusp": {"eps": 0.1}}', []),
        (None, ["cusp-extend", "--case", "c", "--eps", "0.05"]),
        ('{"params": {"betaplus": 2.0}}', []),
        ('{"group": {"vol": 0.5, "eta": 0.25, "min_cc": 3}}', []),
        ('{"cusp": {"eps": 0.05, "eps_prime": 0.2, "detla": 9}}', []),
        ('{"region": {"x_min": 0, "x_max": 0, "y_min": 1, "y_max": 1, "ymax": 2}}', []),
        ('{"U": true}', []),
        ('{"cusp": {"eps": 0.05, "eps_prime": true}}', []),
        ('{"group": {"vol": 0.5, "eta": 0.25, "contains_minus_one": "false"}}', []),
        ('{"grid": [2.5, 3]}', []),
        ('{"grid": [Infinity, 1]}', []),
    ],
    ids=[
        "grid-short", "grid-number", "group-no-eta", "region-short", "n_bar-null", "cusp-no-eps_prime",
        "no-eps-prime", "params-unknown", "group-unknown", "cusp-unknown", "region-unknown", "U-bool",
        "eps_prime-bool", "minus-one-text", "grid-fraction", "grid-infinite",
    ],
)
def test_bad_config_entries_are_refused(config, argv, capsys, tmp_path):
    """A config entry that is missing a field, names an unknown one, or is not
    a number (a boolean is not) is refused with a one-line error and exit 1,
    not a traceback."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        argv = ["bounds", "--mode", "paper", "--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert captured.err.startswith("greenbound: constraint error: ")
    assert captured.out == ""


@pytest.mark.parametrize("sigma", [1e-5, 1.17e-4, 1.2e-4, 1.5e-4])
def test_bounds_refuses_tiny_sigma(sigma, capsys, tmp_path):
    """Below sigma = 2^-11 C_sigma or the enclosure's node values overflow:
    exit 1 with one line, not a traceback or the enclosure (inf, inf)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": {"sigma_plus": sigma, "alpha_plus": 1e-6}}), encoding="utf-8")
    assert main(["bounds", "--config", str(config)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("greenbound: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_too_wide_enclosure_names_its_tail(capsys, tmp_path):
    """At alpha_plus = 0.246, sigma_plus - alpha_plus = 0.06 and the tail past the node table's last
    octave is about 5.6e-5 of D_plus wide: exit 2 with one stderr line that names that tail and
    sigma_plus - alpha_plus, not only the enclosure."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": {"alpha_plus": 0.246}}), encoding="utf-8")
    assert main(["bounds", "--mode", "exact", "--config", str(config)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err.startswith("greenbound: numerical failure: D_plus enclosure")
    assert captured.err.count("\n") == 1 and captured.out == ""
    share = float(re.search(r", (\S+) of it the tail past U = ", captured.err).group(1))
    assert 5e-5 < share < 6e-5
    assert "sigma_plus - alpha_plus = 0.06 " in captured.err


def test_cusp_extend_same_cusp(capsys, tmp_path):
    path = tmp_path / "cusp.json"
    code = main(
        [
            "cusp-extend",
            "--case",
            "c",
            "--eps",
            "0.05",
            "--eps-prime",
            "0.2",
            "--mode",
            "paper",
            "--json",
            str(path),
        ]
    )
    assert code == EXIT_OK
    record = read_record(path)
    report = parse_cusp_report(record)
    assert report.case == "c"
    assert math.isclose(report.A_tilde - report.base_A, 6.07096662245749, rel_tol=1e-9)
    assert math.isclose(report.B_tilde - report.base_B, 6.092502336929101, rel_tol=1e-9)
    out = capsys.readouterr().out
    assert "A_tilde" in out or "A~" in out or "tilde" in out.lower()


def test_cusp_extend_mixed_case_echoes_base(tmp_path):
    path = tmp_path / "cusp.json"
    code = main(
        [
            "cusp-extend",
            "--case",
            "a",
            "--eps",
            "0.05",
            "--eps-prime",
            "0.2",
            "--mode",
            "paper",
            "--json",
            str(path),
        ]
    )
    assert code == EXIT_OK
    record = read_record(path)
    report = parse_cusp_report(record)
    assert report.A_tilde is None
    assert "height(z)" in report.offset_terms


def test_cusp_extend_rejects_inadmissible_radii(capsys):
    code = main(["cusp-extend", "--case", "c", "--eps", "0.05", "--eps-prime", "0.6"])
    assert code == EXIT_CONFIG
    assert "eps_prime" in capsys.readouterr().err


def test_cusp_extend_requires_radii(capsys):
    assert main(["cusp-extend", "--case", "c"]) == EXIT_CONFIG
    assert "cusp radii" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cusp, argv",
    [
        ({"delta": 3}, ["--case", "c", "--eps", "0.01", "--eps-prime", "0.2", "--mode", "paper"]),
        ({"min_c": 2}, ["--case", "a", "--eps", "0.01", "--eps-prime", "0.9"]),
        ({"count_pm1": 1}, ["--case", "c", "--eps", "0.01", "--eps-prime", "0.2"]),
        (None, ["--case", "c", "--eps", "0.01", "--eps-prime", "0.2", "--count-pm1", "1"]),
    ],
    ids=["delta", "min_c", "count_pm1", "count-pm1-flag"],
)
def test_cusp_takes_only_the_radii(cusp, argv, capsys, tmp_path):
    """delta, min_c and the +-1 count are the certificate's own, so a cusp block or flag that sets
    one (a delta = 3 cusp on the delta = 2 kernel, a min_c above the group's, one sign on SL(2, Z))
    is refused: exit 1, one stderr line, no record."""
    path, config = tmp_path / "cusp.json", tmp_path / "config.json"
    if cusp is not None:
        config.write_text(json.dumps({"cusp": cusp}), encoding="utf-8")
        argv = [*argv, "--config", str(config)]
    try:
        code = main(["cusp-extend", *argv, "--json", str(path)])
    except SystemExit as exc:  # argparse refuses a flag it does not know
        code = exc.code
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.out == "" and not path.exists()
    assert captured.err.startswith("greenbound")
    assert (repr(next(iter(cusp))) if cusp else "--count-pm1") in captured.err


def test_cusp_echo_is_derived_from_params_and_group(tmp_path, capsys):
    """The cusp echo carries the params' delta, the group's min_c and its +-1 count."""
    config, path = tmp_path / "config.json", tmp_path / "cusp.json"
    entries = {
        "params": {"delta": 3.0, "alpha_minus": 0.1, "beta_minus": 3.0**1.1 / 4.0},
        "group": {"vol": 0.5, "eta": 0.24, "contains_minus_one": False, "min_c": 1.5},
        "cusp": {"eps": 0.01, "eps_prime": 0.2},
        "n_bar": 216.0,
    }
    config.write_text(json.dumps(entries), encoding="utf-8")
    assert main(["cusp-extend", "--case", "c", "--config", str(config), "--json", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    record = read_record(path)
    assert record["config"]["cusp"] == {"eps": 0.01, "eps_prime": 0.2, "delta": 3.0, "min_c": 1.5, "count_pm1": 1}


@pytest.mark.parametrize(
    "argv",
    [["bounds"], ["cusp-extend", "--case", "c", "--eps", "0.01", "--eps-prime", "0.2"], ["optimize", "--max-iters", "1"]],
    ids=["bounds", "cusp-extend", "optimize"],
)
def test_group_mapping_must_state_n_bar(argv, capsys, tmp_path):
    """The default N_bar is proved for SL(2, Z) and its subgroups only, so a command that uses N_bar
    refuses a group mapping without n_bar: exit 1, one stderr line, no record.  n_bar in the config
    or --n-bar lifts the refusal, and count, which takes no N_bar, runs on the same config."""
    config, path = tmp_path / "config.json", tmp_path / "record.json"
    group = {"vol": 0.5, "eta": 0.24, "contains_minus_one": True, "min_c": 1.0}
    config.write_text(json.dumps({"group": group}), encoding="utf-8")
    assert main([*argv, "--config", str(config), "--json", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "n_bar" in captured.err and "SL(2, Z)" in captured.err
    assert captured.out == "" and not path.exists()
    assert main([*argv, "--config", str(config), "--n-bar", "216", "--json", str(path)]) == EXIT_OK
    assert read_record(path)["config"]["n_bar"] == 216.0
    config.write_text(json.dumps({"group": group, "n_bar": 100.0}), encoding="utf-8")
    assert main([*argv, "--config", str(config), "--json", str(path)]) == EXIT_OK
    assert read_record(path)["config"]["n_bar"] == 100.0
    assert main(["count", "--point", "0.1,1.1", "--config", str(config)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_optimize_short_budget(capsys, tmp_path):
    path = tmp_path / "opt.json"
    code = main(["optimize", "--max-iters", "2", "--json", str(path)])
    assert code == EXIT_OK
    record = read_record(path)
    assert record["command"] == "optimize"
    assert record["mode"] == "theorem-exact"
    assert record["A"] <= record["B"]
    assert set(record["best_params"]) == {
        "delta",
        "alpha_plus",
        "alpha_minus",
        "beta_plus",
        "beta_minus",
        "sigma_plus",
        "sigma_minus",
    }
    out = capsys.readouterr().out
    assert "width" in out


def test_optimize_objectives_give_one_record(tmp_path):
    """Each side is searched on its own, so width and max-abs reach the same
    parameters; their records differ only in the objective they echo."""
    records = {}
    for objective in ("width", "max-abs"):
        path = tmp_path / f"{objective}.json"
        assert main(["optimize", "--objective", objective, "--max-iters", "25", "--json", str(path)]) == EXIT_OK
        records[objective] = read_record(path)
    assert records["width"].pop("objective") == "width"
    assert records["max-abs"].pop("objective") == "max-abs"
    assert records["width"] == records["max-abs"]
    assert records["width"]["B"] < 9165.737


def test_optimize_refuses_zero_iterations(capsys):
    assert main(["optimize", "--max-iters", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert "max_iters" in captured.err


def test_count_work_cap_weighs_the_candidate_loop(capsys):
    """At one point a large U is all candidate enumeration:
    U = 5e4 is refused at once, U = 5000 still counts."""
    start = time.perf_counter()
    assert main(["count", "--point", "0.1,1.1", "--U", "50000"]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "above the cap" in captured.err
    assert main(["count", "--point", "0.1,1.1", "--U", "5000"]) == EXIT_OK


def test_selftest_passes(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_reproduce_paper_reports_honest_mismatch(capsys, tmp_path):
    """The majorant-cap item genuinely exceeds its rounded target, so the
    reproduction run must flag it and exit with the mismatch code."""
    path = tmp_path / "rep.json"
    code = main(["reproduce-paper", "--grid", "40x40", "--json", str(path)])
    assert code == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "PASS  count" in out
    assert "FAIL  D_plus" in out
    assert "8/9" in out
    record = read_record(path)
    assert record["passed"] is False
    names = [check["name"] for check in record["checks"]]
    assert names.count("D_plus") == 1



def test_reproduce_paper_records_are_reproducible(tmp_path, capsys):
    """Two runs write the same bytes: the count check reports its kernel
    pairs, a work counter, not a wall time."""
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert main(["reproduce-paper", "--grid", "10x10", "--json", str(path)]) == EXIT_MISMATCH
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    pairs = count_bound(truncated_fundamental_domain(), 17.0, (10, 10)).pairs
    (count,) = [check for check in read_record(paths[0])["checks"] if check["name"] == "count"]
    assert count["detail"].endswith(f", {pairs} kernel pairs"), count["detail"]

def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"U": 5.0, "grid": "10x10"}), encoding="utf-8")
    out_path = tmp_path / "count.json"
    code = main(
        ["count", "--preset", "y0", "--config", str(config), "--U", "17", "--json", str(out_path)]
    )
    assert code == EXIT_OK
    record = read_record(out_path)
    # the flag overrides the file; the file fills what flags leave unset
    assert record["U"] == 17.0
    assert record["grid"] == [10, 10]


def test_config_file_params_block(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"params": {"beta_plus": 2.0}, "n_bar": 250.0}), encoding="utf-8"
    )
    out_path = tmp_path / "bounds.json"
    code = main(
        ["bounds", "--mode", "paper", "--config", str(config), "--json", str(out_path)]
    )
    assert code == EXIT_OK
    record = read_record(out_path)
    assert record["config"]["params"]["beta_plus"] == 2.0
    assert record["config"]["params"]["delta"] == 2.0
    assert record["N_bar"] == 250.0


def test_bounds_exact_with_beta_minus_on_its_cap(tmp_path, capsys):
    """On the cap the corner T(delta) is 1; unclamped, it rounds to
    0.9999999999999996 here and p_sigma used to refuse it."""
    config = tmp_path / "config.json"
    params = {"delta": 3.0, "alpha_minus": 0.1, "beta_minus": 3.0**1.1 / 4.0}
    config.write_text(json.dumps({"params": params}), encoding="utf-8")
    out_path = tmp_path / "bounds.json"
    argv = ["bounds", "--mode", "exact", "--config", str(config), "--json", str(out_path)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    record = read_record(out_path)
    p = record["config"]["params"]
    assert p["beta_minus"] == params["beta_minus"]
    sigmas = {name: p.pop(name) for name in ("sigma_plus", "sigma_minus")}
    _, (lo, hi) = enclose_D(ParamSet(trapezoid=TrapezoidParams(**p), **sigmas))
    assert lo <= record["D_minus"] <= hi


def test_unknown_config_field_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold": 17.0}), encoding="utf-8")
    assert main(["count", "--config", str(config)]) == EXIT_CONFIG
    assert "unknown config fields" in capsys.readouterr().err


def test_malformed_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json", encoding="utf-8")
    assert main(["count", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "greenbound:" in err


def test_missing_config_file(tmp_path):
    assert main(["count", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "greenbound" in capsys.readouterr().out


def test_unknown_subcommand_is_config_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_CONFIG


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """A bad flag, --version and an unknown subcommand leave nothing behind in the shared parser:
    the next bounds record is the one a first call writes."""
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    argv = ["bounds", "--mode", "paper", "--json"]
    assert main([*argv, str(first)]) == EXIT_OK
    for bad, code in ((["bounds", "--no-such-flag"], EXIT_CONFIG), (["--version"], EXIT_OK),
                      (["frobnicate"], EXIT_CONFIG)):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == code, bad
    assert main([*argv, str(again)]) == EXIT_OK
    assert again.read_text(encoding="utf-8") == first.read_text(encoding="utf-8")


def test_main_calls_the_handler_bound_at_call_time(monkeypatch, capsys):
    """main looks cmd_* up on each call, so a handler rebound after the parser is built (as a tracer
    does) is the one called."""
    assert main(["bounds", "--mode", "paper"]) == EXIT_OK
    calls = []
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: calls.append(args.mode) or EXIT_MISMATCH)
    assert main(["bounds", "--mode", "paper"]) == EXIT_MISMATCH
    assert calls == ["paper"]


def test_readme_command_lines_parse():
    """Every greenbound line of README's command-line block parses, so the
    documentation cannot keep a flag that is gone."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"## Command line\n\n```\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("greenbound ")]
    assert len(lines) >= 7
    for argv in lines:
        build_parser().parse_args(argv)


def test_readme_library_example_runs(capsys):
    """The python block of README.md runs as written."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out.split()[0] == "214"


def _holds(echo, given) -> bool:
    """Whether a config echo entry holds the value a config file or flag gave for it."""
    if given is None:
        return echo is None
    if isinstance(given, dict):
        return all(_holds(echo[name], value) for name, value in given.items())
    if isinstance(echo, dict):  # a region given as four numbers, a group by its preset name
        if isinstance(given, list):
            return _holds([echo[name] for name in ("x_min", "x_max", "y_min", "y_max")], given)
        return echo["name"] == given
    if isinstance(given, list):
        return len(echo) == len(given) and all(map(_holds, echo, given))
    if isinstance(echo, str):  # a group name, or a mode alias such as exact for theorem-exact
        return given in echo
    if isinstance(echo, list):  # grid text
        return _holds(echo, given.lower().split("x"))
    return echo == float(given)


def test_any_config_and_flag_text_exits_0_or_1(tmp_path):
    """Config fields holding any JSON value, unknown keys among them, and any
    flag text: bounds, cusp-extend and count exit 0 or 1 without a traceback,
    a config error is one stderr line, and on exit 0 the record's config echo
    holds the values given, flags over the file, and a cusp echo takes delta, min_c and the +-1
    count from the params and the group."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Numbers stay below 1e3 or are extreme: a count at U near 5e4 is accepted and takes seconds.
    number = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 5e-324]))
    scalar = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), number, st.text(max_size=4),
                       st.sampled_from(["nan", "inf", "2", "1x1", "sl2z", "exact"]))
    anything = st.one_of(scalar, st.lists(scalar, max_size=4), st.dictionaries(st.text(max_size=3), scalar, max_size=2))
    flag_junk = st.one_of(st.text(max_size=6), st.sampled_from(["", "nan", "inf", "-1", "1e400", "1,2", "1x1x1"]))
    ref = reference_params().record()
    fields = {
        "U": st.floats(1.0, 20.0),
        "n_bar": st.floats(2.0, 1e3),
        "mode": st.sampled_from(["exact", "paper", "theorem-exact", "paper-arithmetic"]),
        "grid": st.sampled_from([[1, 1], "1x1", [1.0, 1]]),
        "region": st.floats(-0.5, 0.4).flatmap(lambda x: st.floats(0.9, 1.9).map(lambda y: [x, x + 0.1, y, y + 0.1])),
        "group": st.just("sl2z"),
        "params": {name: st.floats(0.9, 1.0).map(lambda f, v=value: f * v) for name, value in ref.items()},
        "cusp": {"eps": st.floats(1e-3, 0.01), "eps_prime": st.floats(0.1, 0.2)},
    }
    group = {"vol": st.floats(0.1, 3.0), "eta": st.floats(0.24, 0.25), "name": st.text(max_size=3),
             "contains_minus_one": st.booleans(), "min_c": st.floats(1.0, 2.0)}
    required = {"group": ["vol", "eta"], "cusp": ["eps", "eps_prime"], "cusp-extend": ["cusp"]}
    flags = {
        "U": st.floats(1.0, 20.0).map(repr),
        "n_bar": st.floats(2.0, 1e3).map(repr),
        "eps": st.floats(1e-3, 0.01).map(repr),
        "eps_prime": st.floats(0.1, 0.2).map(repr),
        "grid": st.sampled_from(["1x1", "1X1", " 1 x 1"]),
        "point": st.floats(-0.5, 0.5).flatmap(lambda x: st.floats(0.9, 2.0).map(lambda y: f"{x!r},{y!r}")),
        "region": st.just("-0.5,0.5,1.0,2.0"),
    }
    commands = {
        "bounds": (["bounds", "--mode", "paper"], ["n_bar"]),
        "cusp-extend": (["cusp-extend", "--case", "a", "--mode", "paper"], ["n_bar", "eps", "eps_prime"]),
        "count": (["count"], ["U", "point", "region"]),
    }
    config, record = tmp_path / "config.json", tmp_path / "record.json"

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        def odds(label, n):  # true one time in n
            return data.draw(st.integers(1, n), label=label) == 1

        def keys(names, label):  # the required names, each other one time in two, an unknown one time in eight
            must = required.get(label, [])
            some = [n for n in names if n not in must and odds(f"{label} has {n}", 2)]
            return must + some + ["extra"] * odds(label, 8)

        def draw(plausible, name, junk=anything):  # five times in six a plausible value
            if isinstance(plausible, dict):
                return {key: draw(plausible.get(key, anything), f"{name}.{key}") for key in keys(plausible, name)}
            return data.draw(junk if odds(f"{name} junk", 6) else plausible, label=name)

        command, (argv, flag_names) = data.draw(st.sampled_from(sorted(commands.items())), label="command")
        shapes = {**fields, "group": data.draw(st.sampled_from([fields["group"], group]), label="group form")}
        entries = {name: draw(shapes.get(name, anything), name) for name in keys(shapes, command)}
        config.write_text(json.dumps(entries), encoding="utf-8")
        given = {name: draw(flags[name], f"--{name}", flag_junk) for name in flag_names if odds(f"--{name}?", 2)}
        if command == "count":  # every count runs on a 1x1 grid
            given["grid"] = draw(flags["grid"], "--grid", flag_junk)
        argv = [*argv, "--config", str(config), "--json", str(record)]
        argv += [f"--{name.replace('_', '-')}={value}" for name, value in given.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, parsed = main(argv), True
            except SystemExit as exc:  # argparse refused a flag's text
                code, parsed = exc.code, False
        assert code in (EXIT_OK, EXIT_CONFIG) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
        if code == EXIT_CONFIG:
            assert out.getvalue() == ""
            assert not parsed or err.getvalue().count("\n") == 1, err.getvalue()
            return
        expected = dict(entries, mode="paper") if command != "count" else dict(entries)
        if "point" in given:
            x, y = given["point"].split(",")
            expected["region"] = [x, x, y, y]
        for name in ("region", "U", "grid", "n_bar"):
            if name in given:
                expected[name] = given[name].split(",") if name == "region" else given[name]
        cusp = {name: given[name] for name in ("eps", "eps_prime") if name in given}
        if cusp:
            expected["cusp"] = {**(expected.get("cusp") or {}), **cusp}
        echo = read_record(record)["config"]
        assert _holds(echo, expected), (expected, echo)
        if echo["cusp"] is not None:
            ctx = echo["group"]
            derived = {"delta": echo["params"]["delta"], "min_c": ctx["min_c"]}
            assert {name: echo["cusp"][name] for name in derived} == derived, echo
            assert echo["cusp"]["count_pm1"] == (2 if ctx["contains_minus_one"] else 1), echo

    check()
