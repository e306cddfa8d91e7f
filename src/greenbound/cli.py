"""Command-line front end: configuration, subcommands, and certificate records.

Subcommands:

* count            grid-certified displacement-count bound over a region
* bounds           assemble the two-sided certificate A <= . <= B
* reproduce-paper  replay the published pipeline numbers, one line per item
* cusp-extend      transport a certificate into a cusp neighbourhood
* optimize         coordinate-descent tuning of the free parameters
* selftest         run the analytic property spot checks

Configuration comes from built-in defaults, overridden by an optional JSON
config file (--config), overridden by command-line flags.  Every command
accepts --json FILE to write a machine-readable record: the fields of the
produced certificate plus the config echo and the tool version.  Exit
codes: 0 success, 1 configuration or constraint error, 2 numerical
failure, 3 reproduction mismatch.  The parser is built once per process, and main looks the
handler of the parsed command up on each call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

from greenbound import __version__
from greenbound.bounds import (
    CONSTANTS,
    COUNT_CAP_STANDARD,
    COUNT_GRID,
    COUNT_RADIUS,
    BoundReport,
    GroupContext,
    ParamSet,
    assemble,
    group_preset,
    reference_params,
)
from greenbound.cusps import CuspBoundReport, CuspGeometry, admissible_eps, extend_bounds
from greenbound.errors import ConstraintViolation, NonConvergenceError
from greenbound.geom import Rectangle
from greenbound.lattice import CountCertificate, count_bound, truncated_fundamental_domain
from greenbound.optimize import search
from greenbound.verify import CheckResult, property_battery, reproduction_battery

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3

_GRID_TEXT = f"{COUNT_GRID[0]}x{COUNT_GRID[1]}"  # the default count grid as --grid takes it

_MODE_ALIASES = {
    "exact": "theorem-exact",
    "theorem-exact": "theorem-exact",
    "paper": "paper-arithmetic",
    "paper-arithmetic": "paper-arithmetic",
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings; every referenced invariant is re-validated."""

    group: GroupContext
    params: ParamSet
    region: Rectangle
    U: float
    grid: tuple[int, int]
    mode: str
    n_bar: float
    cusp: CuspGeometry | None

    def __post_init__(self) -> None:
        if not (self.U >= 1.0):
            raise ConstraintViolation(f"U must be at least 1, got {self.U}")
        if not (self.grid[0] >= 1 and self.grid[1] >= 1):
            raise ConstraintViolation(f"grid must be at least 1x1, got {self.grid}")
        if not (self.n_bar >= 2.0 and math.isfinite(self.n_bar)):
            raise ConstraintViolation(f"n_bar must be finite and at least 2, got {self.n_bar}")


def _parse_mode(entry) -> str:
    try:
        return _MODE_ALIASES[str(entry)]
    except KeyError:
        raise ConstraintViolation(
            f"mode must be one of {sorted(set(_MODE_ALIASES))}, got {entry!r}"
        ) from None


def _number(value, what: str, kind=float):
    """value as a float, or an integer for kind=int; a boolean or a non-number is a
    ConstraintViolation, and so is a fraction or a non-finite value for kind=int."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
        if kind is int and number != float(value):
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        raise ConstraintViolation(
            f"{what} must hold {'integers' if kind is int else 'numbers'}, got {value!r}"
        ) from None


def _field(entry: dict, name: str, what: str, default=None, kind=float):
    """entry[name] converted by kind, or default if missing; a missing or malformed field is a
    ConstraintViolation naming it, as is a malformed value in _number."""
    if name not in entry and default is None:
        raise ConstraintViolation(f"{what} needs a value for {name!r}")
    return _number(entry.get(name, default), f"{what} field {name!r}", kind)


def _names(cls) -> list[str]:
    return [field.name for field in dataclasses.fields(cls)]


def _mapping(entry, what: str, names) -> dict:
    """entry, if it is a mapping with no keys outside names; else a ConstraintViolation."""
    if not isinstance(entry, dict):
        raise ConstraintViolation(f"{what} must be a mapping, got {entry!r}")
    unknown = set(entry) - set(names)
    if unknown:
        raise ConstraintViolation(f"unknown {what} fields: {sorted(unknown)}")
    return entry


def _parse_grid(entry) -> tuple[int, int]:
    """A grid as NXxNY text or two integers."""
    parts = entry.lower().split("x") if isinstance(entry, str) else entry
    if not (isinstance(parts, (list, tuple)) and len(parts) == 2):
        raise ConstraintViolation(f"grid must look like {_GRID_TEXT} or hold two integers, got {entry!r}")
    return _number(parts[0], "grid", int), _number(parts[1], "grid", int)


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise ConstraintViolation(f"{what} needs {count} comma-separated numbers, got {text!r}")
    return [_number(p, what) for p in parts]


def _group_from_entry(entry) -> GroupContext:
    if isinstance(entry, str):
        return group_preset(entry)
    entry = _mapping(entry, "group", _names(GroupContext))
    name, minus_one = entry.get("name", "custom"), entry.get("contains_minus_one", True)
    if not (isinstance(name, str) and isinstance(minus_one, bool)):
        raise ConstraintViolation(
            f"group name must be text and contains_minus_one true or false, got {name!r}, {minus_one!r}"
        )
    return GroupContext(
        name=name,
        vol=_field(entry, "vol", "group"),
        eta=_field(entry, "eta", "group"),
        contains_minus_one=minus_one,
        min_c=_field(entry, "min_c", "group", 1.0),
    )


def _params_from_entry(entry, base: ParamSet) -> ParamSet:
    defaults = base.record()
    entry = _mapping(entry, "params", defaults)
    return ParamSet.from_record({name: _field(entry, name, "params", value) for name, value in defaults.items()})


def _region_from_entry(entry) -> Rectangle:
    if isinstance(entry, dict):
        _mapping(entry, "region", _names(Rectangle))
        entry = [_field(entry, name, "region") for name in _names(Rectangle)]
    if not (isinstance(entry, (list, tuple)) and len(entry) == 4):
        raise ConstraintViolation(f"region must be a mapping or 4 numbers, got {entry!r}")
    return Rectangle(*(_number(v, "region entry") for v in entry))


def _cusp_from_entry(entry, group: GroupContext, params: ParamSet) -> CuspGeometry:
    entry = _mapping(entry, "cusp", ("eps", "eps_prime"))
    return CuspGeometry.of(_field(entry, "eps", "cusp"), _field(entry, "eps_prime", "cusp"), params, group)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConstraintViolation(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConstraintViolation(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConstraintViolation(f"config file {path!r} must hold a JSON object")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Parse one mapping: the config file's entries, with the flags laid over them in the order
    --preset, --point, --region, --U/--grid/--mode/--n-bar, then the cusp radii into the cusp
    block.  A setting neither gives keeps its default, except that a command taking --n-bar
    refuses a group mapping without n_bar: the default N_bar is proved for SL(2, Z) and its
    subgroups only, and a mapping can describe any group."""
    flags, y0 = vars(args), dataclasses.astuple(truncated_fundamental_domain())
    entries = _mapping(load_config(args.config) if flags.get("config") else {}, "config", _names(RunConfig))
    preset = flags.get("preset")
    if preset == "sl2z":
        entries["group"] = "sl2z"
    elif preset == "y0":
        entries["region"] = y0
    elif preset is not None:
        raise ConstraintViolation(f"unknown preset {preset!r}; available: sl2z, y0")
    if flags.get("point") is not None:
        x, y = _parse_floats(flags["point"], 2, "point")
        entries["region"] = (x, x, y, y)
        entries.setdefault("grid", (1, 1))
    if flags.get("region") is not None:
        entries["region"] = _parse_floats(flags["region"], 4, "region")
    entries.update({name: flags[name] for name in ("U", "grid", "mode", "n_bar") if flags.get(name) is not None})
    cusp_flags = {name: flags[name] for name in ("eps", "eps_prime") if flags.get(name) is not None}
    cusp = entries.get("cusp") or {}
    if cusp_flags and isinstance(cusp, dict):
        entries["cusp"] = {**cusp, **cusp_flags}

    group = _group_from_entry(entries.get("group", "sl2z"))
    if "n_bar" in flags and "n_bar" not in entries and isinstance(entries.get("group"), dict):
        raise ConstraintViolation(f"a group mapping needs n_bar in the config or --n-bar; the default "
                                  f"{COUNT_CAP_STANDARD:g} is proved only for SL(2, Z) and its subgroups")
    params = _params_from_entry(entries.get("params", {}), reference_params())
    return RunConfig(
        group=group,
        params=params,
        region=_region_from_entry(entries.get("region", y0)),
        U=_field(entries, "U", "config", COUNT_RADIUS),
        grid=_parse_grid(entries.get("grid", COUNT_GRID)),
        mode=_parse_mode(entries.get("mode", "exact")),
        n_bar=_field(entries, "n_bar", "config", COUNT_CAP_STANDARD),
        cusp=None if entries.get("cusp") is None else _cusp_from_entry(entries["cusp"], group, params),
    )


def _record(command: str, config: RunConfig | None, **fields) -> dict:
    """The machine record: tool, version, command, the config echo if any (flat params), then fields."""
    record = {"tool": "greenbound", "version": __version__, "command": command}
    if config is not None:
        record["config"] = {**dataclasses.asdict(config), "params": config.params.record()}
    return {**record, **fields}


def parse_count_certificate(record: dict) -> CountCertificate:
    return CountCertificate(
        region=Rectangle(**record["region"]),
        U=record["U"],
        grid=tuple(record["grid"]),
        per_cell_counts=record["per_cell_counts"],
        bound=record["bound"],
        pairs=record["pairs"],
        stop=record["stop"],
        witness=None if record["witness"] is None else tuple(record["witness"]),
        rounds=record["rounds"],
    )


def _fields_of(cls, record: dict):
    """Rebuild a report dataclass from the record keys named after its fields."""
    return cls(**{field.name: record[field.name] for field in dataclasses.fields(cls)})


def parse_bound_report(record: dict) -> BoundReport:
    return _fields_of(BoundReport, record)


def parse_cusp_report(record: dict) -> CuspBoundReport:
    return _fields_of(CuspBoundReport, record)


def _emit(record: dict, path: str | None) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")  # no indent: json.dump(indent=...) is pure Python


def _report_checks(
    command: str, results: list[CheckResult], summary: str, path: str | None, fail_code: int
) -> int:
    """Print one PASS/FAIL line a check, naming its certificate step (verify.STEPS), and the summary
    line, write the record; the exit code."""
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'}  {result.name} [{result.step}]: {result.detail}")
    passed = all(r.passed for r in results)
    print(summary.format(sum(r.passed for r in results), len(results)))
    _emit(_record(command, None, checks=[dataclasses.asdict(r) for r in results], passed=passed), path)
    return EXIT_OK if passed else fail_code


def cmd_count(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    start = time.perf_counter()
    cert = count_bound(config.region, config.U, config.grid)
    elapsed = time.perf_counter() - start
    r = cert.region
    print(f"region:  [{r.x_min:g}, {r.x_max:g}] x [{r.y_min:g}, {r.y_max:g}]")
    print(f"U:       {cert.U:g}")
    print(f"grid:    {cert.grid[0]}x{cert.grid[1]}")
    print(f"bound:   {cert.bound}")
    print(f"stop:    {cert.stop}")
    print(f"rounds:  {cert.rounds}")
    print(f"elapsed: {elapsed:.2f}s")
    fields = {**dataclasses.asdict(cert), "per_cell_counts": cert.per_cell_counts.tolist()}
    _emit(_record("count", config, **fields), args.json)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    report = assemble(config.params, config.group, config.n_bar, mode=config.mode)
    print(f"mode:            {report.mode}")
    print(f"q_plus:          {report.q_plus:.6f}")
    print(f"q_minus:         {report.q_minus:.6f}")
    print(f"D_plus:          {report.D_plus:.8f}")
    print(f"D_minus:         {report.D_minus:.8f}")
    print(f"N_bar:           {report.N_bar:g}")
    print(f"spectral factor: {report.spectral_factor:.8f}")
    print(f"A:               {report.A:.4f}")
    print(f"B:               {report.B:.4f}")
    print(f"width:           {report.width:.4f}")
    _emit(_record("bounds", config, **dataclasses.asdict(report), width=report.width), args.json)
    return EXIT_OK


def cmd_reproduce_paper(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    print("constants:")
    for name, (value, description) in CONSTANTS.items():
        print(f"  {name} = {value:.12g}  ({description})")
    results = reproduction_battery(grid=grid)
    summary = "reproduction: {}/{} items passed"
    return _report_checks("reproduce-paper", results, summary, args.json, EXIT_MISMATCH)


def cmd_cusp_extend(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if config.cusp is None:
        raise ConstraintViolation(
            "cusp-extend needs cusp radii; pass --eps/--eps-prime or a config cusp block"
        )
    geom = config.cusp
    eps_prime_max, eps_max = admissible_eps(geom.delta, geom.min_c)
    base = assemble(config.params, config.group, config.n_bar, mode=config.mode)
    report = extend_bounds(base, geom, args.case)
    print(f"case:          {report.case}")
    print(f"eps:           {geom.eps:g} (max {eps_max:.7f})")
    print(f"eps_prime:     {geom.eps_prime:g} (max {eps_prime_max:.7f})")
    print(f"base A, B:     {report.base_A:.4f}, {report.base_B:.4f}")
    print(f"offsets:       {report.offset_terms}")
    if report.A_tilde is not None:
        print(f"A~, B~:        {report.A_tilde:.4f}, {report.B_tilde:.4f}")
    _emit(_record("cusp-extend", config, **dataclasses.asdict(report)), args.json)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    best, report = search(config.params, config.group, config.n_bar, args.max_iters)
    print(f"objective: {args.objective}")
    print(f"A:         {report.A:.4f}")
    print(f"B:         {report.B:.4f}")
    print(f"width:     {report.width:.4f}")
    best_params = best.record()
    for name in ("alpha_plus", "beta_plus", "sigma_plus", "alpha_minus", "beta_minus", "sigma_minus"):
        print(f"{name:<12} {best_params[name]:.8g}")
    _emit(_record("optimize", config, **dataclasses.asdict(report), width=report.width,
                  objective=args.objective, best_params=best_params), args.json)
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    results = property_battery()
    return _report_checks("selftest", results, "selftest: {}/{} checks passed", args.json, EXIT_NUMERICAL)


class _Parser(argparse.ArgumentParser):
    """argparse prints the usage and exits with status 2 on bad flags; a bad flag is a config error
    instead: exit 1 with one stderr line, the usage being one --help away."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared after it: do not mutate it."""
    parser = _Parser(prog="greenbound", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"greenbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--json", help="write the machine record to this file")
        p.add_argument("--preset", help="apply a preset: sl2z (group) or y0 (region)")

    p_count = sub.add_parser("count", help="certified displacement-count bound on a region")
    add_common(p_count)
    p_count.add_argument("--point", help="degenerate region at a single point, as X,Y")
    p_count.add_argument("--region", help="rectangle as x_min,x_max,y_min,y_max")
    p_count.add_argument("--U", type=float, help="displacement threshold")
    p_count.add_argument("--grid", help=f"subdivision as NXxNY, e.g. {_GRID_TEXT}")

    p_bounds = sub.add_parser("bounds", help="assemble the certificate A <= . <= B")
    add_common(p_bounds)
    p_bounds.add_argument("--mode", help="arithmetic mode: exact or paper")
    p_bounds.add_argument("--n-bar", dest="n_bar", type=float, help="uniform count bound")

    p_rep = sub.add_parser("reproduce-paper", help="replay the published pipeline numbers")
    p_rep.add_argument("--json", help="write the machine record to this file")
    p_rep.add_argument("--grid", default=_GRID_TEXT, help=f"grid for the count item (default {_GRID_TEXT})")

    p_cusp = sub.add_parser("cusp-extend", help="transport a certificate to a cusp neighbourhood")
    add_common(p_cusp)
    p_cusp.add_argument("--case", required=True, choices=("a", "a_prime", "b", "c"))
    p_cusp.add_argument("--eps", type=float, help="inner neighbourhood radius")
    p_cusp.add_argument("--eps-prime", dest="eps_prime", type=float, help="outer radius")
    p_cusp.add_argument("--mode", help="arithmetic mode: exact or paper")
    p_cusp.add_argument("--n-bar", dest="n_bar", type=float, help="uniform count bound")

    p_opt = sub.add_parser("optimize", help="tune the free parameters")
    add_common(p_opt)
    p_opt.add_argument(
        "--objective", default="width", choices=("width", "max-abs"),
        help="echoed in the record; both values return the same minimiser",
    )
    p_opt.add_argument("--max-iters", dest="max_iters", type=int, default=25)
    p_opt.add_argument("--n-bar", dest="n_bar", type=float, help="uniform count bound")

    p_self = sub.add_parser("selftest", help="run the analytic property spot checks")
    p_self.add_argument("--json", help="write the machine record to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]  # at call time, so a rebound cmd_* is called
    try:
        return handler(args)
    except ConstraintViolation as exc:
        print(f"greenbound: constraint error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"greenbound: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"greenbound: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"greenbound: i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
