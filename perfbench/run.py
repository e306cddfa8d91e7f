"""greenbound benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload lattice-grid|spectral-strip|cli-session \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
interpreter (perfbench/worker.py) with `src` on PYTHONPATH,
GREENBOUND_THREADS unset and one thread, as a single-process closed loop.
With --trace 0 the output holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Provenance and a metric table come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when a result
was printed, even if some job failed its oracle (then correct is false).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lattice-grid", "spectral-strip", "cli-session")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
SCRATCH = ".bench_out"  # under the checkout root; traces are kept here

# Metric units.  README.md says what each metric means and which end-to-end
# metric each per-layer metric should move.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
    "count_bound_mean": "count",
    "cert_width_mean": "1",
}

PER_LAYER = {
    "lattice.count_bound_s": "s",
    "lattice.enumerate_s": "s",
    "lattice.candidates": "count",
    "lattice.cells": "count",
    "lattice.screen_s": "s",
    "lattice.resolve_calls": "count",
    "lattice.resolve_s": "s",
    "lattice.resolve_hit_ratio": "ratio",
    "specfun.legendre_P_negm_calls": "count",
    "specfun.legendre_P_negm_s": "s",
    "specfun.log_gamma_complex_calls": "count",
    "specfun.log_gamma_complex_s": "s",
    "transforms.h_U_pm_calls": "count",
    "transforms.h_U_pm_s": "s",
    "transforms.I_delta_pm_s": "s",
    "transforms.tail_calls": "count",
    "quad.integrate_to_infinity_calls": "count",
    "quad.integrate_to_infinity_s": "s",
    "cusps.N_delta_eps_s": "s",
    "specfun.p_sigma_calls": "count",
    "specfun.p_sigma_s": "s",
    "bounds.D_evals": "count",
    "bounds.compute_D_s": "s",
    "bounds.assemble_s": "s",
    "optimize.search_s": "s",
    "optimize.evaluations": "count",
    "optimize.D_cache_hit_ratio": "ratio",
    "verify.property_battery_s": "s",
    "verify.reproduction_battery_s": "s",
    "cusps.extend_bounds_s": "s",
    "cli.count_s": "s",
    "cli.bounds_s": "s",
    "cli.cusp_extend_s": "s",
    "cli.optimize_s": "s",
    "cli.selftest_s": "s",
    "cli.reproduce_paper_s": "s",
    "cli.main_self_s": "s",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.traced_jobs_per_s": "1/s",
    "trace.overhead_jobs_per_s": "1/s",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GREENBOUND_THREADS"}
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child to completion (killing it at the deadline) and return its stdout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env())
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"benchmark child did not finish in time: {argv[:3]}")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"benchmark child exited with {proc.returncode}: {argv[:3]}")
    return out


def measure_setup(workload: str, deadline: float) -> float:
    """Median import time of the package in fresh interpreters, after one warm-up import.

    Each interpreter warms up the speed probe, then times its import with a
    speed.Meter and reports it in reference seconds.
    """
    module = "greenbound.cli" if workload == "cli-session" else "greenbound"
    code = (
        "import sys\n"
        f"sys.path.append({HERE!r})\n"
        "import speed\n"
        "for _ in range(5):\n"
        "    speed.probe()\n"
        "with speed.Meter() as meter:\n"
        "    meter.lap()\n"
        f"    import {module}\n"
        "    print(repr(meter.lap()))\n"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        value = float(run_child([sys.executable, "-c", code], deadline).strip().splitlines()[-1])
        if i:
            times.append(value)
    return statistics.median(times)


def tail_rank(n: int) -> tuple[int, float]:
    """(rank, percentile) of the highest percentile with at least ten of n jobs beyond it."""
    k = max(n - 10, 1)
    return k, 100.0 * k / n


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))-weighted
    mean of the order statistics.

    A round holds one job per cost stratum, so the plain median is one or two
    jobs, each off by the 10-20% a single job's time moves in a run; weighting
    the jobs around the quantile halves that spread (simulated on the measured
    lattice-grid job costs, per-job noise 10% and 20%).
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200 * n
    cdf, total, previous = [0.0], 0.0, 0.0
    for j in range(1, steps + 1):
        x = j / steps
        density = math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)) if j < steps else 0.0
        total += 0.5 * (previous + density) / steps
        previous = density
        cdf.append(total)
    weights = [(cdf[200 * i] - cdf[200 * (i - 1)]) / total for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, ordered))


def source_commit() -> str | None:
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    root = os.path.join("src", "greenbound")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(root, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "GREENBOUND_THREADS": "unset in the workload process",
        "loop": "single process, single thread, closed loop",
    }


def end_to_end(result: dict, setup_s: float) -> tuple[dict, str]:
    """The end-to-end metrics and a note on how the tail was taken.

    The median and the tail are taken within each round, whose job count is
    fixed, and the median over rounds is reported: a faster program runs more
    rounds, but the percentile the tail stands for stays the same.
    """
    rounds = result["round_job_s"]
    n = len(rounds[0])
    rank, tail_pct = tail_rank(n)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": sum(len(job_s) for job_s in rounds) / result["loop_s"],
        "job_p50_s": statistics.median([harrell_davis(job_s, 0.5) for job_s in rounds]),
        "job_tail_s": statistics.median([harrell_davis(job_s, rank / n) for job_s in rounds]),
        "fail_ratio": len(result["failures"]) / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    values.update(result["summary"])
    note = (
        f"job_p50_s and job_tail_s are Harrell-Davis estimates of the p50 and p{tail_pct:.1f} job time "
        f"of a round of {n} jobs ({n - rank} beyond the latter), median over {len(rounds)} round(s); "
        f"times in reference seconds: the loop took {result['loop_s']:.3f} of them in "
        f"{result['wall_s']:.3f} wall seconds, speed probes and round generation included"
    )
    return values, note


def per_layer(result: dict) -> dict:
    calls, total, own, counts = result["calls"], result["total_s"], result["self_s"], result["counts"]
    c = lambda name: calls.get(name, 0)  # noqa: E731
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    n = lambda name: counts.get(name, 0)  # noqa: E731
    resolve_calls = n("lattice.resolve_calls")
    evaluations = n("optimize.evaluations")
    values = {
        "lattice.count_bound_s": t("lattice.count_bound"),
        "lattice.enumerate_s": t("lattice.enumerate_candidates"),
        "lattice.candidates": n("lattice.candidates"),
        "lattice.cells": n("lattice.cells"),
        "lattice.screen_s": own.get("lattice.count_bound", 0.0),
        "lattice.resolve_calls": resolve_calls,
        "lattice.resolve_s": t("lattice.resolve"),
        "lattice.resolve_hit_ratio": n("lattice.resolve_hits") / resolve_calls if resolve_calls else 0.0,
        "specfun.legendre_P_negm_calls": c("specfun.legendre_P_negm"),
        "specfun.legendre_P_negm_s": t("specfun.legendre_P_negm"),
        "specfun.log_gamma_complex_calls": c("specfun.log_gamma_complex"),
        "specfun.log_gamma_complex_s": t("specfun.log_gamma_complex"),
        "transforms.h_U_pm_calls": c("transforms.h_U_pm"),
        "transforms.h_U_pm_s": t("transforms.h_U_pm"),
        "transforms.I_delta_pm_s": t("transforms.I_delta_pm"),
        "transforms.tail_calls": c("transforms.averaged_transform_tail"),
        "quad.integrate_to_infinity_calls": c("quad.integrate_to_infinity"),
        "quad.integrate_to_infinity_s": t("quad.integrate_to_infinity"),
        "cusps.N_delta_eps_s": t("cusps.N_delta_eps"),
        "specfun.p_sigma_calls": c("specfun.p_sigma"),
        "specfun.p_sigma_s": t("specfun.p_sigma"),
        "bounds.D_evals": c("bounds.D_one_sign"),
        "bounds.compute_D_s": t("bounds.compute_D"),
        "bounds.assemble_s": t("bounds.assemble"),
        "optimize.search_s": t("optimize.search"),
        "optimize.evaluations": evaluations,
        "optimize.D_cache_hit_ratio": 1.0 - n("optimize.D_evals") / (2.0 * evaluations) if evaluations else 0.0,
        "verify.property_battery_s": t("verify.property_battery"),
        "verify.reproduction_battery_s": t("verify.reproduction_battery"),
        "cusps.extend_bounds_s": t("cusps.extend_bounds"),
        "cli.count_s": t("cli.count"),
        "cli.bounds_s": t("cli.bounds"),
        "cli.cusp_extend_s": t("cli.cusp_extend"),
        "cli.optimize_s": t("cli.optimize"),
        "cli.selftest_s": t("cli.selftest"),
        "cli.reproduce_paper_s": t("cli.reproduce_paper"),
        "cli.main_self_s": own.get("cli.main", 0.0),
        "trace.untraced_jobs_per_s": result["untraced_jobs_per_s"],
        "trace.traced_jobs_per_s": result["traced_jobs_per_s"],
        "trace.overhead_jobs_per_s": result["traced_jobs_per_s"] - result["untraced_jobs_per_s"],
    }
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "greenbound", "__init__.py")):
        print("perfbench: run from the root of a greenbound checkout (src/greenbound not found)", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        setup_s = None if args.trace else measure_setup(args.workload, deadline)
        trace_out = os.path.join(SCRATCH, f"trace-{args.workload}-seed{args.seed}.json")
        out = run_child(
            [
                sys.executable,
                os.path.join(HERE, "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--workdir", workdir,
                "--trace-out", trace_out,
            ],
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])

    print(f"greenbound benchmark: {args.workload}, seed {args.seed}, {'traced' if args.trace else 'end-to-end'}")
    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    if args.trace:
        values = per_layer(result)
        units = {name: PER_LAYER[name] for name in values}
        print(
            f"traced run: the first quarter of a seeded round of {result['round_jobs']} jobs untraced, then "
            f"the fixed jobs, the whole round and the coverage calls traced; spans in {trace_out}"
        )
        print("fixed jobs (ROADMAP baseline-table inputs), traced wall time:")
        for label, seconds in result["fixed_s"].items():
            print(f"  {seconds:10.3f} s  {label}")
        print(f"{'self time by span':<40} {'calls':>10} {'self s':>12} {'total s':>12}")
        for name in sorted(result["self_s"], key=lambda k: -result["self_s"][k]):
            print(f"  {name:<38} {result['calls'][name]:>10} {result['self_s'][name]:>12.4f} {result['total_s'][name]:>12.4f}")
    else:
        values, note = end_to_end(result, setup_s)
        units = {name: END_TO_END[name] for name in values}
        print(note)
    print(f"{'metric':<36} {'value':>16}  unit")
    for name, value in values.items():
        print(f"  {name:<34} {value:>16.6g}  {units[name]}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    failed = len(result["failures"])
    reported = {k: v for k, v in values.items() if k != "fail_ratio"}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
