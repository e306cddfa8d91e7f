"""One workload in a fresh interpreter: the timed closed loop, or the traced run.

Started by run.py with the package on PYTHONPATH and GREENBOUND_THREADS
unset; prints one JSON object on its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --trace-out FILE
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time

import speed
import tracing
import workloads


def make_workload(name: str, workdir: str):
    if name == "lattice-grid":
        return workloads.LatticeGrid()
    if name == "spectral-strip":
        return workloads.SpectralStrip()
    if name == "cli-session":
        return workloads.CliSession(workdir)
    raise SystemExit(f"unknown workload {name!r}")


def seeded_round(workload, rng: random.Random) -> list:
    jobs = workload.seeded_jobs(rng)
    rng.shuffle(jobs)
    return jobs


def run_jobs(workload, jobs: list, clock=speed.Meter) -> tuple[list, float]:
    """Run jobs back to back; return (job, output, error, seconds) records and the loop time.

    Times are in reference seconds, measured by a speed.Meter, or in wall
    seconds with clock=speed.Stopwatch, which the traced run uses so that no
    probe runs inside a traced span.  A full
    collection before each job, inside the loop time but outside the job's
    time, keeps the garbage of one job from being collected in the next.
    """
    done = []
    loop_s = 0.0
    with clock() as meter:
        for job in jobs:
            gc.collect()
            loop_s += meter.lap()
            try:
                output, error = workload.run(job), None
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                output, error = None, f"{type(exc).__name__}: {exc}"
            seconds = meter.lap()
            done.append((job, output, error, seconds))
            loop_s += seconds
    return done, loop_s


def check_jobs(workload, done: list, seed: int) -> list[str]:
    failures = []
    for index, (job, output, error, _) in enumerate(done):
        if error is None:
            try:
                error = workload.check(job, output, random.Random(f"{seed}/{index}"))
            except Exception as exc:  # an oracle that cannot read the output fails the job
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{job.label()}: {error}")
    return failures


def timed_loop(workload, seed: int, seconds: float) -> dict:
    """Closed loop: whole seeded rounds, back to back, until `seconds` of wall time have passed.

    Every round holds the same number of jobs, and the job times are kept
    per round, so that statistics taken within a round keep their meaning
    however many rounds a run holds.
    """
    rng = random.Random(seed)
    workload.warm_up()
    done, rounds, loop_s = [], [], 0.0
    clock = time.perf_counter
    start = clock()
    while not done or clock() - start < seconds:
        jobs = seeded_round(workload, rng)  # generated outside the timed region
        records, elapsed = run_jobs(workload, jobs)
        done += records
        rounds.append([r[3] for r in records])
        loop_s += elapsed
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_jobs(workload, done, seed)
    return {
        "loop_s": loop_s,
        "wall_s": wall_s,
        "round_job_s": rounds,
        "attempted": len(done),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "summary": workload.summary(done),
    }


def traced_run(workload, seed: int, workdir: str, trace_path: str) -> dict:
    """The first quarter of a seeded round untraced; then, traced, the fixed
    jobs, the whole round and the coverage calls of workloads.coverage.

    The counters repeat exactly for a seed.  The overhead compares the two
    passes over that quarter; a quarter keeps the run within its time limit.
    """
    workload.warm_up()
    part = len(seeded_round(workload, random.Random(seed))) // 4
    wall = speed.Stopwatch
    plain, plain_s = run_jobs(workload, seeded_round(workload, random.Random(seed))[:part], wall)
    tracer = tracing.Tracer(workloads)
    tracer.install()
    try:
        fixed, _ = run_jobs(workload, workload.fixed_jobs(), wall)
        traced, _ = run_jobs(workload, seeded_round(workload, random.Random(seed)), wall)
        extra = [(owner, run_jobs(owner, jobs, wall)[0]) for owner, jobs in workloads.coverage(workdir)]
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    failures = check_jobs(workload, plain, seed) + check_jobs(workload, fixed + traced, seed)
    for owner, done in extra:
        failures += check_jobs(owner, done, seed)
    return {
        "attempted": len(plain) + len(fixed) + len(traced) + sum(len(done) for _, done in extra),
        "failures": failures,
        "fixed_s": {r[0].label(): r[3] for r in fixed},
        "round_jobs": len(traced),
        "untraced_jobs_per_s": part / plain_s,
        "traced_jobs_per_s": part / sum(r[3] for r in traced[:part]),
        "calls": dict(tracer.calls),
        "total_s": dict(tracer.total),
        "self_s": dict(tracer.self_time),
        "counts": dict(tracer.counts),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    workload = make_workload(args.workload, args.workdir)
    if args.trace:
        result = traced_run(workload, args.seed, args.workdir, args.trace_out)
    else:
        result = timed_loop(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
