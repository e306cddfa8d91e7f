"""The three benchmark workloads: job generators, job runners and oracles.

A workload hands out seeded jobs one round at a time; the end-to-end run is
a closed loop over whole rounds.  The fixed jobs (the inputs of the
ROADMAP.md baseline table for the workload's layers) run in the traced run,
next to one seeded round.

Parameters that set the amount of work (grid side, |Im s|, eps, |xi|, the
distance of a sub-rectangle from the domain's centre) follow
a stratified quantile design: a round holds one job at the midpoint of each
equal-probability stratum of the parameter's distribution, so every round
covers the whole range and runs with different seeds do the same amount of
work.  With independent draws instead, the median and tail job times moved
by 20-40% from seed to seed.  The seed sets every other input: the
side of each sub-rectangle, the line and the sign of Im s, the direction of xi, the
parameter sets, n_bar, the cusp radii, the objectives and iteration counts,
the job order and the oracle's sample points.

`run` executes one job (the timed part) and returns only what its oracle
needs; `check` compares that output with a computation that does not go
through the code under test, and runs after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

from greenbound.bounds import GroupContext, ParamSet, assemble, compute_D, group_preset, reference_params
from greenbound.cli import main as cli_main, parse_bound_report, parse_count_certificate, parse_cusp_report
from greenbound.cusps import N_delta_eps
from greenbound.geom import Rectangle, UpperHalfPoint
from greenbound.lattice import count_bound, exact_count, truncated_fundamental_domain
from greenbound.transforms import I_delta_pm, TrapezoidParams, h_U_pm

WINDOW = (206, 227)  # acceptance window of the U = 17 count on the full domain
N_BAR_REFERENCE = 216.0  # the certified count cap the reference certificate uses
GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


@dataclass
class Job:
    kind: str
    args: dict
    fixed: bool = False
    extra: dict = field(default_factory=dict)

    def label(self) -> str:
        return f"{'fixed ' if self.fixed else ''}{self.kind} {self.args}"


def log_quantiles(lo: float, hi: float, strata: int) -> list[float]:
    """Midpoints of `strata` equal-probability strata of the log-uniform law on [lo, hi]."""
    return [lo * (hi / lo) ** ((k + 0.5) / strata) for k in range(strata)]


def quantiles(lo: float, hi: float, strata: int) -> list[float]:
    """Midpoints of `strata` equal-probability strata of the uniform law on [lo, hi]."""
    return [lo + (hi - lo) * (k + 0.5) / strata for k in range(strata)]


def sub_rectangle(rng: random.Random, box: Rectangle, shift: float) -> Rectangle:
    """Half the width and half the height of box, centred in y, on a seeded side.

    The left edge sits `shift` of the way across its range, on the left or
    (seeded) on the mirror image.  The y position sets how many matrices are
    candidates; the distance from the centre moves the cost by up to a third,
    and the side not at all, as the domain is symmetric under x -> -x.  So
    `shift` is fixed per stratum and the seed picks the side.
    """
    width = 0.5 * (box.x_max - box.x_min)
    y_mid, half = 0.5 * (box.y_min + box.y_max), 0.25 * (box.y_max - box.y_min)
    x0 = box.x_min + shift * (box.x_max - width - box.x_min)
    if rng.random() < 0.5:
        x0 = box.x_min + box.x_max - width - x0
    return Rectangle(x0, x0 + width, y_mid - half, y_mid + half)


def reference_count_bound() -> float:
    """The 20x20 full-domain U = 17 count, for workloads without count jobs.

    Every run reports every end-to-end metric, so the certificate metrics of a
    workload without such jobs come from one untimed reference job.
    """
    return float(count_bound(truncated_fundamental_domain(), 17.0, (20, 20)).bound)


def reference_cert_width() -> float:
    """Width of the theorem-exact certificate at the reference parameters."""
    return assemble(reference_params(), group_preset("sl2z"), N_BAR_REFERENCE).width


class LatticeGrid:
    """count_bound(region, U, grid) jobs; the lattice layer does all the work."""

    name = "lattice-grid"
    GRID = (10, 400)  # 10x10 is the coarsest grid whose full-domain bound meets WINDOW
    U_JOBS = {17.0: 10, 9.0: 9, 5.0: 9}  # weighted toward U = 17

    def __init__(self) -> None:
        self.full = truncated_fundamental_domain()

    def fixed_jobs(self) -> list[Job]:
        return [Job("count_bound", {"region": self.full, "U": 17.0, "grid": (n, n)}, fixed=True) for n in (100, 400)]

    def seeded_jobs(self, rng: random.Random) -> list[Job]:
        jobs, subs = [], 0
        for U, count in self.U_JOBS.items():
            for k, side in enumerate(log_quantiles(*self.GRID, count)):
                # Alternate strata, the finest included, cover the full domain;
                # the others a sub-rectangle, whose shifts follow the golden-ratio
                # sequence so that a round covers their range evenly.
                if (count - k) % 2 == 1:
                    region = self.full
                else:
                    subs += 1
                    region = sub_rectangle(rng, self.full, (subs * GOLDEN) % 1.0)
                n = round(side)
                jobs.append(Job("count_bound", {"region": region, "U": U, "grid": (n, n)}))
        return jobs

    def warm_up(self) -> None:
        count_bound(self.full, 5.0, (4, 4))

    def run(self, job: Job):
        a = job.args
        return count_bound(a["region"], a["U"], a["grid"]).bound

    def check(self, job: Job, bound, rng: random.Random) -> str | None:
        a = job.args
        region, U = a["region"], a["U"]
        if region == self.full and U == 17.0 and not (WINDOW[0] <= bound <= WINDOW[1]):
            return f"bound {bound} outside {list(WINDOW)}"
        for _ in range(4):
            z = UpperHalfPoint(rng.uniform(region.x_min, region.x_max), rng.uniform(region.y_min, region.y_max))
            exact = exact_count(z, z, U)
            if exact > bound:
                return f"exact count {exact} at ({z.x}, {z.y}) exceeds bound {bound}"
        return None

    def summary(self, done) -> dict:
        bounds = [out for _, out, err, _ in done if err is None]
        mean = sum(bounds) / len(bounds) if bounds else float("nan")
        return {"count_bound_mean": mean, "cert_width_mean": reference_cert_width()}


def _legendre_mp(s: complex, u: float):
    import mpmath

    return mpmath.legenp(mpmath.mpc(s) - 1, -2, u, type=3)


def h_U_pm_mpmath(params: TrapezoidParams, sign: int, s: complex, U: float) -> complex:
    """The trapezoid transform as a difference quotient of mpmath Legendre values.

    The corners T and V are recomputed here from their closed forms.
    """
    import mpmath

    with mpmath.workdps(30):
        if sign > 0:
            V = U + params.beta_plus * U ** (-1.0 - params.alpha_plus) * (U * U - 1.0)
            top = (V * V - 1.0) * _legendre_mp(s, V) - (U * U - 1.0) * _legendre_mp(s, U)
            return complex(2.0 * mpmath.pi * top / (V - U))
        T = U - params.beta_minus * U ** (-1.0 - params.alpha_minus) * (U * U - 1.0)
        top = (U * U - 1.0) * _legendre_mp(s, U)
        if T > 1.0:
            top -= (T * T - 1.0) * _legendre_mp(s, T)
        return complex(2.0 * mpmath.pi * top / (U - T))


def D_mpmath(params: ParamSet, sign: int):
    """D_plus or D_minus by mpmath quadrature in log U.

    The integrand is rebuilt here from the closed forms of C_sigma, p_sigma
    and the corners T and V.
    """
    import mpmath

    t = params.trapezoid
    if sign > 0:
        sigma, alpha, beta = params.sigma_plus, t.alpha_plus, t.beta_plus
    else:
        sigma, alpha, beta = params.sigma_minus, t.alpha_minus, t.beta_minus
    with mpmath.workdps(20):
        sigma, alpha, beta = mpmath.mpf(sigma), mpmath.mpf(alpha), mpmath.mpf(beta)
        common = max(1, mpmath.tan(mpmath.pi * sigma)) * (1 / sigma - 1) ** 0.25
        c_main = common * mpmath.exp(0.5 + 1 / (24 * sigma * (0.5 + sigma)))
        c_prime = common * mpmath.exp(0.5 + 1 / (24 * (1 - sigma) * (1.5 - sigma)))

        def envelope(u):
            x = u + mpmath.sqrt(u * u - 1)
            shape = (1 - x**-2) ** 1.5 + 3 * x**-2
            return (c_main * x ** (2 - sigma) + c_prime * x ** (1 + sigma)) / (4 * mpmath.sqrt(mpmath.pi)) * shape

        def integrand(log_u):
            U = t.delta * mpmath.exp(log_u)
            corner = U + sign * beta * U ** (-1 - alpha) * (U * U - 1)  # V for +1, T for -1
            return (envelope(U) + envelope(corner)) * U ** (2 + alpha) / (beta * (U * U - 1) ** 2)

        return float(mpmath.quad(integrand, [0, 1, 4, 16, 64, 256, mpmath.inf]))


class SpectralStrip:
    """I_delta_pm on the strip lines and N_delta_eps; specfun, transforms and _quad work.

    The fixed jobs also hold compute_D at the reference parameters, a row of
    the ROADMAP.md baseline table that no workload's round has.
    """

    name = "spectral-strip"
    IM_S = (0.5, 30.0)
    # With twelve I jobs and four N jobs, job_tail_s (ten jobs beyond it) is
    # the second cheapest I job, below job_p50_s, the mean of the fourth and
    # fifth: the low |Im s| strata.  Neither sees the costly high |Im s| jobs,
    # which move jobs_per_s only; a round long enough to lift the tail above
    # the median would not fit the run time.  N jobs are kept off both
    # figures, as their cost moves up to twofold with the seeded direction of
    # xi: they stay a minority and cheaper than any I job (the smallest eps,
    # the costliest, gets the smallest delta).
    I_JOBS = 12
    EPS = (0.05, 0.3)
    XI_ABS = (0.0, 0.9)
    N_DELTAS = (1.5, 2.0, 3.0, 2.0)

    def __init__(self) -> None:
        ref = reference_params()
        self.params = ref.trapezoid
        self.sigma = {+1: ref.sigma_plus, -1: ref.sigma_minus}
        self._D = None

    def fixed_jobs(self) -> list[Job]:
        return [
            Job("I_delta_pm", {"sign": +1, "s": complex(0.306, 30.0)}, fixed=True),
            Job("I_delta_pm", {"sign": -1, "s": complex(0.25, 2.0)}, fixed=True),
            Job("N_delta_eps", {"delta": 2.0, "eps": 0.05, "xi": 0.5j}, fixed=True),
            Job("compute_D", {"params": "reference"}, fixed=True),
        ]

    def seeded_jobs(self, rng: random.Random) -> list[Job]:
        jobs = []
        for k, im in enumerate(log_quantiles(*self.IM_S, self.I_JOBS)):
            sign = +1 if k % 2 == 0 else -1
            re = rng.choice((self.sigma[sign], 1.0 - self.sigma[sign]))
            jobs.append(Job("I_delta_pm", {"sign": sign, "s": complex(re, rng.choice((im, -im)))}))
        n = len(self.N_DELTAS)
        # |xi| strata run against eps strata: the smallest eps gets the largest |xi|.
        for delta, eps, r in zip(self.N_DELTAS, quantiles(*self.EPS, n), quantiles(*self.XI_ABS, n)[::-1]):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            xi = complex(r * math.cos(angle), r * math.sin(angle))
            jobs.append(Job("N_delta_eps", {"delta": delta, "eps": eps, "xi": xi}))
        return jobs

    def warm_up(self) -> None:
        N_delta_eps(2.0, 0.3, 0.1)

    def run(self, job: Job):
        a = job.args
        if job.kind == "I_delta_pm":
            return I_delta_pm(self.params, a["sign"], a["s"])
        if job.kind == "compute_D":
            return compute_D(reference_params())
        return N_delta_eps(a["delta"], a["eps"], a["xi"])

    def check(self, job: Job, value, rng: random.Random) -> str | None:
        a = job.args
        if job.kind == "compute_D":
            # compute_D adds a majorant of the truncated tail: an upper estimate within its 1e-6 tolerance.
            for sign, ours in zip((+1, -1), value):
                oracle = D_mpmath(reference_params(), sign)
                if not oracle * (1.0 - 1e-12) <= ours <= oracle * (1.0 + 1e-5):
                    return f"D at sign {sign} is {ours}, mpmath gives {oracle}"
            return None
        if job.kind == "N_delta_eps":
            delta, eps, xi = a["delta"], a["eps"], a["xi"]
            root = math.sqrt((delta - 1.0) / 2.0)
            main = (2.0 / math.pi) * math.atan(root) / eps - math.log(abs(1.0 - xi)) / (2.0 * math.pi)
            r_delta = (math.sqrt(2.0 / (delta - 1.0)) + math.atan(root)) / (24.0 * math.pi)
            if not abs(value - main) <= eps * r_delta:
                return f"N = {value} is {abs(value - main):.3e} from its main term, allowed {eps * r_delta:.3e}"
            return None
        if self._D is None:
            self._D = dict(zip((+1, -1), compute_D(reference_params())))
        sign, s = a["sign"], a["s"]
        cap = self._D[sign] * abs(s * (1.0 - s)) ** -1.25
        if not abs(value) <= cap:
            return f"|I| = {abs(value):.6e} exceeds D |s(1-s)|^(-5/4) = {cap:.6e}"
        U = self.params.delta * math.exp(rng.uniform(0.0, math.log(32.0)))
        ours = h_U_pm(self.params, sign, s, U)
        oracle = h_U_pm_mpmath(self.params, sign, s, U)
        if not abs(ours - oracle) <= 1e-9 * abs(oracle):
            return f"h_U_pm at U = {U} is {ours}, mpmath gives {oracle}"
        return None

    def summary(self, done) -> dict:
        return {"count_bound_mean": reference_count_bound(), "cert_width_mean": reference_cert_width()}


class CliSession:
    """In-process greenbound.cli.main calls, as a user session would make them."""

    name = "cli-session"
    N_BAR = (50.0, 400.0)
    COUNT_GRID = (10, 50)
    ITERS = (5, 25)
    # Job times, cheapest first: six bounds and four cusp calls (a few ms in
    # paper mode, tens of ms in exact mode, which computes D once), eight
    # count calls (a few tenths of a second), then four calls of a second or
    # more.  The median and the tail percentile fall on the cheapest counts.
    # On the tens-of-ms calls they did not hold still: a run's share of calls
    # that meet a slow phase of the shared machine moved them by 26-28%.
    BOUNDS_PAIRS = {"exact": 2, "paper": 1}
    COUNT_JOBS = 8

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self._files = 0
        self.ref = reference_params()
        self.group = group_preset("sl2z")

    def _path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.workdir, f"{self._files:05d}-{stem}.json")

    def _job(self, argv: list[str], expect: int = 0, fixed: bool = False, width: bool = False) -> Job:
        out = self._path(argv[0])
        extra = {"json": out, "expect": expect, "width": width}
        return Job("cli", {"argv": argv + ["--json", out]}, fixed=fixed, extra=extra)

    def fixed_jobs(self) -> list[Job]:
        return [
            self._job(["reproduce-paper"], expect=3, fixed=True),
            self._job(["selftest"], fixed=True),
            self._job(["bounds", "--mode", "exact"], fixed=True, width=True),
            self._job(["optimize", "--max-iters", "25"], fixed=True, width=True),
        ]

    def _params_config(self, rng: random.Random) -> str:
        """Reference parameters scaled by up to 10% each, kept inside the valid set."""
        t = self.ref.trapezoid

        def jitter(x: float) -> float:
            return x * math.exp(rng.uniform(-0.1, 0.1))

        alpha_minus = jitter(t.alpha_minus)
        cap = t.delta ** (1.0 + alpha_minus) / (t.delta + 1.0)
        sigma_top = 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * self.group.eta))
        params = {
            "delta": t.delta,
            "alpha_plus": jitter(t.alpha_plus),
            "alpha_minus": alpha_minus,
            "beta_plus": jitter(t.beta_plus),
            "beta_minus": min(jitter(t.beta_minus), 0.999 * cap),
            "sigma_plus": min(jitter(self.ref.sigma_plus), 0.999 * sigma_top),
            "sigma_minus": min(jitter(self.ref.sigma_minus), 0.999 * sigma_top),
        }
        path = self._path("config")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"params": params}, handle)
        return path

    def seeded_jobs(self, rng: random.Random) -> list[Job]:
        jobs = []
        n_lo, n_hi = self.N_BAR
        for mode, pairs in self.BOUNDS_PAIRS.items():
            for _ in range(pairs):
                # n_bar and n_lo + n_hi - n_bar: the pair's mean width stays the same.
                n_bar = rng.uniform(n_lo, n_hi)
                for n in (n_bar, n_lo + n_hi - n_bar):
                    argv = ["bounds", "--mode", mode, "--config", self._params_config(rng), "--n-bar", repr(n)]
                    jobs.append(self._job(argv, width=True))
        t = self.ref.trapezoid
        spread = t.delta + math.sqrt(t.delta * t.delta - 1.0)
        for case in ("a", "a_prime", "b", "c"):
            eps_prime = rng.uniform(0.2, 0.99) * self.group.min_c / math.sqrt(spread)
            eps = rng.uniform(0.2, 0.99) * eps_prime / spread
            argv = ["cusp-extend", "--case", case, "--eps", repr(eps), "--eps-prime", repr(eps_prime)]
            jobs.append(self._job(argv + ["--mode", rng.choice(("exact", "paper"))]))
        i_lo, i_hi = self.ITERS
        iters = rng.randint(i_lo, i_hi)
        objectives = rng.sample(("width", "max-abs"), 2)
        for n, objective in zip((iters, i_lo + i_hi - iters), objectives):  # the pair's total work stays the same
            argv = ["optimize", "--objective", objective, "--max-iters", str(n)]
            jobs.append(self._job(argv, width=True))
        # The full domain: on a sub-rectangle the cost depends on its seeded
        # position, and these jobs set the median.
        for side in log_quantiles(*self.COUNT_GRID, self.COUNT_JOBS):
            n = round(side)
            jobs.append(self._job(["count", "--grid", f"{n}x{n}", "--U", "17", "--preset", "y0"]))
        jobs.append(self._job(["selftest"]))
        jobs.append(self._job(["reproduce-paper", "--grid", "50x50"], expect=3))
        return jobs

    def warm_up(self) -> None:
        self.run(self._job(["bounds", "--mode", "exact"]))

    def run(self, job: Job):
        err = io.StringIO()
        with open(os.devnull, "w", encoding="utf-8") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(job.args["argv"])
                except SystemExit as exc:
                    code = exc.code
        return code, err.getvalue()

    def check(self, job: Job, output, rng: random.Random) -> str | None:
        code, err = output
        command = job.args["argv"][0]
        if code != job.extra["expect"]:
            return f"exit code {code}, expected {job.extra['expect']}: {err.strip()[-300:]}"
        with open(job.extra["json"], encoding="utf-8") as handle:
            record = json.load(handle)
        if command == "reproduce-paper":
            failed = [c["name"] for c in record["checks"] if not c["passed"]]
            return None if failed == ["D_plus"] else f"failed checks {failed}, expected ['D_plus']"
        if command == "selftest":
            return None if record["passed"] else "selftest record not passed"
        if command == "count":
            cert = parse_count_certificate(record)
            same = cert.bound == record["bound"] and list(cert.grid) == record["grid"]
            return None if same else "count record does not round-trip"
        if command == "cusp-extend":
            report = parse_cusp_report(record)
            same = all(getattr(report, k) == record[k] for k in ("case", "base_A", "base_B", "A_tilde", "B_tilde"))
            return None if same else "cusp record does not round-trip"
        report = parse_bound_report(record)
        if (report.A, report.B, report.width) != (record["A"], record["B"], record["width"]):
            return f"{command} record does not round-trip"
        if command == "optimize":
            best = record["best_params"]
            shape = ("delta", "alpha_plus", "alpha_minus", "beta_plus", "beta_minus")
            params = ParamSet(
                trapezoid=TrapezoidParams(**{k: best[k] for k in shape}),
                sigma_plus=best["sigma_plus"],
                sigma_minus=best["sigma_minus"],
            )
            group = GroupContext(**record["config"]["group"])
            again = assemble(params, group, record["config"]["n_bar"], mode="theorem-exact")
            for name in ("A", "B"):
                ours, theirs = getattr(again, name), record[name]
                if not abs(ours - theirs) <= 1e-9 * abs(theirs):
                    return f"assemble at the optimized parameters gives {name} = {ours}, optimize said {theirs}"
        return None

    def summary(self, done) -> dict:
        widths = []
        for job, out, err, _ in done:
            if err is None and job.extra["width"] and out[0] == 0:
                with open(job.extra["json"], encoding="utf-8") as handle:
                    widths.append(json.load(handle)["width"])
        mean = sum(widths) / len(widths) if widths else float("nan")
        return {"count_bound_mean": reference_count_bound(), "cert_width_mean": mean}


def coverage(workdir: str) -> list[tuple[object, list[Job]]]:
    """Small calls into every traced layer, grouped by the workload that runs them.

    The traced run adds them to every workload, so that no per-layer metric
    reads 0 because its layer is idle in that workload; they take a few
    seconds against the tens a traced round takes.
    """
    cli_dir = os.path.join(workdir, "coverage")
    os.makedirs(cli_dir, exist_ok=True)
    lattice, spectral, cli = LatticeGrid(), SpectralStrip(), CliSession(cli_dir)
    return [
        (lattice, [Job("count_bound", {"region": lattice.full, "U": 17.0, "grid": (10, 10)})]),
        (
            spectral,
            [
                Job("I_delta_pm", {"sign": +1, "s": complex(0.694, 0.5)}),
                Job("N_delta_eps", {"delta": 2.0, "eps": 0.3, "xi": 0.1}),
            ],
        ),
        (
            cli,
            [
                cli._job(["selftest"]),
                cli._job(["reproduce-paper", "--grid", "10x10"], expect=3),
                cli._job(["bounds", "--mode", "exact"]),
                cli._job(["cusp-extend", "--case", "c", "--eps", "0.05", "--eps-prime", "0.2"]),
                cli._job(["count", "--grid", "4x4"]),
                cli._job(["optimize", "--max-iters", "2"]),
            ],
        ),
    ]
