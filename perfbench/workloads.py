"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, warms the code paths it
times, and then runs passes.  A pass is a fixed group of timed operations,
each followed by an output check outside the timed region.  A workload names
three stages; the runner reports the median latency of each stage and the
rate at which the workload's unit of work completes.

The workloads call the library only through public entry points and look
every function up on its module at call time, so that a traced run sees its
wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from time import perf_counter

import numpy as np
from scipy import special

from scopesets import cli, excursion, hypotests, preimage, quantile, scheffe, sim
from scopesets.dist import Rng
from scopesets.domain import Field, IndexSet
from scopesets.preimage import KPolicy, PreimageSets

ALPHA = 0.1


class CheckFailed(Exception):
    """An output did not match its reference."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class SpeedProbe:
    """Fixed reference work whose time tracks the speed of the machine.

    On a shared host the speed of a core drifts by tens of percent within
    seconds.  The probe runs fixed reference work next to every timed stage,
    and the stage time is rescaled by the probe's nominal time over its
    measured time, so the reported seconds are seconds at the probe's
    nominal speed.  Contention slows different kinds of work by different amounts, so each
    workload names the parts that resemble its own work:

    - ``interp``: interpreter work and calls on small arrays;
    - ``dense``: a 128 x 128 matrix product;
    - ``draw``: a 16,000-value normal draw with column reductions;
    - ``stream``: row maxima of an 8 MB matrix, larger than a core's L2.
    """

    # median seconds per part, measured on one core of a shared 2-vCPU KVM
    # guest (Xeon, Sapphire Rapids, 2.1 GHz) when the benchmark was defined
    NOMINAL_S = {"interp": 8.0e-5, "dense": 1.0e-4, "draw": 3.2e-4, "stream": 4.0e-4}

    # set-up and import are mostly interpreter work
    SETUP_PARTS = ("interp",)

    def __init__(self, parts, repeats: int):
        self.parts = tuple(parts)
        self.repeats = repeats
        self.nominal_s = sum(self.NOMINAL_S[p] for p in self.parts)
        self._a = np.random.default_rng(0).standard_normal((128, 128))
        self._v = np.linspace(0.0, 1.0, 4000)
        self._gen = np.random.Generator(np.random.PCG64(0))
        self._m = None
        if "stream" in self.parts:
            self._m = np.random.default_rng(1).standard_normal((800, 1334))
        self._fns = [getattr(self, f"_{p}") for p in self.parts]

    def _interp(self) -> float:
        s = 0.0
        for i in range(6):
            b = self._v * (1.0 + i)
            s += float(np.minimum(b, self._v[::-1]).max())
        return s + sum(j * j for j in range(300))

    def _dense(self) -> float:
        return float((self._a @ self._a)[0, 0])

    def _draw(self) -> float:
        y = self._gen.standard_normal((2, 100, 80))
        return float(y.mean(axis=1).sum() + y.std(axis=1).sum())

    def _stream(self) -> float:
        return float(self._m.max(axis=1).sum())

    def __call__(self) -> float:
        """Measured over nominal time of the probe, averaged over the repeats."""
        t0 = perf_counter()
        for _ in range(self.repeats):
            for fn in self._fns:
                fn()
        return (perf_counter() - t0) / (self.repeats * self.nominal_s)


class Tally:
    """Timings, work and failures of one measured phase.

    ``times`` holds stage times at the probe's nominal speed, ``raw`` the
    wall-clock times they were scaled from.
    """

    def __init__(self, stages, probes: dict, tracer=None):
        self.stages = tuple(stages)
        self.times = {s: [] for s in self.stages}
        self.raw = {s: [] for s in self.stages}
        self.factors = []
        self.pass_s = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.bytes_read = 0
        self.bytes_written = 0
        self.probes = probes
        self.tracer = tracer
        self._pass_acc = 0.0
        self._last_probe = (None, 0.0)

    @contextlib.contextmanager
    def stage(self, name: str):
        probe = self.probes[name]
        last, value = self._last_probe
        before = value if last is probe else probe()
        span = self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span:
                yield
        finally:
            dt = perf_counter() - t0
            after = probe()
            self._last_probe = (probe, after)
            factor = 2.0 / (before + after)
            self.factors.append(factor)
            self.raw[name].append(dt)
            self.times[name].append(dt * factor)
            self._pass_acc += dt * factor

    @contextlib.contextmanager
    def op(self, label: str):
        """One attempted operation; an exception or failed check fails it."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # every failure is counted; the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {type(exc).__name__}: {exc}")

    def end_pass(self) -> None:
        self.pass_s.append(self._pass_acc)
        self._pass_acc = 0.0
        if self.tracer is not None:
            self.tracer.op += 1


def _close(a, b, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _masks_agree(prog: np.ndarray, ref: np.ndarray, margin: np.ndarray, tol: float) -> bool:
    """Masks equal except where the reference sits within tol of its boundary."""
    differ = prog != ref
    return not np.any(differ & (margin > tol))


def _two_sided_q(m: int, df: float) -> float:
    """Reference two-sided product-CDF critical value, straight from scipy."""
    if m == 0:
        return 0.0
    return float(special.stdtrit(df, (1.0 + (1.0 - ALPHA) ** (1.0 / m)) / 2.0))


def _bh_count(p: np.ndarray) -> int:
    ps = np.sort(p)
    ok = np.flatnonzero(ps <= ALPHA * np.arange(1, p.size + 1) / p.size)
    return int(ok[-1] + 1) if ok.size else 0


def _quiet_cli(argv) -> None:
    """Run one CLI call in-process with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    check(rc == 0, f"{argv[0]} exit code {rc}: {sink.getvalue().strip()[:200]}")


def _count_bytes(tally: Tally, inputs, out_dir) -> None:
    """Add the sizes of a CLI call's input files and of the files it wrote."""
    tally.bytes_read += sum(os.path.getsize(p) for p in inputs)
    tally.bytes_written += sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


class SimHarness:
    """The ``simulate`` subcommand on model B across a small-to-large N grid.

    Each N runs as CALLS calls of REPS replications with their own seeds, so
    no single timed call is long and the coverage check still pools
    CALLS * REPS replications.
    """

    name = "sim-harness"
    stages = ("simulate_N30", "simulate_N100", "simulate_N500")
    work_unit = "reps"
    probe_repeats = 10
    probe_parts = dict.fromkeys(stages, ("interp", "draw"))
    N_GRID = (30, 100, 500)
    REPS, CALLS = 500, 4
    METHODS = "oracle,storey,log_kappa(3),scb(0.9)"
    ROWS = ["oracle", "storey", "log(N)/3", "0.9-SCB", "hommel", "bh"]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.reference = {}

    def _config(self, N: int, reps: int, seed: int) -> str:
        path = os.path.join(self.workdir, f"sim_N{N}_reps{reps}_seed{seed}.txt")
        with open(path, "w") as fh:
            fh.write(
                f"model=B\nalpha={ALPHA}\nreps={reps}\nN_list={N}\nJ=80\n"
                f"methods={self.METHODS}\nbaselines=hommel,bh\nseed={seed}\n"
            )
        return path

    def setup(self) -> None:
        self.calls = []
        for N in self.N_GRID:
            out = os.path.join(self.workdir, f"sim_N{N}")
            os.makedirs(out, exist_ok=True)
            seeds = [self.CALLS * self.seed + i for i in range(self.CALLS)]
            self.calls.append((N, [self._config(N, self.REPS, s) for s in seeds], out))
            _quiet_cli(["simulate", "--config", self._config(N, 50, seeds[0]), "--out", out])

    def run_pass(self, tally: Tally) -> None:
        for (N, configs, out), stage in zip(self.calls, self.stages):
            covs = []
            for config in configs:
                with tally.op(f"simulate N={N}"):
                    with tally.stage(stage):
                        _quiet_cli(["simulate", "--config", config, "--out", out])
                    _count_bytes(tally, [config], out)
                    tally.work += self.REPS
                    covs.append(self._check(config, os.path.join(out, "modelB_table.csv")))
            with tally.op(f"coverage N={N}"):
                self._check_coverage(N, covs)

    def _check(self, config: str, table_path: str) -> float:
        with open(table_path, "rb") as fh:
            table = fh.read()
        first = self.reference.setdefault(config, table)
        check(table == first, f"{config}: table bytes differ from the first pass")
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        methods = [r["method"] for r in rows]
        check(methods == self.ROWS, f"{config}: unexpected rows {methods}")
        return float(rows[0]["cov"])

    def _check_coverage(self, N: int, covs) -> None:
        check(len(covs) == self.CALLS, f"N={N}: {self.CALLS - len(covs)} calls gave no table")
        # acceptance-style tolerance: 4 Monte-Carlo standard errors of the
        # pooled coverage around the nominal 90%
        reps = self.REPS * self.CALLS
        tol = 4.0 * 100.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / reps)
        cov = sum(covs) / len(covs)
        check(abs(cov - 100.0 * (1.0 - ALPHA)) <= tol,
              f"N={N}: pooled oracle coverage {cov:.2f} outside 90 +- {tol:.2f}")


class CliWide:
    """``scope``, ``insig`` and ``tests`` on one wide CSV, through ``cli.main``."""

    name = "cli-wide"
    stages = ("scope", "insig", "tests")
    work_unit = "calls"
    probe_repeats = 20
    probe_parts = dict.fromkeys(stages, ("interp", "dense", "draw"))
    N, J = 100, 10_000
    KAPPA = 3.0
    BAND = 0.25

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.calls = 0

    def _write_inputs(self, stem: str, N: int, J: int, rng) -> tuple[str, str]:
        # sparse signal: 2% of columns, amplitudes +-{0.3, 0.5, 0.8}; the
        # +-0.5 columns touch the band edges shifted by 0.25 in the leT call
        mu = np.zeros(J)
        sig = rng.choice(J, max(1, J // 50), replace=False)
        mu[sig] = rng.choice([-1.0, 1.0], sig.size) * rng.choice([0.3, 0.5, 0.8], sig.size)
        y = rng.standard_normal((N, J)) + mu
        data_path = os.path.join(self.workdir, f"{stem}.csv")
        np.savetxt(data_path, y, fmt="%.6g", delimiter=",")
        mu_path = os.path.join(self.workdir, f"{stem}_mu.csv")
        with open(mu_path, "w") as fh:
            fh.write("index,value\n")
            fh.writelines(f"{j},{float(v)!r}\n" for j, v in enumerate(mu))
        return data_path, mu_path

    def _argv(self, data, mu_path, kind, out):
        if kind == "scope":
            return ["scope", "--data", data, "--level", "0", "--kappa", str(self.KAPPA),
                    "--sided", "two_sided", "--alpha", str(ALPHA), "--out", out]
        if kind == "insig":
            return ["insig", "--data", data, "--kappa", str(self.KAPPA),
                    "--sided", "two_sided", "--alpha", str(ALPHA), "--out", out]
        band = ["--b-minus", str(-self.BAND), "--b-plus", str(self.BAND), "--alpha", str(ALPHA)]
        if kind == "lrT":
            return ["tests", "--data", data, "--kind", "lrT", *band,
                    "--kappa", str(self.KAPPA), "--out", out]
        return ["tests", "--data", data, "--kind", "leT", *band, "--mu", mu_path, "--out", out]

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.data, self.mu_path = self._write_inputs("cli_data", self.N, self.J, rng)
        # reference statistics from the exact CSV text the program reads
        y = np.loadtxt(self.data, delimiter=",", ndmin=2)
        self.mean = y.mean(axis=0)
        self.sd = y.std(axis=0, ddof=1)
        self.t = math.sqrt(self.N) * self.mean / self.sd
        df = self.N - 1
        k = math.log(self.N) / self.KAPPA
        self.m_hat = int(np.count_nonzero(np.abs(self.t) <= k))
        self.q = _two_sided_q(self.m_hat, df)
        self.k = k
        self.bh = _bh_count(2.0 * special.stdtr(df, -np.abs(self.t)))
        self.bonferroni = int(np.count_nonzero(
            2.0 * special.stdtr(df, -np.abs(self.t)) <= ALPHA / self.J))
        self.out = {}
        for kind in ("scope", "insig", "tests"):
            self.out[kind] = os.path.join(self.workdir, f"cli_{kind}")
            os.makedirs(self.out[kind], exist_ok=True)
        # warm-up on a small file exercises every path without the full cost
        warm, warm_mu = self._write_inputs("cli_warm", self.N, 200, rng)
        for kind in ("scope", "insig", "lrT", "leT"):
            out = self.out["tests" if kind in ("lrT", "leT") else kind]
            _quiet_cli(self._argv(warm, warm_mu, kind, out))

    def run_pass(self, tally: Tally) -> None:
        tests_kind = "lrT" if self.calls % 2 == 0 else "leT"
        self.calls += 1
        for stage, kind, checker in (("scope", "scope", self._check_scope),
                                     ("insig", "insig", self._check_insig),
                                     ("tests", tests_kind, self._check_tests)):
            out = self.out[stage]
            inputs = [self.data] + ([self.mu_path] if kind == "leT" else [])
            with tally.op(kind):
                with tally.stage(stage):
                    _quiet_cli(self._argv(self.data, self.mu_path, kind, out))
                _count_bytes(tally, inputs, out)
                tally.work += 1
                checker(out, kind)

    def _check_scope(self, out: str, _kind: str) -> None:
        meta = {}
        cls, mean, sd = [], [], []
        with open(os.path.join(out, "partition.csv"), newline="") as fh:
            for line in fh:
                if not line.startswith("#"):
                    break
                key, value = line[1:].strip().split("=", 1)
                meta[key] = value
            for row in csv.DictReader(io.StringIO(line + fh.read())):
                mean.append(float(row["mean"]))
                sd.append(float(row["sd"]))
                cls.append(row["class"])
        check(int(meta["m_hat"]) == self.m_hat, f"m_hat {meta['m_hat']} != {self.m_hat}")
        check(_close(float(meta["q_hat"]), self.q, 1e-5), f"q_hat {meta['q_hat']} != {self.q}")
        check(len(cls) == self.J, f"partition has {len(cls)} rows, expected {self.J}")
        check(np.allclose(mean, self.mean, rtol=1e-5, atol=0.0), "mean column differs")
        check(np.allclose(sd, self.sd, rtol=1e-5, atol=0.0), "sd column differs")
        cls = np.array(cls)
        margin = np.abs(np.abs(self.t) - self.q)
        check(_masks_agree(cls == "below", self.t < -self.q, margin, 1e-9 * self.q),
              "below class differs from t < -q")
        check(_masks_agree(cls == "above", self.t > self.q, margin, 1e-9 * self.q),
              "above class differs from t > q")

    def _check_insig(self, out: str, _kind: str) -> None:
        with open(os.path.join(out, "insig_report.csv"), newline="") as fh:
            row = next(csv.DictReader(fh))
        check(_close(float(row["k"]), self.k, 1e-5), f"k {row['k']} != {self.k}")
        check(_close(float(row["q_hat"]), self.q, 1e-5), f"q_hat {row['q_hat']} != {self.q}")
        n_scope = int(np.count_nonzero(np.abs(self.t) > self.q))
        check(int(row["n_scope"]) == n_scope, f"n_scope {row['n_scope']} != {n_scope}")
        check(int(row["n_bh"]) == self.bh, f"n_bh {row['n_bh']} != {self.bh}")
        n_hommel = int(row["n_hommel"])
        check(self.bonferroni <= n_hommel <= self.J,
              f"n_hommel {n_hommel} below the Bonferroni count {self.bonferroni}")

    def _check_tests(self, out: str, kind: str) -> None:
        with open(os.path.join(out, "test_decision.csv"), newline="") as fh:
            row = next(csv.DictReader(fh))
        check(row["kind"] == kind, f"kind {row['kind']} != {kind}")
        q = float(row["q"])
        check(math.isfinite(q) and q >= 0.0, f"critical value {q} not finite and >= 0")
        rejected = [int(i) for i in row["rejected"].split(";") if i]
        check(all(0 <= i < self.J for i in rejected), "rejected index outside the domain")
        check(rejected == sorted(set(rejected)), "rejected indices not sorted and unique")


class FieldLoop:
    """Many small-J realizations through the excursion-set objects."""

    name = "field-loop"
    stages = ("calibrate", "kernel", "tests")
    work_unit = "realizations"
    probe_repeats = 1
    probe_parts = dict.fromkeys(stages, ("interp",))
    N, J = 100, 80
    LEVELS = (-0.3, 0.0, 0.2)
    BAND = 0.1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.mu = sim.model_mu("B", self.J)
        dom = self.mu.domain
        self.dom = dom
        self.zero = Field.constant(dom, 0.0)
        self.fam = excursion.ThresholdFamily.symmetric([self.zero])
        self.band = hypotests.BandSpec(Field.constant(dom, -self.BAND),
                                       Field.constant(dom, self.BAND))
        self.cal = hypotests.Calibration(alpha=ALPHA, cov=("iid_t", self.N - 1))
        self.policy = KPolicy("log_over_kappa", kappa=3.0)
        self.tau = 1.0 / math.sqrt(self.N)
        warm = Tally(self.stages, dict.fromkeys(self.stages, SpeedProbe(("interp",), 1)))
        self.gen = np.random.default_rng([self.seed, 1])
        for _ in range(20):
            self.run_pass(warm)
        check(warm.failed == 0, f"warm-up failed: {warm.errors}")
        self.gen = np.random.default_rng(self.seed)

    def run_pass(self, tally: Tally) -> None:
        N, J = self.N, self.J
        y = self.gen.standard_normal((N, J)) + self.mu.values
        with tally.op("realization"):
            with tally.stage("calibrate"):
                mu_hat = Field(self.dom, y.mean(axis=0))
                sigma_hat = Field(self.dom, y.std(axis=0, ddof=1))
                k = preimage.resolve_k(self.policy, N, J, N - 1)
                sets = preimage.plugin_preimage_sets(mu_hat, (self.zero,), sigma_hat,
                                                     self.tau, k)
                est = quantile.iid_quantile(len(sets.both), ALPHA, df=N - 1,
                                            sided="two_sided")
                bands = excursion.ScopeBands(est.q, self.tau, sigma_hat)
            with tally.stage("kernel"):
                part = excursion.partition3(mu_hat, self.zero, self.zero, bands)
                regions = excursion.contour_regions(mu_hat, self.LEVELS, bands)
                event = excursion.scope_event(mu_hat, self.mu, bands, self.fam)
            with tally.stage("tests"):
                rel = hypotests.lrt(mu_hat, self.band, bands, quantile=self.cal, mu=self.mu)
                eqv = hypotests.let_(mu_hat, self.band, bands, quantile=self.cal, mu=self.mu)
            tally.work += 1
            self._check(mu_hat.values, est.q * self.tau * sigma_hat.values,
                        part, regions, event, rel, eqv, sigma_hat.values)

    def _check(self, mean, w, part, regions, event, rel, eqv, sd) -> None:
        J = self.J
        lo, mid, hi = (s.mask(J) for s in (part.lower, part.middle, part.upper))
        check(not np.any(lo & hi) and not np.any(lo & mid) and not np.any(mid & hi),
              "partition classes overlap")
        check(np.all(lo | mid | hi), "partition classes do not cover the domain")
        tol = 1e-12
        check(_masks_agree(lo, mean < -w, np.abs(mean + w), tol), "lower class differs")
        check(_masks_agree(hi, mean > w, np.abs(mean - w), tol), "upper class differs")
        for lev, region in zip(self.LEVELS, regions):
            ref = (mean >= lev - w) & (mean <= lev + w)
            margin = np.minimum(np.abs(mean - (lev - w)), np.abs(mean - (lev + w)))
            check(_masks_agree(region.mask(J), ref, margin, tol),
                  f"contour region at level {lev} differs")
        mu = self.mu.values
        broken = np.any((mean < -w) & ~(mu < 0.0)) or np.any((mean > w) & ~(mu > 0.0))
        margin = float(np.min(np.abs(np.abs(mean) - w)))
        check(event == (not broken) or margin <= tol, "scope_event differs from the mask reference")
        for dec, kind in ((rel, "lrT"), (eqv, "leT")):
            check(dec.kind == kind and dec.quantile_used.q >= 0.0, f"{kind} decision malformed")
        wt = rel.quantile_used.q * self.tau * sd
        ref = (mean < -self.BAND - wt) | (mean > self.BAND + wt)
        margin = np.minimum(np.abs(mean + self.BAND + wt), np.abs(mean - self.BAND - wt))
        check(_masks_agree(rel.rejected.mask(J), ref, margin, tol), "lrT rejections differ")
        we = eqv.quantile_used.q * self.tau * sd
        ref = (mean < self.BAND - we) & (mean > -self.BAND + we)
        margin = np.minimum(np.abs(mean - self.BAND + we), np.abs(mean + self.BAND - we))
        check(_masks_agree(eqv.rejected.mask(J), ref, margin, tol), "leT conclusions differ")


class McCalibrate:
    """Correlated-noise calibration routes and the general-matrix sphere CDF."""

    name = "mc-calibrate"
    stages = ("mc_oracle", "bootstrap", "scheffe_cdf")
    work_unit = "solves"
    probe_repeats = 3
    # the two linear-algebra solves stream matrices larger than L2; the
    # sphere CDF is an interpreter-bound optimiser loop
    probe_parts = {"mc_oracle": ("interp", "dense", "draw", "stream"),
                   "bootstrap": ("interp", "dense", "draw", "stream"),
                   "scheffe_cdf": ("interp", "dense", "draw")}
    J, UNION, N = 2000, 1334, 100
    RHO = 0.9
    MC_REPS, BOOT_R, SCHEFFE_REPS = 5000, 5000, 20
    SHORT_CALLS = 3
    K, Q, DELTA, BETA_NORM = 4, 2.0, 0.5, 1.0
    # Monte-Carlo slack on the z-bounds: the 0.9 quantile of a max from
    # 5000 draws has a standard error near 0.01
    Q_TOL = 0.05

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.passes = 0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        idx = np.arange(self.J)
        self.corr = self.RHO ** np.abs(idx[:, None] - idx[None, :])
        # AR(1) rows along the line, unit marginal variance
        e = rng.standard_normal((self.N, self.J))
        x = np.empty_like(e)
        x[:, 0] = e[:, 0]
        scale = math.sqrt(1.0 - self.RHO ** 2)
        for j in range(1, self.J):
            x[:, j] = self.RHO * x[:, j - 1] + scale * e[:, j]
        self.data = x
        chosen = rng.permutation(self.J)[: self.UNION]
        half = self.UNION // 2
        self.neg = IndexSet(chosen[:half])
        self.pos = IndexSet(chosen[half:])
        # the bootstrap takes its negated sup over sets.plus, its plain sup over sets.minus
        self.sets = PreimageSets(self.neg, self.pos, self.neg.union(self.pos))
        a = rng.standard_normal((self.K, self.K))
        self.limit = a @ a.T + self.K * np.eye(self.K)
        n_sets = len(self.neg) + len(self.pos)
        self.q_lo = float(special.ndtri(1.0 - ALPHA)) - self.Q_TOL
        self.q_hi = float(special.ndtri(1.0 - ALPHA / n_sets)) + self.Q_TOL
        # warm-up on a 60-point corner exercises the same code paths cheaply
        small = IndexSet(np.arange(30))
        other = IndexSet(np.arange(30, 60))
        quantile.mc_oracle_quantile(self.corr[:60, :60], small, other, ALPHA, 1000, Rng(0))
        quantile.multiplier_bootstrap_quantile(
            self.data[:, :60], PreimageSets(small, other, small.union(other)), ALPHA, 200, Rng(0))
        scheffe.extract_limit_cdf(self.Q, self.K, self.DELTA, self.BETA_NORM, 2, Rng(0),
                                  limit_matrix=self.limit)

    def run_pass(self, tally: Tally) -> None:
        rng = Rng(self.seed).child(self.passes)
        self.passes += 1
        with tally.op("mc_oracle_quantile"):
            with tally.stage("mc_oracle"):
                est = quantile.mc_oracle_quantile(self.corr, self.neg, self.pos, ALPHA,
                                                  self.MC_REPS, rng.child(0))
            tally.work += 1
            self._check_q("mc_oracle", est.q)
        # the two short solves run several times a pass, so each run has
        # enough samples for a steady median
        for i in range(self.SHORT_CALLS):
            with tally.op("multiplier_bootstrap_quantile"):
                with tally.stage("bootstrap"):
                    est = quantile.multiplier_bootstrap_quantile(
                        self.data, self.sets, ALPHA, self.BOOT_R, rng.child(1).child(i))
                tally.work += 1
                self._check_q("bootstrap", est.q)
        for i in range(self.SHORT_CALLS):
            with tally.op("extract_limit_cdf"):
                with tally.stage("scheffe_cdf"):
                    p = scheffe.extract_limit_cdf(self.Q, self.K, self.DELTA, self.BETA_NORM,
                                                  self.SCHEFFE_REPS, rng.child(2).child(i),
                                                  limit_matrix=self.limit)
                tally.work += 1
                check(0.0 <= p <= 1.0, f"extract_limit_cdf returned {p}, outside [0, 1]")

    def _check_q(self, route: str, q: float) -> None:
        check(self.q_lo <= q <= self.q_hi,
              f"{route} critical value {q} outside [{self.q_lo:.3f}, {self.q_hi:.3f}]")


WORKLOADS = {w.name: w for w in (SimHarness, CliWide, FieldLoop, McCalibrate)}
