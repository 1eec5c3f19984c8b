"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a PASS/FAIL line (straight to the terminal, bypassing
capture) so the whole gate can be read off a single run.
"""

import sys
import time
from itertools import combinations

import numpy as np

from conftest import record_criterion, zero_inclusion_event

from scopesets.dist import Rng, chisq_cdf, quantile as dq
from scopesets.domain import Domain, Field, IndexSet
from scopesets.excursion import (
    ScopeBands,
    ThresholdFamily,
    lower_excursion,
    scb_scope_equivalence,
    scope_event,
    partition3,
    t_stat,
    upper_excursion,
)
from scopesets.hypotests import BandSpec, bh, hommel, let_, lrt
from scopesets.insig import iv_qhat
from scopesets.quantile import iid_exact_quantile
from scopesets.scheffe import (
    LinearModelSpec,
    ols_fit,
    scheffe_zero_cdf,
    slice_max,
)
from scopesets.sim import (
    SandwichInstance,
    SimConfig,
    run_simulation,
    sandwich_check,
)
from scopesets.cli import main as cli_main


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:>2}: {detail}"
    record_criterion(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


N_GRID = (20, 50, 100, 200, 500, 1000)


def test_criterion_01_model_a_oracle_row():
    t0 = time.time()
    cfg = SimConfig(model="A", N_list=N_GRID, alpha=0.1, methods=("oracle",),
                    reps=5000, seed=101)
    rows = run_simulation(cfg)
    elapsed = time.time() - t0
    cov_ok = all(abs(r.cov - 90.0) <= 1.5 for r in rows)
    fd_ok = all(abs(r.fd - 0.10) <= 0.02 for r in rows)
    time_ok = elapsed < 10.0
    detail = (
        f"model A oracle Cov={[round(r.cov, 1) for r in rows]} "
        f"FD={[round(r.fd, 3) for r in rows]} runtime={elapsed:.1f}s"
    )
    report(1, cov_ok and fd_ok and time_ok, detail)


def test_criterion_02_model_b_rows():
    cfg = SimConfig(model="B", N_list=(100, 500), alpha=0.1,
                    methods=("oracle", "storey"), reps=5000, seed=102)
    rows = {(r.method, r.N): r for r in run_simulation(cfg)}
    td100 = rows[("oracle", 100)].td
    td500 = rows[("oracle", 500)].td
    cov100 = rows[("storey", 100)].cov
    cov500 = rows[("storey", 500)].cov
    ok = (
        abs(td100 - 22.9) <= 1.0
        and abs(td500 - 58.5) <= 0.5
        and abs(cov100 - 91.4) <= 1.5
        and abs(cov500 - 89.5) <= 1.5
    )
    report(
        2,
        ok,
        f"model B oracle TD(100)={td100:.2f} TD(500)={td500:.2f} "
        f"storey Cov(100)={cov100:.1f} Cov(500)={cov500:.1f}",
    )


def test_criterion_03_model_d_rows():
    cfg = SimConfig(model="D", N_list=N_GRID, alpha=0.1,
                    methods=("oracle", "log_kappa(10)"), reps=5000, seed=103)
    rows = {(r.method, r.N): r for r in run_simulation(cfg)}
    log_row = rows[("log(N)/10", 1000)]
    target_trend = (0.1, 1.3, 4.7, 12.1, 28.2, 42.6)
    oracle_cov = [rows[("oracle", n)].cov for n in N_GRID]
    trend_ok = all(abs(c - t) <= 3.0 for c, t in zip(oracle_cov, target_trend))
    increasing = all(a < b for a, b in zip(oracle_cov, oracle_cov[1:]))
    ok = (
        abs(log_row.cov - 89.9) <= 1.5
        and abs(log_row.td - 97.0) <= 0.5
        and trend_ok
        and increasing
    )
    report(
        3,
        ok,
        f"model D log(N)/10 Cov={log_row.cov:.1f} TD={log_row.td:.2f}; "
        f"oracle Cov trend={[round(c, 1) for c in oracle_cov]}",
    )


def test_criterion_04_insignificance_value():
    val = 100.0 * iv_qhat(80, 1, 3.00, 99)
    ok = abs(val - 24.5) <= 1.5
    report(4, ok, f"IV(M=80, m=1, q=3.00, df=99) = {val:.2f}%")


def test_criterion_05_scheffe_laws():
    q2 = dq("chisq", 0.95, k=3)
    insig = 1.0 - chisq_cdf(q2, 4)
    analytic_ok = abs(insig - 0.10) <= 0.005

    K, N, reps = 4, 2000, 2000
    q = np.sqrt(dq("chisq", 0.95, k=K - 1))
    gen = Rng(105).generator()
    X = np.linalg.qr(gen.standard_normal((N, K)))[0] * np.sqrt(N)  # X'X = N I
    xtx_inv = np.linalg.inv(X.T @ X)
    tau = 1.0 / np.sqrt(N)
    results = {}
    for beta_is_zero in (False, True):
        beta = np.zeros(K) if beta_is_zero else np.array([0.6, -0.2, 0.0, 0.3])
        spec = LinearModelSpec(K, beta, 1.0, xtx_inv / tau**2, tau)
        hits = 0
        for _ in range(reps):
            y = X @ beta + gen.standard_normal(N)
            fit = ols_fit(X, y)
            hits += zero_inclusion_event(spec, fit.beta_hat, q)
        emp = hits / reps
        ref = scheffe_zero_cdf(q, K, beta_is_zero)
        results[beta_is_zero] = (emp, ref)
    cov_ok = all(abs(emp - ref) <= 0.02 for emp, ref in results.values())
    report(
        5,
        analytic_ok and cov_ok,
        f"1-chi2(q2_95_3, 4)={insig:.4f}; coverage beta!=0 "
        f"{results[False][0]:.3f} vs {results[False][1]:.3f}, beta=0 "
        f"{results[True][0]:.3f} vs {results[True][1]:.3f}",
    )


def test_criterion_06_slice_max_vs_sphere_grid():
    rng = np.random.default_rng(106)
    worst_gap = worst_violation = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 6))
        w = rng.normal(size=K)
        a = rng.normal(size=K)
        na = np.linalg.norm(a)
        l = float(rng.uniform(-0.95, 0.95)) * na
        closed = slice_max(w, a, l)
        basis = np.linalg.svd(np.eye(K) - np.outer(a, a) / na**2)[0][:, : K - 1]
        u = rng.normal(size=(1_000_000, K - 1))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        # max over the grid points (l/na^2) a + sqrt(1 - l^2/na^2) u @ basis.T of their
        # inner product with w, without forming the points
        grid_max = float((l / na**2) * (a @ w)
                         + np.sqrt(1 - l * l / na**2) * (u @ (basis.T @ w)).max())
        worst_violation = max(worst_violation, grid_max - closed)
        worst_gap = max(worst_gap, closed - grid_max)
    ok = worst_violation <= 1e-9 and worst_gap <= 1e-2
    report(6, ok, f"closed form - grid max in [-{worst_violation:.2e}, {worst_gap:.2e}]")


def test_criterion_07_property_suite():
    rng = np.random.default_rng(107)

    # band/threshold duality on random instances
    duality_fails = 0
    for _ in range(1000):
        J = int(rng.integers(1, 10))
        dom = Domain(J)
        mu = Field(dom, rng.normal(size=J))
        sigma = Field(dom, rng.uniform(0.2, 2.0, J))
        tau = float(rng.uniform(0.05, 1.0))
        q = float(rng.uniform(0.0, 2.0))
        mu_hat = Field(dom, mu.values + tau * sigma.values * rng.normal(size=J))
        probes = [Field(dom, rng.normal(size=J)) for _ in range(int(rng.integers(0, 3)))]
        covers, incl = scb_scope_equivalence(mu_hat, mu, sigma, tau, q, probes)
        duality_fails += covers != incl

    # partition property
    partition_fails = 0
    for _ in range(300):
        J = int(rng.integers(1, 10))
        dom = Domain(J)
        mu_hat = Field(dom, rng.normal(size=J))
        bm = rng.normal(size=J)
        p = partition3(
            mu_hat,
            Field(dom, bm),
            Field(dom, bm + rng.uniform(0, 2, J)),
            ScopeBands(float(rng.uniform(0, 2)), 1.0, Field.constant(dom, 1.0)),
        )
        union = p.lower.union(p.middle).union(p.upper)
        disjoint = (
            len(p.lower.intersection(p.middle))
            == len(p.lower.intersection(p.upper))
            == len(p.middle.intersection(p.upper))
            == 0
        )
        partition_fails += not (union == IndexSet.full(J) and disjoint)

    # empty-set convention
    f = Field(Domain(3), [1.0, 2.0, 3.0])
    empty_ok = t_stat(f, IndexSet(), IndexSet()) == -np.inf

    # excursion monotonicity
    mono_fails = 0
    for _ in range(300):
        J = int(rng.integers(1, 10))
        dom = Domain(J)
        fv = Field(dom, rng.normal(size=J))
        c = Field(dom, rng.normal(size=J))
        c_hi = Field(dom, c.values + rng.uniform(0, 1, J))
        mono_fails += not lower_excursion(fv, c).issubset(lower_excursion(fv, c_hi))
        mono_fails += not upper_excursion(fv, c_hi).issubset(upper_excursion(fv, c))

    # small max-sup statistic forces the inclusion event
    suff_fails = suff_hits = 0
    for _ in range(1000):
        J = int(rng.integers(1, 13))
        dom = Domain(J)
        mu = Field(dom, rng.normal(size=J))
        c = Field(dom, np.round(rng.normal(size=J), 1))
        sigma = Field(dom, rng.uniform(0.5, 2.0, J))
        tau = float(rng.uniform(0.1, 1.0))
        g = rng.normal(size=J)
        mu_hat = Field(dom, mu.values + tau * sigma.values * g)
        q = float(rng.uniform(0.0, 2.5))
        neg = IndexSet.from_mask(mu.values >= c.values)
        pos = IndexSet.from_mask(mu.values <= c.values)
        if t_stat(Field(dom, g), neg, pos) < q:
            suff_hits += 1
            fam = ThresholdFamily.symmetric([c])
            suff_fails += not scope_event(mu_hat, mu, ScopeBands(q, tau, sigma), fam)

    ok = (
        duality_fails == 0
        and partition_fails == 0
        and empty_ok
        and mono_fails == 0
        and suff_fails == 0
        and suff_hits > 100
    )
    report(
        7,
        ok,
        f"duality fails={duality_fails}/1000, partition fails={partition_fails}, "
        f"monotonicity fails={mono_fails}, sufficiency fails={suff_fails}/{suff_hits}",
    )


def simes_rejects(p_subset, alpha):
    s = np.sort(p_subset)
    k = np.arange(1, s.size + 1)
    return bool(np.any(s <= k * alpha / s.size))


def closed_testing_rejections(p, alpha):
    n = len(p)
    out = np.ones(n, dtype=bool)
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            if not simes_rejects(p[list(sub)], alpha):
                out[list(sub)] = False
    return IndexSet.from_mask(out)


def test_criterion_08_hommel_and_bh_oracles():
    rng = np.random.default_rng(108)
    hommel_fails = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        p = np.round(rng.uniform(size=n) ** rng.uniform(0.5, 3.0), 3)
        if hommel(p, 0.1) != closed_testing_rejections(p, 0.1):
            hommel_fails += 1

    bh_fails = 0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        p = rng.uniform(size=n) ** 2
        sorted_p = np.sort(p)
        ks = np.flatnonzero(sorted_p <= 0.1 * np.arange(1, n + 1) / n)
        expected = (
            IndexSet.from_mask(p <= sorted_p[ks[-1]]) if ks.size else IndexSet()
        )
        if bh(p, 0.1) != expected:
            bh_fails += 1
    ok = hommel_fails == 0 and bh_fails == 0
    report(8, ok, f"hommel mismatches={hommel_fails}/1000, bh mismatches={bh_fails}/1000")


def test_criterion_09_lrt_familywise_error():
    from scopesets.sim import model_mu

    reps, alpha, N = 2000, 0.1, 1000
    tau = 1.0 / np.sqrt(N)
    results = {}
    for mi, model in enumerate(("A", "B", "C")):
        mu_vals = model_mu(model).values
        J = mu_vals.size
        dom = Domain(J)
        band = BandSpec(Field.constant(dom, 0.0), Field.constant(dom, 0.0))
        nulls = IndexSet.from_mask(mu_vals == 0.0)
        est = iid_exact_quantile(nulls, nulls, alpha)
        bands = ScopeBands(0.0, tau, Field.constant(dom, 1.0))
        gen = Rng(109).child(mi).generator()
        fwe = 0
        for _ in range(reps):
            mu_hat = Field(dom, mu_vals + tau * gen.standard_normal(J))
            dec = lrt(mu_hat, band, bands, quantile=est)
            fwe += bool(np.any(mu_vals[dec.rejected.members] == 0.0))
        results[model] = fwe / reps
    bound = alpha + 3 * np.sqrt(alpha * (1 - alpha) / reps)
    ok = all(v <= bound for v in results.values())
    report(
        9,
        ok,
        "lrT familywise error at N=1000: "
        + ", ".join(f"model {m}={v:.4f}" for m, v in results.items())
        + f" (bound {bound:.4f})",
    )


def test_criterion_10_let_equals_interval_rule():
    rng = np.random.default_rng(110)
    structural_fails = quantile_fails = 0
    for _ in range(1000):
        dom = Domain(1)
        lo = float(rng.normal())
        hi = lo + float(rng.uniform(0.5, 3.0))
        band = BandSpec(Field.constant(dom, lo), Field.constant(dom, hi))
        sigma = Field.constant(dom, float(rng.uniform(0.3, 2.0)))
        tau = float(rng.uniform(0.05, 0.5))
        alpha = float(rng.uniform(0.02, 0.2))
        # target outside the band: the null regime where the critical value
        # must match the one-sided confidence-bound construction
        side = rng.choice([-1.0, 1.0])
        mu_val = hi + float(rng.uniform(0.01, 2.0)) if side > 0 else lo - float(
            rng.uniform(0.01, 2.0)
        )
        mu = Field(dom, [mu_val])
        mu_hat = Field(dom, [mu_val + float(rng.normal(scale=0.5))])
        from scopesets.hypotests import Calibration

        dec = let_(mu_hat, band, ScopeBands(0.0, tau, sigma),
                   quantile=Calibration(alpha=alpha), mu=mu)
        q = dec.quantile_used.q
        if abs(q - dq("normal", 1 - alpha)) > 1e-9:
            quantile_fails += 1
        w = q * tau * sigma.values[0]
        pcii_reject = lo + w < mu_hat.values[0] < hi - w
        if (len(dec.rejected) == 1) != pcii_reject:
            structural_fails += 1
    ok = structural_fails == 0 and quantile_fails == 0
    report(
        10,
        ok,
        f"interval-rule mismatches={structural_fails}/1000, "
        f"one-sided-quantile mismatches={quantile_fails}/1000",
    )


def test_criterion_11_sandwich_ordering():
    rng = np.random.default_rng(111)
    violations = 0
    gaps = []
    for i in range(50):
        J = 6
        dom = Domain(J)
        mu = Field(dom, rng.normal(size=J))
        lower = tuple(
            Field(dom, np.round(mu.values + rng.normal(size=J, scale=0.5), 1))
            for _ in range(int(rng.integers(1, 3)))
        )
        upper = tuple(
            Field(dom, np.round(mu.values + rng.normal(size=J, scale=0.5), 1))
            for _ in range(int(rng.integers(1, 3)))
        )
        inst = SandwichInstance(
            mu=mu,
            lower_fam=lower,
            upper_fam=upper,
            sigma=Field(dom, rng.uniform(0.5, 2.0, J)),
            tau=float(rng.uniform(0.05, 0.5)),
            q=float(rng.uniform(0.2, 2.5)),
            eta=float(rng.uniform(0.0, 0.3)),
        )
        event, low, up = sandwich_check(inst, 50_000, Rng(111).child(i))
        violations += not (low <= event <= up)
        gaps.append(up - low)
    report(
        11,
        violations == 0,
        f"ordering violations={violations}/50, mean bound gap={np.mean(gaps):.3f}",
    )


def test_criterion_12_cli_byte_determinism(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "model=B\nN_list=30,80\nalpha=0.1\nmethods=oracle,storey\n"
        "baselines=hommel,bh\nreps=150\nseed=2024\n"
    )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "modelB_table.csv").read_bytes())
    sim_ok = outs[0] == outs[1]

    gen = Rng(12).generator()
    data = gen.standard_normal((60, 10)) + 0.5
    data_path = tmp_path / "data.csv"
    np.savetxt(data_path, data, delimiter=",")
    scans = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        rc = cli_main(
            ["scope", "--data", str(data_path), "--level", "0", "--kappa", "3",
             "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        scans.append((out / "partition.csv").read_bytes())
    scope_ok = scans[0] == scans[1]
    report(12, sim_ok and scope_ok, "simulate and scope reruns are byte-identical")
