"""Command-line front end.

Subcommands: simulate, scope, insig, scheffe, tests.  All output is CSV
(UTF-8, LF endings, 6 significant digits); every run is deterministic under
a fixed --seed.  Exit codes: 0 success, 1 runtime failure, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from pathlib import Path

import numpy as np

from .dist import Rng, chisq_cdf, quantile as dist_quantile
from .domain import Domain, Field, load_field
from .errors import ParameterError, ScopeSetsError
from .excursion import ScopeBands, widened_excursions
from .hypotests import BandSpec, Calibration, et, grt, let_, lrt
from .insig import insig_report, write_insig_report
from .preimage import KPolicy, plugin_preimage_sets, resolve_k
from .quantile import _check_alpha, column_summary, iid_quantile
from .scheffe import LinearModelSpec, detect_nonzero_contrasts, ols_fit, scheffe_band
from .sim import SimConfig, run_simulation, write_plot_data, write_sim_table


class UsageError(Exception):
    """Bad flags, bad config, malformed input files: exit code 2."""


def _fmt(x) -> str:
    return format(float(x), ".6g")


def parse_config(text: str) -> dict:
    """Parse one key=value per line; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise UsageError(f"line {lineno}: empty key")
        if key in out:
            raise UsageError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise UsageError(f"config is missing required key '{key}'")
    return cfg[key]


def _load_matrix(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file warns before it is rejected with one error line below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except Exception as exc:
        raise UsageError(f"could not read numeric CSV {path}: {exc}") from exc
    return _checked_matrix(path, data)


def _checked_matrix(path, data: np.ndarray) -> np.ndarray:
    """Reject samples with fewer than two rows or a NaN/inf cell (0-based indices)."""
    if data.shape[0] < 2:
        raise UsageError(f"{path}: data must have at least two rows")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise UsageError(f"{path}: non-finite value at row {row}, column {col}")
    return data


def _from_flags(fn, *args, **kwargs):
    """Call fn on flag values or files named by flags; a ParameterError there is a usage error."""
    try:
        return fn(*args, **kwargs)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _policy_from_args(args) -> KPolicy:
    chosen = [x for x in (args.kappa, args.scb_beta, args.k) if x is not None]
    if len(chosen) != 1:
        raise UsageError("choose exactly one of --kappa, --scb-beta, --k")
    if args.kappa is not None:
        return _from_flags(KPolicy, "log_over_kappa", kappa=args.kappa)
    if args.scb_beta is not None:
        return _from_flags(KPolicy, "scb_level", beta=args.scb_beta)
    return _from_flags(KPolicy, "fixed", k=args.k)


def cmd_simulate(args) -> int:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise UsageError(f"config file {cfg_path} does not exist")
    raw = parse_config(cfg_path.read_text())

    model = _require(raw, "model")
    alpha = float(_require(raw, "alpha"))
    reps = int(_require(raw, "reps"))
    n_list = tuple(int(x) for x in _require(raw, "N_list").split(","))
    methods = tuple(x.strip() for x in _require(raw, "methods").split(",") if x.strip())
    baselines_raw = raw.get("baselines", "")
    baselines = tuple(
        x.strip() for x in baselines_raw.split(",") if x.strip() and x.strip() != "none"
    )
    seed = int(raw.get("seed", "0")) if args.seed is None else args.seed
    sided = raw.get("sided", "two_sided")
    J = int(raw["J"]) if "J" in raw else None

    try:
        cfg = SimConfig(
            model=model,
            N_list=n_list,
            alpha=alpha,
            methods=methods,
            baselines=baselines,
            reps=reps,
            seed=seed,
            J=J,
            sided=sided,
        )
        rows = run_simulation(cfg)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sim_table(rows, out / f"model{model}_table.csv")
    write_plot_data(rows, out / f"model{model}_plotdata.csv")
    resolved = {
        "model": model,
        "J": str(J if J is not None else "default"),
        "N_list": ",".join(str(n) for n in n_list),
        "alpha": _fmt(alpha),
        "methods": ",".join(methods),
        "baselines": ",".join(baselines) if baselines else "none",
        "reps": str(reps),
        "seed": str(seed),
        "sided": sided,
    }
    with open(out / "resolved_config.txt", "w") as fh:
        for k, v in resolved.items():
            fh.write(f"{k}={v}\n")
    return 0


def cmd_scope(args) -> int:
    _from_flags(_check_alpha, args.alpha)
    policy = _policy_from_args(args)
    data = _load_matrix(args.data)
    N, J = data.shape
    dom = Domain(J)
    if args.level is not None:
        lower = upper = Field.constant(dom, args.level)
    elif args.lower and args.upper:
        lower = _from_flags(load_field, args.lower, dom)
        upper = _from_flags(load_field, args.upper, dom)
    else:
        raise UsageError("give --level, or both --lower and --upper")
    if np.any(lower.values > upper.values):
        raise UsageError("lower threshold exceeds upper threshold somewhere")

    mean, sd = column_summary(data)
    tau = 1.0 / np.sqrt(N)
    k = resolve_k(policy, N, J, df=N - 1)
    mu_hat = Field(dom, mean)
    sigma_hat = Field(dom, sd)
    fam = (lower,) if lower is upper else (lower, upper)
    sets = plugin_preimage_sets(mu_hat, fam, sigma_hat, tau, k)
    m_hat = len(sets.both)
    est = iid_quantile(m_hat, args.alpha, df=N - 1, sided=args.sided)

    below, above = widened_excursions(mean, lower.values, upper.values, est.q * tau * sd)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = [
        f"# alpha={_fmt(args.alpha)}",
        f"# k={_fmt(k)}",
        f"# m_hat={m_hat}",
        f"# q_hat={_fmt(est.q)}",
        f"# sided={args.sided}",
    ]
    with open(out / "partition.csv", "w", newline="") as fh:
        for line in meta:
            fh.write(line + "\n")
        w_ = csv.writer(fh)
        w_.writerow(["index", "mean", "sd", "class"])
        for j in range(J):
            cls = "below" if below[j] else ("above" if above[j] else "middle")
            w_.writerow([j, _fmt(mean[j]), _fmt(sd[j]), cls])
    with open(out / "detections.csv", "w", newline="") as fh:
        for line in meta:
            fh.write(line + "\n")
        w_ = csv.writer(fh)
        w_.writerow(["index", "direction", "height"])
        for j in range(J):
            if below[j] or above[j]:
                w_.writerow(
                    [
                        j,
                        "below" if below[j] else "above",
                        _fmt(np.sqrt(N) * abs(mean[j]) / sd[j]),
                    ]
                )
    return 0


def cmd_insig(args) -> int:
    _from_flags(_check_alpha, args.alpha)
    policy = _policy_from_args(args)
    data = _load_matrix(args.data)
    report = insig_report(data, args.alpha, policy, sided=args.sided)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_insig_report(report, out / "insig_report.csv", J=data.shape[1])
    print(
        f"k={_fmt(report.k_used)} q_hat={_fmt(report.q_hat)} "
        f"discoveries={report.m1} hommel={report.counts['hommel']} bh={report.counts['bh']}"
    )
    return 0


def cmd_scheffe(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.data is None:
        if args.K is None:
            raise UsageError("analytic mode needs --K (no --data given)")
        K = args.K
        q = np.sqrt(dist_quantile("chisq", 1.0 - args.alpha, k=K - 1))
        insig = 1.0 - chisq_cdf(q * q, K)
        print(f"q={_fmt(q)} zero-vector insignificance={_fmt(insig)}")
        with open(out / "scheffe_analytic.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["K", "alpha", "q", "insignificance_if_beta_zero"])
            w.writerow([K, _fmt(args.alpha), _fmt(q), _fmt(insig)])
        return 0

    with open(args.data, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise UsageError(
                    f"{args.data} line {lineno}: {len(row)} fields, header has {len(header)}"
                )
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise UsageError(f"{args.data} line {lineno}: {exc}") from exc
        body = _checked_matrix(args.data, np.array(rows).reshape(len(rows), len(header)))
    if body.shape[1] < 2:
        raise UsageError("scheffe data must have >= 2 columns (covariates + response)")
    X, y = body[:, :-1], body[:, -1]
    N, K = X.shape
    fit = ols_fit(X, y)
    tau = 1.0 / np.sqrt(N)
    xtx = X.T @ X
    limit = np.linalg.inv(xtx) / tau**2
    spec = LinearModelSpec(K, fit.beta_hat, np.sqrt(fit.s2), limit, tau)
    q = np.sqrt(dist_quantile("chisq", 1.0 - args.alpha, k=K - 1))
    det = detect_nonzero_contrasts(spec, q)
    with open(out / "scheffe_fit.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["coef", "estimate", "band_lo", "band_hi"])
        for i, name in enumerate(header[:-1]):
            a = np.zeros(K)
            a[i] = 1.0
            lo, hi = scheffe_band(a, fit, xtx, args.alpha)
            w.writerow([name, _fmt(fit.beta_hat[i]), _fmt(lo), _fmt(hi)])
        w.writerow(["__detected__", int(det["detected"]), _fmt(det["stat"]), _fmt(det["threshold"])])
    print(f"detected_nonzero_contrast={det['detected']} stat={_fmt(det['stat'])} "
          f"threshold={_fmt(det['threshold'])}")
    return 0


def cmd_tests(args) -> int:
    _from_flags(_check_alpha, args.alpha)
    kappa = args.kappa if args.kappa is not None else 3.0
    policy = _from_flags(KPolicy, "log_over_kappa", kappa=kappa)
    data = _load_matrix(args.data)
    N, J = data.shape
    dom = Domain(J)
    mean, sd = column_summary(data)
    band = BandSpec(Field.constant(dom, args.b_minus), Field.constant(dom, args.b_plus))
    mu_hat = Field(dom, mean)
    bands = ScopeBands(0.0, 1.0 / np.sqrt(N), Field(dom, sd))
    mu = _from_flags(load_field, args.mu, dom) if args.mu else None
    cal = Calibration(
        alpha=args.alpha,
        cov=("iid_t", N - 1),
        rng=Rng(args.seed or 0),
        k=None if mu is not None else resolve_k(policy, N, J, N - 1),
    )
    fn = {"grT": grt, "lrT": lrt, "eT": et, "leT": let_}[args.kind]
    decision = fn(mu_hat, band, bands, quantile=cal, mu=mu)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "test_decision.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "q", "delta", "global_reject", "rejected"])
        w.writerow(
            [
                decision.kind,
                _fmt(decision.quantile_used.q),
                _fmt(decision.delta),
                "" if decision.global_reject is None else int(decision.global_reject),
                ";".join(str(i) for i in decision.rejected),
            ]
        )
    print(
        f"{decision.kind}: q={_fmt(decision.quantile_used.q)} delta={_fmt(decision.delta)} "
        f"global_reject={decision.global_reject} rejected={list(decision.rejected)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scopesets",
        description="Simultaneous excursion-set inference tools",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the benchmark simulation harness")
    sim.add_argument("--config", required=True, help="key=value config file")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.set_defaults(fn=cmd_simulate)

    def add_policy_flags(sp):
        sp.add_argument("--kappa", type=float, default=None, help="k = log(N)/kappa")
        sp.add_argument("--scb-beta", type=float, default=None,
                        help="k from a (1-beta)-simultaneous band")
        sp.add_argument("--k", type=float, default=None, help="fixed thickening factor")

    sc = sub.add_parser("scope", help="zero/band threshold partition of sample data")
    sc.add_argument("--data", required=True, help="N x J numeric CSV (rows = observations)")
    sc.add_argument("--level", type=float, default=None, help="constant threshold")
    sc.add_argument("--lower", default=None, help="lower threshold field CSV")
    sc.add_argument("--upper", default=None, help="upper threshold field CSV")
    sc.add_argument("--alpha", type=float, default=0.1)
    sc.add_argument("--sided", default="one_sided",
                    choices=["one_sided", "two_sided"])
    add_policy_flags(sc)
    sc.add_argument("--out", default=".")
    sc.add_argument("--seed", type=int, default=0)
    sc.set_defaults(fn=cmd_scope)

    ins = sub.add_parser("insig", help="insignificance-value report")
    ins.add_argument("--data", required=True)
    ins.add_argument("--alpha", type=float, default=0.1)
    ins.add_argument("--sided", default="one_sided",
                     choices=["one_sided", "two_sided"])
    add_policy_flags(ins)
    ins.add_argument("--out", default=".")
    ins.add_argument("--seed", type=int, default=0)
    ins.set_defaults(fn=cmd_insig)

    sch = sub.add_parser("scheffe", help="contrast inference for a linear model")
    sch.add_argument("--data", default=None,
                     help="CSV with header; covariate columns then response")
    sch.add_argument("--K", type=int, default=None, help="contrast dimension (analytic mode)")
    sch.add_argument("--alpha", type=float, default=0.05)
    sch.add_argument("--beta-zero", action="store_true",
                     help="report the zero-vector insignificance value")
    sch.add_argument("--out", default=".")
    sch.add_argument("--seed", type=int, default=0)
    sch.set_defaults(fn=cmd_scheffe)

    ts = sub.add_parser("tests", help="band relevance/equivalence tests")
    ts.add_argument("--data", required=True)
    ts.add_argument("--kind", required=True, choices=["grT", "lrT", "eT", "leT"])
    ts.add_argument("--b-minus", type=float, required=True, help="lower band edge")
    ts.add_argument("--b-plus", type=float, required=True, help="upper band edge")
    ts.add_argument("--mu", default=None, help="known target field CSV (oracle mode)")
    ts.add_argument("--alpha", type=float, default=0.1)
    ts.add_argument("--kappa", type=float, default=None,
                    help="plug-in thickening kappa (default 3)")
    ts.add_argument("--out", default=".")
    ts.add_argument("--seed", type=int, default=0)
    ts.set_defaults(fn=cmd_tests)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScopeSetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
