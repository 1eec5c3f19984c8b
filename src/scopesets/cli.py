"""Command-line front end.

Subcommands: simulate, scope, insig, scheffe, tests.  All output is CSV
(UTF-8, LF endings, 6 significant digits); every run is deterministic under
a fixed --seed.  Exit codes: 0 success, 1 runtime failure, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .csvio import read_table, write_columns, write_csv
from .dist import chisq_cdf, quantile as dist_quantile
from .domain import Domain, Field, load_field
from .errors import ParameterError, ScopeSetsError
from .excursion import ScopeBands
from .hypotests import BandSpec, Calibration, et, grt, let_, lrt
from .insig import insig_report, write_insig_report
from .preimage import KPolicy, resolve_k, scope_partition
from .quantile import _check_alpha, column_summary
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


def _config_value(cfg: dict, key: str, parse, default=None):
    """``parse`` of a config value, required unless a default is given; errors name the key."""
    text = _require(cfg, key) if default is None else cfg.get(key, default)
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"config key '{key}': {exc}") from None


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
    if not np.isfinite(data).all():  # locate the first bad cell only once one is known to exist
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise UsageError(f"{path}: non-finite value at row {row}, column {col}")
    return data


def _from_flags(fn, *args, **kwargs):
    """Call fn on flag values or files named by flags; a ParameterError there is a usage error."""
    try:
        return fn(*args, **kwargs)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _policy_from_args(args) -> KPolicy:
    if args.sided is not None:  # scope and insig still parse it, so old command lines run
        print("warning: --sided is ignored: the touch sets fix each point's law", file=sys.stderr)
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
    alpha = _config_value(raw, "alpha", float)
    if alpha < np.finfo(float).eps:  # the floor of every --alpha flag
        raise UsageError(f"config key 'alpha' must be >= 2**-52, got {alpha}")
    reps = _config_value(raw, "reps", int)
    n_list = _config_value(raw, "N_list", lambda v: tuple(int(x) for x in v.split(",")))
    methods = tuple(x.strip() for x in _require(raw, "methods").split(",") if x.strip())
    baselines_raw = raw.get("baselines", "")
    baselines = tuple(
        x.strip() for x in baselines_raw.split(",") if x.strip() and x.strip() != "none"
    )
    seed = _config_value(raw, "seed", int, "0") if args.seed is None else args.seed
    sided = raw.get("sided", "two_sided")
    J = _config_value(raw, "J", int) if "J" in raw else None

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

    out = _out_dir(args)
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
    policy = _policy_from_args(args)
    if not bool(args.lower) == bool(args.upper) == (args.level is None):
        raise UsageError("give --level, or both --lower and --upper, not both")
    if args.level is not None and np.isnan(args.level):
        raise UsageError("--level must be a number, got nan")
    data = _load_matrix(args.data)
    N, J = data.shape
    if args.level is not None:
        lower = upper = args.level
    else:
        lower, upper = (_from_flags(load_field, path, Domain(J)).values
                        for path in (args.lower, args.upper))
    if np.any(np.greater(lower, upper)):
        raise UsageError("lower threshold exceeds upper threshold somewhere")

    part = scope_partition(data, lower, upper, args.alpha, policy)
    below, above = part.below, part.above
    # distance of a detection to the edge it crossed, in standard errors
    height = np.sqrt(N) * np.abs(part.mean - np.where(below, lower, upper)) / part.sd

    out = _out_dir(args)
    meta = [f"alpha={_fmt(args.alpha)}", f"k={_fmt(part.k)}", f"m_hat={part.m_hat}",
            f"q_hat={_fmt(part.q_hat)}"]
    cls = ["below" if b else ("above" if a else "middle")
           for b, a in zip(below.tolist(), above.tolist())]
    write_columns(out / "partition.csv", ["index", "mean", "sd", "class"], "%d,%.6g,%.6g,%s\n",
                  (range(J), part.mean.tolist(), part.sd.tolist(), cls), meta)
    hit = np.flatnonzero(below | above).tolist()
    write_columns(out / "detections.csv", ["index", "direction", "height"], "%d,%s,%.6g\n",
                  (hit, [cls[j] for j in hit], height[hit].tolist()), meta)
    return 0


def cmd_insig(args) -> int:
    policy = _policy_from_args(args)
    data = _load_matrix(args.data)
    report = insig_report(data, args.alpha, policy)
    out = _out_dir(args)
    write_insig_report(report, out / "insig_report.csv", J=data.shape[1])
    print(
        f"k={_fmt(report.k_used)} q_hat={_fmt(report.q_hat)} "
        f"discoveries={report.m1} hommel={report.counts['hommel']} bh={report.counts['bh']}"
    )
    return 0


def cmd_scheffe(args) -> int:
    if args.data is None:
        if args.K is None:
            raise UsageError("analytic mode needs --K (no --data given)")
        if args.K < 2:
            raise UsageError(f"--K must be >= 2, got {args.K}")
        K = args.K
        q = np.sqrt(dist_quantile("chisq", 1.0 - args.alpha, k=K - 1))
        insig = 1.0 - chisq_cdf(q * q, K)
        out = _out_dir(args)
        print(f"q={_fmt(q)} zero-vector insignificance={_fmt(insig)}")
        write_csv(out / "scheffe_analytic.csv", ["K", "alpha", "q", "insignificance_if_beta_zero"],
                  [[K, _fmt(args.alpha), _fmt(q), _fmt(insig)]])
        return 0

    header, body = _from_flags(read_table, args.data)
    body = _checked_matrix(args.data, body)
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
    rows = []
    for i, name in enumerate(header[:-1]):
        lo, hi = scheffe_band(np.eye(K)[i], fit, xtx, args.alpha)
        rows.append([name, _fmt(fit.beta_hat[i]), _fmt(lo), _fmt(hi)])
    rows.append(["__detected__", int(det["detected"]), _fmt(det["stat"]), _fmt(det["threshold"])])
    out = _out_dir(args)
    write_csv(out / "scheffe_fit.csv", ["coef", "estimate", "band_lo", "band_hi"], rows)
    print(f"detected_nonzero_contrast={det['detected']} stat={_fmt(det['stat'])} "
          f"threshold={_fmt(det['threshold'])}")
    return 0


def cmd_tests(args) -> int:
    kappa = args.kappa if args.kappa is not None else 3.0
    policy = _from_flags(KPolicy, "log_over_kappa", kappa=kappa)
    if not args.b_minus <= args.b_plus:
        raise UsageError(f"need --b-minus <= --b-plus, got {args.b_minus} and {args.b_plus}")
    if args.kind in ("eT", "leT") and not args.b_minus < args.b_plus:
        raise UsageError(f"{args.kind} needs --b-minus < --b-plus, got {args.b_minus} twice")
    if args.kind == "eT" and not args.mu:  # its plug-in route does not hold alpha yet
        raise UsageError("eT needs --mu: plug-in eT does not hold its level")
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
        k=None if mu is not None else resolve_k(policy, N, J, N - 1),
    )
    fn = {"grT": grt, "lrT": lrt, "eT": et, "leT": let_}[args.kind]
    decision = fn(mu_hat, band, bands, quantile=cal, mu=mu)

    out = _out_dir(args)
    reject = "" if decision.global_reject is None else int(decision.global_reject)
    write_csv(out / "test_decision.csv", ["kind", "q", "delta", "global_reject", "rejected"],
              [[decision.kind, _fmt(decision.quantile_used.q), _fmt(decision.delta), reject,
                ";".join(str(i) for i in decision.rejected)]])
    print(
        f"{decision.kind}: q={_fmt(decision.quantile_used.q)} delta={_fmt(decision.delta)} "
        f"global_reject={decision.global_reject} rejected={list(decision.rejected)}"
    )
    return 0


def _add_policy_flags(sp):
    sp.add_argument("--kappa", type=float, default=None, help="k = log(N)/kappa")
    sp.add_argument("--scb-beta", type=float, default=None,
                    help="k from a (1-beta)-simultaneous band")
    sp.add_argument("--k", type=float, default=None, help="fixed thickening factor")


def _add_output_flags(sp, fn):
    # these commands draw nothing; they accept --seed for a uniform command line
    sp.add_argument("--out", default=".")
    sp.add_argument("--seed", type=int, default=0, help="ignored: only simulate reads --seed")
    sp.set_defaults(fn=fn)


def _simulate_flags(sim):
    sim.add_argument("--config", required=True, help="key=value config file")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.set_defaults(fn=cmd_simulate)


def _scope_flags(sc):
    sc.add_argument("--data", required=True, help="N x J numeric CSV (rows = observations)")
    sc.add_argument("--level", type=float, default=None, help="constant threshold")
    sc.add_argument("--lower", default=None, help="lower threshold field CSV")
    sc.add_argument("--upper", default=None, help="upper threshold field CSV")
    sc.add_argument("--alpha", type=float, default=0.1)
    sc.add_argument("--sided", choices=["one_sided", "two_sided"], help="ignored")
    _add_policy_flags(sc)
    _add_output_flags(sc, cmd_scope)


def _insig_flags(ins):
    ins.add_argument("--data", required=True)
    ins.add_argument("--alpha", type=float, default=0.1)
    ins.add_argument("--sided", choices=["one_sided", "two_sided"], help="ignored")
    _add_policy_flags(ins)
    _add_output_flags(ins, cmd_insig)


def _scheffe_flags(sch):
    sch.add_argument("--data", default=None,
                     help="CSV with header; covariate columns then response")
    sch.add_argument("--K", type=int, default=None, help="contrast dimension (analytic mode)")
    sch.add_argument("--alpha", type=float, default=0.05)
    _add_output_flags(sch, cmd_scheffe)


def _tests_flags(ts):
    ts.add_argument("--data", required=True)
    ts.add_argument("--kind", required=True, choices=["grT", "lrT", "eT", "leT"])
    ts.add_argument("--b-minus", type=float, required=True, help="lower band edge")
    ts.add_argument("--b-plus", type=float, required=True, help="upper band edge")
    ts.add_argument("--mu", default=None, help="known target field CSV (oracle; eT needs it)")
    ts.add_argument("--alpha", type=float, default=0.1)
    ts.add_argument("--kappa", type=float, default=None,
                    help="plug-in thickening kappa (default 3)")
    _add_output_flags(ts, cmd_tests)


_COMMANDS = {
    "simulate": ("run the benchmark simulation harness", _simulate_flags),
    "scope": ("zero/band threshold partition of sample data", _scope_flags),
    "insig": ("insignificance-value report", _insig_flags),
    "scheffe": ("contrast inference for a linear model", _scheffe_flags),
    "tests": ("band relevance/equivalence tests", _tests_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone, whose help, usage and error
    bytes are the full parser's: a subcommand's parser does not depend on its siblings."""
    p = argparse.ArgumentParser(
        prog="scopesets",
        description="Simultaneous excursion-set inference tools",
    )
    # an unrecognized argument prints the top usage line, which lists every command
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_, add_flags = _COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_))
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named command needs only its own flags; --help and a bad command need every one
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        if hasattr(args, "alpha"):  # every command but simulate, which reads alpha from its config
            _from_flags(_check_alpha, args.alpha)
            if args.alpha < np.finfo(float).eps:  # below it 1 - alpha/2 rounds to 1
                raise UsageError(f"--alpha must be >= 2**-52, got {args.alpha}")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScopeSetsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
