"""Desk-scale simulation harness for the iid Gaussian location model.

Reproduces the benchmark tables: for each method and sample size, the
empirical probability that both zero-threshold excursion inclusions hold
(Cov), the mean number of false detections (FD: a null detection or a
directional error), and the mean number of true detections (TD).  Hommel and
Benjamini-Hochberg baselines run on the same samples with FD counting type-I
errors only.

Each replication's t-statistics are drawn from their sufficient statistics
(Cochran's theorem), never as an N x J sample, so it costs O(J) whatever N is.
Everything is driven by one seed; replications run through the Monte-Carlo
chunk driver (``quantile._map_chunks``) in chunks whose size depends on J
alone, each with a derived child stream and reduced in chunk order, so
results are byte-reproducible.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .dist import Rng, t_cdf
from .domain import Domain, Field
from .errors import ParameterError
from .excursion import inclusion_event, max_sup, widened_excursions
from .hypotests import bh_reject_mask, hommel_reject_mask
from .preimage import KPolicy, oracle_preimage, resolve_k
from .quantile import _chunk_rows, _map_chunks, iid_quantile


@dataclass(frozen=True, eq=False)
class SimConfig:
    model: str
    N_list: tuple
    alpha: float = 0.1
    methods: tuple = ("oracle",)
    baselines: tuple = ()
    reps: int = 5000
    seed: int = 0
    J: int | None = None
    sided: str = "two_sided"
    mu: np.ndarray | None = None  # overrides model when given

    def __post_init__(self):
        if self.reps < 1:
            raise ParameterError("reps must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.sided not in ("two_sided", "one_sided", "both"):
            raise ParameterError(f"unknown sided convention {self.sided!r}")


@dataclass(frozen=True)
class SimTableRow:
    method: str
    N: int
    cov: float | None
    fd: float | None
    td: float | None


_DEFAULT_J = {"A": 80, "B": 80, "C": 80, "D": 100}


def model_mu(model: str, J: int | None = None) -> Field:
    """Population mean vector of one of the four benchmark models."""
    if model not in _DEFAULT_J:
        raise ParameterError(f"unknown model {model!r}")
    J = _DEFAULT_J[model] if J is None else J
    j = np.arange(1, J + 1)
    if model == "A":
        mu = np.zeros(J)
    elif model == "B":
        mu = np.where(j <= 30, -0.3, np.where(j <= 50, 0.0, 0.2))
    elif model == "C":
        mu = np.where(j <= 5, -0.3, 0.0)
    else:  # D
        mu = np.sin(j / (2.0 * np.pi))
    return Field(Domain(J), mu)


def parse_method(token: str):
    """Parse a method token: oracle | storey | log_kappa(K) | scb(LEVEL)."""
    token = token.strip()
    if token == "oracle":
        return ("oracle", None, "oracle")
    if token == "storey":
        return ("storey", None, "storey")
    m = re.fullmatch(r"log_kappa\(([^)]+)\)", token)
    if m:
        kappa = float(m.group(1))
        policy = KPolicy("log_over_kappa", kappa=kappa)
        return ("log_kappa", policy, policy.label())
    m = re.fullmatch(r"scb\(([^)]+)\)", token)
    if m:
        level = float(m.group(1))
        if not 0.0 < level < 1.0:
            raise ParameterError(f"scb level must be in (0, 1), got {level}")
        policy = KPolicy("scb_level", beta=1.0 - level)
        return ("scb", policy, policy.label())
    raise ParameterError(f"unknown method token {token!r}")


def _quantile_table(J: int, alpha: float, df: float, sided: str) -> np.ndarray:
    return np.array(
        [iid_quantile(m, alpha, df=df, sided=sided).q for m in range(J + 1)]
    )


def _draw_tstats(gen: np.random.Generator, nb: int, N: int, mu: np.ndarray) -> np.ndarray:
    """(nb, J) t-statistics of nb iid N(mu, 1) samples of size N.

    sqrt(N)*(mean - mu) is standard normal and (N-1)*s^2 an independent
    chi-square with N-1 degrees of freedom, so both are drawn directly.
    """
    z = gen.standard_normal((nb, mu.size))
    chi2 = gen.chisquare(N - 1, (nb, mu.size))
    return (np.sqrt(N) * mu + z) / np.sqrt(chi2 / (N - 1))


def _run_chunk(gen, nb, N, mu, methods, ks, q_tables, sided_list, baselines, alpha):
    """One chunk of nb replications drawn from ``gen``; partial (cov, fd, td) sums per key."""
    J = mu.size
    df = N - 1
    is_null = mu == 0.0
    n_null = int(is_null.sum())
    tmat = _draw_tstats(gen, nb, N, mu)

    pv = None
    if baselines or any(kind == "storey" for kind, _, _ in methods):
        pv = 2.0 * t_cdf(-np.abs(tmat), df)

    out = {}
    for kind, _policy, label in methods:
        if kind == "oracle":
            m_vec = np.full(nb, n_null)
        elif kind == "storey":
            m_vec = np.minimum(J, 2 * (pv >= 0.5).sum(axis=1))
        else:
            m_vec = (np.abs(tmat) <= ks[label]).sum(axis=1)
        for s in sided_list:
            lower, upper = widened_excursions(tmat, 0.0, 0.0, q_tables[s][m_vec][:, None])
            fd = (lower & (mu >= 0.0)).sum(axis=1) + (upper & (mu <= 0.0)).sum(axis=1)
            td = (lower & (mu < 0.0)).sum(axis=1) + (upper & (mu > 0.0)).sum(axis=1)
            out[(label, s)] = (int((fd == 0).sum()), float(fd.sum()), float(td.sum()))

    if "hommel" in baselines:
        rej = hommel_reject_mask(pv, alpha)
        out[("hommel", None)] = (0, float((rej & is_null).sum()), float((rej & ~is_null).sum()))
    if "bh" in baselines:
        rej = bh_reject_mask(pv, alpha)
        out[("bh", None)] = (0, float((rej & is_null).sum()), float((rej & ~is_null).sum()))
    return out


def run_simulation(cfg: SimConfig) -> list[SimTableRow]:
    """Run the harness and return one row per (method, N).

    Replication chunks carry derived seeds and are summed in chunk order.
    """
    if cfg.mu is not None:
        mu = np.asarray(cfg.mu, dtype=float)
    else:
        mu = model_mu(cfg.model, cfg.J).values
    J = mu.size
    alpha = cfg.alpha
    n_null = int((mu == 0.0).sum())
    n_alt = J - n_null
    sided_list = (
        ["two_sided", "one_sided"] if cfg.sided == "both" else [cfg.sided]
    )

    methods = [parse_method(t) for t in cfg.methods]
    labels = [label for _, _, label in methods]
    if len(set(labels)) != len(labels):
        raise ParameterError(f"duplicate method labels: {labels}")
    for b in cfg.baselines:
        if b not in ("hommel", "bh"):
            raise ParameterError(f"unknown baseline {b!r}")

    rows: list[SimTableRow] = []
    rng = Rng(cfg.seed)
    for ni, N in enumerate(cfg.N_list):
        df = N - 1
        q_tables = {s: _quantile_table(J, alpha, df, s) for s in sided_list}
        ks = {}
        for kind, policy, label in methods:
            if kind in ("log_kappa", "scb"):
                ks[label] = resolve_k(policy, N, J, df)
        run = lambda gen, nb: _run_chunk(gen, nb, N, mu, methods, ks, q_tables, sided_list,
                                         cfg.baselines, alpha)
        totals = {}
        # a chunk keeps about four (nb, J) float arrays alive
        for part in _map_chunks(run, cfg.reps, 4 * J, rng.child(ni)):
            for key, sums in part.items():
                totals[key] = tuple(x + y for x, y in zip(totals.get(key, (0, 0.0, 0.0)), sums))

        for kind, policy, label in methods:
            for s in sided_list:
                cov, fd, td = totals[(label, s)]
                name = label if len(sided_list) == 1 else f"{label}[{s}]"
                rows.append(
                    SimTableRow(
                        method=name,
                        N=int(N),
                        cov=100.0 * cov / cfg.reps,
                        fd=fd / cfg.reps,
                        td=(td / cfg.reps) if n_alt else None,
                    )
                )
        for b in cfg.baselines:
            _, fd, td = totals[(b, None)]
            rows.append(
                SimTableRow(
                    method=b,
                    N=int(N),
                    cov=None,
                    fd=(fd / cfg.reps) if n_null else None,
                    td=(td / cfg.reps) if n_alt else None,
                )
            )
    return rows


@dataclass(frozen=True, eq=False)
class SandwichInstance:
    """One configuration of the non-asymptotic inclusion-probability bounds."""

    mu: Field
    lower_fam: tuple
    upper_fam: tuple
    sigma: Field
    tau: float
    q: float
    eta: float
    noise: str = "normal"


def sandwich_check(instance: SandwichInstance, reps: int, rng: Rng):
    """Monte-Carlo bound ordering for the inclusion event.

    Simulates the standardized error directly, evaluates per draw the
    inclusion event, an implying lower-bound event (thickened touch sets
    stay below q and the global max stays below q + eta/(tau*max sigma)),
    and an implied upper-bound event (the max-sup statistic over the exact
    touch sets is at most q).  Returns (event, lower, upper) probabilities;
    the per-draw implications lower => event => upper are also asserted.
    """
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    mu, sigma, tau, q, eta = (
        instance.mu,
        instance.sigma,
        instance.tau,
        instance.q,
        instance.eta,
    )
    if instance.noise != "normal":
        raise ParameterError(f"unknown noise model {instance.noise!r}")
    if not (instance.lower_fam or instance.upper_fam):
        raise ParameterError("need at least one threshold")
    neg_thick = oracle_preimage(mu, instance.lower_fam, eta, "plus").members
    pos_thick = oracle_preimage(mu, instance.upper_fam, eta, "minus").members
    neg_exact = oracle_preimage(mu, instance.lower_fam, 0.0, "both").members
    pos_exact = oracle_preimage(mu, instance.upper_fam, 0.0, "both").members
    sig_max = float(np.max(sigma.values))
    slack = q + eta / (tau * sig_max)
    w = q * tau * sigma.values
    lower_vals = [c.values for c in instance.lower_fam]
    upper_vals = [c.values for c in instance.upper_fam]

    # one sequential stream: the counts do not depend on the chunk size
    gen = rng.generator()
    n_event = n_lower = n_upper = 0
    rows = _chunk_rows(reps, 2 * mu.domain.size)  # g and mu_hat per row
    for start in range(0, reps, rows):
        g = gen.standard_normal((min(rows, reps - start), mu.domain.size))
        mu_hat = mu.values + tau * sigma.values * g

        event = inclusion_event(mu_hat, mu.values, lower_vals, upper_vals, w)
        lower = (max_sup(g, neg_thick, pos_thick) < q) & (np.abs(g).max(axis=1) < slack)
        upper = max_sup(g, neg_exact, pos_exact) <= q

        if np.any(lower & ~event):
            raise AssertionError("lower bound event without inclusion event")
        if np.any(event & ~upper):
            raise AssertionError("inclusion event without upper bound event")
        n_event += int(event.sum())
        n_lower += int(lower.sum())
        n_upper += int(upper.sum())
    return n_event / reps, n_lower / reps, n_upper / reps


def write_sim_table(rows, path) -> None:
    """Write rows as CSV: method,N,cov,fd,td with 1-decimal percent coverage."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "N", "cov", "fd", "td"])
        for r in rows:
            w.writerow(
                [
                    r.method,
                    r.N,
                    "" if r.cov is None else format(r.cov, ".1f"),
                    "" if r.fd is None else format(r.fd, ".6g"),
                    "" if r.td is None else format(r.td, ".6g"),
                ]
            )


def write_plot_data(rows, path) -> None:
    """Long-format CSV: method,N,metric,value (one row per defined metric)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "N", "metric", "value"])
        for r in rows:
            for metric, value in (("cov", r.cov), ("fd", r.fd), ("td", r.td)):
                if value is not None:
                    w.writerow([r.method, r.N, metric, format(value, ".6g")])
