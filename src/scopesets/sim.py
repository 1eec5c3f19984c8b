"""Desk-scale simulation harness for the iid Gaussian location model.

Reproduces the benchmark tables: for each method and sample size, the
empirical probability that both zero-threshold excursion inclusions hold
(Cov), the mean number of false detections (FD: a null detection or a
directional error), and the mean number of true detections (TD).  Each method
and sided convention is one rule whose touch count comes from the library's
own rules, ``preimage._touched`` and ``quantile._storey_count``, and counts
its detections on the t columns gathered once per chunk by the sign of mu.
Hommel and Benjamini-Hochberg baselines run on the same samples with FD
counting type-I errors only, and read their cuts off one sort and one check of
the p rows (``hypotests._hommel_cut``, ``hypotests._bh_cut``).  They and
Storey's null count read |t| against cuts in t: one per-N table maps each
step-up threshold k*alpha/m to its cut, a value far from every cut takes a
stand-in p between the thresholds around it, and the t CDF runs only near a
cut (``_step_up_cuts``, ``_t_pvalues``, which works on flat indices).  The
critical values q(m) for m = 0..J come from one vector t quantile
(``quantile._iid_table``).

Each replication's t-statistics are drawn from their sufficient statistics
(Cochran's theorem), never as an N x J sample, so it costs O(J) whatever N is.
Everything is driven by one seed; replications run through the Monte-Carlo
chunk driver (``quantile._map_chunks``) in chunks whose size depends on J
alone, each with a derived child stream and reduced in chunk order, so
results are byte-reproducible.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .dist import Rng, _t_quantile, t_cdf
from .domain import Domain, Field, same_domain
from .errors import ParameterError
from .excursion import inclusion_event, max_sup, widened_excursions
from .hypotests import _bh_cut, _hommel_cut
from .preimage import KPolicy, _touch_masks, _touched, resolve_k
from .quantile import (_check_alpha, _checked_pvalues, _chunk_sizes, _iid_table, _map_chunks,
                       _storey_count)


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
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        _check_alpha(self.alpha)
        if self.sided not in ("two_sided", "one_sided", "both"):
            raise ParameterError(f"unknown sided convention {self.sided!r}")
        if min(self.N_list, default=2) < 2:
            raise ParameterError(f"every N in N_list must be >= 2, got {min(self.N_list)}")


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
    if token in ("oracle", "storey"):
        return (token, None, token)
    m = re.fullmatch(r"(log_kappa|scb)\(([^)]+)\)", token)
    if m is None:
        raise ParameterError(f"unknown method token {token!r}")
    kind, arg = m.groups()
    try:
        value = float(arg)
    except ValueError:
        raise ParameterError(f"method token {token!r}: {arg!r} is not a number") from None
    if kind == "log_kappa":
        policy = KPolicy("log_over_kappa", kappa=value)
    elif not 0.0 < value < 1.0:
        raise ParameterError(f"scb level must be in (0, 1), got {value}")
    else:
        policy = KPolicy("scb_level", beta=1.0 - value)
    return (kind, policy, policy.label())


def _draw_tstats(gen: np.random.Generator, nb: int, N: int, mu: np.ndarray) -> np.ndarray:
    """(nb, J) t-statistics of nb iid N(mu, 1) samples of size N.

    sqrt(N)*(mean - mu) is standard normal and (N-1)*s^2 an independent
    chi-square with N-1 degrees of freedom, so both are drawn directly.
    """
    z = gen.standard_normal((nb, mu.size))
    chi2 = gen.chisquare(N - 1, (nb, mu.size))
    z += np.sqrt(N) * mu
    chi2 /= N - 1
    return np.divide(z, np.sqrt(chi2, out=chi2), out=z)


def _step_up_cuts(df, alpha, J):
    """The |t| cuts of every step-up threshold, ascending, and a p-value for each gap between them.

    Hommel and BH compare p only with k*alpha/m for 1 <= k <= m <= J (the
    float expression both kernels use; k = m = 1 is alpha).  Gap i lies between
    cuts i - 1 and i; its p is 1.0 below the first cut, 0.0 above the last and
    otherwise the midpoint of the two thresholds, so it compares with every
    threshold as any p in the gap does.
    """
    k, m = np.triu_indices(J)
    tau = np.unique((k + 1) * alpha / (m + 1))[::-1]
    return -_t_quantile(tau / 2, df), np.concatenate([[1.0], (tau[:-1] + tau[1:]) / 2, [0.0]])


def _t_pvalues(tmat, df, alpha, cuts=None):
    """P-values 2 t_cdf(-|t|, df) as Hommel and BH read them, and Storey's p >= 0.5 mask.

    The step-up rules compare p only with thresholds in [alpha/J, alpha], so
    p > alpha acts as 1 and p < alpha/(2J) as 0, Hommel's step count included.
    Both cuts give up a relative 1e-6 (a rounded threshold can sit an ulp above
    alpha).  Between them the t CDF runs, NaN included, and near |t| = t_{0.75}.
    Where that leaves at least J(J+1)/2 values to the CDF, a value farther than
    1e-6 (1 + |t|) from every cut of ``_step_up_cuts`` takes its gap's p
    instead, and the CDF runs only on the rest.  ``cuts``, if given, returns
    that table, so a caller can build it once for many chunks.  The band is
    searched in ascending order, so each binary search starts from the last
    one's bound.  Values are read and written at flat indices of C-ordered
    |t| and p arrays, whatever the layout of ``tmat``.
    """
    J = tmat.shape[1]
    lo, hi, s75 = (-_t_quantile(p / 2, df) for p in
                   (alpha * (1 + 1e-6), alpha * (1 - 1e-6) / max(2 * J, 1), 0.5))
    a = np.abs(tmat, order="C")
    near75 = np.abs(a - s75) <= 1e-6 * s75
    one = a < lo
    pv = one.astype(float, order="C")
    flat_a, flat_pv = a.ravel(), pv.ravel()  # views, as both are C-ordered
    exact = np.flatnonzero(~(one | (a > hi)) | near75)
    if exact.size >= J * (J + 1) // 2:
        cut, gap_p = cuts() if cuts else _step_up_cuts(df, alpha, J)
        band = flat_a.take(exact)
        order = np.argsort(band)
        i = np.empty_like(order)
        # rounding may swap cuts an ulp apart; far values sort alike
        i[order] = np.searchsorted(cut, band[order])
        near = np.minimum(np.abs(band - cut[np.maximum(i - 1, 0)]),
                          np.abs(band - cut[np.minimum(i, cut.size - 1)]))
        far = near > 1e-6 * (1.0 + band)  # NaN is never far
        flat_pv[exact] = gap_p[i]
        exact = exact[~far | near75.ravel().take(exact)]
    flat_pv[exact] = 2.0 * t_cdf(-flat_a.take(exact), df)
    return pv, np.where(near75, pv >= 0.5, a <= s75)


def _run_chunk(gen, nb, N, mu, rules, baselines, alpha, cuts):
    """One chunk of nb replications drawn from ``gen``: a row of (cov, fd, td) sums per rule,
    then per baseline; a rule (kind, k, q table) reads both inclusions at q(its touch count)."""
    is_null = mu == 0.0
    tmat = _draw_tstats(gen, nb, N, mu)
    if baselines or any(kind == "storey" for kind, _, _ in rules):
        pv, p_half = _t_pvalues(tmat, N - 1, alpha, cuts)
    # t's columns where mu < 0, = 0 and > 0, in that order: a detection below zero is true
    # only in the first block and one above zero only in the last
    neg, pos = np.flatnonzero(mu < 0.0), np.flatnonzero(mu > 0.0)
    t_by_sign = tmat.take(np.concatenate([neg, np.flatnonzero(is_null), pos]), axis=1)
    n_neg, n_neg_null = neg.size, t_by_sign.shape[1] - pos.size
    out = np.zeros((len(rules) + len(baselines), 3))
    for row, (kind, k, q_table) in zip(out, rules):
        if kind == "oracle":
            m = np.full(nb, np.count_nonzero(is_null))
        elif kind == "storey":
            m = _storey_count(p_half)
        else:
            m = np.count_nonzero(_touched(tmat, (0.0,), k), axis=1)
        lower, upper = widened_excursions(t_by_sign, 0.0, 0.0, q_table[m][:, None])
        fd = (np.count_nonzero(lower[:, n_neg:], axis=1)
              + np.count_nonzero(upper[:, :n_neg_null], axis=1))
        td = np.count_nonzero(lower[:, :n_neg]) + np.count_nonzero(upper[:, n_neg_null:])
        row[:] = np.count_nonzero(fd == 0), fd.sum(), td
    if baselines:  # one sort and one check serve both step-up rules
        ps = np.sort(_checked_pvalues(pv), axis=1)
    for row, b in zip(out[len(rules):], baselines):
        rej = pv <= (_hommel_cut if b == "hommel" else _bh_cut)(ps, alpha)[:, None]
        row[1:] = np.count_nonzero(rej & is_null), np.count_nonzero(rej & ~is_null)
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
    for b in cfg.baselines:
        if b not in ("hommel", "bh"):
            raise ParameterError(f"unknown baseline {b!r}")
    names = [label if len(sided_list) == 1 else f"{label}[{s}]"
             for _, _, label in methods for s in sided_list] + list(cfg.baselines)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParameterError(f"duplicate method or baseline {name!r}")

    rows: list[SimTableRow] = []
    rng = Rng(cfg.seed)
    for ni, N in enumerate(cfg.N_list):
        df = N - 1
        q_tables = {s: _iid_table(J, alpha, df, s) for s in sided_list}
        cuts = functools.lru_cache(maxsize=1)(functools.partial(_step_up_cuts, df, alpha, J))
        rules = []
        for kind, policy, _ in methods:
            k = resolve_k(policy, N, J, df) if policy else None
            rules += [(kind, k, q_tables[s]) for s in sided_list]
        run = lambda gen, nb: _run_chunk(gen, nb, N, mu, rules, cfg.baselines, alpha, cuts)
        # a chunk keeps about four (nb, J) float arrays alive
        sums = sum(_map_chunks(run, cfg.reps, 4 * J, rng.child(ni)))
        for i, (name, (cov, fd, td)) in enumerate(zip(names, sums.tolist())):
            rule = i < len(rules)
            rows.append(SimTableRow(name, int(N), 100.0 * cov / cfg.reps if rule else None,
                                    fd / cfg.reps if rule or n_null else None,
                                    td / cfg.reps if n_alt else None))
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
    if not (instance.lower_fam or instance.upper_fam):
        raise ParameterError("need at least one threshold")
    if eta < 0:
        raise ParameterError(f"eta must be >= 0, got {eta}")
    same_domain(mu, *instance.lower_fam, *instance.upper_fam)
    lower_vals = [c.values for c in instance.lower_fam]
    upper_vals = [c.values for c in instance.upper_fam]
    neg_thick, _ = _touch_masks(mu.values, lower_vals, eta)
    _, pos_thick = _touch_masks(mu.values, upper_vals, eta)
    neg_exact = _touched(mu.values, lower_vals, 0.0)
    pos_exact = _touched(mu.values, upper_vals, 0.0)
    slack = q + eta / (tau * sigma._max)
    w = q * tau * sigma.values

    # one sequential stream: the counts do not depend on the chunk size
    gen = rng.generator()
    counts = np.zeros(3, dtype=np.int64)  # event, lower, upper
    for n in _chunk_sizes(reps, 2 * mu.domain.size):  # g and mu_hat per row
        g = gen.standard_normal((n, mu.domain.size))
        mu_hat = mu.values + tau * sigma.values * g

        event = inclusion_event(mu_hat, mu.values, lower_vals, upper_vals, w)
        lower = (max_sup(g, neg_thick, pos_thick) < q) & (np.abs(g).max(axis=1) < slack)
        upper = max_sup(g, neg_exact, pos_exact) <= q

        if np.any(lower & ~event):
            raise AssertionError("lower bound event without inclusion event")
        if np.any(event & ~upper):
            raise AssertionError("inclusion event without upper bound event")
        counts += np.count_nonzero([event, lower, upper], axis=1)
    return tuple((counts / reps).tolist())


def write_sim_table(rows, path) -> None:
    """Write rows as CSV: method,N,cov,fd,td with 1-decimal percent coverage."""

    def fmt(x, spec):
        return "" if x is None else format(x, spec)

    write_csv(path, ["method", "N", "cov", "fd", "td"],
              ([r.method, r.N, fmt(r.cov, ".1f"), fmt(r.fd, ".6g"), fmt(r.td, ".6g")]
               for r in rows))


def write_plot_data(rows, path) -> None:
    """Long-format CSV: method,N,metric,value (one row per defined metric)."""
    write_csv(path, ["method", "N", "metric", "value"],
              ([r.method, r.N, metric, format(value, ".6g")]
               for r in rows
               for metric, value in (("cov", r.cov), ("fd", r.fd), ("td", r.td))
               if value is not None))
