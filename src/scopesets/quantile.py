"""Critical-value solvers for simultaneous excursion inclusion.

Four routes to the same kind of number: an exact product-CDF solver for iid
noise, Storey's null-count plugin, a Monte-Carlo of the limiting max-sup
statistic over given index sets, and a multiplier bootstrap driven by the
observed data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .dist import Rng, normal_cdf, quantile, t_cdf
from .domain import IndexSet
from .errors import DegenerateDataError, ParameterError
from .excursion import max_sup


@dataclass(frozen=True)
class QuantileEstimate:
    """A solved critical value together with how it was obtained."""

    q: float
    method: str
    alpha: float
    support_size: int = 0
    empty_sets: bool = False


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def column_summary(data) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sample standard deviations of an N x J matrix.

    Needs N >= 2; a zero-variance column raises, naming the first (0-based).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParameterError("data must be an N x J matrix with N >= 2")
    sd = data.std(axis=0, ddof=1)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise DegenerateDataError(f"zero-variance column {zero[0]}")
    return data.mean(axis=0), sd


def t_pvalues(data) -> np.ndarray:
    """Two-sided one-sample t-test p-values per column of an N x J matrix."""
    mean, sd = column_summary(data)
    N = np.shape(data)[0]
    stat = np.sqrt(N) * np.abs(mean) / sd
    return 2.0 * t_cdf(-stat, N - 1)


def iid_quantile(m: int, alpha: float, df: float, sided: str = "one_sided") -> QuantileEstimate:
    """Smallest q whose m-fold product CDF exceeds 1 - alpha.

    ``one_sided`` solves F(q)^m = 1 - alpha; ``two_sided`` solves
    (2 F(q) - 1)^m = 1 - alpha, the law of the max of m absolute values.
    m = 0 returns q = 0 (every inclusion holds with probability one).
    """
    _check_alpha(alpha)
    if m < 0:
        raise ParameterError(f"m must be >= 0, got {m}")
    if m == 0:
        return QuantileEstimate(0.0, f"iid_{sided}", alpha, 0, empty_sets=True)
    base = (1.0 - alpha) ** (1.0 / m)
    if sided == "one_sided":
        target = base
    elif sided == "two_sided":
        target = (1.0 + base) / 2.0
    else:
        raise ParameterError(f"unknown sided convention {sided!r}")
    q = quantile("t", target, df=df)
    return QuantileEstimate(q, f"iid_{sided}", alpha, m)


def storey_m0(pvalues) -> int:
    """Null-count estimate 2 * #{p >= 0.5}, capped at the number of tests."""
    p = np.asarray(pvalues, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ParameterError("p-values must lie in [0, 1]")
    return int(min(p.size, 2 * np.count_nonzero(p >= 0.5)))


def storey_quantile(data, alpha: float, sided: str = "one_sided") -> QuantileEstimate:
    """Critical value sized by Storey's null-count from two-sided p-values."""
    data = np.asarray(data, dtype=float)
    m0 = storey_m0(t_pvalues(data))
    est = iid_quantile(m0, alpha, df=data.shape[0] - 1, sided=sided)
    return QuantileEstimate(est.q, "storey", alpha, m0, est.empty_sets)


def iid_exact_quantile(
    neg_set: IndexSet,
    pos_set: IndexSet,
    alpha: float,
    df: float = np.inf,
    tail: str = "upper",
) -> QuantileEstimate:
    """Exact critical value of the max-sup statistic for iid symmetric noise.

    Coordinates in both sets contribute a two-sided factor 2F(q)-1, the rest
    a one-sided factor F(q); the product CDF is inverted by bracketed root
    finding.  Both sets empty gives q = 0 with a flag.
    """
    _check_alpha(alpha)
    n_both = len(neg_set.intersection(pos_set))
    n_one = len(neg_set) + len(pos_set) - 2 * n_both
    if n_both + n_one == 0:
        return QuantileEstimate(0.0, "iid_exact", alpha, 0, empty_sets=True)

    cdf = (lambda x: normal_cdf(x)) if np.isinf(df) else (lambda x: t_cdf(x, df))

    def stat_cdf(x):
        two = max(0.0, 2.0 * cdf(x) - 1.0) ** n_both if n_both else 1.0
        one = cdf(x) ** n_one if n_one else 1.0
        return two * one

    target = 1.0 - alpha if tail == "upper" else alpha
    if tail not in ("upper", "lower"):
        raise ParameterError(f"unknown tail {tail!r}")
    lo, hi = -1.0, 1.0
    while stat_cdf(lo) > target:
        lo *= 2.0
        if lo < -1e10:
            raise ParameterError("failed to bracket quantile")
    while stat_cdf(hi) < target:
        hi *= 2.0
        if hi > 1e10:
            raise ParameterError("failed to bracket quantile")
    q = float(optimize.brentq(lambda x: stat_cdf(x) - target, lo, hi, xtol=1e-12))
    return QuantileEstimate(q, "iid_exact", alpha, n_both + n_one)


def _upper_index(alpha: float, reps: int) -> int:
    return min(reps, int(np.ceil((1.0 - alpha) * reps)))


def _lower_index(alpha: float, reps: int) -> int:
    return max(1, int(np.floor(alpha * reps)))


def _chunked_max_sup(draw, reps, chunk, rng: Rng, neg_idx, pos_idx) -> np.ndarray:
    """max_sup of ``reps`` draws, ``chunk`` rows at a time; chunk i draws from child stream i."""
    stats = np.empty(reps)
    for ci, start in enumerate(range(0, reps, chunk)):
        n = min(chunk, reps - start)
        stats[start : start + n] = max_sup(draw(rng.child(ci).generator(), n), neg_idx, pos_idx)
    return stats


def _simulate_stats(cov, union: np.ndarray, neg_pos, reps: int, rng: Rng) -> np.ndarray:
    chunk = max(1, min(reps, int(4e6 / max(1, union.size))))
    if isinstance(cov, str) and cov == "iid_normal":
        draw = lambda gen, n: gen.standard_normal((n, union.size))
    elif isinstance(cov, tuple) and cov[0] == "iid_t":
        draw = lambda gen, n: gen.standard_t(float(cov[1]), (n, union.size))
    else:
        corr = np.asarray(cov, dtype=float)[np.ix_(union, union)]
        # eigenvalue square root, once per call: tolerates singular matrices
        w, v = np.linalg.eigh(corr)
        if np.any(w < -1e-8):
            raise ParameterError("correlation matrix is not positive semidefinite")
        factor = (v * np.sqrt(np.clip(w, 0.0, None))).T
        draw = lambda gen, n: gen.standard_normal((n, union.size)) @ factor
    return _chunked_max_sup(draw, reps, chunk, rng, *neg_pos)


def mc_oracle_quantile(
    cov,
    neg_set: IndexSet,
    pos_set: IndexSet,
    alpha: float,
    reps: int,
    rng: Rng,
    tail: str = "upper",
) -> QuantileEstimate:
    """Monte-Carlo critical value of the max-sup statistic over given sets.

    ``cov`` selects the noise: "iid_normal", ("iid_t", df), or a full
    correlation matrix.  The upper tail returns the order statistic at
    ceil((1-alpha)*reps); the lower tail (for the equivalence test) the one
    at floor(alpha*reps).
    """
    _check_alpha(alpha)
    if reps < 1000:
        raise ParameterError(f"need reps >= 1000, got {reps}")
    if tail not in ("upper", "lower"):
        raise ParameterError(f"unknown tail {tail!r}")
    if len(neg_set) == 0 and len(pos_set) == 0:
        return QuantileEstimate(0.0, "mc_oracle", alpha, 0, empty_sets=True)
    union = np.union1d(neg_set.members, pos_set.members)
    neg_idx = np.searchsorted(union, neg_set.members)
    pos_idx = np.searchsorted(union, pos_set.members)
    stats = np.sort(_simulate_stats(cov, union, (neg_idx, pos_idx), reps, rng))
    idx = _upper_index(alpha, reps) if tail == "upper" else _lower_index(alpha, reps)
    return QuantileEstimate(float(stats[idx - 1]), "mc_oracle", alpha, int(union.size))


def multiplier_bootstrap_quantile(
    data,
    sets,
    alpha: float,
    R: int,
    rng: Rng,
    tail: str = "upper",
) -> QuantileEstimate:
    """Bootstrap critical value from Gaussian-multiplier replicates.

    Each replicate recomputes the standardized process
    B_j = N^{-1/2} sum_n g_n (y_nj - mean_j) / sd_j with fresh iid standard
    normal multipliers g, then takes the max-sup statistic with the negated
    sup running over ``sets.plus`` and the plain sup over ``sets.minus``.
    """
    _check_alpha(alpha)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParameterError("data must be an N x J matrix with N >= 2")
    if R < 100:
        raise ParameterError(f"need R >= 100, got {R}")
    neg_set, pos_set = sets.plus, sets.minus
    if len(neg_set) == 0 and len(pos_set) == 0:
        return QuantileEstimate(0.0, "multiplier_bootstrap", alpha, 0, empty_sets=True)
    N = data.shape[0]
    union = np.union1d(neg_set.members, pos_set.members)
    y = data[:, union]
    centered = y - y.mean(axis=0)
    sd = y.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        bad = union[np.flatnonzero(sd == 0.0)]
        raise DegenerateDataError(f"zero-variance column(s): {bad.tolist()}")
    scaled = centered / sd
    neg_idx = np.searchsorted(union, neg_set.members)
    pos_idx = np.searchsorted(union, pos_set.members)
    chunk = max(1, min(R, int(4e6 / max(1, N))))
    draw = lambda gen, n: (gen.standard_normal((n, N)) @ scaled) / np.sqrt(N)
    stats = _chunked_max_sup(draw, R, chunk, rng, neg_idx, pos_idx)
    stats.sort()
    idx = _upper_index(alpha, R) if tail == "upper" else _lower_index(alpha, R)
    return QuantileEstimate(float(stats[idx - 1]), "multiplier_bootstrap", alpha, int(union.size))
