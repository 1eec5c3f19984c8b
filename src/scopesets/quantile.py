"""Critical-value solvers for simultaneous excursion inclusion.

Four routes to the same kind of number: an exact product-CDF solver for iid
noise, Storey's null-count plugin, and a Monte-Carlo oracle and a multiplier
bootstrap that share one solver of the limiting max-sup law, differing only in
the square root they push standard normals through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .dist import Rng, normal_cdf, quantile, t_cdf
from .domain import IndexSet
from .errors import DegenerateDataError, ParameterError
from .excursion import signed_columns


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


def _checked_pvalues(pvalues) -> np.ndarray:
    """``pvalues`` as a float array, or ``ParameterError`` unless all lie in [0, 1] (NaN does not)."""
    p = np.asarray(pvalues, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ParameterError("p-values must lie in [0, 1]")
    return p


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
    p = _checked_pvalues(pvalues)
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


def _chunk_rows(reps: int, width: int) -> int:
    """Rows per chunk such that a chunk array of ``width`` columns holds at most 4e6 values."""
    return max(1, min(reps, 4_000_000 // max(1, width)))


def _map_chunks(fn, reps: int, width: int, rng: Rng) -> list:
    """``fn(gen, n)`` per chunk of ``reps`` rows, in chunk order; chunk i draws from child stream i.

    ``width`` is the float values a chunk keeps alive per row, so chunk sizes
    depend on the problem size alone and results are bit-reproducible.
    """
    rows = _chunk_rows(reps, width)
    return [fn(rng.child(i).generator(), min(rows, reps - start))
            for i, start in enumerate(range(0, reps, rows))]


def _gaussian_max_quantile(root, neg_idx, pos_idx, alpha, reps, rng: Rng, tail: str) -> float:
    """Order statistic of ``reps`` max-sup draws max(z @ signed_columns(root, neg_idx, pos_idx)).

    z holds one standard normal per row of ``root``, whose columns are the
    union of the touch sets; the index arrays are positions in that union.
    The upper tail returns the order statistic at ceil((1-alpha)*reps), the
    lower tail (for the equivalence test) the one at floor(alpha*reps).
    """
    signed = signed_columns(root, neg_idx, pos_idx)
    draw = lambda gen, n: (gen.standard_normal((n, root.shape[0])) @ signed).max(axis=1)
    stats = np.sort(np.concatenate(_map_chunks(draw, reps, max(signed.shape), rng)))
    if tail == "upper":
        return float(stats[min(reps, int(np.ceil((1.0 - alpha) * reps))) - 1])
    return float(stats[max(1, int(np.floor(alpha * reps))) - 1])


def _symmetric_block(m, idx: np.ndarray, what: str) -> np.ndarray:
    """``m[idx][:, idx]``, or ``ParameterError`` unless ``m`` is square and covers sorted ``idx``
    and that block is finite and symmetric to 1e-8 of its largest diagonal magnitude (at least
    1), as computed correlations are asymmetric by rounding.  Only the block is scanned.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 2 and m.shape[0] == m.shape[1] > idx.max(initial=-1):
        b = m[np.ix_(idx, idx)]
        # b - b.T is antisymmetric, so its max is its largest magnitude
        if np.isfinite(b).all() and ((b - b.T).max(initial=0.0)
                                     <= 1e-8 * max(1.0, np.abs(b.diagonal()).max(initial=0.0))):
            return b
    raise ParameterError(f"{what} must be a finite symmetric square matrix covering index "
                         f"{idx.max(initial=-1)}, got shape {m.shape}")


def _sqrt_factor(corr: np.ndarray) -> np.ndarray:
    """R with R.T @ R == corr: the Cholesky factor, or an eigenvalue root if that fails."""
    try:
        return np.linalg.cholesky(corr).T
    except np.linalg.LinAlgError:
        pass  # singular or indefinite
    w, v = np.linalg.eigh(corr)
    if np.any(w < -1e-8):
        raise ParameterError("correlation matrix is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))).T


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

    ``cov`` is the noise correlation matrix; only its block on the union of
    the sets is read, checked and factored.  Tails as in
    ``_gaussian_max_quantile``.  For iid noise ``iid_exact_quantile`` solves
    the same law exactly; ``np.eye(n)`` gives a Monte-Carlo check of it.
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
    root = _sqrt_factor(_symmetric_block(cov, union, "correlation matrix"))
    q = _gaussian_max_quantile(root, neg_idx, pos_idx, alpha, reps, rng, tail)
    return QuantileEstimate(q, "mc_oracle", alpha, int(union.size))


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
    The touched columns must be finite.  Tails as in ``_gaussian_max_quantile``.
    """
    _check_alpha(alpha)
    if tail not in ("upper", "lower"):
        raise ParameterError(f"unknown tail {tail!r}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParameterError("data must be an N x J matrix with N >= 2")
    if R < 100:
        raise ParameterError(f"need R >= 100, got {R}")
    neg_set, pos_set = sets.plus, sets.minus
    if len(neg_set) == 0 and len(pos_set) == 0:
        return QuantileEstimate(0.0, "multiplier_bootstrap", alpha, 0, empty_sets=True)
    union = np.union1d(neg_set.members, pos_set.members)
    neg_idx = np.searchsorted(union, neg_set.members)
    pos_idx = np.searchsorted(union, pos_set.members)
    y = data[:, union]
    finite = np.isfinite(y).all(axis=0)
    if not finite.all():
        raise ParameterError(f"non-finite value(s) in touched column(s): {union[~finite].tolist()}")
    sd = y.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        bad = union[np.flatnonzero(sd == 0.0)]
        raise DegenerateDataError(f"zero-variance column(s): {bad.tolist()}")
    root = (y - y.mean(axis=0)) / (sd * np.sqrt(data.shape[0]))
    q = _gaussian_max_quantile(root, neg_idx, pos_idx, alpha, R, rng, tail)
    return QuantileEstimate(q, "multiplier_bootstrap", alpha, int(union.size))
