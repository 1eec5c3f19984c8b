"""Critical-value solvers for simultaneous excursion inclusion.

Four routes to the same kind of number.  Under iid noise q depends on the
touch sets only through the counts of points touched from one side (n_one) and
from both (n_both), so one solver keyed by those counts, ``_iid_exact``, serves
``iid_quantile``, ``iid_exact_quantile``, Storey's null-count plugin, the band
tests and the simulation tables: a closed form when one count is zero, a
bracketed root otherwise.  A Monte-Carlo oracle and a multiplier bootstrap
share one solver of the limiting max-sup law, differing only in the square root
they push standard normals through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.linalg.blas import dtrmm

from .dist import Rng, _t_quantile, quantile, t_cdf
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


def _iid_exact(n_one: int, n_both: int, alpha: float, df: float, tail: str) -> QuantileEstimate:
    """The iid critical value for ``n_one`` one-sided and ``n_both`` two-sided points.

    q solves F(q)^n_one (2F(q) - 1)^n_both = 1 - alpha for the upper tail and
    = alpha for the lower, with F the t CDF on ``df`` degrees of freedom.  With
    one count zero, q = F^-1(base) or F^-1((1 + base) / 2) for base = target^(1/m);
    with both non-zero, bracketed root finding.  Both zero gives q = 0 with a flag.
    """
    _check_alpha(alpha)
    if tail not in ("upper", "lower"):
        raise ParameterError(f"unknown tail {tail!r}")
    if n_one < 0 or n_both < 0:
        raise ParameterError(f"point counts must be >= 0, got {n_one} and {n_both}")
    if not float(df) > 0:
        raise ParameterError(f"t degrees of freedom must be > 0, got {df}")
    m = n_one + n_both
    target = 1.0 - alpha if tail == "upper" else alpha
    if m == 0:
        q = 0.0
    elif n_one == 0 or n_both == 0:
        base = target ** (1.0 / m)
        level = base if n_both == 0 else (1.0 + base) / 2.0
        if level < 1.0 or tail == "lower":
            q = quantile("t", level, df=df)
        else:  # alpha / m under about 1e-16 rounds the level to 1: invert its tail, t is symmetric
            sf = -np.expm1(np.log1p(-alpha) / m) / (2.0 if n_both else 1.0)
            q = -float(_t_quantile(sf, df))
    else:
        def stat_cdf(x):  # 0 on x <= 0, so -1 always brackets the root from below
            F = t_cdf(x, df)
            return max(0.0, 2.0 * F - 1.0) ** n_both * F ** n_one
        hi = 1.0
        while stat_cdf(hi) < target:
            hi *= 2.0
            if hi > 1e10:
                raise ParameterError("failed to bracket quantile")
        q = float(optimize.brentq(lambda x: stat_cdf(x) - target, -1.0, hi, xtol=1e-12))
    return QuantileEstimate(q, "iid_exact", alpha, m, empty_sets=m == 0)


def iid_quantile(m: int, alpha: float, df: float, sided: str = "one_sided") -> QuantileEstimate:
    """Smallest q whose m-fold product CDF exceeds 1 - alpha.

    ``one_sided`` solves F(q)^m = 1 - alpha; ``two_sided`` solves
    (2 F(q) - 1)^m = 1 - alpha, the law of the max of m absolute values.
    m = 0 returns q = 0 (every inclusion holds with probability one).
    """
    if sided not in ("one_sided", "two_sided"):
        raise ParameterError(f"unknown sided convention {sided!r}")
    est = _iid_exact(*((m, 0) if sided == "one_sided" else (0, m)), alpha, df, "upper")
    return QuantileEstimate(est.q, f"iid_{sided}", alpha, m, est.empty_sets)


def _iid_table(J: int, alpha: float, df: float, sided: str) -> np.ndarray:
    """``iid_quantile(m, alpha, df, sided).q`` for m = 0..J, bit for bit, from one t quantile call."""
    q0 = iid_quantile(0, alpha, df, sided).q  # 0.0, once the arguments pass its checks
    # Python's pow, as in _iid_exact, so each level is the scalar route's to the bit
    base = np.array([(1.0 - alpha) ** (1.0 / m) for m in range(1, J + 1)])
    level = base if sided == "one_sided" else (1.0 + base) / 2.0
    q = _t_quantile(level, df)  # inf where a level rounds to 1: the scalar route solves those
    for m in np.flatnonzero(level == 1.0) + 1:
        q[m - 1] = iid_quantile(int(m), alpha, df, sided).q
    return np.concatenate([[q0], q])


def _storey_count(half) -> np.ndarray:
    """Storey's null count min(J, 2 * #half) per row of a (..., J) mask of p >= 0.5."""
    return np.minimum(np.shape(half)[-1], 2 * np.count_nonzero(half, axis=-1))


def storey_m0(pvalues) -> int:
    """Null-count estimate 2 * #{p >= 0.5}, capped at the number of tests."""
    p = _checked_pvalues(pvalues)
    return int(_storey_count(np.ravel(p) >= 0.5))


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
    a one-sided factor F(q); ``_iid_exact`` inverts the product CDF.  Both
    sets empty gives q = 0 with a flag.
    """
    n_both = len(neg_set.intersection(pos_set))
    return _iid_exact(len(neg_set) + len(pos_set) - 2 * n_both, n_both, alpha, df, tail)


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


def _gaussian_max_quantile(method, root_of, neg_set: IndexSet, pos_set: IndexSet, alpha,
                           reps, rng: Rng, tail: str) -> QuantileEstimate:
    """Order statistic of ``reps`` max-sup draws max_sup(z @ root, neg, pos).

    ``root, upper = root_of(union)``: root has one column per point of the union of the
    touch sets and z one standard normal per row of root; ``upper`` marks a triangular
    root, which a chunk multiplies in place by ``dtrmm``.  Columns of points only in neg
    are negated once, so a draw is max(row max, negated max over points in both sets).
    Both sets empty gives q = 0 with a flag.  The upper tail returns the order statistic at
    ceil((1-alpha)*reps), the lower tail (for the equivalence test) the one at floor(alpha*reps).
    """
    _check_alpha(alpha)
    if tail not in ("upper", "lower"):
        raise ParameterError(f"unknown tail {tail!r}")
    if len(neg_set) == 0 and len(pos_set) == 0:
        return QuantileEstimate(0.0, method, alpha, 0, empty_sets=True)
    union = np.union1d(neg_set.members, pos_set.members)
    root, upper = root_of(union)
    root *= np.where(np.isin(union, pos_set.members), 1.0, -1.0)
    both = np.searchsorted(union, neg_set.intersection(pos_set).members)

    def draw(gen, n):
        z = gen.standard_normal((n, root.shape[0]))  # C-ordered: z.T is a Fortran view
        x = dtrmm(1.0, root, z.T, trans_a=1, overwrite_b=1).T if upper else z @ root
        return max_sup(x, both, slice(None))
    width = max(root.shape[0], union.size + both.size)
    stats = np.sort(np.concatenate(_map_chunks(draw, reps, width, rng)))
    if tail == "upper":
        q = stats[min(reps, int(np.ceil((1.0 - alpha) * reps))) - 1]
    else:
        q = stats[max(1, int(np.floor(alpha * reps))) - 1]
    return QuantileEstimate(float(q), method, alpha, int(union.size))


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


def _sqrt_factor(corr: np.ndarray) -> tuple[np.ndarray, bool]:
    """(R, triangular) with R.T @ R == corr: the Cholesky factor, else an eigenvalue root."""
    try:
        return np.linalg.cholesky(corr).T, True
    except np.linalg.LinAlgError:
        pass  # singular or indefinite
    w, v = np.linalg.eigh(corr)
    if np.any(w < -1e-8):
        raise ParameterError("correlation matrix is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))).T, False


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
    if reps < 1000:
        raise ParameterError(f"need reps >= 1000, got {reps}")
    root_of = lambda union: _sqrt_factor(_symmetric_block(cov, union, "correlation matrix"))
    return _gaussian_max_quantile("mc_oracle", root_of, neg_set, pos_set, alpha, reps, rng, tail)


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
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParameterError("data must be an N x J matrix with N >= 2")
    if R < 100:
        raise ParameterError(f"need R >= 100, got {R}")

    def root_of(union):
        y = data[:, union]
        finite = np.isfinite(y).all(axis=0)
        if not finite.all():
            raise ParameterError(f"non-finite value(s) in touched column(s): "
                                 f"{union[~finite].tolist()}")
        sd = y.std(axis=0, ddof=1)
        if np.any(sd == 0.0):
            bad = union[np.flatnonzero(sd == 0.0)]
            raise DegenerateDataError(f"zero-variance column(s): {bad.tolist()}")
        return (y - y.mean(axis=0)) / (sd * np.sqrt(data.shape[0])), False

    return _gaussian_max_quantile("multiplier_bootstrap", root_of, sets.plus, sets.minus, alpha,
                                  R, rng, tail)
