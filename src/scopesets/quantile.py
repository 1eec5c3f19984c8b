"""Critical-value solvers for simultaneous excursion inclusion.

Four routes to the same kind of number.  Under iid noise q depends on the
touch sets only through the counts of points touched from one side (n_one) and
from both (n_both), so one solver keyed by those counts, ``_iid_exact``, serves
``iid_quantile``, ``iid_exact_quantile``, Storey's null-count plugin, the band
tests and the simulation tables: q = -F^-1 of a tail sf = 1 - F(q) solved on
the log scale, in closed form when one count is zero, by safeguarded Newton
otherwise; a lower tail at alpha <= 2^-m solves c = 2F(q) - 1, or F(q) itself, instead.
A Monte-Carlo oracle and a multiplier bootstrap share one solver of the
limiting max-sup law and differ only in the square root normals pass through.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dist import Rng, _t_abs_quantile, _t_quantile, t_cdf
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


def column_summary(data, *, columns=None) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sample standard deviations of an N x J matrix.

    Needs N >= 2; zero-variance columns raise, each named by its entry of ``columns`` (0..J-1).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParameterError("data must be an N x J matrix with N >= 2")
    sd = data.std(axis=0, ddof=1)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        named = zero if columns is None else np.asarray(columns)[zero]
        raise DegenerateDataError(f"zero-variance column {', '.join(map(str, named.tolist()))}")
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
    = alpha for the lower, with F the t CDF on ``df`` degrees of freedom, as
    q = -F^-1(sf) for the tail sf = 1 - F(q) of ``_tail_sf``.  On the lower
    tail with alpha <= 2^-m, q is the |T| quantile of c = 2F(q) - 1 of
    ``_lower_c`` when some point is two-sided, and F^-1(alpha^(1/m)) when
    none is: there c and F(q) are <= 1/2, and sf near 1/2 or 1 would keep
    only their absolute digits.  Both counts zero gives q = 0 with a flag.
    """
    _check_alpha(alpha)
    if tail not in ("upper", "lower"):
        raise ParameterError(f"unknown tail {tail!r}")
    if n_one < 0 or n_both < 0:
        raise ParameterError(f"point counts must be >= 0, got {n_one} and {n_both}")
    if not float(df) > 0:
        raise ParameterError(f"t degrees of freedom must be > 0, got {df}")
    m = n_one + n_both
    if m == 0:
        q = 0.0
    elif tail == "lower" and alpha <= 0.5 ** m:  # then c, F(q) <= alpha^(1/m) <= 1/2
        q = float(_t_abs_quantile(_lower_c(alpha, n_one, n_both), df) if n_both
                  else _t_quantile(math.exp(math.log(alpha) / m), df))
    else:
        q = 0.0 - float(_t_quantile(_tail_sf(alpha, n_one, n_both, tail), df))
    return QuantileEstimate(q, "iid_exact", alpha, m, empty_sets=m == 0)


def _touch_counts(neg, pos):
    """(n_one, n_both) of touch masks ``neg`` and ``pos``: ints on 1-D masks, else per row."""
    both = neg & pos
    if both.ndim == 1:  # no axis: about 3x faster than axis=-1 at J = 80
        n_both = int(np.count_nonzero(both))
        return int(np.count_nonzero(neg) + np.count_nonzero(pos)) - 2 * n_both, n_both
    n_both = np.count_nonzero(both, axis=-1)
    return np.count_nonzero(neg, axis=-1) + np.count_nonzero(pos, axis=-1) - 2 * n_both, n_both


def _tail_sf(alpha: float, n_one: int, n_both: int, tail: str) -> float:
    """1 - F(q) where F(q)^n_one (2F(q) - 1)^n_both is 1 - alpha (upper ``tail``) or alpha
    (lower), on the log scale so a tiny alpha keeps its digits; q = 0.0 - F^-1 of it.  With a
    count zero: -expm1(log(target) / m), halved when two-sided.  Else h(sf) = n_one log1p(-sf)
    + n_both log1p(-2 sf) - log(target) falls and is concave on (0, 1/2): Newton runs down from
    the right until sf stops, bisecting steps that leave the bracket of both closed forms at m."""
    log_target = math.log1p(-alpha) if tail == "upper" else math.log(alpha)
    m = n_one + n_both
    if n_one == 0 or n_both == 0:
        return -math.expm1(log_target / m) / (2.0 if n_both else 1.0)
    lo, hi = _tail_sf(alpha, 0, m, tail), min(_tail_sf(alpha, m, 0, tail), 0.5)
    sf, step = None, hi if hi < 0.5 else 0.5 * (lo + hi)  # h(1/2) = -inf
    while step != sf:
        sf = step
        h = n_one * math.log1p(-sf) + n_both * math.log1p(-2.0 * sf) - log_target
        lo, hi = (sf, hi) if h > 0.0 else (lo, sf)
        step = sf + h / (n_one / (1.0 - sf) + 2.0 * n_both / (1.0 - 2.0 * sf))
        if step != sf and not lo < step < hi:
            step = 0.5 * (lo + hi)
    return sf


def _lower_c(alpha: float, n_one: int, n_both: int) -> float:
    """c = 2F(q) - 1 where F(q)^n_one (2F(q) - 1)^n_both = alpha and n_both > 0, the lower tail.

    At a tiny alpha c is near 0, where sf = (1 - c)/2 would keep only its absolute digits.
    c = alpha^(1/n_both) when n_one is 0.  Else g(c) = n_one log1p(c) + n_both log c -
    log(2^n_one alpha) rises and is concave on (0, 1), with its root between the closed forms
    at m, 2 alpha^(1/m) - 1 and alpha^(1/m): Newton runs up from the left until c stops,
    bisecting steps that leave that bracket, as ``_tail_sf`` does on its scale.
    """
    root_m = math.exp(math.log(alpha) / (n_one + n_both))
    if n_one == 0:
        return root_m
    lo, hi = max(2.0 * root_m - 1.0, 0.0), root_m
    log_target = math.log(alpha) + n_one * math.log(2.0)
    c, step = None, lo if lo > 0.0 else 0.5 * hi  # g(0) = -inf
    while step != c:
        c = step
        g = n_one * math.log1p(c) + n_both * math.log(c) - log_target
        lo, hi = (lo, c) if g > 0.0 else (c, hi)
        step = c - g / (n_one / (1.0 + c) + n_both / c)
        if step != c and not lo < step < hi:
            step = 0.5 * (lo + hi)
    return c


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
    # math's expm1 per m, as in _iid_exact, so each tail is the scalar route's to the bit
    counts = [(0, m) if sided == "two_sided" else (m, 0) for m in range(1, J + 1)]
    sf = np.array([_tail_sf(alpha, *c, "upper") for c in counts])
    return np.concatenate([[q0], 0.0 - _t_quantile(sf, df)])


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


def _chunk_sizes(reps: int, width: int):
    """Lazily, the sizes of the chunks of ``reps`` rows: at most 4e6 values of ``width`` each."""
    rows = max(1, min(reps, 4_000_000 // max(1, width)))
    return (min(rows, reps - start) for start in range(0, reps, rows))


def _map_chunks(fn, reps: int, width: int, rng: Rng, workers: int = 1) -> list:
    """``fn(gen, n)`` per chunk of ``reps`` rows, in chunk order; chunk i draws from child stream i.

    ``width`` is the float values a chunk keeps alive per row, so chunk sizes (``_chunk_sizes``)
    depend on the problem size alone and results are bit-reproducible.  ``workers`` >= 2 runs
    them on a pool made and joined here, where a failing chunk cancels those not yet started;
    simulate passes no count and runs serially.
    """
    sizes = list(_chunk_sizes(reps, width))
    gens = [rng.child(i).generator() for i in range(len(sizes))]
    if workers < 2:
        return list(map(fn, gens, sizes))
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, gens, sizes))


def _gaussian_max_quantile(method, root_of, neg_set: IndexSet, pos_set: IndexSet, alpha,
                           reps, rng: Rng, tail: str) -> QuantileEstimate:
    """Order statistic of ``reps`` max-sup draws max_sup(z @ root, neg, pos).

    ``root, upper = root_of(union)``: root has one column per point of the union of the
    touch sets and z one standard normal per row of root; ``upper`` marks a triangular
    root, which a chunk multiplies in place by ``dtrmm``.  Columns of points only in neg
    are negated once, so a draw is max(row max, negated max over points in both sets).
    Both sets empty gives q = 0 with a flag.  The upper tail returns the order statistic at
    ceil((1-alpha)*reps), the lower tail (for the equivalence test) the one at floor(alpha*reps).
    Chunks run on min(2, chunks, usable CPUs) threads, each streaming blocks of half a chunk
    through its worker's buffer pair: memory stays one chunk's and q the same on any CPU count.
    """
    _check_alpha(alpha)
    if tail not in ("upper", "lower"):
        raise ParameterError(f"unknown tail {tail!r}")
    if len(neg_set) == 0 and len(pos_set) == 0:
        return QuantileEstimate(0.0, method, alpha, 0, empty_sets=True)
    union = np.union1d(neg_set.members, pos_set.members)
    root, upper = root_of(union)
    if upper:  # scipy.linalg loads on the first triangular root of a process, not at import
        from scipy.linalg.blas import dtrmm
    root *= np.where(np.isin(union, pos_set.members), 1.0, -1.0)
    both = np.searchsorted(union, neg_set.intersection(pos_set).members)

    width = max(root.shape[0], union.size + both.size)
    rows = next(_chunk_sizes(reps, width))
    block = -(-rows // 2)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(2 if reps > rows else 1, cpus or 1)  # two chunks or more: two workers
    free = [(np.empty((block, root.shape[0])), None if upper else np.empty((block, union.size)))
            for _ in range(workers)]  # made here: worker-thread buffers grow glibc's arenas

    def draw(gen, n):
        z, x = free.pop()
        try:
            out = np.empty(n)
            for s in range(0, n, block):  # half a chunk at a time: at most two blocks
                zb = gen.standard_normal(out=z[:min(block, n - s)])  # zb.T is a Fortran view
                xb = (dtrmm(1.0, root, zb.T, trans_a=1, overwrite_b=1).T if upper
                      else np.matmul(zb, root, out=x[:len(zb)]))
                out[s:s + len(zb)] = max_sup(xb, both, slice(None))
            return out
        finally:
            free.append((z, x))
    stats = np.sort(np.concatenate(_map_chunks(draw, reps, width, rng, workers)))
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
        mean, sd = column_summary(y, columns=union)
        return (y - mean) / (sd * np.sqrt(data.shape[0])), False

    return _gaussian_max_quantile("multiplier_bootstrap", root_of, sets.plus, sets.minus, alpha,
                                  R, rng, tail)
