"""Threshold preimages: oracle sets and data-driven thickened estimates.

The oracle preimage of a threshold family under a target field collects the
points where the target meets the family within a tolerance eta, split by the
side from which the graphs touch.  The plugin estimate replaces the target by
an estimate and eta by k * tau * sigma.

Inside the package touch sets are masks of plain arrays (``_touch_masks``, ``_touched``); the
``*_preimage_sets`` functions and ``scope_partition`` are the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import Rng
from .domain import Field, IndexSet, _gap, hausdorff_distance, same_domain
from .errors import ParameterError, ThresholdOrderError
from .excursion import widened_excursions
from .quantile import _iid_exact, _touch_counts, column_summary, iid_quantile


@dataclass(frozen=True)
class PreimageSets:
    """Plus-side, minus-side and combined preimage index sets."""

    plus: IndexSet
    minus: IndexSet
    both: IndexSet


@dataclass(frozen=True)
class KPolicy:
    """Rule for the thickening factor k of the plugin preimage estimator.

    kind 'log_over_kappa': k = log(N) / kappa.
    kind 'scb_level':      k solves (2 F_t(k, df) - 1)^J = 1 - beta, the
                           simultaneous-band quantile at coverage 1 - beta.
    kind 'fixed':          a constant.
    """

    kind: str
    kappa: float | None = None
    beta: float | None = None
    k: float | None = None

    def __post_init__(self):
        if self.kind == "log_over_kappa":
            if not (self.kappa is not None and 0 < self.kappa < np.inf):
                raise ParameterError("log_over_kappa needs a finite kappa > 0")
        elif self.kind == "scb_level":
            if not (self.beta is not None and np.finfo(float).eps <= self.beta < 1.0):
                raise ParameterError(f"scb_level needs beta in [2**-52, 1), got {self.beta}")
        elif self.kind == "fixed":
            if not (self.k is not None and self.k > 0):
                raise ParameterError("fixed needs k > 0")
        else:
            raise ParameterError(f"unknown k policy {self.kind!r}")

    def label(self) -> str:
        if self.kind == "log_over_kappa":
            kappa = format(self.kappa, "g")
            return f"log(N)/{kappa}"
        if self.kind == "scb_level":
            return f"{format(1.0 - self.beta, 'g')}-SCB"
        return f"k={format(self.k, 'g')}"


def _touch_masks(values: np.ndarray, thresholds, tol, finite: bool = False):
    """Plus-side 0 <= values - c <= tol and minus-side -tol <= values - c <= 0 masks, OR-ed over
    ``thresholds``, from one ``_gap`` each: equal values (infinities too) are at distance 0; other
    differences with an infinity are infinite with their sign: only an infinite tol keeps them.
    ``finite`` says ``values`` and every threshold are finite (``_gap``'s one subtraction)."""
    plus = minus = None
    for c in thresholds:
        d = _gap(values, c, finite)
        p, m = (d >= 0) & (d <= tol), (d <= 0) & (d >= -tol)
        if plus is None:
            plus, minus = p, m
        else:
            plus |= p
            minus |= m
    if plus is None:
        return np.zeros(np.shape(values), dtype=bool), np.zeros(np.shape(values), dtype=bool)
    return plus, minus


def _touched(values: np.ndarray, thresholds, tol):
    """Both ``_touch_masks`` sides at once, bit for bit: |values - c| <= tol for some c."""
    out = None
    for c in thresholds:  # a float tol 0.0 keeps equal values alone, infinities too: np.equal
        finite = isinstance(c, float) and -np.inf < c < np.inf  # then values - c forms no inf - inf
        hit = (np.equal(values, c) if isinstance(tol, float) and tol == 0.0
               else np.abs(values - c if finite else _gap(values, c)) <= tol)
        out = hit if out is None else out | hit
    return np.zeros(np.shape(values), dtype=bool) if out is None else out


def _sets(plus: np.ndarray, minus: np.ndarray) -> PreimageSets:
    return PreimageSets(
        IndexSet.from_mask(plus), IndexSet.from_mask(minus), IndexSet.from_mask(plus | minus)
    )


def oracle_preimage_sets(mu: Field, fam, eta: float = 0.0) -> PreimageSets:
    """Points where ``mu`` meets the family within eta, by side.

    Plus side: 0 <= mu - c <= eta for some member c; minus side mirrored;
    ``both`` is the union.  eta = 0 gives the exact preimage.
    """
    if eta < 0:
        raise ParameterError(f"eta must be >= 0, got {eta}")
    fam = tuple(fam)
    same_domain(mu, *fam)
    finite = mu._finite and all(c._finite for c in fam)
    return _sets(*_touch_masks(mu.values, [c.values for c in fam], eta, finite))


def plugin_preimage_sets(mu_hat: Field, fam, sigma: Field, tau: float, k: float) -> PreimageSets:
    """Thickened plugin estimate of the preimage sets with tolerance k*tau*sigma."""
    if not k > 0:
        raise ParameterError(f"k must be > 0, got {k}")
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    fam = tuple(fam)
    same_domain(mu_hat, sigma, *fam)
    finite = mu_hat._finite and all(c._finite for c in fam)
    return _sets(*_touch_masks(mu_hat.values, [c.values for c in fam], k * tau * sigma.values,
                               finite))


def resolve_k(policy: KPolicy, N: int, J: int, df: float) -> float:
    """Concrete thickening factor for sample size N and J locations."""
    if N < 2:
        raise ParameterError(f"need N >= 2, got {N}")
    if policy.kind == "log_over_kappa":
        return float(np.log(N) / policy.kappa)
    if policy.kind == "scb_level":
        return iid_quantile(J, policy.beta, df, "two_sided").q
    return float(policy.k)


@dataclass(frozen=True, eq=False)
class ScopePartition:
    """Column means and sds, k, touch count m_hat, q_hat, and the below/above column masks."""

    mean: np.ndarray
    sd: np.ndarray
    k: float
    m_hat: int
    q_hat: float
    below: np.ndarray
    above: np.ndarray


def _partition_rows(mean, sd, lower, upper, alpha: float, k: float, tau: float, df):
    """``scope_partition``'s m_hat, q_hat, below and above per (B, J) row (or one (J,) row) of
    column means and sds, with ``_iid_exact`` solved once per distinct (n_one, n_both) pair."""
    n_one, n_both = _touch_counts(*(_touched(mean, (c,), k * tau * sd) for c in (lower, upper)))
    pairs = list(zip(np.ravel(n_one).tolist(), np.ravel(n_both).tolist()))
    solved = {pair: _iid_exact(*pair, alpha, df, "upper").q for pair in set(pairs)}
    q = np.reshape([solved[pair] for pair in pairs], np.shape(n_one))
    return n_one + n_both, q, *widened_excursions(mean, lower, upper, q[..., None] * tau * sd)


def scope_partition(data, lower, upper, alpha: float, policy: KPolicy) -> ScopePartition:
    """Plug-in SCoPE partition of the columns of an N x J sample (rows are observations).

    With tau = 1/sqrt(N), m_hat counts the columns whose mean is within k*tau*sd of ``lower`` or
    ``upper`` (scalars or length-J arrays, lower <= upper), q_hat is the iid t critical value on
    N - 1 degrees of freedom of each edge's touch set (``_partition_rows``: two-sided at a level,
    one-sided on separated edges), and a column is below if its mean is under lower -
    q_hat*tau*sd, above if over upper + q_hat*tau*sd.  Infinite edges never move.
    """
    if np.any(np.greater(lower, upper)):
        raise ThresholdOrderError("lower must be <= upper pointwise")
    mean, sd = column_summary(data)
    N, J = np.shape(data)
    tau = 1.0 / np.sqrt(N)
    k = resolve_k(policy, N, J, df=N - 1)
    m_hat, q_hat, below, above = _partition_rows(mean, sd, lower, upper, alpha, k, tau, N - 1)
    return ScopePartition(mean, sd, k, int(m_hat), float(q_hat), below, above)


def consistency_probe(
    mu: Field,
    fam,
    policy: KPolicy,
    n_list,
    reps: int,
    rng: Rng,
    sampler: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[dict]:
    """Monte-Carlo check that the plugin preimage tracks the oracle one.

    For each N, draws ``reps`` data sets (iid unit-variance Gaussian around
    ``mu`` unless a sampler is given), forms the plugin estimate with
    tau = 1/sqrt(N) and the policy's k, and records the mean Hausdorff
    distance to the exact oracle preimage plus the frequency with which the
    oracle set is contained in the estimate.  Containment is checked on the
    combined sets: the estimated plus/minus split keys on the sign of the
    estimate at exact-touch points, so per-side containment is a coin flip
    there no matter how large N gets.
    """
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    fam = tuple(fam)
    dom = same_domain(mu, *fam)
    thresholds = [c.values for c in fam]
    target = IndexSet.from_mask(_touched(mu.values, thresholds, 0.0))
    draw = sampler or (lambda g, N: column_summary(g.standard_normal((N, dom.size)) + mu.values))
    out = []
    for ni, N in enumerate(n_list):
        k = resolve_k(policy, N, dom.size, df=N - 1)
        tau = 1.0 / np.sqrt(N)
        gen = rng.child(ni).generator()
        dh_sum = 0.0
        incl = 0
        for _ in range(reps):
            # a field checks the sampler's output: length J, no NaN
            mu_hat, sigma_hat = (Field(dom, v).values for v in draw(gen, N))
            est = IndexSet.from_mask(_touched(mu_hat, thresholds, k * tau * sigma_hat))
            dh_sum += hausdorff_distance(est, target, dom)
            incl += target.issubset(est)
        out.append(
            {
                "N": int(N),
                "k": k,
                "mean_hausdorff": dh_sum / reps,
                "inclusion_freq": incl / reps,
            }
        )
    return out
