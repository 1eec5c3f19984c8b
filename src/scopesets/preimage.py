"""Threshold preimages: oracle sets and data-driven thickened estimates.

The oracle preimage of a threshold family under a target field collects the
points where the target meets the family within a tolerance eta, split by the
side from which the graphs touch.  The plugin estimate replaces the target by
an estimate and eta by k * tau * sigma.

Inside the package touch sets are masks (``_oracle_masks``, ``_plugin_masks``);
the ``*_preimage_sets`` functions are the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import Rng
from .domain import Field, IndexSet, _gap, hausdorff_distance, same_domain
from .errors import ParameterError
from .quantile import iid_quantile


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
            if not (self.kappa is not None and self.kappa > 0):
                raise ParameterError("log_over_kappa needs kappa > 0")
        elif self.kind == "scb_level":
            if not (self.beta is not None and 0.0 < self.beta < 1.0):
                raise ParameterError("scb_level needs beta in (0, 1)")
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


def _touch_masks(values: np.ndarray, fam, tol):
    """Plus-side 0 <= values - c <= tol and minus-side masks, OR-ed over ``fam``.

    Equal values, infinite ones included, are at distance 0; any other
    difference involving an infinity is infinite with its own sign, so it
    counts on that side and only under an infinite tolerance.
    """
    plus = np.zeros(values.shape, dtype=bool)
    minus = np.zeros(values.shape, dtype=bool)
    for c in fam:
        diff = _gap(values, c.values)
        plus |= (diff >= 0) & (diff <= tol)
        minus |= (diff <= 0) & (-diff <= tol)
    return plus, minus


def _sets(plus: np.ndarray, minus: np.ndarray) -> PreimageSets:
    return PreimageSets(
        IndexSet.from_mask(plus), IndexSet.from_mask(minus), IndexSet.from_mask(plus | minus)
    )


def _oracle_masks(mu: Field, fam, eta: float):
    if eta < 0:
        raise ParameterError(f"eta must be >= 0, got {eta}")
    fam = tuple(fam)
    same_domain(mu, *fam)
    return _touch_masks(mu.values, fam, eta)


def _plugin_masks(mu_hat: Field, fam, sigma: Field, tau: float, k: float):
    if not k > 0:
        raise ParameterError(f"k must be > 0, got {k}")
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    fam = tuple(fam)
    same_domain(mu_hat, sigma, *fam)
    return _touch_masks(mu_hat.values, fam, k * tau * sigma.values)


def oracle_preimage_sets(mu: Field, fam, eta: float = 0.0) -> PreimageSets:
    """Points where ``mu`` meets the family within eta, by side.

    Plus side: 0 <= mu - c <= eta for some member c; minus side mirrored;
    ``both`` is the union.  eta = 0 gives the exact preimage.
    """
    return _sets(*_oracle_masks(mu, fam, eta))


def plugin_preimage_sets(mu_hat: Field, fam, sigma: Field, tau: float, k: float) -> PreimageSets:
    """Thickened plugin estimate of the preimage sets with tolerance k*tau*sigma."""
    return _sets(*_plugin_masks(mu_hat, fam, sigma, tau, k))


def resolve_k(policy: KPolicy, N: int, J: int, df: float) -> float:
    """Concrete thickening factor for sample size N and J locations."""
    if N < 2:
        raise ParameterError(f"need N >= 2, got {N}")
    if policy.kind == "log_over_kappa":
        return float(np.log(N) / policy.kappa)
    if policy.kind == "scb_level":
        return iid_quantile(J, policy.beta, df, "two_sided").q
    return float(policy.k)


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
    target = IndexSet.from_mask(np.logical_or(*_oracle_masks(mu, fam, 0.0)))
    out = []
    for ni, N in enumerate(n_list):
        k = resolve_k(policy, N, dom.size, df=N - 1)
        tau = 1.0 / np.sqrt(N)
        gen = rng.child(ni).generator()
        dh_sum = 0.0
        incl = 0
        for _ in range(reps):
            if sampler is None:
                y = gen.standard_normal((N, dom.size)) + mu.values
                mu_hat = y.mean(axis=0)
                sigma_hat = y.std(axis=0, ddof=1)
            else:
                mu_hat, sigma_hat = sampler(gen, N)
            est = IndexSet.from_mask(np.logical_or(
                *_plugin_masks(Field(dom, mu_hat), fam, Field(dom, sigma_hat), tau, k)))
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
