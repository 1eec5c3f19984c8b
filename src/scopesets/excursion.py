"""Excursion sets, simultaneous inclusion events, and the max-sup statistic.

The central objects are the lower/upper excursion sets of a field against a
threshold field,

    lower(f, c) = {s : f(s) < c(s)},    upper(f, c) = {s : f(s) > c(s)},

and the event that every band-widened excursion set of an estimate is
contained in the corresponding excursion set of the target, simultaneously
over a finite family of thresholds.  The statistic calibrating that event is

    t_stat(f, A, B) = max( sup_{s in A} -f(s),  sup_{s in B} f(s) ),

with sup over the empty set equal to -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Field, IndexSet, same_domain
from .errors import ParameterError, ThresholdOrderError


@dataclass(frozen=True)
class ThresholdFamily:
    """Finite families of lower-control and upper-control threshold fields."""

    lower: tuple
    upper: tuple

    def __init__(self, lower=(), upper=()):
        object.__setattr__(self, "lower", tuple(lower))
        object.__setattr__(self, "upper", tuple(upper))
        fields = self.lower + self.upper
        if fields:
            same_domain(*fields)

    @classmethod
    def symmetric(cls, fields) -> "ThresholdFamily":
        fields = tuple(fields)
        return cls(fields, fields)


@dataclass(frozen=True, eq=False)
class ScopeBands:
    """Band geometry: critical value q, rate tau, positive scaling field."""

    q: float
    tau: float
    sigma: Field

    def __post_init__(self):
        # a NaN margin would silently decide nothing; a float shows NaN without a ufunc
        if (self.q != self.q) if isinstance(self.q, float) else np.isnan(self.q):
            raise ParameterError("the critical value q must not be NaN")
        if not self.tau > 0:
            raise ParameterError(f"tau must be > 0, got {self.tau}")
        v = self.sigma.values
        if not ((v > 0) & (v < np.inf)).all():
            raise ParameterError("sigma must be strictly positive and finite")

    def half_width(self) -> np.ndarray:
        return self.q * self.tau * self.sigma.values


@dataclass(frozen=True)
class Partition3:
    """Disjoint lower / middle / upper classification of a domain."""

    lower: IndexSet
    middle: IndexSet
    upper: IndexSet


def _moved(c, delta):
    """c + delta, except that infinite thresholds never move (nor meet an opposite infinity)."""
    if isinstance(delta, float) and -np.inf < delta < np.inf:  # then c + delta keeps infinities
        return c + delta
    return c + np.where(np.isinf(c), 0.0, delta)


def widened_excursions(values, lower, upper, w):
    """Masks {values < lower - w} and {values > upper + w}.

    Infinite thresholds stay fixed.  All arguments broadcast, so a (B, J)
    batch of estimates against (J,) thresholds gives two (B, J) masks.
    """
    return values < _moved(lower, -w), values > _moved(upper, w)


def inclusion_event(mu_hat, mu, lower_vals, upper_vals, w):
    """Batched inclusion event over the last axis.

    True where, for every lower-control threshold c in ``lower_vals``,
    {mu_hat < c - w} lies inside {mu < c}, and dually for ``upper_vals``.
    """
    broken = np.zeros(np.shape(mu_hat)[:-1], dtype=bool)
    for c in lower_vals:
        broken |= ((mu_hat < _moved(c, -w)) & ~(mu < c)).any(axis=-1)
    for c in upper_vals:
        broken |= ((mu_hat > _moved(c, w)) & ~(mu > c)).any(axis=-1)
    return ~broken


def max_sup(g, neg_idx, pos_idx):
    """max(sup_{neg} -g, sup_{pos} g) over the last axis; empty sets give -inf."""
    # minus the min, not the max of a negated copy: one gathered copy alive, not two
    neg = -np.min(g[..., neg_idx], axis=-1, initial=np.inf)
    return np.maximum(neg, np.max(g[..., pos_idx], axis=-1, initial=-np.inf))


def lower_excursion(f: Field, c: Field, closed: bool = False) -> IndexSet:
    """{s : f(s) < c(s)}, or <= when ``closed``."""
    same_domain(f, c)
    if closed:
        return IndexSet.from_mask(f.values <= c.values)
    return IndexSet.from_mask(f.values < c.values)


def upper_excursion(f: Field, c: Field, closed: bool = False) -> IndexSet:
    """{s : f(s) > c(s)}, or >= when ``closed``."""
    same_domain(f, c)
    if closed:
        return IndexSet.from_mask(f.values >= c.values)
    return IndexSet.from_mask(f.values > c.values)


def t_stat(f: Field, neg_set: IndexSet, pos_set: IndexSet) -> float:
    """max(sup_{neg} -f, sup_{pos} f); empty sets contribute -inf."""
    return float(max_sup(f.values, neg_set.members, pos_set.members))


def scope_event(mu_hat: Field, mu: Field, bands: ScopeBands, fam: ThresholdFamily) -> bool:
    """Do all band-widened excursion inclusions hold for this realization?

    True iff for every lower-control threshold c-, the strict lower excursion
    of ``mu_hat`` below c- - q*tau*sigma is contained in {mu < c-}, and dually
    for every upper-control threshold.
    """
    same_domain(mu_hat, mu, bands.sigma)
    lower = [c.values for c in fam.lower]
    upper = [c.values for c in fam.upper]
    return bool(inclusion_event(mu_hat.values, mu.values, lower, upper, bands.half_width()))


def partition3(mu_hat: Field, b_minus: Field, b_plus: Field, bands: ScopeBands) -> Partition3:
    """Classify the domain into confidently-below / undecided / confidently-above.

    Needs q >= 0: a negative margin would let the two outer classes overlap.
    """
    same_domain(mu_hat, b_minus, b_plus, bands.sigma)
    if bands.q < 0:
        raise ParameterError("partition3 needs a nonnegative critical value")
    if b_minus is not b_plus and (b_minus.values > b_plus.values).any():
        raise ThresholdOrderError("b_minus must be <= b_plus pointwise")
    below, above = widened_excursions(
        mu_hat.values, b_minus.values, b_plus.values, bands.half_width()
    )
    return Partition3(
        IndexSet.from_mask(below), IndexSet.from_mask(~(below | above)), IndexSet.from_mask(above)
    )


def contour_regions(mu_hat: Field, levels, bands: ScopeBands) -> list[IndexSet]:
    """Simultaneous confidence regions for the level sets {mu = c_k}; needs q >= 0."""
    same_domain(mu_hat, bands.sigma)
    if bands.q < 0:
        raise ParameterError("contour_regions needs a nonnegative critical value")
    lev = np.asarray(levels, dtype=float).reshape(-1, 1)
    if not np.isfinite(lev).all():
        raise ParameterError("contour levels must be finite")
    w, v = bands.half_width(), mu_hat.values  # finite levels need no guard: lev - w is lev + (-w)
    return [IndexSet.from_mask(row) for row in ~((v < lev - w) | (v > lev + w))]


def roi_adapt(b: Field, roi: IndexSet) -> tuple[Field, Field]:
    """Restrict a threshold to a region of interest.

    Returns (c_plus, c_minus): equal to b on the region, +inf / -inf off it,
    so that every excursion against them stays inside the region.
    """
    mask = roi.mask(b.domain.size)
    c_plus = np.where(mask, b.values, np.inf)
    c_minus = np.where(mask, b.values, -np.inf)
    return Field(b.domain, c_plus), Field(b.domain, c_minus)


def scb_scope_equivalence(
    mu_hat: Field,
    mu: Field,
    sigma_hat: Field,
    tau: float,
    q: float,
    probe_thresholds,
) -> tuple[bool, bool]:
    """Band coverage versus all-threshold excursion inclusions.

    ``band_covers`` is the event |mu_hat - mu| <= q*tau*sigma_hat everywhere;
    ``inclusions_hold`` evaluates the inclusion event over the probe
    thresholds plus ``mu`` itself.  The two agree whenever the probes include
    ``mu``, which is the crux of the band/threshold duality.
    """
    same_domain(mu_hat, mu, sigma_hat)
    if not np.all(sigma_hat.values > 0):
        raise ParameterError("sigma_hat must be positive")
    w = q * tau * sigma_hat.values
    band_covers = bool(np.all(np.abs(mu_hat.values - mu.values) <= w))
    fam = ThresholdFamily.symmetric(tuple(probe_thresholds) + (mu,))
    bands = ScopeBands(q, tau, sigma_hat)
    return band_covers, scope_event(mu_hat, mu, bands, fam)
