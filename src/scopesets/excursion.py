"""Excursion sets, simultaneous inclusion events, and the max-sup statistic.

The central objects are the lower/upper excursion sets of a field against a
threshold field,

    lower(f, c) = {s : f(s) < c(s)},    upper(f, c) = {s : f(s) > c(s)},

and the event that every band-widened excursion set of an estimate is
contained in the corresponding excursion set of the target, simultaneously
over a finite family of thresholds.  The statistic calibrating that event is

    t_stat(f, A, B) = max( sup_{s in A} -f(s),  sup_{s in B} f(s) ),

with sup over the empty set equal to -inf.  ``ScopeBands`` and ``ThresholdFamily`` fix
their margin q*tau*sigma and threshold stacks at construction, and the kernel reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Field, IndexSet, same_domain
from .errors import ParameterError, ThresholdOrderError


@dataclass(frozen=True)
class ThresholdFamily:
    """Finite families of lower-control and upper-control threshold fields."""

    lower: tuple
    upper: tuple
    _stacks: tuple = field(init=False, repr=False, compare=False)  # read-only (L, J) lower, upper

    def __init__(self, lower=(), upper=()):
        object.__setattr__(self, "lower", tuple(lower))
        object.__setattr__(self, "upper", tuple(upper))
        fields = self.lower + self.upper
        J = same_domain(*fields).size if fields else 1  # no domain: (0, 1) broadcasts to any J
        lower, upper = (np.array([c.values for c in cs]).reshape(len(cs), J)
                        for cs in (self.lower, self.upper))
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "_stacks", (lower, upper))

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
    _w: np.ndarray | None = field(init=False, repr=False, compare=False)  # q*tau*sigma; None: inf

    def __post_init__(self):
        # a NaN margin would silently decide nothing; a float shows NaN without a ufunc
        if (self.q != self.q) if isinstance(self.q, float) else np.isnan(self.q):
            raise ParameterError("the critical value q must not be NaN")
        if not self.tau > 0:
            raise ParameterError(f"tau must be > 0, got {self.tau}")
        if not self.tau < np.inf:  # an infinite rate makes every margin NaN or infinite
            raise ParameterError(f"tau must be finite, got {self.tau}")
        s = self.sigma  # NaN-free (``Field``): its min and max bound every value
        if not (s._min > 0 and s._max < np.inf):
            raise ParameterError("sigma must be strictly positive and finite")
        scale = self.q * self.tau  # as ``half_width`` forms w; a float product never warns
        w = scale * s.values if -np.inf < float(scale) * s._max < np.inf else None
        if w is not None:
            w.setflags(write=False)
        object.__setattr__(self, "_w", w)

    def half_width(self) -> np.ndarray:
        return self.q * self.tau * self.sigma.values


@dataclass(frozen=True)
class Partition3:
    """Disjoint lower / middle / upper classification of a domain."""

    lower: IndexSet
    middle: IndexSet
    upper: IndexSet


def _bands_excursions(values, lower, upper, bands):
    """``widened_excursions`` on the margin of ``bands``: the recorded w, finite by construction,
    or ``half_width()`` where that overflowed."""
    w = bands._w
    if w is None:
        return widened_excursions(values, lower, upper, bands.half_width())
    return widened_excursions(values, lower, upper, w, finite=True)


def widened_excursions(values, lower, upper, w, finite=False):
    """Masks {values < lower - w} and {values > upper + w}; all arguments broadcast, so a (B, J)
    batch of estimates against (J,) thresholds gives two (B, J) masks.  Infinite thresholds stay
    fixed: by themselves under a finite w, else by a guard that never forms inf - inf.
    ``finite=True`` is the caller's promise that every entry of w is finite: it skips the check.
    """
    if finite or np.isfinite(w).all():
        return values < lower - w, values > upper + w
    return (values < lower + np.where(np.isinf(lower), 0.0, -w),
            values > upper + np.where(np.isinf(upper), 0.0, w))


def inclusion_event(mu_hat, mu, lower_vals, upper_vals, w):
    """Batched inclusion event over the last axis, every length-J threshold in one stacked pass.

    True where, for every lower-control threshold c in ``lower_vals``,
    {mu_hat < c - w} lies inside {mu < c}, and dually for ``upper_vals``.
    """
    lower, upper = (np.reshape(cs, (len(cs), np.shape(mu)[-1])) for cs in (lower_vals, upper_vals))
    below, above = widened_excursions(np.expand_dims(mu_hat, -2), lower, upper, w)
    broken = (below & ~(mu < lower)).any(axis=(-2, -1)) | (above & ~(mu > upper)).any(axis=(-2, -1))
    return ~broken


def max_sup(g, neg_idx, pos_idx):
    """max(sup_{neg} -g, sup_{pos} g) over the last axis; empty sets give -inf."""
    # minus the min, not the max of a negated copy: one gathered copy alive, not two
    neg = -np.min(g[..., neg_idx], axis=-1, initial=np.inf)
    return np.maximum(neg, np.max(g[..., pos_idx], axis=-1, initial=-np.inf))


def lower_excursion(f: Field, c: Field, closed: bool = False) -> IndexSet:
    """{s : f(s) < c(s)}, or <= when ``closed``."""
    same_domain(f, c)
    return IndexSet.from_mask((np.less_equal if closed else np.less)(f.values, c.values))


def upper_excursion(f: Field, c: Field, closed: bool = False) -> IndexSet:
    """{s : f(s) > c(s)}, or >= when ``closed``."""
    same_domain(f, c)
    return IndexSet.from_mask((np.greater_equal if closed else np.greater)(f.values, c.values))


def t_stat(f: Field, neg_set: IndexSet, pos_set: IndexSet) -> float:
    """max(sup_{neg} -f, sup_{pos} f); empty sets contribute -inf."""
    return float(max_sup(f.values, neg_set.members, pos_set.members))


def scope_event(mu_hat: Field, mu: Field, bands: ScopeBands, fam: ThresholdFamily) -> bool:
    """Do all band-widened excursion inclusions hold for this realization?

    True iff for every lower-control threshold c-, the strict lower excursion
    of ``mu_hat`` below c- - q*tau*sigma is contained in {mu < c-}, and dually
    for every upper-control threshold.
    """
    same_domain(mu_hat, mu, bands.sigma, *fam.lower, *fam.upper)
    m, (lower, upper) = mu.values, fam._stacks  # ``inclusion_event`` on one realization
    below, above = _bands_excursions(mu_hat.values, lower, upper, bands)
    return not ((below & ~(m < lower)).any() or (above & ~(m > upper)).any())


def partition3(mu_hat: Field, b_minus: Field, b_plus: Field, bands: ScopeBands) -> Partition3:
    """Classify the domain into confidently-below / undecided / confidently-above.

    Needs q >= 0: a negative margin would let the two outer classes overlap.
    """
    same_domain(mu_hat, b_minus, b_plus, bands.sigma)
    if bands.q < 0:
        raise ParameterError("partition3 needs a nonnegative critical value")
    if b_minus is not b_plus and (b_minus.values > b_plus.values).any():
        raise ThresholdOrderError("b_minus must be <= b_plus pointwise")
    below, above = _bands_excursions(mu_hat.values, b_minus.values, b_plus.values, bands)
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
    below, above = _bands_excursions(mu_hat.values, lev, lev, bands)
    return [IndexSet.from_mask(row) for row in ~(below | above)]


def roi_adapt(b: Field, roi: IndexSet) -> tuple[Field, Field]:
    """Restrict a threshold to a region of interest.

    Returns (c_plus, c_minus): equal to b on the region, +inf / -inf off it,
    so that every excursion against them stays inside the region.
    """
    mask = roi.mask(b.domain.size)
    return tuple(Field(b.domain, np.where(mask, b.values, edge)) for edge in (np.inf, -np.inf))


def scb_scope_equivalence(
    mu_hat: Field,
    mu: Field,
    sigma_hat: Field,
    tau: float,
    q: float,
    probe_thresholds,
) -> tuple[bool, bool]:
    """Band coverage versus all-threshold excursion inclusions.

    ``band_covers`` is the event |mu_hat - mu| <= q*tau*sigma_hat everywhere, read as the
    inclusion event at the one threshold ``mu``; ``inclusions_hold`` evaluates it over the probe
    thresholds plus ``mu`` itself.  The two agree, which is the crux of the band/threshold
    duality, and in floating point too, since c - w and c + w round monotonically in c.
    """
    same_domain(mu_hat, mu, sigma_hat)
    bands = ScopeBands(q, tau, sigma_hat)
    band_covers = scope_event(mu_hat, mu, bands, ThresholdFamily.symmetric((mu,)))
    fam = ThresholdFamily.symmetric(tuple(probe_thresholds) + (mu,))
    return band_covers, scope_event(mu_hat, mu, bands, fam)
