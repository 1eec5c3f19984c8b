"""Band-based relevance and equivalence tests plus multiple-testing baselines.

The band tests grT, lrT, eT and leT are one template, ``_band_test``.  eT and
leT need a strictly positive band gap.  d is ``delta_rel`` for the local tests
lrT and leT and ``delta_eqv`` for the global tests grT and eT.  The edges, taken
as (b_minus, b_plus) or as (b_plus, b_minus) for leT, move by +d and -d for
the local tests and by -d and +d for the global ones, so that they touch the
target.  The critical value q is the upper (for eT the lower) quantile of the
max-sup statistic whose negated sup runs over the touch set of the first shifted
edge and plain sup over that of the second, as in ``preimage.scope_partition``:
each is the union of both sides (``preimage._touched``), where the target meets
the edge (oracle) or the estimate lies within k*tau*sigma of it (plug-in).  The
decision reads the sets where the estimate lies below the first edge minus
q*tau*sigma and above the second plus q*tau*sigma: their union for grT and lrT,
their intersection for leT, their emptiness for eT.  On plain arrays, one ``_gap`` of the
target (plug-in: the estimate) against both edges gives d and the touch sets: a shifted edge
touches where its gap equals the shift (plug-in: within k*tau*sigma of it), so the oracle touch
set is exactly where the target attains d.  ``Field`` and ``BandSpec`` record at construction
whether they are finite and whether the band is open, so a gap between finite sides is one
subtraction and no call rescans the band.  ``excursion._excursions`` widens each edge by one
subtract or add unless q*tau*sigma is infinite.

Oracle calibration (target known) is validated for all four tests; plug-in calibration,
which estimates the touch sets from the data, for grT, lrT and leT (eT is experimental): plug-in
grT clips its shift at 0, -min(d, 0), so it rejects exactly where ``preimage.scope_partition``
on (b_minus, b_plus) flags a point, and still reports d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .dist import Rng
from .domain import Field, IndexSet, _gap, same_domain
from .errors import ParameterError, ThresholdOrderError
from .excursion import ScopeBands, _excursions
from .preimage import _touched
from .quantile import (QuantileEstimate, _check_alpha, _checked_pvalues, _iid_exact,
                       _touch_counts, mc_oracle_quantile)
from .quantile import t_pvalues  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class BandSpec:
    """A band b_minus <= b_plus between which the null pins the target."""

    b_minus: Field
    b_plus: Field
    _edges: np.ndarray = field(init=False, repr=False, compare=False)
    _finite: bool = field(init=False, repr=False, compare=False)
    _open: bool = field(init=False, repr=False, compare=False)  # b_plus > b_minus everywhere

    def __post_init__(self):
        same_domain(self.b_minus, self.b_plus)
        if np.any(self.b_minus.values > self.b_plus.values):
            raise ThresholdOrderError("b_minus must be <= b_plus pointwise")
        object.__setattr__(self, "_edges", np.stack((self.b_minus.values, self.b_plus.values)))
        object.__setattr__(self, "_finite", self.b_minus._finite and self.b_plus._finite)
        object.__setattr__(self, "_open", bool((self._edges[1] > self._edges[0]).all()))


@dataclass(frozen=True)
class TestDecision:
    kind: str
    quantile_used: QuantileEstimate
    delta: float
    global_reject: bool | None = None
    rejected: IndexSet = field(default_factory=IndexSet)


@dataclass(frozen=True, eq=False)
class Calibration:
    """How to solve for the critical value.

    Oracle mode reads the touching sets off the known target; plug-in mode
    estimates them from the data via the thickened preimage estimator with
    factor ``k`` (experimental for eT).  ``cov`` is "iid_normal", ("iid_t", df) or a
    correlation matrix; iid noise uses the exact product-CDF solver, a
    correlation matrix ``reps`` Monte-Carlo draws from ``rng``.  Compared by identity.
    """

    alpha: float = 0.1
    cov: object = "iid_normal"
    reps: int = 200_000
    rng: Rng | None = None
    k: float | None = None
    _df: float | None = field(init=False, repr=False, compare=False)  # cov parsed; None: a matrix

    def __post_init__(self):
        cov = self.cov
        named = isinstance(cov, tuple) and len(cov) > 0 and isinstance(cov[0], str)
        iid_t = named and cov[0] == "iid_t" and len(cov) == 2 and isinstance(cov[1], Real)
        if (named or isinstance(cov, str)) and not (iid_t or cov == "iid_normal"):
            raise ParameterError(f'cov must be "iid_normal", ("iid_t", df) or a correlation '
                                 f"matrix, got {cov!r}")
        object.__setattr__(self, "_df", float(cov[1]) if iid_t else
                           np.inf if isinstance(cov, str) else None)


def _shift(g: np.ndarray, local: bool) -> float:
    """d off the gaps g = (mu - b_minus, mu - b_plus): the least distance to an edge (local) or
    the largest signed exceedance (global), where 0.0 - x keeps +0.0 that -x would not."""
    return float(np.abs(g).min() if local else
                 max(np.maximum.reduce(g[1]), 0.0 - np.minimum.reduce(g[0])))


def delta_rel(mu: Field, band: BandSpec) -> tuple[float, float, float]:
    """Smallest distances of the target to each band edge (and their min)."""
    same_domain(mu, band.b_minus)
    g = _gap(mu.values, band._edges, mu._finite and band._finite)
    d_minus, d_plus = np.minimum.reduce(np.abs(g), axis=1).tolist()
    return min(d_minus, d_plus), d_minus, d_plus


def delta_eqv(mu: Field, band: BandSpec) -> float:
    """Largest signed exceedance of the target over the band (<= 0 inside)."""
    same_domain(mu, band.b_minus)
    return _shift(_gap(mu.values, band._edges, mu._finite and band._finite), False)


def _solve_q(neg: np.ndarray, pos: np.ndarray, cal: Calibration, tail: str) -> QuantileEstimate:
    """iid noise reads the counts of the touch masks ``neg`` and ``pos``, a matrix their members."""
    if cal._df is not None:
        return _iid_exact(*_touch_counts(neg, pos), cal.alpha, cal._df, tail)
    return mc_oracle_quantile(cal.cov, IndexSet.from_mask(neg), IndexSet.from_mask(pos),
                              cal.alpha, cal.reps, cal.rng or Rng(0), tail=tail)


def _band_test(kind: str, mu_hat: Field, band: BandSpec, bands: ScopeBands, quantile,
               mu: Field | None) -> TestDecision:
    """Test ``kind`` by the module's template; q is ``bands.q`` when ``quantile`` is None,
    ``quantile`` itself when it is a ``QuantileEstimate``, and calibrated on ``mu`` (oracle)
    or on ``mu_hat`` (plug-in, needs ``k``) when it is a ``Calibration``.
    """
    if kind in ("eT", "leT") and not band._open:
        raise ParameterError("equivalence testing needs inf(b_plus - b_minus) > 0")
    local = kind in ("lrT", "leT")
    reference = mu if mu is not None else mu_hat
    same_domain(mu_hat, band.b_minus, bands.sigma, reference)
    g = _gap(reference.values, band._edges, reference._finite and band._finite)
    d = _shift(g, local)
    s = d if local else -(min(d, 0.0) if kind == "grT" and mu is None else d)
    i, j = (1, 0) if kind == "leT" else (0, 1)  # the rows of the first and second edge
    if quantile is None:
        est = QuantileEstimate(bands.q, "given", float("nan"))
    elif isinstance(quantile, QuantileEstimate):
        est = quantile
    elif not isinstance(quantile, Calibration):
        raise ParameterError("quantile must be None, a QuantileEstimate, or a Calibration")
    else:
        # an edge shifted by t touches where its gap is t; infinite edges never move
        t = (s, -s) if band._finite else np.where(np.isinf(band._edges[[i, j]]), 0.0, [[s], [-s]])
        if mu is not None:  # the oracle: exactly where the gap is t (_touched at tol 0.0)
            neg, pos = np.equal(g[i], t[0]), np.equal(g[j], t[1])
        elif quantile.k is None:
            raise ParameterError("plug-in calibration needs k")
        elif not quantile.k > 0:
            raise ParameterError(f"k must be > 0, got {quantile.k}")
        else:
            tol = quantile.k * bands.tau * bands.sigma.values
            neg, pos = _touched(g[i], (t[0],), tol), _touched(g[j], (t[1],), tol)
        est = _solve_q(neg, pos, quantile, "lower" if kind == "eT" else "upper")
    below, above = _excursions(mu_hat.values, band._edges[i], band._edges[j], est.q, bands)
    hits = below & above if kind == "leT" else below | above
    if kind == "eT":
        return TestDecision(kind, est, d, global_reject=not hits.any())
    return TestDecision(kind, est, d, global_reject=bool(hits.any()) if kind == "grT" else None,
                        rejected=IndexSet.from_mask(hits))


def grt(mu_hat: Field, band: BandSpec, bands: ScopeBands, quantile=None,
        mu: Field | None = None) -> TestDecision:
    """Global relevance test: is the target anywhere outside the band?

    Rejects when a widened excursion set of the estimate escapes the band.
    The critical value comes from the band shifted outward by the largest
    exceedance, so that it touches the target's extremes under the boundary
    null.
    """
    return _band_test("grT", mu_hat, band, bands, quantile, mu)


def lrt(mu_hat: Field, band: BandSpec, bands: ScopeBands, quantile=None,
        mu: Field | None = None) -> TestDecision:
    """Local relevance test: familywise-valid out-of-band flags per point.

    The calibrating band shifts inward by the smallest target-to-edge
    distance; when the shifted band touches the target nowhere, the critical
    value defaults to zero.
    """
    return _band_test("lrT", mu_hat, band, bands, quantile, mu)


def et(mu_hat: Field, band: BandSpec, bands: ScopeBands, quantile=None,
       mu: Field | None = None) -> TestDecision:
    """Global equivalence test: conclude the target sits inside the band.

    Needs a strictly positive band gap.  The critical value is the lower
    tail of the max-sup statistic over the outward-shifted band; equivalence
    is concluded exactly when both widened excursion sets are empty.
    """
    return _band_test("eT", mu_hat, band, bands, quantile, mu)


def let_(mu_hat: Field, band: BandSpec, bands: ScopeBands, quantile=None,
         mu: Field | None = None) -> TestDecision:
    """Local equivalence test: pointwise in-band conclusions.

    Equivalence is declared at the points where the estimate lies strictly
    inside the band shrunk by the critical margin, matching the
    confidence-interval-inclusion rule in the scalar symmetric case.  The
    calibrating statistic swaps the roles of the two outward-shifted edges.
    """
    return _band_test("leT", mu_hat, band, bands, quantile, mu)


def _simes_top_rejects(ps: np.ndarray, m: np.ndarray, alpha: float) -> np.ndarray:
    """Per sorted row: does Simes reject on its m largest p-values?"""
    k = np.arange(1 - ps.shape[1], 1) + m[:, None]  # rank in the top m, <= 0 outside
    return np.any((k >= 1) & (ps <= k * alpha / np.maximum(m, 1)[:, None]), axis=1)


def _hommel_cut(ps: np.ndarray, alpha: float) -> np.ndarray:
    """Per row of sorted p-values, the cut c of Hommel's procedure: the row rejects p <= c.

    On a sorted row, p_(j) <= alpha (0-based j) makes the Simes test on the
    m largest p-values reject for all m >= max(J-j, ceil((J-1-j) alpha /
    (alpha - p_(j)))), so Hommel's h is the least such m minus one.  The
    Simes comparison itself at h and h + 1 absorbs rounding in the ceil.
    The cut is alpha / h, or inf (everything) when h = 0; O(J) per sorted row.
    """
    n = ps.shape[1]
    above = np.arange(n - 1, -1, -1)  # J - 1 - j; fmax maps its 0/0 to 1
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.fmax(above + 1, np.ceil(above * alpha / (alpha - ps)))
    least = np.min(np.where(ps <= alpha, need, np.inf), axis=1, initial=np.inf)
    h = np.minimum(least - 1, n).astype(int)
    h = h - _simes_top_rejects(ps, h, alpha)
    h = h + ((h < n) & ~_simes_top_rejects(ps, h + 1, alpha))
    return np.where(h > 0, alpha / np.maximum(h, 1), np.inf)


def hommel_reject_mask(p: np.ndarray, alpha: float) -> np.ndarray:
    """Hommel rejection masks at one alpha, rowwise over a (B, J) matrix; O(J log J) per row.

    Each row is sorted once and rejects its p-values up to ``_hommel_cut``.
    P-values outside [0, 1] or NaN raise ``ParameterError``.
    """
    p = np.atleast_2d(_checked_pvalues(p))
    return p <= _hommel_cut(np.sort(p, axis=1), alpha)[:, None]


def hommel(pvalues, alpha: float) -> IndexSet:
    """Hommel step-up rejections (strong familywise control)."""
    _check_alpha(alpha)
    return IndexSet.from_mask(hommel_reject_mask(pvalues, alpha)[0])


def _bh_cut(ps: np.ndarray, alpha: float) -> np.ndarray:
    """Per row of sorted p-values, the Benjamini-Hochberg cut: the largest p_(k) <= k alpha / J
    (1-based k), which the row rejects up to, or -1.0 where there is none."""
    B, n = ps.shape
    if n == 0:
        return np.full(B, -1.0)
    ok = ps <= alpha * np.arange(1, n + 1) / n
    kstar = np.where(ok.any(axis=1), n - 1 - np.argmax(ok[:, ::-1], axis=1), -1)
    return np.where(kstar >= 0, ps[np.arange(B), np.maximum(kstar, 0)], -1.0)


def bh_reject_mask(p: np.ndarray, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejection masks, rowwise; p-values are checked as in Hommel."""
    p = np.atleast_2d(_checked_pvalues(p))
    return p <= _bh_cut(np.sort(p, axis=1), alpha)[:, None]


def bh(pvalues, alpha: float) -> IndexSet:
    """Benjamini-Hochberg step-up rejections (false-discovery-rate control)."""
    _check_alpha(alpha)
    return IndexSet.from_mask(bh_reject_mask(pvalues, alpha)[0])
