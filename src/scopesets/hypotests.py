"""Band-based relevance and equivalence tests plus multiple-testing baselines.

All four tests share one template: shift the band so it touches the target at
its most critical points, calibrate the max-sup statistic over the preimages
of the shifted band, then read the decision off widened (or shrunken)
excursion sets of the estimate.

Oracle calibration (target known) is the validated path; plug-in calibration
through the thickened preimage estimator is exposed but experimental.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .dist import Rng
from .domain import Field, IndexSet, _gap, same_domain
from .errors import ParameterError, ThresholdOrderError
from .excursion import ScopeBands, _moved, widened_excursions
from .preimage import oracle_preimage, plugin_preimage
from .quantile import (QuantileEstimate, _check_alpha, _checked_pvalues, iid_exact_quantile,
                       mc_oracle_quantile)
from .quantile import t_pvalues  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class BandSpec:
    """A band b_minus <= b_plus between which the null pins the target."""

    b_minus: Field
    b_plus: Field

    def __post_init__(self):
        same_domain(self.b_minus, self.b_plus)
        if np.any(self.b_minus.values > self.b_plus.values):
            raise ThresholdOrderError("b_minus must be <= b_plus pointwise")

    def gap(self) -> np.ndarray:
        return _gap(self.b_plus.values, self.b_minus.values)


@dataclass(frozen=True)
class TestDecision:
    kind: str
    quantile_used: QuantileEstimate
    delta: float
    global_reject: bool | None = None
    rejected: IndexSet = field(default_factory=IndexSet)


@dataclass
class Calibration:
    """How to solve for the critical value.

    Oracle mode reads the touching sets off the known target; plug-in mode
    (experimental) estimates them from the data via the thickened preimage
    estimator with factor ``k``.  ``cov`` is "iid_normal", ("iid_t", df) or a
    correlation matrix; iid noise uses the exact product-CDF solver, a
    correlation matrix ``reps`` Monte-Carlo draws from ``rng``.
    """

    alpha: float = 0.1
    cov: object = "iid_normal"
    reps: int = 200_000
    rng: Rng | None = None
    eta: float = 0.0
    k: float | None = None


def delta_rel(mu: Field, band: BandSpec) -> tuple[float, float, float]:
    """Smallest distances of the target to each band edge (and their min)."""
    same_domain(mu, band.b_minus)
    d_minus = float(np.min(np.abs(_gap(mu.values, band.b_minus.values))))
    d_plus = float(np.min(np.abs(_gap(mu.values, band.b_plus.values))))
    return min(d_minus, d_plus), d_minus, d_plus


def delta_eqv(mu: Field, band: BandSpec) -> float:
    """Largest signed exceedance of the target over the band (<= 0 inside)."""
    same_domain(mu, band.b_minus)
    over = np.max(_gap(mu.values, band.b_plus.values))
    under = np.max(_gap(band.b_minus.values, mu.values))
    return float(max(over, under))


def _solve_q(neg: IndexSet, pos: IndexSet, cal: Calibration, tail: str) -> QuantileEstimate:
    """The one parser of ``Calibration.cov``: iid noise goes to the exact solver."""
    cov = cal.cov
    if isinstance(cov, str) and cov == "iid_normal":
        return iid_exact_quantile(neg, pos, cal.alpha, df=np.inf, tail=tail)
    named = isinstance(cov, tuple) and len(cov) > 0 and isinstance(cov[0], str)
    if named and cov[0] == "iid_t" and len(cov) == 2 and isinstance(cov[1], Real):
        return iid_exact_quantile(neg, pos, cal.alpha, df=float(cov[1]), tail=tail)
    if named or isinstance(cov, str):
        raise ParameterError(f'cov must be "iid_normal", ("iid_t", df) or a correlation matrix, '
                             f"got {cov!r}")
    rng = cal.rng if cal.rng is not None else Rng(0)
    return mc_oracle_quantile(cov, neg, pos, cal.alpha, cal.reps, rng, tail=tail)


def _resolve(quantile, bands, reference: Field, c_neg, c_pos, plugin: bool, tail: str):
    """The critical value: given by ``bands``, passed in, or calibrated.

    Calibration solves for the max-sup statistic whose negated sup runs over
    the points where ``reference`` touches threshold values ``c_neg`` from
    above and whose plain sup runs over those touching ``c_pos`` from below;
    ``plugin`` estimates these touch sets from ``reference`` as data.
    """
    if quantile is None:
        return QuantileEstimate(bands.q, "given", float("nan"))
    if isinstance(quantile, QuantileEstimate):
        return quantile
    if not isinstance(quantile, Calibration):
        raise ParameterError("quantile must be None, a QuantileEstimate, or a Calibration")
    cal = quantile
    fam_neg = [Field(reference.domain, c_neg)]
    fam_pos = [Field(reference.domain, c_pos)]
    if not plugin:
        neg = oracle_preimage(reference, fam_neg, cal.eta, "plus")
        pos = oracle_preimage(reference, fam_pos, cal.eta, "minus")
        return _solve_q(neg, pos, cal, tail)
    if cal.k is None:
        raise ParameterError("plug-in calibration needs k")
    neg = plugin_preimage(reference, fam_neg, bands.sigma, bands.tau, cal.k, "plus")
    pos = plugin_preimage(reference, fam_pos, bands.sigma, bands.tau, cal.k, "minus")
    return _solve_q(neg, pos, cal, tail)


def _excursions(mu_hat: Field, lower: Field, upper: Field, bands: ScopeBands, q: float):
    """Masks of mu_hat below lower - w and above upper + w, w = q*tau*sigma."""
    same_domain(mu_hat, lower, upper, bands.sigma)
    w = q * bands.tau * bands.sigma.values
    return widened_excursions(mu_hat.values, lower.values, upper.values, w)


def grt(
    mu_hat: Field,
    band: BandSpec,
    bands: ScopeBands,
    quantile=None,
    mu: Field | None = None,
) -> TestDecision:
    """Global relevance test: is the target anywhere outside the band?

    Rejects when a widened excursion set of the estimate escapes the band.
    The critical value comes from the band shifted outward by the largest
    exceedance, so that it touches the target's extremes under the boundary
    null.
    """
    reference = mu if mu is not None else mu_hat
    d = delta_eqv(reference, band)
    bm, bp = band.b_minus.values, band.b_plus.values
    est = _resolve(quantile, bands, reference, _moved(bm, -d), _moved(bp, d), mu is None, "upper")
    below, above = _excursions(mu_hat, band.b_minus, band.b_plus, bands, est.q)
    out = below | above
    return TestDecision(
        "grT", est, d, global_reject=bool(out.any()), rejected=IndexSet.from_mask(out)
    )


def lrt(
    mu_hat: Field,
    band: BandSpec,
    bands: ScopeBands,
    quantile=None,
    mu: Field | None = None,
) -> TestDecision:
    """Local relevance test: familywise-valid out-of-band flags per point.

    The calibrating band shifts inward by the smallest target-to-edge
    distance; when the shifted band touches the target nowhere, the critical
    value defaults to zero.
    """
    reference = mu if mu is not None else mu_hat
    d, _, _ = delta_rel(reference, band)
    bm, bp = band.b_minus.values, band.b_plus.values
    est = _resolve(quantile, bands, reference, _moved(bm, d), _moved(bp, -d), mu is None, "upper")
    below, above = _excursions(mu_hat, band.b_minus, band.b_plus, bands, est.q)
    return TestDecision("lrT", est, d, rejected=IndexSet.from_mask(below | above))


def et(
    mu_hat: Field,
    band: BandSpec,
    bands: ScopeBands,
    quantile=None,
    mu: Field | None = None,
) -> TestDecision:
    """Global equivalence test: conclude the target sits inside the band.

    Needs a strictly positive band gap.  The critical value is the lower
    tail of the max-sup statistic over the outward-shifted band; equivalence
    is concluded exactly when both widened excursion sets are empty.
    """
    if not np.all(band.gap() > 0):
        raise ParameterError("equivalence testing needs inf(b_plus - b_minus) > 0")
    reference = mu if mu is not None else mu_hat
    d = delta_eqv(reference, band)
    bm, bp = band.b_minus.values, band.b_plus.values
    est = _resolve(quantile, bands, reference, _moved(bm, -d), _moved(bp, d), mu is None, "lower")
    below, above = _excursions(mu_hat, band.b_minus, band.b_plus, bands, est.q)
    return TestDecision("eT", est, d, global_reject=not (below.any() or above.any()))


def let_(
    mu_hat: Field,
    band: BandSpec,
    bands: ScopeBands,
    quantile=None,
    mu: Field | None = None,
) -> TestDecision:
    """Local equivalence test: pointwise in-band conclusions.

    Equivalence is declared at the points where the estimate lies strictly
    inside the band shrunk by the critical margin, matching the
    confidence-interval-inclusion rule in the scalar symmetric case.  The
    calibrating statistic swaps the roles of the two outward-shifted edges.
    """
    if not np.all(band.gap() > 0):
        raise ParameterError("equivalence testing needs inf(b_plus - b_minus) > 0")
    reference = mu if mu is not None else mu_hat
    d, _, _ = delta_rel(reference, band)
    bm, bp = band.b_minus.values, band.b_plus.values
    # swapped roles: negated sup over the upper edge's touch set
    est = _resolve(quantile, bands, reference, _moved(bp, d), _moved(bm, -d), mu is None, "upper")
    # below the shrunk upper edge and above the shrunk lower edge
    inside_hi, inside_lo = _excursions(mu_hat, band.b_plus, band.b_minus, bands, est.q)
    return TestDecision("leT", est, d, rejected=IndexSet.from_mask(inside_hi & inside_lo))


def _simes_top_rejects(ps: np.ndarray, m: np.ndarray, alpha: float) -> np.ndarray:
    """Per sorted row: does Simes reject on its m largest p-values?"""
    k = np.arange(1 - ps.shape[1], 1) + m[:, None]  # rank in the top m, <= 0 outside
    return np.any((k >= 1) & (ps <= k * alpha / np.maximum(m, 1)[:, None]), axis=1)


def hommel_reject_mask(p: np.ndarray, alpha: float) -> np.ndarray:
    """Hommel rejection masks at one alpha, rowwise over a (B, J) matrix.

    On a sorted row, p_(j) <= alpha (0-based j) makes the Simes test on the
    m largest p-values reject for all m >= max(J-j, ceil((J-1-j) alpha /
    (alpha - p_(j)))), so Hommel's h is the least such m minus one.  The
    Simes comparison itself at h and h + 1 absorbs rounding in the ceil.
    Rejects p <= alpha / h, or everything when h = 0; O(J log J) per row.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    n = p.shape[1]
    ps = np.sort(p, axis=1)
    above = np.arange(n - 1, -1, -1)  # J - 1 - j; fmax maps its 0/0 to 1
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.fmax(above + 1, np.ceil(above * alpha / (alpha - ps)))
    least = np.min(np.where(ps <= alpha, need, np.inf), axis=1, initial=np.inf)
    h = np.minimum(least - 1, n).astype(int)
    h = h - _simes_top_rejects(ps, h, alpha)
    h = h + ((h < n) & ~_simes_top_rejects(ps, h + 1, alpha))
    return p <= np.where(h > 0, alpha / np.maximum(h, 1), np.inf)[:, None]


def hommel(pvalues, alpha: float) -> IndexSet:
    """Hommel step-up rejections (strong familywise control)."""
    p = _checked_pvalues(pvalues)
    _check_alpha(alpha)
    return IndexSet.from_mask(hommel_reject_mask(p, alpha)[0])


def bh_reject_mask(p: np.ndarray, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejection masks, rowwise."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    B, n = p.shape
    if n == 0:
        return np.zeros((B, 0), dtype=bool)
    ps = np.sort(p, axis=1)
    ok = ps <= alpha * np.arange(1, n + 1) / n
    kstar = np.where(ok.any(axis=1), n - 1 - np.argmax(ok[:, ::-1], axis=1), -1)
    cutoff = np.where(kstar >= 0, ps[np.arange(B), np.maximum(kstar, 0)], -1.0)
    return p <= cutoff[:, None]


def bh(pvalues, alpha: float) -> IndexSet:
    """Benjamini-Hochberg step-up rejections (false-discovery-rate control)."""
    p = _checked_pvalues(pvalues)
    _check_alpha(alpha)
    return IndexSet.from_mask(bh_reject_mask(p, alpha)[0])
