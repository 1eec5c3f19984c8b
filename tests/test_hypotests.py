import dataclasses
import inspect
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reference_band_test
from scopesets import hypotests
from scopesets.dist import Rng, quantile as dq
from scopesets.domain import Domain, Field, IndexSet, _gap
from scopesets.errors import (DegenerateDataError, DomainMismatchError, ParameterError,
                              ThresholdOrderError)
from scopesets.excursion import ScopeBands, roi_adapt
from scopesets.hypotests import (
    BandSpec,
    Calibration,
    bh,
    bh_reject_mask,
    delta_eqv,
    delta_rel,
    et,
    grt,
    hommel,
    hommel_reject_mask,
    let_,
    lrt,
    t_pvalues,
)
from scopesets.preimage import _partition_rows
from scopesets.quantile import QuantileEstimate, iid_exact_quantile, storey_m0
from scopesets.sim import model_mu


def fld(*values):
    return Field(Domain(len(values)), list(values))


def const_band(dom, lo, hi):
    return BandSpec(Field.constant(dom, lo), Field.constant(dom, hi))


def unit_bands(dom, tau=1.0, q=0.0):
    return ScopeBands(q, tau, Field.constant(dom, 1.0))


class TestBandSpec:
    def test_order_enforced(self):
        dom = Domain(2)
        with pytest.raises(ThresholdOrderError):
            BandSpec(Field.constant(dom, 1.0), Field.constant(dom, -1.0))

    def test_gap_with_infinities(self):
        dom = Domain(3)
        band = BandSpec(
            Field(dom, [-np.inf, -1.0, 0.0]), Field(dom, [0.0, np.inf, 1.0])
        )
        np.testing.assert_array_equal(_gap(band.b_plus.values, band.b_minus.values),
                                      [np.inf, np.inf, 1.0])

    @pytest.mark.parametrize("lo, hi, is_open, finite", [
        ([-1.0, 0.0, 0.5], [1.0, 0.25, 0.75], True, True),
        ([-1.0, 0.25, 0.5], [1.0, 0.25, 0.75], False, True),
        ([-np.inf, 0.0, 0.5], [1.0, 0.25, np.inf], True, False),
        ([0.0, np.inf, -np.inf], [1.0, np.inf, -1.0], False, False)])
    def test_open_and_finite_are_recorded_at_construction(self, lo, hi, is_open, finite):
        dom = Domain(3)
        band = BandSpec(Field(dom, lo), Field(dom, hi))
        assert band._open is is_open and band._finite is finite

    def test_recorded_facts_change_no_signature_repr_or_equality(self):
        assert str(inspect.signature(BandSpec)) == "(b_minus: 'Field', b_plus: 'Field') -> None"
        dom = Domain(2)
        lo, hi = Field(dom, [0.0, 1.0]), Field(dom, [1.0, 2.0])
        f = "Field(domain=Domain(size=2, coords=None))"
        assert repr(BandSpec(lo, hi)) == f"BandSpec(b_minus={f}, b_plus={f})"
        assert BandSpec(lo, hi) == BandSpec(lo, hi)
        assert hash(BandSpec(lo, hi)) == hash(BandSpec(lo, hi))
        assert BandSpec(lo, hi) != BandSpec(lo, Field(dom, [1.0, 2.0]))

    def test_equal_infinite_edges_have_zero_gap(self):
        # both edges +inf at index 1: the band is a single point there
        dom = Domain(2)
        band = BandSpec(Field(dom, [0.0, np.inf]), Field(dom, [1.0, np.inf]))
        np.testing.assert_array_equal(_gap(band.b_plus.values, band.b_minus.values), [1.0, 0.0])
        mu_hat = Field(dom, [0.5, np.inf])
        with pytest.raises(ParameterError):
            et(mu_hat, band, unit_bands(dom))


class TestDeltas:
    def test_touching_edge_gives_zero(self):
        mu = fld(0.0, 0.5, 1.0)
        band = const_band(mu.domain, -1.0, 1.0)
        d, dm, dp = delta_rel(mu, band)
        assert dp == 0.0 and d == 0.0 and dm == 1.0

    def test_scalar_distance(self):
        mu = fld(0.5)
        band = const_band(mu.domain, -1.0, 1.0)
        assert delta_rel(mu, band)[0] == 0.5

    def test_one_sided_band(self):
        mu = fld(0.0, 2.0)
        band = BandSpec(Field.constant(mu.domain, -np.inf), Field.constant(mu.domain, 3.0))
        d, dm, dp = delta_rel(mu, band)
        assert dm == np.inf and d == dp == 1.0

    def test_eqv_inside_with_slack(self):
        mu = fld(0.0, 0.2)
        assert delta_eqv(mu, const_band(mu.domain, -1.0, 1.0)) == -0.8

    def test_eqv_exceedance(self):
        mu = fld(0.0, 1.3)
        assert delta_eqv(mu, const_band(mu.domain, -1.0, 1.0)) == pytest.approx(0.3)

    def test_eqv_boundary(self):
        mu = fld(0.0, 1.0)
        assert delta_eqv(mu, const_band(mu.domain, -1.0, 1.0)) == 0.0

    def test_equal_infinite_edge_touches(self):
        # inf - inf counts as distance 0 (the preimage inf-inf rule), not NaN
        mu = fld(0.0, 0.5, np.inf)
        band = BandSpec(Field(mu.domain, [-1.0, -1.0, 0.0]), Field(mu.domain, [1.0, 1.0, np.inf]))
        assert delta_rel(mu, band) == (0.0, 1.0, 0.0)
        for test in (grt, et):
            dec = test(mu, band, unit_bands(mu.domain, tau=0.1), quantile=Calibration(), mu=mu)
            assert dec.delta == 0.0
            assert dec.quantile_used.support_size == 1  # mu touches b_plus at index 2 only

    @pytest.mark.parametrize("edge", [1.0, np.inf])
    @pytest.mark.parametrize("upper", [False, True])
    def test_a_touch_gives_plus_zero(self, upper, edge):
        # == 0.0 cannot tell -0.0 from +0.0, so read the sign bit; a lower touch is the case
        # where b_minus - mu, the negated gap mu - b_minus, sets delta_eqv
        mu = fld(0.0, edge) if upper else fld(-edge, 0.0)
        band = const_band(mu.domain, -1.0, edge) if upper else const_band(mu.domain, -edge, 1.0)
        zeros = [delta_eqv(mu, band)] + [d for d in delta_rel(mu, band) if d == 0.0]
        assert zeros == [0.0] * 3
        assert [math.copysign(1.0, z) for z in zeros] == [1.0] * 3


class TestGrt:
    def test_no_rejection_deep_inside(self):
        mu_hat = fld(0.0, 0.1, -0.1)
        band = const_band(mu_hat.domain, -1.0, 1.0)
        d = grt(mu_hat, band, unit_bands(mu_hat.domain, tau=0.1, q=2.0))
        assert d.global_reject is False

    def test_constant_band_sup_norm_rule(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            J = int(rng.integers(1, 8))
            dom = Domain(J)
            mu_hat = Field(dom, rng.normal(size=J, scale=2))
            b = float(rng.uniform(0.1, 2.0))
            q = float(rng.uniform(0.0, 2.0))
            tau = float(rng.uniform(0.05, 1.0))
            dec = grt(
                mu_hat,
                const_band(dom, -b, b),
                ScopeBands(q, tau, Field.constant(dom, 1.0)),
            )
            assert dec.global_reject == (np.max(np.abs(mu_hat.values)) > b + q * tau)

    def test_consistency_as_rate_improves(self):
        mu = fld(0.0, 0.5, 1.3)
        band = const_band(mu.domain, -1.0, 1.0)
        cal = Calibration(alpha=0.1)
        dec = grt(mu, band, unit_bands(mu.domain, tau=0.01), quantile=cal, mu=mu)
        assert dec.delta == pytest.approx(0.3)
        assert dec.global_reject is True


class TestLrt:
    def test_point_null_rejection_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            J = int(rng.integers(1, 6))
            dom = Domain(J)
            b = Field(dom, rng.normal(size=J))
            mu_hat = Field(dom, b.values + rng.normal(size=J))
            q = float(rng.uniform(0.5, 2.0))
            tau = float(rng.uniform(0.1, 1.0))
            sigma = Field(dom, rng.uniform(0.5, 2.0, J))
            dec = lrt(mu_hat, BandSpec(b, b), ScopeBands(q, tau, sigma))
            expected = np.abs(mu_hat.values - b.values) / (tau * sigma.values) > q
            assert dec.rejected == IndexSet.from_mask(expected)

    def test_inside_shifted_band_rejects_nothing(self):
        mu_hat = fld(0.0, 0.5)
        dec = lrt(mu_hat, const_band(mu_hat.domain, -1.0, 1.0),
                  unit_bands(mu_hat.domain, q=1.0))
        assert len(dec.rejected) == 0

    def test_empty_touch_set_defaults_to_zero(self):
        # the closest approach to the band happens only at an out-of-band
        # point, so the inward-shifted band touches the target nowhere
        mu = fld(0.0, 0.0, 1.5)
        band = const_band(mu.domain, -1.0, 1.0)
        dec = lrt(mu, band, unit_bands(mu.domain), quantile=Calibration(alpha=0.1), mu=mu)
        assert dec.delta == pytest.approx(0.5)
        assert dec.quantile_used.q == 0.0 and dec.quantile_used.empty_sets
        assert dec.rejected == IndexSet([2])

    def test_correlation_matrix_route_matches_exact_iid(self):
        # an identity correlation matrix takes the Monte-Carlo route; its q
        # must match the exact iid-normal q within Monte-Carlo error
        dom = Domain(12)
        mu = Field(dom, np.r_[np.zeros(8), np.full(4, 2.0)])
        band = const_band(dom, 0.0, 0.0)
        exact = lrt(mu, band, unit_bands(dom), quantile=Calibration(alpha=0.1), mu=mu)
        cal = Calibration(alpha=0.1, cov=np.eye(12), reps=50_000, rng=Rng(3))
        mc = lrt(mu, band, unit_bands(dom), quantile=cal, mu=mu)
        assert exact.quantile_used.method == "iid_exact"
        assert mc.quantile_used.method == "mc_oracle"
        assert mc.quantile_used.support_size == 8
        # two-sided max over the 8 zeros: P(max |Z| <= q) = 0.9
        assert exact.quantile_used.q == pytest.approx(dq("normal", (1 + 0.9 ** (1 / 8)) / 2))
        assert mc.quantile_used.q == pytest.approx(exact.quantile_used.q, abs=0.03)

    def test_plugin_calibration_needs_k(self):
        mu_hat = fld(0.0, 0.5)
        with pytest.raises(ParameterError):
            lrt(mu_hat, const_band(mu_hat.domain, 0.0, 0.0), unit_bands(mu_hat.domain),
                quantile=Calibration(alpha=0.1))

    def test_familywise_error_light(self):
        # oracle-calibrated local test on a null-plus-signal mean vector
        rng = np.random.default_rng(42)
        J, N, reps, alpha = 20, 400, 400, 0.1
        dom = Domain(J)
        mu_vals = np.where(np.arange(J) < 15, 0.0, 0.4)
        mu = Field(dom, mu_vals)
        band = const_band(dom, 0.0, 0.0)
        nulls = IndexSet.from_mask(mu_vals == 0.0)
        est = iid_exact_quantile(nulls, nulls, alpha)
        tau = 1.0 / np.sqrt(N)
        fwe = 0
        for _ in range(reps):
            mu_hat = Field(dom, mu_vals + tau * rng.normal(size=J))
            dec = lrt(mu_hat, band, ScopeBands(0.0, tau, Field.constant(dom, 1.0)),
                      quantile=est)
            fwe += bool(np.any(mu_vals[dec.rejected.members] == 0.0))
        se = np.sqrt(alpha * (1 - alpha) / reps)
        assert fwe / reps <= alpha + 3 * se


class TestEt:
    def test_gap_precondition(self):
        mu_hat = fld(0.0)
        with pytest.raises(ParameterError):
            et(mu_hat, const_band(mu_hat.domain, 0.0, 0.0), unit_bands(mu_hat.domain))

    def test_far_outside_keeps_null(self):
        mu_hat = fld(5.0, 0.0)
        dec = et(mu_hat, const_band(mu_hat.domain, -1.0, 1.0),
                 unit_bands(mu_hat.domain, q=0.5))
        assert dec.global_reject is False

    def test_set_form_equals_sup_form(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            J = int(rng.integers(1, 8))
            dom = Domain(J)
            bm = rng.normal(size=J)
            band = BandSpec(Field(dom, bm), Field(dom, bm + rng.uniform(0.2, 2, J)))
            mu_hat = Field(dom, rng.normal(size=J, scale=2))
            sigma = Field(dom, rng.uniform(0.5, 2, J))
            tau = float(rng.uniform(0.05, 1))
            q = float(rng.uniform(-1, 1))
            dec = et(mu_hat, band, ScopeBands(q, tau, sigma))
            sup_form = max(
                np.max((mu_hat.values - band.b_plus.values) / (tau * sigma.values)),
                np.max((band.b_minus.values - mu_hat.values) / (tau * sigma.values)),
            )
            assert dec.global_reject == (sup_form <= q)

    def test_equivalence_concluded_when_inside_and_rate_small(self):
        mu = fld(0.0, 0.3, -0.2)
        band = const_band(mu.domain, -1.0, 1.0)
        dec = et(mu, band, unit_bands(mu.domain, tau=0.01),
                 quantile=Calibration(alpha=0.1), mu=mu)
        assert dec.delta == pytest.approx(-0.7)
        assert dec.global_reject is True

    def test_type_one_error_at_boundary(self):
        rng = np.random.default_rng(3)
        J, reps, alpha, tau = 5, 2000, 0.1, 0.05
        dom = Domain(J)
        mu_vals = np.array([0.0, 0.0, 0.0, 0.0, 1.0])  # touches the upper edge
        mu = Field(dom, mu_vals)
        band = const_band(dom, -1.0, 1.0)
        dec0 = et(mu, band, unit_bands(dom, tau=tau), quantile=Calibration(alpha=alpha), mu=mu)
        q = dec0.quantile_used.q
        rejections = 0
        for _ in range(reps):
            mu_hat = Field(dom, mu_vals + tau * rng.normal(size=J))
            dec = et(mu_hat, band, ScopeBands(q, tau, Field.constant(dom, 1.0)),
                     quantile=QuantileEstimate(q, "given", alpha))
            rejections += dec.global_reject
        se = np.sqrt(alpha * (1 - alpha) / reps)
        assert rejections / reps <= alpha + 3 * se


class TestLet:
    def test_gap_precondition(self):
        mu_hat = fld(0.0)
        with pytest.raises(ParameterError):
            let_(mu_hat, const_band(mu_hat.domain, 0.0, 0.0), unit_bands(mu_hat.domain))

    def test_crossed_shrunken_band_rejects_nothing(self):
        mu_hat = fld(0.0, 0.5, -0.5)
        band = const_band(mu_hat.domain, -1.0, 1.0)
        dec = let_(mu_hat, band, unit_bands(mu_hat.domain, q=1.5))
        assert len(dec.rejected) == 0

    def test_interval_rule_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            J = int(rng.integers(1, 6))
            dom = Domain(J)
            bm = rng.normal(size=J)
            band = BandSpec(Field(dom, bm), Field(dom, bm + rng.uniform(0.5, 3, J)))
            mu_hat = Field(dom, rng.normal(size=J, scale=2))
            sigma = Field(dom, rng.uniform(0.5, 2, J))
            tau = float(rng.uniform(0.05, 1))
            q = float(rng.uniform(0, 2))
            dec = let_(mu_hat, band, ScopeBands(q, tau, sigma))
            w = q * tau * sigma.values
            interval = (mu_hat.values > band.b_minus.values + w) & (
                mu_hat.values < band.b_plus.values - w
            )
            assert dec.rejected == IndexSet.from_mask(interval)

    def test_scalar_quantile_is_one_sided_when_target_outside(self):
        mu = fld(1.7)
        band = const_band(mu.domain, -1.0, 1.0)
        dec = let_(mu, band, unit_bands(mu.domain, tau=0.2),
                   quantile=Calibration(alpha=0.1), mu=mu)
        assert dec.quantile_used.q == pytest.approx(dq("normal", 0.9), abs=1e-9)


class TestConsistencyAtLargeN:
    def test_lrt_and_let_find_every_alternative(self):
        # fixed separation from both edges, rate 1/sqrt(5000)
        rng = np.random.default_rng(50)
        J, N, reps = 4, 5000, 200
        dom = Domain(J)
        mu_vals = np.array([0.0, 1.8, -1.6, 0.2])
        mu = Field(dom, mu_vals)
        band = const_band(dom, -1.0, 1.0)
        tau = 1.0 / np.sqrt(N)
        bands = ScopeBands(0.0, tau, Field.constant(dom, 1.0))
        cal = Calibration(alpha=0.1)
        q_rel = lrt(mu, band, bands, quantile=cal, mu=mu).quantile_used
        q_eqv = let_(mu, band, bands, quantile=cal, mu=mu).quantile_used
        outside = IndexSet.from_mask((mu_vals < -1.0) | (mu_vals > 1.0))
        inside = IndexSet.from_mask((mu_vals > -1.0) & (mu_vals < 1.0))
        rel_all = eqv_all = 0
        for _ in range(reps):
            mu_hat = Field(dom, mu_vals + tau * rng.normal(size=J))
            rel = lrt(mu_hat, band, bands, quantile=q_rel)
            rel_all += outside.issubset(rel.rejected)
            eqv = let_(mu_hat, band, bands, quantile=q_eqv)
            eqv_all += inside.issubset(eqv.rejected)
        assert rel_all / reps >= 0.99
        assert eqv_all / reps >= 0.99


def _hand_decision(kind, mu_hat, mu, bm, bp, sd, tau, k, alpha, df):
    """A band test from its definition, with every set a numpy mask."""
    ref = mu if mu is not None else mu_hat
    d_rel = min(np.abs(ref - bm).min(), np.abs(ref - bp).min())
    d_eqv = max((ref - bp).max(), (bm - ref).max())
    d_grt = min(d_eqv, 0.0) if mu is None else d_eqv  # plug-in grT clips its shift at 0
    # the edges the negated and the plain sup run along; each touch set is the union of both
    # sides of its edge, which the target meets exactly (oracle) or the estimate within tol
    c_neg, c_pos = {"grT": (bm - d_grt, bp + d_grt), "lrT": (bm + d_rel, bp - d_rel),
                    "eT": (bm - d_eqv, bp + d_eqv), "leT": (bp + d_rel, bm - d_rel)}[kind]
    tol = 0.0 if mu is not None else k * tau * sd
    neg = np.abs(ref - c_neg) <= tol
    pos = np.abs(c_pos - ref) <= tol
    assert neg.any() and pos.any()  # both sups are exercised
    tail = "lower" if kind == "eT" else "upper"
    est = iid_exact_quantile(IndexSet.from_mask(neg), IndexSet.from_mask(pos), alpha, df, tail)
    w = est.q * tau * sd
    out = (mu_hat < bm - w) | (mu_hat > bp + w)
    inside = (mu_hat > bm + w) & (mu_hat < bp - w)
    d = d_rel if kind in ("lrT", "leT") else d_eqv
    return est, d, {"grT": (bool(out.any()), out), "lrT": (None, out),
                     "eT": (not out.any(), np.zeros_like(out)), "leT": (None, inside)}[kind]


@pytest.mark.parametrize("mode", ["oracle", "plugin"])
@pytest.mark.parametrize("kind", ["grT", "lrT", "eT", "leT"])
def test_calibrated_decision_matches_hand_masks(kind, mode):
    # the target sits 0.25 outside each edge at one point and 0.25 inside at
    # another, so every oracle touch set is non-empty; dyadic values keep the
    # shifted edges exact
    J, N, alpha, k = 10, 50, 0.1, 3.0
    j = np.arange(J)
    bm = -0.5 - 0.125 * (j % 3)
    bp = 1.0 + 0.125 * (j % 2)
    mu = np.array([bm[0] - 0.25, bm[1] + 0.25, bp[2] - 0.25, bp[3] + 0.25,
                   0.0, 0.5, 0.25, -0.125, 0.75, -0.25])
    gen = np.random.default_rng(11)
    sd = gen.uniform(0.5, 1.5, J)
    tau = 1.0 / np.sqrt(N)
    mu_hat = mu + tau * sd * gen.standard_normal(J)
    dom = Domain(J)
    band = BandSpec(Field(dom, bm), Field(dom, bp))
    bands = ScopeBands(0.0, tau, Field(dom, sd))
    oracle = mode == "oracle"
    cal = Calibration(alpha=alpha, cov=("iid_t", N - 1), k=None if oracle else k)
    test = {"grT": grt, "lrT": lrt, "eT": et, "leT": let_}[kind]
    dec = test(Field(dom, mu_hat), band, bands, quantile=cal, mu=Field(dom, mu) if oracle else None)
    est, d, (global_reject, rejected) = _hand_decision(
        kind, mu_hat, mu if oracle else None, bm, bp, sd, tau, k, alpha, N - 1)
    assert dec.kind == kind and dec.delta == d
    assert dec.quantile_used == est
    assert dec.global_reject == global_reject
    assert dec.rejected == IndexSet.from_mask(rejected)


def test_plugin_grt_rejects_exactly_where_the_partition_flags_a_point():
    # on the same (mean, sd) rows: where the estimate leaves the band, plug-in grT's clipped
    # touch sets are the partition's on (b_minus, b_plus), so q is too; inside it neither rejects
    J, alpha = 80, 0.1
    dom = Domain(J)
    j = np.arange(J)
    edges = [(np.zeros(J), np.zeros(J)), (np.full(J, -0.3), np.full(J, 0.2)),
             (np.full(J, -0.2), np.full(J, 0.1)),
             (np.where(j < 40, 0.0, -np.inf), np.where(j >= 40, 0.0, np.inf))]
    outcomes = set()
    for i, model in enumerate("ABD"):
        mu = model_mu(model, J).values
        for N in (30, 100, 1000):
            gen = Rng(32).child(i).child(N).generator()
            mean = mu + gen.standard_normal((100, J)) / np.sqrt(N)
            sd = np.sqrt(gen.chisquare(N - 1, (100, J)) / (N - 1))
            tau, k = 1 / np.sqrt(N), np.log(N) / 3
            cal = Calibration(alpha=alpha, cov=("iid_t", N - 1), k=k)
            for lo, hi in edges:
                band = BandSpec(Field(dom, lo), Field(dom, hi))
                _, q, below, above = _partition_rows(mean, sd, lo, hi, alpha, k, tau, N - 1)
                for row in range(100):
                    mu_hat = Field(dom, mean[row])
                    dec = grt(mu_hat, band, ScopeBands(0.0, tau, Field(dom, sd[row])), quantile=cal)
                    flagged = bool((below[row] | above[row]).any())
                    assert dec.global_reject is flagged
                    assert dec.delta == delta_eqv(mu_hat, band)  # d, unclipped
                    if dec.delta > 0:
                        assert dec.quantile_used.q == q[row]
                    outcomes.add(flagged)
    assert outcomes == {True, False}


@pytest.mark.parametrize("mode", ["oracle", "plugin"])
@pytest.mark.parametrize("test", [grt, lrt])
def test_infinite_band_edges_never_meet_an_opposite_infinity(test, mode):
    # on the band (-inf, inf) delta is -inf for grT and +inf for lrT, so each
    # infinite edge is asked to move by the opposite infinity and must stay put
    dom = Domain(3)
    mu_hat = fld(0.0, 0.5, -1.0)
    dec = test(mu_hat, const_band(dom, -np.inf, np.inf), unit_bands(dom, tau=0.1),
               quantile=Calibration(k=1.0), mu=mu_hat if mode == "oracle" else None)
    assert dec.quantile_used.q == 0.0 and dec.quantile_used.empty_sets
    assert dec.global_reject in (False, None) and len(dec.rejected) == 0


@pytest.mark.parametrize("test", [grt, et])
def test_oracle_global_touch_sets_hold_the_targets_extremes(test):
    # d is the target's largest exceedance, so its shifted edge meets the target at that point:
    # read off the gap, the touch set is never empty (shifting the edge by d and comparing
    # rounded b + d away in about one call in five on these Gaussian targets)
    gen = np.random.default_rng(26)
    dom = Domain(80)
    band = const_band(dom, -0.1, 0.2)
    bands = unit_bands(dom, tau=0.1)
    for _ in range(200):
        mu = Field(dom, gen.normal(0.05, 0.3, 80))
        est = test(mu, band, bands, quantile=Calibration(cov=("iid_t", 99)), mu=mu).quantile_used
        assert not est.empty_sets


@pytest.mark.parametrize("mode", ["oracle", "plugin"])
@pytest.mark.parametrize("kind", ["grT", "lrT", "eT", "leT"])
def test_iid_calibration_builds_only_the_rejected_set(kind, mode, monkeypatch):
    # touch sets stay masks: the only IndexSet is the decision's own
    built = []
    real = IndexSet.from_mask.__func__

    def counting(cls, mask):
        built.append(mask.shape)
        return real(cls, mask)

    monkeypatch.setattr(IndexSet, "from_mask", classmethod(counting))
    dom = Domain(4)
    mu = fld(-1.0, 0.0, 0.5, 1.0)
    mu_hat = fld(-1.2, 0.1, 0.4, 1.3)
    test = {"grT": grt, "lrT": lrt, "eT": et, "leT": let_}[kind]
    cal = Calibration(cov=("iid_t", 49), k=None if mode == "oracle" else 1.0)
    test(mu_hat, const_band(dom, -1.0, 1.0), unit_bands(dom, tau=0.1), quantile=cal,
         mu=mu if mode == "oracle" else None)
    assert len(built) == (0 if kind == "eT" else 1)


_KINDS = {"grT": grt, "lrT": lrt, "eT": et, "leT": let_}
# dyadic values keep every shift exact, so targets land exactly on shifted edges
_GRID = (-1.5, -1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5)


def _bits(x):
    return np.float64(x).tobytes()


def _outcome(fn, *args):
    """Everything a band test decides, with floats compared bit for bit."""
    try:
        dec = fn(*args)
    except ParameterError as exc:
        return type(exc), str(exc)
    est = dec.quantile_used
    return (dec.kind, _bits(est.q), est.method, _bits(est.alpha), est.support_size,
            est.empty_sets, _bits(dec.delta), dec.global_reject, dec.rejected.members.tolist())


_QS = (0.0, 0.5, 1.25, -0.5, np.inf)
# strategies built once: building one per draw costs more than the band tests under test
_ROWS = {name: st.lists(st.sampled_from(pool), min_size=5, max_size=5) for name, pool in (
    ("edge", _GRID), ("width", (0.25, 0.5, 1.0)), ("roi", (True, True, False)),
    ("target", _GRID + (np.inf, -np.inf)), ("noise", (0.0, 0.0, 0.25, -0.25, 0.5, -1.0)),
    ("sigma", (0.5, 1.0, 2.0)))}
_PICKS = {name: st.sampled_from(pool) for name, pool in (
    ("point_band", (True, False, False, False)), ("edges", (0, 1, 2)), ("q", _QS),
    ("tau", (0.25, 0.5, 1.0)), ("form", ("given", "estimate", "calibration", "calibration")),
    ("cov", ("iid_normal", ("iid_t", 5.0), "ar")), ("k", (None, 0.5, 2.0, 2.0)),
    ("oracle", (True, False)))}


@st.composite
def _band_cases(draw):
    J = draw(st.integers(1, 5))
    dom = Domain(J)
    pick = lambda name: draw(_PICKS[name])
    row = lambda name: np.array(draw(_ROWS[name])[:J])
    lo = row("edge")
    hi = lo + (0.0 if pick("point_band") else row("width"))
    # off a region of interest each edge is +inf or -inf, as roi_adapt builds it
    roi = IndexSet.from_mask(row("roi"))
    lo_plus, lo_minus = roi_adapt(Field(dom, lo), roi)
    hi_plus, hi_minus = roi_adapt(Field(dom, hi), roi)
    band = BandSpec(*((lo_minus, hi_plus), (lo_minus, hi_minus), (lo_plus, hi_plus))[pick("edges")])
    mu = row("target")
    mu_hat = mu + row("noise")
    bands = ScopeBands(pick("q"), pick("tau"), Field(dom, row("sigma")))
    form = pick("form")
    if form == "given":
        quantile = None
    elif form == "estimate":
        quantile = QuantileEstimate(pick("q"), "given", 0.1)
    else:
        cov = pick("cov")
        if cov == "ar":
            cov = 0.5 ** np.abs(np.subtract.outer(np.arange(J), np.arange(J)))
        quantile = Calibration(0.1, cov, reps=1000, k=pick("k"))
    return Field(dom, mu_hat), band, bands, quantile, Field(dom, mu) if pick("oracle") else None


def _in_every_kind(*cases):
    """An ``@example`` of each case for each of the four kinds."""
    def add(test):
        for kind in sorted(_KINDS):
            for case in cases:
                test = example(kind=kind, case=case)(test)
        return test
    return add


def _oracle_case(mu, lo, hi):
    dom = mu.domain
    return (mu, BandSpec(Field(dom, lo), Field(dom, hi)), unit_bands(dom, tau=0.5),
            Calibration(cov=("iid_t", 9.0)), mu)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_KINDS)), case=_band_cases())
# finite sides, so the one-subtraction gap: a -0.0 target on an edge at 0.0, and targets tied
# with an edge shifted by a non-dyadic d; then a finite target against infinite edges, the
# masked gap
@_in_every_kind(_oracle_case(fld(-0.0, 0.5, 0.25), [0.0] * 3, [1.0] * 3),
                _oracle_case(fld(0.15, -0.05, 0.05, 0.3), [-0.1] * 4, [0.2] * 4),
                _oracle_case(fld(0.3, -0.2, 0.05), [-np.inf, -0.1, -0.1], [0.2, np.inf, 0.2]))
@example(kind="grT", case=(fld(0.0, 0.25), const_band(Domain(2), 0.0, 1.0),  # d_eqv is +0.0
                           unit_bands(Domain(2)), Calibration(), fld(0.0, 0.25)))
# plug-in: the estimate meets each shifted edge from both sides within k*tau*sigma, so the
# union touch sets hold points that one side per edge would miss and q differs from it
@example(kind="lrT", case=(fld(0.25, -0.25, 0.5), const_band(Domain(3), 0.0, 1.0),
                           unit_bands(Domain(3), tau=0.5), Calibration(k=2.0), None))
@example(kind="leT", case=(fld(0.25, -0.25, 0.5), const_band(Domain(3), 0.0, 1.0),
                           unit_bands(Domain(3), tau=0.5), Calibration(k=2.0), None))
# plug-in grT with the estimate 0.5 outside the band: its clipped shift calibrates on the
# unshifted edges, and the unclipped one would count the touch sets differently
@example(kind="grT", case=(fld(0.25, 1.5), const_band(Domain(2), 0.0, 1.0),
                           unit_bands(Domain(2), tau=0.5), Calibration(k=2.0), None))
def test_band_tests_match_the_reference_template_bit_for_bit(kind, case):
    # the reference is the template before it moved onto plain arrays; every
    # quantile form, both calibration modes, infinite edges, d = 0 and d = inf,
    # q = 0 and q = inf, and errors raised must all match
    assert _outcome(_KINDS[kind], *case) == _outcome(reference_band_test, kind, *case)


@pytest.mark.parametrize("infinite_edge", [False, True])
def test_finite_oracle_tests_never_reach_the_masked_gap(infinite_edge, monkeypatch):
    # finiteness is recorded at construction: on a finite target and band each gap is one
    # subtraction, and only an infinite edge takes the masked form
    finite_flags = []
    real = hypotests._gap

    def spy(a, b, finite=False):
        finite_flags.append(finite)
        return real(a, b, finite)

    monkeypatch.setattr(hypotests, "_gap", spy)
    gen = np.random.default_rng(28)
    dom = Domain(80)
    hi = np.full(80, 0.2)
    if infinite_edge:
        hi[7] = np.inf
    band = BandSpec(Field.constant(dom, -0.1), Field(dom, hi))
    mu = Field(dom, gen.normal(0.05, 0.3, 80))
    mu_hat = Field(dom, mu.values + gen.normal(0.0, 0.1, 80))
    for test in (lrt, let_):
        test(mu_hat, band, unit_bands(dom, tau=0.1), quantile=Calibration(cov=("iid_t", 99)),
             mu=mu)
    assert finite_flags == [not infinite_edge] * 2


# each fault, in the order the band tests check them, with the error it raises
_FAULTS = {
    "zero_gap": (ParameterError, "inf(b_plus - b_minus)"),  # eT and leT only
    "mu_hat_domain": (DomainMismatchError, "domains"),
    "sigma_domain": (DomainMismatchError, "domains"),
    "mu_domain": (DomainMismatchError, "domains"),
    "quantile_type": (ParameterError, "quantile must be"),
    "no_k": (ParameterError, "needs k"),  # plug-in only
    "k_not_positive": (ParameterError, "k must be > 0"),  # plug-in only
}
_QUANTILE_FAULTS = ("quantile_type", "no_k", "k_not_positive")  # one quantile at a time


def _faulty_case(faults):
    dom, other = Domain(3), Domain(4)
    on = lambda fault: other if fault in faults else dom
    quantile = (0.5 if "quantile_type" in faults else
                Calibration(k=None if "no_k" in faults else 0.0 if "k_not_positive" in faults
                            else 1.0))
    return (Field.constant(on("mu_hat_domain"), 0.25),
            const_band(dom, 0.0, 0.0) if "zero_gap" in faults else const_band(dom, -1.0, 1.0),
            ScopeBands(0.0, 0.5, Field.constant(on("sigma_domain"), 1.0)), quantile,
            Field.constant(other, 0.25) if "mu_domain" in faults else None)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("faults", [
    pair for pair in combinations(_FAULTS, 2) if not set(pair) <= set(_QUANTILE_FAULTS)
    and not ("mu_domain" in pair and pair[1] in ("no_k", "k_not_positive"))])  # mu: oracle
def test_the_first_failing_check_names_the_error(kind, faults):
    # with two inputs bad at once, the band tests and the reference template
    # raise the error of the check that comes first
    applies = [f for f in faults if f != "zero_gap" or kind in ("eT", "leT")]
    error, fragment = _FAULTS[applies[0]]
    for run in (_KINDS[kind], lambda *case: reference_band_test(kind, *case)):
        with pytest.raises(error, match=re.escape(fragment)):
            run(*_faulty_case(faults))


class TestTPvalues:
    def test_zero_mean_column_gives_one(self):
        data = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, -2.0], [-2.0, 2.0]])
        np.testing.assert_allclose(t_pvalues(data), [1.0, 1.0], atol=1e-14)

    def test_definitional_quantile(self):
        # place the t statistic exactly at the 97.5% point
        N = 10
        target = dq("t", 0.975, df=N - 1)
        x = np.zeros(N)
        x[: N // 2] = 1.0
        x[N // 2 :] = -1.0
        x = x - x.mean()
        sd = x.std(ddof=1)
        shift = target * sd / np.sqrt(N)
        p = t_pvalues((x + shift).reshape(-1, 1))
        assert p[0] == pytest.approx(0.05, abs=1e-10)

    def test_uniform_under_null(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(42)
        data = rng.normal(size=(10, 10_000))
        p = t_pvalues(data)
        assert kstest(p, "uniform").statistic < 0.02

    def test_zero_variance(self):
        with pytest.raises(DegenerateDataError):
            t_pvalues(np.ones((5, 2)))

    def test_far_tail_does_not_floor_at_zero(self):
        # columns with t = 10, 20, 50 at df = 99; 1 - cdf would give exactly 0
        N = 100
        x = np.resize([1.0, -1.0], N)
        shifts = np.array([10.0, 20.0, 50.0]) * x.std(ddof=1) / np.sqrt(N)
        p = t_pvalues(x[:, None] + shifts)
        assert p[0] > p[1] > p[2] > 0.0
        np.testing.assert_allclose(p, [1.09e-16, 1.5e-36, 4.6e-72], rtol=0.05)


def simes_rejects(p_subset, alpha):
    s = np.sort(p_subset)
    k = np.arange(1, s.size + 1)
    return bool(np.any(s <= k * alpha / s.size))


def closed_testing_rejections(p, alpha):
    n = len(p)
    rejected = []
    for i in range(n):
        ok = True
        for size in range(1, n + 1):
            for sub in combinations(range(n), size):
                if i in sub and not simes_rejects(p[list(sub)], alpha):
                    ok = False
                    break
            if not ok:
                break
        rejected.append(ok)
    return IndexSet.from_mask(np.array(rejected))


def holm_rejections(p, alpha):
    n = len(p)
    order = np.argsort(p)
    out = np.zeros(n, dtype=bool)
    for rank, idx in enumerate(order):
        if p[idx] <= alpha / (n - rank):
            out[idx] = True
        else:
            break
    return IndexSet.from_mask(out)


def _lrt_with_cov(cov):
    mu = fld(0.0, 0.5, 2.0)
    cal = Calibration(alpha=0.1, cov=cov, reps=1000, rng=Rng(0))
    return lrt(mu, const_band(mu.domain, 0.0, 0.0), unit_bands(mu.domain), quantile=cal, mu=mu)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: hommel([0.01, np.nan, 0.5], 0.1), id="hommel_nan_pvalue"),
        pytest.param(lambda: bh([0.01, np.nan, 0.5], 0.1), id="bh_nan_pvalue"),
        pytest.param(lambda: storey_m0([0.01, np.nan, 0.9]), id="storey_nan_pvalue"),
        pytest.param(lambda: hommel_reject_mask([[0.01, np.nan, 0.5]], 0.1),
                     id="hommel_mask_nan_pvalue"),
        pytest.param(lambda: bh_reject_mask([[0.01, np.nan, 0.5]], 0.1), id="bh_mask_nan_pvalue"),
        pytest.param(lambda: hommel_reject_mask([[0.01, 1.5, -0.2]], 0.1),
                     id="hommel_mask_out_of_range_pvalue"),
        pytest.param(lambda: bh_reject_mask([[0.01, 1.5, -0.2]], 0.1),
                     id="bh_mask_out_of_range_pvalue"),
        pytest.param(lambda: _lrt_with_cov("iid_nromal"), id="misspelled_normal_spec"),
        pytest.param(lambda: _lrt_with_cov(("iid_T", 3)), id="misspelled_t_spec"),
        pytest.param(lambda: _lrt_with_cov(("iid_t", "3")), id="non_numeric_t_df"),
        pytest.param(lambda: Calibration(cov=("iid_t", 3, 4)), id="spec_checked_at_construction"),
    ],
)
def test_malformed_pvalues_and_noise_specs_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


def test_a_calibration_is_frozen_once_its_noise_law_is_parsed():
    cal = Calibration(cov=("iid_t", 9))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cal.cov = "not a law"


@pytest.mark.parametrize("cov", ["iid_normal", ("iid_t", 9), np.eye(3)],
                         ids=["iid_normal", "iid_t", "matrix"])
def test_calibrations_compare_and_hash_by_identity(cov):
    # a matrix cov made the generated __eq__ raise ValueError and __hash__ TypeError
    a, b = Calibration(cov=cov), Calibration(cov=cov)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2


class TestHommel:
    def test_nothing_below_alpha(self):
        assert hommel([0.2, 0.9, 0.4], 0.05) == IndexSet()

    def test_worked_example(self):
        p = np.array([0.01, 0.02, 0.9])
        assert hommel(p, 0.05) == IndexSet([0, 1])
        assert closed_testing_rejections(p, 0.05) == IndexSet([0, 1])

    def test_matches_closed_testing_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            p = np.round(rng.uniform(size=n) ** rng.uniform(0.5, 3), 3)
            assert hommel(p, 0.1) == closed_testing_rejections(p, 0.1)

    def test_dominates_holm(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            p = rng.uniform(size=n) ** 2
            assert holm_rejections(p, 0.1).issubset(hommel(p, 0.1))


def _hommel_adjust_reference(p):
    """Hommel-adjusted p-values by Wright's O(J^2) loop over family sizes."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    B, n = p.shape
    if n == 0:
        return p.copy()
    order = np.argsort(p, axis=1)
    ps = np.take_along_axis(p, order, axis=1)
    i = np.arange(1, n + 1)
    pa = np.min(n * ps / i, axis=1, keepdims=True) * np.ones((B, n))
    q = pa.copy()
    for m in range(n - 1, 1, -1):
        i2 = np.arange(n - m + 1, n)
        denom = np.arange(2, m + 1)
        q1 = np.min(m * ps[:, i2] / denom, axis=1, keepdims=True)
        i1 = np.arange(0, n - m + 1)
        q[:, i1] = np.minimum(m * ps[:, i1], q1)
        q[:, i2] = q[:, [n - m]]
        pa = np.maximum(pa, q)
    adj_sorted = np.maximum(pa, ps)
    adj = np.empty_like(adj_sorted)
    np.put_along_axis(adj, order, adj_sorted, axis=1)
    return adj


class TestHommelRejectMask:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2])
    def test_matches_reference_loop(self, alpha):
        rng = np.random.default_rng(int(alpha * 1000))
        for J in (1, 2, 3, 5, 17, 80, 300):
            p = rng.uniform(size=(100, J)) ** rng.uniform(0.5, 4.0, size=(100, 1))
            np.testing.assert_array_equal(
                hommel_reject_mask(p, alpha), _hommel_adjust_reference(p) <= alpha
            )

    def test_empty_family(self):
        assert hommel_reject_mask(np.empty((3, 0)), 0.1).shape == (3, 0)

    def test_single_hypothesis(self):
        p = np.array([[0.05], [0.1], [0.2]])
        np.testing.assert_array_equal(hommel_reject_mask(p, 0.1)[:, 0], [True, True, False])

    def test_nothing_below_alpha(self):
        p = np.random.default_rng(3).uniform(0.1, 1.0, size=(20, 50))
        assert not hommel_reject_mask(p, 0.1).any()

    def test_all_tiny_rejects_everything(self):
        # h = 0: even the largest p-value clears alpha, so every Simes test rejects
        p = np.full((4, 30), 1e-12)
        assert hommel_reject_mask(p, 0.05).all()

    def test_grid_ties_no_worse_than_reference(self):
        # p-values on the grid k * alpha / m sit exactly on Simes thresholds,
        # where the oracle's `<=` and rounding decide; the kernel must agree
        # with closed testing at least as often as the adjusted-p loop does
        rng = np.random.default_rng(2024)
        kernel_miss = reference_miss = 0
        for _ in range(600):
            n = int(rng.integers(1, 7))
            alpha = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
            m = rng.integers(1, n + 1, size=n)
            p = rng.integers(1, m + 1) * alpha / m
            oracle = closed_testing_rejections(p, alpha)
            kernel = IndexSet.from_mask(hommel_reject_mask(p, alpha)[0])
            reference = IndexSet.from_mask(_hommel_adjust_reference(p)[0] <= alpha)
            kernel_miss += kernel != oracle
            reference_miss += reference != oracle
        assert kernel_miss <= reference_miss

    @pytest.mark.parametrize(
        "k, m", [([1, 3, 2], [2, 3, 2]), ([1, 1, 3], [1, 2, 3]), ([3, 2, 1], [3, 2, 2])]
    )
    def test_ceil_rounding_settled_by_simes(self, k, m):
        # 3 * 0.2 / 3 rounds above 0.2: the ceil bound alone misplaces h here
        p = np.array(k) * 0.2 / np.array(m)
        got = IndexSet.from_mask(hommel_reject_mask(p, 0.2)[0])
        assert got == closed_testing_rejections(p, 0.2)

    def test_large_family_smoke(self):
        J, alpha = 100_000, 0.05
        p = np.random.default_rng(9).uniform(size=J) ** 4
        mask = hommel_reject_mask(p, alpha)
        assert mask.shape == (1, J)
        assert mask.sum() >= np.count_nonzero(p <= alpha / J)


@settings(max_examples=300, deadline=None)
@given(J=st.integers(1, 200), alpha=st.floats(1e-100, 1.0, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
@example(J=3, alpha=0.1, seed=7)
def test_step_up_masks_ignore_p_beyond_their_thresholds(J, alpha, seed):
    # the simulation harness reads p > alpha (1 + 1e-6) as 1 and p < alpha/(2J) as 0;
    # the margin matters: 3 * 0.1 / 3 rounds an ulp above 0.1, so at the example
    # BH rejects a p one ulp above alpha
    rng = np.random.default_rng(seed)
    top, cut = alpha * (1 + 1e-6), alpha / (2 * J)
    p = np.exp(rng.uniform(np.log(cut) - 2.0, 0.0, size=(4, J)))
    marks = np.array([alpha, top, cut])
    edges = np.concatenate([[0.0, 1.0], marks, np.nextafter(marks, 0), np.nextafter(marks, 2)])
    pool = np.concatenate([edges, p[0, :3]])  # ties among edges and drawn values
    p = np.where(rng.uniform(size=p.shape) < 0.4, rng.choice(pool, size=p.shape), p)
    p = np.minimum(p, 1.0)
    placeholders = np.where(p > top, 1.0, np.where(p < cut, 0.0, p))
    for rule in (hommel_reject_mask, bh_reject_mask):
        np.testing.assert_array_equal(rule(placeholders, alpha), rule(p, alpha))


class TestBh:
    def test_nothing_below_alpha(self):
        assert bh([0.2, 0.9, 0.4], 0.05) == IndexSet()

    def test_no_pvalues_reject_nothing(self):
        assert bh([], 0.1) == IndexSet()
        assert bh_reject_mask(np.empty((3, 0)), 0.1).shape == (3, 0)

    def test_hand_step_up(self):
        p = np.array([0.01, 0.03, 0.04, 0.9])
        # thresholds k*alpha/4: only the smallest p clears its slot at 5%,
        # while at 10% the third-ranked p clears 3*0.1/4
        assert bh(p, 0.05) == IndexSet([0])
        assert bh(p, 0.1) == IndexSet([0, 1, 2])

    def test_contains_hommel(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            p = rng.uniform(size=n) ** rng.uniform(0.5, 4)
            assert hommel(p, 0.1).issubset(bh(p, 0.1))
