from itertools import combinations

import numpy as np
import pytest

from scopesets.dist import Rng, quantile as dq
from scopesets.domain import Domain, Field, IndexSet
from scopesets.errors import DegenerateDataError, ParameterError, ThresholdOrderError
from scopesets.excursion import ScopeBands
from scopesets.hypotests import (
    BandSpec,
    Calibration,
    bh,
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
from scopesets.quantile import QuantileEstimate, iid_exact_quantile, storey_m0


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
        np.testing.assert_array_equal(band.gap(), [np.inf, np.inf, 1.0])

    def test_equal_infinite_edges_have_zero_gap(self):
        # both edges +inf at index 1: the band is a single point there
        dom = Domain(2)
        band = BandSpec(Field(dom, [0.0, np.inf]), Field(dom, [1.0, np.inf]))
        np.testing.assert_array_equal(band.gap(), [1.0, 0.0])
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
        pytest.param(lambda: _lrt_with_cov("iid_nromal"), id="misspelled_normal_spec"),
        pytest.param(lambda: _lrt_with_cov(("iid_T", 3)), id="misspelled_t_spec"),
        pytest.param(lambda: _lrt_with_cov(("iid_t", "3")), id="non_numeric_t_df"),
    ],
)
def test_malformed_pvalues_and_noise_specs_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


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


class TestBh:
    def test_nothing_below_alpha(self):
        assert bh([0.2, 0.9, 0.4], 0.05) == IndexSet()

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
