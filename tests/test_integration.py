"""Cross-module checks: each test ties two independent routes to the same
quantity together (closed form vs Monte-Carlo, library op vs direct
construction, bootstrap vs oracle)."""

import numpy as np
import pytest

from scopesets.dist import Rng
from scopesets.domain import Domain, Field, IndexSet
from scopesets.excursion import (
    ScopeBands,
    ThresholdFamily,
    contour_regions,
    roi_adapt,
    scope_event,
    widened_excursions,
)
from scopesets.hypotests import BandSpec, Calibration, et, grt
from scopesets.preimage import KPolicy, PreimageSets, scope_partition
from scopesets.quantile import (
    iid_exact_quantile,
    mc_oracle_quantile,
    multiplier_bootstrap_quantile,
)
from scopesets.scheffe import extract_limit_cdf


class TestContourCoverage:
    def test_simultaneous_contour_coverage_hits_nominal(self):
        # target hits each level exactly somewhere; the region construction
        # with the exact-touch-set critical value must cover all level sets
        # simultaneously at the nominal rate
        J, alpha, tau, reps = 40, 0.1, 0.1, 30_000
        dom = Domain(J)
        mu_vals = np.round(np.linspace(-1.0, 1.0, J), 1)
        mu = Field(dom, mu_vals)
        levels = [-0.5, 0.0, 0.5]
        touch = [IndexSet.from_mask(mu_vals == lev) for lev in levels]
        assert all(len(t) for t in touch)
        union = touch[0].union(touch[1]).union(touch[2])
        est = iid_exact_quantile(union, union, alpha)
        bands = ScopeBands(est.q, tau, Field.constant(dom, 1.0))
        z = Rng(31).generator().standard_normal((reps, J))
        gen = Rng(31).generator()
        # the (reps, J) draw is the per-realization draw of the same stream, row by row
        np.testing.assert_array_equal(z, [gen.standard_normal(J) for _ in range(reps)])
        mu_hat = mu_vals + tau * z
        lev = np.array(levels)[:, None]
        below, above = widened_excursions(mu_hat[:, None, :], lev, lev, bands.half_width())
        regions = ~(below | above)  # (reps, level, J)
        for i in range(500):
            rows = contour_regions(Field(dom, mu_hat[i]), levels, bands)
            np.testing.assert_array_equal([r.mask(J) for r in rows], regions[i])
        touch_mask = np.array([t.mask(J) for t in touch])
        covered = int(np.all(regions | ~touch_mask, axis=(1, 2)).sum())
        se = np.sqrt(alpha * (1 - alpha) / reps)
        assert covered / reps == pytest.approx(1 - alpha, abs=3 * se)


class TestRoiWorkflow:
    def test_adapted_thresholds_reduce_to_restricted_events(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            J = int(rng.integers(2, 12))
            dom = Domain(J)
            mu = Field(dom, rng.normal(size=J))
            b = Field(dom, rng.normal(size=J))
            roi = IndexSet(rng.choice(J, size=rng.integers(0, J), replace=False))
            cp, cm = roi_adapt(b, roi)
            mu_hat = Field(dom, mu.values + 0.3 * rng.normal(size=J))
            bands = ScopeBands(float(rng.uniform(0, 1.5)), 1.0, Field.constant(dom, 1.0))
            fam = ThresholdFamily(lower=[cm], upper=[cp])
            got = scope_event(mu_hat, mu, bands, fam)
            # direct route: check the same inclusions only on the region
            w = bands.half_width()
            mask = roi.mask(J)
            ok = True
            ok &= not np.any(mask & (mu_hat.values < b.values - w) & ~(mu.values < b.values))
            ok &= not np.any(mask & (mu_hat.values > b.values + w) & ~(mu.values > b.values))
            assert got == ok


class TestLowerTailAgreement:
    def test_mc_matches_exact_product_cdf_on_lower_tail(self):
        neg, pos = IndexSet([0, 1]), IndexSet([1, 2, 3])
        exact = iid_exact_quantile(neg, pos, 0.1, tail="lower")
        mc = mc_oracle_quantile(np.eye(4), neg, pos, 0.1, 200_000, Rng(33), tail="lower")
        assert mc.q == pytest.approx(exact.q, abs=0.02)


class TestBootstrapUnderDependence:
    def test_bootstrap_tracks_the_true_correlation(self):
        # AR(1)-correlated coordinates: the bootstrap must reproduce the
        # oracle critical value computed from the true correlation matrix,
        # which is well below the independence value
        rho, J, N = 0.7, 8, 800
        idx = np.arange(J)
        corr = rho ** np.abs(idx[:, None] - idx[None, :])
        chol = np.linalg.cholesky(corr)
        gen = Rng(34).generator()
        data = gen.standard_normal((N, J)) @ chol.T
        s = IndexSet(range(J))
        sets = PreimageSets(s, s, s)
        boot = multiplier_bootstrap_quantile(data, sets, 0.1, 4000, Rng(35))
        oracle = mc_oracle_quantile(corr, s, s, 0.1, 200_000, Rng(36))
        indep = iid_exact_quantile(s, s, 0.1)
        assert boot.q == pytest.approx(oracle.q, abs=0.1)
        assert oracle.q < indep.q - 0.05


class TestIntervalModeOracle:
    def test_two_dimensional_angle_grid_oracle(self):
        # at K = 2 the interval-mode statistic is the max of u'eps over the
        # arc |u'beta| <= Delta, computable on a dense angle grid; this
        # validates the indicator-mixed closed form independently
        K, Delta, beta_norm, q = 2, 0.4, 1.0, 1.3
        reps = 100_000
        val = extract_limit_cdf(q, K, Delta, beta_norm, reps, Rng(37), mode="interval")
        gen = Rng(38).generator()
        theta = np.linspace(0, 2 * np.pi, 4001)
        grid = np.column_stack([np.cos(theta), np.sin(theta)])
        keep = np.abs(grid[:, 0] * beta_norm) <= Delta
        arc = grid[keep]
        eps = gen.standard_normal((20_000, 2))
        stats = (eps @ arc.T).max(axis=1)
        ref = float(np.mean(stats <= q))
        se = np.sqrt(ref * (1 - ref) / 20_000) + np.sqrt(val * (1 - val) / reps)
        assert abs(val - ref) <= 3 * se + 2e-3  # grid max is slightly small


class TestPluginCalibrationSmoke:
    def test_global_tests_run_in_plugin_mode(self):
        gen = Rng(39).generator()
        J, N = 12, 400
        dom = Domain(J)
        mu_vals = np.concatenate([np.zeros(9), np.full(3, 1.6)])
        data = gen.standard_normal((N, J)) + mu_vals
        mu_hat = Field(dom, data.mean(axis=0))
        sigma_hat = Field(dom, data.std(axis=0, ddof=1))
        bands = ScopeBands(0.0, 1.0 / np.sqrt(N), sigma_hat)
        band = BandSpec(Field.constant(dom, -1.0), Field.constant(dom, 1.0))
        cal = Calibration(alpha=0.1, cov=("iid_t", N - 1), k=2.0)
        rel = grt(mu_hat, band, bands, quantile=cal)
        assert rel.global_reject is True  # 1.6 sits well outside [-1, 1]
        eqv = et(mu_hat, band, bands, quantile=cal)
        assert eqv.global_reject is False  # cannot claim the band holds
        # the estimate leaves the band, so grT calibrates on the partition's touch sets: no
        # column lies within k*tau*sigma of an edge, so both read q = 0
        part = scope_partition(data, -1.0, 1.0, 0.1, KPolicy("fixed", k=2.0))
        assert rel.quantile_used.q == part.q_hat == 0.0 and rel.quantile_used.empty_sets


class TestFieldCsvThroughCli:
    def test_band_files_and_oracle_target(self, tmp_path):
        from scopesets.cli import main
        from scopesets.domain import save_field

        gen = Rng(40).generator()
        J, N = 6, 300
        dom = Domain(J)
        mu_vals = np.array([0.0, 0.0, 0.0, 0.0, 0.5, -0.5])
        data = gen.standard_normal((N, J)) + mu_vals
        np.savetxt(tmp_path / "data.csv", data, delimiter=",")
        save_field(Field.constant(dom, -0.25), tmp_path / "lower.csv")
        save_field(Field.constant(dom, 0.25), tmp_path / "upper.csv")
        rc = main(
            ["scope", "--data", str(tmp_path / "data.csv"),
             "--lower", str(tmp_path / "lower.csv"),
             "--upper", str(tmp_path / "upper.csv"),
             "--alpha", "0.1", "--kappa", "3", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        lines = (tmp_path / "o" / "partition.csv").read_text().splitlines()
        classes = [ln.rsplit(",", 1)[1] for ln in lines if ln and ln[0].isdigit()]
        assert classes[4] == "above" and classes[5] == "below"

        save_field(Field(dom, mu_vals), tmp_path / "mu.csv")
        rc = main(
            ["tests", "--data", str(tmp_path / "data.csv"), "--kind", "lrT",
             "--b-minus", "-0.25", "--b-plus", "0.25",
             "--mu", str(tmp_path / "mu.csv"), "--alpha", "0.1",
             "--out", str(tmp_path / "t")]
        )
        assert rc == 0
        row = (tmp_path / "t" / "test_decision.csv").read_text().splitlines()[1]
        rejected = row.split(",")[4]
        assert rejected == "4;5"
