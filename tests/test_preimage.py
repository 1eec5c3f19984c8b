import numpy as np
import pytest

from scopesets.dist import Rng, t_cdf
from scopesets.domain import Domain, Field, IndexSet, line_domain
from scopesets.errors import ParameterError
from scopesets.preimage import (
    KPolicy,
    consistency_probe,
    oracle_preimage,
    oracle_preimage_sets,
    plugin_preimage,
    plugin_preimage_sets,
    resolve_k,
)
from scopesets.sim import model_mu


def fld(*values):
    return Field(Domain(len(values)), list(values))


class TestOraclePreimage:
    def test_exact_match_everywhere(self):
        mu = fld(1.0, -2.0, 0.5)
        for eta in (0.0, 0.3):
            for side in ("plus", "minus", "both"):
                assert oracle_preimage(mu, [mu], eta, side) == IndexSet.full(3)

    def test_zero_eta_split(self):
        mu = fld(-1.0, 0.0, 1.0)
        zero = Field.constant(mu.domain, 0.0)
        assert oracle_preimage(mu, [zero], 0.0, "plus") == IndexSet([1])
        assert oracle_preimage(mu, [zero], 0.0, "minus") == IndexSet([1])

    def test_thickened_split(self):
        mu = fld(-1.0, 0.0, 1.0)
        zero = Field.constant(mu.domain, 0.0)
        assert oracle_preimage(mu, [zero], 1.0, "plus") == IndexSet([1, 2])
        assert oracle_preimage(mu, [zero], 1.0, "minus") == IndexSet([0, 1])
        assert oracle_preimage(mu, [zero], 1.0, "both") == IndexSet.full(3)

    def test_opposite_infinities_follow_the_sign(self):
        # an infinite tolerance admits every point, on the side of the difference's sign
        for target in (-np.inf, -5.0):
            mu = fld(target)
            c = Field(mu.domain, [np.inf])
            assert oracle_preimage(mu, [c], np.inf, "plus") == IndexSet()
            assert oracle_preimage(mu, [c], np.inf, "minus") == IndexSet([0])
        mu = fld(np.inf)
        c = Field(mu.domain, [-np.inf])
        assert oracle_preimage(mu, [c], np.inf, "plus") == IndexSet([0])
        assert oracle_preimage(mu, [c], np.inf, "minus") == IndexSet()

    def test_negative_eta(self):
        mu = fld(0.0)
        with pytest.raises(ParameterError):
            oracle_preimage(mu, [mu], -0.1)

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            J = int(rng.integers(1, 10))
            dom = Domain(J)
            mu = Field(dom, rng.normal(size=J))
            c = Field(dom, rng.normal(size=J))
            eta1, eta2 = sorted(rng.uniform(0, 2, 2))
            for side in ("plus", "minus", "both"):
                small = oracle_preimage(mu, [c], eta1, side)
                big = oracle_preimage(mu, [c], eta2, side)
                assert small.issubset(big)


class TestPluginPreimage:
    def test_exact_match(self):
        mu_hat = fld(1.0, 2.0)
        sigma = Field.constant(mu_hat.domain, 1.0)
        for side in ("plus", "minus", "both"):
            assert plugin_preimage(mu_hat, [mu_hat], sigma, 1.0, 0.5, side) == IndexSet.full(2)

    def test_tolerance_covers_range(self):
        mu_hat = fld(0.3, -0.2, 0.1)
        zero = Field.constant(mu_hat.domain, 0.0)
        sigma = Field.constant(mu_hat.domain, 1.0)
        assert plugin_preimage(mu_hat, [zero], sigma, 1.0, 0.31) == IndexSet.full(3)

    def test_sided_split(self):
        mu_hat = fld(0.1, -0.05, 0.5)
        zero = Field.constant(mu_hat.domain, 0.0)
        sigma = Field.constant(mu_hat.domain, 1.0)
        sets = plugin_preimage_sets(mu_hat, [zero], sigma, 1.0, 0.1)
        assert sets.plus == IndexSet([0])
        assert sets.minus == IndexSet([1])
        assert sets.both == IndexSet([0, 1])

    def test_union_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            J = int(rng.integers(1, 12))
            dom = Domain(J)
            mu_hat = Field(dom, rng.normal(size=J))
            fam = [Field(dom, rng.normal(size=J)) for _ in range(rng.integers(1, 3))]
            sigma = Field(dom, rng.uniform(0.2, 2.0, J))
            k = float(rng.uniform(0.1, 2.0))
            sets = plugin_preimage_sets(mu_hat, fam, sigma, 0.5, k)
            assert sets.both == sets.plus.union(sets.minus)

    def test_oracle_inside_plugin_when_tolerance_dominates(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            J = int(rng.integers(1, 10))
            dom = Domain(J)
            mu = Field(dom, rng.normal(size=J))
            c = Field(dom, rng.normal(size=J))
            sigma = Field(dom, rng.uniform(0.5, 2.0, J))
            tau = 0.7
            eta = float(rng.uniform(0, 0.5))
            k = (eta + rng.uniform(0, 1)) / (tau * sigma.values.min())
            for side in ("plus", "minus", "both"):
                o = oracle_preimage(mu, [c], eta, side)
                p = plugin_preimage(mu, [c], sigma, tau, k, side)
                assert o.issubset(p)

    def test_equal_infinite_estimate_touches_infinite_threshold(self):
        # inf - inf is NaN; both estimators count an equal infinity as distance 0
        mu_hat = fld(np.inf, -np.inf, np.inf, 0.0)
        c = fld(np.inf, -np.inf, -np.inf, np.inf)
        sets = plugin_preimage_sets(mu_hat, [c], Field.constant(mu_hat.domain, 1.0), 0.1, 1.0)
        assert sets.plus == sets.minus == sets.both == IndexSet([0, 1])
        assert sets == oracle_preimage_sets(mu_hat, [c], 0.0)

    def test_parameter_errors(self):
        mu_hat = fld(0.0)
        sigma = Field.constant(mu_hat.domain, 1.0)
        with pytest.raises(ParameterError):
            plugin_preimage(mu_hat, [mu_hat], sigma, 1.0, 0.0)
        with pytest.raises(ParameterError):
            plugin_preimage(mu_hat, [mu_hat], sigma, 0.0, 1.0)


class TestResolveK:
    def test_log_over_kappa(self):
        pol = KPolicy("log_over_kappa", kappa=10.0)
        assert resolve_k(pol, 100, 80, df=99) == pytest.approx(np.log(100) / 10, abs=1e-12)

    def test_scb_level_normal_limit(self):
        pol = KPolicy("scb_level", beta=0.1)
        k = resolve_k(pol, 10**6, 1, df=np.inf)
        assert k == pytest.approx(1.6449, abs=5e-5)
        # general J: the product rule must hit the coverage target exactly
        k = resolve_k(pol, 100, 80, df=99)
        assert (2 * t_cdf(k, 99) - 1) ** 80 == pytest.approx(0.9, abs=1e-10)

    def test_fixed(self):
        assert resolve_k(KPolicy("fixed", k=2.0), 50, 10, df=49) == 2.0

    def test_bad_policy(self):
        with pytest.raises(ParameterError):
            KPolicy("log_over_kappa", kappa=0.0)
        with pytest.raises(ParameterError):
            KPolicy("scb_level", beta=1.2)
        with pytest.raises(ParameterError):
            KPolicy("unknown")
        with pytest.raises(ParameterError):
            resolve_k(KPolicy("fixed", k=1.0), 1, 10, df=9)


class TestConsistencyProbe:
    def test_zero_noise_recovers_target(self):
        mu = model_mu("B")
        zero = Field.constant(mu.domain, 0.0)

        def noiseless(gen, N):
            return mu.values.copy(), np.ones(mu.domain.size)

        out = consistency_probe(
            mu, [zero], KPolicy("fixed", k=1e-6), [50, 200], reps=3, rng=Rng(0),
            sampler=noiseless,
        )
        for rec in out:
            assert rec["mean_hausdorff"] == 0.0
            assert rec["inclusion_freq"] == 1.0

    def test_trend_and_analytic_inclusion_frequency(self):
        # the estimated set contains the 20 true zeros of model B independently
        # across coordinates, so the inclusion frequency has the exact value
        # (2 F_t(k, N-1) - 1)^20 -- an analytic oracle for the Monte-Carlo
        mu_flat = model_mu("B")
        dom = line_domain(mu_flat.domain.size)
        mu = Field(dom, mu_flat.values)
        zero = Field.constant(dom, 0.0)
        pol = KPolicy("log_over_kappa", kappa=3.0)
        reps = 200
        out = consistency_probe(mu, [zero], pol, [50, 200, 1000], reps=reps, rng=Rng(42))
        dh = [rec["mean_hausdorff"] for rec in out]
        assert dh[0] >= dh[1] >= dh[2]
        freqs = [rec["inclusion_freq"] for rec in out]
        assert freqs[0] <= freqs[2]
        for rec in out:
            N = rec["N"]
            p_one = 2 * t_cdf(rec["k"], N - 1) - 1
            exact = p_one**20
            se = np.sqrt(exact * (1 - exact) / reps)
            assert abs(rec["inclusion_freq"] - exact) <= 3 * se + 1e-9
