import numpy as np
import pytest

from scopesets.dist import Rng, normal_cdf, t_cdf
from scopesets.domain import IndexSet
from scopesets.errors import DegenerateDataError, ParameterError
from scopesets.preimage import PreimageSets
from scopesets.quantile import (
    iid_exact_quantile,
    iid_quantile,
    mc_oracle_quantile,
    multiplier_bootstrap_quantile,
    storey_m0,
    storey_quantile,
)


class TestIidQuantile:
    def test_zero_support(self):
        est = iid_quantile(0, 0.1, df=99)
        assert est.q == 0.0 and est.empty_sets

    def test_single_point_normal(self):
        est = iid_quantile(1, 0.1, df=np.inf, sided="one_sided")
        assert est.q == pytest.approx(1.2816, abs=5e-5)

    def test_product_cdf_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = int(rng.integers(1, 200))
            alpha = float(rng.uniform(0.01, 0.3))
            df = float(rng.choice([5, 30, 99, np.inf]))
            q1 = iid_quantile(m, alpha, df=df, sided="one_sided").q
            assert abs(t_cdf(q1, df) ** m - (1 - alpha)) <= 1e-10
            q2 = iid_quantile(m, alpha, df=df, sided="two_sided").q
            assert abs((2 * t_cdf(q2, df) - 1) ** m - (1 - alpha)) <= 1e-10
            assert q2 > q1  # two-sided control is strictly wider

    def test_frozen_example(self):
        # m = 80, alpha = 0.1, df = 99 (value frozen from the bisection oracle)
        est = iid_quantile(80, 0.1, df=99, sided="one_sided")
        assert est.q == pytest.approx(3.085822, abs=1e-5)

    def test_monotone_in_m_and_alpha(self):
        qs = [iid_quantile(m, 0.1, df=50).q for m in range(1, 30)]
        assert all(a < b for a, b in zip(qs, qs[1:]))
        qa = [iid_quantile(10, a, df=50).q for a in (0.01, 0.05, 0.1, 0.2)]
        assert all(a > b for a, b in zip(qa, qa[1:]))

    def test_bad_alpha(self):
        with pytest.raises(ParameterError):
            iid_quantile(5, 0.0, df=10)


class TestStorey:
    def test_no_large_pvalues(self):
        assert storey_m0([0.01, 0.2, 0.49]) == 0

    def test_cap_at_total(self):
        assert storey_m0([0.6, 0.4, 0.7, 0.55]) == 4  # raw estimate 6, capped

    def test_uniform_null_ratio(self):
        rng = np.random.default_rng(42)
        p = rng.uniform(size=1000)
        assert abs(storey_m0(p) / 1000 - 1.0) <= 0.1

    def test_storey_quantile_zero_when_all_signal(self):
        rng = np.random.default_rng(0)
        data = rng.normal(loc=5.0, size=(50, 10))
        est = storey_quantile(data, 0.1)
        assert est.q == 0.0 and est.support_size == 0

    def test_matches_iid_on_pure_null(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 30))
        est = storey_quantile(data, 0.1)
        ref = iid_quantile(est.support_size, 0.1, df=39)
        assert est.q == ref.q


class TestIidExactQuantile:
    def test_empty_sets_flag(self):
        est = iid_exact_quantile(IndexSet(), IndexSet(), 0.1)
        assert est.q == 0.0 and est.empty_sets

    def test_single_point_two_sided(self):
        s = IndexSet([3])
        est = iid_exact_quantile(s, s, 0.1)
        assert est.q == pytest.approx(1.6449, abs=5e-5)

    def test_single_point_one_sided(self):
        est = iid_exact_quantile(IndexSet([0]), IndexSet(), 0.1)
        assert est.q == pytest.approx(1.2816, abs=5e-5)

    def test_matches_iid_quantile_when_sets_coincide(self):
        s = IndexSet(range(12))
        est = iid_exact_quantile(s, s, 0.05, df=30)
        ref = iid_quantile(12, 0.05, df=30, sided="two_sided")
        assert est.q == pytest.approx(ref.q, abs=1e-9)

    def test_lower_tail_single_point(self):
        est = iid_exact_quantile(IndexSet(), IndexSet([0]), 0.1, tail="lower")
        assert est.q == pytest.approx(-1.2816, abs=5e-5)

    def test_mixed_sets_product_cdf(self):
        neg, pos = IndexSet([0, 1, 2]), IndexSet([2, 3])
        est = iid_exact_quantile(neg, pos, 0.1)
        q = est.q
        # one shared coordinate (two-sided), three exclusive (one-sided)
        prob = (2 * normal_cdf(q) - 1) * normal_cdf(q) ** 3
        assert prob == pytest.approx(0.9, abs=1e-9)


class TestMcOracleQuantile:
    def test_empty_sets_flag(self):
        est = mc_oracle_quantile("iid_normal", IndexSet(), IndexSet(), 0.1, 1000, Rng(0))
        assert est.q == 0.0 and est.empty_sets

    def test_single_point_absolute_value(self):
        s = IndexSet([0])
        est = mc_oracle_quantile("iid_normal", s, s, 0.1, 200_000, Rng(42))
        assert est.q == pytest.approx(1.6449, abs=0.02)

    def test_matches_exact_product_rule(self):
        s = IndexSet(range(6))
        est = mc_oracle_quantile("iid_normal", s, s, 0.1, 200_000, Rng(7))
        ref = iid_quantile(6, 0.1, df=np.inf, sided="two_sided")
        assert est.q == pytest.approx(ref.q, abs=0.02)

    def test_determinism(self):
        s = IndexSet([0, 2])
        a = mc_oracle_quantile("iid_normal", s, s, 0.1, 5000, Rng(3))
        b = mc_oracle_quantile("iid_normal", s, s, 0.1, 5000, Rng(3))
        assert a.q == b.q

    def test_perfect_correlation_collapses_to_one_point(self):
        corr = np.ones((2, 2))
        s = IndexSet([0, 1])
        est = mc_oracle_quantile(corr, s, s, 0.1, 200_000, Rng(11))
        one = IndexSet([0])
        ref = mc_oracle_quantile("iid_normal", one, one, 0.1, 200_000, Rng(11))
        assert est.q == pytest.approx(ref.q, abs=0.03)

    def test_t_noise_heavier_than_normal(self):
        s = IndexSet(range(4))
        qt = mc_oracle_quantile(("iid_t", 3), s, s, 0.1, 100_000, Rng(5)).q
        qn = mc_oracle_quantile("iid_normal", s, s, 0.1, 100_000, Rng(5)).q
        assert qt > qn

    def test_lower_tail(self):
        s = IndexSet([0])
        est = mc_oracle_quantile("iid_normal", s, s, 0.1, 200_000, Rng(13), tail="lower")
        # alpha-quantile of |G|: P[|G| <= q] = 0.1
        from scopesets.dist import quantile as dq

        assert est.q == pytest.approx(dq("normal", 0.55), abs=0.02)

    def test_reps_floor(self):
        with pytest.raises(ParameterError):
            mc_oracle_quantile("iid_normal", IndexSet([0]), IndexSet(), 0.1, 500, Rng(0))

    def test_correlation_factored_once_across_chunks(self, monkeypatch):
        # union of 101 points: chunks of 39,603 draws, so 50,000 reps take 2
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return real_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        i = np.arange(101)
        corr = 0.5 ** np.abs(i[:, None] - i[None, :])
        s = IndexSet(range(101))
        mc_oracle_quantile(corr, s, s, 0.1, 50_000, Rng(4))
        assert calls == [(101, 101)]


class TestMultiplierBootstrap:
    def test_single_column_matches_normal_quantile(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(500, 1))
        s = IndexSet([0])
        sets = PreimageSets(s, s, s)
        est = multiplier_bootstrap_quantile(data, sets, 0.1, 2000, Rng(1))
        assert est.q == pytest.approx(1.645, abs=0.1)

    def test_empty_sets_flag(self):
        data = np.random.default_rng(0).normal(size=(50, 3))
        sets = PreimageSets(IndexSet(), IndexSet(), IndexSet())
        est = multiplier_bootstrap_quantile(data, sets, 0.1, 200, Rng(0))
        assert est.q == 0.0 and est.empty_sets

    def test_determinism(self):
        data = np.random.default_rng(5).normal(size=(80, 4))
        s = IndexSet([0, 2])
        sets = PreimageSets(s, s, s)
        a = multiplier_bootstrap_quantile(data, sets, 0.1, 500, Rng(9))
        b = multiplier_bootstrap_quantile(data, sets, 0.1, 500, Rng(9))
        assert a.q == b.q

    def test_degenerate_column(self):
        data = np.zeros((30, 2))
        data[:, 1] = np.random.default_rng(0).normal(size=30)
        s = IndexSet([0, 1])
        with pytest.raises(DegenerateDataError):
            multiplier_bootstrap_quantile(data, PreimageSets(s, s, s), 0.1, 200, Rng(0))

    def test_converges_to_oracle_for_gaussian_data(self):
        rng = np.random.default_rng(100)
        data = rng.normal(size=(1000, 5))
        s = IndexSet(range(5))
        sets = PreimageSets(s, s, s)
        est = multiplier_bootstrap_quantile(data, sets, 0.1, 4000, Rng(2))
        ref = iid_quantile(5, 0.1, df=np.inf, sided="two_sided")
        assert est.q == pytest.approx(ref.q, abs=0.1)
