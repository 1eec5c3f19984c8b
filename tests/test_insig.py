import numpy as np
import pytest

from scopesets.dist import Rng, t_cdf
from scopesets.domain import IndexSet
from scopesets.errors import ParameterError
from scopesets.insig import insig_report, iv_obs, iv_qhat, write_insig_report
from scopesets.preimage import KPolicy


class TestIvQhat:
    def test_zero_threshold_is_certain(self):
        assert iv_qhat(10, 3, 0.0, 99) == 1.0

    def test_far_tail_stays_positive(self):
        vals = [iv_qhat(10, 1, q, 99) for q in (10.0, 20.0, 50.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_frozen_benchmark_value(self):
        # M = 80, m = 1, threshold 3.00, 99 dof: 1 - (1-p)^80 with
        # p = 2 (1 - F_t(3.00, 99))
        val = iv_qhat(80, 1, 3.00, 99)
        p = 2 * (1 - t_cdf(3.00, 99))
        assert val == pytest.approx(1 - (1 - p) ** 80, abs=1e-12)
        assert val == pytest.approx(0.2394, abs=1e-4)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(42)
        gen = Rng(0).generator()
        for _ in range(5):
            M = int(rng.integers(2, 60))
            m = int(rng.integers(1, max(2, M // 3)))
            q = float(rng.uniform(1.0, 3.0))
            df = float(rng.integers(5, 200))
            draws = gen.standard_t(df, size=(100_000, M))
            emp = np.mean((np.abs(draws) >= q).sum(axis=1) >= m)
            exact = iv_qhat(M, m, q, df)
            se = np.sqrt(max(exact * (1 - exact), 1e-12) / 100_000)
            assert abs(emp - exact) <= 4 * se + 1e-4

    def test_monotonicities(self):
        df = 50
        grid_m = [iv_qhat(30, m, 2.0, df) for m in range(1, 10)]
        assert all(a >= b for a, b in zip(grid_m, grid_m[1:]))
        grid_M = [iv_qhat(M, 2, 2.0, df) for M in range(3, 40)]
        assert all(a <= b for a, b in zip(grid_M, grid_M[1:]))
        grid_q = [iv_qhat(30, 2, q, df) for q in np.linspace(0.5, 4, 12)]
        assert all(a >= b for a, b in zip(grid_q, grid_q[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            iv_qhat(5, 0, 1.0, 10)
        with pytest.raises(ParameterError):
            iv_qhat(5, 6, 1.0, 10)


class TestIvObs:
    def test_single_discovery_at_threshold_matches_iv_qhat(self):
        heights = np.array([0.2, 3.0, 1.1])
        d = IndexSet([1])
        assert iv_obs(heights, d, 80, 1, 99) == iv_qhat(80, 1, 3.0, 99)

    def test_min_height_rules(self):
        heights = np.array([5.0, 3.0, 4.0])
        d = IndexSet([0, 1, 2])
        assert iv_obs(heights, d, 80, 1, 99) == iv_qhat(80, 1, 3.0, 99)

    def test_empty_discoveries(self):
        assert iv_obs(np.array([1.0]), IndexSet(), 10, 1, 9) is None

    def test_huge_height_vanishes(self):
        assert iv_obs(np.array([40.0]), IndexSet([0]), 80, 1, 99) < 1e-12


class TestInsigReport:
    def test_null_data_has_no_discoveries(self):
        gen = Rng(3).generator()
        data = 0.2 * gen.standard_normal((100, 20))
        rep = insig_report(data, 0.1, KPolicy("scb_level", beta=0.1))
        assert rep.m1 == 0
        assert rep.iv_obs == {}
        assert rep.min_discovery_height is None

    def test_signal_data_report(self):
        gen = Rng(7).generator()
        J = 80
        mu = np.where(np.arange(J) < 30, -0.5, np.where(np.arange(J) < 50, 0.0, 0.4))
        data = gen.standard_normal((100, J)) + mu
        rep = insig_report(data, 0.1, KPolicy("log_over_kappa", kappa=3.0))
        assert rep.m1 > 0
        assert rep.counts["scope"] == rep.m1
        # smaller null pool can only lower the chance of a tall excursion
        assert rep.iv_qhat[(rep.m0, 1)] <= rep.iv_qhat[(J, 1)] + 1e-12

    def test_determinism(self):
        gen1, gen2 = Rng(11).generator(), Rng(11).generator()
        d1 = gen1.standard_normal((50, 10))
        d2 = gen2.standard_normal((50, 10))
        r1 = insig_report(d1, 0.1, KPolicy("fixed", k=1.0))
        r2 = insig_report(d2, 0.1, KPolicy("fixed", k=1.0))
        assert r1.q_hat == r2.q_hat and r1.m_hat == r2.m_hat
        assert r1.iv_qhat == r2.iv_qhat

    def test_csv_write(self, tmp_path):
        gen = Rng(5).generator()
        data = gen.standard_normal((60, 12)) + 0.8
        rep = insig_report(data, 0.1, KPolicy("log_over_kappa", kappa=3.0))
        path = tmp_path / "report.csv"
        write_insig_report(rep, path, J=12)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("k,q_hat,")
        assert len(lines) == 2
