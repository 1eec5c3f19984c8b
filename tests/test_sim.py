import numpy as np
import pytest
from scipy import stats

from scopesets.dist import Rng
from scopesets.domain import Domain, Field
from scopesets.errors import ParameterError
from scopesets import sim
from scopesets.quantile import _chunk_rows
from scopesets.sim import (
    SandwichInstance,
    SimConfig,
    _draw_tstats,
    model_mu,
    parse_method,
    run_simulation,
    sandwich_check,
    write_plot_data,
    write_sim_table,
)


class TestModelMu:
    def test_model_a_is_flat_zero(self):
        mu = model_mu("A")
        assert mu.domain.size == 80
        assert np.all(mu.values == 0.0)

    def test_model_b_blocks(self):
        mu = model_mu("B").values
        assert mu[0] == -0.3 and mu[29] == -0.3
        assert mu[30] == 0.0 and mu[49] == 0.0
        assert mu[50] == 0.2 and mu[79] == 0.2  # j = 51 is index 50

    def test_model_c_blocks(self):
        mu = model_mu("C").values
        assert np.all(mu[:5] == -0.3) and np.all(mu[5:] == 0.0)

    def test_model_d_sine(self):
        mu = model_mu("D").values
        assert mu.size == 100
        assert mu[0] == pytest.approx(np.sin(1 / (2 * np.pi)))
        assert mu[0] == pytest.approx(0.158484, abs=1e-6)

    def test_unknown_model(self):
        with pytest.raises(ParameterError):
            model_mu("E")


class TestParseMethod:
    def test_tokens(self):
        assert parse_method("oracle")[2] == "oracle"
        assert parse_method("storey")[2] == "storey"
        kind, pol, label = parse_method("log_kappa(10)")
        assert kind == "log_kappa" and pol.kappa == 10.0 and label == "log(N)/10"
        kind, pol, label = parse_method("scb(0.9)")
        assert kind == "scb" and pol.beta == pytest.approx(0.1) and label == "0.9-SCB"

    def test_bad_tokens(self):
        for tok in ("bogus", "log_kappa()", "scb(1.5)"):
            with pytest.raises((ParameterError, ValueError)):
                parse_method(tok)


def _draw_tstats_reference(gen, nb, N, mu):
    """The raw-cube draw: nb samples of N iid N(mu, 1) rows, then t per column."""
    y = gen.standard_normal((nb, N, mu.size)) + mu
    return np.sqrt(N) * y.mean(axis=1) / y.std(axis=1, ddof=1)


class TestDrawTstats:
    CASES = [(2, 0.0), (5, 0.0), (30, 0.2), (200, -0.3)]

    @pytest.mark.parametrize("N,mu0", CASES)
    def test_matches_noncentral_t(self, N, mu0):
        mu = np.full(40, mu0)
        t = _draw_tstats(Rng(31).generator(), 500, N, mu).ravel()
        law = stats.t(df=N - 1) if mu0 == 0.0 else stats.nct(df=N - 1, nc=np.sqrt(N) * mu0)
        assert stats.kstest(t, law.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("N,mu0", CASES)
    def test_matches_raw_cube_reference(self, N, mu0):
        mu = np.full(40, mu0)
        t = _draw_tstats(Rng(32).generator(), 500, N, mu).ravel()
        ref = _draw_tstats_reference(Rng(33).generator(), 500, N, mu).ravel()
        assert stats.ks_2samp(t, ref).pvalue > 1e-3

    def test_columns_keep_their_own_mean(self):
        mu = np.array([-0.5, 0.0, 0.5])
        t = _draw_tstats(Rng(34).generator(), 4000, 100, mu)
        assert t.shape == (4000, 3)
        np.testing.assert_allclose(t.mean(axis=0), 10 * mu, atol=0.1)

    @pytest.mark.parametrize("J", [1, 3, 80, 1000, 12_345, 10**6, 3 * 10**6])
    def test_chunk_bounds_values_per_array(self, J):
        nb = _chunk_rows(10**9, 4 * J)
        assert nb >= 1
        assert nb * J <= 10**6 or nb == 1

    def test_chunks_do_not_depend_on_n(self, monkeypatch):
        seen = {}
        real = sim._run_chunk

        def spy(gen, nb, N, *rest):
            seen.setdefault(N, []).append(nb)
            return real(gen, nb, N, *rest)

        monkeypatch.setattr(sim, "_run_chunk", spy)
        run_simulation(SimConfig(model="A", N_list=(5, 2000), J=20_000,
                                 methods=("oracle",), reps=120, seed=6))
        assert seen[5] == seen[2000] == [50, 50, 20]


class TestRunSimulation:
    def test_determinism(self):
        cfg = SimConfig(model="C", N_list=(50,), methods=("oracle", "storey"),
                        baselines=("hommel", "bh"), reps=300, seed=21)
        rows1 = run_simulation(cfg)
        rows2 = run_simulation(cfg)
        assert rows1 == rows2

    def test_multi_chunk_run_sums_its_chunks_in_order(self):
        # 30,000 reps at J=80 span three chunks, chunk ci drawing from child (N index, ci)
        cfg = SimConfig(model="B", N_list=(40,), methods=("oracle",), reps=30_000, seed=22)
        (row,) = run_simulation(cfg)
        methods = [parse_method("oracle")]
        q_tables = {"two_sided": sim._quantile_table(80, 0.1, 39, "two_sided")}
        B = _chunk_rows(30_000, 4 * 80)
        parts = [
            sim._run_chunk(Rng(22).child(0).child(ci).generator(), min(B, 30_000 - start), 40,
                           model_mu("B").values, methods, {}, q_tables, ["two_sided"], (), 0.1)
            for ci, start in enumerate(range(0, 30_000, B))
        ]
        assert len(parts) == 3
        cov, fd, td = (sum(p[("oracle", "two_sided")][i] for p in parts) for i in range(3))
        assert (row.cov, row.fd, row.td) == (100.0 * cov / 30_000, fd / 30_000, td / 30_000)

    def test_row_shape_and_absences(self):
        cfg = SimConfig(model="A", N_list=(30, 60), methods=("oracle",),
                        baselines=("hommel",), reps=50, seed=1)
        rows = run_simulation(cfg)
        assert len(rows) == 4  # (1 method + 1 baseline) x 2 sample sizes
        for r in rows:
            assert r.td is None  # no non-null locations in model A
            if r.method == "hommel":
                assert r.cov is None
            else:
                assert r.cov is not None

    def test_model_d_baseline_has_no_false_detection_column(self):
        cfg = SimConfig(model="D", N_list=(30,), methods=("oracle",),
                        baselines=("bh",), reps=30, seed=2)
        rows = run_simulation(cfg)
        bh_row = [r for r in rows if r.method == "bh"][0]
        assert bh_row.fd is None  # every location is non-null
        assert bh_row.td is not None
        oracle_row = [r for r in rows if r.method == "oracle"][0]
        assert oracle_row.fd is not None  # directional errors still count

    def test_both_conventions_reported(self):
        cfg = SimConfig(model="A", N_list=(40,), methods=("oracle",),
                        reps=100, seed=3, sided="both")
        rows = run_simulation(cfg)
        names = {r.method for r in rows}
        assert names == {"oracle[two_sided]", "oracle[one_sided]"}
        two = [r for r in rows if "two_sided" in r.method][0]
        one = [r for r in rows if "one_sided" in r.method][0]
        assert one.cov < two.cov  # one-sided widening is too small

    def test_custom_mu_vector(self):
        cfg = SimConfig(model="A", N_list=(40,), methods=("oracle",),
                        reps=50, seed=4, mu=np.array([0.0, 1.0, -1.0]))
        rows = run_simulation(cfg)
        assert rows[0].td is not None

    def test_storey_power_beats_hommel_at_moderate_n(self):
        cfg = SimConfig(model="B", N_list=(200,), methods=("storey",),
                        baselines=("hommel",), reps=1500, seed=17)
        rows = {r.method: r for r in run_simulation(cfg)}
        assert rows["storey"].td >= rows["hommel"].td
        assert rows["storey"].td == pytest.approx(42.6, abs=1.5)
        assert rows["hommel"].td == pytest.approx(39.5, abs=1.5)

    def test_bh_pays_in_false_detections_at_large_n(self):
        cfg = SimConfig(model="B", N_list=(1000,), methods=(),
                        baselines=("hommel", "bh"), reps=1500, seed=18)
        rows = {r.method: r for r in run_simulation(cfg)}
        assert rows["bh"].fd > rows["hommel"].fd
        assert rows["bh"].fd == pytest.approx(1.6, abs=0.3)
        assert rows["hommel"].fd == pytest.approx(0.1, abs=0.07)

    def test_csv_writers(self, tmp_path):
        cfg = SimConfig(model="C", N_list=(30,), methods=("oracle",),
                        baselines=("bh",), reps=40, seed=5)
        rows = run_simulation(cfg)
        write_sim_table(rows, tmp_path / "table.csv")
        write_plot_data(rows, tmp_path / "plot.csv")
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[0] == "method,N,cov,fd,td"
        assert len(table) == 3
        plot = (tmp_path / "plot.csv").read_text().splitlines()
        assert plot[0] == "method,N,metric,value"


def random_sandwich_instance(rng, J=6):
    dom = Domain(J)
    mu = Field(dom, rng.normal(size=J))
    n_lo = int(rng.integers(0, 3))
    n_hi = int(rng.integers(0 if n_lo else 1, 3))
    lower = tuple(
        Field(dom, np.round(mu.values + rng.normal(size=J, scale=0.5), 1))
        for _ in range(n_lo)
    )
    upper = tuple(
        Field(dom, np.round(mu.values + rng.normal(size=J, scale=0.5), 1))
        for _ in range(n_hi)
    )
    sigma = Field(dom, rng.uniform(0.5, 2.0, J))
    return SandwichInstance(
        mu=mu,
        lower_fam=lower,
        upper_fam=upper,
        sigma=sigma,
        tau=float(rng.uniform(0.05, 0.5)),
        q=float(rng.uniform(0.2, 2.5)),
        eta=float(rng.uniform(0.0, 0.3)),
    )


class TestSandwichCheck:
    def test_huge_q_sends_everything_to_one(self):
        dom = Domain(4)
        inst = SandwichInstance(
            mu=Field(dom, [0.0, 1.0, -1.0, 0.5]),
            lower_fam=(Field.constant(dom, 0.0),),
            upper_fam=(Field.constant(dom, 0.0),),
            sigma=Field.constant(dom, 1.0),
            tau=0.5,
            q=50.0,
            eta=0.1,
        )
        event, lower, upper = sandwich_check(inst, 2000, Rng(0))
        assert event == lower == upper == 1.0

    def test_target_on_threshold(self):
        dom = Domain(3)
        mu = Field.constant(dom, 0.7)
        inst = SandwichInstance(
            mu=mu,
            lower_fam=(Field.constant(dom, 0.7),),
            upper_fam=(Field.constant(dom, 0.7),),
            sigma=Field.constant(dom, 1.0),
            tau=0.3,
            q=1.5,
            eta=0.0,
        )
        event, lower, upper = sandwich_check(inst, 20_000, Rng(1))
        assert lower <= event <= upper
        # every point is a touch point, so the event is exactly the band event
        assert event == pytest.approx(upper, abs=1e-12)

    def test_random_instances_keep_ordering(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            inst = random_sandwich_instance(rng)
            event, lower, upper = sandwich_check(inst, 20_000, Rng(5))
            assert lower <= event <= upper
