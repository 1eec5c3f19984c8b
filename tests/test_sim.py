import re

import numpy as np
import pytest
from conftest import reference_run_simulation, reference_t_pvalues
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from scopesets.dist import Rng, quantile as dq, t_cdf
from scopesets.domain import Domain, Field
from scopesets.errors import ParameterError
from scopesets.hypotests import _bh_cut, _hommel_cut, bh_reject_mask, hommel_reject_mask
from scopesets import quantile, sim
from scopesets.quantile import _chunk_sizes
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
        for tok in ("bogus", "log_kappa()", "scb(1.5)", "log_kappa(inf)", "log_kappa(nan)"):
            with pytest.raises((ParameterError, ValueError)):
                parse_method(tok)

    @pytest.mark.parametrize("tok", ["log_kappa(x)", "scb(y)"])
    def test_non_numeric_argument_raises_parameter_error_naming_the_token(self, tok):
        with pytest.raises(ParameterError, match=re.escape(tok)):
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

    @pytest.mark.parametrize("N", [2, 5, 30, 200])
    def test_in_place_draw_matches_the_single_expression_bit_for_bit(self, N):
        mu = np.linspace(-0.5, 0.5, 41)
        t = _draw_tstats(Rng(35).generator(), 300, N, mu)
        gen = Rng(35).generator()
        z = gen.standard_normal((300, mu.size))
        chi2 = gen.chisquare(N - 1, (300, mu.size))
        ref = (np.sqrt(N) * mu + z) / np.sqrt(chi2 / (N - 1))
        np.testing.assert_array_equal(t.view(np.uint64), ref.view(np.uint64))

    def test_columns_keep_their_own_mean(self):
        mu = np.array([-0.5, 0.0, 0.5])
        t = _draw_tstats(Rng(34).generator(), 4000, 100, mu)
        assert t.shape == (4000, 3)
        np.testing.assert_allclose(t.mean(axis=0), 10 * mu, atol=0.1)

    @pytest.mark.parametrize("J", [1, 3, 80, 1000, 12_345, 10**6, 3 * 10**6])
    def test_chunk_bounds_values_per_array(self, J):
        nb = next(_chunk_sizes(10**9, 4 * J))  # lazy: a billion one-row chunks are not listed
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


class TestTPvalues:
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.6, 1 - 1e-5, 1 - 1e-8])
    @pytest.mark.parametrize("df", [1, 4, 29, 499, 2999])
    def test_matches_the_full_matrix(self, df, alpha):
        J = 80
        # |t| at p = alpha, alpha/(2J) and 0.5, each also moved by a relative 1e-6 in p
        # and in t, their float neighbours, and +-inf
        pads = (1 - 1e-6, 1, 1 + 1e-6)
        levels = [1 - p * f / 2 for p in (alpha, alpha / (2 * J), 0.5) for f in pads]
        edges = np.array([dq("t", v, df=df) * f for v in levels for f in pads])
        edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                                [np.inf]])
        rng = np.random.default_rng(df)
        tmat = rng.standard_t(df, size=(300, J)) * rng.uniform(0.5, 3.0, size=(300, 1))
        pick = rng.uniform(size=tmat.shape) < 0.3
        tmat[pick] = rng.choice(edges, size=pick.sum()) * rng.choice([-1, 1], size=pick.sum())
        full = 2.0 * t_cdf(-np.abs(tmat), df)
        pv, p_half = sim._t_pvalues(tmat, df, alpha)
        np.testing.assert_array_equal(p_half, full >= 0.5)
        for rule in (hommel_reject_mask, bh_reject_mask):
            np.testing.assert_array_equal(rule(pv, alpha), rule(full, alpha))

    def test_nan_still_reaches_the_pvalue_check(self):
        pv, _ = sim._t_pvalues(np.array([[np.nan, 0.5, 9.0]]), 29, 0.1)
        assert np.isnan(pv[0, 0])
        for rule in (hommel_reject_mask, bh_reject_mask):
            with pytest.raises(ParameterError):
                rule(pv, 0.1)

    def test_t_cdf_reads_a_minority_of_values(self, monkeypatch):
        # model B at N = 500: most |t| sit far from every cut point
        seen = []

        def counting_t_cdf(x, df):
            seen.append(np.size(x))
            return t_cdf(x, df)

        monkeypatch.setattr(sim, "t_cdf", counting_t_cdf)
        run_simulation(SimConfig(model="B", N_list=(500,), methods=("storey",),
                                 baselines=("hommel", "bh"), reps=500, seed=7))
        assert seen and sum(seen) <= 500 * 80 / 4

    @pytest.mark.parametrize("N", [30, 100])
    def test_t_cdf_reads_one_percent_where_the_cut_table_runs(self, monkeypatch, N):
        # model B at N = 30 and 100 leaves 30% and 46% of |t| between the outer cuts
        seen = []

        def counting_t_cdf(x, df):
            seen.append(np.size(x))
            return t_cdf(x, df)

        monkeypatch.setattr(sim, "t_cdf", counting_t_cdf)
        run_simulation(SimConfig(model="B", N_list=(N,), methods=("storey",),
                                 baselines=("hommel", "bh"), reps=500, seed=7))
        assert seen and sum(seen) <= 500 * 80 / 100


def _full_matrix_pvalues(tmat, df, alpha, cuts=None):
    pv = 2.0 * t_cdf(-np.abs(tmat), df)
    return pv, pv >= 0.5


def _count_table_calls(mp, built):
    """Patch ``sim._step_up_cuts`` so that each call appends its (df, alpha, J) key to ``built``."""
    real = sim._step_up_cuts
    mp.setattr(sim, "_step_up_cuts", lambda *key: built.append(key) or real(*key))


def _cut_straddling_tmat(J, df, alpha, seed):
    """A (J + 1, J) t matrix with most entries on, an ulp beside or a relative 1e-15 .. 1e-3
    away from a step-up cut, and J(J+1)/2 entries right on one, so the cut table runs."""
    rng = np.random.default_rng(seed)
    m = rng.integers(1, J + 1, size=100)
    tau = np.append(rng.integers(1, m + 1) * alpha / m, alpha)
    cut = np.array([dq("t", 1 - x / 2, df=df) for x in tau])
    # each cut, one ulp either side, and moved by a relative 1e-15 .. 1e-3 either way
    steps = np.geomspace(1e-15, 1e-3, 13)
    moves = np.concatenate([[0.0], steps, -steps])
    at = np.concatenate([cut, np.nextafter(cut, 0), np.nextafter(cut, np.inf),
                         (cut[:, None] * (1 + moves)).ravel()])
    B = J + 1
    tmat = rng.standard_t(df, size=(B, J)) * rng.uniform(0.5, 3.0, size=(B, 1))
    pick = rng.uniform(size=tmat.shape) < 0.8
    tmat[pick] = rng.choice(at, size=pick.sum()) * rng.choice([-1, 1], size=pick.sum())
    # J(J+1)/2 values right on a cut, all between the outer cuts, call for the table
    on = rng.choice(tmat.size, size=J * (J + 1) // 2, replace=False)
    tmat.flat[on] = rng.choice(cut, size=on.size) * rng.choice([-1, 1], size=on.size)
    return tmat


def cut_straddling(test):
    """Run ``test`` over the (J, df, alpha, seed) inputs of ``_cut_straddling_tmat``."""
    # near p = 1 the cuts sit near t = 0, where a window relative to |t| alone is too thin
    test = example(J=55, df=1, alpha=1 - 1e-12, seed=0)(test)
    test = given(J=st.integers(1, 120), df=st.sampled_from([1, 4, 29, 499]),
                 alpha=st.sampled_from([0.05, 0.1, 0.3, 0.6, 1 - 1e-5, 1 - 1e-12]),
                 seed=st.integers(0, 2**32 - 1))(test)
    return settings(max_examples=60, deadline=None)(test)


class TestStepUpCuts:
    @cut_straddling
    def test_masks_match_the_full_matrix_on_and_beside_the_cuts(self, J, df, alpha, seed):
        tmat = _cut_straddling_tmat(J, df, alpha, seed)
        built = []
        with pytest.MonkeyPatch.context() as mp:
            _count_table_calls(mp, built)
            pv, p_half = sim._t_pvalues(tmat, df, alpha)
        full, full_half = _full_matrix_pvalues(tmat, df, alpha)
        np.testing.assert_array_equal(p_half, full_half)
        for rule in (hommel_reject_mask, bh_reject_mask):
            np.testing.assert_array_equal(rule(pv, alpha), rule(full, alpha))
        # the simulation reads both rules' cuts off one sort of the rows
        ps = np.sort(pv, axis=1)
        for cut, rule in ((_hommel_cut, hommel_reject_mask), (_bh_cut, bh_reject_mask)):
            np.testing.assert_array_equal(pv <= cut(ps, alpha)[:, None], rule(full, alpha))
        assert built  # the table decided the values far from every cut

    @cut_straddling
    def test_pvalues_match_the_unsorted_search_bit_for_bit(self, J, df, alpha, seed):
        tmat = _cut_straddling_tmat(J, df, alpha, seed)
        tmat.flat[::7] = np.nan  # NaN sorts last and keeps the CDF's NaN
        pv, p_half = sim._t_pvalues(tmat, df, alpha)
        ref, ref_half = reference_t_pvalues(tmat, df, alpha)
        np.testing.assert_array_equal(pv.view(np.uint64), ref.view(np.uint64))
        np.testing.assert_array_equal(p_half, ref_half)

    @cut_straddling
    def test_pvalues_do_not_depend_on_the_memory_layout(self, J, df, alpha, seed):
        tmat = _cut_straddling_tmat(J, df, alpha, seed)
        tmat.flat[::5] = np.nan
        ref, ref_half = reference_t_pvalues(tmat, df, alpha)
        wide = np.zeros((2 * tmat.shape[0], 3 * J))
        wide[::2, ::3] = tmat
        for layout in (np.asfortranarray(tmat), np.ascontiguousarray(tmat.T).T, wide[::2, ::3]):
            pv, p_half = sim._t_pvalues(layout, df, alpha)
            np.testing.assert_array_equal(pv.view(np.uint64), ref.view(np.uint64))
            np.testing.assert_array_equal(p_half, ref_half)

    def test_nan_still_reaches_the_pvalue_check_past_the_table(self, monkeypatch):
        tmat = np.random.default_rng(5).standard_t(4, size=(40, 10)) * 3.0
        tmat[7, 3] = np.nan
        built = []
        _count_table_calls(monkeypatch, built)
        pv, _ = sim._t_pvalues(tmat, 4, 0.3)
        assert built
        np.testing.assert_array_equal(np.isnan(pv), np.isnan(tmat))

    def test_gaps_are_ordered_and_keep_their_thresholds(self):
        cut, gap_p = sim._step_up_cuts(29, 0.1, 80)
        k, m = np.triu_indices(80)
        tau = np.unique((k + 1) * 0.1 / (m + 1))
        assert gap_p.size == cut.size + 1 == tau.size + 1
        assert gap_p[0] == 1.0 and gap_p[-1] == 0.0
        # gap i sits between the thresholds of cuts i - 1 and i, strictly unless they are ulps apart
        upper, lower, mid = tau[::-1][:-1], tau[::-1][1:], gap_p[1:-1]
        assert np.all((mid <= upper) & (mid >= lower))
        wide = upper - lower > 4 * np.spacing(upper)
        assert np.all((mid < upper) & (mid > lower) | ~wide) and wide.mean() > 0.9
        # rounding may reorder the cuts of thresholds an ulp apart, by no more than that
        assert np.all(np.diff(cut) >= -1e-14 * cut[1:])


class TestRunSimulation:
    def test_tables_match_the_full_pvalue_matrix(self, monkeypatch):
        configs = [SimConfig(model=model, N_list=(5, 30, 100, 500), alpha=alpha,
                             methods=("oracle", "storey"), baselines=("hommel", "bh"),
                             reps=200, seed=31)
                   for model in "ABCD" for alpha in (0.05, 0.1, 0.3)]
        built, cdf_sizes = [], []
        real_cuts, real_cdf = sim._step_up_cuts, sim.t_cdf
        monkeypatch.setattr(sim, "_step_up_cuts",
                            lambda df, alpha, J: built.append(df) or real_cuts(df, alpha, J))
        monkeypatch.setattr(sim, "t_cdf",
                            lambda x, df: cdf_sizes.append(np.size(x)) or real_cdf(x, df))
        rows = [run_simulation(cfg) for cfg in configs]
        monkeypatch.setattr(sim, "_t_pvalues", _full_matrix_pvalues)
        assert rows == [run_simulation(cfg) for cfg in configs]
        # the table decided some configurations, the t CDF alone the others
        assert 0 < len(built) < len(configs) * 4
        assert sum(cdf_sizes) > 0

    def test_cut_table_is_built_once_per_n(self, monkeypatch):
        built = []
        _count_table_calls(monkeypatch, built)
        # J = 300: 7,000 reps run as chunks of 3,333, 3,333 and 334 rows
        run_simulation(SimConfig(model="A", J=300, N_list=(5, 30), alpha=0.3, methods=(),
                                 baselines=("bh",), reps=7000, seed=8))
        assert built == [(4, 0.3, 300), (29, 0.3, 300)]

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
        q_table = np.array([quantile._iid_exact(0, m, 0.1, 39, "upper").q for m in range(81)])
        rules = [("oracle", None, q_table)]
        parts = [
            sim._run_chunk(Rng(22).child(0).child(ci).generator(), nb, 40,
                           model_mu("B").values, rules, (), 0.1, None)
            for ci, nb in enumerate(_chunk_sizes(30_000, 4 * 80))
        ]
        assert len(parts) == 3 and all(p.shape == (1, 3) for p in parts)
        cov, fd, td = (parts[0] + parts[1] + parts[2])[0]
        assert (row.cov, row.fd, row.td) == (100.0 * cov / 30_000, fd / 30_000, td / 30_000)

    def test_tables_match_the_earlier_loop_byte_for_byte(self, tmp_path):
        methods = ("oracle", "storey", "log_kappa(3)", "scb(0.9)")
        configs = [SimConfig(model=model, N_list=(5, 30), alpha=alpha, methods=methods,
                             baselines=("hommel", "bh"), reps=200, seed=41, sided=sided)
                   for model in "ABCD" for alpha, sided in ((0.1, "both"), (0.3, "one_sided"))]
        # J = 3000: 700 reps run as chunks of 333, 333 and 34 rows
        configs += [SimConfig(model="B", J=3000, N_list=(20,), methods=methods,
                              baselines=("bh", "hommel"), reps=700, seed=42, sided="both"),
                    SimConfig(model="A", N_list=(7,), methods=("log_kappa(1.5)", "oracle"),
                              baselines=("bh",), reps=300, seed=43,
                              mu=np.array([0.0, 1.0, -1.0, 0.0, 0.3]))]
        for cfg in configs:
            write_sim_table(run_simulation(cfg), tmp_path / "new.csv")
            write_sim_table(reference_run_simulation(cfg), tmp_path / "ref.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("methods,baselines,name", [
        (("oracle",), ("bh", "bh", "hommel"), "'bh'"),
        (("log_kappa(3)", "log_kappa(3.0)"), (), "'log(N)/3'"),
    ])
    def test_a_repeated_method_or_baseline_is_named(self, methods, baselines, name):
        cfg = SimConfig(model="A", N_list=(30,), methods=methods, baselines=baselines, reps=10)
        with pytest.raises(ParameterError, match=f"duplicate .*{re.escape(name)}"):
            run_simulation(cfg)

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
