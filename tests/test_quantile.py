import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy import optimize, special
from conftest import normal_cdf, peak_traced_mb

from scopesets import quantile
from scopesets.dist import Rng, quantile as dq, t_cdf
from scopesets.domain import IndexSet
from scopesets.errors import DegenerateDataError, ParameterError
from scopesets.excursion import max_sup
from scopesets.preimage import PreimageSets
from scopesets.quantile import (
    column_summary,
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

    @pytest.mark.parametrize("df", [1, 4, 29, 99, 499])
    def test_table_is_the_scalar_solver_bit_for_bit(self, df):
        for alpha in (0.05, 0.1, 0.3, 0.9):
            for sided in ("one_sided", "two_sided"):
                got = quantile._iid_table(120, alpha, df, sided)
                want = np.array([iid_quantile(m, alpha, df, sided).q for m in range(121)])
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_table_keeps_the_scalar_checks(self):
        for args in ((5, 0.0, 10, "two_sided"), (5, 0.1, 0, "two_sided"),
                     (5, 0.1, 10, "both")):
            with pytest.raises(ParameterError):
                quantile._iid_table(*args)

    @pytest.mark.parametrize("df", [1, 19, 99, np.inf])
    def test_levels_that_round_to_1_read_the_upper_tail(self, df):
        # at alpha = 1e-15 the per-point level (1 - alpha)^(1/m) rounds to 1 from m = 19
        # (one-sided) and m = 7 (two-sided) on: the table then crosses the switch
        J = 300
        for alpha in (1e-17, 1e-15, 2.3e-16, 1e-12):
            for sided, two in (("one_sided", False), ("two_sided", True)):
                table = quantile._iid_table(J, alpha, df, sided)
                counts = [(m, 0) if not two else (0, m) for m in range(J + 1)]
                scalar = np.array([quantile._iid_exact(*c, alpha, df, "upper").q for c in counts])
                assert table.view(np.int64).tolist() == scalar.view(np.int64).tolist()
                assert np.all(np.isfinite(table)) and np.all(np.diff(table) >= 0)
                # the tail route keeps its digits where the level route has none left
                base = np.array([(1.0 - alpha) ** (1.0 / m) for m in range(1, J + 1)])
                far = ((1.0 + base) / 2.0 if two else base) == 1.0
                m = np.arange(1, J + 1)[far]
                tail = -np.expm1(np.log1p(-alpha) / m) / (2.0 if two else 1.0)
                np.testing.assert_allclose(t_cdf(-table[1:][far], df), tail, rtol=1e-9)
        base = np.array([(1.0 - 1e-15) ** (1.0 / m) for m in range(1, J + 1)])
        for level in (base, (1.0 + base) / 2.0):
            assert 0 < np.count_nonzero(level == 1.0) < J  # both sides of the switch are covered


    @pytest.mark.parametrize("df", [19, np.inf])
    @pytest.mark.parametrize("alpha", [1e-12, 1e-10, 0.05])
    def test_every_table_entry_keeps_its_tail(self, alpha, df):
        # a level (1 - alpha)^(1/m) near 1 would keep only the digits of alpha/m above
        # the rounding of 1; the tail keeps them all, so the q are distinct and exact
        J = 300
        for sided, halve in (("one_sided", 1.0), ("two_sided", 2.0)):
            table = quantile._iid_table(J, alpha, df, sided)
            tail = -np.expm1(np.log1p(-alpha) / np.arange(1, J + 1)) / halve
            np.testing.assert_allclose(t_cdf(-table[1:], df), tail, rtol=1e-12)
            assert np.all(np.diff(table) > 0)


class TestStorey:
    def test_no_large_pvalues(self):
        assert storey_m0([0.01, 0.2, 0.49]) == 0

    def test_cap_at_total(self):
        assert storey_m0([0.6, 0.4, 0.7, 0.55]) == 4  # raw estimate 6, capped

    def test_storey_count_is_storey_m0_row_by_row(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(size=(300, 9)) ** rng.uniform(0.2, 3.0, (300, 1))
        p[::7, ::2] = 0.5  # ties at the cut count as null
        assert quantile._storey_count(p >= 0.5).tolist() == [storey_m0(row) for row in p]
        assert quantile._storey_count(np.zeros((2, 0), dtype=bool)).tolist() == [0, 0]

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
        est = mc_oracle_quantile(np.eye(1), IndexSet(), IndexSet(), 0.1, 1000, Rng(0))
        assert est.q == 0.0 and est.empty_sets

    def test_single_point_absolute_value(self):
        s = IndexSet([0])
        est = mc_oracle_quantile(np.eye(1), s, s, 0.1, 200_000, Rng(42))
        assert est.q == pytest.approx(1.6449, abs=0.02)

    def test_matches_exact_product_rule(self):
        s = IndexSet(range(6))
        est = mc_oracle_quantile(np.eye(6), s, s, 0.1, 200_000, Rng(7))
        ref = iid_quantile(6, 0.1, df=np.inf, sided="two_sided")
        assert est.q == pytest.approx(ref.q, abs=0.02)

    def test_determinism(self):
        s = IndexSet([0, 2])
        a = mc_oracle_quantile(np.eye(3), s, s, 0.1, 5000, Rng(3))
        b = mc_oracle_quantile(np.eye(3), s, s, 0.1, 5000, Rng(3))
        assert a.q == b.q

    def test_perfect_correlation_collapses_to_one_point(self):
        corr = np.ones((2, 2))
        s = IndexSet([0, 1])
        est = mc_oracle_quantile(corr, s, s, 0.1, 200_000, Rng(11))
        one = IndexSet([0])
        ref = mc_oracle_quantile(np.eye(1), one, one, 0.1, 200_000, Rng(11))
        assert est.q == pytest.approx(ref.q, abs=0.03)

    def test_t_noise_heavier_than_normal(self):
        s = IndexSet(range(4))
        qt = iid_exact_quantile(s, s, 0.1, df=3).q
        qn = iid_exact_quantile(s, s, 0.1).q
        assert qt > qn

    def test_lower_tail(self):
        s = IndexSet([0])
        est = mc_oracle_quantile(np.eye(1), s, s, 0.1, 200_000, Rng(13), tail="lower")
        # alpha-quantile of |G|: P[|G| <= q] = 0.1
        assert est.q == pytest.approx(dq("normal", 0.55), abs=0.02)

    def test_reps_floor(self):
        with pytest.raises(ParameterError):
            mc_oracle_quantile(np.eye(1), IndexSet([0]), IndexSet(), 0.1, 500, Rng(0))

    def test_correlation_factored_once_across_chunks(self, monkeypatch):
        # neg = pos = 101 points: 202 signed columns, chunks of 19,801 draws, so 50,000 reps take 3
        calls = []

        def counting(name, real):
            def wrapped(a):
                calls.append((name, a.shape))
                return real(a)

            return wrapped

        for name in ("cholesky", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        i = np.arange(101)
        corr = 0.5 ** np.abs(i[:, None] - i[None, :])
        s = IndexSet(range(101))
        mc_oracle_quantile(corr, s, s, 0.1, 50_000, Rng(4))
        assert calls == [("cholesky", (101, 101))]
        calls.clear()
        # singular: Cholesky fails, the eigenvalue root takes over
        s = IndexSet([0, 1])
        mc_oracle_quantile(np.ones((2, 2)), s, s, 0.1, 50_000, Rng(4))
        assert calls == [("cholesky", (2, 2)), ("eigh", (2, 2))]

    def test_indefinite_correlation_rejected(self):
        s = IndexSet([0, 1])
        with pytest.raises(ParameterError, match="positive semidefinite"):
            mc_oracle_quantile(np.array([[1.0, 2.0], [2.0, 1.0]]), s, s, 0.1, 1000, Rng(0))

    def test_ar1_matches_eigenvalue_root_reference(self):
        i = np.arange(40)
        corr = 0.8 ** np.abs(i[:, None] - i[None, :])
        neg, pos = IndexSet(range(25)), IndexSet(range(15, 40))
        est = mc_oracle_quantile(corr, neg, pos, 0.1, 200_000, Rng(21))
        ref = _eigh_root_quantile_reference(corr, neg.members, pos.members, 0.1, 200_000, 22)
        assert est.q == pytest.approx(ref, abs=0.02)


def _ar1(J, rho):
    i = np.arange(J)
    return rho ** np.abs(i[:, None] - i[None, :])


def _signed_gemm_reference(root, union, neg, pos, alpha, reps, rng, tail="upper"):
    """The solver as one matmul per chunk with [-root[:, neg] | root[:, pos]] and a row max."""
    signed = np.concatenate((-root[:, np.searchsorted(union, neg)],
                             root[:, np.searchsorted(union, pos)]), axis=1)
    rows = max(1, min(reps, 4_000_000 // max(signed.shape)))
    chunks = [rng.child(i).generator().standard_normal((min(rows, reps - start), len(signed)))
              @ signed for i, start in enumerate(range(0, reps, rows))]
    stats = np.sort(np.concatenate([c.max(axis=1) for c in chunks]))
    if tail == "upper":
        return stats[min(reps, int(np.ceil((1 - alpha) * reps))) - 1]
    return stats[max(1, int(np.floor(alpha * reps))) - 1]


def _oracle_root(corr, union):
    block = corr[np.ix_(union, union)]
    try:
        return np.linalg.cholesky(block).T
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(block)
        return (v * np.sqrt(np.clip(w, 0.0, None))).T


def _bootstrap_root(data, union):
    y = data[:, union]
    return (y - y.mean(axis=0)) / (y.std(axis=0, ddof=1) * np.sqrt(len(data)))


_PERM = np.random.default_rng(8).permutation(60)
_SET_CASES = {
    "disjoint": (_PERM[:25], _PERM[25:55]),
    "full_overlap": (_PERM[:40], _PERM[:40]),
    "partial_overlap": (_PERM[:35], _PERM[20:]),
    "neg_empty": ([], _PERM[10:50]),
    "pos_empty": (_PERM[5:45], []),
}


class TestSignFoldedSolverMatchesSignedMatmul:
    """Both Monte-Carlo routes against the signed-column matmul on the same seeded chunks."""

    @staticmethod
    def _check(est, ref, union):
        assert abs(est.q - ref) <= 1e-12
        assert est.support_size == len(union) and not est.empty_sets

    @pytest.mark.parametrize("tail", ["upper", "lower"])
    @pytest.mark.parametrize("case", sorted(_SET_CASES))
    def test_oracle(self, case, tail):
        neg, pos = (np.sort(np.asarray(s, dtype=int)) for s in _SET_CASES[case])
        union, corr = np.union1d(neg, pos), _ar1(60, 0.9)
        est = mc_oracle_quantile(corr, IndexSet(neg), IndexSet(pos), 0.1, 5000, Rng(17), tail)
        assert est.method == "mc_oracle"
        self._check(est, _signed_gemm_reference(_oracle_root(corr, union), union, neg, pos, 0.1,
                                                5000, Rng(17), tail), union)

    @pytest.mark.parametrize("tail", ["upper", "lower"])
    @pytest.mark.parametrize("case", sorted(_SET_CASES))
    def test_bootstrap(self, case, tail):
        neg, pos = (np.sort(np.asarray(s, dtype=int)) for s in _SET_CASES[case])
        union = np.union1d(neg, pos)
        data = np.random.default_rng(9).normal(size=(30, 60))
        sets = PreimageSets(IndexSet(neg), IndexSet(pos), IndexSet(union))
        est = multiplier_bootstrap_quantile(data, sets, 0.1, 3000, Rng(18), tail)
        assert est.method == "multiplier_bootstrap"
        self._check(est, _signed_gemm_reference(_bootstrap_root(data, union), union, neg, pos,
                                                0.1, 3000, Rng(18), tail), union)

    @pytest.mark.parametrize("corr, members", [
        pytest.param(_ar1(101, 0.5), np.arange(101), id="three_chunks"),
        pytest.param(np.ones((2, 2)), np.arange(2), id="eigenvalue_fallback"),
    ])
    def test_oracle_over_chunks_and_on_the_eigenvalue_root(self, corr, members):
        s = IndexSet(members)
        est = mc_oracle_quantile(corr, s, s, 0.1, 50_000, Rng(4))
        self._check(est, _signed_gemm_reference(_oracle_root(corr, members), members, members,
                                                members, 0.1, 50_000, Rng(4)), members)

    def test_bootstrap_over_several_chunks(self):
        # neg = pos = 2,000 columns: 4,000 signed columns, chunks of 1,000 replicates
        data = np.random.default_rng(10).normal(size=(30, 2000))
        s = IndexSet.full(2000)
        est = multiplier_bootstrap_quantile(data, PreimageSets(s, s, s), 0.1, 3000, Rng(19))
        self._check(est, _signed_gemm_reference(_bootstrap_root(data, s.members), s.members,
                                                s.members, s.members, 0.1, 3000, Rng(19)),
                    s.members)


def test_oracle_memory_at_the_benchmark_shape():
    # J = 2,000 AR(1) matrix, 667 + 667 disjoint points, 5,000 draws: chunks of 2,998 rows
    corr = _ar1(2000, 0.9)
    chosen = np.random.default_rng(0).permutation(2000)[:1334]
    neg, pos = IndexSet(chosen[:667]), IndexSet(chosen[667:])
    with peak_traced_mb() as peak:
        mc_oracle_quantile(corr, neg, pos, 0.1, 5000, Rng(0))
    assert peak.mb < 64


def test_bootstrap_memory_at_the_benchmark_shape():
    # N = 100, 667 + 667 disjoint points of J = 2,000, R = 5,000: chunks of 2,998 replicates,
    # run as blocks of 1,499 on two workers; the serial solver peaked at 35.5 MB here
    data = np.random.default_rng(1).normal(size=(100, 2000))
    chosen = np.random.default_rng(0).permutation(2000)[:1334]
    neg, pos = IndexSet(chosen[:667]), IndexSet(chosen[667:])
    with peak_traced_mb() as peak:
        multiplier_bootstrap_quantile(data, PreimageSets(neg, pos, neg.union(pos)), 0.1, 5000,
                                      Rng(0))
    assert peak.mb < 40


class TestChunkPool:
    """The two Monte-Carlo routes run their chunks on a per-call pool of up to two workers."""

    @staticmethod
    def _oracle_three_chunks():
        # neg = pos = 101 points: 202 signed columns, chunks of 19,801 draws, so 50,000 take 3
        s = IndexSet(range(101))
        ref = _signed_gemm_reference(_oracle_root(_ar1(101, 0.5), s.members), s.members,
                                     s.members, s.members, 0.1, 50_000, Rng(4))
        return lambda: mc_oracle_quantile(_ar1(101, 0.5), s, s, 0.1, 50_000, Rng(4)), ref

    @staticmethod
    def _bootstrap_three_chunks():
        # neg = pos = 2,000 columns: 4,000 signed columns, chunks of 1,000 replicates
        data = np.random.default_rng(10).normal(size=(30, 2000))
        s = IndexSet.full(2000)
        ref = _signed_gemm_reference(_bootstrap_root(data, s.members), s.members, s.members,
                                     s.members, 0.1, 3000, Rng(19))
        return lambda: multiplier_bootstrap_quantile(data, PreimageSets(s, s, s), 0.1, 3000,
                                                     Rng(19)), ref

    @staticmethod
    def _record_workers(monkeypatch):
        workers, real = [], quantile._map_chunks

        def spy(fn, reps, width, rng, n=1):
            workers.append(n)
            return real(fn, reps, width, rng, n)

        monkeypatch.setattr(quantile, "_map_chunks", spy)
        return workers

    @pytest.mark.parametrize("case", ["_oracle_three_chunks", "_bootstrap_three_chunks"])
    def test_worker_count_does_not_change_q(self, monkeypatch, case):
        solve, ref = getattr(self, case)()
        workers = self._record_workers(monkeypatch)
        qs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            qs.append(solve().q)
        assert workers == [1, 2]
        assert np.float64(qs[0]).view(np.int64) == np.float64(qs[1]).view(np.int64)
        assert abs(qs[0] - ref) <= 1e-12

    @pytest.mark.parametrize("count", [None, 1, 2])
    def test_cpu_count_stands_in_where_affinity_is_unavailable(self, monkeypatch, count):
        # os.sched_getaffinity exists on Linux only; elsewhere the worker rule reads
        # os.cpu_count(), which may be None
        solve, _ = self._oracle_three_chunks()
        q = solve().q
        workers = self._record_workers(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert np.float64(solve().q).view(np.int64) == np.float64(q).view(np.int64)
        assert workers == [min(2, count or 1)]

    def test_buffers_stay_with_their_worker_under_frequent_thread_switches(self, monkeypatch):
        # N = 5, 20,000 + 20,000 disjoint columns: 20 chunks of 100 replicates on two workers,
        # switching threads every microsecond; a buffer handed to both workers mixes their blocks
        data = np.random.default_rng(11).normal(size=(5, 40_000))
        sets = PreimageSets(IndexSet(range(20_000)), IndexSet(range(20_000, 40_000)),
                            IndexSet.full(40_000))
        solve = lambda: multiplier_bootstrap_quantile(data, sets, 0.1, 2000, Rng(12)).q
        _cpus(monkeypatch, 1)
        serial = solve()
        _cpus(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = [solve() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        bits = [np.float64(q).view(np.int64) for q in pooled]
        assert bits == [np.float64(serial).view(np.int64)] * 3

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_a_failing_chunk_raises_promptly_and_leaves_no_thread(self, monkeypatch, failing):
        solve, _ = self._oracle_three_chunks()
        _cpus(monkeypatch, 2)
        real = Rng.generator
        monkeypatch.setattr(Rng, "generator", lambda self: _FailingDraw()
                            if self.spawn_key == (failing,) else real(self))
        before, raised = threading.active_count(), []

        def call():
            try:
                solve()
            except FloatingPointError as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "the call hung on a failed chunk"
        assert len(raised) == 1
        assert threading.active_count() == before


def _eigh_root_quantile_reference(corr, neg_idx, pos_idx, alpha, reps, seed):
    """Upper (1 - alpha) quantile of max_sup over draws z @ (V sqrt(w)).T, corr = V diag(w) V.T."""
    w, v = np.linalg.eigh(corr)
    g = np.random.default_rng(seed).standard_normal((reps, len(corr))) @ (v * np.sqrt(w)).T
    stats = np.sort(max_sup(g, neg_idx, pos_idx))
    return stats[int(np.ceil((1 - alpha) * reps)) - 1]


class _DrawRecorder:
    """A generator stand-in that records every normal draw, a view of the buffer it fills."""

    def __init__(self, gen, draws):
        self.gen, self.draws = gen, draws

    def standard_normal(self, size=None, out=None):
        self.draws.append(out)
        return self.gen.standard_normal(size, out=out)


class _FailingDraw:
    """A generator stand-in whose draws raise, as a chunk that fails mid-call."""

    def standard_normal(self, size=None, out=None):
        raise FloatingPointError("chunk draw failed")


def _cpus(monkeypatch, n):
    """Make ``n`` CPUs usable as far as the solver's worker rule can tell."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _bootstrap(data, tail="upper"):
    s = IndexSet([0, 1])
    return multiplier_bootstrap_quantile(data, PreimageSets(s, s, s), 0.1, 200, Rng(0), tail=tail)


def _oracle(corr):
    return mc_oracle_quantile(corr, IndexSet([0, 1]), IndexSet([2]), 0.1, 1000, Rng(0))


def _with_cell(m, i, j, value):
    m = np.array(m, dtype=float)
    m[i, j] = value
    return m


_DATA = np.random.default_rng(6).normal(size=(30, 4))
_CORR = 0.5 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: _bootstrap(_DATA, tail="bogus"), id="bootstrap_unknown_tail"),
        pytest.param(lambda: _bootstrap(_with_cell(_DATA, 3, 1, np.nan)), id="bootstrap_nan_cell"),
        pytest.param(lambda: _bootstrap(_with_cell(_DATA, 3, 1, np.inf)), id="bootstrap_inf_cell"),
        pytest.param(lambda: _oracle(_with_cell(_CORR, 0, 2, np.nan)), id="oracle_nan_entry"),
        pytest.param(lambda: _oracle(_with_cell(_CORR, 0, 2, 0.9)), id="oracle_asymmetric"),
        pytest.param(lambda: _oracle(np.ones(4)), id="oracle_1d_matrix"),
        pytest.param(lambda: _oracle(np.eye(2)), id="oracle_matrix_smaller_than_touched_index"),
        # the iid solver checks its inputs before the nothing-to-calibrate shortcut
        pytest.param(lambda: iid_quantile(0, 0.1, df=5, sided="bogus"),
                     id="iid_unknown_sided_empty"),
        pytest.param(lambda: iid_quantile(-1, 0.1, df=5), id="iid_negative_count"),
        pytest.param(lambda: iid_exact_quantile(IndexSet(), IndexSet(), 0.1, tail="bogus"),
                     id="iid_exact_unknown_tail_empty"),
        pytest.param(lambda: iid_quantile(0, 0.1, df=-1), id="iid_negative_df_empty"),
        pytest.param(lambda: iid_exact_quantile(IndexSet(), IndexSet(), 0.1, df=np.nan),
                     id="iid_exact_nan_df_empty"),
    ],
)
def test_malformed_monte_carlo_input_raises_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("df", [np.inf, 4.0, 99.0])
@pytest.mark.parametrize("tail", ["upper", "lower"])
@pytest.mark.parametrize("n_one, n_both",
                         [(1, 0), (7, 0), (80, 0), (0, 1), (0, 7), (0, 80), (3, 1), (1, 40),
                          (25, 25)])
def test_count_keyed_solver_hits_its_product_cdf(n_one, n_both, tail, df):
    # one count zero takes the closed form, both non-zero the bracketed root
    alpha = 0.1
    est = quantile._iid_exact(n_one, n_both, alpha, df, tail)
    F = t_cdf(est.q, df)
    target = 1.0 - alpha if tail == "upper" else alpha
    assert abs(F ** n_one * (2.0 * F - 1.0) ** n_both - target) <= 1e-12
    assert est.support_size == n_one + n_both and not est.empty_sets


def _iid_exact_root_reference(n_one, n_both, alpha, df, tail):
    """q by brentq on the product CDF, as the mixed-count branch of ``_iid_exact`` once was."""
    target = 1.0 - alpha if tail == "upper" else alpha
    stat_cdf = lambda x: (max(0.0, 2.0 * quantile.t_cdf(x, df) - 1.0) ** n_both
                          * quantile.t_cdf(x, df) ** n_one)
    hi = 1.0
    while stat_cdf(hi) < target:
        hi *= 2.0
    return float(optimize.brentq(lambda x: stat_cdf(x) - target, -1.0, hi, xtol=1e-12))


@pytest.mark.parametrize("df", [4.0, 29.0, np.inf])
@pytest.mark.parametrize("tail", ["upper", "lower"])
def test_mixed_root_matches_the_bracketed_reference_without_a_t_cdf(monkeypatch, tail, df):
    # the tail-scale Newton solve reaches brentq's root on the product CDF, and reads no
    # t CDF on the way: only the one t quantile that maps sf to q
    grid = [((n_one, n_both), alpha) for n_one, n_both in
            [(1, 1), (3, 1), (1, 40), (6, 10), (25, 25), (200, 3)] for alpha in (0.05, 0.3)]
    reference = [_iid_exact_root_reference(*counts, alpha, df, tail) for counts, alpha in grid]
    calls = []
    monkeypatch.setattr(quantile, "t_cdf", lambda x, df: calls.append(x) or t_cdf(x, df))
    for ((n_one, n_both), alpha), expected in zip(grid, reference):
        q = quantile._iid_exact(n_one, n_both, alpha, df, tail).q
        assert q == pytest.approx(expected, rel=1e-10, abs=0.0)
    assert calls == []


@pytest.mark.parametrize("n_one, n_both, alpha, df, tail",
                         [(3, 5, alpha, 29.0, tail) for alpha in (1e-13, 1e-15)
                          for tail in ("upper", "lower")]
                         + [(2, 2, 1e-15, 1.0, "upper"), (1, 5000, 1e-8, 1.0, "upper")])
def test_mixed_law_holds_on_the_tail_scale_at_tiny_alpha(n_one, n_both, alpha, df, tail):
    # a root of the product CDF misses these: at (3, 5) and 1e-15 it gives q = 17.090 (level
    # 7.2e-16, root 16.880) and at df = 1 it fails to bracket; sf = 1 - F(q) keeps the digits
    q = quantile._iid_exact(n_one, n_both, alpha, df, tail).q
    assert math.isfinite(q) and q > 0.0
    sf = float(t_cdf(-q, df))
    log_target = math.log1p(-alpha) if tail == "upper" else math.log(alpha)
    law = n_one * math.log1p(-sf) + n_both * math.log1p(-2.0 * sf)
    assert law == pytest.approx(log_target, rel=1e-12, abs=0.0)


def _abs_t_cdf(q, df):
    """2F(q) - 1 with its relative digits: (2/pi) atan q at df = 1, erf(q/sqrt 2) at df = inf."""
    if df == 1.0:
        return 2.0 / math.pi * math.atan(q)
    if df == np.inf:
        return math.erf(q / math.sqrt(2.0))
    return float(special.betainc(0.5, df / 2.0, q * q / (df + q * q)))


@pytest.mark.parametrize("n_one, n_both, alpha, df", [
    (2, 2, 1e-15, 1.0), (2, 1, 1e-15, 1.0), (2, 1, 1e-15, 29.0), (2, 1, 1e-15, np.inf),
    (3, 5, 1e-13, 29.0)])
def test_lower_tail_law_holds_on_the_c_scale_at_tiny_alpha(n_one, n_both, alpha, df):
    # q sits near 0, where sf = 1 - F(q) near 1/2 fixed c = 2F(q) - 1 only to about 1e-16
    # absolute: these cases missed the law by 1.2e-9 to 8.0e-4 relative
    q = quantile._iid_exact(n_one, n_both, alpha, df, "lower").q
    c = _abs_t_cdf(q, df)
    assert ((1.0 + c) / 2.0) ** n_one * c ** n_both == pytest.approx(alpha, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_one, alpha, df", [
    (1, 1e-15, 4.0), (1, 1e-15, np.inf), (1, 1e-12, 29.0), (2, 1e-15, 4.0)])
def test_lower_tail_law_holds_with_every_point_one_sided(n_one, alpha, df):
    # F(q) = alpha^(1/n_one) is tiny: read off sf = 1 - F(q) near 1 it kept only its
    # absolute digits, and these cases missed the law by 1.1e-9 to 8.0e-4 relative
    q = quantile._iid_exact(n_one, 0, alpha, df, "lower").q
    F = special.ndtr(q) if df == np.inf else special.stdtr(df, q)
    assert F ** n_one == pytest.approx(alpha, rel=1e-12, abs=0.0)


def test_iid_quantile_is_the_closed_form_bit_for_bit():
    # q = -F^-1(sf) on the tail sf = 1 - 0.9^(1/m), halved when two-sided: the level
    # form F^-1(0.9^(1/m)) up to the rounding of a level near 1; the lower tail at
    # alpha = 0.1 <= 2^-m (m = 1) is the level form F^-1(0.1^(1/m)) itself
    for m in (1, 5, 80):
        for df in (np.inf, 39.0):
            sf = -math.expm1(math.log1p(-0.1) / m)
            one, two = (iid_quantile(m, 0.1, df, sided).q for sided in ("one_sided", "two_sided"))
            assert one == -dq("t", sf, df=df)
            assert two == -dq("t", sf / 2, df=df)
            base = 0.9 ** (1.0 / m)
            assert one == pytest.approx(dq("t", base, df=df), rel=1e-12)
            assert two == pytest.approx(dq("t", (1.0 + base) / 2.0, df=df), rel=1e-12)
            lower = quantile._iid_exact(m, 0, 0.1, df, "lower").q
            if m == 1:
                assert lower == dq("t", math.exp(math.log(0.1) / m), df=df)
            else:
                assert lower == -dq("t", -math.expm1(math.log(0.1) / m), df=df)


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

    def test_zero_columns_are_named_by_their_data_index(self):
        data = np.random.default_rng(0).normal(size=(30, 6))
        data[:, [2, 5]] = 1.0
        s = IndexSet([1, 2, 5])
        with pytest.raises(DegenerateDataError, match=r"^zero-variance column 2, 5$"):
            multiplier_bootstrap_quantile(data, PreimageSets(s, s, s), 0.1, 200, Rng(0))

    def test_converges_to_oracle_for_gaussian_data(self):
        rng = np.random.default_rng(100)
        data = rng.normal(size=(1000, 5))
        s = IndexSet(range(5))
        sets = PreimageSets(s, s, s)
        est = multiplier_bootstrap_quantile(data, sets, 0.1, 4000, Rng(2))
        ref = iid_quantile(5, 0.1, df=np.inf, sided="two_sided")
        assert est.q == pytest.approx(ref.q, abs=0.1)

    def test_chunk_arrays_bounded_when_union_exceeds_n(self, monkeypatch):
        # N = 3, |union| = 40,000: chunks of 100 replicates, so R = 250 takes 3 on two workers,
        # each streaming blocks of 50 through its own buffer pair
        chunks, draws, products = [], [], []
        real, real_matmul = quantile._map_chunks, np.matmul

        def spy(fn, *args):
            def recorded(gen, n):
                chunks.append(n)
                return fn(_DrawRecorder(gen, draws), n)
            return real(recorded, *args)

        def matmul(a, b, out=None):
            products.append(out)
            return real_matmul(a, b, out=out)

        monkeypatch.setattr(quantile, "_map_chunks", spy)
        monkeypatch.setattr(np, "matmul", matmul)
        _cpus(monkeypatch, 2)
        data = np.random.default_rng(3).normal(size=(3, 40_000))
        sets = PreimageSets(IndexSet(range(20_000)), IndexSet(range(20_000, 40_000)),
                            IndexSet.full(40_000))
        multiplier_bootstrap_quantile(data, sets, 0.1, 250, Rng(0))
        assert sorted(chunks) == [50, 100, 100]
        assert [d.shape for d in draws] == [(50, 3)] * 5
        assert [p.shape for p in products] == [(50, 40_000)] * 5
        # every draw and product fills a block of one of at most two buffers, one per worker
        # (one worker may take every chunk), so both workers hold at most 4e6 values together
        for blocks in (draws, products):
            buffers = {id(b.base): b.base for b in blocks}
            assert len(buffers) <= 2 and all(b.base is None for b in buffers.values())
            assert 2 * max(b.size for b in buffers.values()) <= 4_000_000


def test_column_summary_names_every_zero_column_by_the_callers_index():
    data = np.zeros((4, 4))
    data[:, 1] = [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(DegenerateDataError, match=r"^zero-variance column 0, 2, 3$"):
        column_summary(data)
    with pytest.raises(DegenerateDataError, match=r"^zero-variance column 10, 30, 40$"):
        column_summary(data, columns=np.array([10, 20, 30, 40]))
    mean, sd = column_summary(data[:, 1:2], columns=[20])
    assert mean.tolist() == [1.5] and sd.tolist() == [np.std([0.0, 1.0, 2.0, 3.0], ddof=1)]
