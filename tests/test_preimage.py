import numpy as np
import pytest
from conftest import peak_traced_mb, reference_touch_side
from hypothesis import example, given, strategies as st

from scopesets.dist import Rng, t_cdf
from scopesets.domain import Domain, Field, IndexSet, line_domain
from scopesets.errors import DomainMismatchError, ParameterError, ThresholdOrderError
from scopesets.preimage import (
    KPolicy,
    _partition_rows,
    _touch_masks,
    _touched,
    consistency_probe,
    oracle_preimage_sets,
    plugin_preimage_sets,
    resolve_k,
    scope_partition,
)
from scopesets.quantile import _iid_exact, iid_quantile
from scopesets.sim import model_mu


def fld(*values):
    return Field(Domain(len(values)), list(values))


class TestOraclePreimage:
    def test_exact_match_everywhere(self):
        mu = fld(1.0, -2.0, 0.5)
        for eta in (0.0, 0.3):
            sets = oracle_preimage_sets(mu, [mu], eta)
            assert sets.plus == sets.minus == sets.both == IndexSet.full(3)

    def test_zero_eta_split(self):
        mu = fld(-1.0, 0.0, 1.0)
        zero = Field.constant(mu.domain, 0.0)
        sets = oracle_preimage_sets(mu, [zero], 0.0)
        assert sets.plus == sets.minus == IndexSet([1])

    def test_thickened_split(self):
        mu = fld(-1.0, 0.0, 1.0)
        zero = Field.constant(mu.domain, 0.0)
        sets = oracle_preimage_sets(mu, [zero], 1.0)
        assert sets.plus == IndexSet([1, 2])
        assert sets.minus == IndexSet([0, 1])
        assert sets.both == IndexSet.full(3)

    def test_opposite_infinities_follow_the_sign(self):
        # an infinite tolerance admits every point, on the side of the difference's sign
        for target in (-np.inf, -5.0):
            mu = fld(target)
            c = Field(mu.domain, [np.inf])
            sets = oracle_preimage_sets(mu, [c], np.inf)
            assert sets.plus == IndexSet() and sets.minus == IndexSet([0])
        mu = fld(np.inf)
        c = Field(mu.domain, [-np.inf])
        sets = oracle_preimage_sets(mu, [c], np.inf)
        assert sets.plus == IndexSet([0]) and sets.minus == IndexSet()

    def test_negative_eta(self):
        mu = fld(0.0)
        with pytest.raises(ParameterError):
            oracle_preimage_sets(mu, [mu], -0.1)

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            J = int(rng.integers(1, 10))
            dom = Domain(J)
            mu = Field(dom, rng.normal(size=J))
            c = Field(dom, rng.normal(size=J))
            eta1, eta2 = sorted(rng.uniform(0, 2, 2))
            small = oracle_preimage_sets(mu, [c], eta1)
            big = oracle_preimage_sets(mu, [c], eta2)
            for side in ("plus", "minus", "both"):
                assert getattr(small, side).issubset(getattr(big, side))


class TestPluginPreimage:
    def test_exact_match(self):
        mu_hat = fld(1.0, 2.0)
        sigma = Field.constant(mu_hat.domain, 1.0)
        sets = plugin_preimage_sets(mu_hat, [mu_hat], sigma, 1.0, 0.5)
        assert sets.plus == sets.minus == sets.both == IndexSet.full(2)

    def test_tolerance_covers_range(self):
        mu_hat = fld(0.3, -0.2, 0.1)
        zero = Field.constant(mu_hat.domain, 0.0)
        sigma = Field.constant(mu_hat.domain, 1.0)
        assert plugin_preimage_sets(mu_hat, [zero], sigma, 1.0, 0.31).both == IndexSet.full(3)

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
            o = oracle_preimage_sets(mu, [c], eta)
            p = plugin_preimage_sets(mu, [c], sigma, tau, k)
            for side in ("plus", "minus", "both"):
                assert getattr(o, side).issubset(getattr(p, side))

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
            plugin_preimage_sets(mu_hat, [mu_hat], sigma, 1.0, 0.0)
        with pytest.raises(ParameterError):
            plugin_preimage_sets(mu_hat, [mu_hat], sigma, 0.0, 1.0)


EDGY = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), st.floats(-2.0, 2.0))


@st.composite
def touch_cases(draw):
    """(B, J) values with +-0.0, +-inf and NaN against (J,) or scalar thresholds, and a
    tolerance that is a float 0.0, a 0-d array, an array, inf or a positive float."""
    B, J = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    values = np.array(draw(st.lists(EDGY, min_size=B * J, max_size=B * J))).reshape(B, J)
    row = st.lists(EDGY, min_size=J, max_size=J).map(np.array)
    thresholds = draw(st.lists(st.one_of(EDGY, EDGY.map(np.float64), row), max_size=3))
    size = st.floats(0.0, 3.0)
    tol = draw(st.one_of(st.just(0.0), st.just(np.inf), size, size.map(np.array),
                         st.lists(st.one_of(size, st.just(np.inf)), min_size=J, max_size=J)
                         .map(np.array)))
    return values, thresholds, tol


class TestTouched:
    @given(touch_cases())
    @example((np.array([[-0.0, 0.0, np.inf, -np.inf, np.nan]]), [0.0, -0.0, np.inf], 0.0))
    @example((np.array([[-0.0, 1.0, np.inf]]), [np.array([0.0, np.inf, np.inf])], np.array(0.0)))
    @example((np.array([[np.inf, -np.inf, 2.0]]), [-np.inf, np.array([np.nan, 1.0, 2.0])], np.inf))
    def test_is_the_union_of_both_touch_sides_bit_for_bit(self, case):
        values, thresholds, tol = case
        want = np.logical_or(*_touch_masks(values, thresholds, tol))
        got = _touched(values, thresholds, tol)
        assert got.dtype == bool and got.shape == values.shape
        np.testing.assert_array_equal(got, want)


class TestTouchMasks:
    @pytest.mark.parametrize("tol", [0.0, "array", np.inf])
    def test_one_gap_gives_the_old_one_side_rule_on_both_sides_bit_for_bit(self, tol):
        # minus reads -tol <= v - c <= 0 where the old rule read 0 <= c - v <= tol: c - v is
        # exactly -(v - c), infinities and signed zeros included
        edges = (1.5, -0.75, 0.0, -0.0, np.inf, -np.inf)
        values = np.array([*edges, 0.25, -2.0, np.nan])
        if tol == "array":
            tol = np.resize([0.0, 0.25, 1.0, 4.0, np.inf], values.size)
        for thresholds in ([[c] for c in edges] + [[np.roll(values, r)] for r in range(1, 9)]
                           + [list(edges)]):
            plus, minus = _touch_masks(values, thresholds, tol)
            want_plus = np.logical_or.reduce([reference_touch_side(values, c, tol)
                                              for c in thresholds])
            want_minus = np.logical_or.reduce([reference_touch_side(c, values, tol)
                                               for c in thresholds])
            assert plus.dtype == minus.dtype == bool and plus.shape == values.shape
            np.testing.assert_array_equal(plus, want_plus)
            np.testing.assert_array_equal(minus, want_minus)

    def test_no_thresholds_give_two_all_false_masks(self):
        values = np.array([0.0, np.inf, -1.0])
        plus, minus = _touch_masks(values, [], 0.5)
        assert plus.dtype == minus.dtype == bool and plus.shape == minus.shape == values.shape
        assert not plus.any() and not minus.any() and plus is not minus

    @pytest.mark.parametrize("tol", [0.0, 0.25, np.inf])
    def test_finite_sides_take_one_subtraction_bit_for_bit(self, tol):
        # signed zeros, ties and subnormals: the finite gap's masks are the masked gap's
        values = np.array([0.0, -0.0, 0.25, 5e-324, -5e-324, 1.0, -0.5])
        thresholds = [np.roll(values, r) for r in range(values.size)] + [np.zeros(values.size)]
        np.testing.assert_array_equal(_touch_masks(values, thresholds, tol, True),
                                      _touch_masks(values, thresholds, tol))


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
        for kappa in (0.0, np.inf, np.nan):
            with pytest.raises(ParameterError, match="finite kappa"):
                KPolicy("log_over_kappa", kappa=kappa)
        # below the spacing of floats under 1 the band's level 1 - beta/2 rounds to 1
        for beta in (1.2, 0.0, 1e-17, 2e-16):
            with pytest.raises(ParameterError, match="beta in"):
                KPolicy("scb_level", beta=beta)
        assert resolve_k(KPolicy("scb_level", beta=2.3e-16), 30, 1, df=29) > 0
        with pytest.raises(ParameterError):
            KPolicy("unknown")
        with pytest.raises(ParameterError):
            resolve_k(KPolicy("fixed", k=1.0), 1, 10, df=9)


class TestScopePartition:
    def test_matches_the_standardized_rule_at_level_zero(self):
        N, J = 60, 40
        data = Rng(3).generator().standard_normal((N, J)) + np.repeat([-0.5, 0.0, 0.3, 0.0], 10)
        part = scope_partition(data, 0.0, 0.0, 0.1, KPolicy("fixed", k=1.5))
        t = np.sqrt(N) * data.mean(axis=0) / data.std(axis=0, ddof=1)
        assert part.k == 1.5
        assert part.m_hat == np.count_nonzero(np.abs(t) <= 1.5)
        # at a level a touched column breaks its inclusion on either side: the two-sided law
        assert part.q_hat == iid_quantile(part.m_hat, 0.1, N - 1, "two_sided").q
        assert np.array_equal(part.below, t < -part.q_hat)
        assert np.array_equal(part.above, t > part.q_hat)
        assert part.below.any() and part.above.any()

    def test_each_edge_adds_its_own_touch_set(self):
        # a column touching one edge adds a one-sided factor, one touching both a two-sided one
        N, J = 60, 40
        data = Rng(3).generator().standard_normal((N, J)) + np.repeat([-0.5, 0.0, 0.3, 0.0], 10)
        mean, sd = data.mean(axis=0), data.std(axis=0, ddof=1)
        tol = 1.5 * sd / np.sqrt(N)
        shared = []
        for lower, upper in ((-0.5, 0.3), (-0.1, 0.1), (np.linspace(-0.6, -0.1, J), 0.1)):
            part = scope_partition(data, lower, upper, 0.1, KPolicy("fixed", k=1.5))
            neg, pos = np.abs(mean - lower) <= tol, np.abs(mean - upper) <= tol
            n_both = np.count_nonzero(neg & pos)
            n_one = np.count_nonzero(neg | pos) - n_both
            shared.append(n_both)
            assert part.m_hat == n_one + n_both and n_one > 0
            if n_both == 0:  # separated edges: the one-sided law
                assert part.q_hat == iid_quantile(part.m_hat, 0.1, N - 1, "one_sided").q
            assert part.q_hat == _iid_exact(n_one, n_both, 0.1, N - 1, "upper").q
            w = part.q_hat * sd / np.sqrt(N)
            assert np.array_equal(part.below, mean < lower - w)
            assert np.array_equal(part.above, mean > upper + w)
        assert shared[0] == 0 and shared[1] > 0 and shared[2] > 0

    def test_stacked_rows_are_the_single_row_rule_bit_for_bit(self):
        gen = Rng(5).generator()
        B, J, N = 30, 12, 40
        mean = gen.normal(0.0, 0.3, (B, J)).round(1)  # repeated rows and exact touches
        sd = gen.uniform(0.5, 1.5, (B, J))
        lower = np.array([-np.inf, -0.2, -0.1, 0.0] * 3)
        upper = np.array([0.0, 0.1, 0.2, np.inf] * 3)
        stacked = _partition_rows(mean, sd, lower, upper, 0.1, 1.2, 1 / np.sqrt(N), N - 1)
        assert len(set(stacked[1].tolist())) > 3  # several count pairs, each solved once
        for b in range(B):
            row = _partition_rows(mean[b], sd[b], lower, upper, 0.1, 1.2, 1 / np.sqrt(N), N - 1)
            for got, want in zip(stacked, row):
                assert np.array_equal(got[b], want) and np.shape(want) == np.shape(got)[1:]

    def test_infinite_edges_never_move_and_order_is_checked(self):
        data = Rng(4).generator().standard_normal((30, 6)) + np.array([-9, -9, 0, 0, 9, 9.0])
        lower = np.array([-np.inf, -1, -1, -1, -1, -1])
        upper = np.array([1, 1, 1, 1, 1, np.inf])
        part = scope_partition(data, lower, upper, 0.1, KPolicy("log_over_kappa", kappa=3.0))
        assert part.m_hat == 0
        assert part.below.tolist() == [False, True, False, False, False, False]
        assert part.above.tolist() == [False, False, False, False, True, False]
        with pytest.raises(ThresholdOrderError):
            scope_partition(data, upper, lower, 0.1, KPolicy("fixed", k=1.0))


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

    @pytest.mark.parametrize("bad, error", [
        (lambda J: (np.zeros(J + 1), np.ones(J)), DomainMismatchError),
        (lambda J: (np.zeros(J), np.full(J, np.nan)), ParameterError),
    ])
    def test_sampler_output_is_checked_like_a_field(self, bad, error):
        mu = model_mu("B")
        zero = Field.constant(mu.domain, 0.0)
        with pytest.raises(error):
            consistency_probe(mu, [zero], KPolicy("fixed", k=1.0), [20], reps=2, rng=Rng(0),
                              sampler=lambda gen, N: bad(mu.domain.size))

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

    def test_mixed_discrete_and_line_domains_rejected_in_either_order(self):
        mu = model_mu("B")
        values = mu.values[:30]
        discrete = Field(Domain(30), values)
        line = Field(line_domain(30), np.zeros(30))
        pol = KPolicy("log_over_kappa", kappa=3.0)
        for target, threshold in ((discrete, line), (Field(line.domain, values),
                                                      Field.constant(Domain(30), 0.0))):
            with pytest.raises(DomainMismatchError):
                consistency_probe(target, [threshold], pol, [20], reps=2, rng=Rng(0))

    def test_grid_probe_memory_bounded(self):
        # a 316 x 316 image grid (J = 99,856) whose target is zero on a disk;
        # a J x J distance matrix alone would take 80 GB
        shape = (316, 316)
        coords = np.indices(shape).reshape(2, -1).T
        dom = Domain(coords.shape[0], coords=coords)
        r = np.hypot(*(coords - 157.5).T)
        mu = Field(dom, np.maximum(r - 100.0, 0.0) / 20.0)
        zero = Field.constant(dom, 0.0)
        with peak_traced_mb() as peak:
            out = consistency_probe(
                mu, [zero], KPolicy("log_over_kappa", kappa=3.0), [20, 50], reps=2, rng=Rng(8)
            )
        assert peak.mb < 1000.0
        for rec in out:
            # mu rises by 1/20 per pixel off the disk; the estimate's fringe
            # keeps points with mu <= (k + noise) * tau, noise under 5 sd here
            assert 0.0 < rec["mean_hausdorff"] < 20.0 * (rec["k"] + 5.0) / np.sqrt(rec["N"])
            assert 0.0 <= rec["inclusion_freq"] <= 1.0
