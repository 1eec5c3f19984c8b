import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import peak_traced_mb
from scopesets.domain import Domain, Field, IndexSet
from scopesets.errors import ParameterError, ThresholdOrderError
from scopesets.excursion import (
    ScopeBands,
    ThresholdFamily,
    _moved,
    contour_regions,
    inclusion_event,
    lower_excursion,
    max_sup,
    partition3,
    roi_adapt,
    scb_scope_equivalence,
    scope_event,
    t_stat,
    upper_excursion,
    widened_excursions,
)
from scopesets.hypotests import BandSpec, et, lrt

DOM3 = Domain(3)


def fld(*values):
    return Field(Domain(len(values)), list(values))


class TestExcursionSets:
    def test_lower_strict_and_closed(self):
        f = fld(-1.0, 0.0, 2.0)
        zero = Field.constant(f.domain, 0.0)
        assert lower_excursion(f, zero) == IndexSet([0])
        assert lower_excursion(f, zero, closed=True) == IndexSet([0, 1])

    def test_everything_below_plus_inf(self):
        f = fld(-5.0, 0.0, 7.0)
        top = Field.constant(f.domain, np.inf)
        assert lower_excursion(f, top) == IndexSet.full(3)

    def test_upper_mirror(self):
        f = fld(-1.0, 0.0, 2.0)
        zero = Field.constant(f.domain, 0.0)
        assert upper_excursion(f, zero) == IndexSet([2])
        assert upper_excursion(f, Field.constant(f.domain, -np.inf)) == IndexSet.full(3)
        assert upper_excursion(f, f) == IndexSet()

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            J = int(rng.integers(1, 12))
            dom = Domain(J)
            f = Field(dom, rng.normal(size=J))
            c = Field(dom, rng.normal(size=J))
            c_hi = Field(dom, c.values + rng.uniform(0, 1, J))
            assert lower_excursion(f, c).issubset(lower_excursion(f, c_hi))
            assert upper_excursion(f, c_hi).issubset(upper_excursion(f, c))


class TestTStat:
    def test_both_empty_is_minus_inf(self):
        f = fld(1.0, 2.0, 3.0)
        assert t_stat(f, IndexSet(), IndexSet()) == -np.inf

    def test_mixed(self):
        f = fld(1.0, -2.0, 3.0)
        assert t_stat(f, IndexSet([1]), IndexSet([2])) == 3.0
        assert t_stat(f, IndexSet([1]), IndexSet()) == 2.0

    def test_full_sets_give_sup_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = rng.normal(size=7)
            f = Field(Domain(7), v)
            full = IndexSet.full(7)
            assert t_stat(f, full, full) == pytest.approx(np.max(np.abs(v)))


def make_bands(dom, q, tau=1.0, sigma=None):
    s = Field.constant(dom, 1.0) if sigma is None else sigma
    return ScopeBands(q, tau, s)


class TestScopeEvent:
    def test_estimate_equals_target(self):
        mu = fld(-1.0, 0.0, 1.0)
        fam = ThresholdFamily.symmetric([Field.constant(mu.domain, 0.0)])
        for q in (0.0, 0.5, 3.0):
            assert scope_event(mu, mu, make_bands(mu.domain, q), fam)

    def test_nonempty_cannot_sit_in_empty(self):
        dom = Domain(3)
        mu = Field.constant(dom, 0.0)
        mu_hat = fld(0.0, 0.0, 0.7)
        fam = ThresholdFamily(upper=[Field.constant(dom, 0.0)])
        assert not scope_event(mu_hat, mu, make_bands(dom, 0.5), fam)

    def test_enumerated_instance(self):
        # direct enumeration of both inclusions
        mu = fld(-1.0, 0.0, 1.0)
        mu_hat = fld(-0.5, 0.4, 1.2)
        zero = Field.constant(mu.domain, 0.0)
        fam = ThresholdFamily.symmetric([zero])
        bands = make_bands(mu.domain, 0.5)
        low_hat = lower_excursion(mu_hat, Field(mu.domain, zero.values - 0.5))
        up_hat = upper_excursion(mu_hat, Field(mu.domain, zero.values + 0.5))
        expected = low_hat.issubset(lower_excursion(mu, zero)) and up_hat.issubset(
            upper_excursion(mu, zero)
        )
        assert scope_event(mu_hat, mu, bands, fam) == expected is True

    def test_sufficiency_of_small_max_stat(self):
        # if the standardized error stays below q on the relevant half-domains,
        # the inclusion event must hold (exhaustive over random instances)
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(500):
            J = int(rng.integers(1, 13))
            dom = Domain(J)
            mu = Field(dom, rng.normal(size=J))
            c = Field(dom, np.round(rng.normal(size=J), 1))
            sigma = Field(dom, rng.uniform(0.5, 2.0, J))
            tau = float(rng.uniform(0.1, 1.0))
            g = rng.normal(size=J)
            mu_hat = Field(dom, mu.values + tau * sigma.values * g)
            q = float(rng.uniform(0.0, 2.5))
            neg = IndexSet.from_mask(mu.values >= c.values)
            pos = IndexSet.from_mask(mu.values <= c.values)
            if t_stat(Field(dom, g), neg, pos) < q:
                hits += 1
                fam = ThresholdFamily.symmetric([c])
                assert scope_event(mu_hat, mu, ScopeBands(q, tau, sigma), fam)
        assert hits > 50  # the premise fired often enough to be meaningful


class TestScopeBandsCriticalValue:
    def test_nan_q_is_rejected(self):
        # a NaN q used to pass: partition3 then put every point in the middle
        # class and lrT rejected nothing, with no error
        dom = Domain(3)
        sigma, zero = Field.constant(dom, 1.0), Field.constant(dom, 0.0)
        mu = Field(dom, [-2.0, 0.0, 2.0])
        with pytest.raises(ParameterError, match="NaN"):
            partition3(mu, zero, zero, ScopeBands(np.nan, 0.5, sigma))
        with pytest.raises(ParameterError, match="NaN"):
            lrt(mu, BandSpec(zero, zero), ScopeBands(float("nan"), 0.5, sigma))
        with pytest.raises(ParameterError, match="NaN"):
            scb_scope_equivalence(mu, mu, sigma, 0.5, np.nan, [zero])

    def test_negative_and_infinite_q_stay_valid(self):
        # eT's lower-tail q can be negative (partition3 alone refuses it); an
        # infinite q decides nothing
        dom = Domain(3)
        sigma = Field.constant(dom, 1.0)
        mu = Field(dom, [-2.0, 0.0, 2.0])
        band = BandSpec(Field.constant(dom, -1.0), Field.constant(dom, 1.0))
        assert et(mu, band, ScopeBands(-0.5, 0.5, sigma)).global_reject is False
        with pytest.raises(ParameterError, match="nonnegative"):
            partition3(mu, band.b_minus, band.b_plus, ScopeBands(-0.5, 0.5, sigma))
        wide = ScopeBands(np.inf, 0.5, sigma)
        assert len(partition3(mu, band.b_minus, band.b_plus, wide).middle) == 3
        assert len(lrt(mu, band, wide).rejected) == 0

class TestPartition3:
    def test_simple_split(self):
        mu_hat = fld(-2.0, 0.0, 2.0)
        zero = Field.constant(mu_hat.domain, 0.0)
        p = partition3(mu_hat, zero, zero, make_bands(mu_hat.domain, 0.0))
        assert (p.lower, p.middle, p.upper) == (IndexSet([0]), IndexSet([1]), IndexSet([2]))

    def test_huge_q_swallows_everything(self):
        mu_hat = fld(-2.0, 0.0, 2.0)
        zero = Field.constant(mu_hat.domain, 0.0)
        p = partition3(mu_hat, zero, zero, make_bands(mu_hat.domain, 100.0))
        assert p.middle == IndexSet.full(3)
        assert len(p.lower) == 0 and len(p.upper) == 0

    def test_band_instance(self):
        mu_hat = fld(-2.0, 0.0, 2.0)
        bm = Field.constant(mu_hat.domain, -1.0)
        bp = Field.constant(mu_hat.domain, 1.0)
        p = partition3(mu_hat, bm, bp, make_bands(mu_hat.domain, 0.5))
        assert (p.lower, p.middle, p.upper) == (IndexSet([0]), IndexSet([1]), IndexSet([2]))

    def test_order_violation(self):
        mu_hat = fld(0.0, 0.0)
        with pytest.raises(ThresholdOrderError):
            partition3(
                mu_hat,
                Field.constant(mu_hat.domain, 1.0),
                Field.constant(mu_hat.domain, -1.0),
                make_bands(mu_hat.domain, 1.0),
            )

    def test_negative_margin_rejected(self):
        from scopesets.errors import ParameterError

        mu_hat = fld(0.0, 0.0)
        zero = Field.constant(mu_hat.domain, 0.0)
        with pytest.raises(ParameterError):
            partition3(mu_hat, zero, zero, make_bands(mu_hat.domain, -0.5))

    def test_always_a_partition(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            J = int(rng.integers(1, 10))
            dom = Domain(J)
            mu_hat = Field(dom, rng.normal(size=J))
            bm = rng.normal(size=J)
            bp = bm + rng.uniform(0, 2, J)
            p = partition3(
                mu_hat,
                Field(dom, bm),
                Field(dom, bp),
                ScopeBands(float(rng.uniform(0, 2)), 1.0, Field.constant(dom, 1.0)),
            )
            assert len(p.lower) + len(p.middle) + len(p.upper) == J
            assert p.lower.union(p.middle).union(p.upper) == IndexSet.full(J)
            assert len(p.lower.intersection(p.upper)) == 0


class TestContourRegions:
    def test_exact_touch_is_covered(self):
        mu_hat = fld(0.0, 0.5, 1.0)
        regions = contour_regions(mu_hat, [0.5], make_bands(mu_hat.domain, 0.0))
        assert regions == [IndexSet([1])]

    def test_wide_band_covers_domain(self):
        mu_hat = fld(0.0, 0.5, 1.0)
        regions = contour_regions(mu_hat, [0.5], make_bands(mu_hat.domain, 0.6))
        assert regions == [IndexSet.full(3)]


class TestRoiAdapt:
    def test_full_roi_is_identity(self):
        b = fld(0.3, -0.7, 2.0)
        cp, cm = roi_adapt(b, IndexSet.full(3))
        np.testing.assert_array_equal(cp.values, b.values)
        np.testing.assert_array_equal(cm.values, b.values)

    def test_empty_roi_kills_excursions(self):
        b = fld(0.3, -0.7, 2.0)
        cp, cm = roi_adapt(b, IndexSet())
        assert np.all(np.isposinf(cp.values)) and np.all(np.isneginf(cm.values))
        f = fld(10.0, -10.0, 0.0)
        assert len(upper_excursion(f, cp)) == 0
        assert len(lower_excursion(f, cm)) == 0

    def test_partial_roi(self):
        b = Field.constant(DOM3, 0.0)
        roi = IndexSet([0, 1])
        cp, cm = roi_adapt(b, roi)
        np.testing.assert_array_equal(cp.values, [0.0, 0.0, np.inf])
        np.testing.assert_array_equal(cm.values, [0.0, 0.0, -np.inf])
        rng = np.random.default_rng(42)
        for _ in range(50):
            f = Field(DOM3, rng.normal(size=3, scale=5))
            assert upper_excursion(f, cp).issubset(roi)
            assert lower_excursion(f, cm).issubset(roi)


class TestMoved:
    def test_infinite_thresholds_never_move(self):
        np.testing.assert_array_equal(_moved(np.array([np.inf, -np.inf, 1.0]), 5.0),
                                      [np.inf, -np.inf, 6.0])


class TestBandInclusionDuality:
    def test_equal_estimate(self):
        mu = fld(0.0, 1.0, -1.0)
        s = Field.constant(mu.domain, 1.0)
        assert scb_scope_equivalence(mu, mu, s, 0.5, 1.0, []) == (True, True)

    def test_violation_detected_via_target_probe(self):
        mu = fld(0.0, 0.0, 0.0)
        mu_hat = fld(0.0, 0.0, 2.0)
        s = Field.constant(mu.domain, 1.0)
        covers, inclusions = scb_scope_equivalence(mu_hat, mu, s, 1.0, 1.0, [])
        assert covers is False and inclusions is False

    def test_equivalence_on_random_instances(self):
        rng = np.random.default_rng(42)
        agree_true = agree_false = 0
        for _ in range(1000):
            J = int(rng.integers(1, 10))
            dom = Domain(J)
            mu = Field(dom, rng.normal(size=J))
            sigma = Field(dom, rng.uniform(0.2, 2.0, J))
            tau = float(rng.uniform(0.05, 1.0))
            q = float(rng.uniform(0.0, 2.0))
            mu_hat = Field(dom, mu.values + tau * sigma.values * rng.normal(size=J))
            probes = [Field(dom, rng.normal(size=J)) for _ in range(rng.integers(0, 4))]
            covers, inclusions = scb_scope_equivalence(mu_hat, mu, sigma, tau, q, probes)
            assert covers == inclusions
            agree_true += covers
            agree_false += not covers
        assert agree_true > 100 and agree_false > 100  # both outcomes exercised

    def test_band_width_shrink_property(self):
        # widening the margin can only shrink the widened excursion sets
        rng = np.random.default_rng(7)
        dom = Domain(8)
        f = Field(dom, rng.normal(size=8))
        c = Field(dom, rng.normal(size=8))
        moved = lambda delta: Field(dom, _moved(c.values, delta))
        for q, q_hi in ((0.0, 0.5), (0.5, 1.5)):
            assert lower_excursion(f, moved(-q_hi)).issubset(lower_excursion(f, moved(-q)))
            assert upper_excursion(f, moved(q_hi)).issubset(upper_excursion(f, moved(q)))


FINITE = st.floats(-3.0, 3.0)
THRESHOLD = st.one_of(FINITE, st.sampled_from([-np.inf, np.inf]))


@st.composite
def batches(draw):
    """(B, J) estimates, a target, threshold rows with infinities, sigma, tau and q >= 0."""
    B, J = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    row = lambda elem: np.array(draw(st.lists(elem, min_size=J, max_size=J)))
    return {
        "mu_hat": np.array([row(FINITE) for _ in range(B)]),
        "mu": row(FINITE),
        "thresholds": [row(THRESHOLD) for _ in range(draw(st.integers(1, 3)))],
        "sigma": row(st.floats(0.1, 3.0)),
        "tau": draw(st.floats(0.05, 1.0)),
        "q": draw(st.floats(0.0, 5.0)),
        "neg": sorted(draw(st.sets(st.integers(0, J - 1)))),
        "pos": sorted(draw(st.sets(st.integers(0, J - 1)))),
    }


class TestBatchedKernels:
    @settings(deadline=None)
    @given(batches())
    def test_widened_excursions_rows_match_partition3(self, b):
        dom = Domain(b["mu"].size)
        lower = np.minimum(b["thresholds"][0], b["thresholds"][-1])
        upper = np.maximum(b["thresholds"][0], b["thresholds"][-1])
        bands = ScopeBands(b["q"], b["tau"], Field(dom, b["sigma"]))
        below, above = widened_excursions(b["mu_hat"], lower, upper, bands.half_width())
        for i, mh in enumerate(b["mu_hat"]):
            part = partition3(Field(dom, mh), Field(dom, lower), Field(dom, upper), bands)
            assert part.lower == IndexSet.from_mask(below[i])
            assert part.upper == IndexSet.from_mask(above[i])
            assert part.middle == IndexSet.from_mask(~(below[i] | above[i]))

    @settings(deadline=None)
    @given(batches(), st.floats(0.0, 5.0))
    def test_masks_shrink_as_q_grows(self, b, dq):
        c = b["thresholds"][0]
        below, above = widened_excursions(b["mu_hat"], c, c, b["q"] * b["tau"] * b["sigma"])
        w2 = (b["q"] + dq) * b["tau"] * b["sigma"]
        below2, above2 = widened_excursions(b["mu_hat"], c, c, w2)
        assert not np.any(below2 & ~below) and not np.any(above2 & ~above)

    @settings(deadline=None)
    @given(batches())
    def test_inclusion_event_rows_match_scope_event(self, b):
        dom = Domain(b["mu"].size)
        split = len(b["thresholds"]) // 2
        lower, upper = b["thresholds"][:split], b["thresholds"][split:]
        bands = ScopeBands(b["q"], b["tau"], Field(dom, b["sigma"]))
        fam = ThresholdFamily([Field(dom, c) for c in lower], [Field(dom, c) for c in upper])
        event = inclusion_event(b["mu_hat"], b["mu"], lower, upper, bands.half_width())
        assert event.shape == (len(b["mu_hat"]),)
        for i, mh in enumerate(b["mu_hat"]):
            assert event[i] == scope_event(Field(dom, mh), Field(dom, b["mu"]), bands, fam)

    @settings(deadline=None)
    @given(batches())
    def test_max_sup_rows_match_t_stat(self, b):
        dom = Domain(b["mu"].size)
        neg, pos = np.array(b["neg"], dtype=int), np.array(b["pos"], dtype=int)
        stat = max_sup(b["mu_hat"], neg, pos)
        for i, g in enumerate(b["mu_hat"]):
            assert stat[i] == t_stat(Field(dom, g), IndexSet(neg), IndexSet(pos))

    @settings(deadline=None)
    @given(batches())
    def test_max_sup_of_empty_sets_is_minus_inf(self, b):
        empty = np.array([], dtype=int)
        assert np.all(max_sup(b["mu_hat"], empty, empty) == -np.inf)

    def test_max_sup_keeps_one_gathered_copy_on_overlapping_sets(self):
        # neg = pos = every column: each gather is a full 8 MB copy of g, and
        # negating a gathered copy would hold a second one
        g = np.random.default_rng(0).standard_normal((2000, 500))
        idx = np.arange(500)
        expected = np.abs(g).max(axis=1)
        with peak_traced_mb() as peak:
            stat = max_sup(g, idx, idx)
        assert np.array_equal(stat, expected)
        assert peak.mb < 1.5 * g.nbytes / 1e6
