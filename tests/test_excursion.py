import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (peak_traced_mb, reference_check_bands, reference_contour_regions,
                      reference_field_values, reference_inclusion_event, reference_partition3,
                      reference_scope_event, reference_widened_excursions)
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


    def test_negative_margin_rejected(self):
        mu_hat = fld(0.0, 0.5, 1.0)
        with pytest.raises(ParameterError, match="nonnegative critical value"):
            contour_regions(mu_hat, [0.5], make_bands(mu_hat.domain, -0.5))
        with pytest.raises(ParameterError, match="nonnegative critical value"):
            contour_regions(mu_hat, [0.5], make_bands(mu_hat.domain, -np.inf))
        assert contour_regions(mu_hat, [0.5], make_bands(mu_hat.domain, -0.0)) == [IndexSet([1])]


def _same_error(call, reference):
    """Both calls raise, with the same exception type and message."""
    with pytest.raises(Exception) as got:
        call()
    with pytest.raises(Exception) as want:
        reference()
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _kernel_cases(seed):
    """One seeded realization with infinite ROI edges, points exactly at c - w and c + w,
    and q drawn from 0, -0, finite, huge and infinite values."""
    rng = np.random.default_rng(seed)
    J = int(rng.integers(1, 30))
    dom = Domain(J)
    mu = Field(dom, rng.normal(size=J))
    sigma = Field(dom, np.where(rng.random(J) < 0.2, 1e10, rng.uniform(0.2, 3.0, J)))
    q = [0.0, -0.0, float(rng.uniform(0, 4)), 2.9, 1e150, np.inf][seed % 6]
    bands = ScopeBands(q, [1.0, 0.1, 1.0 / np.sqrt(30)][seed % 3], sigma)
    w = bands.half_width()
    b = Field(dom, np.round(rng.normal(size=J), 1))
    c_plus, c_minus = roi_adapt(b, IndexSet(np.flatnonzero(rng.random(J) < 0.6)))
    values = mu.values + rng.normal(size=J)
    # about two points in three sit on an edge moved by the margin, as the kernel computes it
    at = rng.integers(0, 3, J)
    values = np.where(at == 1, b.values - w, np.where(at == 2, b.values + w, values))
    values = np.where(np.isfinite(values), values, 0.0)
    return dom, mu, sigma, bands, b, c_plus, c_minus, Field(dom, values)


class TestKernelMatchesReference:
    """The kernel reproduces the earlier kernel (``conftest``) bit for bit: results and errors."""

    @pytest.mark.parametrize("seed", range(120))
    def test_partition_contours_and_events(self, seed):
        dom, mu, sigma, bands, b, c_plus, c_minus, mu_hat = _kernel_cases(seed)
        twin = Field(dom, b.values.copy())  # equal to b, but another object
        spread = Field(dom, b.values + np.abs(mu.values))
        for lo, hi in ((b, b), (b, twin), (twin, b), (c_minus, c_plus), (b, spread),
                       (c_minus, b), (b, c_plus)):
            got = partition3(mu_hat, lo, hi, bands)
            want = reference_partition3(mu_hat, lo, hi, bands)
            for cls, members in zip((got.lower, got.middle, got.upper), want):
                assert cls.members.dtype == members.dtype
                assert cls.members.tolist() == members.tolist()
        levels = [0.0, -0.3, 0.2, float(b.values[0])]
        got = contour_regions(mu_hat, levels, bands)
        want = reference_contour_regions(mu_hat, levels, bands)
        assert [r.members.tolist() for r in got] == [m.tolist() for m in want]
        for fam in (ThresholdFamily([c_minus, b], [c_plus, b]), ThresholdFamily.symmetric([b]),
                    ThresholdFamily([c_plus], [c_minus]), ThresholdFamily([mu], [])):
            assert scope_event(mu_hat, mu, bands, fam) is reference_scope_event(mu_hat, mu,
                                                                                bands, fam)

    @pytest.mark.parametrize("seed", range(30))
    def test_batched_masks_and_events(self, seed):
        dom, mu, sigma, bands, b, c_plus, c_minus, mu_hat = _kernel_cases(seed)
        rng = np.random.default_rng(1000 + seed)
        batch = mu_hat.values + rng.normal(size=(7, dom.size)) * (rng.random((7, dom.size)) < 0.5)
        edges = [b.values, c_plus.values, c_minus.values, 0.0, np.inf, -np.inf]
        partly_inf = np.where(rng.random(dom.size) < 0.5, np.inf, bands.half_width())
        for w in (bands.half_width(), partly_inf, 0.0, -0.0, 0.5, np.inf,
                  np.full(dom.size, np.inf)):
            for lo in edges:
                for hi in edges:
                    got = widened_excursions(batch, lo, hi, w)
                    want = reference_widened_excursions(batch, lo, hi, w)
                    for g, r in zip(got, want):
                        assert g.dtype == r.dtype and np.array_equal(g, r)
            for lower, upper in (([b.values, c_minus.values], [c_plus.values]), ([], [b.values]),
                                 ([c_plus.values], [c_minus.values]), ([], [])):
                for rows in (batch, batch[0]):
                    got = inclusion_event(rows, mu.values, lower, upper, w)
                    want = reference_inclusion_event(rows, mu.values, lower, upper, w)
                    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)

    def test_errors(self):
        dom = Domain(3)
        one, other = Field.constant(dom, 1.0), Field.constant(Domain(4), 1.0)
        for values in ([1.0, np.nan, 2.0], [1.0, 2.0], [[1.0, 2.0, 3.0]], [np.nan, 1.0]):
            _same_error(lambda: Field(dom, values), lambda: reference_field_values(dom, values))
        bad_sigma = [Field(dom, v) for v in ([1.0, 0.0, 1.0], [1.0, -2.0, 1.0], [1.0, np.inf, 1.0],
                                             [-np.inf, 1.0, 1.0], [-0.0, 1.0, 1.0])]
        bad = [(q, 1.0, one) for q in (np.nan, np.float64("nan"), np.float32("nan"),
                                       np.array(np.nan), None, "0.5", np.array([1.0, 2.0]))]
        bad += [(1.0, tau, one) for tau in (0.0, -1.0, np.nan, -np.inf)]
        bad += [(1.0, 1.0, s) for s in bad_sigma] + [(np.nan, 0.0, bad_sigma[0])]
        for args in bad:
            _same_error(lambda: ScopeBands(*args), lambda: reference_check_bands(*args))
        for q in (0.0, -0.0, 2, np.int64(3), np.float32(1.5), np.array(2.0), np.inf, -np.inf, True):
            ScopeBands(q, 1.0, one)
            reference_check_bands(q, 1.0, one)
        good, neg = ScopeBands(1.0, 1.0, one), ScopeBands(-1.0, 1.0, one)
        up, down = Field.constant(dom, 0.5), Field.constant(dom, -0.5)
        once = Field(dom, [-1.0, 0.6, -1.0])  # above ``up`` at one point only
        for args in ((other, up, up, good), (one, other, up, good), (one, up, down, good),
                     (one, once, up, good), (one, down, once, good),
                     (one, up, up, neg), (one, up, down, neg), (one, down, other, neg)):
            _same_error(lambda: partition3(*args), lambda: reference_partition3(*args))
        assert partition3(one, down, up, ScopeBands(-0.0, 1.0, one)).middle == IndexSet([])
        for args in ((other, [0.0], good), (one, [np.inf], good), (one, [0.0, np.nan], good)):
            _same_error(lambda: contour_regions(*args), lambda: reference_contour_regions(*args))


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
