import inspect

import numpy as np
import pytest
from conftest import peak_traced_mb, raises_exactly
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import directed_hausdorff

from scopesets.domain import (
    Domain,
    Field,
    IndexSet,
    _gap,
    hausdorff_distance,
    line_domain,
    load_field,
    same_domain,
    save_field,
)
from scopesets.errors import DomainMismatchError, ParameterError


class TestDomain:
    def test_rejects_bad_coords(self):
        for bad in (
            np.zeros(2),  # not (size, d)
            np.zeros((3, 1)),  # wrong number of points
            np.zeros((2, 0)),  # no dimensions
            np.array([[0.0], [np.nan]]),
            np.array([[0.0], [np.inf]]),
        ):
            with pytest.raises(ParameterError):
                Domain(2, coords=bad)
        with pytest.raises(ParameterError):
            Domain(0)

    def test_coords_are_keyword_only(self):
        # a J x J matrix passed positionally must not be read as coordinates
        with pytest.raises(TypeError):
            Domain(3, np.zeros((3, 3)))

    def test_coords_are_a_read_only_copy(self):
        c = np.arange(3.0)[:, None]
        dom = Domain(3, coords=c)
        c[0, 0] = 7.0
        assert dom.coords[0, 0] == 0.0 and not dom.coords.flags.writeable
        np.testing.assert_array_equal(line_domain(3).coords, [[0.0], [1.0], [2.0]])

    def test_discrete_default_metric(self):
        dom = Domain(3)
        assert dom.coords is None
        assert hausdorff_distance(IndexSet([0]), IndexSet([0]), dom) == 0.0
        assert hausdorff_distance(IndexSet([0]), IndexSet([1]), dom) == 1.0
        assert hausdorff_distance(IndexSet([1]), IndexSet([2]), dom) == 1.0


class TestField:
    def test_length_must_match(self):
        with pytest.raises(DomainMismatchError):
            Field(Domain(3), [1.0, 2.0])

    def test_nan_rejected_but_inf_allowed(self):
        with pytest.raises(ParameterError):
            Field(Domain(2), [0.0, np.nan])
        f = Field(Domain(3), [np.inf, -np.inf, 0.0])
        assert not f.is_finite()

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("rest", [(0.0, 1.0, -2.0, 3.0), (np.inf, 1.0, -np.inf, 3.0),
                                      (-np.inf,) * 4, (np.inf,) * 4])
    def test_nan_rejected_first_middle_and_last_also_beside_infinities(self, at, rest):
        values = [*rest[:at], np.nan, *rest[at:]]
        with pytest.raises(ParameterError, match="NaN"):
            Field(Domain(5), values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from((0.0, -0.0, 5e-324, -1.5, 1.7976931348623157e308,
                                     -1.7976931348623157e308, np.inf, -np.inf)),
                    min_size=1, max_size=6))
    def test_finite_is_recorded_and_false_whenever_an_infinity_is_present(self, values):
        f = Field(Domain(len(values)), values)
        assert f._finite is f.is_finite() is bool(np.isfinite(values).all())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from((0.0, -0.0, 5e-324, -1.5, 1.7976931348623157e308,
                                     -1.7976931348623157e308, np.inf, -np.inf)),
                    min_size=1, max_size=6))
    def test_min_and_max_are_recorded_as_plain_floats(self, values):
        f = Field(Domain(len(values)), values)
        assert type(f._min) is float and type(f._max) is float
        assert f._min == np.min(f.values) == min(values)
        assert f._max == np.max(f.values) == max(values)

    def test_recorded_facts_keep_identity_hashing(self):
        f = Field(Domain(2), [0.0, 1.0])
        assert hash(f) == object.__hash__(f) and len({f, Field(Domain(2), [0.0, 1.0])}) == 2

    def test_values_are_a_read_only_copy(self):
        v = np.array([0.0, 1.0, -2.0])
        f = Field(Domain(3), v)
        v[0] = 7.0
        assert f.values.tolist() == [0.0, 1.0, -2.0] and not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0] = 7.0

    def test_recorded_finiteness_changes_no_signature_repr_or_equality(self):
        assert str(inspect.signature(Field)) == "(domain: 'Domain', values: 'np.ndarray') -> None"
        dom = Domain(2)
        f = Field(dom, [0.0, 1.0])
        assert repr(f) == "Field(domain=Domain(size=2, coords=None))"
        assert f == f and f != Field(dom, [0.0, 1.0])  # identity, as before

    def test_same_domain(self):
        a = Field.constant(Domain(3), 0.0)
        b = Field.constant(Domain(4), 0.0)
        with pytest.raises(DomainMismatchError):
            same_domain(a, b)

    def test_same_domain_compares_coordinates(self):
        discrete = Field.constant(Domain(3), 0.0)
        line = Field.constant(line_domain(3), 0.0)
        assert same_domain(discrete, Field.constant(Domain(3), 1.0)) is discrete.domain
        assert same_domain(line, Field.constant(line_domain(3), 1.0)) is line.domain
        shifted = Field.constant(Domain(3, coords=[[0.0], [1.0], [3.0]]), 0.0)
        for pair in ((discrete, line), (line, discrete), (line, shifted)):
            with pytest.raises(DomainMismatchError):
                same_domain(*pair)


class TestIndexSet:
    def test_sorted_unique(self):
        s = IndexSet([3, 1, 3, 2])
        assert list(s) == [1, 2, 3]
        assert len(s) == 3
        assert 2 in s and 0 not in s

    def test_set_algebra(self):
        a, b = IndexSet([0, 1, 2]), IndexSet([2, 3])
        assert a.union(b) == IndexSet([0, 1, 2, 3])
        assert a.intersection(b) == IndexSet([2])
        assert b.complement(5) == IndexSet([0, 1, 4])
        assert IndexSet([1]).issubset(a)
        assert not a.issubset(b)

    def test_from_mask_roundtrip(self):
        mask = np.array([True, False, True])
        assert IndexSet.from_mask(mask) == IndexSet([0, 2])

    def test_from_mask_matches_list_constructor(self):
        rng = np.random.default_rng(2)
        for J in (0, 1, 80, 1000):
            mask = rng.random(J) < 0.5
            s = IndexSet.from_mask(mask)
            assert s.members.dtype == np.int64 and not s.members.flags.writeable
            listed = IndexSet(np.flatnonzero(mask).tolist())
            np.testing.assert_array_equal(s.members, listed.members)


class TestHausdorff:
    def test_identity_is_zero(self):
        s = IndexSet([1, 3])
        assert hausdorff_distance(s, s, Domain(5)) == 0.0
        assert hausdorff_distance(s, s, line_domain(5)) == 0.0

    def test_empty_conventions(self):
        dom = Domain(4)
        assert hausdorff_distance(IndexSet(), IndexSet(), dom) == 0.0
        assert hausdorff_distance(IndexSet([0]), IndexSet(), dom) == np.inf
        assert hausdorff_distance(IndexSet(), IndexSet([0]), dom) == np.inf

    def test_two_singletons_line_metric(self):
        assert hausdorff_distance(IndexSet([0]), IndexSet([2]), line_domain(5)) == 2.0

    def test_out_of_range(self):
        with pytest.raises(DomainMismatchError):
            hausdorff_distance(IndexSet([5]), IndexSet([0]), Domain(3))

    def test_matches_reference_implementation(self):
        # independent oracle: scipy directed Hausdorff on 1-d coordinates
        rng = np.random.default_rng(42)
        dom = line_domain(30)
        for _ in range(200):
            a = IndexSet(rng.choice(30, size=rng.integers(1, 10), replace=False))
            b = IndexSet(rng.choice(30, size=rng.integers(1, 10), replace=False))
            pa = a.members.reshape(-1, 1).astype(float)
            pb = b.members.reshape(-1, 1).astype(float)
            ref = max(directed_hausdorff(pa, pb)[0], directed_hausdorff(pb, pa)[0])
            assert hausdorff_distance(a, b, dom) == pytest.approx(ref)

    def test_matches_brute_force_on_coordinate_domains(self):
        rng = np.random.default_rng(7)
        for d in (1, 2):
            for _ in range(100):
                J = int(rng.integers(2, 40))
                pts = rng.normal(size=(J, d))
                dom = Domain(J, coords=pts)
                a = IndexSet(rng.choice(J, size=rng.integers(1, J + 1), replace=False))
                b = IndexSet(rng.choice(J, size=rng.integers(1, J + 1), replace=False))
                pa, pb = pts[a.members], pts[b.members]
                ref = max(directed_hausdorff(pa, pb)[0], directed_hausdorff(pb, pa)[0])
                assert hausdorff_distance(a, b, dom) == pytest.approx(ref, rel=1e-12)

    def test_discrete_metric_zero_iff_equal_else_one(self):
        rng = np.random.default_rng(3)
        dom = Domain(12)
        for _ in range(200):
            a = IndexSet(rng.choice(12, size=rng.integers(1, 6)))
            b = IndexSet(rng.choice(12, size=rng.integers(1, 6)))
            assert hausdorff_distance(a, b, dom) == (0.0 if a == b else 1.0)

    def test_memory_bounded_in_domain_size(self):
        # ~2,500 and ~1,700 of 5,000 points: no J x J or |a| x |b| matrix
        rng = np.random.default_rng(5)
        a = IndexSet.from_mask(rng.random(5000) < 0.5)
        b = IndexSet.from_mask(rng.random(5000) < 0.34)
        line = line_domain(5000)
        for dom in (Domain(5000), line):
            with peak_traced_mb() as peak:
                hausdorff_distance(a, b, dom)
            assert peak.mb < 10.0

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        dom = line_domain(12)
        for _ in range(200):
            a = IndexSet(rng.choice(12, size=rng.integers(0, 6)))
            b = IndexSet(rng.choice(12, size=rng.integers(0, 6)))
            d_ab = hausdorff_distance(a, b, dom)
            assert d_ab == hausdorff_distance(b, a, dom)
            assert (d_ab == 0.0) == (a == b)

    def test_monotone_in_subset(self):
        # b subset of b' subset of a shrinks the distance to a
        rng = np.random.default_rng(1)
        dom = line_domain(15)
        for _ in range(100):
            a_idx = rng.choice(15, size=8, replace=False)
            b = IndexSet(a_idx[:3])
            b_prime = IndexSet(a_idx[:5])
            a = IndexSet(a_idx)
            assert hausdorff_distance(a, b_prime, dom) <= hausdorff_distance(a, b, dom)


class TestFieldCsv:
    def test_roundtrip_with_infinities(self, tmp_path):
        f = Field(Domain(4), [1.5, np.inf, -np.inf, -2.25])
        path = tmp_path / "field.csv"
        save_field(f, path)
        g = load_field(path)
        np.testing.assert_array_equal(f.values, g.values)

    def test_index_column_must_hold_each_index_once(self, tmp_path):
        cases = {"dup": "0,1\n0,2\n5,3\n", "gap": "0,1\n2,2\n", "neg": "-1,1\n0,2\n"}
        for name, rows in cases.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("index,value\n" + rows)
            with pytest.raises(ParameterError, match=name):
                load_field(path)

    def test_row_count_must_match_domain(self, tmp_path):
        path = tmp_path / "field.csv"
        save_field(Field(Domain(3), [0.0, 1.0, 2.0]), path)
        assert load_field(path, Domain(3)).values.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ParameterError, match="field.csv"):
            load_field(path, Domain(4))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ParameterError):
            load_field(path)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("index,value\n0,1\n1,2,9\n", "line 3: 3 fields, header has 2"),
            ("index,value,note\n0,1,2\n", "expected header 'index,value'"),
            ("index,value\n0,1\n1,abc\n", "line 3: could not convert"),
        ],
        ids=["extra_field", "extra_column", "non_numeric"],
    )
    def test_malformed_file_names_the_file(self, tmp_path, text, expected):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match="bad.csv") as info:
            load_field(path)
        assert expected in str(info.value)

    def test_index_column_is_read_as_a_number(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("index,value\n1.0,2\n\n0,1\n")
        assert load_field(path).values.tolist() == [1.0, 2.0]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PAIR = st.one_of(st.tuples(_FINITE, _FINITE), _FINITE.map(lambda x: (x, x)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_PAIR, min_size=1, max_size=8))
@example([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (0.25, 0.25), (-3.5, -3.5)])
@example([(5e-324, 5e-324), (5e-324, -5e-324), (-5e-324, 0.0), (2.2250738585072014e-308, 5e-324)])
@example([(1.7e308, -1.7e308), (-1.7e308, 1.7e308), (1.7976931348623157e308, -1e308),
          (-1.7976931348623157e308, 1.7976931348623157e308), (1.7e308, 1.7e308)])
def test_finite_gap_is_the_masked_gap_bit_for_bit(pairs):
    # on finite sides a - b is +-0 exactly at a == b, and + 0.0 writes the masked form's +0.0
    # there; a difference that overflows is the same +-inf on both paths
    a, b = np.array(pairs).T
    with np.errstate(over="ignore"):
        for left, right in ((a, b), (a, np.stack((b, a, -b)))):
            fast, masked = _gap(left, right, finite=True), _gap(left, right)
            assert fast.shape == masked.shape
            assert fast.view(np.uint64).tolist() == masked.view(np.uint64).tolist()


def test_a_negative_index_is_rejected():
    with raises_exactly(ParameterError, "indices must be nonnegative"):
        IndexSet([3, -1, 0])
