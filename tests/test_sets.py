import itertools

import pytest
from hypothesis import example, given, strategies as st

from signedsum import (IntegerSet, StructureClass, StructureKind,
                       classify_structure, dilate, gaps,
                       is_arithmetic_progression, make_set)
from signedsum.sets import common_difference


def classify_reference(a: IntegerSet) -> StructureClass:
    """The family-by-family definition that classify_structure must equal.

    It reads a progression from ``gaps``, not from ``common_difference``,
    which classify_structure itself uses."""
    e = a.elements
    g = gaps(a)
    d = e[0]
    if d >= 1 and all(x == (2 * i + 1) * d for i, x in enumerate(e)):
        return StructureClass(StructureKind.ODD_AP_DILATE, d)
    if e[0] == 0 and all(x == i * e[1] for i, x in enumerate(e)):
        return StructureClass(StructureKind.ZERO_AP_DILATE, e[1])
    if e[0] >= 0 and all(x == g[0] for x in g):
        return StructureClass(StructureKind.GENERAL_AP, g[0])
    return StructureClass(StructureKind.NONE)


class TestMakeSet:
    def test_sorts_and_reports_cardinality(self):
        a = make_set([9, 1, 5, 3, 7])
        assert a.elements == (1, 3, 5, 7, 9)
        assert a.k == 5

    def test_merges_duplicates(self):
        a = make_set([0, 0, 2])
        assert a.elements == (0, 2)
        assert a.k == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            make_set([])

    def test_idempotent(self):
        a = make_set([4, -2, 4, 9])
        assert make_set(a.elements) == a

    def test_non_integers_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            make_set([1, 2.5])

    @pytest.mark.parametrize("raw", [
        [1, True], [True, 1], [1, 1.0, 3], [1.0, 1, 3], ["a", 1], [1, "a"],
        iter([2, False, 0]),
    ])
    def test_each_element_checked_before_merging(self, raw):
        # True == 1 and 1.0 == 1, so merging first let the order decide
        with pytest.raises(ValueError, match="non-integer"):
            make_set(raw)

    def test_iterator_input(self):
        assert make_set(iter([3, 1, 3])).elements == (1, 3)

    def test_accessors(self):
        a = make_set([3, 1, 8])
        assert a.min_element == 1
        assert a.max_element == 8
        assert a.all_positive
        assert 3 in a and 4 not in a
        assert list(a) == [1, 3, 8]
        assert len(a) == 3
        assert str(a) == "{1,3,8}"
        assert a.to_list() == [1, 3, 8]

    def test_prefix_and_without_min(self):
        a = make_set([1, 3, 5, 7, 9])
        assert a.prefix(3).elements == (1, 3, 5)
        assert a.without_min().elements == (3, 5, 7, 9)
        with pytest.raises(ValueError):
            a.prefix(6)
        with pytest.raises(ValueError):
            make_set([4]).without_min()


class TestDilate:
    def test_positive_factor(self):
        assert dilate(make_set([1, 3, 5]), 2).elements == (2, 6, 10)

    def test_negation(self):
        assert dilate(make_set([1, 3, 5]), -1).elements == (-5, -3, -1)

    def test_zero_element_fixed(self):
        assert dilate(make_set([0, 1, 2]), 3).elements == (0, 3, 6)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError, match="degenerate dilation"):
            dilate(make_set([1, 2]), 0)

    def test_preserves_cardinality(self):
        a = make_set([-3, 0, 4, 7])
        assert dilate(a, -6).k == a.k


class TestGaps:
    def test_constant_gaps(self):
        assert gaps(make_set([1, 3, 5, 7, 9])) == [2, 2, 2, 2]

    def test_growing_gaps(self):
        assert gaps(make_set([1, 2, 4, 8])) == [1, 2, 4]

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            gaps(make_set([5]))

    def test_is_arithmetic_progression(self):
        assert is_arithmetic_progression(make_set([2, 5, 8, 11]))
        assert not is_arithmetic_progression(make_set([2, 5, 9]))

    def test_is_arithmetic_progression_refuses_a_singleton(self):
        with pytest.raises(ValueError, match=r"^gaps undefined for k < 2$"):
            is_arithmetic_progression(make_set([5]))


class TestCommonDifference:
    @pytest.mark.parametrize("elements", [(0, 2, 3, 6), (1, 3, 4, 7)])
    def test_equal_span_with_unequal_gaps(self, elements):
        # the span equals (k-1) times the first gap, but the gaps differ
        assert elements[-1] - elements[0] == 3 * (elements[1] - elements[0])
        assert common_difference(elements) is None
        a = IntegerSet(elements)
        assert not is_arithmetic_progression(a)
        assert classify_structure(a) == StructureClass(StructureKind.NONE)

    @pytest.mark.parametrize("elements, d, kind", [
        ((3, 5), 2, StructureKind.GENERAL_AP),
        ((1, 3), 1, StructureKind.ODD_AP_DILATE),
        ((0, 4), 4, StructureKind.ZERO_AP_DILATE),
        ((-4, 9), None, StructureKind.NONE),
    ])
    def test_two_elements_are_a_progression(self, elements, d, kind):
        assert common_difference(elements) == elements[1] - elements[0]
        a = IntegerSet(elements)
        assert is_arithmetic_progression(a)
        assert classify_structure(a) == StructureClass(kind, d)

    def test_progression_below_zero(self):
        a = IntegerSet((-3, 1, 5, 9))
        assert common_difference(a.elements) == 4
        assert is_arithmetic_progression(a)
        assert classify_structure(a) == StructureClass(StructureKind.NONE)

    def test_fewer_than_two_elements(self):
        assert common_difference(()) is None
        assert common_difference((5,)) is None

    @given(st.one_of(
        st.lists(st.integers(-50, 50), min_size=2, max_size=9, unique=True),
        st.builds(lambda a, d, k: [a + i * d for i in range(k)],
                  st.integers(-50, 50), st.integers(1, 9),
                  st.integers(2, 9))))
    @example([0, 2, 3, 6])
    @example([0, 3, 4, 5, 12])
    def test_matches_the_gaps(self, elements):
        elements = tuple(sorted(elements))
        g = gaps(IntegerSet(elements))
        d = common_difference(elements)
        assert (d is not None) == all(x == g[0] for x in g)
        assert d is None or d == g[0]


class TestClassifyStructure:
    def test_odd_ap_dilate(self):
        c = classify_structure(make_set([2, 6, 10, 14, 18]))
        assert c.kind is StructureKind.ODD_AP_DILATE
        assert c.d == 2

    def test_zero_ap_dilate(self):
        c = classify_structure(make_set([0, 3, 6, 9, 12]))
        assert c.kind is StructureKind.ZERO_AP_DILATE
        assert c.d == 3

    def test_unequal_gaps(self):
        c = classify_structure(make_set([1, 2, 4, 6, 8]))
        assert c.kind is StructureKind.NONE
        assert c.d is None

    def test_general_ap(self):
        c = classify_structure(make_set([2, 5, 8, 11]))
        assert c.kind is StructureKind.GENERAL_AP
        assert c.d == 3

    def test_odd_dilate_takes_precedence_over_general(self):
        assert (classify_structure(make_set([1, 3, 5])).kind
                is StructureKind.ODD_AP_DILATE)

    def test_negative_elements_never_match(self):
        # -1 * {1,3,5}: dilation factors are restricted to positive integers
        assert (classify_structure(make_set([-5, -3, -1])).kind
                is StructureKind.NONE)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^classification undefined for k < 2$"):
            classify_structure(make_set([5]))

    @pytest.mark.parametrize("base,kind", [
        ([1, 3, 5, 7], StructureKind.ODD_AP_DILATE),
        ([0, 1, 2, 3], StructureKind.ZERO_AP_DILATE),
    ])
    def test_kind_stable_under_positive_dilation(self, base, kind):
        a = make_set(base)
        for c in (1, 2, 3, 7):
            assert classify_structure(dilate(a, c)).kind is kind

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_reference_on_small_subsets_and_dilates(self, k):
        for subset in itertools.combinations(range(-6, 13), k):
            a = IntegerSet(subset)
            for c in (1, 2, 3, 4, 5, -1, -2, -3, -4, -5):
                b = dilate(a, c)
                assert classify_structure(b) == classify_reference(b), b

    def test_matches_reference_on_extremal_families(self):
        for k in range(2, 10):
            for d in range(1, 8):
                for elements in (tuple((2 * i + 1) * d for i in range(k)),
                                 tuple(i * d for i in range(k))):
                    a = IntegerSet(elements)
                    assert classify_structure(a) == classify_reference(a)
                    assert classify_structure(a).kind is not StructureKind.NONE

    def test_odd_dilate_gap_and_min_relation(self):
        a = make_set([3, 9, 15, 21])
        c = classify_structure(a)
        assert c.kind is StructureKind.ODD_AP_DILATE
        assert gaps(a) == [2 * c.d] * (a.k - 1)
        assert a.min_element == c.d
