import pytest

from signedsum import (Family, IntegerSet, Operator, StructureKind,
                       ap_cardinality_bound, catalogue, classify_structure,
                       dilate, general_bound, make_set, optimal_bound_positive,
                       optimal_bound_zero, smallgap, sumset_cardinality,
                       superincreasing_tail, zero_ap_interval)


class TestGeneralBound:
    def test_positive_branch(self):
        assert general_bound(2, 3, zero_in_a=False).value == 8

    def test_fold_one(self):
        # 1-fold: A union -A has 2k elements for positive A
        assert general_bound(1, 5, zero_in_a=False).value == 10

    def test_zero_branch(self):
        assert general_bound(2, 3, zero_in_a=True).value == 6

    def test_sharp_flags(self):
        assert general_bound(1, 6, False).sharp
        assert general_bound(2, 6, False).sharp
        assert general_bound(6, 6, False).sharp
        assert not general_bound(3, 6, False).sharp

    def test_window(self):
        with pytest.raises(ValueError):
            general_bound(4, 3, False)
        with pytest.raises(ValueError):
            general_bound(0, 3, False)


class TestOptimalBounds:
    def test_positive_values(self):
        assert optimal_bound_positive(4, 5).value == 25
        assert optimal_bound_positive(3, 5).value == 22
        assert optimal_bound_positive(4, 6).value == 33

    def test_zero_values(self):
        assert optimal_bound_zero(4, 5).value == 21
        assert optimal_bound_zero(4, 6).value == 29
        assert optimal_bound_zero(3, 5).value == 19

    def test_positive_window(self):
        for h, k in ((2, 5), (5, 5), (3, 3), (4, 4)):
            with pytest.raises(ValueError):
                optimal_bound_positive(h, k)

    def test_zero_window(self):
        for h, k in ((3, 4), (4, 4), (2, 6)):
            with pytest.raises(ValueError):
                optimal_bound_zero(h, k)

    def test_both_sharp(self):
        assert optimal_bound_positive(3, 4).sharp
        assert optimal_bound_zero(3, 5).sharp

    def test_family_choice_matches_each_bound(self):
        for h in range(0, 9):
            for k in range(0, 11):
                for family, bound in ((Family.POSITIVE, optimal_bound_positive),
                                      (Family.ZERO_BASED, optimal_bound_zero)):
                    try:
                        expected = bound(h, k)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as got:
                            family.optimal_bound(h, k)
                        assert str(got.value) == str(exc)
                    else:
                        assert family.optimal_bound(h, k) == expected

    def test_prefix_base_is_the_extremal_prefix_cardinality(self):
        op = Operator.RESTRICTED_SIGNED
        for h in range(3, 9):
            odd = make_set(range(1, 2 * h + 2, 2))  # {1, 3, ..., 2h+1}
            interval = make_set(range(h + 1))  # {0, 1, ..., h}
            assert (Family.POSITIVE.prefix_base(h)
                    == sumset_cardinality(odd, h, op))
            assert (Family.ZERO_BASED.prefix_base(h)
                    == sumset_cardinality(interval, h, op))


def _reference_family_of(a):
    """The family test as first written, returning the family's value."""
    if a.all_positive:
        return "positive"
    if a.min_element == 0 and (a.k == 1 or a.elements[1] > 0):
        return "zero-based"
    raise ValueError(
        "theorem hypotheses require positive elements or 0 plus positives")


class TestFamily:
    @pytest.mark.parametrize("elements", [
        [1], [1, 3, 5, 7, 9], [2, 6, 10, 14, 18], [1, 2, 4, 6, 10],
        [0], [0, 1], [0, 1, 2, 4, 6], [0, 3, 6, 9, 12],
        [-1], [-3, -2, -1], [-1, 0], [-2, 0, 5], [-4, 1, 3],
    ])
    def test_of_matches_reference(self, elements):
        a = make_set(elements)
        try:
            expected = _reference_family_of(a)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Family.of(a)
            assert str(got.value) == str(exc)
        else:
            assert Family.of(a).value == expected

    def test_fixed_elements_select_the_family(self):
        for family in Family:
            a = IntegerSet(family.fixed + (3, 5, 8))
            assert Family.of(a) is family

    def test_extremal_is_the_kind_of_each_extremal_dilate(self):
        for k in range(2, 8):
            for d in (1, 2, 5):
                odd = dilate(make_set(range(1, 2 * k, 2)), d)
                interval = dilate(make_set(range(k)), d)
                assert (classify_structure(odd).kind
                        is Family.POSITIVE.extremal
                        is StructureKind.ODD_AP_DILATE)
                assert (classify_structure(interval).kind
                        is Family.ZERO_BASED.extremal
                        is StructureKind.ZERO_AP_DILATE)


class TestApFormulas:
    def test_equal_difference_branch(self):
        assert ap_cardinality_bound(4, 5, True) == 25
        assert ap_cardinality_bound(3, 4, True) == 16

    def test_other_difference_branch(self):
        assert ap_cardinality_bound(3, 4, False) == 17

    def test_window(self):
        with pytest.raises(ValueError):
            ap_cardinality_bound(2, 4, True)
        with pytest.raises(ValueError):
            ap_cardinality_bound(4, 4, True)

    def test_interval_endpoints(self):
        assert zero_ap_interval(4, 6) == (-14, 14)
        assert zero_ap_interval(4, 5) == (-10, 10)
        assert zero_ap_interval(5, 6) == (-15, 15)

    def test_interval_window(self):
        with pytest.raises(ValueError):
            zero_ap_interval(3, 6)
        with pytest.raises(ValueError):
            zero_ap_interval(5, 5)


class TestPredicates:
    def test_superincreasing_examples(self):
        assert superincreasing_tail(make_set([1, 2, 4, 6, 10]))
        assert not superincreasing_tail(make_set([1, 2, 3, 4, 5]))
        assert superincreasing_tail(make_set([1, 5, 6, 11, 17]))

    def test_smallgap_examples(self):
        assert smallgap(make_set([3, 4, 5, 6, 7]))
        assert not smallgap(make_set([1, 10, 11, 12, 13]))
        assert not smallgap(make_set([1, 2, 5, 6, 7]))

    def test_smallgap_boundary_is_strict(self):
        # second condition demands 2*gap strictly above a2 - a1
        assert not smallgap(make_set([1, 5, 6, 8, 10]))
        assert smallgap(make_set([2, 5, 6, 8, 10]))

    def test_preconditions(self):
        for predicate in (superincreasing_tail, smallgap):
            with pytest.raises(ValueError, match="k >= 4"):
                predicate(make_set([1, 2, 3]))
            with pytest.raises(ValueError, match="positive"):
                predicate(make_set([0, 1, 2, 3]))


class TestFormulaRelations:
    def test_optimal_beats_general_inside_window(self):
        for k in range(4, 12):
            for h in range(3, k):
                assert (optimal_bound_positive(h, k).value
                        > general_bound(h, k, False).value)

    def test_family_gap_is_h(self):
        for k in range(5, 12):
            for h in range(3, k):
                assert (optimal_bound_positive(h, k).value
                        - optimal_bound_zero(h, k).value) == h

    def test_ap_equal_branch_matches_optimal(self):
        for k in range(4, 10):
            for h in range(3, k):
                assert (ap_cardinality_bound(h, k, True)
                        == optimal_bound_positive(h, k).value)

    def test_interval_cardinality_matches_zero_optimal(self):
        for k in range(5, 10):
            for h in range(4, k):
                lo, hi = zero_ap_interval(h, k)
                assert hi - lo + 1 == optimal_bound_zero(h, k).value


class TestCatalogue:
    def test_names_at_full_window(self):
        names = {f.name for f in catalogue(4, 6)}
        assert names == {"general-positive", "general-zero",
                         "optimal-positive", "optimal-zero",
                         "ap-equal-difference", "ap-other-difference",
                         "zero-ap-interval"}

    def test_narrow_windows(self):
        names = {f.name for f in catalogue(2, 3)}
        assert names == {"general-positive", "general-zero"}
        assert catalogue(5, 3) == []

    def test_serialization(self):
        f = general_bound(2, 4, False)
        assert f.to_dict() == {"name": "general-positive", "value": f.value,
                               "hypothesis": f.hypothesis, "sharp": True}
