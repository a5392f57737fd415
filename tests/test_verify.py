from collections import Counter

import pytest

from signedsum import (ConditionCheck, Family, StructureKind, check_ap_iff,
                       check_direct, check_inverse, check_partial_inverse,
                       check_prefix_decomposition, check_special_direct,
                       classify_structure, compute_sumset,
                       compute_sumset_naive, is_arithmetic_progression,
                       make_set, sumset_cardinality, verify)
from signedsum.engine import Operator, _check_instance, _sparse
from test_engine import WIDE_SHORT_SETS

# Exact cardinalities of |4^+-A| for the five-element boundary cases worked
# out in the k=5 analysis: sets one or more gaps away from the extremal
# family, each strictly above the bound 25. Values frozen from the naive
# enumeration oracle.
KNOWN_SLACK_CASES = {
    (1, 2, 4, 6, 8): 31,
    (1, 7, 9, 11, 13): 33,
    (1, 5, 7, 9, 11): 31,
    (1, 3, 7, 9, 11): 31,
    (1, 3, 5, 9, 11): 29,
    (1, 3, 5, 7, 11): 27,
    (1, 3, 5, 7, 13): 29,
    (1, 3, 5, 7, 15): 31,
    (1, 3, 5, 7, 19): 35,
    (1, 3, 5, 7, 21): 37,
    (1, 2, 8, 10, 12): 42,
    (1, 2, 3, 5, 7): 33,
    (1, 2, 4, 8, 10): 37,
    (1, 2, 4, 6, 10): 34,
    (1, 3, 4, 8, 10): 49,
    (1, 3, 4, 6, 10): 45,
    (1, 3, 4, 6, 12): 49,
    (1, 3, 5, 6, 7): 37,
    (1, 2, 3, 4, 7): 33,
    (1, 2, 3, 4, 9): 37,
    (2, 3, 5, 7, 15): 45,
    (1, 2, 3, 4, 6): 31,
    (1, 2, 3, 4, 8): 35,
    (1, 2, 3, 4, 10): 39,
    (3, 5, 9, 11, 15): 39,
    (2, 4, 5, 7, 9): 47,
}


class TestCheckDirect:
    def test_positive_equality_case(self):
        report = check_direct(make_set([1, 3, 5, 7, 9]), 4)
        assert report.cardinality == 25
        assert report.bound_value == 25
        assert report.bound_name == "optimal-positive"
        assert report.slack == 0
        assert report.equality
        assert report.holds

    def test_zero_equality_case(self):
        report = check_direct(make_set([0, 1, 2, 3, 4]), 4)
        assert report.cardinality == 21
        assert report.bound_value == 21
        assert report.bound_name == "optimal-zero"
        assert report.equality

    def test_strict_slack_case(self):
        report = check_direct(make_set([1, 2, 4, 6, 10]), 4)
        assert report.cardinality == 34
        assert report.slack == 9
        assert not report.equality

    def test_mixed_sign_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            check_direct(make_set([-1, 3, 5, 7, 9]), 4)

    def test_window_errors_name_the_hypothesis(self):
        with pytest.raises(ValueError, match="k >= 4"):
            check_direct(make_set([1, 2, 3]), 4)
        with pytest.raises(ValueError, match="k >= 5"):
            check_direct(make_set([0, 1, 2, 3]), 3)

    def test_report_serialization(self):
        d = check_direct(make_set([1, 3, 5, 7, 9]), 4).to_dict()
        assert d["set"] == [1, 3, 5, 7, 9]
        assert d["operator"] == "restricted-signed"
        assert d["slack"] == 0 and d["equality"] is True
        assert d["structure"] is None


class TestCheckInverse:
    def test_equality_matches_odd_dilate(self):
        verdict = check_inverse(make_set([2, 6, 10, 14, 18]), 4)
        assert verdict.equality_holds
        assert verdict.report == check_direct(make_set([2, 6, 10, 14, 18]), 4)
        assert verdict.predicted_structure.kind is StructureKind.ODD_AP_DILATE
        assert verdict.predicted_structure.d == 2
        assert verdict.structure_matches is True

    def test_no_equality_leaves_match_undefined(self):
        verdict = check_inverse(make_set([1, 3, 5, 7, 11]), 4)
        assert not verdict.equality_holds
        assert verdict.structure_matches is None

    def test_zero_family_match(self):
        verdict = check_inverse(make_set([0, 2, 4, 6, 8]), 4)
        assert verdict.equality_holds
        assert verdict.predicted_structure.kind is StructureKind.ZERO_AP_DILATE
        assert verdict.structure_matches is True

    def test_zero_family_equality_outside_dilate_family(self):
        # {0,1,2,4,6} attains the bound 21 without being d*[0,4]: the
        # checker must surface the mismatch, not mask it.
        verdict = check_inverse(make_set([0, 1, 2, 4, 6]), 4)
        assert verdict.equality_holds
        assert verdict.predicted_structure.kind is StructureKind.NONE
        assert verdict.structure_matches is False


class TestPrefixDecomposition:
    def test_positive_equality_chain(self):
        report = check_prefix_decomposition(make_set([1, 3, 5, 7, 9, 11]), 4)
        assert report.family == "positive"
        assert report.prefix.elements == (1, 3, 5, 7, 9)
        assert report.prefix_cardinality == 25
        assert report.t == 0
        assert report.applicable
        assert report.asserted_bound == 33
        assert report.cardinality == 33
        assert report.holds

    def test_positive_surplus_case(self):
        report = check_prefix_decomposition(make_set([1, 2, 3, 4, 5, 6]), 4)
        assert report.prefix_cardinality == 29
        assert report.t == 4
        assert report.asserted_bound == 37
        assert report.cardinality == 37
        assert report.holds

    def test_zero_family_interval_case(self):
        report = check_prefix_decomposition(make_set([0, 1, 2, 3, 4, 5]), 4)
        assert report.family == "zero"
        assert report.prefix.elements == (0, 1, 2, 3, 4)
        assert report.threshold == 21
        assert report.t == 0
        assert report.asserted_bound == 29
        assert report.cardinality == 29
        assert report.holds

    def test_negative_surplus_is_not_applicable(self):
        # |3^+-{0,1,2,4}| = 12 sits below the zero-family threshold 13
        report = check_prefix_decomposition(make_set([0, 1, 2, 4, 9, 15]), 3)
        assert report.prefix.elements == (0, 1, 2, 4)
        assert report.prefix_cardinality == 12
        assert report.t == -1
        assert not report.applicable
        assert report.asserted_bound is None
        assert report.holds is None

    def test_window_errors(self):
        with pytest.raises(ValueError):
            check_prefix_decomposition(make_set([1, 2, 3, 4, 5]), 5)
        with pytest.raises(ValueError, match="k >= 5"):
            check_prefix_decomposition(make_set([0, 1, 2, 3]), 3)


def _by_condition(checks):
    return {c.condition: c for c in checks}


class TestPartialInverse:
    def test_extremal_set_triggers_most_conditions(self):
        checks = _by_condition(check_partial_inverse(
            make_set([1, 3, 5, 7, 9, 11]), 4))
        assert checks["a"].applicable and checks["a"].conclusion_verified
        assert checks["b"].applicable and checks["b"].conclusion_verified
        # condition (c) carries the window 4 <= h <= k-3, unavailable at k=6
        assert not checks["c"].applicable
        assert checks["c"].conclusion_verified is None
        assert checks["d"].applicable and checks["d"].conclusion_verified
        assert checks["e"].applicable and checks["e"].conclusion_verified

    def test_condition_c_window_opens_at_k7(self):
        checks = _by_condition(check_partial_inverse(
            make_set([1, 3, 5, 7, 9, 11, 13]), 4))
        assert checks["c"].applicable
        assert checks["c"].conclusion_verified is True

    def test_no_equality_leaves_conditions_untriggered(self):
        checks = check_partial_inverse(make_set([1, 2, 4, 8, 16, 32]), 4)
        assert all(c.conclusion_verified is None for c in checks)
        assert not any(c.applicable for c in checks)

    def test_ap_prefix_without_equality(self):
        checks = _by_condition(check_partial_inverse(
            make_set([1, 3, 5, 7, 9, 13]), 4))
        assert checks["b"].applicable
        assert checks["b"].conclusion_verified is None

    def test_dilated_extremal_set(self):
        checks = _by_condition(check_partial_inverse(
            make_set([3, 9, 15, 21, 27, 33]), 4))
        assert checks["a"].applicable
        assert checks["a"].conclusion_verified is True

    def test_zero_family_extremal_set(self):
        checks = _by_condition(check_partial_inverse(
            make_set([0, 2, 4, 6, 8, 10]), 4))
        for cond in ("a", "b", "d", "e"):
            assert checks[cond].applicable, cond
            assert checks[cond].conclusion_verified is True, cond
        assert not checks["c"].applicable

    def test_bound_attaining_set_outside_family_satisfies_no_condition(self):
        # the zero-family equality case {0,1,2,4,6} is NONE-structured, and
        # consistently fails every side condition of the conditional theorem
        checks = check_partial_inverse(make_set([0, 1, 2, 4, 6]), 4)
        assert all(not c.applicable for c in checks)
        assert all(c.conclusion_verified is None for c in checks)

    def test_window_error(self):
        with pytest.raises(ValueError, match="4 <= h <= k-1"):
            check_partial_inverse(make_set([1, 3, 5, 7, 9]), 3)

    @pytest.mark.parametrize("elements", [(1, 3, 5, 7, 9, 11),
                                          (0, 1, 2, 4, 6),
                                          (1, 2, 4, 8, 16, 32)])
    def test_one_pass_over_a_and_one_dp_on_its_tail(self, monkeypatch,
                                                    elements):
        # A and its prefix share one pass for their sizes; only when A
        # minus its least element is a progression does condition (d) need
        # sums, from one restricted DP on that tail and one restricted
        # signed DP on the prefix
        calls = []

        def counted(name, fn):
            def wrapper(a, h, *args, **kwargs):
                calls.append((name, a.elements, *args))
                return fn(a, h, *args, **kwargs)
            return wrapper

        for name in ("compute_sumset", "sumset_cardinality",
                     "prefix_sumsets"):
            monkeypatch.setattr(verify, name,
                                counted(name, getattr(verify, name)))
        a = make_set(elements)
        check_partial_inverse(a, 4)
        tail_dp = [("compute_sumset", a.without_min().elements,
                    Operator.RESTRICTED),
                   ("compute_sumset", a.prefix(5).elements,
                    Operator.RESTRICTED_SIGNED)]
        assert Counter(calls) == Counter([
            ("prefix_sumsets", a.elements),
            *(tail_dp if elements == (1, 3, 5, 7, 9, 11) else []),
        ])

    def test_matches_a_reference_with_two_dps(self):
        # the conditions as computed from separate DPs on the prefix and on
        # A, on both backends, at every h in the window, h = k - 1 (where
        # the prefix is A) included; the last two sets have a progression
        # for a tail but are none themselves, so (d) is false on some
        # progression tails: {1,4,6,8,10,12} (bitset) at h = 4, and the
        # other (set-based) at h = 4, 5
        rs = Operator.RESTRICTED_SIGNED
        backends, d_on_ap_tails = set(), set()
        for elements in [s for s in WIDE_SHORT_SETS if min(s) >= 0] + [
                [1, 3, 5, 7, 9, 11, 13], [0, 2, 4, 6, 8, 10],
                [0, 1, 2, 4, 6], [1, 2, 4, 8, 16, 32], [1, 3, 5, 7, 9, 13],
                [2, 3, 5, 8, 13, 21, 34, 55], [1, 4, 6, 8, 10, 12],
                [50_001] + [120_007 + 70_001 * i for i in range(6)]]:
            a = make_set(elements)
            for h in range(4, a.k):
                backends.add(_sparse(a.k, h, rs, _check_instance(a, h, rs)))
                prefix, tail = a.prefix(h + 1), a.without_min()
                full = set(compute_sumset(a, h, rs).sums)
                head = set(compute_sumset(prefix, h, rs).sums)
                restricted = set(compute_sumset(
                    tail, h, Operator.RESTRICTED).sums)
                family = Family.of(a)
                surplus = len(head) >= family.prefix_base(h)
                tail_is_ap = is_arithmetic_progression(tail)
                applicable = {
                    "a": is_arithmetic_progression(a),
                    "b": is_arithmetic_progression(prefix),
                    "c": surplus and 4 <= h <= a.k - 3,
                    "d": (full == restricted | {-x for x in restricted} | head
                          and tail_is_ap),
                    "e": surplus and tail_is_ap,
                }
                if tail_is_ap:
                    d_on_ap_tails.add(applicable["d"])
                equality = len(full) == family.optimal_bound(h, a.k).value
                conclusion = classify_structure(a).kind is family.extremal
                assert check_partial_inverse(a, h) == [
                    ConditionCheck(cond, ok,
                                   conclusion if equality and ok else None)
                    for cond, ok in applicable.items()], (elements, h)
        assert backends == {False, True}
        assert d_on_ap_tails == {False, True}


class TestSpecialDirect:
    def test_superincreasing_case(self):
        report = check_special_direct(make_set([1, 5, 6, 11, 17]), 4)
        assert report.cardinality == 47
        assert report.bound_value == 26
        assert report.holds

    def test_smallgap_case(self):
        report = check_special_direct(make_set([3, 4, 5, 6, 7]), 4)
        assert report.cardinality == 41
        assert report.holds

    def test_consecutive_run_satisfies_smallgap(self):
        report = check_special_direct(make_set([1, 2, 3, 4, 5]), 4)
        assert report.cardinality == 29

    def test_second_smallgap_case(self):
        report = check_special_direct(make_set([2, 3, 4, 5, 6]), 4)
        assert report.cardinality == 37

    def test_neither_predicate_holds(self):
        with pytest.raises(ValueError, match="hypothesis not satisfied"):
            check_special_direct(make_set([1, 2, 5, 6, 7]), 4)

    def test_cardinality_mismatch_rejected(self):
        with pytest.raises(ValueError, match="k = h"):
            check_special_direct(make_set([1, 2, 4, 6, 10, 18]), 4)


class TestApIff:
    def test_equal_difference_attains_square(self):
        report = check_ap_iff(1, 2, 4)
        assert report.set.elements == (1, 3, 5, 7, 9)
        assert report.cardinality == 25
        assert report.target == 25
        assert report.d_is_twice_min
        assert report.iff_holds and report.holds

    def test_other_difference_exceeds_square(self):
        report = check_ap_iff(1, 3, 3)
        assert report.cardinality == 24
        assert report.target == 16
        assert not report.d_is_twice_min
        assert not report.equality_observed
        assert report.iff_holds and report.holds

    def test_dilated_equal_difference(self):
        report = check_ap_iff(2, 4, 4)
        assert report.cardinality == 25
        assert report.holds

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_ap_iff(0, 2, 4)
        with pytest.raises(ValueError):
            check_ap_iff(1, 0, 4)
        with pytest.raises(ValueError, match="h >= 3"):
            check_ap_iff(1, 2, 2)


class TestWorkedBoundaryCases:
    def test_frozen_cardinalities(self):
        for elements, expected in KNOWN_SLACK_CASES.items():
            a = make_set(elements)
            assert sumset_cardinality(
                a, 4, Operator.RESTRICTED_SIGNED) == expected, elements
            assert expected >= 26

    def test_one_frozen_value_against_oracle(self):
        a = make_set([1, 2, 4, 6, 10])
        assert compute_sumset_naive(
            a, 4, Operator.RESTRICTED_SIGNED).cardinality == 34
