"""The report records and the value classes they hold: immutability,
pickling, equality, reprs and the JSON bytes of each ``to_dict``."""

import json
import pickle

import pytest

from signedsum import (Family, IntegerSet, Operator, SearchRecord,
                       SearchSpace, StructureClass, StructureKind,
                       check_ap_iff, check_direct, check_inverse,
                       check_partial_inverse, check_prefix_decomposition,
                       classify_structure, compute_sumset, make_set,
                       optimal_bound_zero, random_probe)

ODD_AP = make_set([1, 3, 5, 7, 9])


def primitive_space():
    return SearchSpace(k=5, h=4, max_element=10, family=Family.POSITIVE,
                       filter_id="primitive")


def search_record():
    return SearchRecord(ODD_AP, 25, 0, True, classify_structure(ODD_AP))


class TestImmutability:
    @pytest.mark.parametrize("make, field", [
        (lambda: ODD_AP, "elements"),
        (primitive_space, "k"),
        (search_record, "cardinality"),
        (lambda: check_direct(ODD_AP, 4), "slack"),
    ])
    def test_fields_cannot_be_assigned(self, make, field):
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            setattr(value, "extra", 0)
        assert getattr(value, field) == getattr(make(), field)

    def test_a_set_cannot_lose_its_elements(self):
        with pytest.raises(AttributeError):
            del ODD_AP.elements
        assert ODD_AP.elements == (1, 3, 5, 7, 9)


class TestPickling:
    # a spawn-started sweep worker receives its space by pickle
    @pytest.mark.parametrize("make", [lambda: ODD_AP, primitive_space,
                                      search_record])
    def test_round_trip_is_equal(self, make):
        value = make()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert type(copy) is type(value)
            assert copy == value and hash(copy) == hash(value)

    def test_a_space_is_validated_when_unpickled(self):
        data = pickle.dumps(primitive_space())
        assert pickle.loads(data).filter_id == "primitive"
        bad = data.replace(b"primitive", b"primitivX")
        with pytest.raises(ValueError, match="unknown filter 'primitivX'"):
            pickle.loads(bad)


class TestEquality:
    def test_a_set_is_not_its_tuple(self):
        assert IntegerSet((1, 3)) != (1, 3)
        assert (1, 3) != IntegerSet((1, 3))

    def test_equal_sets_have_equal_hashes(self):
        a, b = IntegerSet((1, 3)), make_set([3, 1, 3])
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(((1, 3),))
        assert len({a, b}) == 1
        assert a != IntegerSet((1, 4))

    def test_records_are_tuples(self):
        structure = StructureClass(StructureKind.ODD_AP_DILATE, 2)
        assert structure == (StructureKind.ODD_AP_DILATE, 2)
        kind, d = structure
        assert (kind, d, structure[1]) == (StructureKind.ODD_AP_DILATE, 2, 2)
        assert structure._fields == ("kind", "d")
        assert structure._replace(d=3).d == 3

    def test_spaces_validate_in_order(self):
        with pytest.raises(ValueError, match="3 <= h <= k-1"):
            SearchSpace(k=5, h=5, max_element=3, family=Family.POSITIVE,
                        filter_id="none")
        with pytest.raises(ValueError, match="^unknown filter 'none'$"):
            SearchSpace(k=5, h=4, max_element=3, family=Family.POSITIVE,
                        filter_id="none")
        with pytest.raises(ValueError, match="^space smaller than k$"):
            SearchSpace(5, 4, 3, Family.POSITIVE)

    def test_replace_makes_a_validated_space(self):
        space = primitive_space()._replace(max_element=12)
        assert type(space) is SearchSpace and space.size() == 786
        with pytest.raises(ValueError, match="^space smaller than k$"):
            space._replace(max_element=4)


class TestRepr:
    def test_set(self):
        assert repr(IntegerSet((1, 3))) == "IntegerSet(elements=(1, 3))"

    def test_space(self):
        assert repr(primitive_space()) == (
            "SearchSpace(k=5, h=4, max_element=10, "
            "family=<Family.POSITIVE: 'positive'>, filter_id='primitive')")


class TestJsonBytes:
    def test_bound_formula(self):
        assert json.dumps(optimal_bound_zero(4, 6).to_dict()) == (
            '{"name": "optimal-zero", "value": 29, "hypothesis": "k >= 5 '
            'nonnegative elements with 0 in A, 3 <= h <= k-1", "sharp": true}')

    def test_bound_report_with_structure(self):
        a = make_set([2, 6, 10, 14, 18])
        assert json.dumps(check_direct(a, 4).to_dict(
            classify_structure(a))) == (
            '{"set": [2, 6, 10, 14, 18], "h": 4, "operator": '
            '"restricted-signed", "cardinality": 25, "bound_name": '
            '"optimal-positive", "bound_value": 25, "slack": 0, '
            '"equality": true, "structure": {"kind": "ODD_AP_DILATE", '
            '"d": 2}}')

    def test_inverse_verdict(self):
        assert json.dumps(check_inverse(make_set([0, 1, 2, 4, 6]), 4)
                          .to_dict()) == (
            '{"equality_holds": true, "structure": {"kind": "NONE", '
            '"d": null}, "structure_matches": false}')

    def test_prefix_decomposition_report(self):
        report = check_prefix_decomposition(make_set([1, 3, 5, 7, 10]), 3)
        assert json.dumps(report.to_dict()) == (
            '{"family": "positive", "set": [1, 3, 5, 7, 10], "h": 3, '
            '"prefix": [1, 3, 5, 7], "prefix_cardinality": 16, '
            '"threshold": 16, "t": 0, "applicable": true, '
            '"asserted_bound": 22, "cardinality": 37, "holds": true}')

    def test_condition_check(self):
        checks = check_partial_inverse(make_set([1, 3, 5, 7, 9, 11]), 5)
        assert json.dumps(checks[2].to_dict()) == (
            '{"condition": "c", "applicable": false, '
            '"conclusion_verified": null}')
        assert json.dumps(checks[3].to_dict()) == (
            '{"condition": "d", "applicable": true, '
            '"conclusion_verified": true}')

    def test_ap_iff_report(self):
        assert json.dumps(check_ap_iff(2, 3, 3).to_dict()) == (
            '{"a1": 2, "d": 3, "h": 3, "set": [2, 5, 8, 11], '
            '"cardinality": 24, "target": 16, "d_is_twice_min": false, '
            '"equality_observed": false, "iff_holds": true, "holds": true}')

    def test_sumset_result_with_sums(self):
        a, op = make_set([1, 2, 4]), Operator.RESTRICTED_SIGNED
        assert json.dumps(compute_sumset(a, 2, op).to_dict(
            a, 2, op, include_sums=True)) == (
            '{"operator": "restricted-signed", "h": 2, "set": [1, 2, 4], '
            '"cardinality": 10, "min": -6, "max": 6, '
            '"sums": [-6, -5, -3, -2, -1, 1, 2, 3, 5, 6]}')

    def test_probe_summary(self, monkeypatch):
        # a bound of 33, not 25, gives the probe a violation to print
        space = SearchSpace(k=5, h=4, max_element=10, family=Family.POSITIVE)
        raised = space.bound()._replace(value=33)
        monkeypatch.setattr(SearchSpace, "bound", lambda self: raised)
        assert json.dumps(random_probe(space, 4, 287).to_dict()) == (
            '{"space": {"k": 5, "h": 4, "max_element": 10, "family": '
            '"positive", "filter": null}, "bound": 33, "trials": 4, '
            '"seed": 287, "min_slack": -2, "violation_count": 1, '
            '"violations": [{"set": [1, 2, 4, 6, 8], "cardinality": 31, '
            '"slack": -2, "equality": false, "structure": {"kind": "NONE", '
            '"d": null}}], "equality_count": 1, '
            '"equality_sets": [[1, 2, 3, 4, 7]]}')
