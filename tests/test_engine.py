import importlib.util
import itertools
import random
from functools import cache
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from signedsum import (Family, IntegerSet, Operator, SearchSpace, cli,
                       compute_sumset, compute_sumset_naive, dilate, engine,
                       make_set, search, sumset_cardinality, verify)
from signedsum.engine import (MAX_DP_BITS, PACKED_BITS, SPARSE_WEIGHT,
                              _caps, _check_instance, _decode, _guard, _rows,
                              _shift, _sparse, _vector_count, leaf_counts,
                              naive_vector_count, prefix_cardinalities,
                              prefix_sumsets)

RS = Operator.RESTRICTED_SIGNED
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# the three paths of a single-set pass, each as (_sparse's answer,
# PACKED_BITS) forcing it: the packed path runs restricted signed
# instances alone, so under a forced "packed" the other three operators
# take the row list
PATHS = {"set-based": (True, 0), "packed": (False, MAX_DP_BITS),
         "rows": (False, 0)}


def force(monkeypatch, path):
    """Send every single-set pass down ``path``, one of ``PATHS``."""
    sparse, packed_bits = PATHS[path]
    monkeypatch.setattr(engine, "_sparse", lambda *args: sparse)
    monkeypatch.setattr(engine, "PACKED_BITS", packed_bits)


def record_paths(monkeypatch):
    """The list, filled as passes run, of the path each single-set pass
    takes: its ``_sparse`` call appends "set-based" or "packed", and a
    bitset pass that then calls ``_rows`` is "rows". Only for code that
    runs no sweep walk, whose head also calls ``_rows``. A ``_sparse``
    forced before is kept."""
    paths = []
    choose = engine._sparse

    def sparse(*args):
        paths.append("set-based" if choose(*args) else "packed")
        return paths[-1] == "set-based"

    def rows(*args):
        if paths[-1] == "packed":
            paths[-1] = "rows"
        return _rows(*args)

    monkeypatch.setattr(engine, "_sparse", sparse)
    monkeypatch.setattr(engine, "_rows", rows)
    return paths


def walk(*args):
    """The ``(candidate, cardinality)`` pairs of the walk's runs, in order."""
    return [(run[0] + (a,), card)
            for run in prefix_cardinalities(*args)
            for a, card in zip(run[3], leaf_counts(run))]


class TestRestrictedSigned:
    def test_flagship_equality_case(self):
        result = compute_sumset(make_set([1, 3, 5, 7, 9]), 4, RS)
        assert result.cardinality == 25

    def test_fold_one_is_set_union_negation(self):
        result = compute_sumset(make_set([2, 5, 9]), 1, RS)
        assert result.sums == (-9, -5, -2, 2, 5, 9)
        assert result.cardinality == 6

    def test_three_element_pairs(self):
        result = compute_sumset(make_set([1, 2, 3]), 2, RS)
        assert result.sums == (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)

    def test_zero_based_progression_fills_interval(self):
        result = compute_sumset(make_set(range(6)), 4, RS)
        assert result.sums == tuple(range(-14, 15))
        assert result.cardinality == 29
        assert result.min_sum == -14
        assert result.max_sum == 14

    def test_superincreasing_sign_patterns(self):
        result = compute_sumset(make_set([1, 2, 4]), 3, RS)
        assert result.sums == (-7, -5, -3, -1, 1, 3, 5, 7)

    def test_max_sum_is_sum_of_h_largest(self):
        a = make_set([2, 3, 7, 11, 19])
        for h in range(1, 6):
            assert compute_sumset(a, h, RS).max_sum == sum(a.elements[-h:])


class TestOtherOperators:
    def test_restricted_progression(self):
        result = compute_sumset(make_set([1, 2, 3, 4]), 2, Operator.RESTRICTED)
        assert result.sums == (3, 4, 5, 6, 7)

    def test_signed_pair(self):
        result = compute_sumset(make_set([1, 2]), 2, Operator.SIGNED)
        assert result.sums == (-4, -3, -2, -1, 1, 2, 3, 4)

    def test_classical_singleton(self):
        assert compute_sumset(make_set([7]), 1, Operator.CLASSICAL).sums == (7,)

    def test_classical_allows_fold_beyond_cardinality(self):
        assert compute_sumset(make_set([7]), 3, Operator.CLASSICAL).sums == (21,)

    def test_signed_allows_fold_beyond_cardinality(self):
        assert compute_sumset(make_set([7]), 3, Operator.SIGNED).sums == (-21, 21)


class TestPreconditions:
    def test_restricted_fold_exceeding_cardinality(self):
        for op in (Operator.RESTRICTED, RS):
            with pytest.raises(ValueError, match="h exceeds"):
                compute_sumset(make_set([1, 2]), 3, op)

    def test_fold_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            compute_sumset(make_set([1, 2]), 0, RS)

    def test_range_overflow_rejected(self):
        with pytest.raises(ValueError, match="range overflow"):
            compute_sumset(make_set([1, 2**41]), 1, RS)
        with pytest.raises(ValueError, match="range overflow"):
            compute_sumset(make_set([2**39]), 4, Operator.SIGNED)

    def test_dp_size_limit_counts_rows_and_width(self):
        # (h + 1) rows of 2 * half_width + 1 bits; nothing is allocated
        assert MAX_DP_BITS == 2**30
        _guard(3, 5, True, 2**27 - 1)  # 4 * (2**28 - 1) bits
        with pytest.raises(ValueError, match="range overflow"):
            _guard(3, 5, True, 2**27)  # 4 * (2**28 + 1) bits
        _guard(2**30 - 1, 1, False, 0)  # 2**30 rows of one bit
        with pytest.raises(ValueError, match="range overflow"):
            _guard(2**30, 1, False, 0)

    def test_oracle_refuses_oversized_instances(self):
        a = make_set(range(1, 31))
        assert naive_vector_count(30, 15, RS) > 10**8
        with pytest.raises(ValueError, match="too large for oracle"):
            compute_sumset_naive(a, 15, RS)


class TestRestrictedHalfWidth:
    @pytest.mark.parametrize("op", [Operator.RESTRICTED, RS])
    def test_bitset_rows_hold_every_sum_of_the_h_largest(self, op,
                                                         monkeypatch):
        # on the bitset DP, forced packed and on the row list, with the
        # half-width at the sum of the h largest |a_i|, for every h < k,
        # negatives and 0 included
        for path in ("packed", "rows"):
            force(monkeypatch, path)
            rng = random.Random(29)
            checked = 0
            for _ in range(200):
                a = make_set(rng.sample(range(-60, 61), rng.randint(2, 8)))
                for h in range(1, a.k):
                    half_width = _check_instance(a, h, op)
                    assert half_width == sum(sorted(abs(x)
                                                    for x in a.elements)[-h:])
                    fast = compute_sumset(a, h, op)
                    assert fast == compute_sumset_naive(a, h, op), (a, h, op,
                                                                    path)
                    if op is RS:  # the widest sum reaches the rows' edge
                        assert fast.max_sum == half_width
                    checked += 1
            assert checked > 500

    def test_unrestricted_operators_keep_h_times_the_largest(self):
        a = make_set([-9, 2, 5])
        for op in (Operator.CLASSICAL, Operator.SIGNED):
            assert _check_instance(a, 4, op) == 36


class TestOracleAgreement:
    def test_exhaustive_small_sets(self):
        for k in range(1, 5):
            for elements in itertools.combinations(range(-4, 5), k):
                a = make_set(elements)
                for h in range(1, k + 1):
                    for op in Operator:
                        fast = compute_sumset(a, h, op)
                        slow = compute_sumset_naive(a, h, op)
                        assert fast.sums == slow.sums, (elements, h, op)

    def test_random_midsize_sets(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            k = rng.randint(1, 12)
            a = make_set(rng.sample(range(-40, 41), k))
            h = rng.randint(1, k)
            for op in Operator:
                fast = compute_sumset(a, h, op)
                slow = compute_sumset_naive(a, h, op)
                assert fast.sums == slow.sums

    def test_fold_beyond_cardinality_for_unrestricted_operators(self):
        for k in range(1, 4):
            for elements in itertools.combinations(range(-5, 6), k):
                a = make_set(elements)
                for h in range(k + 1, k + 4):
                    for op in (Operator.CLASSICAL, Operator.SIGNED):
                        fast = compute_sumset(a, h, op)
                        slow = compute_sumset_naive(a, h, op)
                        assert fast.sums == slow.sums, (elements, h, op)

    def test_vector_count_matches_enumeration(self):
        # every vector in [-h, h]^k, kept by each operator's own rule
        admits = {
            Operator.CLASSICAL: lambda lam: min(lam) >= 0,
            Operator.RESTRICTED: lambda lam: set(lam) <= {0, 1},
            Operator.SIGNED: lambda lam: True,
            RS: lambda lam: set(lam) <= {-1, 0, 1},
        }
        cases = [(k, h) for k in range(1, 7) for h in range(1, 5)]
        cases += [(k, h) for k in range(1, 5) for h in (5, 6)]
        for k, h in cases:
            weights = {}
            for lam in itertools.product(range(-h, h + 1), repeat=k):
                w = sum(map(abs, lam))
                if 1 <= w <= h:
                    weights.setdefault(w, []).append(lam)
            for op, admit in admits.items():
                seen = [sum(1 for lam in weights.get(w, ()) if admit(lam))
                        for w in range(1, h + 1)]
                assert naive_vector_count(k, h, op) == seen[-1], (op, k, h)
                assert _vector_count(k, h, op) == sum(seen), (op, k, h)

    def test_vector_count_identities(self):
        for k in range(1, 31):
            for h in range(1, 41):
                # Vandermonde: sum over s of C(k, s) C(h, s) = C(k + h, h)
                assert (_vector_count(k, h, Operator.CLASSICAL)
                        == comb(k + h, h) - 1), (k, h)
                # the paper's count of restricted signed vectors
                assert naive_vector_count(k, h, RS) == comb(k, h) * 2**h, (
                    k, h)

    def test_restricted_counts_stop_at_k(self):
        for op in (Operator.RESTRICTED, RS):
            for k in range(1, 16):
                for h in range(k + 1, k + 6):
                    assert naive_vector_count(k, h, op) == 0, (op, k, h)
                    assert _vector_count(k, h, op) == _vector_count(
                        k, k, op), (op, k, h)


class TestStructuralProperties:
    def test_signed_results_are_symmetric(self):
        a = make_set([3, 4, 9, 11])
        for op in (Operator.SIGNED, RS):
            sums = compute_sumset(a, 3, op).sums
            assert sorted(-x for x in sums) == list(sums)

    def test_dilation_invariance(self):
        a = make_set([1, 4, 6, 9])
        base = compute_sumset(a, 3, RS)
        for c in (2, 5, -3):
            scaled = compute_sumset(dilate(a, c), 3, RS)
            assert scaled.cardinality == base.cardinality
            assert set(scaled.sums) == {c * x for x in base.sums}

    def test_containment_chain(self):
        a = make_set([2, 3, 5, 8, 13])
        h = 3
        restricted = set(compute_sumset(a, h, Operator.RESTRICTED).sums)
        classical = set(compute_sumset(a, h, Operator.CLASSICAL).sums)
        rsigned = set(compute_sumset(a, h, RS).sums)
        signed = set(compute_sumset(a, h, Operator.SIGNED).sums)
        assert restricted <= classical
        assert restricted <= rsigned <= signed

    def test_cardinality_helper_matches_full_result(self):
        a = make_set([-4, 1, 3, 10])
        for op in Operator:
            for h in (1, 2, 3, 4):
                assert (sumset_cardinality(a, h, op)
                        == compute_sumset(a, h, op).cardinality)

    def test_serialization_shape(self):
        a = make_set([1, 3])
        result = compute_sumset(a, 2, RS)
        d = result.to_dict(a, 2, RS, include_sums=True)
        assert d == {
            "operator": "restricted-signed",
            "h": 2,
            "set": [1, 3],
            "cardinality": result.cardinality,
            "min": result.min_sum,
            "max": result.max_sum,
            "sums": list(result.sums),
        }
        assert "sums" not in result.to_dict(a, 2, RS)


# A few elements near 10^5 to 10^7, as the checkers of the paper's
# restricted-h theorems see them: odd-AP and zero-based AP dilates, a
# superincreasing 6-set, a superincreasing-tail 5-set, a generic 8-set and
# a set with negatives and zero.
WIDE_SHORT_SETS = [
    [63_001 * (2 * i + 1) for i in range(8)],
    [138_001 * i for i in range(8)],
    [114_819, 170_912, 227_330, 401_051, 639_893, 1_047_501],
    [100_003, 155_011, 210_029, 365_041, 575_069],
    [1_000_003 * i + 7_919 * i * i for i in range(1, 9)],
    [-2_000_029, -1_000_003, 0, 1_000_033, 3_000_017],
]


class TestWideShortSets:
    @pytest.mark.parametrize("elements", WIDE_SHORT_SETS)
    @pytest.mark.parametrize("op", list(Operator))
    def test_dispatched_path_matches_oracle(self, elements, op):
        a = make_set(elements)
        for h in range(1, min(a.k, 5) + 1):
            fast = compute_sumset(a, h, op)
            assert fast.sums == compute_sumset_naive(a, h, op).sums, (h, op)
            assert sumset_cardinality(a, h, op) == fast.cardinality


# loop_cost makes about a million calls, over more (j, w, op) keys than the
# engine's bounded cache of counts holds
cached_vector_count = cache(naive_vector_count)


def loop_cost(k, h, op, cap=None):
    """The set-based DP's sums counted term by term, one (element, row,
    coefficient) at a time: with a ``cap``, the count stops once past it."""
    signs = 2 if op.signed else 1
    total = 0
    for j in range(k):
        for w in range(h):
            vectors = cached_vector_count(j, w, op) if w else 1
            total += vectors * signs * (1 if op.restricted else h - w)
            if cap is not None and total > cap:
                return total
    return total


class TestBackendChoice:
    def test_wide_short_set_takes_the_set_based_dp(self):
        a = make_set(WIDE_SHORT_SETS[0])  # an odd-AP dilate 8-set near 10^6
        assert _sparse(8, 5, RS, _check_instance(a, 5, RS))

    def test_narrow_set_takes_the_bitset_dp(self):
        a = make_set([1, 3, 5, 7, 9])
        assert not _sparse(5, 4, RS, _check_instance(a, 4, RS))

    @pytest.mark.parametrize("target", ["ap-iff", "interval", "lemma-audit"])
    def test_reproduce_targets_stay_on_the_bitset_dp(self, target,
                                                     monkeypatch, capsys):
        # and every pass of theirs runs packed, none on the row list
        paths = record_paths(monkeypatch)
        cli.main(["reproduce", target])
        capsys.readouterr()
        assert paths and set(paths) == {"packed"}

    def test_verify_wide_batch_takes_the_set_based_dp(self, monkeypatch):
        # the benchmark's verify-wide sets for seeds 0 to 2, through the
        # five checkers as its worker runs them
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        paths = record_paths(monkeypatch)
        for seed in range(3):
            for item in workloads.verify_wide_batch(seed):
                a, h = make_set(item["set"]), item["h"]
                verify.check_direct(a, h)
                verify.check_inverse(a, h)
                verify.check_prefix_decomposition(a, h)
                verify.check_partial_inverse(a, h)
                if item["special"]:
                    verify.check_special_direct(a, h)
        assert paths and set(paths) == {"set-based"}

    def test_cost_is_the_term_by_term_count(self):
        for op in Operator:
            for k in range(1, 16):
                for h in range(1, (k if op.restricted else k + 6) + 1):
                    assert _vector_count(k, h, op) == loop_cost(k, h, op), (
                        op, k, h)

    def test_capped_count_chooses_as_the_full_one(self):
        # a count cut short above k * MAX_DP_BITS // SPARSE_WEIGHT, on sets
        # the range guard admits, long and narrow ones among them
        rng = random.Random(43)
        chosen, past_cap, admitted = set(), 0, 0
        while admitted < 2000:
            op = rng.choice(list(Operator))
            k = rng.randint(1, 12) if rng.random() < 0.5 else rng.randint(
                20, 400)
            span = max(k, rng.choice([k, 2 * k, 3 * k, 10 * k, 10**3, 10**4,
                                      10**6]))
            a = make_set(rng.sample(range(1, span + 1), k))
            h = rng.randint(1, k if op.restricted else min(k + 6, 30))
            try:
                half_width = _check_instance(a, h, op)
            except ValueError:
                continue
            admitted += 1
            cap = k * MAX_DP_BITS // SPARSE_WEIGHT
            cost = loop_cost(k, h, op, cap)
            past_cap += cost > cap
            capped = (SPARSE_WEIGHT * cost
                      < (h + 1) * k * (2 * half_width + 1))
            assert _sparse(k, h, op, half_width) == capped, (a, h, op)
            chosen.add(capped)
        assert chosen == {False, True} and past_cap > 500

    def test_set_based_dp_forms_at_most_the_cost(self):
        rng = random.Random(53)
        for _ in range(3000):
            a = make_set(rng.sample(range(-12, 25), rng.randint(1, 8)))
            op = rng.choice(list(Operator))
            h = rng.randint(1, a.k if op.restricted else a.k + 3)
            formed = []

            def counting(dst, src, delta, signed):
                formed.append(len(src) * (2 if signed else 1))
                return _shift(dst, src, delta, signed)

            _rows(a.elements, h, not op.restricted, op.signed, a.k,
                  frozenset((0,)), counting)
            assert sum(formed) <= _vector_count(a.k, h, op), (a, h, op)


class TestPrefixSumsetCardinality:
    def test_matches_two_separate_calls_on_both_backends(self):
        # With k >= h + 2 the later elements grow the set-based row h in
        # place after the prefix, so the prefix's size must be read first.
        cases = set()
        for elements in WIDE_SHORT_SETS + [[1, 3, 5, 7, 9, 11],
                                           [0, 1, 2, 4, 9, 15],
                                           [-3, 1, 4, 6, 10], [2, 7]]:
            a = make_set(elements)
            for h in range(1, a.k):
                cases.add((_sparse(a.k, h, RS, _check_instance(a, h, RS)),
                           a.k >= h + 2))
                assert prefix_sumsets(a, h) == (
                    sumset_cardinality(a.prefix(h + 1), h, RS),
                    sumset_cardinality(a, h, RS)), (elements, h)
        assert {sparse for sparse, _ in cases} == {False, True}
        assert (True, True) in cases

    def test_matches_naive_oracle_on_small_sets(self):
        rng = random.Random(29)
        for _ in range(200):
            a = make_set(rng.sample(range(-6, 12), rng.randint(2, 7)))
            for h in range(1, a.k):
                assert prefix_sumsets(a, h) == (
                    compute_sumset_naive(a.prefix(h + 1), h, RS).cardinality,
                    compute_sumset_naive(a, h, RS).cardinality), (a, h)

    def test_set_based_head_size_is_read_before_the_row_grows(
            self, monkeypatch):
        # The set-based rows grow in place, so the prefix's size is read
        # before the later elements are offered to row h: with k >= h + 2
        # the set's sumset is strictly larger, and a head read after the
        # pass would be the set's size.
        monkeypatch.setattr(engine, "_sparse", lambda *args: True)
        rng = random.Random(59)
        for _ in range(200):
            a = make_set(rng.sample(range(15), rng.randint(3, 8)))
            for h in range(1, a.k - 1):
                head, full = prefix_sumsets(a, h)
                assert head == compute_sumset(a.prefix(h + 1), h,
                                              RS).cardinality, (a, h)
                assert full == compute_sumset(a, h, RS).cardinality
                assert head < full
                assert prefix_sumsets(a, h) == (head, full)

    def test_packed_head_size_is_read_at_the_cut(self, monkeypatch):
        # The packed state grows in place too, so with k >= h + 2 a head
        # read after the pass would be the set's size.
        force(monkeypatch, "packed")
        paths = record_paths(monkeypatch)
        rng = random.Random(61)
        for _ in range(200):
            a = make_set(rng.sample(range(15), rng.randint(3, 8)))
            for h in range(1, a.k - 1):
                head, full = prefix_sumsets(a, h)
                assert head == compute_sumset_naive(a.prefix(h + 1), h,
                                                    RS).cardinality, (a, h)
                assert full == compute_sumset_naive(a, h, RS).cardinality
                assert head < full
        assert set(paths) == {"packed"}

    def test_refuses_a_fold_without_its_prefix(self):
        a = make_set([1, 3, 5, 7, 9])
        with pytest.raises(ValueError, match="prefix needs"):
            prefix_sumsets(a, 5)
        with pytest.raises(ValueError, match="h exceeds"):
            prefix_sumsets(a, 6)
        # the range guard comes before the prefix's own refusal
        with pytest.raises(ValueError, match="range overflow"):
            prefix_sumsets(make_set([1, 2**40]), 2)
        with pytest.raises(ValueError, match="h must be a positive integer"):
            prefix_sumsets(make_set([1, 3]), 0)


@pytest.mark.parametrize("sparse", [True, False])
def test_every_entry_point_matches_the_oracle_on_either_backend(
        sparse, monkeypatch):
    # Each backend is forced on small sets with negatives and 0, so the
    # set-based one runs where the choice would never take it, and
    # prefix_sumsets on sets its only caller refuses. The bitset backend
    # runs both packed and on the row list.
    for path in ["set-based"] if sparse else ["packed", "rows"]:
        force(monkeypatch, path)
        paths = record_paths(monkeypatch)
        rng = random.Random(41)
        for _ in range(300):
            a = make_set(rng.sample(range(-7, 10), rng.randint(1, 6)))
            for op in Operator:
                for h in range(1, a.k + 1 if op.restricted else a.k + 3):
                    naive = compute_sumset_naive(a, h, op)
                    assert compute_sumset(a, h, op) == naive, (a, h, op)
                    assert sumset_cardinality(a, h, op) == naive.cardinality
            for h in range(1, a.k):
                head = compute_sumset_naive(a.prefix(h + 1), h, RS)
                full = compute_sumset_naive(a, h, RS)
                assert prefix_sumsets(a, h) == (head.cardinality,
                                                full.cardinality), (a, h)
        # under a forced "packed" the other operators take the row list
        assert set(paths) == ({"packed", "rows"} if path == "packed"
                              else {path})


def threshold_set(rng, k, h, limit, packed):
    """A k-set, mixed in sign and with 0 about half the time, whose
    restricted signed state at fold h holds the most bits up to ``limit``,
    or with ``packed`` false the fewest above it: the sum of its h largest
    |a_i| is the half-width that gives those bits, which its largest
    element, drawn last, makes up."""
    half_width = (limit // (h + 1) - 1) // 2 + (not packed)
    span = half_width // (h + 1)
    rest = rng.sample(range(-span, span + 1), k - 1)
    if rng.random() < 0.5 and 0 not in rest:
        rest[0] = 0
    largest = half_width - sum(sorted(map(abs, rest))[-(h - 1):] if h > 1
                               else ())
    return make_set(rest + [rng.choice((1, -1)) * largest])


def test_entry_points_match_the_oracle_on_both_sides_of_the_threshold(
        monkeypatch):
    # At the threshold itself, on the bitset backend, forced, as most of
    # these short sets would take the set-based one: the packed pass just
    # below and the row list just above, with the prefix read at the cut
    # where k >= h + 2. No state holds PACKED_BITS exactly, so every other
    # set is drawn against a limit that one does, to pin "at most".
    monkeypatch.setattr(engine, "_sparse", lambda *args: False)
    paths = record_paths(monkeypatch)
    rng = random.Random(67)
    grown = 0
    for i in range(60):
        k = rng.randint(2, 7)
        h = rng.randint(1, k)
        limit = (PACKED_BITS if i % 2 else
                 (h + 1) * (2 * rng.randint(100, 2000) + 1))
        monkeypatch.setattr(engine, "PACKED_BITS", limit)
        for packed in (True, False):
            a = threshold_set(rng, k, h, limit, packed)
            bits = (h + 1) * (2 * _check_instance(a, h, RS) + 1)
            assert (bits <= limit) == packed and abs(
                bits - limit) <= 2 * (h + 1), (a, h)
            assert bits == limit or i % 2 or not packed
            naive = compute_sumset_naive(a, h, RS)
            assert compute_sumset(a, h, RS) == naive, (a, h)
            assert sumset_cardinality(a, h, RS) == naive.cardinality
            calls = 2
            if h < k:
                head = compute_sumset_naive(a.prefix(h + 1), h,
                                            RS).cardinality
                assert prefix_sumsets(a, h) == (head, naive.cardinality), (
                    a, h)
                grown += head < naive.cardinality
                calls = 3
            assert paths[-calls:] == ["packed" if packed else "rows"] * calls
    assert grown > 30


class TestPackedWalk:
    @staticmethod
    def unpack(state, h, width):
        return [state >> r * width & (1 << width) - 1 for r in range(h + 1)]

    def chain(self, prefix, h, max_element, k, masked=True):
        """The packed rows of ``prefix``, each prefix of it formed from the
        one before by ``_child``, as the walk forms them."""
        width, _, lower, keep = engine._layout(h, k, max_element)
        state = engine._pack(engine._rows((), h, False, True, k,
                                          1 << h * max_element), width)
        for j, a in enumerate(prefix, 1):
            src = state & lower if masked else state
            state = engine._child(state, src, a, width, keep[j])
        return state

    def test_packed_rows_match_rows_at_every_depth(self):
        # every increasing prefix of [0, M] up to k elements, those that
        # end at M included, though the walk never extends them
        checked = 0
        for zero_based in (False, True):
            fixed = (0,) if zero_based else ()
            for k in range(4, 7):
                free = k - len(fixed)
                for max_element in (free, free + 3):
                    for h in range(1, k + 1):
                        width = engine._layout(h, k, max_element)[0]
                        seed = 1 << h * max_element
                        for size in range(1, free + 1):
                            for rest in itertools.combinations(
                                    range(1, max_element + 1), size):
                                prefix = fixed + rest
                                state = self.chain(prefix, h, max_element,
                                                   k)
                                assert self.unpack(state, h, width) == (
                                    engine._rows(prefix, h, False, True, k,
                                                 seed)), (prefix, h, k)
                                checked += 1
        assert checked > 7_000

    def test_row_h_does_not_bleed_into_itself(self):
        a = (11, 14, 15, 16, 17, 18)
        assert compute_sumset_naive(IntegerSet(a), 4, RS).cardinality == 81
        width = engine._layout(4, 6, 18)[0]
        last = self.chain(a, 4, 18, 6)
        assert self.unpack(last, 4, width)[4].bit_count() == 81
        # moving row h too puts sums of weight 5 into row h's top bits
        unmasked = self.chain(a, 4, 18, 6, masked=False)
        assert self.unpack(unmasked, 4, width)[4].bit_count() > 81
        # the walk forms the prefixes of a below the head packed
        assert dict(walk((11, 14), 4, 18, 6))[a] == 81


class TestPrefixWalk:
    @staticmethod
    def heads(max_element, k, zero_based):
        fixed = (0,) if zero_based else ()
        free = k - len(fixed)
        for pair in itertools.combinations(range(1, max_element - free + 3), 2):
            yield fixed + pair

    def test_matches_per_set_dp_on_small_spaces(self):
        for zero_based in (False, True):
            for k in range(4, 8):
                free = k - 1 if zero_based else k
                for max_element in (free, free + 1, free + 4):
                    for h in range(1, k + 1):
                        for head in self.heads(max_element, k, zero_based):
                            walked = walk(
                                head, h, max_element, k)
                            tails = itertools.combinations(
                                range(head[-1] + 1, max_element + 1),
                                k - len(head))
                            expected = [
                                (head + t, sumset_cardinality(
                                    IntegerSet(head + t), h, RS))
                                for t in tails]
                            assert walked == expected, (head, h, max_element, k)

    def test_head_may_be_short_or_whole(self):
        for head in ((), (3,), (0, 2, 5, 6)):
            walked = walk(head, 3, 9, 4)
            # an empty head starts the walk at 1
            tails = itertools.combinations(
                range(head[-1] + 1 if head else 1, 10), 4 - len(head))
            assert walked == [(head + t, sumset_cardinality(
                IntegerSet(head + t), 3, RS)) for t in tails]

    def test_whole_head_is_one_run_of_its_last_element(self):
        # k = 1 as in theorem11-small, and every h up to k
        for head, max_element in (((0,), 11), ((5,), 12), ((1, 4), 9),
                                  ((0, 2, 5, 6), 9), ((2, 3, 5, 7, 11), 13)):
            k = len(head)
            for h in range(1, k + 1):
                [run] = prefix_cardinalities(head, h, max_element, k)
                assert run[0] == head[:-1]
                assert list(run[3]) == [head[-1]]
                assert leaf_counts(run) == [sumset_cardinality(
                    IntegerSet(head), h, RS)], (head, h)

    def test_limit_prunes_only_subtrees_above_it(self):
        left_out = 0
        for zero_based in (False, True):
            for k in (5, 6):
                free = k - 1 if zero_based else k
                for max_element in (free + 1, free + 4):
                    for h in range(1, k + 1):
                        # from the family's own head the walk passes every
                        # depth below h, where only the Minkowski floor prunes
                        heads = [(0,) if zero_based else ()]
                        heads += self.heads(max_element, k, zero_based)
                        for head in heads:
                            full = walk(
                                head, h, max_element, k)
                            cards = sorted(card for _, card in full)
                            for limit in {0, cards[0], cards[len(cards) // 2],
                                          cards[-1] - 1}:
                                walked = iter(walk(
                                    head, h, max_element, k, limit))
                                kept = next(walked, None)
                                for row in full:
                                    if row == kept:
                                        kept = next(walked, None)
                                    else:
                                        assert row[1] > limit, (head, h, limit)
                                        left_out += 1
                                # the limited walk is an in-order
                                # subsequence of the full one
                                assert kept is None, (head, h, limit)
        assert left_out > 0

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_each_larger_element_adds_at_least_2h_sums(self, h):
        sizes = {}

        def size(elements):
            if elements not in sizes:
                sizes[elements] = compute_sumset_naive(
                    IntegerSet(elements), h, RS).cardinality
            return sizes[elements]

        for fixed in ((), (0,)):
            for j in range(h, 7):
                for rest in itertools.combinations(range(1, 10),
                                                   j - len(fixed)):
                    prefix = fixed + rest
                    floor = size(prefix) + 2 * h
                    for x in range(prefix[-1] + 1, 12):
                        assert size(prefix + (x,)) >= floor, (prefix, x)

    @pytest.mark.parametrize("k, h", [(4, 2), (4, 3), (5, 3), (5, 4),
                                      (6, 4), (6, 5)])
    def test_every_completion_meets_both_floors(self, k, h):
        sizes = {}

        def size(elements, fold):
            if fold == 0:
                return 1  # only the empty vector
            if (elements, fold) not in sizes:
                sizes[elements, fold] = compute_sumset_naive(
                    IntegerSet(elements), fold, RS).cardinality
            return sizes[elements, fold]

        def floor(prefix):
            j, m = len(prefix), k - len(prefix)
            floors = [size(prefix, h - w) + 2 * (w * (m - w) + 1) - 1
                      for w in range(1, min(h, m) + 1) if h - w <= j]
            if j >= h:
                floors.append(size(prefix, h) + 2 * h * m)
            return max(floors)

        # every prefix of every set is a prefix with each of its completions
        for fixed in ((), (0,)):
            for rest in itertools.combinations(range(1, 11), k - len(fixed)):
                a = fixed + rest
                card = size(a, h)
                caps = _caps(h, k, card)  # the tightest limit a is within
                for j in range(1, k):
                    prefix = a[:j]
                    assert card >= floor(prefix), (a, j)
                    # so the walk's own table never prunes a's prefixes,
                    for r, cap in caps[j]:
                        assert size(prefix, r) <= cap, (a, j, r)
                    # and it prunes the prefix below its floor
                    below = _caps(h, k, floor(prefix) - 1)[j]
                    assert any(size(prefix, r) > cap for r, cap in below)

    @pytest.mark.parametrize("k, h, family, limit, caps", [
        (5, 4, Family.POSITIVE, 25, {4: {3: 24}}),
        (7, 5, Family.POSITIVE, 46, {5: {3: 45, 4: 43, 5: 26},
                                     6: {4: 45, 5: 36}}),
        (5, 4, Family.ZERO_BASED, 21, {4: {3: 20, 4: 13}}),
    ])
    def test_caps_only_the_depths_a_prefix_can_exceed(self, k, h, family,
                                                      limit, caps):
        space = SearchSpace(k=k, h=h, max_element=14, family=family)
        assert search._prune_limit(space) == limit
        table = _caps(h, k, limit)
        assert len(table) == k + 1
        assert {j: dict(pairs) for j, pairs in enumerate(table) if pairs} == caps
        # each depth lists its rows lowest first
        assert all(list(dict(pairs)) == sorted(dict(pairs)) for pairs in table)

    def test_no_cap_prunes_nothing(self):
        # a 4-element prefix has at most C(4, 3) * 2^3 = 32 sums in row 3
        assert _caps(4, 5, 32) == ((), (), (), (), ((3, 31),), ())
        assert not any(_caps(4, 5, 33))
        for head in ((), (0,)):
            assert (walk(head, 4, 14, 5, 33)
                    == walk(head, 4, 14, 5))

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_pruned_walk_is_the_cap_table_exactly(self, family, k):
        # the walk keeps a candidate iff no prefix longer than the head,
        # short of the whole set, has a row above a cap of its depth
        fixed = family.fixed
        max_element = 2 * k + 1
        pruned = 0
        # k = 7 at h = 5 is the sweep-positive shape, where depths 5 and 6
        # carry two or three caps each; its other folds would add 2 s
        for h in range(1, k + 1) if k < 7 else (5,):
            half_width = h * max_element
            rows = {}

            def exceeds(prefix, caps):
                if prefix not in rows:
                    rows[prefix] = engine._rows(prefix, h, False, True, k,
                                                1 << half_width)
                return any(rows[prefix][r].bit_count() > cap
                           for r, cap in caps[len(prefix)])

            try:
                base = search._prune_limit(SearchSpace(
                    k=k, h=h, max_element=max_element, family=family))
            except ValueError:  # outside the family's window: a mid limit
                cards = sorted(c for _, c in walk(
                    fixed, h, max_element, k))
                base = cards[len(cards) // 2]
            for limit in (base, base - 3, 0):
                caps = _caps(h, k, limit)
                for head in [fixed, *self.heads(max_element, k, bool(fixed))]:
                    full = walk(head, h, max_element, k)
                    expected = [
                        (c, card) for c, card in full
                        if not any(exceeds(c[:j], caps)
                                   for j in range(len(head) + 1, k))]
                    walked = walk(head, h, max_element, k, limit)
                    assert walked == expected, (head, h, limit)
                    pruned += len(full) - len(walked)
        assert pruned > 0

    @pytest.mark.parametrize("family, k, h, max_element", [
        (Family.POSITIVE, 8, 6, 26), (Family.ZERO_BASED, 8, 6, 24)])
    def test_sampled_pruned_prefixes_complete_above_the_limit(
            self, family, k, h, max_element):
        # descend at random until the cap table prunes a prefix, as the
        # walk would, then complete that prefix at random several times
        limit = search._prune_limit(SearchSpace(
            k=k, h=h, max_element=max_element, family=family))
        caps = _caps(h, k, limit)
        rng = random.Random(8026)
        seed = 1 << h * max_element
        pruned = {}
        for _ in range(1000):
            prefix = family.fixed
            for j in range(len(prefix) + 1, k):
                top = max_element - (k - j)
                prefix += (rng.randint(prefix[-1] + 1 if prefix else 1, top),)
                rows = engine._rows(prefix, h, False, True, k, seed)
                if any(rows[r].bit_count() > cap for r, cap in caps[j]):
                    break
            else:
                continue
            pruned[j] = pruned.get(j, 0) + 1
            for _ in range(8):
                tail = rng.sample(range(prefix[-1] + 1, max_element + 1),
                                  k - j)
                a = IntegerSet(prefix + tuple(sorted(tail)))
                assert compute_sumset(a, h, RS).cardinality > limit, a
        # most descents are pruned, at more than one depth
        assert len(pruned) > 1 and sum(pruned.values()) > 900, pruned

    def test_guards(self):
        with pytest.raises(ValueError, match="positive"):
            prefix_cardinalities((1, 2), 0, 10, 4)
        with pytest.raises(ValueError, match="h exceeds"):
            prefix_cardinalities((1, 2), 5, 10, 4)
        with pytest.raises(ValueError, match="range overflow"):
            prefix_cardinalities((1, 2), 4, 2**39, 5)


def _decode_by_lowest_bit(bitmap, half_width):
    """The former decoder: clear the lowest set bit once per sum."""
    values = []
    while bitmap:
        low = (bitmap & -bitmap).bit_length() - 1
        values.append(low - half_width)
        bitmap &= bitmap - 1
    return values


class TestDecode:
    def test_matches_lowest_bit_decoder(self):
        rng = random.Random(2403)
        for _ in range(200):
            width = rng.randint(1, 4000)
            bitmap = rng.getrandbits(width)
            half_width = rng.randint(0, width)  # sums below and above 0
            assert (_decode(bitmap, half_width)
                    == _decode_by_lowest_bit(bitmap, half_width))
        assert _decode(0, 5) == []

    def test_wide_sparse_bitmap(self):
        rng = random.Random(7)
        positions = sorted(rng.sample(range(1_200_000), 300)) + [1_200_001]
        bitmap = sum(1 << p for p in positions)
        half_width = 600_000
        assert _decode(bitmap, half_width) == [p - half_width
                                               for p in positions]
        assert (_decode(bitmap, half_width)
                == _decode_by_lowest_bit(bitmap, half_width))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(-25, 25), min_size=1, max_size=7, unique=True),
       st.integers(1, 9))
def test_signed_oracle_matches_dp(elements, h):
    a = make_set(elements)
    assert (compute_sumset_naive(a, h, Operator.SIGNED).sums
            == compute_sumset(a, h, Operator.SIGNED).sums)
