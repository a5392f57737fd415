"""Property-based tests for the structural invariants of the engine."""

from hypothesis import example, given, settings, strategies as st

from signedsum import (Operator, StructureKind, classify_structure,
                       compute_sumset, compute_sumset_naive, dilate, gaps,
                       make_set)
from signedsum.engine import (_achievable, _check_instance, _decode, _move,
                              _rows, _shift, _size, _sorted_sums)

RS = Operator.RESTRICTED_SIGNED


@st.composite
def set_and_fold(draw, min_k=1, max_k=8, lo=-30, hi=30):
    elements = draw(st.lists(st.integers(lo, hi), min_size=min_k,
                             max_size=max_k, unique=True))
    a = make_set(elements)
    h = draw(st.integers(1, a.k))
    return a, h


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=12))
def test_make_set_idempotent(raw):
    a = make_set(raw)
    assert make_set(a.elements) == a
    assert list(a.elements) == sorted(set(raw))


@given(st.integers(2, 8), st.integers(1, 6), st.integers(1, 5),
       st.sampled_from(["odd", "zero"]))
def test_classification_stable_under_positive_dilation(k, d, c, pattern):
    if pattern == "odd":
        base = make_set([d * (2 * i + 1) for i in range(k)])
        kind = StructureKind.ODD_AP_DILATE
    else:
        base = make_set([d * i for i in range(k)])
        kind = StructureKind.ZERO_AP_DILATE
    assert classify_structure(base).kind is kind
    assert classify_structure(dilate(base, c)).kind is kind


@given(st.integers(2, 10), st.integers(1, 8))
def test_odd_dilate_shape(k, d):
    a = make_set([d * (2 * i + 1) for i in range(k)])
    c = classify_structure(a)
    assert c.kind is StructureKind.ODD_AP_DILATE and c.d == d
    assert gaps(a) == [2 * d] * (k - 1)
    assert a.min_element == d


@settings(deadline=None)
@given(set_and_fold(max_k=7, lo=-20, hi=20), st.sampled_from(list(Operator)))
def test_fast_path_matches_naive_oracle(pair, op):
    a, h = pair
    assert compute_sumset(a, h, op).sums == compute_sumset_naive(a, h, op).sums


@settings(deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True),
       st.sampled_from(list(Operator)), st.data())
def test_set_based_rows_match_bitset_rows(elements, op, data):
    # h > k is drawn for the unrestricted operators; every row is compared,
    # so both backends drop the same rows. A signed set-based row holds the
    # non-negative half of its sums, and is mirrored here before comparing.
    a = make_set(elements)
    h = data.draw(st.integers(1, a.k if op.restricted else a.k + 3))
    half_width = _check_instance(a, h, op)
    multi, signed = not op.restricted, op.signed
    bitmaps = _rows(a.elements, h, multi, signed, a.k, 1 << half_width)
    sets = _rows(a.elements, h, multi, signed, a.k, frozenset((0,)), _shift)
    half = sets[h]
    if signed:
        assert all(x >= 0 for row in sets for x in row)
        sets = [row | {-x for x in row} for row in sets]
    assert [sorted(row) for row in sets] == [_decode(row, half_width)
                                             for row in bitmaps]
    assert (_sorted_sums(half, signed)
            == _decode(_achievable(a.elements, h, op, half_width), half_width))


@settings(deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=5, unique=True),
       st.sampled_from(list(Operator)), st.booleans(), st.data())
def test_every_kept_row_is_the_sumset_of_its_weight(elements, op, sparse,
                                                    data):
    # After each prefix of j elements, every row _rows keeps is the naive
    # sumset of its weight over those j elements and every dropped row is
    # empty, on either backend, with h > k drawn for the unrestricted
    # operators. One element feeds several rows, so a row offered before
    # the rows above it would take that element twice.
    a = make_set(elements)
    h = data.draw(st.integers(1, a.k if op.restricted else a.k + 3))
    half_width = _check_instance(a, h, op)
    multi, signed = not op.restricted, op.signed

    def rows(part, k, dp=None):
        seed, move = ((frozenset((0,)), _shift) if sparse
                      else (1 << half_width, _move))
        return _rows(part, h, multi, signed, k, seed, move, dp)

    def naive(part, w):
        if w == 0:
            return [0]
        if op.restricted and w > len(part):
            return []
        return list(compute_sumset_naive(make_set(part), w, op).sums)

    for j in range(1, a.k + 1):
        part, left = a.elements[:j], a.k - j
        for w, row in enumerate(rows(part, a.k)):
            kept = w >= h - left if op.restricted else left > 0 or w == h
            sums = (_sorted_sums(row, signed) if sparse
                    else _decode(row, half_width))
            assert sums == (naive(part, w) if kept else []), (part, w)
    cut = data.draw(st.integers(0, a.k))
    assert (rows(a.elements[cut:], a.k - cut, rows(a.elements[:cut], a.k))
            == rows(a.elements, a.k))


@st.composite
def signed_instance(draw):
    elements = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=6,
                             unique=True))
    op = draw(st.sampled_from([Operator.SIGNED, RS]))
    a = make_set(elements)
    return a, draw(st.integers(1, a.k if op.restricted else a.k + 3)), op


@settings(deadline=None)
@given(signed_instance())
@example((make_set([-5]), 1, RS))  # one element
@example((make_set([0]), 2, Operator.SIGNED))  # only 0, h > k
@example((make_set([1, 3]), 1, RS))  # no 0 in the sumset
@example((make_set([1, 3]), 2, RS))  # 0 absent, 2 * |H| sums
@example((make_set([-4, 0, 4]), 2, RS))  # negative, 0, and 0 in the sumset
@example((make_set([-7, 0, 2]), 5, Operator.SIGNED))  # h > k
def test_set_based_dp_holds_signed_rows_as_their_half(instance):
    # _rows runs the set-based DP whichever backend _sparse would take
    a, h, op = instance
    half = _rows(a.elements, h, not op.restricted, op.signed, a.k,
                 frozenset((0,)), _shift)[h]
    naive = compute_sumset_naive(a, h, op)
    assert sorted(half) == [x for x in naive.sums if x >= 0]
    assert _sorted_sums(half, True) == list(naive.sums)
    # 0 is the one sum that is its own mirror
    assert 2 * len(half) - (0 in half) == naive.cardinality
    assert _size(half, True) == naive.cardinality


@settings(deadline=None)
@given(set_and_fold(), st.sampled_from([Operator.SIGNED, RS]))
def test_signed_sumsets_are_symmetric(pair, op):
    a, h = pair
    sums = set(compute_sumset(a, h, op).sums)
    assert sums == {-x for x in sums}


@settings(deadline=None)
@given(set_and_fold(max_k=7, lo=-20, hi=20),
       st.integers(-6, 6).filter(lambda c: c != 0),
       st.sampled_from(list(Operator)))
def test_dilation_invariance(pair, c, op):
    a, h = pair
    base = compute_sumset(a, h, op)
    scaled = compute_sumset(dilate(a, c), h, op)
    assert scaled.cardinality == base.cardinality
    assert set(scaled.sums) == {c * x for x in base.sums}


@settings(deadline=None)
@given(set_and_fold())
def test_containment_chain(pair):
    a, h = pair
    restricted = set(compute_sumset(a, h, Operator.RESTRICTED).sums)
    assert restricted <= set(compute_sumset(a, h, Operator.CLASSICAL).sums)
    rsigned = set(compute_sumset(a, h, RS).sums)
    assert restricted <= rsigned
    assert rsigned <= set(compute_sumset(a, h, Operator.SIGNED).sums)


@settings(deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True),
       st.data())
def test_restricted_signed_sumset_sees_only_absolute_values(magnitudes, data):
    # each lambda_i ranges over {-1, 0, 1}, so flipping a_i's sign only
    # relabels lambda_i as -lambda_i
    signs = data.draw(st.lists(st.sampled_from((1, -1)),
                               min_size=len(magnitudes),
                               max_size=len(magnitudes)))
    a = make_set(magnitudes)
    flipped = make_set([s * x for s, x in zip(signs, magnitudes)])
    h = data.draw(st.integers(1, a.k))
    assert compute_sumset(flipped, h, RS).sums == compute_sumset(a, h, RS).sums


@given(st.integers(2, 12), st.data())
def test_parity_on_odd_progressions(k, data):
    a = make_set(range(1, 2 * k, 2))
    h = data.draw(st.integers(1, k))
    assert all(x % 2 == h % 2 for x in compute_sumset(a, h, RS).sums)


@settings(deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=9, unique=True),
       st.data())
def test_monotone_under_superset(elements, data):
    b = make_set(elements)
    subset = data.draw(st.lists(st.sampled_from(elements), min_size=1,
                                max_size=len(elements), unique=True))
    a = make_set(subset)
    h = data.draw(st.integers(1, a.k))
    small = set(compute_sumset(a, h, RS).sums)
    large = set(compute_sumset(b, h, RS).sums)
    assert small <= large


@settings(deadline=None)
@given(set_and_fold(lo=1, hi=40))
def test_max_sum_on_positive_sets(pair):
    a, h = pair
    result = compute_sumset(a, h, RS)
    assert result.max_sum == sum(a.elements[-h:])
    assert result.min_sum == -result.max_sum
