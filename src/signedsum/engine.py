"""Exact computation of the four h-fold sumset operators.

For a set A = {a_1 < ... < a_k} and a fold h >= 1, a coefficient vector
(lambda_1, ..., lambda_k) contributes the sum Sum(lambda_i * a_i). The four
operators differ only in the admissible vectors:

    CLASSICAL          lambda_i in [0, h],      Sum(lambda_i)  = h
    RESTRICTED         lambda_i in {0, 1},      Sum(lambda_i)  = h
    SIGNED             lambda_i in [-h, h],     Sum(|lambda_i|) = h
    RESTRICTED_SIGNED  lambda_i in {-1, 0, 1},  Sum(|lambda_i|) = h

The fast path is a dynamic program over (element index, weight used)
whose state is the set of achievable partial sums at each weight, held
one of two ways. The bitset backend holds a row as a dense bitmap in a
Python int, so a transition is one shift-or and the cost is the set's
width. The set-based backend holds it as a mutable set of sums, and its
cost is the number of sums, at most C(k, w) * 2^w in a restricted signed
row of weight w: far less for a few elements near 10^6. A signed row is
symmetric about 0, as flipping every lambda_i keeps the weight, so this
backend holds it as its non-negative half (``_shift``), and its readers
mirror the half or count 2|H| - [0 in H] sums. One row loop,
``_rows``, serves both, and builds the rows of every sumset it does not
pack and of every whole set a sweep walk is given
(``prefix_cardinalities``, and so ``random_probe``). It is the 0/1
knapsack's loop: each element is offered to the rows from weight h - 1
down, and each row gains the moved sums of the rows below it in place,
so no row list is copied per element. That order is exact because row w
feeds only rows above w: when row w is offered, only the rows above it
have gained anything from this element, so every row it moves still
holds the previous element's sums. A bitmap row is replaced by the
union, and a set row is updated without being rebuilt. The loop drops
each row that the elements still to come cannot lift to weight h. Under
a restricted operator a later element adds at most 1, so with ``left``
of them to come the rows below h - left go; under an unrestricted one it
can add any weight, so only the last step drops anything: every row but
h.

``compute_sumset``, ``sumset_cardinality`` and ``prefix_sumsets`` each
run one ``_pass``, the one place that guards an instance, chooses its
backend and moves its rows, and each reads row h. ``_pass`` takes the
cheaper backend. The bitset DP offers k elements to h + 1 rows of
2 * half_width + 1 bits; the set-based DP forms at most
``_vector_count(k, h, op)`` sums, the number of admissible coefficient
vectors of weight 1 to h counted by support size, cached per (k, h, op).
That count at h less that at h - 1 is the naive oracle's work
(``naive_vector_count``). The set-based DP is taken when
``SPARSE_WEIGHT`` (3,000, measured, see its comment) times that count is
below the bitset's bits. The range guard runs first and still sizes
every instance by its bitmap, so the same inputs are refused whichever
backend would run. A narrow restricted signed instance on the bitset
backend is not run on the row list: its h + 1 rows are packed into one
int, row r at bit r * (2 * half_width + 1), and each element is one
shift-or of the rows below h (``_grow``), as the walk extends a prefix
(``_child``), where the row loop costs a call per row. ``_pass`` packs
when the state holds at most ``PACKED_BITS`` bits (24,000, measured, see
its comment).
A wide set keeps the row list, as every packed shift moves every row:
for the 20 elements 2.4 * 10^6 + 1000 i at h = 10, at the walk's offset
(h + 1 rows of 4.8 * 10^7 bits), a packed DP took 5.7-6.2 s and 792 MiB
of peak RSS against 0.42-0.63 s and 100 MiB for ``_rows`` (one process
per DP, the DP alone timed, the process's peak RSS, two runs of each,
2-vCPU Xeon, Python 3.11). So ``_pass`` has three paths: the set-based
rows, the packed bitset and the bitset row list.
``prefix_sumsets`` has the pass read the size of row h after the set's
h + 1 smallest elements on the way through, before the later elements
grow that row in place, so a set and its prefix cost one DP. One reader,
``_size``, counts a row of either backend.

A pass runs on A's primitive set A / g, with g = gcd(A): under every
operator h^+-(gA) = g(h^+-A), so a dilate has exactly as many sums as its
primitive set, and its DP, sized and chosen on the primitive set, costs
what that set's does, whatever the dilate's width. The paper's extremal
sets are such dilates, d * {1, 3, ..., 2k - 1} and d * [0, k - 1]: for
64,502 * {1, 3, ..., 15} at h = 5 one ``sumset_cardinality`` took 62.5 us
on the set-based backend, undivided, and 5.7 us on {1, 3, ..., 15},
packed in 666 bits (in-process, best of 250 loops of 20, 2-vCPU Xeon,
Python 3.11). The gcd costs a narrow pass about 0.1-0.4 us. The
division by g > 0 keeps the elements' order, so the prefix is the same
h + 1 elements, and keeps every size, so only ``compute_sumset`` scales,
multiplying the decoded sums by the g that ``_pass`` returns. The range
guard runs before the division, on A as given, so a dilate is refused
exactly when its own bitmap would be too wide.

Sweeps use the bitset backend alone. The walk extends each shared
prefix's rows once instead of rerunning the DP for every candidate, and
yields one run per parent of leaves, ``(prefix, below, row, leaves)``, in
place of one ``(candidate, cardinality)`` pair per leaf: the leaves are
``prefix + (a,)`` for a in the range ``leaves``, and ``below`` and
``row`` are the prefix's rows h - 1 and h, from which a leaf's count is
one shift-or and a ``bit_count`` (``leaf_counts``). So the walk forms no
tuple and no count for a leaf, and a caller that takes every leaf counts
each one where it uses it. The walk packs a prefix's rows into one int,
so a child is one shift-or of its parent (``_child``) rather than a loop
over rows. It grows the rows below its head by ``_pass``'s packed step
(``_grow``) and enters as the head's parent, so its one loop forms the
head and checks the head's children as it does every prefix's. It packs
at its fixed offset whatever the width, as each prefix has many
children, and ``admit_walk`` sizes it by ``MAX_DP_BITS`` alone. Given a
limit, the walk is branch and bound: it skips every prefix whose
completions must all have more sums than the limit, by two floors proved
in its docstring. The first
adds 2h sums per element still to come to the prefix's own sumset, and
holds from h elements on. The second, from the Minkowski bound, adds the
fewest signed sums of the elements still to come to a lower row of the
prefix, so it also holds on shorter prefixes. Each floor caps one row
of the prefix, and the walk checks a row only at the depths where a
prefix can exceed its cap. It checks the children of each prefix it
forms in its own loop, one capped row at a time for all of them at
once, before it forms any of them, with no call per prefix. The naive
path literally enumerates every admissible coefficient vector and exists
purely to cross-check the fast paths.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from math import comb, gcd
from typing import AbstractSet, Iterator, NamedTuple

from .sets import IntegerSet

MAX_DP_BITS = 2**30  # 128 MiB across the h + 1 weight rows
NAIVE_VECTOR_LIMIT = 10**8
# How many bits offered by the bitset DP cost as much as one sum formed by
# the set-based DP, its sums counted as the number of admissible
# coefficient vectors of weight 1 to h, counted by support size
# (``_vector_count``). Measured on 840 sets (k 3 to 10, h 1 to 6, all four
# operators, elements drawn from [1, s * k] for s from 3 to 30,000) on a
# 2-vCPU Xeon with Python 3.11: choosing by this weight took 229 ms for all
# their cardinalities, against 224 ms for the faster backend each time and
# 568 ms for the bitset alone (full sumsets: 461, 456 and 1,092 ms).
# Weights from 2,000 to 3,000 did as well; 1,000 and 5,000 took 260 and
# 252 ms. No reproduce call has more than 59 bits per bounded sum. Measured
# before ``_rows`` grew its set rows in place, which made each formed sum
# cheaper: retaken on two such draws on the in-place loop, this weight
# took 97 and 93 ms for the cardinalities against 62 and 66 ms for the
# faster backend each time, and weights of 500 to 1,500 took 64 to 69 ms
# (ROADMAP item 11, which also halves the signed count).
SPARSE_WEIGHT = 3000
# The most bits, (h + 1) * (2 * half_width + 1), in the packed state of a
# restricted signed instance that ``_pass`` runs packed on the bitset
# backend; a wider one keeps the row list of ``_rows``. Measured on 2,036
# seeded sets that the bitset backend takes (k 3 to 16, h 1 to min(8, k),
# about 3 in 10 with 0, states of 500 to 128,000 bits, half of them with
# the prefix read) on a 2-vCPU Xeon with Python 3.11, each pass the best
# of 5 timed loops: a packed pass took 0.21-0.76 times the time of
# ``_rows`` up to 8,000 bits, 0.56-1.04 times at 8,000 to 16,000,
# 0.72-1.50 (0.89 in total) at 16,000 to 24,000, 0.77-1.68 (0.96) at
# 24,000 to 32,000, 1.03-1.11 in total at 32,000 to 64,000 and 0.98-2.46
# above. Choosing at 24,000 took 34.8 ms for all the sets, against 34.4 ms
# for the faster path each time, 45.5 ms for ``_rows`` alone and 37.7 ms
# packed alone; 28,000 to 48,000 did as well (34.6-34.8 ms), and 16,000
# took 35.2 ms. The 646 sets of at most 8 elements gain least: at 24,000
# to 32,000 bits their packed passes took 1.06 times as long in total, so
# the constant sits at the low end of that flat range. The widest
# reproduce call, in ``ap-iff``, packs 3,955 bits.
PACKED_BITS = 24000


class Operator(Enum):
    CLASSICAL = "classical"
    RESTRICTED = "restricted"
    SIGNED = "signed"
    RESTRICTED_SIGNED = "restricted-signed"

    @property
    def restricted(self) -> bool:
        """Coefficients limited to magnitude at most one (needs h <= k)."""
        return self in (Operator.RESTRICTED, Operator.RESTRICTED_SIGNED)

    @property
    def signed(self) -> bool:
        return self in (Operator.SIGNED, Operator.RESTRICTED_SIGNED)


class SumsetResult(NamedTuple):
    """A computed sumset: sorted distinct sums plus summary statistics."""

    sums: tuple[int, ...]
    cardinality: int
    min_sum: int
    max_sum: int

    @classmethod
    def from_sorted(cls, sums: list[int]) -> SumsetResult:
        return cls(tuple(sums), len(sums), sums[0], sums[-1])

    def to_dict(self, a: IntegerSet, h: int, op: Operator,
                include_sums: bool = False) -> dict:
        out = {
            "operator": op.value,
            "h": h,
            "set": a.to_list(),
            "cardinality": self.cardinality,
            "min": self.min_sum,
            "max": self.max_sum,
        }
        if include_sums:
            out["sums"] = list(self.sums)
        return out


def _guard(h: int, k: int, restricted: bool, half_width: int) -> None:
    """Refuse a fold below 1, a restricted fold above k, and DP rows of
    more than ``MAX_DP_BITS`` bits in all.

    The DP holds h + 1 rows of 2 * half_width + 1 bits each, so a narrow
    set with a huge unrestricted fold is refused as well as a wide one.
    """
    if h < 1:
        raise ValueError("h must be a positive integer")
    if restricted and h > k:
        raise ValueError("h exceeds |A|")
    if (h + 1) * (2 * half_width + 1) > MAX_DP_BITS:
        raise ValueError("range overflow")


def _check_instance(a: IntegerSet, h: int, op: Operator) -> int:
    """Validate (A, h, op) and return the bitmap half-width: a bound on
    |s| for every sum s of weight at most h. Under a restricted operator
    such a sum has at most h terms, each a distinct element, so it is the
    sum of the h largest |a_i|; otherwise h times the largest."""
    if op.restricted:
        half_width = sum(sorted(map(abs, a.elements))[-h:])
    else:
        half_width = h * max(abs(x) for x in a.elements)
    _guard(h, a.k, op.restricted, half_width)
    return half_width


def _move(dst: int, src: int, delta: int, signed: bool) -> int:
    """Row ``dst`` with the sums of row ``src`` moved by ``delta``, and
    also by ``-delta`` when signed, added."""
    if signed:
        delta = abs(delta)
        return dst | src << delta | src >> delta
    return dst | (src << delta if delta >= 0 else src >> -delta)


def _shift(dst: AbstractSet[int], src: AbstractSet[int], delta: int,
           signed: bool) -> set[int]:
    """``_move`` for rows held as sets of sums: ``dst`` gains the moved
    sums of ``src`` in place and is returned. An empty ``dst`` may be the
    one empty row that the rows of ``_rows`` share, so it is replaced by a
    new set rather than updated.

    A signed row R is symmetric, R = -R, so it is held as its non-negative
    half H. With d = |delta|, the half of (R + d) | (R - d) is
    {x + d} | {|x - d|} over x in H: a sum r + d or r - d >= 0 of a
    negative r is d - |r| = |(-r) - d|. So each sum of H is moved once
    each way, where R would need 2|R| sums.
    """
    if not dst:
        dst = set()
    if signed:
        delta = abs(delta)
        dst.update([abs(x - delta) for x in src])
    dst.update([x + delta for x in src])
    return dst


def _rows(elements: tuple[int, ...], h: int, multi: bool, signed: bool,
          k: int, seed, move=_move, dp: list | None = None) -> list:
    """The weight rows of ``elements``, the first elements of a k-set, less
    those the rest cannot lift to weight h: row w holds the sums of weight
    w. Row 0 is ``seed``: the bitmap ``1 << half_width``, in which bit i
    encodes i - half_width, or ``frozenset((0,))`` with ``move=_shift``.
    Every empty row is the one ``type(seed)()``. Given ``dp``, the rows of
    the elements before ``elements``, it extends those rows in place
    instead, and k counts ``elements`` and the elements after them.

    ``multi`` allows coefficients beyond magnitude one and ``signed``
    allows negative ones. Each element is offered to the rows from weight
    h - 1 down, and row w + c gains row w moved by c times the element
    (``move``) in place: a bitmap row is replaced by the union, a set row
    is updated. That order is exact, the 0/1 knapsack's: row w feeds only
    rows above w, so when it is offered only the rows above it have
    gained anything from this element, and every source row is still the
    previous element's. Offered lowest first, a row would pass on sums
    that already use the element, and take it twice.

    An element drops the rows it leaves that the elements to come cannot
    lift to weight h. Under a restricted operator each later element adds
    at most 1, so with ``left`` of them to come the rows below h - left
    go: one row per element, row h - left - 1, the last one offered, as
    the element before dropped those below it. Under an unrestricted
    operator a later element can add any weight, so only the last element
    drops anything: every row but h.
    """
    empty = type(seed)()
    if dp is None:
        dp = [empty] * (h + 1)
        dp[0] = seed
    for j, a in enumerate(elements, 1):
        left = k - j
        if multi:
            lo = 0 if left else h
            for w in range(h - 1, -1, -1):
                src = dp[w]
                if src:
                    for c in range(max(lo - w, 1), h - w + 1):
                        dp[w + c] = move(dp[w + c], src, c * a, signed)
            if not left:
                dp[:h] = [empty] * h
        else:
            lo = h - left
            for w in range(h - 1, max(lo - 1, 0) - 1, -1):
                src = dp[w]
                if src:
                    dp[w + 1] = move(dp[w + 1], src, a, signed)
            if lo > 0:
                dp[lo - 1] = empty
    return dp


# callers: perfbench's tracer (tests/test_tracer.py), tests; ROADMAP item 9
def _achievable(elements: tuple[int, ...], h: int, op: Operator,
                half_width: int) -> int:
    """Bitmap of sums with total weight exactly h; bit i encodes i - half_width."""
    return _rows(elements, h, not op.restricted, op.signed, len(elements),
                 1 << half_width)[h]


def _sorted_sums(row: AbstractSet[int], signed: bool) -> list[int]:
    """The sums of a set-based row, ascending; a signed half row mirrored."""
    half = sorted(row)
    return [-x for x in reversed(half) if x] + half if signed else half


def _size(row: int | AbstractSet[int], signed: bool) -> int:
    """How many sums a row holds: the set bits of a bitmap, or the sums of
    a set-based row, 2|H| - [0 in H] for a signed half row H."""
    if isinstance(row, int):
        return row.bit_count()
    return 2 * len(row) - (0 in row) if signed else len(row)


def _decode(bitmap: int, half_width: int) -> list[int]:
    """The sums in ``bitmap``, ascending, in one scan of its binary digits."""
    bits = bin(bitmap)
    top = len(bits) - 1 - half_width  # the digit at index p encodes top - p
    values = []
    p = bits.find("1", 2)
    while p >= 0:
        values.append(top - p)
        p = bits.find("1", p + 1)
    values.reverse()
    return values


@lru_cache(maxsize=1024)
def _vector_count(k: int, h: int, op: Operator) -> int:
    """The number of admissible coefficient vectors of weight 1 to h on a
    k-set, counted by support size; an upper bound on the sums the
    set-based DP forms at fold h.

    A vector of weight 1 to h has s nonzero coefficients, 1 <= s <=
    min(h, k), on one of C(k, s) supports. Under a restricted operator
    each magnitude is 1. Otherwise the magnitudes are s positive integers
    summing to at most h: add a slack part h - (their sum) >= 0, and stars
    and bars counts the s + 1 parts summing to h + 1, all positive, in
    C(h, s) ways. A signed operator gives each nonzero coefficient one of
    2^s sign patterns. Summing the weights w = s to h of C(w - 1, s - 1),
    the compositions of w into s parts, also gives C(h, s), so this is
    the sum over weights 1 to h of the vectors of each weight.

    That sum bounds the DP's sums. Before element j + 1 is offered, row w
    holds at most one sum per admissible vector of weight w on the first j
    elements, and the DP moves it once per coefficient c != 0 that element
    j + 1 may take with weight w + |c| <= h. Each such (vector, c) is one
    admissible vector of weight w + |c| on the first j + 1 elements whose
    last non-zero coefficient is c, on element j + 1, and splitting every
    vector of weight 1 to h at its last non-zero coefficient gives each
    pair once.

    The count needs no cap. Above ``k * MAX_DP_BITS // SPARSE_WEIGHT``
    ``_sparse`` takes the bitset on every instance the range guard admits,
    whose bits are at most k * ``MAX_DP_BITS``, so a count cut short there
    chooses as the full one does.

    A signed row is held as its non-negative half (``_shift``), which
    forms about half the sums counted here, so for the signed operators
    the bound is about twice loose. It is kept so: ``SPARSE_WEIGHT`` was
    measured against this count, and the backend choice stays as it was.
    """
    return sum(comb(k, s) * (1 if op.restricted else comb(h, s))
               * (2**s if op.signed else 1) for s in range(1, min(h, k) + 1))


def _sparse(k: int, h: int, op: Operator, half_width: int) -> bool:
    """Whether the set-based DP is the cheaper one: the bitset DP offers
    each of the k elements to h + 1 rows of 2 * half_width + 1 bits."""
    return (SPARSE_WEIGHT * _vector_count(k, h, op)
            < (h + 1) * k * (2 * half_width + 1))


def _grow(state: int, elements: tuple[int, ...], width: int, lower: int
          ) -> int:
    """The packed rows ``state``, row r at bit ``r * width``, with each of
    ``elements`` offered in turn: the rows below h, ``state & lower``,
    move up one row and by +-x and join the state, the walk's ``_child``
    without its mask. Row h is not moved, so nothing passes above it, and
    no row is dropped. ``_pass`` runs a narrow set's whole DP in one call,
    and the walk forms the rows below its head in one."""
    for x in elements:
        src = state & lower
        state |= src << width + x | src << width - x
    return state


def _pass(a: IntegerSet, h: int, op: Operator, prefix: bool = False
          ) -> tuple[int | None, int | set[int], bool, int, int]:
    """One DP pass over A at fold h under ``op``, on the cheaper backend:
    ``(head, row, sparse, half_width, g)``.

    The pass runs on A's primitive set A / g, with g = gcd(A) (g = 1 for
    {0}), as h^+-(gA) = g(h^+-A) under every operator: ``row`` holds the
    sums of A / g, and ``half_width`` is A's own divided by g, exactly, as
    it is a sum or a multiple of |a_i|. Division by g > 0 keeps the
    elements' order, so the prefix is the same h + 1 elements, and keeps
    every size, so a dilate costs what its primitive set does. The range
    guard runs first, on A as given, so the same inputs are refused
    whichever backend would run on whichever set, and only then a prefix
    that would need more elements than A has.

    ``row`` is row h after every element, the sumset of A / g: a bitmap in
    which bit i encodes i - half_width, or with ``sparse`` a set of sums,
    a signed one held as its non-negative half (``_shift``). With
    ``prefix``, ``head`` is the size of row h after the h + 1 smallest
    elements, read before the later elements grow that row in place, and
    without it None, so a caller that reads only the sums pays for no
    count. Row h after h + 1 elements is the prefix's sumset: the rows
    dropped before then are those the elements up to the last could not
    lift to weight h, so none of them reaches row h after h + 1.

    A restricted signed instance on the bitset backend whose h + 1 rows
    of ``width`` bits hold at most ``PACKED_BITS`` bits in all runs on
    one int, row r at bit ``r * width``. Each element x is one shift-or
    (``_grow``): the rows below h moved up one row and by +-x join the
    state. No sum leaves its row, as every sum of weight at most h lies
    within half_width of 0, and row h is not moved, so nothing passes
    above it. The packed pass drops no row: row h gains only from row
    h - 1, and a row the elements to come cannot lift to weight h feeds
    only rows they cannot lift either, so its sums never reach row h and
    only cost its width in each shift. ``head`` is read from row h after
    the h + 1 smallest elements, and ``row`` is row h, the top of the
    state, so ``_size`` and ``_decode`` read it as a bitmap of the row
    list.
    """
    half_width = _check_instance(a, h, op)
    elements, k = a.elements, a.k
    if prefix and k == h:
        raise ValueError("the prefix needs h + 1 elements")
    g = gcd(*elements) or 1  # 0 only for {0}
    if g > 1:
        elements = tuple([x // g for x in elements])
        half_width //= g
    sparse = _sparse(k, h, op, half_width)
    cut = h + 1 if prefix else k
    width = 2 * half_width + 1
    if (not sparse and op is Operator.RESTRICTED_SIGNED
            and (h + 1) * width <= PACKED_BITS):
        top = h * width
        lower = (1 << top) - 1
        state = _grow(1 << half_width, elements[:cut], width, lower)
        head = (state >> top).bit_count() if prefix else None
        state = _grow(state, elements[cut:], width, lower)
        return head, state >> top, False, half_width, g
    seed, move = ((frozenset((0,)), _shift) if sparse
                  else (1 << half_width, _move))
    multi, signed = not op.restricted, op.signed
    dp = _rows(elements[:cut], h, multi, signed, k, seed, move)
    head = _size(dp[h], signed) if prefix else None
    if cut < k:
        dp = _rows(elements[cut:], h, multi, signed, k - cut, seed, move, dp)
    return head, dp[h], sparse, half_width, g


def compute_sumset(a: IntegerSet, h: int, op: Operator) -> SumsetResult:
    """The exact sumset of A under ``op`` at fold ``h``, by the cheaper DP:
    the sums of A's primitive set, times gcd(A)."""
    _, row, sparse, half_width, g = _pass(a, h, op)
    sums = (_sorted_sums(row, op.signed) if sparse
            else _decode(row, half_width))
    return SumsetResult.from_sorted([g * x for x in sums] if g > 1 else sums)


def sumset_cardinality(a: IntegerSet, h: int, op: Operator) -> int:
    """|sumset| without materializing the sums; the checkers' call."""
    return _size(_pass(a, h, op)[1], op.signed)


def prefix_sumsets(a: IntegerSet, h: int) -> tuple[int, int]:
    """The sizes of the restricted signed sumsets of A's h + 1 smallest
    elements and of A, from one ``_pass``, on the backend
    ``sumset_cardinality`` takes for A. With k = h + 1 both come from the
    same rows.
    """
    head, row = _pass(a, h, Operator.RESTRICTED_SIGNED, True)[:2]
    return head, _size(row, True)


def admit_walk(h: int, k: int, max_element: int) -> int:
    """Admit a walk over the k-sets of ``[0, max_element]`` at fold h, or
    refuse it as ``_guard`` refuses a DP, and return its bitmaps' offset
    ``h * max_element``.

    That offset bounds every partial sum of every set in the walk, so this
    one check sizes the whole walk. ``prefix_cardinalities`` and
    ``SearchSpace.admit`` both call it, so a sweep is refused by the same
    rule before it starts as when it walks.
    """
    half_width = h * max_element
    _guard(h, k, True, half_width)
    return half_width


def prefix_cardinalities(
        head: tuple[int, ...], h: int, max_element: int, k: int,
        limit: int | None = None,
) -> Iterator[Run]:
    """Yield |h^+- candidate| for every k-set extending ``head``, as runs.

    ``head`` is an increasing tuple of integers in ``[0, max_element]``.
    The candidates are ``head`` followed by increasing elements in
    ``(head[-1], max_element]``, or in ``[1, max_element]`` when ``head``
    is empty, in lexicographic order, and the cardinality is that of the
    restricted signed sumset. They come as one run ``(prefix, below, row,
    leaves)`` per parent of leaves: the candidates are ``prefix + (a,)``
    for a in the range ``leaves``, ``below`` and ``row`` are the prefix's
    rows h - 1 and h, and :func:`leaf_counts` gives each candidate's
    count. No run is empty: a head with no room for the elements still
    to come yields none. A whole ``head``, whose rows ``_rows`` builds, is
    one run, of its last element alone. Any other head is formed by the
    walk's own loop (``_extend``) from its parent's packed rows, which
    ``_grow`` builds from the seed. The walk is depth first and keeps the
    DP rows of each prefix, so a prefix shared by many candidates is
    processed once. Every bitmap sits at the fixed offset
    ``h * max_element``, which bounds every partial sum in the space, so
    the range guard runs once, in :func:`admit_walk`, rather than once per
    candidate. Rows that can no longer reach weight h are dropped, and a
    leaf forms only row h, when its count is taken.

    With a ``limit``, the walk is branch and bound. A prefix ``A_j`` longer
    than ``head``, of j elements, j >= 2 below an empty head, is not
    extended, and none of its candidates is yielded, when one of two
    floors on every completion ``A`` of ``A_j`` exceeds ``limit``. With
    ``m = k - j`` elements still to come and ``row_r`` the restricted
    signed r-fold sumset of ``A_j`` (the prefix's DP row r):

        |h^+-A| >= |h^+-A_j| + 2hm                    (h <= j),
        |h^+-A| >= |row_{h-w}| + 2(w(m - w) + 1) - 1  (1 <= w <= min(h, m),
                                                       h - w <= j).

    Each floor is a cap on one row of the prefix, and ``_caps``, built once
    per ``(h, k, limit)``, keeps a cap only at the depths where a prefix
    can exceed it, and that table is the walk's only pruning rule. A
    child's capped rows are each formed alone, one shift-or of its
    parent's rows, before the child is formed.

    The walk does not check the 1-element prefixes below an empty head,
    and at a limit at or above the family's bound (3 <= h <= k - 1) no cap
    would prune them: ``_caps(h, k, limit)[1]`` is empty. Their rows 0
    and 1 hold 1 and 2 sums. With m = k - 1 the Minkowski floor caps row
    0 at ``limit - 2(h(k - 1 - h) + 1) + 1`` and row 1 at
    ``limit - 2((h - 1)(k - h) + 1) + 1``, and the 2h step holds only
    from h elements on. At the positive bound ``2hk - h^2 + 1`` these
    caps are ``h^2 + 2h`` and ``h^2 - 2h + 2k >= h^2 + 2``, and at the
    zero bound, h lower, ``h^2 + h`` and ``h^2 - 3h + 2k >= h^2 - h + 2``,
    so each is at least ``h^2 - h + 2 >= 8``. A sweep prunes at
    ``_prune_limit``, never below the bound, from non-empty shard heads.

    Proof of the first, the 2h step: let ``T`` be the sum of the top h
    elements of ``A_j``, which is ``max h^+-A_j`` as the elements are
    non-negative, so ``h^+-A_j`` lies in ``[-T, T]``. Add an element
    ``x > max A_j``. Padding a coefficient vector with a zero keeps every
    sum of ``A_j``. For each of the top h indices i, swapping ``a_i`` for
    ``x`` gives the all-plus sum ``x + T - a_i``: these h sums are distinct
    and above ``T``, and their negatives are below ``-T``. So ``x`` adds at
    least 2h sums, and the extended prefix again has at least h
    non-negative elements, so the step repeats for each of the m elements
    still to come.

    Proof of the second, the Minkowski floor: let ``B`` be the m elements
    of ``A`` after ``A_j``, all positive as they exceed ``min A >= 0``. A
    vector of weight ``h - w`` on ``A_j`` and one of weight w on ``B`` have
    disjoint supports, so ``h^+-A`` contains ``X + Y``, with ``X = row_{h-w}``
    and ``Y = w^+-B``. ``X`` is not empty as ``h - w <= j``, and two finite
    non-empty sets of integers have ``|X + Y| >= |X| + |Y| - 1``: the sums
    ``x_1 + y_1 < ... < x_1 + y_t < x_2 + y_t < ... < x_s + y_t`` of the
    sorted elements are distinct. The all-plus sums of w elements of
    ``B``, its restricted w-fold sumset, number at least ``w(m - w) + 1``
    (Nathanson, *Additive Number Theory: Inverse Problems*, Theorem 1.9).
    They are positive, and the all-minus sums are their negatives, so
    ``|Y| >= 2(w(m - w) + 1)``. Neither proof uses anything from the paper,
    nor assumes h >= 3: both floors hold for every h >= 1.
    """
    seed = 1 << admit_walk(h, k, max_element)
    if len(head) == k:  # a whole set: the run of its last element alone
        dp = _rows(head[:-1], h, False, True, k, seed)
        return iter([(head[:-1], dp[h - 1], dp[h],
                      range(head[-1], head[-1] + 1))])
    return _extend(head, seed, h, max_element, k,
                   ((),) * (k + 1) if limit is None else _caps(h, k, limit))


# entry j: the (row, cap) pairs checked on a child prefix of j elements
Caps = tuple[tuple[tuple[int, int], ...], ...]
# (prefix, below, row, leaves): the sets prefix + (a,) for a in leaves, the
# prefix's rows h - 1 and h being below and row (see leaf_counts)
Run = tuple[tuple[int, ...], int, int, range]


def leaf_counts(run: Run) -> list[int]:
    """The size of each leaf's sumset in a run, in the order of its leaves:
    a leaf a forms only row h, ``_move(row, below, a, True)``."""
    _, below, row, leaves = run
    return [(below << a | below >> a | row).bit_count() for a in leaves]


@lru_cache(maxsize=256)
def _caps(h: int, k: int, limit: int) -> Caps:
    """The per-row caps of the walk, for depths 0 to k: a child prefix of
    j elements whose row r holds more than ``cap`` sums, for a pair
    ``(r, cap)`` in entry j, is not extended.

    With ``m = k - j`` elements still to come, row ``h - w`` gets the
    Minkowski floor's cap ``limit - 2(w(m - w) + 1) + 1`` for each w in
    ``[1, min(h, m)]`` with ``h - w <= j``, and where ``j >= h`` row h gets
    the 2h step's cap ``limit - 2hm``. A pair is kept only where a
    j-element prefix can exceed its cap: its row r holds at most
    ``C(j, r) * 2^r`` sums. A depth with no pair is not checked. Each
    depth lists its rows lowest first, the order in which the walk checks
    them: the low rows prune more children, so the pruned sweeps of
    ``k=7, h=5, M=20`` and ``k=10, h=9, M=22`` (positive) evaluate 12,097
    and 101,343 caps in this order, against 14,542 and 172,271 highest
    first. The table is a tuple, so the cache hands out nothing a caller
    can change, and a sweep builds it once for all its shards.
    """
    caps = [()]
    for j in range(1, k + 1):
        m = k - j
        pairs = [(h - w, limit - 2 * (w * (m - w) + 1) + 1)
                 for w in range(min(h, m), max(h - j, 1) - 1, -1)]
        if h <= j < k:
            pairs.append((h, limit - 2 * h * m))
        caps.append(tuple((r, cap) for r, cap in pairs
                          if comb(j, r) * 2**r > cap))
    return tuple(caps)


@lru_cache(maxsize=4)
def _layout(h: int, k: int, max_element: int
            ) -> tuple[int, int, int, tuple[int, ...]]:
    """The packed state of a walk over k-sets of ``[0, max_element]`` at
    fold h: the width of a row, the mask of one row and of rows 0 to h - 1,
    and for each prefix size j the mask that keeps its rows from
    ``h - (k - j)`` (or 0) up, those the k - j elements to come can still
    lift to weight h. It is negative, as no state has bits above row h to
    clear. A sweep walks one head per shard, and all share one layout."""
    width = 2 * h * max_element + 1
    return (width, (1 << width) - 1, (1 << h * width) - 1,
            tuple(-(1 << max(h - k + j, 0) * width) for j in range(k + 1)))


def _child(state: int, src: int, a: int, width: int, mask: int) -> int:
    """The packed rows of a prefix extended by a, from the prefix's packed
    rows ``state`` and ``src``, its rows below h alone: row r + 1 gains
    row r moved by +-a. ``mask`` drops the rows the child no longer
    needs. Row h is not moved, as it would put sums of weight h + 1 into
    the top bits of row h."""
    return (state | src << width + a | src << width - a) & mask


def _extend(head: tuple[int, ...], seed: int, h: int, max_element: int,
            k: int, caps: Caps) -> Iterator[Run]:
    """The walk below ``head``, from the walk's row 0 ``seed``, as runs; a
    child of j elements whose row r holds more than its cap in ``caps[j]``
    is not extended.

    A prefix's rows are packed into one int, row r at bit ``r * width``,
    so a child is one shift-or of its parent's state (``_child``). The
    walk enters as the head's parent: the rows of ``head[:-1]`` are grown
    from the seed in one call (``_grow``), and its one frame tries
    ``head[-1]`` alone, so the loop forms the head, checks its children
    and, for a parent of leaves, yields its run, as it does for every
    prefix below. A head with no room for the elements to come yields no
    run. The empty head's frame is the seed with its children, the
    1-element prefixes, unchecked, and with k = 1 it is itself the parent
    of leaves. Each new child's own children are checked against the caps
    of their depth all at once, before any is formed, in the walk's loop:
    for each ``(r, cap)``, lowest row first, the child's rows r - 1 and r
    are unpacked, and one comprehension keeps the elements whose row r,
    one shift-or of those two, holds at most ``cap`` sums. The check stops
    at the first empty list, and a child none of whose own children
    passes is not kept. A parent of leaves is never packed: its rows
    h - 1 and h are formed from three rows of its parent and yielded with
    the range of its leaves, which the caller counts. The walk keeps a
    stack with one frame per depth, ``(prefix, state, iterator over the
    checked elements still to try next)``, rather than recursing, so k is
    not bounded by Python's recursion limit.
    """
    width, row_mask, lower, keep = _layout(h, k, max_element)
    if head:
        if head[-1] > max_element - k + len(head):  # no room
            return
        state = _grow(seed, head[:-1], width, lower) & keep[len(head) - 1]
        stack = [(head[:-1], state, iter(head[-1:]))]
    elif k == 1:  # the empty head is itself the parent of leaves
        yield (), seed, 0, range(1, max_element + 1)
        return
    else:
        stack = [((), seed, iter(range(1, max_element - k + 2)))]
    while stack:
        prefix, state, elements = stack[-1]
        j = len(prefix) + 1  # the size of a child
        if j == k - 1:
            # each child is a parent of leaves: form its rows h - 1 and h
            two = state >> (h - 2) * width & row_mask if h > 1 else 0
            one = state >> (h - 1) * width & row_mask
            row = state >> h * width
            for a in elements:
                yield (prefix + (a,), one | two << a | two >> a,
                       row | one << a | one >> a,
                       range(a + 1, max_element + 1))
            stack.pop()
            continue
        src, mask, pairs = state & lower, keep[j], caps[j + 1]
        top = max_element - k + j + 2
        for a in elements:
            child = _child(state, src, a, width, mask)
            grandchildren = range(a + 1, top)
            for r, cap in pairs:
                below = child >> (r - 1) * width & row_mask if r else 0
                row = child >> r * width & row_mask
                grandchildren = [
                    b for b in grandchildren
                    if (below << b | below >> b | row).bit_count() <= cap]
                if not grandchildren:
                    break
            else:
                stack.append((prefix + (a,), child, iter(grandchildren)))
                break
        else:
            stack.pop()


# --- naive oracle -----------------------------------------------------------

def naive_vector_count(k: int, h: int, op: Operator) -> int:
    """Number of admissible coefficient vectors of weight h >= 1, the naive
    path's work: those of weight 1 to h less those of weight 1 to h - 1."""
    return _vector_count(k, h, op) - _vector_count(k, h - 1, op)


def _signed_support_sums(support: tuple[int, ...], h: int) -> list[int]:
    """Sum(lambda_i * x_i) for each coefficient vector on ``support`` with every
    lambda_i nonzero, Sum(|lambda_i|) = h and lambda_1 > 0, one entry per vector.

    The magnitudes run over the compositions of h into len(support) parts,
    each extended by every sign pattern; vectors sharing leading coefficients
    share their partial sums.
    """
    level = {h: [0]}  # weight left to spend -> one partial sum per partial vector
    last = len(support) - 1
    for i, x in enumerate(support):
        nxt: dict[int, list[int]] = {}
        for left, partial in level.items():
            for c in (left,) if i == last else range(1, left - (last - i) + 1):
                m = c * x
                out = nxt.setdefault(left - c, [])
                out += [p + m for p in partial]
                if i:
                    out += [p - m for p in partial]
        level = nxt
    return level[0]


def compute_sumset_naive(a: IntegerSet, h: int, op: Operator) -> SumsetResult:
    """Reference result by literal iteration over coefficient vectors.

    Refuses instances with more than ``NAIVE_VECTOR_LIMIT`` vectors; the DP
    path has no such limit.
    """
    _check_instance(a, h, op)
    if naive_vector_count(a.k, h, op) > NAIVE_VECTOR_LIMIT:
        raise ValueError("instance too large for oracle")
    elements = a.elements
    sums: set[int] = set()
    if op is Operator.CLASSICAL:
        for combo in itertools.combinations_with_replacement(elements, h):
            sums.add(sum(combo))
    elif op is Operator.RESTRICTED:
        for combo in itertools.combinations(elements, h):
            sums.add(sum(combo))
    elif op is Operator.RESTRICTED_SIGNED:
        for support in itertools.combinations(elements, h):
            for signs in itertools.product((1, -1), repeat=h):
                sums.add(sum(s * x for s, x in zip(signs, support)))
    else:
        # the vectors with lambda_1 < 0 negate those with lambda_1 > 0
        for s in range(1, min(h, a.k) + 1):
            for support in itertools.combinations(elements, s):
                sums.update(_signed_support_sums(support, h))
        sums.update([-x for x in sums])
    return SumsetResult.from_sorted(sorted(sums))
