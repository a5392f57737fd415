"""Reference results computed apart from the program under test.

Nothing here imports ``signedsum``. Sumsets are found by literal
enumeration of coefficient vectors, bounds are the paper's closed forms
written out again, and structure kinds are re-derived from their
definitions, so a check built on this module cannot inherit a fault of the
program's DP, bounds or classifier.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

ODD_AP_DILATE = "ODD_AP_DILATE"
ZERO_AP_DILATE = "ZERO_AP_DILATE"
GENERAL_AP = "GENERAL_AP"
NONE = "NONE"


def signed_sums(elements, h: int) -> set[int]:
    """h^+-A: every sum of h distinct elements, each taken with sign +1 or -1."""
    out: set[int] = set()
    for support in itertools.combinations(elements, h):
        partial = {0}
        for x in support:
            partial = {s + x for s in partial} | {s - x for s in partial}
        out |= partial
    return out


def restricted_sums(elements, h: int) -> set[int]:
    """h^A: every sum of h distinct elements."""
    return {sum(c) for c in itertools.combinations(elements, h)}


def optimal_bound_positive(h: int, k: int) -> int:
    return 2 * h * k - h * h + 1


def optimal_bound_zero(h: int, k: int) -> int:
    return 2 * h * k - h * (h + 1) + 1


def optimal_bound(elements, h: int) -> int:
    k = len(elements)
    return (optimal_bound_zero(h, k) if elements[0] == 0
            else optimal_bound_positive(h, k))


def general_bound(h: int, k: int, zero_in_a: bool) -> int:
    tri = h * (h - 1) // 2 if zero_in_a else h * (h + 1) // 2
    return 2 * (h * k - h * h) + tri + 1


def prefix_threshold(elements, h: int) -> int:
    """Base cardinality of the (h+1)-element prefix of the set's family."""
    return h * (h + 1) + 1 if elements[0] == 0 else (h + 1) ** 2


def is_ap(elements) -> bool:
    return len({b - a for a, b in zip(elements, elements[1:])}) == 1


def structure(elements) -> tuple[str, int | None]:
    """Kind and factor of a set: d*{1,3,...}, d*[0,k-1], another AP, or none."""
    k = len(elements)
    first = elements[0]
    if first >= 1 and tuple(elements) == tuple((2 * i + 1) * first
                                               for i in range(k)):
        return ODD_AP_DILATE, first
    step = elements[1] - first
    if first == 0 and tuple(elements) == tuple(i * step for i in range(k)):
        return ZERO_AP_DILATE, step
    if first >= 0 and is_ap(elements):
        return GENERAL_AP, step
    return NONE, None


def expected_kind(elements) -> str:
    return ZERO_AP_DILATE if elements[0] == 0 else ODD_AP_DILATE


def odd_dilates(k: int, max_element: int) -> list[tuple[int, ...]]:
    """Every d*{1,3,...,2k-1} inside [1, max_element]."""
    return [tuple(d * (2 * i + 1) for i in range(k))
            for d in range(1, max_element // (2 * k - 1) + 1)]


def zero_dilates(k: int, max_element: int) -> list[tuple[int, ...]]:
    """Every d*[0,k-1] inside [0, max_element]."""
    return [tuple(d * i for i in range(k))
            for d in range(1, max_element // (k - 1) + 1)]


def is_superincreasing(elements) -> bool:
    return all(elements[i] >= elements[i - 1] + elements[i - 2]
               for i in range(3, len(elements)))


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def primitive_subset_count(max_element: int, r: int) -> int:
    """r-subsets of [1, max_element] with gcd 1, by Moebius inversion."""
    return sum(mobius(d) * comb(max_element // d, r)
               for d in range(1, max_element + 1))


def set_gcd(elements) -> int:
    return gcd(*elements)
