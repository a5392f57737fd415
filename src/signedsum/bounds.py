"""Closed-form lower bounds and exact cardinality formulas.

All formulas are evaluated in exact integer arithmetic; the h(h+1)/2 terms
are computed as integer products before halving (the product is always
even). Each bound's validity window is part of its contract and requests
outside the window raise rather than extrapolate.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .sets import IntegerSet, StructureKind, record_dict


class BoundFormula(NamedTuple):
    """A named lower bound: its value at (h, k), the hypothesis window it
    requires, and whether the bound is asserted to be attainable."""

    name: str
    value: int
    hypothesis: str
    sharp: bool

    to_dict = record_dict


def general_bound(h: int, k: int, zero_in_a: bool) -> BoundFormula:
    """Lower bound on |h^+-A| valid on the whole window 1 <= h <= k.

    Sharp for h in {1, 2} and h = k; not optimal for 3 <= h <= k-1 where
    the optimal bounds below apply.
    """
    if not 1 <= h <= k:
        raise ValueError(f"general bound requires 1 <= h <= k, got h={h}, k={k}")
    if zero_in_a:
        value = 2 * (h * k - h * h) + (h * (h - 1)) // 2 + 1
        name = "general-zero"
        hypothesis = "k nonnegative elements with 0 in A, 1 <= h <= k"
    else:
        value = 2 * (h * k - h * h) + (h * (h + 1)) // 2 + 1
        name = "general-positive"
        hypothesis = "k nonnegative elements with 0 not in A, 1 <= h <= k"
    return BoundFormula(name, value, hypothesis, sharp=h in (1, 2) or h == k)


def optimal_bound_positive(h: int, k: int) -> BoundFormula:
    """Best-possible lower bound 2hk - h^2 + 1 for positive sets,
    3 <= h <= k-1; attained exactly by the odd-AP dilates."""
    if k < 4 or not 3 <= h <= k - 1:
        raise ValueError(
            f"optimal positive bound requires k >= 4 and 3 <= h <= k-1, "
            f"got h={h}, k={k}")
    return BoundFormula(
        "optimal-positive", 2 * h * k - h * h + 1,
        "k >= 4 positive elements, 3 <= h <= k-1", sharp=True)


def optimal_bound_zero(h: int, k: int) -> BoundFormula:
    """Best-possible lower bound 2hk - h(h+1) + 1 for sets containing 0,
    3 <= h <= k-1; attained exactly by the zero-based AP dilates."""
    if k < 5 or not 3 <= h <= k - 1:
        raise ValueError(
            f"optimal zero bound requires k >= 5 and 3 <= h <= k-1, "
            f"got h={h}, k={k}")
    return BoundFormula(
        "optimal-zero", 2 * h * k - h * (h + 1) + 1,
        "k >= 5 nonnegative elements with 0 in A, 3 <= h <= k-1", sharp=True)


class Family(Enum):
    """The paper's two set families, each with its own optimal bound,
    prefix base and extremal sets: positive sets, and 0 plus positives."""

    POSITIVE = "positive"
    ZERO_BASED = "zero-based"

    @classmethod
    def of(cls, a: IntegerSet) -> Family:
        """POSITIVE for all-positive sets, ZERO_BASED for {0} plus positives.

        Anything else (negative or mixed-sign elements) violates every
        theorem hypothesis here and is rejected; the raw engine remains
        usable on such sets.
        """
        if a.all_positive:
            return cls.POSITIVE
        if a.min_element == 0:
            return cls.ZERO_BASED
        raise ValueError(
            "theorem hypotheses require positive elements or 0 plus positives")

    @property
    def fixed(self) -> tuple[int, ...]:
        """The elements every set of the family starts with: 0, or none."""
        return () if self is Family.POSITIVE else (0,)

    @property
    def extremal(self) -> StructureKind:
        """The sets that attain the optimal bound: d*{1,3,...,2k-1}, or
        d*[0,k-1]."""
        return (StructureKind.ODD_AP_DILATE if self is Family.POSITIVE
                else StructureKind.ZERO_AP_DILATE)

    def optimal_bound(self, h: int, k: int) -> BoundFormula:
        """The family's optimal bound on |h^+-A|."""
        return (optimal_bound_positive(h, k) if self is Family.POSITIVE
                else optimal_bound_zero(h, k))

    def prefix_base(self, h: int) -> int:
        """|h^+-P| for the extremal (h+1)-element prefix P of the family:
        (h+1)^2 for {1, 3, ..., 2h+1}, h(h+1) + 1 for {0, 1, ..., h}."""
        return (h + 1) ** 2 if self is Family.POSITIVE else h * (h + 1) + 1


def ap_cardinality_bound(h: int, k: int, d_is_twice_min: bool) -> int:
    """Cardinality of |h^+-A| for a k-term positive arithmetic progression.

    Exactly 2hk - h^2 + 1 when the common difference equals twice the
    smallest element; otherwise 2hk - h^2 + 2 is a lower bound only.
    """
    if not 3 <= h <= k - 1:
        raise ValueError(
            f"AP cardinality requires 3 <= h <= k-1, got h={h}, k={k}")
    base = 2 * h * k - h * h
    return base + 1 if d_is_twice_min else base + 2


def zero_ap_interval(h: int, k: int) -> tuple[int, int]:
    """Endpoints of h^+-[0, k-1], which is exactly an integer interval.

    Valid for 4 <= h <= k-1; the sumset is [-(hk - h(h+1)/2), hk - h(h+1)/2].
    """
    if not 4 <= h <= k - 1:
        raise ValueError(
            f"zero-AP interval requires 4 <= h <= k-1, got h={h}, k={k}")
    hi = h * k - (h * (h + 1)) // 2
    return (-hi, hi)


def _require_positive(a: IntegerSet, what: str) -> None:
    if a.k < 4:
        raise ValueError(f"{what} requires k >= 4, got k={a.k}")
    if not a.all_positive:
        raise ValueError(f"{what} requires positive elements")


def superincreasing_tail(a: IntegerSet) -> bool:
    """True iff a_i >= a_(i-1) + a_(i-2) for every i from 4 to k."""
    _require_positive(a, "superincreasing-tail predicate")
    e = a.elements
    return all(e[i] >= e[i - 1] + e[i - 2] for i in range(3, a.k))


def smallgap(a: IntegerSet) -> bool:
    """True iff a3 - a2 < 2*a1 and every later gap exceeds (a2 - a1)/2.

    The gap comparison is done as 2*(a_i - a_(i-1)) > a2 - a1 to stay in
    integer arithmetic.
    """
    _require_positive(a, "smallgap predicate")
    e = a.elements
    if e[2] - e[1] >= 2 * e[0]:
        return False
    first_gap = e[1] - e[0]
    return all(2 * (e[i] - e[i - 1]) > first_gap for i in range(3, a.k))


def catalogue(h: int, k: int) -> list[BoundFormula]:
    """Every bound formula whose hypothesis window admits (h, k)."""
    out: list[BoundFormula] = []
    if 1 <= h <= k:
        out.append(general_bound(h, k, zero_in_a=False))
        out.append(general_bound(h, k, zero_in_a=True))
    if k >= 4 and 3 <= h <= k - 1:
        out.append(optimal_bound_positive(h, k))
    if k >= 5 and 3 <= h <= k - 1:
        out.append(optimal_bound_zero(h, k))
    if 3 <= h <= k - 1:
        out.append(BoundFormula(
            "ap-equal-difference", ap_cardinality_bound(h, k, True),
            "k-term positive AP with d = 2*min(A), 3 <= h <= k-1", sharp=True))
        out.append(BoundFormula(
            "ap-other-difference", ap_cardinality_bound(h, k, False),
            "k-term positive AP with d != 2*min(A), 3 <= h <= k-1", sharp=False))
    if 4 <= h <= k - 1:
        lo, hi = zero_ap_interval(h, k)
        out.append(BoundFormula(
            "zero-ap-interval", hi - lo + 1,
            "A = d * [0, k-1], 4 <= h <= k-1 (exact cardinality)", sharp=True))
    return out
