"""Executable checks for the direct and inverse cardinality theorems.

Each checker computes a restricted signed sumset, compares it against the
applicable closed-form bound, and reports slack, equality, and (for the
inverse direction) whether the set matches the extremal family. Hypothesis
violations are hard errors; conclusion failures are surfaced as
counterexample reports, never exceptions, so sweeps can log and continue.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bounds
from .bounds import Family
from .engine import (Operator, compute_sumset, prefix_sumsets,
                     sumset_cardinality)
from .sets import (IntegerSet, StructureClass, classify_structure,
                   is_arithmetic_progression, make_set, record_dict)


class BoundReport(NamedTuple):
    """One set measured against one lower bound.

    Negative slack means the bound was violated: a counterexample, which is
    reported as data rather than raised.
    """

    set: IntegerSet
    h: int
    operator: Operator
    cardinality: int
    bound_name: str
    bound_value: int
    slack: int
    equality: bool

    @property
    def holds(self) -> bool:
        return self.slack >= 0

    def to_dict(self, structure: StructureClass | None = None) -> dict:
        return {**record_dict(self),
                "structure": structure.to_dict() if structure else None}


class InverseVerdict(NamedTuple):
    """Outcome of testing the inverse direction on a single set.

    ``structure_matches`` is defined only when the bound is attained.
    ``report`` is the direct measurement the verdict rests on.
    """

    equality_holds: bool
    predicted_structure: StructureClass
    structure_matches: bool | None
    report: BoundReport

    # the verify-wide benchmark's output check reads these keys
    def to_dict(self) -> dict:
        return {
            "equality_holds": self.equality_holds,
            "structure": self.predicted_structure.to_dict(),
            "structure_matches": self.structure_matches,
        }


class PrefixDecompositionReport(NamedTuple):
    """Audit of the prefix-surplus inequality.

    With t the surplus of the prefix sumset over its base cardinality, the
    inequality asserts |h^+-A| >= optimal_bound + t whenever t >= 0. A
    negative t makes the inequality inapplicable, not wrong.
    """

    family: str
    set: IntegerSet
    h: int
    prefix: IntegerSet
    prefix_cardinality: int
    threshold: int
    t: int
    applicable: bool
    asserted_bound: int | None
    cardinality: int
    holds: bool | None

    to_dict = record_dict


class ConditionCheck(NamedTuple):
    """One side condition of the conditional inverse theorem.

    ``conclusion_verified`` is None unless the full hypothesis (bound
    equality plus an applicable condition) is met.
    """

    condition: str
    applicable: bool
    conclusion_verified: bool | None

    to_dict = record_dict


class ApIffReport(NamedTuple):
    """Exact-cardinality iff check on an (h+1)-term arithmetic progression."""

    a1: int
    d: int
    h: int
    set: IntegerSet
    cardinality: int
    target: int
    d_is_twice_min: bool
    equality_observed: bool
    iff_holds: bool
    holds: bool

    to_dict = record_dict


def _measure(a: IntegerSet, h: int, bound_name: str,
             bound_value: int) -> BoundReport:
    card = sumset_cardinality(a, h, Operator.RESTRICTED_SIGNED)
    return BoundReport(a, h, Operator.RESTRICTED_SIGNED, card, bound_name,
                       bound_value, card - bound_value, card == bound_value)


def check_direct(a: IntegerSet, h: int) -> BoundReport:
    """Measure |h^+-A| against the optimal bound for A's family."""
    bf = Family.of(a).optimal_bound(h, a.k)
    return _measure(a, h, bf.name, bf.value)


def check_inverse(a: IntegerSet, h: int) -> InverseVerdict:
    """When the optimal bound is attained, test membership in the
    conjectured extremal family (odd-AP dilates, or zero-based AP dilates
    when 0 is an element)."""
    report = check_direct(a, h)
    structure = classify_structure(a)
    matches: bool | None = None
    if report.equality:
        matches = structure.kind is Family.of(a).extremal
    return InverseVerdict(report.equality, structure, matches, report)


def check_prefix_decomposition(a: IntegerSet, h: int) -> PrefixDecompositionReport:
    """Audit the prefix-surplus inequality on A.

    Positive family: prefix is the h+1 smallest elements and the base
    cardinality is (h+1)^2. Zero family: prefix is {0, a_1, ..., a_h} and
    the base is h(h+1) + 1. In both cases a surplus t >= 0 on the prefix
    lifts the optimal bound on the full set by t.
    """
    family = Family.of(a)
    base_bound = family.optimal_bound(h, a.k).value  # checks the window
    threshold = family.prefix_base(h)
    prefix_card, card = prefix_sumsets(a, h)
    t = prefix_card - threshold
    applicable = t >= 0
    asserted = base_bound + t if applicable else None
    holds = (asserted <= card) if applicable else None
    return PrefixDecompositionReport(
        "zero" if family is Family.ZERO_BASED else "positive", a, h,
        a.prefix(h + 1), prefix_card, threshold, t, applicable, asserted,
        card, holds)


def check_partial_inverse(a: IntegerSet, h: int) -> list[ConditionCheck]:
    """Test conditions (a)-(e) of the conditional inverse theorem.

    Each condition is reported with whether its hypothesis holds for A
    and, when the full hypothesis is met (bound equality plus the
    condition), whether A is the predicted extremal dilate. Condition (c)
    carries its own window 4 <= h <= k-3 and is inapplicable outside it.
    """
    family = Family.of(a)
    k = a.k
    if not 4 <= h <= k - 1:
        raise ValueError(
            f"partial inverse requires 4 <= h <= k-1, got h={h}, k={k}")
    prefix = a.prefix(h + 1)
    tail = a.without_min()  # A' = A minus its least element

    # one DP pass gives the sizes of the sumsets of the prefix and of A;
    # (d) needs sums, and only when the tail is a progression
    head, card = prefix_sumsets(a, h)
    equality = card == family.optimal_bound(h, k).value
    surplus = head >= family.prefix_base(h)
    tail_is_ap = is_arithmetic_progression(tail)
    union_fills = False
    if tail_is_ap:
        # (d) asks whether T | -T | h^+-P is h^+-A, with T = h^A'. Each
        # part lies in h^+-A. A sum in T, or its negative, has h distinct
        # elements of A' (which has k - 1 >= h of them) all signed + or
        # all -, and A' lies in A. A vector on P, a subset of A, padded
        # with zeros is a vector on A. So the union is h^+-A exactly when
        # their sizes match.
        t = compute_sumset(tail, h, Operator.RESTRICTED).sums
        union = {*t, *(-x for x in t), *compute_sumset(
            prefix, h, Operator.RESTRICTED_SIGNED).sums}
        union_fills = len(union) == card

    applicable = {
        "a": is_arithmetic_progression(a),
        "b": is_arithmetic_progression(prefix),
        "c": surplus and 4 <= h <= k - 3,
        "d": union_fills,
        "e": surplus and tail_is_ap,
    }
    conclusion = classify_structure(a).kind is family.extremal
    return [
        ConditionCheck(cond, ok, conclusion if (equality and ok) else None)
        for cond, ok in applicable.items()
    ]


def check_special_direct(a: IntegerSet, h: int) -> BoundReport:
    """Direct bound (h+1)^2 + 1 for (h+1)-element positive sets satisfying
    the superincreasing-tail or the smallgap predicate."""
    if h < 3:
        raise ValueError(f"special direct bound requires h >= 3, got h={h}")
    if a.k != h + 1:
        raise ValueError(
            f"special direct bound requires k = h+1, got h={h}, k={a.k}")
    if Family.of(a) is not Family.POSITIVE:
        raise ValueError("special direct bound requires positive elements")
    if not (bounds.superincreasing_tail(a) or bounds.smallgap(a)):
        raise ValueError("hypothesis not satisfied")
    return _measure(a, h, "special-direct", Family.POSITIVE.prefix_base(h) + 1)


def check_ap_iff(a1: int, d: int, h: int) -> ApIffReport:
    """Build the (h+1)-term progression starting at a1 with difference d
    and check that its sumset cardinality is (h+1)^2 exactly when
    d = 2*a1, and at least (h+1)^2 + 1 otherwise."""
    if a1 < 1 or d < 1:
        raise ValueError("AP check requires positive a1 and d")
    if h < 3:
        raise ValueError(f"AP check requires h >= 3, got h={h}")
    a = make_set([a1 + i * d for i in range(h + 1)])
    card = sumset_cardinality(a, h, Operator.RESTRICTED_SIGNED)
    target = Family.POSITIVE.prefix_base(h)
    twice = d == 2 * a1
    equality_observed = card == target
    iff_holds = twice == equality_observed
    holds = iff_holds and (card == target if twice else card >= target + 1)
    return ApIffReport(a1, d, h, a, card, target, twice,
                       equality_observed, iff_holds, holds)
