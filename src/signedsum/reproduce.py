"""Named verification targets: canned sweeps with fixed parameters.

Each target re-runs one headline verification at its default desk-scale
parameters and reports one pass/fail row per checked fact. The CLI prints
these rows; the test suite asserts them.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from . import bounds
from .bounds import Family
from .engine import (Operator, compute_sumset, leaf_counts,
                     prefix_cardinalities)
from .search import SearchSpace, sweep
from .sets import IntegerSet
from .verify import check_ap_iff, check_prefix_decomposition

LEMMA_AUDIT_SEED = 1842


class TargetRow(NamedTuple):
    label: str
    passed: bool
    detail: str


def _h4_sweep(family: Family, max_element: int, visited: int,
              visited_label: str, minimum: int,
              expected: set[tuple[int, ...]],
              equality_label: str) -> list[TargetRow]:
    """Sweep the k=5, h=4 sets of ``family`` up to ``max_element`` and
    check the literal figures the theorem predicts there."""
    summary = sweep(SearchSpace(k=5, h=4, max_element=max_element,
                                family=family))
    eq = {r.set.elements for r in summary.equality_sets}
    return [
        TargetRow(visited_label, summary.visited == visited,
                  f"visited={summary.visited}"),
        TargetRow("no bound violations", summary.violation_count == 0,
                  f"violations={summary.violation_count}"),
        TargetRow(f"minimum cardinality is {minimum}",
                  summary.min_cardinality == minimum,
                  f"min={summary.min_cardinality}"),
        TargetRow(equality_label, eq == expected,
                  f"equality_sets={sorted(eq)}"),
    ]


def thm_h4_positive() -> list[TargetRow]:
    """k=5, h=4 over all 5-subsets of [1, 20]: bound 25, two extremal sets."""
    return _h4_sweep(Family.POSITIVE, 20, 15504,
                     "visited all 5-subsets of [1,20]", 25,
                     {(1, 3, 5, 7, 9), (2, 6, 10, 14, 18)},
                     "equality cases are exactly the odd-AP dilates")


def thm_h4_zero() -> list[TargetRow]:
    """k=5, h=4 over {0} plus 4-subsets of [1, 16]: bound 21, dilates of [0,4]."""
    return _h4_sweep(Family.ZERO_BASED, 16, 1820,
                     "visited all zero-based candidates", 21,
                     {tuple(d * i for i in range(5)) for d in range(1, 5)},
                     "equality cases are exactly d*[0,4] for d in [1,4]")


def ap_iff() -> list[TargetRow]:
    """Exact cardinality on progressions iff d = 2*min, over a small grid."""
    failures = []
    for a1, d, h in itertools.product(range(1, 6), range(1, 13), range(3, 7)):
        report = check_ap_iff(a1, d, h)
        if not report.holds:
            failures.append((a1, d, h, report.cardinality))
    return [TargetRow(
        "cardinality is (h+1)^2 iff d = 2*a1 on a1 in [1,5], d in [1,12], "
        "h in [3,6]", not failures, f"failures={failures}")]


def interval() -> list[TargetRow]:
    """The sumset of [0, k-1] is exactly the predicted integer interval."""
    failures = []
    count = 0
    for k in range(5, 11):
        for h in range(4, k):
            count += 1
            lo, hi = bounds.zero_ap_interval(h, k)
            a = IntegerSet(tuple(range(k)))
            result = compute_sumset(a, h, Operator.RESTRICTED_SIGNED)
            if result.sums != tuple(range(lo, hi + 1)):
                failures.append((k, h))
    return [TargetRow(
        f"sumset of [0,k-1] equals its predicted interval on {count} (k,h) pairs",
        not failures, f"failures={failures}")]


def _random_audit_sets(rng: random.Random, family: Family,
                       count: int) -> list[tuple[IntegerSet, int]]:
    fixed = family.fixed
    out = []
    for _ in range(count):
        k = rng.randint(5, 8)
        h = rng.randint(3, k - 1)
        elements = fixed + tuple(sorted(rng.sample(range(1, 41), k - len(fixed))))
        out.append((IntegerSet(elements), h))
    return out


def lemma_audit() -> list[TargetRow]:
    """Prefix-surplus inequality on 300 random positive and 300 zero-based sets."""
    rng = random.Random(LEMMA_AUDIT_SEED)
    rows = []
    for family in Family:
        failures = []
        applicable = 0
        for a, h in _random_audit_sets(rng, family, 300):
            report = check_prefix_decomposition(a, h)
            if report.applicable:
                applicable += 1
                if not report.holds:
                    failures.append((a.to_list(), h))
        rows.append(TargetRow(
            f"surplus inequality holds on 300 random {family.value} sets",
            not failures,
            f"applicable={applicable} failures={failures}"))
    return rows


def theorem11_small() -> list[TargetRow]:
    """General bounds at h in {1,2}: exhaustive over [1,12] and [0,11]."""
    rows = []
    for h in (1, 2):
        for k in range(h, 7):
            for family in Family:
                zero_in_a = family is Family.ZERO_BASED
                bound = bounds.general_bound(h, k, zero_in_a).value
                violations = 0
                equalities = 0
                # the k-subsets of [1, 12], or {0} plus (k-1)-subsets of [1, 11]
                m = 11 if zero_in_a else 12
                for run in prefix_cardinalities(family.fixed, h, m, k):
                    counts = leaf_counts(run)
                    low = min(counts)
                    if low < bound:
                        violations += sum(card < bound for card in counts)
                    if low <= bound:
                        equalities += counts.count(bound)
                branch = "0 in A" if zero_in_a else "0 not in A"
                rows.append(TargetRow(
                    f"h={h} k={k} ({branch}): no violations and equality attained",
                    violations == 0 and equalities >= 1,
                    f"violations={violations} equalities={equalities}"))
    return rows


TARGETS = {
    "thm-h4-positive": thm_h4_positive,
    "thm-h4-zero": thm_h4_zero,
    "ap-iff": ap_iff,
    "interval": interval,
    "lemma-audit": lemma_audit,
    "theorem11-small": theorem11_small,
}


def run_target(name: str) -> list[TargetRow]:
    if name not in TARGETS:
        raise ValueError(f"unknown target {name!r}")
    return TARGETS[name]()
