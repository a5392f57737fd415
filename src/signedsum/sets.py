"""Finite integer sets: normalization, dilation, and structure detection.

Every value is immutable and every operation is pure, so anything here can
be used from concurrent sweeps without coordination. The package's report
records are ``typing.NamedTuple`` classes whose ``to_dict`` is
:func:`record_dict`; :class:`IntegerSet` is a slotted class, since it
iterates over its elements rather than over its one field.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class StructureKind(Enum):
    ODD_AP_DILATE = "ODD_AP_DILATE"    # d * {1, 3, 5, ..., 2k-1}
    ZERO_AP_DILATE = "ZERO_AP_DILATE"  # d * {0, 1, 2, ..., k-1}
    GENERAL_AP = "GENERAL_AP"          # constant gaps, neither special form
    NONE = "NONE"


def record_dict(record) -> dict:
    """The dict of a NamedTuple report whose JSON keys are its fields.

    It gives every field in field order, a set as its list, an enum as its
    value and a nested record (anything with ``_fields``) as its
    ``to_dict()``. Each such report binds it as ``to_dict = record_dict``.
    """
    return {name: _plain(value) for name, value in zip(record._fields, record)}


def _plain(value):
    if isinstance(value, IntegerSet):
        return value.to_list()
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "_fields"):
        return value.to_dict()
    return value


class StructureClass(NamedTuple):
    """Classification of a set against the extremal families.

    ``d`` is the positive dilation factor (for the dilate kinds) or the
    common difference (for GENERAL_AP); it is None exactly for NONE.
    """

    kind: StructureKind
    d: int | None = None

    to_dict = record_dict


NOT_STRUCTURED = StructureClass(StructureKind.NONE)  # immutable, so shared


class IntegerSet:
    """Strictly increasing tuple of distinct integers.

    Construct through :func:`make_set`, which normalizes arbitrary input;
    the raw constructor trusts its argument. It is immutable, hashable and
    picklable, and equal only to an IntegerSet of the same elements.
    """

    __slots__ = ("elements",)
    elements: tuple[int, ...]

    def __init__(self, elements: tuple[int, ...]) -> None:
        object.__setattr__(self, "elements", elements)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.elements,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(elements={self.elements!r})"

    def __reduce__(self):
        return self.__class__, (self.elements,)

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def min_element(self) -> int:
        return self.elements[0]

    @property
    def max_element(self) -> int:
        return self.elements[-1]

    @property
    def all_positive(self) -> bool:
        return self.elements[0] > 0

    def prefix(self, n: int) -> IntegerSet:
        """The n smallest elements."""
        if not 1 <= n <= self.k:
            raise ValueError(f"prefix length {n} outside [1, {self.k}]")
        return IntegerSet(self.elements[:n])

    def without_min(self) -> IntegerSet:
        if self.k < 2:
            raise ValueError("cannot drop the minimum of a singleton")
        return IntegerSet(self.elements[1:])

    def to_list(self) -> list[int]:
        return list(self.elements)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"


def make_set(raw) -> IntegerSet:
    """Sort and deduplicate ``raw`` into an IntegerSet.

    Every element is checked as given, before duplicates are merged, so a
    bool, a float or any other non-integer is refused wherever it stands
    (``True == 1`` and ``1.0 == 1`` would otherwise merge into an int).
    Duplicates are merged silently (set semantics). Empty input is an error.
    """
    elements = tuple(raw)
    for x in elements:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"non-integer element {x!r}")
    if not elements:
        raise ValueError("empty set")
    return IntegerSet(tuple(sorted(set(elements))))


def dilate(a: IntegerSet, c: int) -> IntegerSet:
    """The dilation c * A = {c*x : x in A}; c must be nonzero."""
    if c == 0:
        raise ValueError("degenerate dilation")
    scaled = tuple(c * x for x in a.elements)
    if c < 0:
        scaled = scaled[::-1]
    return IntegerSet(scaled)


def gaps(a: IntegerSet) -> list[int]:
    """Consecutive differences [a2-a1, ..., ak-a(k-1)]; requires k >= 2."""
    if a.k < 2:
        raise ValueError("gaps undefined for k < 2")
    e = a.elements
    return [e[i + 1] - e[i] for i in range(a.k - 1)]


def common_difference(elements: tuple[int, ...]) -> int | None:
    """The common difference of an increasing tuple of ints that is an
    arithmetic progression, else None (and None for fewer than two
    elements): the one progression scan of the package. The span rules
    out most tuples before their gaps are compared."""
    if len(elements) < 2:
        return None
    step = elements[1] - elements[0]
    if elements[-1] - elements[0] != step * (len(elements) - 1):
        return None
    for i in range(1, len(elements) - 1):
        if elements[i + 1] - elements[i] != step:
            return None
    return step


def is_arithmetic_progression(a: IntegerSet) -> bool:
    """True iff the set has constant consecutive gaps (k >= 2)."""
    if a.k < 2:
        raise ValueError("gaps undefined for k < 2")
    return common_difference(a.elements) is not None


def classify_structure(a: IntegerSet) -> StructureClass:
    """Match a set against the extremal families; requires k >= 2.

    Every family is an arithmetic progression, so a set that
    :func:`common_difference` does not read as one is NONE. The dilate
    kinds take precedence over GENERAL_AP. Dilation factors are restricted
    to positive integers, so sets with negative elements never match any
    family and classify as NONE.
    """
    e = a.elements
    if len(e) < 2:
        raise ValueError("classification undefined for k < 2")
    step = common_difference(e)
    if step is None or e[0] < 0:
        return NOT_STRUCTURED
    if e[0] > 0 and step == 2 * e[0]:  # d * {1, 3, ..., 2k-1}
        return StructureClass(StructureKind.ODD_AP_DILATE, e[0])
    if e[0] == 0:  # d * {0, 1, ..., k-1}
        return StructureClass(StructureKind.ZERO_AP_DILATE, step)
    return StructureClass(StructureKind.GENERAL_AP, step)
