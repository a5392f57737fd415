"""Sumset operators over finite integer sets, their sharp cardinality
bounds, and verification harnesses for the direct and inverse theorems."""

from .bounds import (BoundFormula, Family, ap_cardinality_bound, catalogue,
                     general_bound, optimal_bound_positive,
                     optimal_bound_zero, smallgap, superincreasing_tail,
                     zero_ap_interval)
from .engine import (Operator, SumsetResult, compute_sumset,
                     compute_sumset_naive, sumset_cardinality)
from .search import (ProbeSummary, SearchRecord, SearchSpace, SweepSummary,
                     random_probe, sweep)
from .sets import (IntegerSet, StructureClass, StructureKind,
                   classify_structure, dilate, gaps,
                   is_arithmetic_progression, make_set)
from .verify import (ApIffReport, BoundReport, ConditionCheck, InverseVerdict,
                     PrefixDecompositionReport, check_ap_iff, check_direct,
                     check_inverse, check_partial_inverse,
                     check_prefix_decomposition, check_special_direct)

__all__ = [
    "ApIffReport", "BoundFormula", "BoundReport", "ConditionCheck", "Family",
    "IntegerSet", "InverseVerdict", "Operator", "PrefixDecompositionReport",
    "ProbeSummary", "SearchRecord", "SearchSpace", "StructureClass",
    "StructureKind", "SumsetResult", "SweepSummary", "ap_cardinality_bound",
    "catalogue", "check_ap_iff", "check_direct", "check_inverse",
    "check_partial_inverse", "check_prefix_decomposition",
    "check_special_direct", "classify_structure", "compute_sumset",
    "compute_sumset_naive", "dilate", "gaps", "general_bound",
    "is_arithmetic_progression", "make_set", "optimal_bound_positive",
    "optimal_bound_zero", "random_probe", "smallgap", "superincreasing_tail",
    "sumset_cardinality", "sweep", "zero_ap_interval",
]
