"""Gap-structure analytics and enumeration for numerical semigroups.

The central objects are cofinite, additively closed subsets of the
nonnegative integers containing zero.  This package computes their gap
structure (gaps of the first and second kind, pseudo-Frobenius numbers,
symmetry classes), walks two tree constructions over them, and uses the
trees to enumerate every semigroup with a prescribed count of
second-kind gaps and a prescribed Frobenius number.
"""

from .classify import (
    ClassificationReport,
    PseudoFrobeniusSet,
    classify,
    in_family_u,
    is_urpsy,
    is_ursy,
    pf_fast_2sg,
    pf_fast_3sg,
    pseudo_frobenius,
    urpsy_witness,
    ursy_witness,
)
from .core import NATURALS, GapProfile, NumericalSemigroup
from .enumeration import (
    EnumerationGroup,
    EnumerationRequest,
    EnumerationResult,
    Mode,
    enumerate_k_semigroups,
    feasible,
    iter_k_semigroups,
    witness_k_semigroup,
)
from .errors import (
    BoundExceeded,
    BudgetExceeded,
    GcdNotOne,
    NoSecondKindGap,
    NotASubset,
    NotClosed,
    NotIrreducible,
    NotMinimalGenerator,
    NotThreeSemigroup,
    NotTwoSemigroup,
    NumericalSemigroupError,
)
from .oracle import (
    ORACLE_MAX_FROBENIUS,
    OracleReport,
    all_with_frobenius,
    brute_l,
    brute_msg,
    brute_pf,
    crosscheck,
)
from .trees import (
    SemigroupTree,
    TreeKind,
    TreeNode,
    canonical_irreducible,
    interval_children,
    interval_level,
    interval_tree,
    irreducible_children,
    irreducible_tree,
    relative_frobenius,
    theta,
    theta_surplus,
)

__all__ = [
    "BoundExceeded",
    "BudgetExceeded",
    "ClassificationReport",
    "EnumerationGroup",
    "EnumerationRequest",
    "EnumerationResult",
    "GapProfile",
    "GcdNotOne",
    "Mode",
    "NATURALS",
    "NoSecondKindGap",
    "NotASubset",
    "NotClosed",
    "NotIrreducible",
    "NotMinimalGenerator",
    "NotThreeSemigroup",
    "NotTwoSemigroup",
    "NumericalSemigroup",
    "NumericalSemigroupError",
    "ORACLE_MAX_FROBENIUS",
    "OracleReport",
    "PseudoFrobeniusSet",
    "SemigroupTree",
    "TreeKind",
    "TreeNode",
    "all_with_frobenius",
    "brute_l",
    "brute_msg",
    "brute_pf",
    "canonical_irreducible",
    "classify",
    "crosscheck",
    "enumerate_k_semigroups",
    "feasible",
    "in_family_u",
    "interval_children",
    "interval_level",
    "interval_tree",
    "irreducible_children",
    "irreducible_tree",
    "is_urpsy",
    "is_ursy",
    "iter_k_semigroups",
    "pf_fast_2sg",
    "pf_fast_3sg",
    "pseudo_frobenius",
    "relative_frobenius",
    "theta",
    "theta_surplus",
    "urpsy_witness",
    "ursy_witness",
    "witness_k_semigroup",
]

__version__ = "0.1.0"
