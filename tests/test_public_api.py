"""The public contract: numsgps.__all__, the call signatures behind it,
and the one gate every integer argument passes.

A change to any name, parameter or default here changes what callers
may rely on; it must edit this file and be recorded in CHANGES.md.
Annotations are left out, and so are the signatures of enum classes and
of the error base class, which print differently across Python versions.
"""

from __future__ import annotations

import inspect
from collections.abc import Iterator

import pytest

import numsgps
from numsgps import Mode, TreeKind

NO_DEFAULT = inspect.Parameter.empty

PUBLIC_NAMES = [
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
    "interval_level_counts",
    "interval_tree",
    "irreducible_children",
    "irreducible_tree",
    "is_urpsy",
    "is_ursy",
    "iter_interval_level",
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

# (parameter name, default) pairs of every public function and class
SIGNATURES = {
    "BoundExceeded": (
        ("requested", NO_DEFAULT),
        ("bound", NO_DEFAULT),
        ("what", "requested bound"),
    ),
    "BudgetExceeded": (("limit", NO_DEFAULT),),
    "ClassificationReport": (
        ("l_count", NO_DEFAULT),
        ("symmetric", NO_DEFAULT),
        ("pseudo_symmetric", NO_DEFAULT),
        ("irreducible", NO_DEFAULT),
        ("ursy", NO_DEFAULT),
        ("urpsy", NO_DEFAULT),
        ("in_family_u", NO_DEFAULT),
    ),
    "EnumerationGroup": (
        ("root", NO_DEFAULT),
        ("members", NO_DEFAULT),
        ("count", NO_DEFAULT),
    ),
    "EnumerationRequest": (
        ("k", NO_DEFAULT),
        ("frobenius", NO_DEFAULT),
        ("mode", Mode.FULL),
        ("max_work", None),
    ),
    "EnumerationResult": (
        ("feasible", NO_DEFAULT),
        ("groups", NO_DEFAULT),
        ("total", NO_DEFAULT),
    ),
    "GapProfile": (
        ("gaps", NO_DEFAULT),
        ("small_elements", NO_DEFAULT),
        ("first_kind", NO_DEFAULT),
        ("second_kind", NO_DEFAULT),
        ("genus", NO_DEFAULT),
        ("n_count", NO_DEFAULT),
        ("l_count", NO_DEFAULT),
        ("h_value", NO_DEFAULT),
    ),
    "GcdNotOne": (("generators", NO_DEFAULT), ("gcd", NO_DEFAULT)),
    "NoSecondKindGap": (("semigroup", NO_DEFAULT),),
    "NotASubset": (("sub", NO_DEFAULT), ("sup", NO_DEFAULT)),
    "NotClosed": (("i", NO_DEFAULT), ("j", NO_DEFAULT)),
    "NotIrreducible": (("semigroup", NO_DEFAULT), ("l_count", NO_DEFAULT)),
    "NotMinimalGenerator": (("x", NO_DEFAULT), ("semigroup", NO_DEFAULT)),
    "NotThreeSemigroup": (("semigroup", NO_DEFAULT), ("l_count", NO_DEFAULT)),
    "NotTwoSemigroup": (("semigroup", NO_DEFAULT), ("l_count", NO_DEFAULT)),
    "NumericalSemigroup": (("frobenius", NO_DEFAULT), ("bits", NO_DEFAULT)),
    "OracleReport": (
        ("generators", NO_DEFAULT),
        ("operation", NO_DEFAULT),
        ("expected", NO_DEFAULT),
        ("actual", NO_DEFAULT),
    ),
    "PseudoFrobeniusSet": (("values", NO_DEFAULT), ("type_count", NO_DEFAULT)),
    "SemigroupTree": (("kind", NO_DEFAULT), ("nodes", NO_DEFAULT)),
    "TreeNode": (
        ("semigroup", NO_DEFAULT),
        ("depth", NO_DEFAULT),
        ("edge_label", NO_DEFAULT),
        ("parent", NO_DEFAULT),
    ),
    "all_with_frobenius": (("frobenius", NO_DEFAULT),),
    "brute_l": (("s", NO_DEFAULT),),
    "brute_msg": (("s", NO_DEFAULT),),
    "brute_pf": (("s", NO_DEFAULT),),
    "canonical_irreducible": (("frobenius", NO_DEFAULT),),
    "classify": (("s", NO_DEFAULT),),
    "crosscheck": (("f_max", NO_DEFAULT),),
    "enumerate_k_semigroups": (("req", NO_DEFAULT), ("threads", 1)),
    "feasible": (("k", NO_DEFAULT), ("frobenius", NO_DEFAULT)),
    "in_family_u": (("s", NO_DEFAULT),),
    "interval_children": (("parent", NO_DEFAULT), ("edge_label", NO_DEFAULT)),
    "interval_level": (("root", NO_DEFAULT), ("depth", NO_DEFAULT)),
    "interval_level_counts": (("root", NO_DEFAULT), ("depth", NO_DEFAULT)),
    "interval_tree": (("root", NO_DEFAULT),),
    "irreducible_children": (("s", NO_DEFAULT),),
    "irreducible_tree": (
        ("frobenius", NO_DEFAULT),
        ("prune_threshold", None),
        ("budget", None),
    ),
    "is_urpsy": (("s", NO_DEFAULT),),
    "is_ursy": (("s", NO_DEFAULT),),
    "iter_interval_level": (("root", NO_DEFAULT), ("depth", NO_DEFAULT)),
    "iter_k_semigroups": (("req", NO_DEFAULT),),
    "pf_fast_2sg": (("s", NO_DEFAULT),),
    "pf_fast_3sg": (("s", NO_DEFAULT),),
    "pseudo_frobenius": (("s", NO_DEFAULT),),
    "relative_frobenius": (("sup", NO_DEFAULT), ("sub", NO_DEFAULT)),
    "theta": (("s", NO_DEFAULT),),
    "theta_surplus": (("s", NO_DEFAULT),),
    "urpsy_witness": (("s", NO_DEFAULT),),
    "ursy_witness": (("s", NO_DEFAULT),),
    "witness_k_semigroup": (("k", NO_DEFAULT), ("frobenius", NO_DEFAULT)),
}


def test_all_names_are_pinned():
    assert sorted(numsgps.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 54


def test_every_public_callable_has_a_pinned_signature():
    unsigned = {"Mode", "TreeKind", "NumericalSemigroupError"}
    callables = {
        name for name in numsgps.__all__ if callable(getattr(numsgps, name))
    }
    assert callables - unsigned == set(SIGNATURES)


def test_signatures_keep_their_parameters_and_defaults():
    for name, params in SIGNATURES.items():
        sig = inspect.signature(getattr(numsgps, name))
        got = tuple((p.name, p.default) for p in sig.parameters.values())
        assert got == params, name


def test_constants_and_enum_members():
    assert numsgps.ORACLE_MAX_FROBENIUS == 22
    assert numsgps.NATURALS == numsgps.NumericalSemigroup(-1, 1)
    assert [(m.name, m.value) for m in Mode] == [
        ("FULL", "full"),
        ("COUNT_ONLY", "count-only"),
    ]
    assert [(m.name, m.value) for m in TreeKind] == [
        ("INTERVAL", "interval"),
        ("IRREDUCIBLE", "irreducible"),
    ]


C11 = numsgps.canonical_irreducible(11)
Request = numsgps.EnumerationRequest

# (entry point, parameter, minimum or None, call with the argument in
# place); the other arguments are valid and cheap
GATES = [
    ("enumerate_k_semigroups", "k", 0,
     lambda v: numsgps.enumerate_k_semigroups(Request(v, 4))),
    ("iter_k_semigroups", "k", 0,
     lambda v: numsgps.iter_k_semigroups(Request(v, 4))),
    ("enumerate_k_semigroups", "max_work", 0,
     lambda v: numsgps.enumerate_k_semigroups(Request(0, 3, max_work=v))),
    ("iter_k_semigroups", "max_work", 0,
     lambda v: numsgps.iter_k_semigroups(Request(0, 3, max_work=v))),
    ("enumerate_k_semigroups", "threads", 1,
     lambda v: numsgps.enumerate_k_semigroups(Request(0, 3), threads=v)),
    ("witness_k_semigroup", "k", 0, lambda v: numsgps.witness_k_semigroup(v, 4)),
    ("feasible", "k", None, lambda v: numsgps.feasible(v, 4)),
    ("feasible", "frobenius", None, lambda v: numsgps.feasible(0, v)),
    ("canonical_irreducible", "frobenius", 1, numsgps.canonical_irreducible),
    ("irreducible_tree", "frobenius", 1, numsgps.irreducible_tree),
    ("all_with_frobenius", "frobenius", 1, numsgps.all_with_frobenius),
    ("iter_interval_level", "depth", 0,
     lambda v: numsgps.iter_interval_level(C11, v)),
    ("interval_level", "depth", 0, lambda v: numsgps.interval_level(C11, v)),
    ("interval_level_counts", "depth", 0,
     lambda v: numsgps.interval_level_counts(C11, v)),
    ("irreducible_tree", "prune_threshold", 0,
     lambda v: numsgps.irreducible_tree(11, prune_threshold=v)),
    ("crosscheck", "f_max", 1, numsgps.crosscheck),
    ("interval_children", "edge_label", None,
     lambda v: numsgps.interval_children(C11, v)),
    ("NumericalSemigroup.contains", "x", None, C11.contains),
    ("NumericalSemigroup.remove_element", "x", None, C11.remove_element),
]


def _outcome(call, value):
    # what the call returns, an iterator drawn out, or what it raises
    try:
        result = call(value)
    except Exception as exc:
        return type(exc), exc.args
    return tuple(result) if isinstance(result, Iterator) else result


@pytest.mark.parametrize(
    "entry, name, low, call", GATES, ids=["%s-%s" % row[:2] for row in GATES]
)
def test_every_integer_argument_passes_one_gate(entry, name, low, call):
    for bad in (1.5, "3"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(bad)
    if low is not None:
        with pytest.raises(ValueError) as raised:
            call(low - 1)
        assert raised.value.args == ("%s must be >= %d, got %d" % (name, low, low - 1),)
    assert _outcome(call, True) == _outcome(call, 1)
