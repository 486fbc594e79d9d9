"""Enumerate numerical semigroups by second-kind gap count and Frobenius number.

The task: given K >= 0 and F, list every numerical semigroup S with
l(S) = K and F(S) = F.  Two gates decide feasibility:

    parity   K + F must be odd (l even forces F odd and vice versa),
    size     F >= K + 1 (l(S) <= F(S) - 1 always).

For feasible (K, F) the answer decomposes over irreducible semigroups.
Every S with l(S) = K lies in [theta(I), I] for exactly one irreducible
I with F(I) = F, namely at depth floor(K/2) of the interval tree of I,
and the interval [theta(I), I] reaches that depth exactly when
#(I \\ theta(I)) >= floor(K/2).  So the procedure is:

    1. walk the irreducible tree of F, pruned at threshold floor(K/2),
    2. take D(I) = the floor(K/2)-level of each surviving root's
       interval tree,
    3. report the groups; they partition the answer.

Each D(I) depends on its root alone, so iter_k_semigroups hands out the
groups one root at a time, and enumerate_k_semigroups collects them.
Roots appear in BFS discovery order, members of each group in canonical
(gap list) order, so output is deterministic.  Mode.FULL walks each
slice depth-first (see trees), one root at a time; Mode.COUNT_ONLY
walks none, and takes |D(I)| from the down-set counts of
trees.interval_level_counts.  Either way a budget is charged the nodes
a walk of the slice expands, counted before the group is built, so both
modes stop at the same group.

witness_k_semigroup produces a single example without enumeration by
deleting the floor(K/2) largest nonzero members below F from the
canonical irreducible semigroup C(F); those members all exceed F/2, so
every deletion stays a semigroup and each raises l by 2.
"""

import enum
import operator
from dataclasses import dataclass

from ._util import WorkBudget, map_ordered
from .core import NumericalSemigroup, _at_least, _bit_range
from .trees import (
    canonical_irreducible,
    _level_counts,
    interval_level,
    irreducible_tree,
)


class Mode(enum.Enum):
    FULL = "full"
    COUNT_ONLY = "count-only"


@dataclass(frozen=True)
class EnumerationRequest:
    k: int
    frobenius: int
    mode: Mode = Mode.FULL
    max_work: object = None  # int | None


@dataclass(frozen=True)
class EnumerationGroup:
    """One root I with the members of D(I); members is None in count mode."""

    root: NumericalSemigroup
    members: object  # tuple | None
    count: int


@dataclass(frozen=True)
class EnumerationResult:
    feasible: bool
    groups: tuple
    total: int


def feasible(k: int, frobenius: int) -> bool:
    """Parity and size gates; no semigroup exists when either fails.
    Raises TypeError when k or frobenius is not an integer."""
    k, frobenius = operator.index(k), operator.index(frobenius)
    return (k + frobenius) % 2 == 1 and frobenius >= k + 1


def _validate(req: EnumerationRequest):
    # a non-integer, or a mode given by its value, would be misread later
    _at_least("k", req.k, 0)
    if req.max_work is not None:
        _at_least("max_work", req.max_work, 0)
    if not isinstance(req.mode, Mode):
        raise TypeError("mode must be a Mode, got %r" % (req.mode,))


def _roots(req: EnumerationRequest):
    """The roots of the pruned irreducible tree of a feasible request,
    and the function that builds one root's group from its D(I)."""
    half = req.k // 2
    budget = WorkBudget(req.max_work) if req.max_work is not None else None
    tree = irreducible_tree(req.frobenius, prune_threshold=half, budget=budget)
    full = req.mode is Mode.FULL

    def group(root):
        # the one place a group is charged: the nodes a walk of its slice
        # expands, counted before anything is built, so an overrun stops
        # between groups and costs no walk.  Roots of the irreducible
        # tree need no irreducibility check.
        if budget is not None or not full:
            counts = _level_counts(root, half)
            if budget is not None:
                budget.charge(sum(counts[:half]))
        if full:
            members = interval_level(root, half)
            return EnumerationGroup(root, members, len(members))
        return EnumerationGroup(root, None, counts[half])

    return [node.semigroup for node in tree.nodes], group


def iter_k_semigroups(req: EnumerationRequest):
    """The groups of enumerate_k_semigroups(req), each yielded as soon as
    its root's D(I) is built, or counted in count mode.

    The request is validated, and the pruned irreducible tree walked,
    when this is called; the slices are built or counted one per next().
    An infeasible request yields nothing.  Raises ValueError for a
    negative k or max_work, TypeError for a non-integer k, frobenius or
    max_work or a mode that is not a Mode, and BudgetExceeded, at the
    call or at a next(), once more than req.max_work nodes have been
    expanded; the groups yielded before it are whole.
    """
    _validate(req)
    if not feasible(req.k, req.frobenius):
        return iter(())
    roots, group = _roots(req)
    return map(group, roots)


def enumerate_k_semigroups(req: EnumerationRequest, threads=1) -> EnumerationResult:
    """All S with l(S) = req.k and F(S) = req.frobenius, grouped by root.

    Raises BudgetExceeded when more than req.max_work nodes get expanded
    across the pruned irreducible tree and the interval levels combined,
    counting the nodes a walk would expand in count mode too; partial
    results are discarded, not returned.  Raises ValueError and
    TypeError as iter_k_semigroups does, or for threads not an integer
    >= 1; threads is kept for compatibility, and runs stay sequential.
    """
    _validate(req)
    threads = _at_least("threads", threads, 1)
    if not feasible(req.k, req.frobenius):
        return EnumerationResult(False, (), 0)
    roots, group = _roots(req)
    groups = tuple(map_ordered(group, roots, threads))
    return EnumerationResult(True, groups, sum(g.count for g in groups))


def witness_k_semigroup(k: int, frobenius: int):
    """One semigroup with l = k and the given Frobenius number, or None.

    Starting from C(F), delete the floor(k/2) largest nonzero members
    below F.  Each is above F/2, so closure never breaks, and l grows by
    2 per deletion from l(C(F)) in {0, 1}; the parity gate makes the
    total come out to exactly k.  Raises ValueError for a negative k,
    and TypeError when k or frobenius is not an integer.
    """
    k = _at_least("k", k, 0)
    if not feasible(k, frobenius):
        return None
    # C(F) holds all of (F/2, F), and feasibility keeps k // 2 within it
    c = canonical_irreducible(frobenius)  # its F is an int, even for True
    bits = c.bits & ~_bit_range(c.frobenius - k // 2, c.frobenius)
    witness = NumericalSemigroup(c.frobenius, bits)
    if witness.gap_profile.l_count != k:
        raise AssertionError("witness for K=%d F=%d must have l = K" % (k, frobenius))
    return witness
