from __future__ import annotations

import math
import tracemalloc

import pytest

import numsgps.core
import numsgps.trees
from numsgps import (
    NATURALS,
    BoundExceeded,
    BudgetExceeded,
    EnumerationRequest,
    NotASubset,
    NotIrreducible,
    TreeKind,
    all_with_frobenius,
    canonical_irreducible,
    enumerate_k_semigroups,
    interval_children,
    interval_level,
    interval_level_counts,
    interval_tree,
    irreducible_children,
    irreducible_tree,
    iter_interval_level,
    relative_frobenius,
    theta,
    theta_surplus,
)
from numsgps._util import WorkBudget
from numsgps.trees import _upper_generators
from support import count_calls, sg

# the complete interval tree under <5,7,9,11>, frozen level by level
LEVELS_5_7_9_11 = (
    {(5, 7, 9, 11)},
    {(5, 9, 11, 12), (5, 7, 11), (5, 7, 9)},
    {(5, 11, 12, 14, 18), (5, 9, 12, 16), (5, 9, 11, 17), (5, 7, 16, 18)},
    {(5, 12, 14, 16, 18), (5, 11, 14, 17, 18), (5, 9, 16, 17)},
    {(5, 14, 16, 17, 18)},
)

EDGES_5_7_9_11 = {
    ((5, 7, 9, 11), (5, 9, 11, 12), 7),
    ((5, 7, 9, 11), (5, 7, 11), 9),
    ((5, 7, 9, 11), (5, 7, 9), 11),
    ((5, 9, 11, 12), (5, 11, 12, 14, 18), 9),
    ((5, 9, 11, 12), (5, 9, 12, 16), 11),
    ((5, 9, 11, 12), (5, 9, 11, 17), 12),
    ((5, 7, 11), (5, 7, 16, 18), 11),
    ((5, 11, 12, 14, 18), (5, 12, 14, 16, 18), 11),
    ((5, 11, 12, 14, 18), (5, 11, 14, 17, 18), 12),
    ((5, 9, 12, 16), (5, 9, 16, 17), 12),
    ((5, 12, 14, 16, 18), (5, 14, 16, 17, 18), 12),
}

# all irreducible semigroups with Frobenius number 11 and their edges
NODES_F11 = {
    (6, 7, 8, 9, 10),
    (5, 7, 8, 9),
    (4, 6, 9),
    (3, 7),
    (4, 5),
    (2, 13),
}

EDGES_F11 = {
    ((6, 7, 8, 9, 10), (5, 7, 8, 9), 6),
    ((6, 7, 8, 9, 10), (4, 6, 9), 7),
    ((6, 7, 8, 9, 10), (3, 7), 8),
    ((5, 7, 8, 9), (4, 5), 7),
    ((4, 6, 9), (2, 13), 9),
}


def _gen_sets(semigroups):
    return {s.minimal_generators for s in semigroups}


def _edge_set(tree):
    return {
        (p.minimal_generators, c.minimal_generators, x) for p, c, x in tree.edges()
    }


# ----------------------------------------------------------------------
# theta


def test_theta_golden():
    assert theta(sg(5, 7, 9, 11)) == sg(5, 14, 16, 17, 18)


def test_theta_of_two_generated():
    # delta(<3,7>) = {0, 3}, so theta is <3> up to 11 plus the tail
    assert theta(sg(3, 7)) == sg(3, 13, 14)


def test_theta_surplus_golden_values():
    expected = {
        (6, 7, 8, 9, 10): 5,
        (5, 7, 8, 9): 3,
        (4, 6, 9): 3,
        (3, 7): 2,
        (4, 5): 0,
        (2, 13): 0,
    }
    for gens, surplus in expected.items():
        assert theta_surplus(sg(*gens)) == surplus


def test_theta_surplus_of_interval_root():
    assert theta_surplus(sg(5, 7, 9, 11)) == 4


# ----------------------------------------------------------------------
# the canonical irreducible semigroup


def test_canonical_irreducible_small():
    assert canonical_irreducible(1) == sg(2, 3)
    assert canonical_irreducible(2) == sg(3, 4, 5)
    assert canonical_irreducible(4) == sg(3, 5, 7)
    assert canonical_irreducible(11) == sg(6, 7, 8, 9, 10)


def test_canonical_irreducible_is_irreducible():
    for f in range(1, 40):
        assert canonical_irreducible(f).gap_profile.l_count <= 1
        assert canonical_irreducible(f).frobenius == f


def test_canonical_irreducible_table_bound_is_inclusive(monkeypatch):
    # C(F) is a table over [0, F + 1]: 30 bits for F = 28, 31 for F = 29
    monkeypatch.setattr(numsgps.core, "MAX_CLOSURE_WINDOW", 30)
    assert canonical_irreducible(28).frobenius == 28
    assert irreducible_tree(28).root == canonical_irreducible(28)
    for build in (canonical_irreducible, irreducible_tree):
        with pytest.raises(BoundExceeded) as exc:
            build(29)
        assert (exc.value.requested, exc.value.bound) == (31, 30)


def test_canonical_irreducible_rejects_low():
    with pytest.raises(ValueError):
        canonical_irreducible(0)


# ----------------------------------------------------------------------
# relative position


def test_relative_frobenius():
    big = sg(5, 7, 9, 11)
    small = sg(5, 14, 16, 17, 18)
    assert relative_frobenius(big, small) == 12
    assert relative_frobenius(big, big) == -1


def test_relative_frobenius_requires_containment():
    with pytest.raises(NotASubset):
        relative_frobenius(sg(5, 14, 16, 17, 18), sg(5, 7, 9, 11))
    with pytest.raises(NotASubset):
        relative_frobenius(sg(3, 4, 5), sg(2, 3))


def test_relative_frobenius_nested_chain():
    assert relative_frobenius(sg(2, 3), sg(3, 4, 5)) == 2


# ----------------------------------------------------------------------
# interval tree


def test_interval_tree_shape():
    tree = interval_tree(sg(5, 7, 9, 11))
    assert tree.kind is TreeKind.INTERVAL
    assert len(tree) == 12
    assert tree.height == 4
    assert [len(tree.level(d)) for d in range(5)] == [1, 3, 4, 3, 1]


def test_interval_tree_levels_golden():
    tree = interval_tree(sg(5, 7, 9, 11))
    for depth, expected in enumerate(LEVELS_5_7_9_11):
        assert _gen_sets(tree.level(depth)) == expected


def test_interval_tree_edges_golden():
    tree = interval_tree(sg(5, 7, 9, 11))
    assert _edge_set(tree) == EDGES_5_7_9_11


def test_tree_nodes_hold_their_parent():
    # every child is one the expand step makes from its parent
    trees = (
        (interval_tree(sg(5, 7, 9, 11)), lambda s: interval_children(s, -1)),
        (irreducible_tree(17), lambda s: irreducible_children(s)),
        (irreducible_tree(21, 4), lambda s: irreducible_children(s)),
    )
    for tree, children in trees:
        assert tree.nodes[0].parent is None
        for node in tree.nodes[1:]:
            assert node.parent in tree.level(node.depth - 1)
            assert (node.semigroup, node.edge_label) in children(node.parent)
        assert tree.edges() == tuple(
            (n.parent, n.semigroup, n.edge_label) for n in tree.nodes[1:]
        )


def test_interval_tree_depth_raises_l_by_two():
    tree = interval_tree(sg(5, 7, 9, 11))
    for node in tree.nodes:
        assert node.semigroup.gap_profile.l_count == 2 * node.depth


def test_interval_tree_ends_at_theta():
    root = sg(5, 7, 9, 11)
    tree = interval_tree(root)
    assert tree.level(tree.height) == (theta(root),)


def test_interval_tree_rejects_reducible_root():
    with pytest.raises(NotIrreducible):
        interval_tree(sg(7, 8, 9, 11, 12))


def test_interval_level_slices():
    root = sg(5, 7, 9, 11)
    assert _gen_sets(interval_level(root, 3)) == LEVELS_5_7_9_11[3]
    assert interval_level(root, 5) == ()
    assert interval_level(root, 0) == (root,)


def test_interval_level_golden_single():
    assert interval_level(sg(4, 6, 9), 3) == (sg(4, 13, 14, 15),)


def test_interval_level_is_canonically_sorted():
    # nothing sorts a level: the walk emits it in canonical order (the
    # lemma in the trees docstring), checked at every depth of every
    # irreducible root with F <= 21
    members = 0
    for f in range(1, 22):
        for root in irreducible_tree(f).semigroups():
            tree = interval_tree(root)
            for depth in range(tree.height + 2):
                level = interval_level(root, depth)
                assert level == tree.level(depth)
                keys = [s.canonical_key for s in level]
                gaps = [s.gaps for s in level]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                assert all(a < b for a, b in zip(gaps, gaps[1:]))
                members += len(level)
    # the intervals partition all semigroups with F <= 21 (OEIS A124506)
    assert members == 5343


def test_interval_children_respect_label_floor():
    root = sg(5, 7, 9, 11)
    all_children = interval_children(root, -1)
    assert [(c.minimal_generators, x) for c, x in all_children] == [
        ((5, 9, 11, 12), 7),
        ((5, 7, 11), 9),
        ((5, 7, 9), 11),
    ]
    # with the floor at 9 only the removal of 11 remains
    floored = interval_children(root, 9)
    assert [(c.minimal_generators, x) for c, x in floored] == [((5, 7, 9), 11)]


def test_interval_children_below_every_label_are_all_children():
    root = sg(5, 7, 9, 11)
    assert interval_children(root, -5) == interval_children(root, -1)


def test_nodes_without_an_upper_half_have_no_children():
    # (F/2, F) holds no integer for N (F = -1), F = 1 and F = 2
    assert interval_tree(NATURALS).semigroups() == (NATURALS,)
    assert interval_children(NATURALS, -1) == ()
    for s in (sg(2, 3), sg(3, 4, 5)):
        assert s.frobenius in (1, 2)
        assert interval_children(s, -1) == ()
        assert irreducible_children(s) == ()
        assert interval_tree(s).semigroups() == (s,)


def test_child_mask_is_the_upper_generators():
    # one mask feeds both child rules: msg(S) n (F/2, F), on N and on
    # every semigroup with F <= 16
    assert _upper_generators(NATURALS) == 0
    for f in range(1, 17):
        for s in all_with_frobenius(f):
            upper = [g for g in s.minimal_generators if f < 2 * g and g < f]
            assert _upper_generators(s) == sum(1 << g for g in upper)


def test_level_one_counts_the_child_mask():
    # the minimal elements of P(I) are msg(I) n (F/2, F)
    for f in range(1, 24):
        for root in irreducible_tree(f).semigroups():
            count = _upper_generators(root).bit_count()
            assert interval_level_counts(root, 1)[1] == count


def test_interval_level_budget():
    with pytest.raises(BudgetExceeded):
        interval_level(sg(5, 7, 9, 11), 4, budget=WorkBudget(3))


def test_interval_level_charges_every_level_above_the_slice():
    # levels of <5,7,9,11> hold 1, 3, 4, 3, 1 nodes; the slice itself is
    # not expanded, and past the height every node is
    for depth, used in ((0, 0), (3, 8), (4, 11), (6, 12)):
        budget = WorkBudget(None)
        interval_level(sg(5, 7, 9, 11), depth, budget=budget)
        assert budget.used == used


def test_walk_expands_only_the_nodes_above_the_slice(monkeypatch):
    # levels of <5,7,9,11> hold 1, 3, 4, 3, 1 nodes; past the height,
    # every node is expanded and nothing is yielded
    expanded = count_calls(monkeypatch, numsgps.trees, "_table_children")
    for depth, calls in ((0, 0), (1, 1), (3, 8), (4, 11), (6, 12)):
        expanded.clear()
        interval_level(sg(5, 7, 9, 11), depth)
        assert len(expanded) == calls


def test_interval_level_rejects_negative_depth():
    with pytest.raises(ValueError, match="-1"):
        interval_level(sg(5, 7, 9, 11), -1)


def test_walk_lists_each_level_of_the_tree():
    # every depth of every irreducible root with F <= 21, one past the height
    for f in range(1, 22):
        for root in irreducible_tree(f).semigroups():
            tree = interval_tree(root)
            for depth in range(tree.height + 2):
                assert tuple(iter_interval_level(root, depth)) == tree.level(depth)


def test_walk_checks_its_arguments_at_the_call():
    with pytest.raises(ValueError, match="-1"):
        iter_interval_level(sg(5, 7, 9, 11), -1)
    with pytest.raises(NotIrreducible):
        iter_interval_level(sg(5, 6, 7), 1)


def test_level_counts_are_the_level_sizes():
    # down-set counts of P(I) against the walked tree, for every
    # irreducible root with F <= 23 at every depth up to the height + 1
    for f in range(1, 24):
        for root in irreducible_tree(f).semigroups():
            tree = interval_tree(root)
            sizes = [len(tree.level(d)) for d in range(tree.height + 2)]
            for depth in range(tree.height + 2):
                assert interval_level_counts(root, depth) == tuple(sizes[: depth + 1])


def test_level_counts_of_the_canonical_root_are_binomials():
    # delta(C(F)) = {0}, so P(C(F)) is an antichain of floor((F-1)/2) elements
    f = 20_001
    assert interval_level_counts(canonical_irreducible(f), 3) == tuple(
        math.comb((f - 1) // 2, d) for d in range(4)
    )
    # 1,000 levels deep, and the last one holds theta itself
    assert interval_level_counts(canonical_irreducible(2001), 1000)[-1] == 1


def test_level_counts_check_their_arguments():
    with pytest.raises(ValueError, match="-1"):
        interval_level_counts(sg(5, 7, 9, 11), -1)
    with pytest.raises(NotIrreducible):
        interval_level_counts(sg(5, 6, 7), 1)
    assert interval_level_counts(sg(5, 7, 9, 11), 0) == (1,)
    assert interval_level_counts(sg(1), 2) == (1, 0, 0)


# ----------------------------------------------------------------------
# irreducible tree


def test_irreducible_tree_charges_each_kept_node_once():
    for threshold, nodes in ((None, 15), (3, 10)):
        budget = WorkBudget(None)
        tree = irreducible_tree(17, prune_threshold=threshold, budget=budget)
        assert budget.used == len(tree) == nodes


def test_irreducible_tree_nodes_golden():
    tree = irreducible_tree(11)
    assert tree.kind is TreeKind.IRREDUCIBLE
    assert _gen_sets(tree.semigroups()) == NODES_F11


def test_irreducible_tree_edges_golden():
    assert _edge_set(irreducible_tree(11)) == EDGES_F11


def test_irreducible_tree_all_nodes_irreducible():
    for f in (7, 10, 11, 14):
        for s in irreducible_tree(f).semigroups():
            assert s.frobenius == f
            assert s.gap_profile.l_count <= 1


def test_irreducible_tree_root_is_canonical():
    for f in (1, 2, 9, 12):
        assert irreducible_tree(f).root == canonical_irreducible(f)


def test_irreducible_tree_pruning():
    pruned = irreducible_tree(11, prune_threshold=3)
    assert _gen_sets(pruned.semigroups()) == {
        (6, 7, 8, 9, 10),
        (5, 7, 8, 9),
        (4, 6, 9),
    }
    # threshold 0 keeps everything
    assert len(irreducible_tree(11, prune_threshold=0)) == 6


def test_pruning_keeps_exactly_the_nodes_at_or_above_the_threshold():
    for f in range(1, 26):
        full = irreducible_tree(f).nodes
        for t in range((f - 1) // 2 + 2):
            kept = tuple(n for n in full if theta_surplus(n.semigroup) >= t)
            assert irreducible_tree(f, t).nodes == kept, (f, t)


def test_threshold_zero_computes_no_surplus(monkeypatch):
    calls = []
    real = numsgps.trees.theta_surplus

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(numsgps.trees, "theta_surplus", counted)
    irreducible_tree(21, prune_threshold=0)
    enumerate_k_semigroups(EnumerationRequest(1, 20))
    assert calls == []
    irreducible_tree(21, prune_threshold=1)
    # a node of surplus 0 has no children, so t = 1 tests every node once
    assert len(calls) == len(irreducible_tree(21))


def test_irreducible_tree_rejects_negative_threshold():
    with pytest.raises(ValueError, match="-2"):
        irreducible_tree(3, prune_threshold=-2)


def test_irreducible_tree_rejects_low_frobenius():
    with pytest.raises(ValueError):
        irreducible_tree(0)
    with pytest.raises(ValueError):
        irreducible_tree(-3)


def test_irreducible_tree_budget():
    with pytest.raises(BudgetExceeded):
        irreducible_tree(19, budget=WorkBudget(4))


def test_budget_stops_the_surplus_tests_inside_a_level(monkeypatch):
    # the walk goes down the first path of C(201)'s tree, whose nodes have
    # surplus 100, 98, 95, ... and are all kept at t = 1; the root and ten
    # nodes below it are tested before the eleventh charge overruns the
    # budget of 10
    tested = count_calls(monkeypatch, numsgps.trees, "theta_surplus")
    with pytest.raises(BudgetExceeded):
        irreducible_tree(201, prune_threshold=1, budget=WorkBudget(10))
    assert len(tested) == 11


def test_budget_stop_builds_no_whole_level():
    # C(100001) has about 25,000 children of 100,002 bits each; a walk
    # stopped after 10 nodes builds only the ones on its path
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            irreducible_tree(100_001, prune_threshold=1, budget=WorkBudget(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_budget_stop_at_a_large_frobenius_lists_no_wide_mask(monkeypatch):
    # C(4000001) and its children hold delta(S) of at most a few members
    # in 2,000,000 bits; the child mask reads those members only, and
    # never lists a table bit by bit
    listed = [
        count_calls(monkeypatch, module, "_set_bits")
        for module in (numsgps.core, numsgps.trees)
    ]
    with pytest.raises(BudgetExceeded):
        irreducible_tree(4_000_001, prune_threshold=1, budget=WorkBudget(10))
    assert [len(calls) for calls in listed] == [0, 0]


def test_irreducible_children_golden():
    root = canonical_irreducible(11)
    children = irreducible_children(root)
    assert [(c.minimal_generators, x) for c, x in children] == [
        ((5, 7, 8, 9), 6),
        ((4, 6, 9), 7),
        ((3, 7), 8),
    ]


def test_irreducible_children_leaf():
    assert irreducible_children(sg(2, 13)) == ()
    assert irreducible_children(sg(3, 7)) == ()


def test_surplus_decreases_along_edges():
    for f in (9, 11, 13, 16):
        for parent, child, _ in irreducible_tree(f).edges():
            assert theta_surplus(child) < theta_surplus(parent)
