from __future__ import annotations

import ast
import dataclasses
import gc
import inspect

import pytest

import numsgps.oracle
from numsgps import (
    NATURALS,
    BoundExceeded,
    ORACLE_MAX_FROBENIUS,
    all_with_frobenius,
    brute_l,
    brute_msg,
    brute_pf,
    crosscheck,
    pseudo_frobenius,
)
from numsgps.oracle import _MemberTable, _tbl_maximal
from support import plant_flipped_flag, sg

# how many numerical semigroups exist per Frobenius number
# for F = 1..22 (OEIS A124506), the oracle's whole allowed range
POPULATION_SIZES = (
    1, 1, 2, 2, 5, 4, 11, 10, 21, 22, 51, 40,
    106, 103, 200, 205, 465, 405, 961, 900, 1828, 1913,
)


def _gen_sets(semigroups):
    return {s.minimal_generators for s in semigroups}


# ----------------------------------------------------------------------
# exhaustive generation


def test_all_with_frobenius_one():
    assert _gen_sets(all_with_frobenius(1)) == {(2, 3)}


def test_all_with_frobenius_three():
    assert _gen_sets(all_with_frobenius(3)) == {(4, 5, 6, 7), (2, 5)}


def test_all_with_frobenius_four():
    assert _gen_sets(all_with_frobenius(4)) == {(5, 6, 7, 8, 9), (3, 5, 7)}


def test_all_with_frobenius_five():
    assert _gen_sets(all_with_frobenius(5)) == {
        (6, 7, 8, 9, 10, 11),
        (4, 6, 7, 9),
        (3, 4),
        (3, 7, 8),
        (2, 7),
    }


def test_population_sizes():
    sizes = tuple(len(all_with_frobenius(f)) for f in range(1, 23))
    assert sizes == POPULATION_SIZES


def test_all_with_frobenius_is_every_closed_subset():
    # the definition: S meets [1, F - 1] in a set closed under sums <= F,
    # and F is a gap; listed in gap-list order
    for f in range(1, 17):
        expected = []
        for chosen in range(1 << (f - 1)):
            members = {x for x in range(1, f) if chosen >> (x - 1) & 1}
            if all(a + b in members for a in members for b in members if a + b <= f):
                expected.append(tuple(x for x in range(1, f + 1) if x not in members))
        got = [
            tuple(x for x in range(1, f + 1) if x not in s)
            for s in all_with_frobenius(f)
        ]
        assert got == sorted(expected)


def test_member_table_of_naturals_holds_zero():
    assert _MemberTable.of(NATURALS) == _MemberTable(-1, 1)
    assert _MemberTable.of(sg(2, 3)) == _MemberTable(1, 1)


def test_all_with_frobenius_leaves_no_cyclic_garbage():
    # the search state is freed on return, not held until a collection
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        all_with_frobenius(12)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_all_with_frobenius_is_canonically_sorted():
    # the oracle sorts by gap list; the fast key must agree with its order
    for f in range(1, 17):
        population = all_with_frobenius(f)
        gap_lists = [
            tuple(x for x in range(1, f + 1) if x not in s) for s in population
        ]
        assert gap_lists == sorted(gap_lists)
        assert len(set(gap_lists)) == len(gap_lists)
        keys = [s.canonical_key for s in population]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_all_with_frobenius_members_have_that_frobenius():
    for f in (1, 2, 7, 10):
        for s in all_with_frobenius(f):
            assert s.frobenius == f
            s.validate()


def test_all_with_frobenius_guards():
    with pytest.raises(ValueError):
        all_with_frobenius(0)
    with pytest.raises(BoundExceeded):
        all_with_frobenius(ORACLE_MAX_FROBENIUS + 1)


# ----------------------------------------------------------------------
# brute recomputations agree with the fast paths


def test_brute_l_golden():
    assert brute_l(sg(5, 7, 9, 11)) == 0
    assert brute_l(sg(3, 5, 7)) == 1
    assert brute_l(sg(3, 13, 17)) == 3
    assert brute_l(sg(5, 14, 16, 17, 18)) == 8


def test_brute_l_is_the_count_of_second_kind_gaps():
    # the gaps x with F - x no small element, counted one x at a time on
    # every S with F <= 18 and on N; test_properties checks the same
    # count on wide semigroups
    assert brute_l(NATURALS) == 0
    for f in range(1, 19):
        for s in all_with_frobenius(f):
            count = sum(1 for x in range(1, f + 1) if x not in s and f - x not in s)
            assert brute_l(s) == count


def test_brute_pf_golden():
    assert brute_pf(sg(5, 7, 9, 11)) == (13,)
    s = sg(8, 9, 10, 11, 12, 13, 15).remove_element(10)
    assert brute_pf(s) == (4, 7, 10, 14)
    assert brute_pf(s) == pseudo_frobenius(s).values


def test_brute_msg_golden():
    assert brute_msg(sg(5, 7, 9, 11, 12)) == (5, 7, 9, 11)
    assert brute_msg(sg(6, 10, 15)) == (6, 10, 15)


# ----------------------------------------------------------------------
# the sweep itself


def test_crosscheck_finds_nothing_up_to_eight():
    assert crosscheck(8) == []


def test_crosscheck_guards():
    with pytest.raises(ValueError):
        crosscheck(0)
    with pytest.raises(BoundExceeded):
        crosscheck(ORACLE_MAX_FROBENIUS + 1)


# ----------------------------------------------------------------------
# the maximal-first sweep is maximality


def test_maximal_first_equals_pairwise_maximality():
    for f in range(1, 15):
        population = all_with_frobenius(f)
        members = {s: {x for x in range(f + 1) if x in s} for s in population}
        pairwise = {
            s
            for s in population
            if not any(o != s and members[s] <= members[o] for o in population)
        }
        masks = {s: _MemberTable.of(s).mask for s in population}
        assert _tbl_maximal(masks) == pairwise


# ----------------------------------------------------------------------
# a planted fault in any compared operation is reported


def _operations(reports):
    return {report.operation for report in reports}


def test_crosscheck_reports_a_dropped_irreducible_node(monkeypatch):
    real = numsgps.oracle.irreducible_tree

    def faulty(f, *args, **kwargs):
        tree = real(f, *args, **kwargs)
        if f != 8:
            return tree
        return dataclasses.replace(tree, nodes=tree.nodes[:-1])

    monkeypatch.setattr(numsgps.oracle, "irreducible_tree", faulty)
    assert _operations(crosscheck(8)) == {"irreducible_tree node set F=8"}


def test_crosscheck_reports_a_dropped_interval_node(monkeypatch):
    # the interval tree of <3,5,7> is the root and <5,6,7,8,9>
    real = numsgps.oracle.interval_tree

    def faulty(root):
        tree = real(root)
        if root != sg(3, 5, 7):
            return tree
        return dataclasses.replace(tree, nodes=tree.nodes[:-1])

    monkeypatch.setattr(numsgps.oracle, "interval_tree", faulty)
    assert _operations(crosscheck(8)) == {
        "interval_tree node set",
        "interval_tree height",
    }


@pytest.mark.parametrize("flag", ["ursy", "urpsy"])
def test_crosscheck_reports_a_flipped_removal_flag(monkeypatch, flag):
    plant_flipped_flag(monkeypatch, flag, sg(3, 5, 7))
    reports = crosscheck(8)
    assert _operations(reports) == {flag}
    assert [r.generators for r in reports] == [(3, 5, 7)]


def test_crosscheck_reports_a_dropped_enumerated_member(monkeypatch):
    real = numsgps.oracle.enumerate_k_semigroups

    def faulty(req, *args, **kwargs):
        result = real(req, *args, **kwargs)
        if (req.k, req.frobenius) != (2, 7):
            return result
        first, *rest = result.groups
        first = dataclasses.replace(first, members=first.members[1:])
        return dataclasses.replace(result, groups=(first, *rest))

    monkeypatch.setattr(numsgps.oracle, "enumerate_k_semigroups", faulty)
    assert _operations(crosscheck(8)) == {"enumerate K=2 F=7"}


def test_crosscheck_reports_a_reversed_group(monkeypatch):
    # at K=2 F=7 only D(<4,5,6>) has more than one member (three)
    real = numsgps.oracle.enumerate_k_semigroups

    def faulty(req, *args, **kwargs):
        result = real(req, *args, **kwargs)
        if (req.k, req.frobenius) != (2, 7):
            return result
        groups = tuple(
            dataclasses.replace(g, members=g.members[::-1]) if g.count > 1 else g
            for g in result.groups
        )
        assert [g.count for g in groups if g.count > 1] == [3]
        return dataclasses.replace(result, groups=groups)

    monkeypatch.setattr(numsgps.oracle, "enumerate_k_semigroups", faulty)
    reports = crosscheck(8)
    assert _operations(reports) == {"enumerate order K=2 F=7"}
    assert len(reports) == 1


# ----------------------------------------------------------------------
# the oracle stays independent of the fast kernels


def test_oracle_imports_no_private_kernel():
    tree = ast.parse(inspect.getsource(numsgps.oracle))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    kernels = {"_bit_range", "_mirror", "_set_bits", "_closure_bits", "_gap_bits"}
    assert not names & kernels
    # perfbench and the fault tests above substitute these by name
    for name in (
        "classify",
        "pseudo_frobenius",
        "irreducible_tree",
        "interval_tree",
        "enumerate_k_semigroups",
        "all_with_frobenius",
    ):
        assert callable(getattr(numsgps.oracle, name))
