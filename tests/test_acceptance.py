"""Acceptance gate: ten end-to-end criteria, one test each.

Running `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion.  Each test also prints its own `PASS criterion N` line
(visible with -s or in captured output) after the asserts go through.
Timing limits are asserted where the criterion carries one.
"""

from __future__ import annotations

import json
import time

from numsgps import (
    NumericalSemigroup,
    all_with_frobenius,
    canonical_irreducible,
    classify,
    crosscheck,
    enumerate_k_semigroups,
    EnumerationRequest,
    in_family_u,
    interval_tree,
    irreducible_tree,
    is_urpsy,
    is_ursy,
    pf_fast_2sg,
    pf_fast_3sg,
    pseudo_frobenius,
    theta_surplus,
)
from numsgps.cli import main
from support import sg

IRREDUCIBLES_F11 = {
    (6, 7, 8, 9, 10),
    (3, 7),
    (4, 6, 9),
    (5, 7, 8, 9),
    (2, 13),
    (4, 5),
}

EDGES_F11 = {
    ((6, 7, 8, 9, 10), (5, 7, 8, 9), 6),
    ((6, 7, 8, 9, 10), (4, 6, 9), 7),
    ((6, 7, 8, 9, 10), (3, 7), 8),
    ((5, 7, 8, 9), (4, 5), 7),
    ((4, 6, 9), (2, 13), 9),
}

LEVELS_F13 = (
    {(5, 7, 9, 11)},
    {(5, 9, 11, 12), (5, 7, 11), (5, 7, 9)},
    {(5, 11, 12, 14, 18), (5, 9, 12, 16), (5, 9, 11, 17), (5, 7, 16, 18)},
    {(5, 12, 14, 16, 18), (5, 11, 14, 17, 18), (5, 9, 16, 17)},
    {(5, 14, 16, 17, 18)},
)

EDGES_F13 = {
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

GROUPS_K6_F11 = {
    (6, 7, 8, 9, 10): {
        (6, 7, 15, 16, 17),
        (6, 8, 13, 15, 17),
        (6, 9, 13, 14, 16, 17),
        (6, 10, 13, 14, 15, 17),
        (7, 8, 12, 13, 17, 18),
        (7, 9, 12, 13, 15, 17),
        (7, 10, 12, 13, 15, 16, 18),
        (8, 9, 12, 13, 14, 15, 19),
        (8, 10, 12, 13, 14, 15, 17, 19),
        (9, 10, 12, 13, 14, 15, 16, 17),
    },
    (4, 6, 9): {(4, 13, 14, 15)},
    (5, 7, 8, 9): {(5, 12, 13, 14, 16)},
}


def _gen_sets(semigroups):
    return {s.minimal_generators for s in semigroups}


def test_criterion_01_irreducibles_with_frobenius_11():
    started = time.perf_counter()
    tree = irreducible_tree(11)
    edges = {
        (p.minimal_generators, c.minimal_generators, x) for p, c, x in tree.edges()
    }
    elapsed = time.perf_counter() - started
    assert _gen_sets(tree.semigroups()) == IRREDUCIBLES_F11
    assert edges == EDGES_F11
    assert elapsed < 1.0
    print("PASS criterion 1: irreducibles F=11, exact node and edge sets")


def test_criterion_02_interval_tree_of_5_7_9_11():
    started = time.perf_counter()
    tree = interval_tree(sg(5, 7, 9, 11))
    elapsed = time.perf_counter() - started
    assert len(tree) == 12
    assert [len(tree.level(d)) for d in range(5)] == [1, 3, 4, 3, 1]
    for depth, expected in enumerate(LEVELS_F13):
        assert _gen_sets(tree.level(depth)) == expected
    edges = {
        (p.minimal_generators, c.minimal_generators, x) for p, c, x in tree.edges()
    }
    assert edges == EDGES_F13
    assert elapsed < 1.0
    print("PASS criterion 2: interval tree of <5,7,9,11>, levels and edges exact")


def test_criterion_03_k6_f11_enumeration():
    started = time.perf_counter()
    result = enumerate_k_semigroups(EnumerationRequest(6, 11))
    elapsed = time.perf_counter() - started
    assert result.feasible
    assert result.total == 12
    grouped = {
        g.root.minimal_generators: {m.minimal_generators for m in g.members}
        for g in result.groups
    }
    assert grouped == GROUPS_K6_F11
    assert elapsed < 1.0
    print("PASS criterion 3: 12 semigroups with l=6, F=11, grouped 10/1/1")


def test_criterion_04_pf_golden_pairs():
    a = sg(7, 8, 9, 10, 11, 12).remove_element(10)
    assert pseudo_frobenius(a).values == (10, 13)
    assert pf_fast_2sg(a).values == (10, 13)
    b = sg(8, 9, 10, 11, 12, 13, 15).remove_element(10)
    assert pseudo_frobenius(b).values == (4, 7, 10, 14)
    assert pf_fast_3sg(b).values == (4, 7, 10, 14)
    print("PASS criterion 4: PF fast paths and generic agree on both removals")


def test_criterion_05_l_count_goldens():
    a = sg(5, 7, 9, 11).remove_element(7).remove_element(12)
    assert a.gap_profile.l_count == 4
    b = sg(5, 8, 11, 12).remove_element(11).remove_element(12)
    assert b.gap_profile.l_count == 5
    c = NumericalSemigroup.from_gap_set(
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 17]
    )
    assert c.frobenius == 17
    assert c.gap_profile.l_count == 8
    print("PASS criterion 5: second-kind gap counts 4 / 5 / 8")


def test_criterion_06_oracle_sweep():
    started = time.perf_counter()
    assert crosscheck(18) == []
    for f in range(1, 19):
        population = all_with_frobenius(f)
        total = sum(
            enumerate_k_semigroups(EnumerationRequest(k, f)).total
            for k in range(0, f + 1)
        )
        assert total == len(population)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print("PASS criterion 6: zero mismatches through F=18, counts add up")


def test_criterion_07_surplus_laws():
    for f in range(1, 201):
        assert theta_surplus(canonical_irreducible(f)) == (f - 1) // 2
    for f in range(1, 21):
        for parent, child, _ in irreducible_tree(f).edges():
            assert theta_surplus(child) < theta_surplus(parent)
    print("PASS criterion 7: root surplus law to F=200, strict decrease to F=20")


def test_criterion_08_biconditional_sweeps():
    # Removing a generator below the parent's Frobenius number keeps
    # that number and raises l by exactly 2, which is what the l = 2
    # and l = 3 characterizations rest on.  Removing a generator ABOVE
    # it instead moves the Frobenius number, and exactly two semigroups
    # slip through the stated side conditions that way:
    #   <3,4,5> = <2,3> minus 2   (symmetric parent, m = 3, but l = 1)
    #   <3,7,8> = <3,5,7> minus 5 (pseudo-symmetric parent, not in the
    #                              exceptional family, but l = 2)
    # The sweep asserts the biconditionals everywhere else and pins the
    # exact behavior of those two, so every semigroup is still checked.
    for f in range(1, 16):
        for s in all_with_frobenius(f):
            p = s.gap_profile
            report = classify(s)
            pf = pseudo_frobenius(s).values
            gens = s.minimal_generators
            assert (p.l_count == 0) == report.symmetric == (pf == (f,))
            assert (p.l_count == 1) == report.pseudo_symmetric == (
                f % 2 == 0 and pf == (f // 2, f)
            )
            if gens == (3, 4, 5):
                assert is_ursy(s) and s.multiplicity >= 3 and p.l_count == 1
            else:
                assert (p.l_count == 2) == (is_ursy(s) and s.multiplicity >= 3)
            if gens == (3, 7, 8):
                assert is_urpsy(s) and not in_family_u(s) and p.l_count == 2
            else:
                assert (p.l_count == 3) == (is_urpsy(s) and not in_family_u(s))
            assert (p.l_count % 2 == 0) == (f % 2 == 1)
            assert p.l_count <= (s.embedding_dimension - 2) * p.n_count
    print(
        "PASS criterion 8: classification biconditionals hold through F=15"
        " (sporadics <3,4,5> and <3,7,8> pinned)"
    )


def test_criterion_09_pinned_surplus_of_3_7():
    # computed value: the members of <3,7> strictly between 0 and 11
    # that fall outside <3> are 7 and 10, so the surplus is 2, not 1;
    # the pruned run at threshold 3 drops <3,7> either way
    assert theta_surplus(sg(3, 7)) == 2
    pruned = irreducible_tree(11, prune_threshold=3)
    assert _gen_sets(pruned.semigroups()) == {
        (6, 7, 8, 9, 10),
        (4, 6, 9),
        (5, 7, 8, 9),
    }
    assert enumerate_k_semigroups(EnumerationRequest(6, 11)).total == 12
    print("PASS criterion 9: surplus of <3,7> pinned at 2, enumeration unchanged")


def test_criterion_10_threaded_json_is_byte_identical(capsys):
    commands = [
        ["irreducibles", "--frobenius", "11", "--json"],
        ["interval-tree", "--gens", "5,7,9,11", "--json"],
        ["ksemigroups", "--l", "6", "--frobenius", "11", "--json"],
    ]
    for argv in commands:
        assert main(argv + ["--threads", "1"]) == 0
        lone = capsys.readouterr().out
        assert main(argv + ["--threads", "8"]) == 0
        pooled = capsys.readouterr().out
        assert lone == pooled
        for line in lone.strip().split("\n"):
            json.loads(line)
    print("PASS criterion 10: JSON byte-identical under --threads 1 and 8")
