from __future__ import annotations

import pytest

from numsgps import (
    NATURALS,
    NotThreeSemigroup,
    NotTwoSemigroup,
    all_with_frobenius,
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
from support import python, sg


# ----------------------------------------------------------------------
# pseudo-Frobenius sets


def test_pf_symmetric_is_frobenius_only():
    assert pseudo_frobenius(sg(5, 7, 9, 11)).values == (13,)
    assert pseudo_frobenius(sg(5, 7, 9, 11)).type_count == 1


def test_pf_two_gap_removal_example():
    s = sg(7, 8, 9, 10, 11, 12).remove_element(10)
    assert s.minimal_generators == (7, 8, 9, 11, 12)
    assert pseudo_frobenius(s).values == (10, 13)


def test_pf_three_gap_removal_example():
    s = sg(8, 9, 10, 11, 12, 13, 15).remove_element(10)
    assert s.minimal_generators == (8, 9, 11, 12, 13, 15)
    assert s.gap_profile.l_count == 3
    assert pseudo_frobenius(s).values == (4, 7, 10, 14)
    assert pseudo_frobenius(s).type_count == 4


def test_pf_naturals_sentinel():
    assert pseudo_frobenius(NATURALS).values == (-1,)
    assert pseudo_frobenius(NATURALS).type_count == 1


def test_pf_always_contains_frobenius():
    for s in (sg(2, 5), sg(3, 13, 17), sg(4, 6, 9), sg(6, 10, 15)):
        assert s.frobenius in pseudo_frobenius(s).values


# ----------------------------------------------------------------------
# fast paths


def test_pf_fast_2sg_agrees():
    s = sg(7, 8, 9, 10, 11, 12).remove_element(10)
    assert s.gap_profile.l_count == 2
    assert pf_fast_2sg(s).values == pseudo_frobenius(s).values == (10, 13)


def test_pf_fast_2sg_mirror_excluded():
    # 2h - F = 5 is a member, so F - h = 4 stays out
    s = sg(5, 7, 9, 11).remove_element(9)
    assert s == sg(5, 7, 11)
    assert s.gap_profile.l_count == 2
    assert pf_fast_2sg(s).values == pseudo_frobenius(s).values == (9, 13)


def test_pf_fast_2sg_mirror_included():
    # 2h - F = 1 is a gap, so F - h joins and the type reaches 3
    s = sg(4, 5, 6, 7)
    assert s.gap_profile.l_count == 2
    assert pf_fast_2sg(s).values == pseudo_frobenius(s).values == (1, 2, 3)
    assert pf_fast_2sg(s).type_count == 3


def test_pf_fast_3sg_agrees():
    s = sg(8, 9, 10, 11, 12, 13, 15).remove_element(10)
    assert pf_fast_3sg(s).values == (4, 7, 10, 14)
    t = sg(3, 13, 17)
    assert t.gap_profile.l_count == 3
    assert pf_fast_3sg(t).values == pseudo_frobenius(t).values == (10, 14)
    assert pf_fast_3sg(t).type_count == 2


def test_pf_fast_guards():
    with pytest.raises(NotTwoSemigroup):
        pf_fast_2sg(sg(5, 7, 9, 11))
    with pytest.raises(NotThreeSemigroup):
        pf_fast_3sg(sg(7, 8, 9, 10, 11, 12).remove_element(10))


# ----------------------------------------------------------------------
# symmetry classes


def test_classify_symmetric():
    report = classify(sg(5, 7, 9, 11))
    assert report.l_count == 0
    assert report.symmetric
    assert not report.pseudo_symmetric
    assert report.irreducible


def test_classify_pseudo_symmetric():
    report = classify(sg(3, 5, 7))
    assert report.l_count == 1
    assert report.pseudo_symmetric
    assert not report.symmetric
    assert report.irreducible


def test_classify_reducible():
    report = classify(sg(7, 8, 9, 11, 12))
    assert report.l_count == 2
    assert not report.irreducible
    assert report.ursy


def test_classify_naturals():
    report = classify(NATURALS)
    assert report.symmetric
    assert report.irreducible


def test_consistency_checks_survive_python_O():
    # -O strips assert statements; the identity checks must still fire
    script = (
        "import dataclasses\n"
        "from numsgps import NumericalSemigroup, classify, pf_fast_3sg\n"
        "s = NumericalSemigroup.from_generators((5, 7, 9, 11))\n"
        "good = s.gap_profile\n"
        "for profile, check in (\n"
        "    (dataclasses.replace(good, genus=good.genus + 1), classify),\n"
        "    (dataclasses.replace(good, l_count=3), pf_fast_3sg),\n"
        "):\n"
        "    s.__dict__['gap_profile'] = profile\n"
        "    try:\n"
        "        check(s)\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        raise SystemExit('no check fired')\n"
    )
    optimized = python("-O", "-c", script)
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout.decode().splitlines() == [
        "l = 0 but 2g != F + 1 for NumericalSemigroup<5,7,9,11>",
        "l = 3 but F = 13 is odd for NumericalSemigroup<5,7,9,11>",
    ]
    argv = ("-m", "numsgps.cli", "info", "--gens", "5,7,9,11", "--json")
    plain, stripped = python(*argv), python("-O", *argv)
    assert plain.returncode == stripped.returncode == 0
    assert stripped.stdout == plain.stdout


# ----------------------------------------------------------------------
# unitary removals


def test_ursy_witness_rebuilds_symmetric_parent():
    s = sg(7, 8, 9, 10, 11, 12).remove_element(10)
    parent, removed = ursy_witness(s)
    assert removed == 10
    assert parent == sg(7, 8, 9, 10, 11, 12)
    assert classify(parent).symmetric


def test_ursy_with_naturals_as_parent():
    parent, removed = ursy_witness(sg(2, 3))
    assert parent == NATURALS
    assert removed == 1


def test_urpsy_witness_rebuilds_pseudo_symmetric_parent():
    # the scan returns the smallest admissible witness; here filling 4
    # already yields a pseudo-symmetric parent, so 10 is never reached
    s = sg(8, 9, 10, 11, 12, 13, 15).remove_element(10)
    parent, removed = urpsy_witness(s)
    assert (parent, removed) == (sg(4, 9, 11), 4)
    assert classify(parent).pseudo_symmetric
    assert removed in parent.minimal_generators
    assert set(s.gaps) == set(parent.gaps) | {removed}
    # the largest second-kind gap is 10; filling it instead recovers
    # the semigroup the fixture started from
    assert s.gap_profile.h_value == 10
    assert s.adjoin_h() == sg(8, 9, 10, 11, 12, 13, 15)


def test_symmetric_is_not_ursy():
    assert not is_ursy(sg(5, 7, 9, 11))
    assert ursy_witness(sg(5, 7, 9, 11)) is None


def test_urpsy_with_two_gaps():
    # <4,5,6,7> = <3,4,5> minus its element 3, and <3,4,5> has l = 1;
    # its own l is 2, which is why the l = 3 description must exclude
    # the family below
    s = sg(4, 5, 6, 7)
    assert s.gap_profile.l_count == 2
    assert is_urpsy(s)
    assert in_family_u(s)


# ----------------------------------------------------------------------
# the exceptional family


def test_family_u_explicit_members():
    assert in_family_u(sg(3, 5, 7))
    assert in_family_u(sg(4, 5, 6, 7))
    assert in_family_u(sg(4, 5, 11))


def test_family_u_three_generated_branch():
    assert in_family_u(sg(3, 4))
    assert in_family_u(sg(3, 5))
    assert in_family_u(sg(3, 7))
    assert in_family_u(sg(3, 8))
    assert in_family_u(sg(3, 6, 8))  # msg collapses to (3,8)


def test_family_u_interval_branch():
    assert in_family_u(sg(5, 6, 7))
    assert in_family_u(sg(6, 7, 8, 9))
    assert in_family_u(sg(7, 8, 9, 10, 11))
    assert not in_family_u(sg(4, 5, 6))  # needs multiplicity at least 5


def test_family_u_non_members():
    assert not in_family_u(sg(2, 3))
    assert not in_family_u(sg(4, 6, 9))
    assert not in_family_u(sg(5, 7, 9, 11))
    assert not in_family_u(NATURALS)


# ----------------------------------------------------------------------
# sporadic removals whose parent has a smaller Frobenius number


def test_ursy_sporadic_with_small_parent():
    # <3,4,5> = <2,3> minus the generator 2.  The removed generator
    # exceeds F(<2,3>) = 1, so the Frobenius number moves from 1 to 2
    # and the second-kind count lands on 1, not 2.  This is the one
    # semigroup with multiplicity >= 3 where that happens.
    s = sg(3, 4, 5)
    assert ursy_witness(s) == (sg(2, 3), 2)
    assert s.multiplicity == 3
    assert s.gap_profile.l_count == 1


def test_urpsy_sporadic_outside_family_u():
    # <3,7,8> = <3,5,7> minus the generator 5, again with the removed
    # generator above the parent's Frobenius number 4; l lands on 2.
    # It matches none of the family patterns above.
    s = sg(3, 7, 8)
    assert urpsy_witness(s) == (sg(3, 5, 7), 5)
    assert s.gap_profile.l_count == 2
    assert not in_family_u(s)


# ----------------------------------------------------------------------
# the mask witnesses against the definition


def _scanned_witness(s, want_l):
    # the parent built and read through its gap profile and generators
    if s.frobenius < 1:
        return None
    for y in pseudo_frobenius(s).values:
        if not s.contains(2 * y):
            continue
        parent = s._adjoin(y)
        if parent.gap_profile.l_count != want_l:
            continue
        if y in parent.minimal_generators:
            return parent, y
    return None


def test_witnesses_equal_the_scan_on_every_small_semigroup():
    for f in range(1, 17):
        for s in all_with_frobenius(f):
            assert ursy_witness(s) == _scanned_witness(s, 0)
            assert urpsy_witness(s) == _scanned_witness(s, 1)


@pytest.mark.parametrize(
    "s, witness, expected",
    [
        # the parent is N, with F = -1
        (sg(2, 3), ursy_witness, (NATURALS, 1)),
        # y = F(<3,5>) = 7: the parent <3,5,7> has F = 4, three below y
        (sg(3, 5), urpsy_witness, (sg(3, 5, 7), 7)),
    ],
)
def test_witness_where_the_frobenius_number_drops(s, witness, expected):
    assert witness(s) == expected
    assert _scanned_witness(s, expected[0].gap_profile.l_count) == expected
