from __future__ import annotations

import pytest

from numsgps import (
    NATURALS,
    GcdNotOne,
    NoSecondKindGap,
    NotClosed,
    NotMinimalGenerator,
    NumericalSemigroup,
)
from support import sg


# ----------------------------------------------------------------------
# construction


def test_from_generators_sorts_and_dedups():
    assert sg(11, 5, 9, 7, 5) == sg(5, 7, 9, 11)


def test_from_generators_accepts_redundant_generators():
    # 12 = 5 + 7, so it changes nothing
    assert sg(5, 7, 9, 11, 12) == sg(5, 7, 9, 11)


def test_from_generators_one_gives_naturals():
    assert sg(1) == NATURALS
    assert sg(1, 4) == NATURALS


def test_from_generators_gcd_error():
    with pytest.raises(GcdNotOne) as exc:
        sg(2, 4)
    assert exc.value.gcd == 2
    with pytest.raises(GcdNotOne):
        sg(6, 10)


def test_from_generators_gcd_one_overall_is_enough():
    # no pair here is coprime, yet the full gcd is 1
    assert sg(6, 10, 15).frobenius == 29


def test_from_generators_rejects_nonpositive():
    with pytest.raises(ValueError):
        sg(0, 3)
    with pytest.raises(ValueError):
        sg(-2, 3)
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([])


def test_from_gap_set_round_trip():
    s = sg(5, 7, 9, 11)
    assert NumericalSemigroup.from_gap_set(s.gaps) == s


def test_from_gap_set_small_cases():
    assert NumericalSemigroup.from_gap_set([]) == NATURALS
    assert NumericalSemigroup.from_gap_set([1]) == sg(2, 3)
    assert NumericalSemigroup.from_gap_set([1, 3]) == sg(2, 5)


def test_from_gap_set_not_closed_witness():
    # 1 is a member and 1 + 1 = 2 is declared a gap
    with pytest.raises(NotClosed) as exc:
        NumericalSemigroup.from_gap_set([2])
    assert exc.value.witness == (1, 1)


def test_from_gap_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        NumericalSemigroup.from_gap_set([0, 1])


# ----------------------------------------------------------------------
# membership and display


def test_membership():
    s = sg(5, 7, 9, 11)
    inside = {0, 5, 7, 9, 10, 11, 12, 14, 15, 16}
    for x in range(-2, 20):
        assert (x in s) == (x in inside or x > 16)


def test_naturals_membership():
    assert 0 in NATURALS
    assert 1 in NATURALS
    assert -1 not in NATURALS
    assert NATURALS.frobenius == -1


def test_str_and_repr():
    s = sg(5, 7, 9, 11)
    assert str(s) == "<5,7,9,11>"
    assert repr(s) == "NumericalSemigroup<5,7,9,11>"
    assert str(NATURALS) == "<1>"


# ----------------------------------------------------------------------
# gap profile


def test_gap_profile_symmetric_example():
    p = sg(5, 7, 9, 11).gap_profile
    assert p.gaps == (1, 2, 3, 4, 6, 8, 13)
    assert p.small_elements == (0, 5, 7, 9, 10, 11, 12)
    assert p.first_kind == (1, 2, 3, 4, 6, 8, 13)
    assert p.second_kind == ()
    assert p.genus == 7
    assert p.n_count == 7
    assert p.l_count == 0
    assert p.h_value == -1


def test_gap_profile_counts_add_up():
    for s in (sg(5, 7, 9, 11), sg(4, 6, 9), sg(3, 13, 17), sg(2, 5)):
        p = s.gap_profile
        f = s.frobenius
        assert p.genus + p.n_count == f + 1
        assert p.genus == p.n_count + p.l_count
        assert 2 * p.genus == f + 1 + p.l_count
        assert set(p.first_kind) | set(p.second_kind) == set(p.gaps)
        assert set(p.first_kind) & set(p.second_kind) == set()


def test_gap_profile_second_kind_example():
    # gaps x whose mirror f - x is not a small element
    p = sg(3, 13, 17).gap_profile
    assert sg(3, 13, 17).frobenius == 14
    assert p.second_kind == (4, 7, 10)
    assert p.l_count == 3
    assert p.h_value == 10


def test_h_skips_half_frobenius():
    # F = 4, second kind = {2} = {F/2}, so no usable value
    p = sg(3, 5, 7).gap_profile
    assert p.l_count == 1
    assert p.h_value == -1


def test_gap_profile_naturals():
    p = NATURALS.gap_profile
    assert p.gaps == ()
    assert p.genus == 0
    assert p.l_count == 0
    assert p.h_value == -1


# ----------------------------------------------------------------------
# generators and invariants


def test_minimal_generators():
    assert sg(5, 7, 9, 11).minimal_generators == (5, 7, 9, 11)
    assert sg(4, 6, 9).minimal_generators == (4, 6, 9)
    assert sg(2, 5).minimal_generators == (2, 5)
    assert NATURALS.minimal_generators == (1,)


def test_minimal_generators_drop_redundant():
    assert sg(3, 5, 7, 8).minimal_generators == (3, 5, 7)
    # 21 = 6 + 15 and 22 = 6 + 6 + 10
    assert sg(6, 10, 15, 21, 22).minimal_generators == (6, 10, 15)


@pytest.mark.parametrize(
    "a, b",
    [
        (2, 3),
        (2, 399),
        (3, 400),
        (7, 400),
        (59, 61),
        (97, 389),
        (211, 223),
        (255, 256),
        (397, 400),
        (399, 400),
    ],
)
def test_two_generator_sylvester_anchor(a, b):
    # F = ab - a - b and genus (a-1)(b-1)/2, far beyond the oracle's range;
    # the genus is the count of zero bits in the table over [0, F + 1]
    s = sg(a, b)
    assert s.frobenius == a * b - a - b
    assert s.frobenius + 2 - s.bits.bit_count() == (a - 1) * (b - 1) // 2
    assert s.minimal_generators == (a, b)


def test_multiplicity_and_embedding_dimension():
    s = sg(5, 7, 9, 11)
    assert s.multiplicity == 5
    assert s.embedding_dimension == 4
    assert NATURALS.multiplicity == 1
    assert NATURALS.embedding_dimension == 1


def test_canonical_key_orders_by_gap_tuple():
    a = sg(5, 6, 7, 8, 9)  # gaps (1,2,3,4)
    b = sg(3, 5, 7)  # gaps (1,2,4)
    assert a.canonical_key < b.canonical_key


def test_delta_keeps_small_halves():
    s = sg(3, 7)
    assert s.frobenius == 11
    assert s.delta() == (0, 3)
    assert sg(5, 7, 9, 11).delta() == (0, 5)


def test_validate():
    sg(5, 7, 9, 11).validate()
    NATURALS.validate()


# ----------------------------------------------------------------------
# element removal


def test_remove_element_below_frobenius():
    s = sg(5, 7, 9, 11)
    t = s.remove_element(7)
    assert t == sg(5, 9, 11, 12)
    assert t.frobenius == s.frobenius
    assert t.gap_profile.l_count == s.gap_profile.l_count + 2


def test_remove_element_chain():
    t = sg(5, 7, 9, 11).remove_element(7).remove_element(12)
    assert t == sg(5, 9, 11, 17)
    assert t.gap_profile.l_count == 4


def test_remove_element_above_frobenius_moves_it():
    # removing a generator beyond F makes that generator the new F
    assert sg(2, 3).remove_element(3) == sg(2, 5)
    assert sg(2, 3).remove_element(2) == sg(3, 4, 5)
    assert NATURALS.remove_element(1) == sg(2, 3)


def test_remove_element_rejects_non_generators():
    s = sg(5, 7, 9, 11)
    with pytest.raises(NotMinimalGenerator):
        s.remove_element(10)  # member, but 10 = 5 + 5
    with pytest.raises(NotMinimalGenerator):
        s.remove_element(6)  # not a member at all


# ----------------------------------------------------------------------
# filling the distinguished gap back in


def test_adjoin_h_inverts_removal():
    s = sg(5, 7, 9, 11)
    t = s.remove_element(9)
    assert t.gap_profile.h_value == 9
    assert t.adjoin_h() == s


def test_adjoin_h_golden_step():
    t = sg(5, 14, 16, 17, 18)
    assert t.gap_profile.l_count == 8
    assert t.gap_profile.h_value == 12
    up = t.adjoin_h()
    assert up == sg(5, 12, 14, 16, 18)
    assert up.gap_profile.l_count == 6


def test_adjoin_h_requires_second_kind_gaps():
    with pytest.raises(NoSecondKindGap):
        sg(5, 7, 9, 11).adjoin_h()  # l = 0
    with pytest.raises(NoSecondKindGap):
        sg(3, 5, 7).adjoin_h()  # l = 1
