from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from numsgps import (
    NotClosed,
    NumericalSemigroup,
    brute_l,
    brute_msg,
    brute_pf,
    canonical_irreducible,
    interval_level_counts,
    irreducible_children,
    iter_interval_level,
    pseudo_frobenius,
    theta,
)
from numsgps.trees import _upper_generators

gen_lists = st.lists(
    st.integers(min_value=2, max_value=60), min_size=2, max_size=6
)


def _semigroup(gens) -> NumericalSemigroup:
    assume(math.gcd(*gens) == 1)
    return NumericalSemigroup.from_generators(gens)


@given(gen_lists)
@settings(deadline=None)
def test_gap_count_identities(gens):
    s = _semigroup(gens)
    p = s.gap_profile
    f = s.frobenius
    # genus plus small-element count covers [0, F] exactly once
    assert p.genus + p.n_count == f + 1
    assert p.genus == p.n_count + p.l_count
    assert 2 * p.genus == f + 1 + p.l_count


@given(gen_lists)
@settings(deadline=None)
def test_gap_kinds_partition(gens):
    s = _semigroup(gens)
    p = s.gap_profile
    assert set(p.first_kind) | set(p.second_kind) == set(p.gaps)
    assert set(p.first_kind) & set(p.second_kind) == set()
    # mirrors of first-kind gaps are small elements
    small = set(p.small_elements)
    for x in p.first_kind:
        assert s.frobenius - x in small
    for x in p.second_kind:
        assert s.frobenius - x not in small


@given(gen_lists)
@settings(deadline=None)
def test_generator_round_trip(gens):
    s = _semigroup(gens)
    assert NumericalSemigroup.from_generators(s.minimal_generators) == s
    assert NumericalSemigroup.from_gap_set(s.gaps) == s


@given(gen_lists)
@settings(deadline=None)
def test_minimal_generators_are_minimal(gens):
    s = _semigroup(gens)
    msg = s.minimal_generators
    members = [x for x in range(1, s.frobenius + 2 * s.multiplicity + 1) if x in s]
    for g in msg:
        assert g in s
        # not a sum of two nonzero members
        assert not any(a in s and (g - a) in s for a in range(1, g))
    # and everything else small enough is such a sum
    for x in members:
        if x not in msg and x <= max(msg):
            assert any(a in s and (x - a) in s for a in range(1, x))


@given(gen_lists)
@settings(deadline=None)
def test_parity_law(gens):
    s = _semigroup(gens)
    assume(s.frobenius >= 1)
    l_count = s.gap_profile.l_count
    assert (l_count % 2 == 0) == (s.frobenius % 2 == 1)


@given(gen_lists)
@settings(deadline=None)
def test_gap_form_of_wilf(gens):
    s = _semigroup(gens)
    p = s.gap_profile
    e = s.embedding_dimension
    assert p.l_count <= (e - 2) * p.n_count


@given(gen_lists)
@settings(deadline=None)
def test_pf_members_are_extremal_gaps(gens):
    s = _semigroup(gens)
    assume(s.frobenius >= 1)
    pf = pseudo_frobenius(s).values
    gaps = set(s.gaps)
    assert pf[-1] == s.frobenius
    for x in pf:
        assert x in gaps
        # x plus any nonzero member stays inside
        for m in s.minimal_generators:
            assert (x + m) in s


@given(gen_lists)
@settings(deadline=None)
def test_h_sentinel_matches_l(gens):
    s = _semigroup(gens)
    p = s.gap_profile
    if p.l_count <= 1:
        assert p.h_value == -1
    else:
        assert p.h_value in p.second_kind
        assert 2 * p.h_value != s.frobenius


@given(gen_lists)
@settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_removal_and_refill_are_inverse(gens):
    s = _semigroup(gens)
    f = s.frobenius
    # x must beat every current second-kind gap, otherwise the refill
    # targets the older, larger gap instead of x; most drawn semigroups
    # have no such generator, hence the suppressed filter health check
    floor = s.gap_profile.h_value
    candidates = [
        x for x in s.minimal_generators if 2 * x > f and x < f and x > floor
    ]
    assume(candidates)
    for x in candidates:
        t = s.remove_element(x)
        assert t.frobenius == f
        assert t.gap_profile.l_count == s.gap_profile.l_count + 2
        assert t.gap_profile.h_value == x
        assert t.adjoin_h() == s


def _removable(s):
    f = s.frobenius
    return [x for x in s.minimal_generators if 2 * x > f and x < f]


@given(st.lists(st.integers(min_value=4, max_value=60), min_size=2, max_size=6))
@settings(deadline=None)
def test_removal_below_h_still_raises_l(gens):
    # built to have a minimal generator in (F/2, F): max + 1 is coprime
    # to a common divisor of the list, and generators from 4 up give
    # F >= 3.  Filling in h makes h such a generator; an irreducible S
    # first loses its multiplicity, which leaves l >= 2.
    if math.gcd(*gens) != 1:
        gens = [*gens, max(gens) + 1]
    s = NumericalSemigroup.from_generators(gens)
    if not _removable(s):
        if s.gap_profile.l_count < 2:
            s = s.remove_element(s.multiplicity)
        s = s.adjoin_h()
    candidates = _removable(s)
    assert candidates
    for x in candidates:
        t = s.remove_element(x)
        assert t.gap_profile.l_count == s.gap_profile.l_count + 2


@st.composite
def wide_semigroups(draw, max_multiplicity=30):
    # multiplicity m in [8, max_multiplicity] and generators up to 3m: F
    # reaches the hundreds, beyond the oracle's exhaustive range
    m = draw(st.integers(min_value=8, max_value=max_multiplicity))
    rest = draw(
        st.lists(
            st.integers(min_value=m + 1, max_value=3 * m), min_size=1, max_size=6
        )
    )
    gens = [m, *rest]
    if math.gcd(*gens) != 1:
        gens.append(m + 1)
    return NumericalSemigroup.from_generators(gens)


@given(wide_semigroups())
@settings(deadline=None)
def test_minimal_generators_match_brute_force_at_large_frobenius(s):
    assert s.minimal_generators == brute_msg(s)


@given(wide_semigroups())
@settings(deadline=None)
def test_pseudo_frobenius_matches_brute_force_at_large_frobenius(s):
    assert pseudo_frobenius(s).values == brute_pf(s)


@given(wide_semigroups())
@settings(deadline=None)
def test_gap_kernels_match_definitions_at_large_frobenius(s):
    f = s.frobenius
    p = s.gap_profile
    gaps = tuple(x for x in range(1, f + 1) if x not in s)
    # second kind: F - x is not a small element, i.e. it is a gap too
    second = [x for x in gaps if f - x not in s]
    assert p.gaps == gaps
    assert p.l_count == brute_l(s) == len(second)
    assert p.h_value == max((x for x in second if 2 * x != f), default=-1)
    assert s.delta() == tuple(x for x in range(f) if 2 * x < f and x in s)
    assert NumericalSemigroup.from_gap_set(s.gaps) == s


@given(wide_semigroups())
@settings(deadline=None)
def test_child_mask_is_the_upper_generators_at_large_frobenius(s):
    f = s.frobenius
    upper = [g for g in s.minimal_generators if f < 2 * g and g < f]
    assert _upper_generators(s) == sum(1 << g for g in upper)


def _walk_down_irreducibles(f, rng):
    # a random walk down the irreducible tree of F from C(F)
    s = canonical_irreducible(f)
    for _ in range(rng.randrange(40)):
        children = irreducible_children(s)
        if not children:
            break
        s = rng.choice(children)[0]
    return s


@given(st.integers(min_value=60, max_value=399), st.integers(min_value=0))
@settings(deadline=None)
def test_interval_is_the_down_sets_of_the_removable_part(f, seed):
    # [theta(I), I] is {I \\ B : B a down-set of P(I)}, where
    # P(I) = I n (F/2, F) \\ theta(I) and a <= b when b - a is in delta(I);
    # every removal raises l by 2 and keeps theta.  F reaches far beyond
    # any enumeration, which stops near F = 40.
    rng = random.Random(seed)
    root = _walk_down_irreducibles(f, rng)
    low = theta(root)
    delta = set(root.delta())
    part = [x for x in range(f // 2 + 1, f) if x in root and x not in low]
    for _ in range(10):
        seeds = {x for x in part if rng.random() < rng.random()}
        if rng.random() < 0.5:
            # descending, so every b above a is settled before a
            for a in sorted(part, reverse=True):
                if any(b - a in delta for b in seeds):
                    seeds.add(a)
        down = all(a in seeds for b in seeds for a in part if b - a in delta)
        s = NumericalSemigroup(f, root.bits & ~sum(1 << b for b in seeds))
        try:
            s.validate()
        except NotClosed:
            assert not down
            continue
        assert down
        assert brute_l(s) == brute_l(root) + 2 * len(seeds)
        assert theta(s) == low


@given(
    st.integers(min_value=60, max_value=399),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=3),
)
@settings(deadline=None, derandomize=True)
def test_slice_walk_matches_the_down_set_counts(f, seed, depth):
    # the walk on bare tables against the down-set counter, which walks
    # nothing; levels too wide to walk quickly (C(F) alone has about F/4
    # nodes at depth 1) are left to the counter
    root = _walk_down_irreducibles(f, random.Random(seed))
    counts = interval_level_counts(root, depth)
    for n in range(depth + 1):
        if sum(counts[: n + 1]) > 3000:
            break
        keys = [s.canonical_key for s in iter_interval_level(root, n)]
        assert len(keys) == counts[n]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def _first_closure_witness(members, f):
    # the lexicographically first pair i <= j of members with i + j a gap
    member_set = set(members)
    for pos, i in enumerate(members):
        for j in members[pos:]:
            if i + j > f:
                break
            if i + j not in member_set:
                return (i, j)
    return None


@given(
    wide_semigroups(max_multiplicity=12),
    st.lists(st.integers(min_value=0), min_size=1, max_size=4),
)
@settings(deadline=None)
def test_not_closed_witness_matches_brute_scan(s, picks):
    # turn some members that are not generators (2m among them) into
    # gaps; several new gaps give a member i more than one bad partner
    top = s.frobenius + s.multiplicity
    sums = [x for x in range(1, top + 1) if x in s and x not in s.minimal_generators]
    assert sums
    removed = {sums[p % len(sums)] for p in picks}
    f = max(s.frobenius, *removed)
    members = [y for y in range(1, f + 1) if y in s and y not in removed]
    expected = _first_closure_witness(members, f)
    assert expected is not None
    with pytest.raises(NotClosed) as exc:
        NumericalSemigroup.from_gap_set([*s.gaps, *removed])
    assert exc.value.witness == expected


@given(gen_lists)
@settings(deadline=None)
def test_theta_is_contained_and_shares_delta(gens):
    s = _semigroup(gens)
    assume(s.frobenius >= 1)
    t = theta(s)
    assert t.frobenius == s.frobenius
    for x in range(0, s.frobenius + 2):
        if x in t:
            assert x in s
    assert t.delta() == s.delta()
