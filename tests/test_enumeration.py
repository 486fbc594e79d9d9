from __future__ import annotations

import dataclasses

import pytest

from numsgps import (
    BoundExceeded,
    BudgetExceeded,
    EnumerationRequest,
    Mode,
    enumerate_k_semigroups,
    feasible,
    interval_tree,
    irreducible_tree,
    iter_k_semigroups,
    witness_k_semigroup,
)
from support import count_interval_levels, sg

# the complete answer for K = 6, F = 11, grouped by tree root
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


# n_g, the number of numerical semigroups of genus g (OEIS A007323;
# Bras-Amoros, Semigroup Forum 2008), for g = 1..25
GENUS_COUNTS = (
    1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
    4806, 8045, 13467, 22464, 37396, 62194, 103246, 170963, 282828, 467224,
)


def _genus_count(g, mode=Mode.COUNT_ONLY):
    # 2g = F + 1 + l, so genus g splits over F in [g, 2g - 1] with
    # l = 2g - F - 1 on each
    return sum(
        enumerate_k_semigroups(EnumerationRequest(2 * g - f - 1, f, mode)).total
        for f in range(g, 2 * g)
    )


def _grouped(result):
    return {
        g.root.minimal_generators: {m.minimal_generators for m in g.members}
        for g in result.groups
    }


# ----------------------------------------------------------------------
# feasibility gates


def test_feasible_parity_gate():
    assert not feasible(6, 10)
    assert not feasible(5, 11)
    assert feasible(6, 11)
    assert feasible(5, 10)


def test_feasible_size_gate():
    assert feasible(6, 7)  # F = K + 1 is the tight case
    assert not feasible(8, 7)
    assert not feasible(11, 2)
    assert feasible(0, 1)
    assert not feasible(0, -1)


def test_infeasible_result_is_empty():
    result = enumerate_k_semigroups(EnumerationRequest(6, 10))
    assert not result.feasible
    assert result.groups == ()
    assert result.total == 0


# ----------------------------------------------------------------------
# golden enumerations


def test_enumerate_k6_f11_golden():
    result = enumerate_k_semigroups(EnumerationRequest(6, 11))
    assert result.feasible
    assert result.total == 12
    assert _grouped(result) == GROUPS_K6_F11


def test_enumerate_members_have_requested_shape():
    result = enumerate_k_semigroups(EnumerationRequest(6, 11))
    for group in result.groups:
        for member in group.members:
            assert member.frobenius == 11
            assert member.gap_profile.l_count == 6


def test_enumerate_symmetric_case_lists_irreducibles():
    # K = 0 asks for the symmetric semigroups themselves
    result = enumerate_k_semigroups(EnumerationRequest(0, 11))
    assert result.total == 6
    assert all(g.count == 1 for g in result.groups)
    members = {m.minimal_generators for g in result.groups for m in g.members}
    assert (6, 7, 8, 9, 10) in members
    assert (2, 13) in members


def test_enumerate_pseudo_symmetric_case():
    result = enumerate_k_semigroups(EnumerationRequest(1, 2))
    assert result.total == 1
    assert result.groups[0].members == (sg(3, 4, 5),)


def test_enumerate_k3_f4():
    result = enumerate_k_semigroups(EnumerationRequest(3, 4))
    assert result.total == 1
    assert result.groups[0].root == sg(3, 5, 7)
    assert result.groups[0].members == (sg(5, 6, 7, 8, 9),)


def test_count_mode_omits_members():
    result = enumerate_k_semigroups(EnumerationRequest(6, 11, mode=Mode.COUNT_ONLY))
    assert result.total == 12
    assert all(g.members is None for g in result.groups)
    assert sorted(g.count for g in result.groups) == [1, 1, 10]


def test_count_mode_totals_equal_the_walked_totals():
    for f in range(1, 24):
        for k in range(f):
            if not feasible(k, f):
                continue
            full = enumerate_k_semigroups(EnumerationRequest(k, f))
            counted = enumerate_k_semigroups(EnumerationRequest(k, f, Mode.COUNT_ONLY))
            assert [(g.root, g.count) for g in counted.groups] == [
                (g.root, g.count) for g in full.groups
            ]
            assert counted.total == full.total


def test_threads_do_not_change_the_answer():
    lone = enumerate_k_semigroups(EnumerationRequest(8, 17), threads=1)
    pooled = enumerate_k_semigroups(EnumerationRequest(8, 17), threads=8)
    assert lone == pooled
    assert lone.total > 0


# ----------------------------------------------------------------------
# the stream of groups


def test_stream_equals_the_collected_groups():
    for f in range(1, 22):
        for k in range(f):
            if not feasible(k, f):
                continue
            for mode in Mode:
                req = EnumerationRequest(k, f, mode)
                assert tuple(iter_k_semigroups(req)) == enumerate_k_semigroups(req).groups


def test_stream_builds_one_group_per_next(monkeypatch):
    calls = count_interval_levels(monkeypatch)
    groups = iter_k_semigroups(EnumerationRequest(10, 31))
    assert calls == []
    first = next(groups)
    assert calls == [first.root]
    assert first.count == 3003
    assert 1 + sum(1 for _ in groups) == len(calls) == 63


def test_stream_rejects_bad_requests_at_the_call():
    # K = -1 passes both feasibility gates for F = 4; (6, 10) fails parity
    for req in (EnumerationRequest(-1, 4), EnumerationRequest(6, 10, max_work=-5)):
        with pytest.raises(ValueError):
            iter_k_semigroups(req)


def test_infeasible_stream_is_empty():
    assert list(iter_k_semigroups(EnumerationRequest(6, 10))) == []
    assert list(iter_k_semigroups(EnumerationRequest(8, 7))) == []


def test_stream_budget_stops_between_groups():
    groups = iter_k_semigroups(EnumerationRequest(10, 31, max_work=3000))
    assert next(groups).count == 3003
    with pytest.raises(BudgetExceeded):
        next(groups)


# ----------------------------------------------------------------------
# budget


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_k_semigroups(EnumerationRequest(6, 11, max_work=2))


def test_budget_large_enough_passes():
    result = enumerate_k_semigroups(EnumerationRequest(6, 11, max_work=10_000))
    assert result.total == 12


def test_budget_boundary_is_exact():
    # (K, F) -> nodes expanded over the pruned tree and the levels
    for (k, f), work in {(6, 11): 31, (8, 17): 217}.items():
        assert enumerate_k_semigroups(EnumerationRequest(k, f, max_work=work)).total
        with pytest.raises(BudgetExceeded):
            enumerate_k_semigroups(EnumerationRequest(k, f, max_work=work - 1))


def test_count_mode_charges_what_a_walk_would():
    # the pinned boundaries of test_budget_boundary_is_exact, with no walk
    for (k, f), work in {(6, 11): 31, (8, 17): 217}.items():
        req = EnumerationRequest(k, f, Mode.COUNT_ONLY, max_work=work)
        assert enumerate_k_semigroups(req).total
        with pytest.raises(BudgetExceeded):
            enumerate_k_semigroups(dataclasses.replace(req, max_work=work - 1))


def test_budget_boundary_in_both_modes():
    # W = the pruned irreducible tree plus, per root, the interval-tree
    # nodes above the slice, counted by walking the trees
    cases = 0
    for f in range(1, 22):
        for k in range(f):
            if not feasible(k, f):
                continue
            cases += 1
            half = k // 2
            roots = irreducible_tree(f, half).semigroups()
            work = len(roots) + sum(
                1 for root in roots for n in interval_tree(root).nodes if n.depth < half
            )
            for mode in Mode:
                req = EnumerationRequest(k, f, mode, max_work=work)
                assert enumerate_k_semigroups(req).total, (k, f, mode)
                with pytest.raises(BudgetExceeded):
                    enumerate_k_semigroups(dataclasses.replace(req, max_work=work - 1))
    assert cases == 121


def test_requests_refuse_non_integers():
    # each was silently reinterpreted, or failed inside the walk
    bad = (
        EnumerationRequest(3.5, 6),
        EnumerationRequest("x", 5),
        EnumerationRequest(6, 11.0),
        EnumerationRequest(6, 11, max_work=30.5),
    )
    for req in bad:
        for run in (enumerate_k_semigroups, iter_k_semigroups):
            with pytest.raises(TypeError):
                run(req)
    as_bool = enumerate_k_semigroups(EnumerationRequest(True, 4))
    assert as_bool == enumerate_k_semigroups(EnumerationRequest(1, 4))


def test_requests_refuse_a_mode_given_by_its_value():
    # mode="full" used to run count mode: members None, total 12
    for mode in ("full", "count-only", None):
        req = EnumerationRequest(6, 11, mode=mode)
        for run in (enumerate_k_semigroups, iter_k_semigroups):
            with pytest.raises(TypeError, match="mode must be a Mode, got "):
                run(req)


def test_witness_refuses_non_integers():
    for k, f in ((3.5, 6), (6, 11.0), ("6", 11)):
        with pytest.raises(TypeError):
            witness_k_semigroup(k, f)
    # a bool counts as 0 or 1, and the witness holds the int
    assert type(witness_k_semigroup(0, True).frobenius) is int


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="-5"):
        enumerate_k_semigroups(EnumerationRequest(6, 11, max_work=-5))


def test_negative_k_is_rejected():
    # K = -1 passes both feasibility gates for F = 4
    with pytest.raises(ValueError, match="-1"):
        enumerate_k_semigroups(EnumerationRequest(-1, 4))


def test_thread_count_below_one_is_rejected():
    for threads in (0, -3):
        with pytest.raises(ValueError, match=str(threads)):
            enumerate_k_semigroups(EnumerationRequest(6, 11), threads=threads)


# ----------------------------------------------------------------------
# witnesses


def test_witness_matches_request():
    w = witness_k_semigroup(8, 17)
    assert w.frobenius == 17
    assert w.gap_profile.l_count == 8


def test_witness_zero_is_canonical_root():
    w = witness_k_semigroup(0, 11)
    assert w == sg(6, 7, 8, 9, 10)


def test_witness_infeasible_is_none():
    assert witness_k_semigroup(6, 10) is None
    assert witness_k_semigroup(8, 7) is None


def test_witness_negative_k_is_rejected():
    # K = -1 passes both feasibility gates for F = 4
    with pytest.raises(ValueError, match="-1"):
        witness_k_semigroup(-1, 4)


def test_witness_sweep():
    for f in range(1, 26):
        for k in range(0, f):
            if not feasible(k, f):
                assert witness_k_semigroup(k, f) is None
                continue
            w = witness_k_semigroup(k, f)
            assert w.frobenius == f
            assert w.gap_profile.l_count == k


# ----------------------------------------------------------------------
# genus anchor: summing (K, F) counts over one genus gives n_g


def test_genus_counts_match_a007323():
    # count mode sums down-set counts; it reaches F = 49, beyond the
    # oracle's exhaustive range
    counts = tuple(_genus_count(g) for g in range(1, 26))
    assert counts == GENUS_COUNTS


def test_genus_counts_match_a007323_on_the_walked_slices():
    # the same sums over walked slices, so the paper's walk stays anchored
    counts = tuple(_genus_count(g, Mode.FULL) for g in range(1, 18))
    assert counts == GENUS_COUNTS[:17]


def test_frobenius_over_the_table_bound_is_refused():
    # C(10**15) would need a table of 10**15 + 2 bits; nothing is built
    with pytest.raises(BoundExceeded):
        witness_k_semigroup(1, 10**15)
    with pytest.raises(BoundExceeded):
        enumerate_k_semigroups(EnumerationRequest(k=1, frobenius=10**15))
    # an infeasible request needs no table and still answers
    assert witness_k_semigroup(2, 10**15) is None
