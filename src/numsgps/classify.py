"""Classification of numerical semigroups by their second-kind gaps.

pseudo_frobenius computes PF(S) = {x not in S : x + s in S for all
nonzero s in S}; its size is the type t(S).  Testing candidates against
the minimal generators alone is enough, since every member is a sum of
generators, so PF(S) is one mask: the gaps, ANDed with the member table
shifted down by each generator.

classify packages the l-driven predicates: symmetric (l = 0),
pseudo-symmetric (l = 1), irreducible (l <= 1), plus two removal-based
shapes.  S is URSY when S = T \\ {x} for a symmetric T and a minimal
generator x of T, and URPSY likewise with T pseudo-symmetric.  The only
candidates for the filled-in gap are pseudo-Frobenius numbers y of S
with 2y in S, because T = S union {y} must be closed; the witness scans
below try exactly those.  Each such y is a minimal generator of T: a sum
y = a + b of nonzero members of T has a, b < y, so both lie in S, and
closure of S would put y in S.

The semigroups with l = 2 are exactly the URSY ones with multiplicity
at least 3, and the semigroups with l = 3 are exactly the URPSY ones
outside a small exceptional family U (see in_family_u).

For l = 2 and l = 3 the pseudo-Frobenius set collapses to explicit
membership tests on h = h(S), giving the pf_fast_* paths:

    l = 2:  PF = {F, h}, plus F - h when 2h - F is a gap.
    l = 3:  PF = {F, h}, plus F/2 when h - F/2 is a gap,
                         plus F - h when 2h - F is a gap.
"""

from dataclasses import dataclass

from .core import NumericalSemigroup, _bit_range, _mirror, _set_bits
from .errors import NotThreeSemigroup, NotTwoSemigroup


@dataclass(frozen=True)
class PseudoFrobeniusSet:
    """PF(S) in ascending order; type_count = t(S) = len(values)."""

    values: tuple
    type_count: int


@dataclass(frozen=True)
class ClassificationReport:
    l_count: int
    symmetric: bool
    pseudo_symmetric: bool
    irreducible: bool
    ursy: bool
    urpsy: bool
    in_family_u: bool


def pseudo_frobenius(s: NumericalSemigroup) -> PseudoFrobeniusSet:
    """PF(S) with F(S) always included; PF(N) = {-1} by convention."""
    if s.frobenius < 0:
        return PseudoFrobeniusSet((-1,), 1)
    f = s.frobenius
    gens = s.minimal_generators
    # members up to F + max(gens), the largest sum a gap can reach
    ext = s.bits | _bit_range(f + 2, f + gens[-1] + 1)
    pf = ~s.bits & _bit_range(1, f + 1)
    for g in gens:
        pf &= ext >> g
    values = tuple(_set_bits(pf))
    return PseudoFrobeniusSet(values, len(values))


def _witness(s, want_l):
    # shared scan: smallest filled-in gap y whose parent S union {y} is
    # a semigroup with l(parent) == want_l, read off the parent's gaps
    # without building it; y is then minimal in the parent (see above)
    if s.frobenius < 1:
        return None
    gaps = ~s.bits & _bit_range(1, s.frobenius + 1)
    for y in pseudo_frobenius(s).values:
        if not s.contains(2 * y):
            continue
        # the parent's Frobenius number drops when y = F, down to -1 when
        # the parent is N, whose gap mask is 0
        parent_gaps = gaps & ~(1 << y)
        parent_f = parent_gaps.bit_length() - 1
        if (parent_gaps & _mirror(parent_gaps, parent_f)).bit_count() == want_l:
            return s._adjoin(y), y
    return None


def ursy_witness(s: NumericalSemigroup):
    """(T, x) with T symmetric, x in msg(T), S = T \\ {x}; None if no such pair.

    T = N qualifies: its genus matches (F+1)/2 with F = -1, so for
    example <2,3> = N \\ {1} is URSY.
    """
    return _witness(s, 0)


def urpsy_witness(s: NumericalSemigroup):
    """(T, x) with T pseudo-symmetric, x in msg(T), S = T \\ {x}; or None."""
    return _witness(s, 1)


def is_ursy(s: NumericalSemigroup) -> bool:
    return ursy_witness(s) is not None


def is_urpsy(s: NumericalSemigroup) -> bool:
    return urpsy_witness(s) is not None


def in_family_u(s: NumericalSemigroup) -> bool:
    """Membership in the exceptional family U of the l = 3 criterion.

    U consists of <3,5,7>, <4,5,6,7>, <4,5,11>, every <3,k> with k >= 4
    not divisible by 3, and every <m, m+1, ..., 2m-3> with m >= 5.
    """
    gens = s.minimal_generators
    if gens in ((3, 5, 7), (4, 5, 6, 7), (4, 5, 11)):
        return True
    if len(gens) == 2 and gens[0] == 3 and gens[1] >= 4 and gens[1] % 3 != 0:
        return True
    m = gens[0]
    if m >= 5 and gens == tuple(range(m, 2 * m - 2)):
        return True
    return False


def _l_flags(s):
    # (l, symmetric, pseudo_symmetric, irreducible), all read off l
    profile = s.gap_profile
    l_count = profile.l_count
    symmetric = l_count == 0
    pseudo_symmetric = l_count == 1
    # genus characterizations, kept as internal consistency checks
    if symmetric and 2 * profile.genus != s.frobenius + 1:
        raise AssertionError("l = 0 but 2g != F + 1 for %r" % s)
    if pseudo_symmetric and 2 * profile.genus != s.frobenius + 2:
        raise AssertionError("l = 1 but 2g != F + 2 for %r" % s)
    return l_count, symmetric, pseudo_symmetric, l_count <= 1


def classify(s: NumericalSemigroup) -> ClassificationReport:
    """Full l-based classification report."""
    l_count, symmetric, pseudo_symmetric, irreducible = _l_flags(s)
    return ClassificationReport(
        l_count=l_count,
        symmetric=symmetric,
        pseudo_symmetric=pseudo_symmetric,
        irreducible=irreducible,
        ursy=is_ursy(s),
        urpsy=is_urpsy(s),
        in_family_u=in_family_u(s),
    )


def pf_fast_2sg(s: NumericalSemigroup) -> PseudoFrobeniusSet:
    """PF(S) for l(S) = 2 via two membership tests; t(S) is 2 or 3."""
    profile = s.gap_profile
    if profile.l_count != 2:
        raise NotTwoSemigroup(s, profile.l_count)
    f = s.frobenius
    h = profile.h_value
    values = {f, h}
    if not s.contains(2 * h - f):
        values.add(f - h)
    return PseudoFrobeniusSet(tuple(sorted(values)), len(values))


def pf_fast_3sg(s: NumericalSemigroup) -> PseudoFrobeniusSet:
    """PF(S) for l(S) = 3 via two membership tests; t(S) is 2, 3 or 4."""
    profile = s.gap_profile
    if profile.l_count != 3:
        raise NotThreeSemigroup(s, profile.l_count)
    f = s.frobenius
    # odd l forces an even Frobenius number (F/2 is the fixed point of L)
    if f % 2:
        raise AssertionError("l = 3 but F = %d is odd for %r" % (f, s))
    h = profile.h_value
    values = {f, h}
    if not s.contains(h - f // 2):
        values.add(f // 2)
    if not s.contains(2 * h - f):
        values.add(f - h)
    return PseudoFrobeniusSet(tuple(sorted(values)), len(values))
