"""Numerical semigroups as immutable bit-table values.

A numerical semigroup S is a cofinite subset of the nonnegative integers
that contains 0 and is closed under addition.  A value of
NumericalSemigroup stores the Frobenius number F(S), the largest integer
outside S (-1 when S is all of N), together with a bit table covering
[0, F+1]; every integer above the table is implicitly a member.  Bit i of
``bits`` is set exactly when i is a member, so membership is a shift and
a mask, and equality/hashing work on the pair (frobenius, bits).

The gap analytics follow the usual taxonomy.  With F = F(S):

    N(S) = {s in S : s < F}            the small elements, n(S) = #N(S)
    gaps = [1, F] \\ S                  g(S) = #gaps (the genus)
    H(S) = {F - s : s in N(S)}         gaps of first kind
    L(S) = {x not in S : F - x not in N(S)}   gaps of second kind, l = #L

Every gap is of exactly one kind, and

    g + n = F + 1        g = n + l        2g = F + 1 + l.

l(S) also drives the classical classification: l = 0 are the symmetric
semigroups, l = 1 the pseudo-symmetric ones, l <= 1 the irreducible ones.

h(S) denotes the largest second-kind gap different from F/2; it is the
element whose adjunction lowers l by exactly 2.  We keep the sentinel
h = -1 whenever no such gap exists (l <= 1), which also keeps the
bookkeeping of tree traversals uniform (tree roots carry edge label -1).

All comparisons against F/2 are done in integers (2x versus F), so no
floating point appears anywhere.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import GcdNotOne, NoSecondKindGap, NotClosed, NotMinimalGenerator


def _bit_range(lo, hi):
    # mask with bits [lo, hi) set
    return ((1 << hi) - 1) ^ ((1 << lo) - 1)


def _set_bits(x):
    # positions of the set bits of x >= 0, ascending
    return [i for i, c in enumerate(bin(x)[:1:-1]) if c == "1"]


def _closure_bits(gens, limit):
    # bit table over [0, limit] of the monoid generated by gens: shifts by
    # g, 2g, 4g, ... add every multiple of g; a generator already in the
    # table adds nothing, since the table is closed under its members
    mask = _bit_range(0, limit + 1)
    table = 1
    for g in gens:
        if (table >> g) & 1:
            continue
        step = g
        while step <= limit:
            table |= (table << step) & mask
            step <<= 1
    return table


@dataclass(frozen=True)
class GapProfile:
    """Gap analytics of one semigroup; all tuples are sorted ascending.

    h_value is the largest second-kind gap distinct from F/2, with -1 when
    no such gap exists, which happens exactly when l_count <= 1 (for
    l = 1 the single second-kind gap is F/2 itself).
    """

    gaps: tuple
    small_elements: tuple
    first_kind: tuple
    second_kind: tuple
    genus: int
    n_count: int
    l_count: int
    h_value: int


@dataclass(frozen=True, repr=False)
class NumericalSemigroup:
    """An immutable numerical semigroup value.

    frobenius: F(S), at least 1, or -1 for N itself.
    bits: member bit table over [0, frobenius + 1].
    """

    frobenius: int
    bits: int

    def __post_init__(self):
        f = self.frobenius
        b = self.bits
        if f == -1:
            if b != 1:
                raise ValueError("N is encoded as frobenius=-1, bits=1")
            return
        if f < 1:
            raise ValueError("frobenius must be -1 or >= 1, got %d" % f)
        if not b & 1:
            raise ValueError("0 must be a member")
        if (b >> f) & 1:
            raise ValueError("frobenius %d must be a gap" % f)
        if not (b >> (f + 1)) & 1:
            raise ValueError("%d must be a member" % (f + 1))
        if b >> (f + 2):
            raise ValueError("bit table extends beyond frobenius + 1")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_generators(cls, generators):
        """Semigroup generated by a finite set of positive integers.

        Raises GcdNotOne when the generators do not span a cofinite set.
        Membership is closed by shifted ORs on [0, 2*m*max] and trimmed to
        the last gap; the classical bound F < m*max makes this window safe.
        """
        gens = sorted({int(g) for g in generators})
        if not gens:
            raise ValueError("at least one generator is required")
        if gens[0] < 1:
            raise ValueError("generators must be positive, got %d" % gens[0])
        if gens[0] == 1:
            return cls(-1, 1)
        g = 0
        for a in gens:
            g = math.gcd(g, a)
        if g != 1:
            raise GcdNotOne(gens, g)
        bound = 2 * gens[0] * gens[-1]
        table = _closure_bits(gens, bound)
        frob = (~table & _bit_range(0, bound + 1)).bit_length() - 1
        return cls(frob, table & _bit_range(0, frob + 2))

    @classmethod
    def from_gap_set(cls, gaps):
        """Semigroup whose gap set is exactly the given finite set.

        Raises NotClosed(i, j) with the lexicographically first witness
        pair of members whose sum lands in the gap set.  The empty gap
        set yields N.
        """
        gap_list = sorted({int(x) for x in gaps})
        if not gap_list:
            return cls(-1, 1)
        if gap_list[0] < 1:
            raise ValueError("gaps must be positive, got %d" % gap_list[0])
        f = gap_list[-1]
        bits = _bit_range(0, f + 2)
        for x in gap_list:
            bits &= ~(1 << x)
        s = cls(f, bits)
        s.validate()
        return s

    # ------------------------------------------------------------------
    # membership and display

    def contains(self, x):
        """True when the integer x belongs to the semigroup."""
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        return bool((self.bits >> x) & 1)

    __contains__ = contains

    def __str__(self):
        return "<" + ",".join(map(str, self.minimal_generators)) + ">"

    def __repr__(self):
        return "NumericalSemigroup" + str(self)

    # ------------------------------------------------------------------
    # derived analytics

    @cached_property
    def gap_profile(self):
        """Gap taxonomy of the semigroup (empty profile for N)."""
        f = self.frobenius
        if f < 0:
            return GapProfile((), (), (), (), 0, 0, 0, -1)
        bits = self.bits
        small = tuple(i for i in range(f) if (bits >> i) & 1)
        gaps = tuple(i for i in range(1, f + 1) if not (bits >> i) & 1)
        first = tuple(f - s for s in reversed(small))
        second = tuple(x for x in gaps if not (bits >> (f - x)) & 1)
        l_count = len(second)
        h_value = second[-1] if l_count >= 2 else -1
        return GapProfile(
            gaps, small, first, second, len(gaps), len(small), l_count, h_value
        )

    @cached_property
    def minimal_generators(self):
        """The unique minimal generating set, ascending.

        A member s is minimal exactly when it is not a sum of two nonzero
        members.  No generator can exceed F + m, because anything above
        splits off the multiplicity, so the generators are the nonzero
        members M of [1, F + m] less the sumset M + M.  The tuple is
        computed once and reused.
        """
        f = self.frobenius
        if f < 0:
            return (1,)
        m = self.multiplicity
        top = f + m
        members = (self.bits | _bit_range(f + 2, top + 1)) & ~1
        sums = 0
        # the smaller summand of a sum in [1, F + m] is at most half of it
        for a in _set_bits(members & _bit_range(0, top // 2 + 1)):
            sums |= members << a
        return tuple(_set_bits(members & ~sums))

    @property
    def multiplicity(self):
        """Smallest positive member."""
        if self.frobenius < 0:
            return 1
        rest = self.bits >> 1
        # index of the lowest set bit, shifted back by one
        return (rest & -rest).bit_length()

    @property
    def embedding_dimension(self):
        return len(self.minimal_generators)

    @property
    def gaps(self):
        return self.gap_profile.gaps

    @property
    def canonical_key(self):
        """Sort key for deterministic set output: the ordered gap list."""
        return self.gap_profile.gaps

    def delta(self):
        """Members below half the Frobenius number: {s in S : 2s < F}."""
        f = self.frobenius
        return tuple(
            s
            for s in range((f + 1) // 2 + 1)
            if 2 * s < f and (self.bits >> s) & 1
        )

    # ------------------------------------------------------------------
    # mutations (return new values)

    def remove_element(self, x):
        """S without x; only defined when x is a minimal generator.

        Removing x < F keeps F and raises l by exactly 2; removing a
        generator above F makes x the new Frobenius number.
        """
        if x not in self.minimal_generators:
            raise NotMinimalGenerator(x, self)
        f = self.frobenius
        if x > f:
            bits = (self.bits | _bit_range(f + 2, x + 2)) & ~(1 << x)
            return NumericalSemigroup(x, bits)
        return NumericalSemigroup(f, self.bits & ~(1 << x))

    def adjoin_h(self):
        """S with its h-gap filled in; lowers l by exactly 2.

        Defined only when l(S) >= 2 (otherwise there is no second-kind
        gap besides possibly F/2, and NoSecondKindGap is raised).
        """
        profile = self.gap_profile
        if profile.l_count < 2:
            raise NoSecondKindGap(self)
        return self._adjoin(profile.h_value)

    def _adjoin(self, x):
        # internal: x must be a gap whose adjunction stays additively
        # closed; callers guarantee this (h-gaps and pseudo-Frobenius
        # candidates with 2x in S qualify)
        bits = self.bits | (1 << x)
        f = self.frobenius
        if x != f:
            return NumericalSemigroup(f, bits)
        nf = next((i for i in range(f - 1, 0, -1) if not (bits >> i) & 1), -1)
        if nf < 0:
            return NumericalSemigroup(-1, 1)
        return NumericalSemigroup(nf, bits & _bit_range(0, nf + 2))

    # ------------------------------------------------------------------
    # checking

    def validate(self):
        """Exhaustive closure re-check of the bit table; raises NotClosed."""
        f = self.frobenius
        members = [i for i in range(1, f + 1) if (self.bits >> i) & 1]
        for pos, i in enumerate(members):
            for j in members[pos:]:
                if i + j > f:
                    break
                if not (self.bits >> (i + j)) & 1:
                    raise NotClosed(i, j)


NATURALS = NumericalSemigroup(-1, 1)
