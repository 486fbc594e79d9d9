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
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .errors import (
    BoundExceeded,
    GcdNotOne,
    NoSecondKindGap,
    NotClosed,
    NotMinimalGenerator,
)

# from_generators closes membership over [0, 2*m*max], and a table built
# for a Frobenius number F spans F + 2 bits; either above this bound is
# refused before anything is allocated (2**24 bits is a 2 MB table)
MAX_CLOSURE_WINDOW = 1 << 24


def _check_table_size(frobenius):
    # refuse a table over [0, F + 1] wider than MAX_CLOSURE_WINDOW bits
    if frobenius + 2 > MAX_CLOSURE_WINDOW:
        raise BoundExceeded(frobenius + 2, MAX_CLOSURE_WINDOW, "bit table F + 2 =")


def _at_least(name, value, low):
    # value as an int; TypeError unless an integer, ValueError below low
    value = operator.index(value)
    if value < low:
        raise ValueError("%s must be >= %d, got %d" % (name, low, value))
    return value


def _bit_range(lo, hi):
    # mask with bits [lo, hi) set
    return ((1 << hi) - 1) ^ ((1 << lo) - 1)


# binary digits "0"/"1" to the bytes 0/1 that compress reads as flags
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(x):
    # positions of the set bits of x >= 0, ascending: the binary digits,
    # lowest first, become 0/1 flags that select from range(n) in C
    flags = bin(x)[:1:-1].encode().translate(_DIGIT_FLAGS)
    return list(compress(range(len(flags)), flags))


def _delta_bits(s):
    # delta(S) as a mask: the members x with 2x < F
    return s.bits & _bit_range(0, (s.frobenius + 1) // 2)


def _gap_bits(s):
    # the gaps as a mask: the non-members in [1, F], 0 for N
    return ~s.bits & _bit_range(1, s.frobenius + 1)


def _mirror(x, f):
    # bit i of the result is bit f - i of x, for x over [0, f]
    return int(format(x, "0%db" % (f + 1))[::-1], 2)


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
        A window above MAX_CLOSURE_WINDOW raises BoundExceeded, and a
        generator that is not an integer raises TypeError.
        """
        gens = sorted({operator.index(g) for g in generators})
        if not gens:
            raise ValueError("at least one generator is required")
        if gens[0] < 1:
            raise ValueError("generators must be positive, got %d" % gens[0])
        if gens[0] == 1:
            return cls(-1, 1)
        g = math.gcd(*gens)
        if g != 1:
            raise GcdNotOne(gens, g)
        bound = 2 * gens[0] * gens[-1]
        if bound > MAX_CLOSURE_WINDOW:
            what = "closure window 2*m*max ="
            raise BoundExceeded(bound, MAX_CLOSURE_WINDOW, what)
        table = _closure_bits(gens, bound)
        frob = (~table & _bit_range(0, bound + 1)).bit_length() - 1
        return cls(frob, table & _bit_range(0, frob + 2))

    @classmethod
    def from_gap_set(cls, gaps):
        """Semigroup whose gap set is exactly the given finite set.

        Raises NotClosed(i, j) with the lexicographically first witness
        pair of members whose sum lands in the gap set.  The empty gap
        set yields N.  A largest gap F with F + 2 > MAX_CLOSURE_WINDOW
        raises BoundExceeded, and a gap that is not an integer raises TypeError.
        """
        gap_list = sorted({operator.index(x) for x in gaps})
        if not gap_list:
            return cls(-1, 1)
        if gap_list[0] < 1:
            raise ValueError("gaps must be positive, got %d" % gap_list[0])
        f = gap_list[-1]
        _check_table_size(f)
        bits = _bit_range(0, f + 2)
        for x in gap_list:
            bits &= ~(1 << x)
        s = cls(f, bits)
        s.validate()
        return s

    # ------------------------------------------------------------------
    # membership and display

    def contains(self, x):
        """True when the integer x belongs to the semigroup.

        A non-integer x raises TypeError.
        """
        x = operator.index(x)
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
        small = self.bits & _bit_range(0, f)
        gaps = _gap_bits(self)
        second = gaps & _mirror(gaps, f)  # F - x is a gap too
        l_count = second.bit_count()
        h_value = second.bit_length() - 1 if l_count >= 2 else -1
        tuples = (tuple(_set_bits(x)) for x in (gaps, small, gaps & ~second, second))
        counts = (gaps.bit_count(), small.bit_count(), l_count, h_value)
        return GapProfile(*tuples, *counts)

    @cached_property
    def minimal_generators(self):
        """The unique minimal generating set, ascending.

        It is read off the Apery set Ap(S, m) = {w in S : w - m not in S}
        of the multiplicity m, one member per residue class mod m, the
        largest F + m.  A generator g other than m lies in Ap, or else
        g = m + (g - m) splits, so msg(S) is m together with the nonzero
        Apery elements that are not a sum of two nonzero members.  Both
        summands of such a sum w = a + b are Apery elements themselves:
        if a - m were in S, so would be w - m = (a - m) + b.  So the sums
        are one sumset mask of the nonzero Apery elements, shifted only
        by those up to (F + m)/2, the most the smaller summand can be.
        The tuple is computed once and reused.
        """
        f = self.frobenius
        if f < 0:
            return (1,)
        m = self.multiplicity
        top = f + m
        members = self.bits | _bit_range(f + 2, top + 1)
        apery = members & ~(members << m) & _bit_range(1, top + 1)
        sums = 0
        for a in _set_bits(apery & _bit_range(0, top // 2 + 1)):
            sums |= apery << a
        return (m, *_set_bits(apery & ~sums))

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
        """Sort key ordering semigroups first by Frobenius number, then
        those that share one F as their gap lists do.

        It is the table read backwards over [0, F + 1]: member 0 becomes
        the top bit F + 1, so a larger F gives a larger key, and within
        one F the first integer where two tables differ decides.
        """
        return _mirror(self.bits, self.frobenius + 1)

    def delta(self):
        """Members below half the Frobenius number: {s in S : 2s < F}."""
        return tuple(_set_bits(_delta_bits(self)))

    # ------------------------------------------------------------------
    # mutations (return new values)

    def remove_element(self, x):
        """S without x; only defined when x is a minimal generator.

        Removing x < F keeps F and raises l by exactly 2; removing a
        generator above F makes x the new Frobenius number.  A
        non-integer x raises TypeError.
        """
        x = operator.index(x)
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
        nf = (~bits & _bit_range(1, f)).bit_length() - 1
        if nf < 0:
            return NumericalSemigroup(-1, 1)
        return NumericalSemigroup(nf, bits & _bit_range(0, nf + 2))

    # ------------------------------------------------------------------
    # checking

    def validate(self):
        """Exhaustive closure re-check of the bit table; raises NotClosed."""
        # members i <= F/2 ascending: bit i + j of bad marks each member
        # j >= i whose sum with i is a gap; the lowest is the first witness
        f = self.frobenius
        members = self.bits & ~1
        gaps = _gap_bits(self)
        for i in _set_bits(members & _bit_range(0, f // 2 + 1)):
            bad = ((members >> i) << (2 * i)) & gaps
            if bad:
                raise NotClosed(i, (bad & -bad).bit_length() - 1 - i)


NATURALS = NumericalSemigroup(-1, 1)
