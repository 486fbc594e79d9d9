"""Definition-level ground truth for everything the fast paths compute.

Nothing here calls the analytics of the other modules.  Each semigroup
is re-read into a minimal member table (one int, bit i set for each
member i up to its Frobenius number) and every quantity is recomputed
straight from its definition: l by reading the table's digits forwards
and backwards (x is a second-kind gap when x and F - x are both outside
it; brute_l reads the digits of the semigroup's own bit table), PF by
testing all shifts, msg by subtracting members, delta and theta by
direct closure sieves, irreducibility by maximality among all
semigroups sharing the Frobenius number, URSY/URPSY by trying every gap
as the filled-in element.

Maximality is decided maximal-first: the population is visited by
member count, largest first, and S is maximal exactly when no maximal
semigroup already found contains it.  That is still the definition, not
a criterion: a strict superset of S has more members, so it is visited
before S, and a non-maximal S lies inside some maximal member of the
(finite) population, which is then already found.  The subset tests
are on the tables' ints, so the sweep costs O(n * #irreducibles)
subset tests instead of O(n**2).

all_with_frobenius(f) enumerates every numerical semigroup with
Frobenius number f by deciding membership of f-1, f-2, ..., 1 in that
order (0 is in, f is out, everything above f is in), pruning any partial
assignment that already violates additive closure.  When x is assigned
as a member, every sum x + y with y an already-decided member (including
y = x) is already decided, so checking those sums catches every
violation exactly once; with the decided members and gaps held as two
masks, that check is one shift and one AND.  The search is exponential
in f, hence the hard guard at ORACLE_MAX_FROBENIUS.

crosscheck(f_max) sweeps every semigroup with Frobenius number up to
f_max and compares all fast-path operations against the brute
recomputations, returning a list of mismatch reports that is expected to
be empty.  That includes the order of each enumeration group's members,
checked against the population's own gap-list order.  Mismatch entries
carry the generator list, the operation name and both values, enough to
reproduce by hand.
"""

from dataclasses import dataclass

from .classify import classify, pf_fast_2sg, pf_fast_3sg, pseudo_frobenius
from .core import NumericalSemigroup, _at_least
from .enumeration import EnumerationRequest, enumerate_k_semigroups
from .errors import BoundExceeded
from .trees import interval_tree, irreducible_tree, relative_frobenius, theta_surplus

ORACLE_MAX_FROBENIUS = 22


@dataclass(frozen=True)
class OracleReport:
    """One discrepancy: where, what, and both sides of the comparison."""

    generators: tuple
    operation: str
    expected: str
    actual: str

    def __str__(self):
        return "MISMATCH gens=%s op=%s expected=%s actual=%s" % (
            ",".join(map(str, self.generators)),
            self.operation,
            self.expected,
            self.actual,
        )


# ----------------------------------------------------------------------
# the oracle's own representation


@dataclass(frozen=True)
class _MemberTable:
    """Frobenius number plus the members in [0, F] as one int; above F all in."""

    frobenius: int
    mask: int

    @classmethod
    def of(cls, s: NumericalSemigroup):
        f = s.frobenius
        # N (F = -1) keeps its one member, 0
        return cls(f, s.bits & _below(max(f, 0) + 1))

    def contains(self, x):
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        return bool(self.mask >> x & 1)

    def members(self):
        return _positions(self.mask)

    def gap_list(self):
        return _positions(_below(self.frobenius + 1) & ~self.mask)


def _below(n):
    # the bits [0, n) of an int, n >= 0
    return (1 << n) - 1


def _positions(mask):
    # the set bits of mask >= 0, ascending, read off its binary digits
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _tbl_closed(t: _MemberTable) -> bool:
    # every sum i + j <= F of members is a member: shifting the members
    # by a member i puts bit i + j at each member j
    outside = _below(t.frobenius + 1) & ~t.mask
    return not any(t.mask << i & outside for i in t.members() if i > 0)


def _tbl_multiplicity(t):
    if t.frobenius < 0:
        return 1
    return min((m for m in t.members() if m > 0), default=t.frobenius + 1)


def _tbl_small(t):
    return [m for m in t.members() if m < t.frobenius]


def _tbl_first_kind(t):
    f = t.frobenius
    return sorted(f - s for s in _tbl_small(t))


def _second_kind_mask(f, members):
    # the second-kind gaps as a mask: the x in [0, F] with x and F - x
    # both outside members, the int of a table's members in [0, F] (bit
    # F + 1 may be set).  For x >= 1, F - x < F, so F - x outside the
    # table is F - x no small element; x = 0 is a member.  Digit i of the
    # F + 1 binary digits read forwards is bit F - i, so read backwards
    # they put bit F - x at bit x.
    if f < 0:
        return 0
    forwards = bin(members | 1 << (f + 1))[3:]
    mirrored = int(forwards[::-1], 2)
    return ~(members | mirrored) & _below(f + 1)


def _tbl_second_kind(t):
    return _positions(_second_kind_mask(t.frobenius, t.mask))


def _tbl_l(t):
    return _second_kind_mask(t.frobenius, t.mask).bit_count()


def _tbl_h(t):
    f = t.frobenius
    # largest second-kind gap different from F/2, sentinel -1
    candidates = [x for x in _tbl_second_kind(t) if 2 * x != f]
    return max(candidates, default=-1)


def _tbl_pf(t):
    f = t.frobenius
    m = _tbl_multiplicity(t)
    shifts = [s for s in range(1, f + m + 1) if t.contains(s)]
    return [x for x in t.gap_list() if all(t.contains(x + s) for s in shifts)]


def _tbl_msg(t):
    f = t.frobenius
    if f < 0:
        return [1]
    m = _tbl_multiplicity(t)
    out = []
    for s in range(1, f + m + 1):
        if not t.contains(s):
            continue
        # a split s = a + b has a smaller summand a <= s/2
        if any(t.contains(a) and t.contains(s - a) for a in range(1, s // 2 + 1)):
            continue
        out.append(s)
    return out


def _tbl_delta(t):
    f = t.frobenius
    return [s for s in t.members() if 2 * s < f]


def _tbl_theta_members(t):
    # closure of delta within [0, F]
    f = t.frobenius
    gens = [d for d in _tbl_delta(t) if d > 0]
    reach = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for d in gens:
            j = i + d
            if j <= f and j not in reach:
                reach.add(j)
                frontier.append(j)
    return reach


def _tbl_theta_surplus(t):
    reach = _tbl_theta_members(t)
    return len([m for m in t.members() if 0 < m < t.frobenius and m not in reach])


def _tbl_maximal(masks):
    """The semigroups of one population that no other one contains.

    masks maps each semigroup to its table's mask, all sharing one F
    (a lies in b exactly when a & ~b == 0); the module docstring says
    why maximal-first is maximality.
    """
    found = []
    for s in sorted(masks, key=lambda s: -masks[s].bit_count()):
        a = masks[s]
        if all(a & ~b for _, b in found):
            found.append((s, a))
    return {s for s, _ in found}


def _tbl_adjoin(t: _MemberTable, y: int) -> _MemberTable:
    mask = t.mask | 1 << y
    f = t.frobenius
    while f >= 0 and mask >> f & 1:
        f -= 1
    if f <= 0:
        return _MemberTable(-1, 1)
    return _MemberTable(f, mask & _below(f + 1))


def _tbl_removal_ls(t: _MemberTable):
    # the l values among {0, 1} reached by some semigroup T = S union {y}
    # with y a gap of S and a minimal generator of T; one pass over the gaps
    found = set()
    for y in t.gap_list():
        cand = _tbl_adjoin(t, y)
        if not _tbl_closed(cand):
            continue
        l_count = _tbl_l(cand)
        if l_count > 1 or l_count in found:
            continue
        if y in _tbl_msg(cand):
            found.add(l_count)
            if len(found) == 2:
                break
    return found


# ----------------------------------------------------------------------
# exhaustive generation


def all_with_frobenius(frobenius: int):
    """Every numerical semigroup with the given Frobenius number.

    Canonically sorted (lexicographically by gap list).  Guarded by
    ORACLE_MAX_FROBENIUS because the search space is 2**(f-1).  Raises
    ValueError for f < 1 and TypeError for a non-integer f.
    """
    f = _at_least("frobenius", frobenius, 1)
    if f > ORACLE_MAX_FROBENIUS:
        raise BoundExceeded(f, ORACLE_MAX_FROBENIUS)
    found = []
    _place(f, f - 1, 1, 1 << f, found)
    return tuple(s for _, s in sorted(found, key=lambda pair: pair[0]))


def _place(f, x, members, gaps, found):
    # decide x, then x - 1, ..., 1; members and gaps are the decided
    # ones as masks (0 is in, f is out).  Each leaf goes to found as
    # (gap list, semigroup).
    if x == 0:
        found.append((_positions(gaps), NumericalSemigroup(f, members | 1 << (f + 1))))
        return
    _place(f, x - 1, members, gaps | 1 << x, found)
    # x may be a member unless some x + y is a decided gap, for y = x or
    # y a decided member (all above x): bit y - x of members >> x,
    # shifted by 2x, is x + y
    if not ((members >> x) | 1) << 2 * x & gaps:
        _place(f, x - 1, members | 1 << x, gaps, found)


# ----------------------------------------------------------------------
# public brute recomputations


def brute_l(s: NumericalSemigroup) -> int:
    """l(S) straight from the definition of second-kind gaps."""
    return _second_kind_mask(s.frobenius, s.bits).bit_count()


def brute_pf(s: NumericalSemigroup):
    """PF(S) by testing every gap against every member shift."""
    return tuple(_tbl_pf(_MemberTable.of(s)))


def brute_msg(s: NumericalSemigroup):
    """Minimal generators by subtracting every smaller member."""
    return tuple(_tbl_msg(_MemberTable.of(s)))


# ----------------------------------------------------------------------
# the sweep


def crosscheck(f_max: int):
    """Compare every fast path against brute recomputation for F <= f_max.

    Returns all mismatches (expected: an empty list).  Raises
    ValueError for f_max < 1 and TypeError for a non-integer f_max.
    """
    f_max = _at_least("f_max", f_max, 1)
    if f_max > ORACLE_MAX_FROBENIUS:
        raise BoundExceeded(f_max, ORACLE_MAX_FROBENIUS)
    reports = []

    def check(gens, operation, expected, actual):
        if expected != actual:
            reports.append(
                OracleReport(
                    generators=tuple(gens),
                    operation=operation,
                    expected=repr(expected),
                    actual=repr(actual),
                )
            )

    for f in range(1, f_max + 1):
        population = all_with_frobenius(f)
        tables = {s: _MemberTable.of(s) for s in population}
        # brute facts computed once per semigroup, kept for this F only
        l_of = {s: _tbl_l(t) for s, t in tables.items()}
        delta_of = {s: _tbl_delta(t) for s, t in tables.items()}

        # irreducible tree nodes versus maximality in the population
        brute_irr = _tbl_maximal({s: t.mask for s, t in tables.items()})
        fast_irr = set(irreducible_tree(f).semigroups())
        check((f,), "irreducible_tree node set F=%d" % f, brute_irr, fast_irr)

        for s in population:
            t = tables[s]
            gens = _tbl_msg(t)
            gaps = t.gap_list()
            small = _tbl_small(t)
            pf = _tbl_pf(t)
            bl = l_of[s]
            profile = s.gap_profile

            check(gens, "gaps", gaps, list(profile.gaps))
            check(gens, "small_elements", small, list(profile.small_elements))
            check(gens, "first_kind", _tbl_first_kind(t), list(profile.first_kind))
            check(gens, "second_kind", _tbl_second_kind(t), list(profile.second_kind))
            check(gens, "l", bl, profile.l_count)
            check(gens, "h", _tbl_h(t), profile.h_value)
            check(gens, "genus", len(gaps), profile.genus)
            check(gens, "minimal_generators", gens, list(s.minimal_generators))
            check(gens, "pseudo_frobenius", pf, list(pseudo_frobenius(s).values))
            check(gens, "delta", delta_of[s], list(s.delta()))
            check(gens, "theta_surplus", _tbl_theta_surplus(t), theta_surplus(s))

            report = classify(s)
            removal_ls = _tbl_removal_ls(t)
            check(gens, "symmetric", bl == 0, report.symmetric)
            check(gens, "pseudo_symmetric", bl == 1, report.pseudo_symmetric)
            check(gens, "irreducible(l<=1)", s in brute_irr, report.irreducible)
            check(gens, "ursy", 0 in removal_ls, report.ursy)
            check(gens, "urpsy", 1 in removal_ls, report.urpsy)
            if bl == 2:
                check(gens, "pf_fast_2sg", pf, list(pf_fast_2sg(s).values))
            if bl == 3:
                check(gens, "pf_fast_3sg", pf, list(pf_fast_3sg(s).values))

            # the gap-count form of Wilf's condition
            e = len(gens)
            n = len(small)
            check(gens, "wilf l<=(e-2)n", True, bl <= (e - 2) * n)

            if s in brute_irr:
                tree = interval_tree(s)
                brute_interval = {
                    other
                    for other in population
                    if tables[other].mask & ~t.mask == 0
                    and delta_of[other] == delta_of[s]
                }
                check(
                    gens,
                    "interval_tree node set",
                    brute_interval,
                    set(tree.semigroups()),
                )
                check(gens, "interval_tree height", _tbl_theta_surplus(t), tree.height)
                for node in tree.nodes:
                    check(
                        gens,
                        "interval depth %d l" % node.depth,
                        2 * node.depth + bl,
                        l_of[node.semigroup],
                    )
                for parent, child, label in tree.edges():
                    check(gens, "edge parent", parent, child._adjoin(label))
                    check(
                        gens,
                        "edge label is relative frobenius in parent",
                        relative_frobenius(parent, child),
                        label,
                    )
                    check(
                        gens,
                        "edge label is relative frobenius in root",
                        relative_frobenius(s, child),
                        label,
                    )
                    check(gens, "edge label is h(child)", _tbl_h(tables[child]), label)

        # enumeration by (K, F) partitions the population by l, and each
        # group lists its members in the population's gap-tuple order
        rank = {s: i for i, s in enumerate(population)}
        totals = 0
        for k in range(0, f + 1):
            result = enumerate_k_semigroups(EnumerationRequest(k, f))
            brute_set = {s for s in population if l_of[s] == k}
            if not result.feasible:
                check((f, k), "infeasible (K,F) really empty F=%d K=%d" % (f, k), set(), brute_set)
                continue
            members = [m for g in result.groups for m in g.members]
            check(
                (f, k),
                "enumerate K=%d F=%d" % (k, f),
                brute_set,
                set(members),
            )
            check(
                (f, k),
                "enumerate no duplicates K=%d F=%d" % (k, f),
                len(set(members)),
                len(members),
            )
            for group in result.groups:
                # a member outside the population ranks first here; the
                # set comparison above already reports it
                in_order = sorted(group.members, key=lambda m: rank.get(m, -1))
                check(
                    (f, k),
                    "enumerate order K=%d F=%d" % (k, f),
                    in_order,
                    list(group.members),
                )
            totals += result.total
        check((f,), "sum of counts covers population F=%d" % f, len(population), totals)

    return reports
