"""Definition-level ground truth for everything the fast paths compute.

Nothing here calls the analytics of the other modules.  Each semigroup
is re-read into a minimal member table (a frozenset of the members up to
its Frobenius number) and every quantity is recomputed straight from its
definition: l by reading the table's digits forwards and backwards (x
is a second-kind gap when x and F - x are both outside it; brute_l
reads the digits of the semigroup's own bit table), PF by testing
all shifts, msg by subtracting members, delta and theta by direct
closure sieves, irreducibility by maximality among all semigroups
sharing the Frobenius number, URSY/URPSY by trying every gap as the
filled-in element.

Maximality is decided maximal-first: the population is visited by
member count, largest first, and S is maximal exactly when no maximal
semigroup already found contains it.  That is still the definition, not
a criterion: a strict superset of S has more members, so it is visited
before S, and a non-maximal S lies inside some maximal member of the
(finite) population, which is then already found.  The subset tests
are on an int of each table's members, so the sweep costs
O(n * #irreducibles) subset tests instead of O(n**2).

all_with_frobenius(f) enumerates every numerical semigroup with
Frobenius number f by deciding membership of f-1, f-2, ..., 1 in that
order (0 is in, f is out, everything above f is in), pruning any partial
assignment that already violates additive closure.  When x is assigned
as a member, every sum x + y with y an already-decided member (including
y = x) is already decided, so checking those sums catches every
violation exactly once.  The search is exponential in f, hence the hard
guard at ORACLE_MAX_FROBENIUS.

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
from .core import NumericalSemigroup
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
    """Frobenius number plus the members in [0, F]; above F all in."""

    frobenius: int
    members: frozenset

    @classmethod
    def of(cls, s: NumericalSemigroup):
        f = s.frobenius
        # the table's binary digits, bit i at index i, up to F
        digits = bin(s.bits)[:1:-1][: max(f, 0) + 1]
        return cls(f, frozenset([i for i, c in enumerate(digits) if c == "1"]))

    def contains(self, x):
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        return x in self.members

    def gap_list(self):
        return [x for x in range(1, self.frobenius + 1) if x not in self.members]


def _tbl_closed(t: _MemberTable) -> bool:
    f = t.frobenius
    members = sorted(m for m in t.members if m > 0)
    for pos, i in enumerate(members):
        for j in members[pos:]:
            if i + j > f:
                break
            if i + j not in t.members:
                return False
    return True


def _tbl_multiplicity(t):
    if t.frobenius < 0:
        return 1
    return min((m for m in t.members if m > 0), default=t.frobenius + 1)


def _tbl_small(t):
    return sorted(m for m in t.members if m < t.frobenius)


def _tbl_gaps(t):
    return t.gap_list()


def _tbl_first_kind(t):
    f = t.frobenius
    return sorted(f - s for s in _tbl_small(t))


def _tbl_mask(t):
    # the members in [0, F] as one int: within one F, a is contained in b
    # exactly when a & ~b == 0
    return sum(1 << m for m in t.members)


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
    return ~(members | mirrored) & ((1 << (f + 1)) - 1)


def _tbl_second_kind(t):
    mask = _second_kind_mask(t.frobenius, _tbl_mask(t))
    return [x for x in range(1, t.frobenius + 1) if mask >> x & 1]


def _tbl_l(t):
    return _second_kind_mask(t.frobenius, _tbl_mask(t)).bit_count()


def _tbl_h(t):
    f = t.frobenius
    # largest second-kind gap different from F/2, sentinel -1
    candidates = [x for x in _tbl_second_kind(t) if 2 * x != f]
    return max(candidates, default=-1)


def _tbl_pf(t):
    f = t.frobenius
    m = _tbl_multiplicity(t)
    shifts = [s for s in range(1, f + m + 1) if t.contains(s)]
    return [
        x for x in _tbl_gaps(t) if all(t.contains(x + s) for s in shifts)
    ]


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
    return sorted(s for s in t.members if 2 * s < f)


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
    return len([m for m in t.members if 0 < m < t.frobenius and m not in reach])


def _tbl_maximal(masks):
    """The semigroups of one population that no other one contains.

    masks maps each semigroup to the _tbl_mask of its table, all sharing
    one F; the module docstring says why maximal-first is maximality.
    """
    found = []
    for s in sorted(masks, key=lambda s: -masks[s].bit_count()):
        a = masks[s]
        if all(a & ~b for _, b in found):
            found.append((s, a))
    return {s for s, _ in found}


def _tbl_adjoin(t: _MemberTable, y: int) -> _MemberTable:
    members = set(t.members) | {y}
    f = t.frobenius
    while f >= 0 and f in members:
        f -= 1
    if f <= 0:
        return _MemberTable(-1, frozenset({0}))
    return _MemberTable(f, frozenset(m for m in members if m <= f))


def _tbl_removal_ls(t: _MemberTable):
    # the l values among {0, 1} reached by some semigroup T = S union {y}
    # with y a gap of S and a minimal generator of T; one pass over the gaps
    found = set()
    for y in _tbl_gaps(t):
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
    ORACLE_MAX_FROBENIUS because the search space is 2**(f-1).
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1, got %d" % frobenius)
    if frobenius > ORACLE_MAX_FROBENIUS:
        raise BoundExceeded(frobenius, ORACLE_MAX_FROBENIUS)
    f = frobenius
    status = [None] * (f + 1)
    status[0] = True
    status[f] = False
    decided_members = []  # decided members below f, descending
    results = []

    def collect():
        bits = 1 | (1 << (f + 1))
        for m in decided_members:
            bits |= 1 << m
        gaps = tuple(x for x in range(1, f + 1) if status[x] is False)
        results.append((gaps, NumericalSemigroup(f, bits)))

    def place(x):
        if x == 0:
            collect()
            return
        # branch 1: x is a gap
        status[x] = False
        place(x - 1)
        # branch 2: x is a member, unless closure already fails; every
        # sum with one addend equal to x lands in the decided range
        ok = not (2 * x <= f and status[2 * x] is False)
        if ok:
            for y in decided_members:
                if x + y <= f and status[x + y] is False:
                    ok = False
                    break
        if ok:
            status[x] = True
            decided_members.append(x)
            place(x - 1)
            decided_members.pop()
        status[x] = None

    place(f - 1)
    # place refers to itself through its closure; clearing the name
    # breaks that cycle, so the search state is freed on return instead
    # of at the next cyclic collection
    del place
    return tuple(s for _, s in sorted(results, key=lambda pair: pair[0]))


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

    Returns all mismatches (expected: an empty list).
    """
    if f_max < 1:
        raise ValueError("f_max must be >= 1, got %d" % f_max)
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
        masks = {s: _tbl_mask(t) for s, t in tables.items()}
        l_of = {s: _tbl_l(t) for s, t in tables.items()}
        delta_of = {s: _tbl_delta(t) for s, t in tables.items()}

        # irreducible tree nodes versus maximality in the population
        brute_irr = _tbl_maximal(masks)
        fast_irr = set(irreducible_tree(f).semigroups())
        check((f,), "irreducible_tree node set F=%d" % f, brute_irr, fast_irr)

        for s in population:
            t = tables[s]
            gens = _tbl_msg(t)
            gaps = _tbl_gaps(t)
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
                    if masks[other] & ~masks[s] == 0 and delta_of[other] == delta_of[s]
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
