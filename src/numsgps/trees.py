"""Two rooted tree constructions on numerical semigroups.

Both trees are driven by the same bookkeeping: for A contained in B, the
relative Frobenius number F_B(A) = max(B \\ A) (-1 when A = B), and for a
semigroup S with F = F(S) >= 1,

    delta(S) = {s in S : 2s < F}finite part below F/2,
    theta(S) = <delta(S)> union {F+1, F+2, ...}.

theta(S) is again a numerical semigroup with the same Frobenius number,
contained in S, and theta(S) = theta(T) for every T between theta(S)
and S.

Interval tree.  For an irreducible semigroup I (l(I) <= 1) the interval
[theta(I), I] = {S : theta(I) <= S <= I} ordered by inclusion carries a
tree rooted at I: the children of a node P reached by removing x0 are

    P \\ {x}   for x in msg(P) with F/2 < x < F and x > x0,

where the root carries the sentinel label -1.  Every node of depth n has
l = 2n + l(I), the depth-n slice is exactly {S in [theta(I), I] :
l(S) = 2n + l(I)}, and the height equals #(I \\ theta(I)).  The guard
x > previous label makes each subset of removable elements reachable
exactly once (removals happen in increasing order), so no dedup is
needed.

Irreducible tree.  The set of irreducible semigroups with Frobenius
number F also carries a tree.  The root is the canonical irreducible
semigroup C(F) ({0, (F+1)/2, ->} \\ {F} for odd F, {0, F/2+1, ->} \\ {F}
for even F, the unique one with multiplicity > F/2), and the children of
a node S are

    (S \\ {x}) union {F - x}

for minimal generators x of S with 2x > F, x < F, 2x - F not in S,
3x != 2F, 4x != 3F and F - x < multiplicity(S).

#(S \\ theta(S)) strictly decreases along every edge of this tree, and
equals floor((F-1)/2) at the root.  That monotonicity justifies
threshold pruning: dropping every node with #(S \\ theta(S)) < t also
drops only nodes whose entire subtree is below t.  Every count is >= 0,
so only t > 0 can drop a node, and only then does the walk compute one.

Whole trees are walked breadth-first by one sequential level generator,
which keeps only the current level, and the parents it hangs from, in
memory.  A slice of an interval tree is walked depth-first instead,
keeping only the children of the nodes on the current path.  Both visit
children by edge label ascending, so node order is deterministic.  Both
child rules read F off the node, since every node of either tree shares
its root's F.

Level order.  Each slice of an interval tree comes out of the walk
already in canonical order (ascending canonical key), so nothing sorts
it.  A depth-n node is I \\ B with B = {b1 < ... < bn} contained in
(F/2, F), its elements removed in increasing order because labels rise
along every path.  A depth-first walk that visits children by label
ascending reaches nodes in lexicographic order of their label paths,
so it lists the slice in lexicographic order of (b1, ..., bn).  Two
nodes I \\ B and I \\ B' of one depth share F and gaps(I), so their
tables first differ at d = min(B symmetric-difference B').  Below d the
two sets coincide and |B| = |B'|, so at the first position where the
sorted tuples differ one holds d and the other a larger element: d lies
in the lexicographically smaller tuple.  That node has d as a gap where
the other has a member, so its gap list is the smaller one, and so is
its canonical key.

Level sizes.  Every S in [theta(I), I] is I \\ B for a set B inside
P(I), the members of I in (F/2, F) outside theta(I).  S is closed
exactly when B is a down-set of P(I) under a <= b iff b - a in delta(I)
(a removed b above a kept a would be the sum a + (b - a) of two members
of S).  Depth is |B|, so the depth-n slice has as many nodes as P(I)
has n-element down-sets, and interval_level_counts counts them without
walking.
"""

import enum
from dataclasses import dataclass

from .core import (
    NumericalSemigroup,
    _bit_range,
    _check_table_size,
    _closure_bits,
    _mirror,
    _set_bits,
)
from .errors import NotASubset, NotIrreducible


class TreeKind(enum.Enum):
    INTERVAL = "interval"
    IRREDUCIBLE = "irreducible"


@dataclass(frozen=True)
class TreeNode:
    """One tree node: the semigroup, its depth, the label of the edge
    from its parent (-1 at the root) and the parent semigroup (None at
    the root)."""

    semigroup: NumericalSemigroup
    depth: int
    edge_label: int
    parent: object  # NumericalSemigroup | None


@dataclass(frozen=True)
class SemigroupTree:
    """A finished traversal: nodes in BFS order, nodes[0] the root."""

    kind: TreeKind
    nodes: tuple

    @property
    def root(self):
        return self.nodes[0].semigroup if self.nodes else None

    def __len__(self):
        return len(self.nodes)

    @property
    def height(self):
        return max((n.depth for n in self.nodes), default=-1)

    def level(self, depth):
        """Semigroups at the given depth, in BFS order."""
        return tuple(n.semigroup for n in self.nodes if n.depth == depth)

    def semigroups(self):
        return tuple(n.semigroup for n in self.nodes)

    def edges(self):
        """(parent, child, label) triples in BFS order of the child."""
        return tuple(
            (n.parent, n.semigroup, n.edge_label)
            for n in self.nodes
            if n.parent is not None
        )


# ----------------------------------------------------------------------
# shared bookkeeping


def relative_frobenius(sup: NumericalSemigroup, sub: NumericalSemigroup) -> int:
    """max(sup \\ sub) for sub contained in sup, -1 when they are equal."""
    fa = sub.frobenius
    if sup.frobenius > fa:
        # sup misses its own Frobenius number, which sub would contain
        raise NotASubset(sub, sup)
    # both tables widened to [0, F(sub) + 1]; everything above is shared
    wide = sup.bits | _bit_range(sup.frobenius + 2, fa + 2)
    if sub.bits & ~wide:
        raise NotASubset(sub, sup)
    return (wide & ~sub.bits).bit_length() - 1


def _delta_closure_bits(s):
    # bit table over [0, F] of the semigroup generated by delta(S) \ {0}
    return _closure_bits([d for d in s.delta() if d > 0], s.frobenius)


def theta(s: NumericalSemigroup) -> NumericalSemigroup:
    """<delta(S)> union {F+1, F+2, ...} as a semigroup with the same F."""
    f = s.frobenius
    if f < 1:
        raise ValueError("theta needs a semigroup with F(S) >= 1")
    return NumericalSemigroup(f, _delta_closure_bits(s) | (1 << (f + 1)))


def theta_surplus(s: NumericalSemigroup) -> int:
    """#(S \\ theta(S)), computed as a popcount without building theta.

    The difference lives in [1, F-1]: both sets share 0 and everything
    above F.  This count equals the height of the interval tree of S
    when S is irreducible.
    """
    f = s.frobenius
    if f < 1:
        raise ValueError("theta_surplus needs a semigroup with F(S) >= 1")
    diff = s.bits & ~(_delta_closure_bits(s) | (1 << (f + 1)))
    return diff.bit_count()


def canonical_irreducible(frobenius: int) -> NumericalSemigroup:
    """C(F), the irreducible semigroup with multiplicity above F/2.

    Raises BoundExceeded when F + 2 > core.MAX_CLOSURE_WINDOW.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1, got %d" % frobenius)
    _check_table_size(frobenius)
    lo = (frobenius + 1) // 2 if frobenius % 2 else frobenius // 2 + 1
    bits = 1 | _bit_range(lo, frobenius + 2)
    bits &= ~(1 << frobenius)
    return NumericalSemigroup(frobenius, bits)


# ----------------------------------------------------------------------
# interval tree of [theta(I), I]


def interval_children(parent, edge_label):
    """Children of a node in an interval tree, as (child, label) pairs.

    edge_label is the label on the edge into parent (h(parent); -1 at
    the root).  Labels come out ascending because minimal generators do.
    """
    f = parent.frobenius
    return tuple(
        (parent.remove_element(x), x)
        for x in parent.minimal_generators
        if 2 * x > f and x < f and x > edge_label
    )


def _charging(expand, budget):
    # expand, with each child charged to budget as it is produced
    def charged(sg, label):
        for pair in expand(sg, label):
            budget.charge()
            yield pair

    return charged


def _levels(root, expand, budget=None):
    # breadth-first levels, each a list of (parent, semigroup, label)
    # triples (parent None and label -1 at the root); expand(sg, label)
    # -> (child, label) pairs.  Each node is charged to budget as it is
    # produced, so an overrun stops a level part-way.
    if budget is not None:
        budget.charge()
        expand = _charging(expand, budget)
    level = [(None, root, -1)]
    while level:
        yield level
        level = [
            (sg, child, label)
            for _, sg, edge in level
            for child, label in expand(sg, edge)
        ]


def _bfs(levels):
    # every level as TreeNodes, in BFS order
    return tuple(
        TreeNode(sg, depth, label, parent)
        for depth, level in enumerate(levels)
        for parent, sg, label in level
    )


def _check_irreducible(root):
    l_count = root.gap_profile.l_count
    if l_count > 1:
        raise NotIrreducible(root, l_count)


def _check_slice(root, depth):
    if depth < 0:
        raise ValueError("depth must be >= 0, got %d" % depth)
    _check_irreducible(root)


def interval_tree(root: NumericalSemigroup) -> SemigroupTree:
    """Full interval tree of [theta(I), I] for irreducible I."""
    _check_irreducible(root)
    return SemigroupTree(TreeKind.INTERVAL, _bfs(_levels(root, interval_children)))


def _walk(root, depth):
    # depth-first, children by ascending label: stack[i] iterates the
    # (child, label) pairs of one depth-i node, and the pairs of a
    # depth-(n-1) node are the slice's members, listed as they stand
    children = interval_children
    if depth == 0:
        yield root
        return
    stack = [iter(children(root, -1))]
    while stack:
        top = stack[-1]
        if len(stack) == depth:
            for sg, _ in top:
                yield sg
            stack.pop()
            continue
        pair = next(top, None)
        if pair is None:
            stack.pop()
        else:
            stack.append(iter(children(*pair)))


def iter_interval_level(root, depth):
    """The depth-n slice of the interval tree of I, one node at a time.

    Nodes come out in canonical order by construction (see the module
    docstring).  The walk is depth-first, so no level is ever held
    whole.  It expands every node above the slice, and yields nothing
    once depth exceeds #(I \\ theta(I)).  Raises ValueError for a
    negative depth and NotIrreducible for a reducible root, at the call.
    """
    _check_slice(root, depth)
    return _walk(root, depth)


def interval_level(root, depth, budget=None):
    """The depth-n slice of the interval tree, as a tuple in canonical
    order (see iter_interval_level).

    The result is empty once depth exceeds #(I \\ theta(I)).  budget,
    when given, is charged one unit per node above the slice, the nodes
    a walk expands, before anything is walked.
    """
    _check_slice(root, depth)
    if budget is not None:
        budget.charge(sum(_level_counts(root, depth)[:depth]))
    return tuple(_walk(root, depth))


def interval_level_counts(root, depth):
    """Sizes of levels 0..depth of the interval tree of I, computed
    without walking it.

    The depth-n nodes are I \\ B for the n-element down-sets B of P(I)
    under a <= b iff b - a in delta(I) (see the module docstring), so
    the sizes are those down-set counts.  Levels past the height count
    0.  Raises ValueError for a negative depth and NotIrreducible for a
    reducible root.
    """
    _check_slice(root, depth)
    return _level_counts(root, depth)


def _level_counts(root, depth):
    # interval_level_counts for a root known to be irreducible
    counts = [1] + [0] * depth
    f = root.frobenius
    if depth == 0 or f < 3:
        return tuple(counts)  # (F/2, F) holds no integer below F = 3
    base = f // 2 + 1
    small = root.bits & _bit_range(1, (f + 1) // 2)  # delta(I) less 0
    closure = _delta_closure_bits(root)
    p = ((root.bits & ~closure) >> base) & _bit_range(0, f - base)
    if depth == 1:
        # level 1: the minimal elements of P(I)
        hit = 0
        for d in _set_bits(small):
            hit |= p << d
        counts[1] = (p & ~hit).bit_count()
        return tuple(counts)
    return _down_set_counts(p, small, depth)


def _down_set_counts(p, small, depth):
    # counts of the down-sets of p with 0..depth elements, where bit b of
    # p lies above bit a when b - a is set in small.  Memoized on the
    # remaining mask without recursion: a connected mask branches on its
    # element x of most comparabilities, as (down-sets without x) +
    # t^#below(x) (down-sets with x); a disconnected one multiplies its
    # parts, and its isolated elements give a binomial.
    steps = small | 1  # the differences a <= b allows, 0 included
    width = steps.bit_length()
    back = _mirror(steps, width)  # bit width - d for each step d
    xs = _set_bits(p)
    above = {a: p & (steps << a) for a in xs}
    below = {b: p & ((back << b) >> width) for b in xs}
    both = {x: above[x] | below[x] for x in xs}
    # an element with more than depth elements below it is in no down-set
    # that counts, and those elements form an up-set, so drop them
    p &= ~sum(1 << x for x, m in below.items() if m.bit_count() > depth)
    size = depth + 1
    memo = {0: [1] + [0] * depth}
    plans = {}
    stack = [p]
    while stack:
        m = stack[-1]
        if m in memo:
            stack.pop()
            continue
        plan = plans.get(m)
        if plan is None:
            plan = plans[m] = _plan(m, above, below, both, depth)
        missing = [part for part in plan[1] if part not in memo]
        if missing:
            stack += missing
            continue
        stack.pop()
        kind, parts, extra = plan
        if kind == "branch":
            # extra = #below(x) in m; parts = (m less up(x), m less down(x))
            out = list(memo[parts[0]])
            if len(parts) == 2:
                shifted = memo[parts[1]]
                for i in range(size - extra):
                    out[i + extra] += shifted[i]
        else:
            # extra = number of isolated elements
            out = _binomials(extra, size)
            for part in parts:
                out = _product(out, memo[part], size)
        memo[m] = out
    return tuple(memo[p])


def _plan(m, above, below, both, depth):
    # ("branch", parts, #below(x)) for a connected m with two or more
    # elements, else ("product", components, isolated count)
    near = {x: both[x] & m for x in _set_bits(m)}
    isolated = 0
    rest = 0
    for x, y in near.items():
        if y == 1 << x:
            isolated += 1
        else:
            rest |= 1 << x
    parts = []
    while rest:
        x = (rest & -rest).bit_length() - 1
        comp = seen = near[x]
        while seen:
            grown = comp
            for y in _set_bits(seen):
                grown |= near[y]
            seen, comp = grown & ~comp, grown
        rest &= ~comp
        parts.append(comp)
    if parts == [m]:
        x = max(near, key=lambda y: near[y].bit_count())
        low = below[x] & m
        n = low.bit_count()
        pair = (m & ~above[x], m & ~low)
        return ("branch", pair if n <= depth else pair[:1], n)
    return ("product", parts, isolated)


def _binomials(n, size):
    # the coefficients of (1 + t)^n below t^size
    out = [1] + [0] * (size - 1)
    for i in range(1, min(n, size - 1) + 1):
        out[i] = out[i - 1] * (n - i + 1) // i
    return out


def _product(a, b, size):
    # a * b truncated below t^size
    out = [0] * size
    for i, x in enumerate(a):
        if x:
            for j in range(size - i):
                out[i + j] += x * b[j]
    return out


# ----------------------------------------------------------------------
# tree of all irreducible semigroups with fixed Frobenius number


def irreducible_children(s):
    """Children of an irreducible node: swap a generator x for F - x.

    The five conditions on x (see the module docstring) are exactly the
    ones making the swap another irreducible semigroup with the same
    Frobenius number and making the relation a tree.
    """
    f = s.frobenius
    m = s.multiplicity
    out = []
    for x in s.minimal_generators:
        if not (2 * x > f and x < f):
            continue
        if s.contains(2 * x - f):
            continue
        if 3 * x == 2 * f or 4 * x == 3 * f:
            continue
        if not f - x < m:
            continue
        bits = (s.bits & ~(1 << x)) | (1 << (f - x))
        out.append((NumericalSemigroup(f, bits), x))
    return tuple(out)


def irreducible_tree(
    frobenius: int, prune_threshold=None, budget=None
) -> SemigroupTree:
    """All irreducible semigroups with the given Frobenius number.

    With prune_threshold = t, nodes with theta_surplus < t are dropped
    together with their subtrees; the strict decrease of theta_surplus
    along edges makes that lossless for any consumer that only wants
    nodes with theta_surplus >= t.  Every theta_surplus is >= 0, so t = 0
    and None drop nothing and test nothing.  A negative t raises ValueError.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1, got %d" % frobenius)
    if prune_threshold is not None and prune_threshold < 0:
        raise ValueError("prune_threshold must be >= 0, got %d" % prune_threshold)
    root = canonical_irreducible(frobenius)
    t = prune_threshold or 0
    kept = lambda sg: not t or theta_surplus(sg) >= t
    # lazy, so that a budget overrun stops the surplus tests with it
    expand = lambda sg, label: (c for c in irreducible_children(sg) if kept(c[0]))
    levels = _levels(root, expand, budget) if kept(root) else ()
    return SemigroupTree(TreeKind.IRREDUCIBLE, _bfs(levels))
