"""Two rooted tree constructions on numerical semigroups.

Both trees are driven by the same bookkeeping: for A contained in B, the
relative Frobenius number F_B(A) = max(B \\ A) (-1 when A = B), and for a
semigroup S with F = F(S) >= 1,

    delta(S) = {s in S : 2s < F}finite part below F/2,
    theta(S) = <delta(S)> union {F+1, F+2, ...}.

theta(S) is again a numerical semigroup with the same Frobenius number,
contained in S, and theta(S) = theta(T) for every T between theta(S)
and S.

Child mask.  Both trees remove from a node S some of the elements of

    U(S) = msg(S) n (F/2, F),

and both read U(S) off one mask, with no msg(S).  The smaller summand of
a sum x < F is at most x/2 < F/2, so it lies in delta(S): a member x in
(F/2, F) is a generator exactly when no x - d is a nonzero member, d a
nonzero element of delta(S).  So U(S) is the members in (F/2, F) less
the union of the shifts (S \\ {0}) + d over those d.

Interval tree.  For an irreducible semigroup I (l(I) <= 1) the interval
[theta(I), I] = {S : theta(I) <= S <= I} ordered by inclusion carries a
tree rooted at I: the children of a node P reached by removing x0 are

    P \\ {x}   for x in U(P) with x > x0,

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

for x in U(S) with 2x - F not in S, 3x != 2F, 4x != 3F and
F - x < multiplicity(S).

#(S \\ theta(S)) strictly decreases along every edge of this tree, and
equals floor((F-1)/2) at the root.  That monotonicity justifies
threshold pruning: dropping every node with #(S \\ theta(S)) < t also
drops only nodes whose entire subtree is below t.  Every count is >= 0,
so only t > 0 can drop a node, and only then does the walk compute one.

One depth-first walker serves every traversal.  It keeps only the
nodes on the current path, each with the rest of its children, and
visits children by edge label ascending, so node order is
deterministic; a budget is charged as each node is produced.  A whole
tree is its walk grouped by depth, and a slice of an interval tree is
the walk capped at the slice's depth.  Grouping by depth gives the
breadth-first order: the walk reaches nodes in lexicographic order of
their label paths, and a breadth-first walk lists each level in that
order too (by induction, it lists a level by parent position, then by
label).  Both child rules read F off the node, since every node of
either tree shares its root's F.  The walker's nodes need not be
semigroups: a slice walk's nodes are bare bit tables, because every node
of [theta(I), I] also shares delta(I) (only elements above F/2 are ever
removed), so the walk reads F and delta(I) once off I and builds a
semigroup only for each node it yields.

Level order.  Each slice of an interval tree comes out of the walk
already in canonical order (ascending canonical key), so nothing sorts
it.  A depth-n node is I \\ B with B = {b1 < ... < bn} contained in
(F/2, F), its elements removed in increasing order because labels rise
along every path, so the walk lists the slice in lexicographic order of
(b1, ..., bn).  Two nodes I \\ B and I \\ B' of one depth share F and
gaps(I), so their tables first differ at d = min(B symmetric-difference
B').  Below d the two sets coincide and |B| = |B'|, so at the first
position where the sorted tuples differ one holds d and the other a
larger element: d lies in the lexicographically smaller tuple.  That
node has d as a gap where the other has a member, so its gap list is
the smaller one, and so is its canonical key.

Level sizes.  Every S in [theta(I), I] is I \\ B for a set B inside
P(I), the members of I in (F/2, F) outside theta(I).  S is closed
exactly when B is a down-set of P(I) under a <= b iff b - a in delta(I)
(a removed b above a kept a would be the sum a + (b - a) of two members
of S).  Depth is |B|, so the depth-n slice has as many nodes as P(I)
has n-element down-sets, and interval_level_counts counts them without
walking.

The minimal elements of P(I) are exactly U(I), so level 1 is a popcount
of the child mask.  An x in U(I) lies outside theta(I), whose members in
(F/2, F) are sums of two or more nonzero elements of delta(I), and it
is no a + d with a in P(I) and d > 0 in delta(I): it is in P(I) and
minimal there.  Conversely, let x be minimal in P(I) and suppose x = a + d with
d > 0 in delta(I) and a > 0 in I.  Then 2a != F, since F/2 is never a
member (2 (F/2) = F).  If 2a < F, a is in delta(I) and x is in
theta(I); if 2a > F, a is in P(I), since a in theta(I) would put
x = a + d there, and a lies below x.  Either way x is not minimal in
P(I), so x is a generator.
"""

import enum
from dataclasses import dataclass

from .core import (
    NumericalSemigroup,
    _bit_range,
    _check_table_size,
    _closure_bits,
    _delta_bits,
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
    """A finished traversal: nodes in breadth-first order (level by
    level, each level in walk order), nodes[0] the root."""

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


def _lowest_first(mask):
    # positions of the set bits of mask >= 0, ascending, one lowest bit
    # at a time: a sparse mask over many bits costs its set bits only
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _small_members(s):
    # delta(S) \ {0} as a mask
    return _delta_bits(s) & ~1


def _delta_closure_bits(s):
    # bit table over [0, F] of the semigroup generated by delta(S) \ {0}
    return _closure_bits(_lowest_first(_small_members(s)), s.frobenius)


def _upper_mask(bits, f, small):
    # U(S) = msg(S) n (F/2, F) as a mask (see the module docstring), for
    # the table bits of S, F = f and small the elements of delta(S) \ {0}:
    # the one place both trees' children are decided
    if f < 3:
        return 0  # (F/2, F) holds no integer
    members = bits & ~1
    sums = 0
    for d in small:
        sums |= members << d
    return members & ~sums & _bit_range(f // 2 + 1, f)


def _upper_generators(s):
    # U(S) of a semigroup
    return _upper_mask(s.bits, s.frobenius, _lowest_first(_small_members(s)))


def _above(mask, x):
    # the set bits of mask >= 0 at positions above x, for any integer x
    return mask & (-1 << max(x + 1, 0))


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
    the root).  The labels are the elements x > edge_label of the child
    mask U(parent) (see the module docstring), ascending.  Each is a
    minimal generator below F, so the child is parent.remove_element(x),
    built here without checking x again.
    """
    f = parent.frobenius
    small = _lowest_first(_small_members(parent))
    children = _table_children(parent.bits, edge_label, f, small)
    return tuple((NumericalSemigroup(f, bits), x) for bits, x in children)


def _table_children(bits, label, f, small):
    # interval_children on bare tables, small the elements of
    # delta(S) \ {0}: every node of [theta(I), I] shares F and delta(I),
    # so a slice walk passes in both, read once off its root, and builds
    # no semigroup for the nodes it expands
    for x in _lowest_first(_above(_upper_mask(bits, f, small), label)):
        yield bits ^ (1 << x), x


def _dfs(root, expand, depth=None, budget=None):
    # (depth, parent, node, label) in depth-first preorder, children by
    # ascending label (parent None and label -1 at the root);
    # expand(node, label) -> (child, label) pairs, where a node is a
    # semigroup or a bare table, whatever expand takes.  Nodes at depth
    # are not expanded, and each node is charged to budget as it is
    # produced, so an overrun stops the walk at once.  stack[i] holds a
    # depth-i node and the iterator over its children.
    if budget is not None:
        budget.charge()
    yield 0, None, root, -1
    if depth == 0:
        return
    stack = [(root, iter(expand(root, -1)))]
    while stack:
        n = len(stack)
        parent, children = stack[-1]
        for child, label in children:
            if budget is not None:
                budget.charge()
            yield n, parent, child, label
            if n != depth:
                stack.append((child, iter(expand(child, label))))
                break
        else:
            stack.pop()


def _tree(kind, walk):
    # the nodes of a walk grouped by depth: every level in walk order
    levels = []
    for depth, parent, sg, label in walk:
        if depth == len(levels):
            levels.append([])
        levels[depth].append(TreeNode(sg, depth, label, parent))
    return SemigroupTree(kind, tuple(n for level in levels for n in level))


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
    return _tree(TreeKind.INTERVAL, _dfs(root, interval_children))


def iter_interval_level(root, depth):
    """The depth-n slice of the interval tree of I, one node at a time.

    Nodes come out in canonical order by construction (see the module
    docstring).  The walk is depth-first, so no level is ever held
    whole, and it runs on bare tables, so only the nodes it yields
    become semigroups.  It expands every node above the slice, and
    yields nothing once depth exceeds #(I \\ theta(I)).  Raises
    ValueError for a negative depth and NotIrreducible for a reducible
    root, at the call.
    """
    _check_slice(root, depth)
    f = root.frobenius
    small = tuple(_lowest_first(_small_members(root)))
    expand = lambda bits, label: _table_children(bits, label, f, small)
    walk = _dfs(root.bits, expand, depth)
    return (NumericalSemigroup(f, bits) for n, _, bits, _ in walk if n == depth)


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
    return tuple(iter_interval_level(root, depth))


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
    if depth == 1:
        # level 1: the minimal elements of P(I), which are U(I)
        counts[1] = _upper_generators(root).bit_count()
        return tuple(counts)
    base = f // 2 + 1
    closure = _delta_closure_bits(root)
    p = ((root.bits & ~closure) >> base) & _bit_range(0, f - base)
    return _down_set_counts(p, _small_members(root), depth)


def _down_set_counts(p, small, depth):
    # counts of the down-sets of p with 0..depth elements, where bit b of
    # p lies above bit a when b - a is set in small.  Memoized on the
    # remaining mask without recursion: a disconnected mask multiplies
    # its parts, and its isolated elements give a binomial; a connected
    # one splits on its lowest element x, which is minimal, as (down-sets
    # of m without up(x)) + t (down-sets of m without x)
    steps = small | 1  # the differences a <= b allows, 0 included
    width = steps.bit_length()
    back = _mirror(steps, width)  # bit width - d for each step d
    xs = _set_bits(p)
    below = {b: p & ((back << b) >> width) for b in xs}
    # an element with more than depth elements below it is in no down-set
    # that counts, and those elements form an up-set, so drop them
    p &= ~sum(1 << x for x, m in below.items() if m.bit_count() > depth)
    links = {x: below[x] | (p & (steps << x)) for x in xs}  # comparables
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
            plan = plans[m] = _plan(m, links, steps)
        missing = [part for part in plan[1] if part not in memo]
        if missing:
            stack += missing
            continue
        stack.pop()
        kind, parts, isolated = plan
        if kind == "branch":
            without, rest = (memo[part] for part in parts)
            out = without[:1] + [a + b for a, b in zip(without[1:], rest)]
        else:
            out = _binomials(isolated, size)
            for part in parts:
                out = _product(out, memo[part], size)
        memo[m] = out
    return tuple(memo[p])


def _plan(m, links, steps):
    # ("branch", (m less up(x), m less x), None) for a connected m with
    # two or more elements and x its lowest, else ("product", components,
    # isolated count)
    near = {x: links[x] & m for x in _set_bits(m)}
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
        x = (m & -m).bit_length() - 1
        return ("branch", (m & ~(steps << x), m & ~(1 << x)), None)
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
    return tuple(_irreducible_children(s))


def _irreducible_children(s):
    # irreducible_children one child at a time.  Candidates come lowest
    # first off the child mask U(S), never listed, so a suspended walk
    # holds O(F) bits per node on its path.
    f = s.frobenius
    # F - x < m, i.e. x > F - m
    candidates = _above(_upper_generators(s), f - s.multiplicity)
    for x in _lowest_first(candidates):
        if s.contains(2 * x - f):
            continue
        if 3 * x == 2 * f or 4 * x == 3 * f:
            continue
        bits = (s.bits & ~(1 << x)) | (1 << (f - x))
        yield NumericalSemigroup(f, bits), x


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
    expand = lambda sg, label: (c for c in _irreducible_children(sg) if kept(c[0]))
    walk = _dfs(root, expand, budget=budget) if kept(root) else ()
    return _tree(TreeKind.IRREDUCIBLE, walk)
