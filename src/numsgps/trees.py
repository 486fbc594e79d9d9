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
drops only nodes whose entire subtree is below t.

Both traversals are breadth-first with children ordered by edge label
ascending, so node order is deterministic.  One sequential level
generator drives every walk, keeping only the current level in memory.
"""

import enum
from dataclasses import dataclass

from .core import NumericalSemigroup, _bit_range, _closure_bits
from .errors import NotASubset, NotIrreducible


class TreeKind(enum.Enum):
    INTERVAL = "interval"
    IRREDUCIBLE = "irreducible"


@dataclass(frozen=True)
class TreeNode:
    """One tree node: the semigroup, its depth, the label of the edge
    from its parent (-1 at the root) and the parent's index in the
    tree's BFS node list (None at the root)."""

    semigroup: NumericalSemigroup
    depth: int
    edge_label: int
    parent_index: object  # int | None


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
            (self.nodes[n.parent_index].semigroup, n.semigroup, n.edge_label)
            for n in self.nodes
            if n.parent_index is not None
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
    """C(F), the irreducible semigroup with multiplicity above F/2."""
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1, got %d" % frobenius)
    lo = (frobenius + 1) // 2 if frobenius % 2 else frobenius // 2 + 1
    bits = 1 | _bit_range(lo, frobenius + 2)
    bits &= ~(1 << frobenius)
    return NumericalSemigroup(frobenius, bits)


# ----------------------------------------------------------------------
# interval tree of [theta(I), I]


def interval_children(parent, edge_label, frobenius):
    """Children of a node in an interval tree, as (child, label) pairs.

    edge_label is the label on the edge into parent (h(parent); -1 at
    the root).  Labels come out ascending because minimal generators do.
    """
    return tuple(
        (parent.remove_element(x), x)
        for x in parent.minimal_generators
        if 2 * x > frobenius and x < frobenius and x > edge_label
    )


def _levels(root, expand, budget=None, keep=None):
    # breadth-first levels, each a list of (parent position, semigroup,
    # label) with the position indexing the previous level (None at the
    # root); expand(sg, label) -> (child, label) pairs.  A level is
    # charged to budget only when the next one is asked for.
    level = [(None, root, -1)] if keep is None or keep(root) else []
    while level:
        yield level
        if budget is not None:
            budget.charge(len(level))
        level = [
            (pos, child, label)
            for pos, (_, sg, edge) in enumerate(level)
            for child, label in expand(sg, edge)
            if keep is None or keep(child)
        ]


def _bfs(root, expand, budget=None, keep=None):
    # every level of _levels as TreeNodes, parents indexed tree-wide
    nodes = []
    parents = None  # index in nodes of the previous level's first node
    for depth, level in enumerate(_levels(root, expand, budget, keep)):
        first = len(nodes)
        nodes.extend(
            TreeNode(sg, depth, label, None if pos is None else parents + pos)
            for pos, sg, label in level
        )
        parents = first
    return tuple(nodes)


def interval_tree(root: NumericalSemigroup) -> SemigroupTree:
    """Full interval tree of [theta(I), I] for irreducible I."""
    profile = root.gap_profile
    if profile.l_count > 1:
        raise NotIrreducible(root, profile.l_count)
    f = root.frobenius
    nodes = _bfs(root, lambda sg, label: interval_children(sg, label, f))
    return SemigroupTree(TreeKind.INTERVAL, nodes)


def interval_level(root, depth, budget=None):
    """Depth-n slice of the interval tree, canonically sorted.

    Only one level is alive at a time, so deep slices never materialize
    the rest of the tree.  The result is empty once depth exceeds
    #(I \\ theta(I)).  budget, when given, is charged one unit per
    expanded node.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0, got %d" % depth)
    profile = root.gap_profile
    if profile.l_count > 1:
        raise NotIrreducible(root, profile.l_count)
    f = root.frobenius
    expand = lambda sg, label: interval_children(sg, label, f)
    for n, level in enumerate(_levels(root, expand, budget)):
        if n == depth:
            members = (sg for _, sg, _ in level)
            return tuple(sorted(members, key=lambda t: t.canonical_key))
    return ()


# ----------------------------------------------------------------------
# tree of all irreducible semigroups with fixed Frobenius number


def irreducible_children(s, frobenius):
    """Children of an irreducible node: swap a generator x for F - x.

    The five conditions on x (see the module docstring) are exactly the
    ones making the swap another irreducible semigroup with the same
    Frobenius number and making the relation a tree.
    """
    m = s.multiplicity
    out = []
    for x in s.minimal_generators:
        if not (2 * x > frobenius and x < frobenius):
            continue
        if s.contains(2 * x - frobenius):
            continue
        if 3 * x == 2 * frobenius or 4 * x == 3 * frobenius:
            continue
        if not frobenius - x < m:
            continue
        bits = (s.bits & ~(1 << x)) | (1 << (frobenius - x))
        out.append((NumericalSemigroup(frobenius, bits), x))
    return tuple(out)


def irreducible_tree(
    frobenius: int, prune_threshold=None, budget=None
) -> SemigroupTree:
    """All irreducible semigroups with the given Frobenius number.

    With prune_threshold = t, nodes with theta_surplus < t are dropped
    together with their subtrees; the strict decrease of theta_surplus
    along edges makes that lossless for any consumer that only wants
    nodes with theta_surplus >= t.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1, got %d" % frobenius)
    keep = None
    if prune_threshold is not None:
        keep = lambda sg: theta_surplus(sg) >= prune_threshold
    nodes = _bfs(
        canonical_irreducible(frobenius),
        lambda sg, label: irreducible_children(sg, frobenius),
        budget=budget,
        keep=keep,
    )
    return SemigroupTree(TreeKind.IRREDUCIBLE, nodes)
