"""Exception types shared across the package.

Every domain error derives from NumericalSemigroupError so the CLI can
map the whole family onto a single exit code.
"""


class NumericalSemigroupError(Exception):
    """Base class for all domain errors raised by this package."""


class GcdNotOne(NumericalSemigroupError):
    """The generators have a common divisor, so the complement is not finite."""

    def __init__(self, generators, gcd):
        self.generators = tuple(generators)
        self.gcd = gcd
        super().__init__(
            "gcd(%s) = %d; a numerical semigroup needs gcd 1"
            % (",".join(map(str, self.generators)), gcd)
        )


class NotClosed(NumericalSemigroupError):
    """The complement of the proposed gap set is not closed under addition."""

    def __init__(self, i, j):
        self.witness = (i, j)
        super().__init__(
            "%d and %d are members but %d + %d is a gap" % (i, j, i, j)
        )


class NotMinimalGenerator(NumericalSemigroupError):
    """Element removal is only defined for minimal generators."""

    def __init__(self, x, semigroup):
        self.element = x
        self.semigroup = semigroup
        super().__init__(
            "%d is not a minimal generator of %s" % (x, semigroup)
        )


class NoSecondKindGap(NumericalSemigroupError):
    """adjoin_h needs at least two gaps of second kind."""

    def __init__(self, semigroup):
        self.semigroup = semigroup
        super().__init__(
            "%s has l(S) <= 1, so there is no adjoinable second-kind gap"
            % (semigroup,)
        )


class NotTwoSemigroup(NumericalSemigroupError):
    """The fast pseudo-Frobenius path for l(S) = 2 got some other semigroup."""

    def __init__(self, semigroup, l_count):
        self.semigroup = semigroup
        self.l_count = l_count
        super().__init__("%s has l(S) = %d, expected 2" % (semigroup, l_count))


class NotThreeSemigroup(NumericalSemigroupError):
    """The fast pseudo-Frobenius path for l(S) = 3 got some other semigroup."""

    def __init__(self, semigroup, l_count):
        self.semigroup = semigroup
        self.l_count = l_count
        super().__init__("%s has l(S) = %d, expected 3" % (semigroup, l_count))


class NotASubset(NumericalSemigroupError):
    """relative_frobenius(B, A) requires A to be contained in B."""

    def __init__(self, sub, sup):
        self.sub = sub
        self.sup = sup
        super().__init__("%s is not contained in %s" % (sub, sup))


class NotIrreducible(NumericalSemigroupError):
    """Interval trees are rooted at irreducible semigroups (l(S) <= 1)."""

    def __init__(self, semigroup, l_count):
        self.semigroup = semigroup
        self.l_count = l_count
        super().__init__(
            "%s has l(S) = %d > 1, so it is not irreducible" % (semigroup, l_count)
        )


class BoundExceeded(NumericalSemigroupError):
    """An input would make a computation go beyond its supported size.

    Raised before any work is done: by the brute-force oracle for a
    Frobenius number above its cap, and by from_generators for a closure
    window too large to allocate.  what names the requested quantity.
    """

    def __init__(self, requested, bound, what="requested bound"):
        self.requested = requested
        self.bound = bound
        super().__init__(
            "%s %d exceeds the supported maximum %d" % (what, requested, bound)
        )


class BudgetExceeded(NumericalSemigroupError):
    """An enumeration exceeded its max_work node budget; results discarded."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__("work budget of %d expanded nodes exhausted" % (limit,))
