"""Small shared plumbing: an ordered map and a work budget counter."""

from .errors import BudgetExceeded


def map_ordered(fn, items, threads=1):
    """[fn(item) for item in items], in input order.

    threads is accepted for compatibility and selects nothing: every
    call runs sequentially, since a thread pool only slowed the
    pure-Python work down under the GIL.
    """
    return [fn(it) for it in items]


class WorkBudget:
    """Counter of expanded tree nodes.

    charge() raises BudgetExceeded once the configured limit is passed.
    The total amount of work for a given request is fixed by the request,
    so whether a run exceeds its budget depends on nothing else.
    """

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def charge(self, amount=1):
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(self.limit)
