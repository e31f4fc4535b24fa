"""Computation budgets and shared engine failure signals.

Every potentially long-running search (Buchberger loops, module reductions)
charges reduction steps against a Budget.  Hitting the limit raises
BudgetExceeded instead of returning a wrong or partial basis, so callers can
distinguish "too expensive" from every mathematical answer.
"""

DEFAULT_REDUCTION_BUDGET = 10 ** 6


class BudgetExceeded(RuntimeError):
    """A search hit its step budget before finishing."""

    def __init__(self, message="reduction budget exceeded", used=None):
        super().__init__(message)
        self.used = used


class Unresolved(RuntimeError):
    """A stabilization chain ran out of levels before two terms agreed."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalInvariantError(RuntimeError):
    """Two independently computed answers disagree; the engine is wrong."""


class Budget:
    """Mutable step counter shared by every reduction in one computation."""

    __slots__ = ("limit", "used")

    def __init__(self, limit=DEFAULT_REDUCTION_BUDGET):
        self.limit = int(limit)
        self.used = 0

    def charge(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(used=self.used)

    @staticmethod
    def ensure(budget):
        return budget if budget is not None else Budget()
