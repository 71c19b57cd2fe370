"""Enumeration budget handling.

Every brute-force loop in the package is guarded by a point-count budget so
that a typo in parameters fails fast instead of hanging.  Individual calls
may pass an explicit budget; the default is DEFAULT_BUDGET.
"""

DEFAULT_BUDGET = 6_000_000


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured point budget."""


def enumeration_budget(explicit: int | None = None) -> int:
    return DEFAULT_BUDGET if explicit is None else explicit


def check_budget(points: int, budget: int | None = None, what: str = "enumeration"):
    cap = enumeration_budget(budget)
    if points > cap:
        raise BudgetExceeded(f"{what} needs {points} points, budget is {cap}")
