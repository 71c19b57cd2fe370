"""The enumeration budget: the default applies unless a call passes an
explicit budget, which then wins."""

import pytest

from cubiclab.budget import BudgetExceeded, DEFAULT_BUDGET
from cubiclab.local import rho_star


def test_default_budget_is_used(fermat):
    rho_star(fermat, 7, 1)  # 343 points, far below the default
    with pytest.raises(BudgetExceeded, match=f"needs {11**9} points, "
                                             f"budget is {DEFAULT_BUDGET}"):
        rho_star(fermat, 11, 3)  # 11^9 points, past it


def test_explicit_budget_wins(fermat):
    assert rho_star(fermat, 7, 1, budget=343) == 54
    with pytest.raises(BudgetExceeded, match="budget is 342"):
        rho_star(fermat, 7, 1, budget=342)
