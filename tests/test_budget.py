"""The enumeration budget: CUBIC_LAB_BUDGET overrides the default, an
explicit budget overrides both, and a malformed value is an operational
error."""

import json

import pytest

from cubiclab.budget import BudgetExceeded, DEFAULT_BUDGET
from cubiclab.cli import main
from cubiclab.local import rho_star
from conftest import make_fermat


def test_environment_value_is_used(monkeypatch, fermat):
    rho_star(fermat, 7, 1)  # 343 points, far below the default
    monkeypatch.setenv("CUBIC_LAB_BUDGET", "342")
    with pytest.raises(BudgetExceeded, match="budget is 342"):
        rho_star(fermat, 7, 1)


def test_explicit_budget_wins(monkeypatch, fermat):
    monkeypatch.setenv("CUBIC_LAB_BUDGET", "342")
    assert rho_star(fermat, 7, 1, budget=343) == 54
    monkeypatch.setenv("CUBIC_LAB_BUDGET", str(DEFAULT_BUDGET))
    with pytest.raises(BudgetExceeded, match="budget is 342"):
        rho_star(fermat, 7, 1, budget=342)


def test_non_integer_is_operational(monkeypatch, capsys, tmp_path, fermat):
    monkeypatch.setenv("CUBIC_LAB_BUDGET", "6e6")
    with pytest.raises(ValueError, match="CUBIC_LAB_BUDGET"):
        rho_star(fermat, 7, 1)
    path = tmp_path / "fermat.json"
    path.write_text(json.dumps(make_fermat().to_json_dict()))
    code = main(["densities", "--poly", str(path), "--p", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and not out
    assert "CUBIC_LAB_BUDGET is not an integer: '6e6'" in err
