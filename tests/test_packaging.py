"""scipy serves only the tests, as a quadrature and root-finding reference:
no library module imports it, and it is a test extra, not a dependency."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_never_imports_scipy():
    sources = sorted((ROOT / "src" / "cubiclab").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in names), path.name


def test_scipy_is_a_test_extra_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "scipy" not in project["dependencies"]
    assert "scipy" in project["optional-dependencies"]["test"]
