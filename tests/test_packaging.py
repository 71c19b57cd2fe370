"""scipy and mpmath serve only the tests, as quadrature, root-finding and
interval references: no library module imports them, and they are test
extras, not dependencies.  Every name a library module imports is read in
that module, every private module-level name is read by another
definition, every import sits at module level, importing the CLI loads no
pool machinery and no mpmath, no library code walks points with
itertools.product or builds an np.ix_ mesh, and none reaches numpy.random."""

import ast
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

from conftest import make_fermat, make_watson5

ROOT = Path(__file__).resolve().parent.parent


def assert_library_never_imports(package: str) -> None:
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
            assert not any(m.split(".")[0] == package for m in names), path.name


def assert_test_extra_only(package: str) -> None:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert package not in project["dependencies"]
    assert package in project["optional-dependencies"]["test"]


def test_library_never_imports_scipy():
    assert_library_never_imports("scipy")


def test_library_never_imports_mpmath():
    assert_library_never_imports("mpmath")


def test_every_import_is_read():
    # __init__ imports to re-export, so it reads none of its names
    sources = sorted((ROOT / "src" / "cubiclab").glob("*.py"))
    for path in (p for p in sources if p.name != "__init__.py"):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported <= read, (path.name, sorted(imported - read))


def _top_level_names(stmt) -> set:
    """The module-level names one top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def test_every_private_name_has_a_caller():
    # a module-level _name is read by some other top-level definition of
    # src/ (a function reading itself does not count; neither do the
    # tests), so a private helper cannot outlive its last caller
    defined, reads = [], []
    for path in sorted((ROOT / "src" / "cubiclab").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            defined += [(name, stmt) for name in _top_level_names(stmt)
                        if name.startswith("_") and not name.endswith("__")]
            reads.append((stmt, {node.id if isinstance(node, ast.Name)
                                 else node.attr for node in ast.walk(stmt)
                                 if isinstance(node, ast.Attribute)
                                 or isinstance(node, ast.Name)
                                 and isinstance(node.ctx, ast.Load)}))
    assert defined
    unread = [name for name, owner in defined
              if not any(name in names for stmt, names in reads
                         if stmt is not owner)]
    assert not unread


def test_itertools_product_only_expands_substitutions():
    # integer boxes are walked in chunks by polynomials._walk; the one
    # itertools.product left expands the factor choices of _substitute
    importers, callers = [], set()
    for path in sorted((ROOT / "src" / "cubiclab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "itertools" not in [a.name for a in node.names], path.name
            elif (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                  and "product" in [a.name for a in node.names]):
                importers.append(path.name)
        callers |= {fn.name for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn) if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "product"}
    assert importers == ["polynomials.py"]
    assert callers == {"_substitute"}


def test_walk_is_the_only_box_enumerator():
    # residue grids mod q are walked in chunks by polynomials._walk too: no
    # library module builds a whole open mesh with np.ix_
    for path in sorted((ROOT / "src" / "cubiclab").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Attribute) and node.attr == "ix_"
                       for node in ast.walk(tree)), path.name


def test_scipy_is_a_test_extra_only():
    assert_test_extra_only("scipy")


def test_mpmath_is_a_test_extra_only():
    assert_test_extra_only("mpmath")


def test_imports_are_module_level():
    for path in sorted((ROOT / "src" / "cubiclab").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [node for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not inner, (path.name, fn.name)


def test_cli_import_starts_no_pool_machinery():
    # the singular integral's workers are plain threads: importing the CLI
    # must not pull in concurrent.futures (and logging) or multiprocessing,
    # whose import time every command would pay, nor mpmath
    code = ("import sys, cubiclab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in "
            "('concurrent', 'multiprocessing', 'mpmath')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_run_loads_no_argument_parser():
    # cli.parse_args reads the command line: argparse, and the gettext and
    # locale it loads on first use, cost about 3 ms of every command
    code = ("import sys, cubiclab.cli; "
            "cubiclab.cli.main(['exponents', '--theorem', 'h14']); "
            "print(sorted(m for m in sys.modules "
            "if m in ('argparse', 'gettext', 'locale')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_lattice_kernels_do_not_load_majorarcs():
    # majorarcs imports counting and invariants, which share the variable
    # blocks with it through polynomials: loaded without the package's
    # __init__, which imports every module, neither pulls majorarcs in
    for module in ("counting", "invariants"):
        code = ("import sys, types; pkg = types.ModuleType('cubiclab'); "
                f"pkg.__path__ = [{str(ROOT / 'src' / 'cubiclab')!r}]; "
                "sys.modules['cubiclab'] = pkg; "
                f"import cubiclab.{module}; "
                "print('cubiclab.majorarcs' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False", module


def test_library_never_names_numpy_random():
    # the Monte-Carlo sample is computed from its indices by integer ufuncs
    # (majorarcs._sample_chunk), so no module reaches numpy.random, whose
    # first import costs a process about 10 ms
    for path in sorted((ROOT / "src" / "cubiclab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert not (node.attr == "random"
                            and isinstance(node.value, ast.Name)
                            and node.value.id in ("np", "numpy")), path.name
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("numpy.random")
                               for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                assert not node.module.startswith("numpy.random"), path.name
                assert not (node.module == "numpy" and "random" in
                            [a.name for a in node.names]), path.name


def test_integral_loads_no_numpy_random(tmp_path):
    # watson5 takes the Monte-Carlo branch, fermat Clenshaw-Curtis
    for name, poly in (("watson5", make_watson5()), ("fermat", make_fermat())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(poly.to_json_dict()))
        argv = ["integral", "--poly", str(path), "--Z", "1"]
        code = ("import sys, cubiclab.cli; "
                f"rc = cubiclab.cli.main({argv!r}); "
                "print(rc, sorted(m for m in sys.modules "
                "if m.split('.')[:2] == ['numpy', 'random']))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True,
                             text=True).stdout
        assert out.splitlines()[-1] == "0 []", name
