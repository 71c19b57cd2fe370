"""scipy and mpmath serve only the tests, as quadrature, root-finding and
interval references: no library module imports them, and they are test
extras, not dependencies.  Every name a library module imports is read in
that module, every top-level definition is reached from a command, a
benchmark call or an acceptance criterion, every public method is read,
every defaulted parameter is passed by some call, no module reads the
environment, every import sits at module level, importing the CLI loads
no pool machinery and no mpmath, no library code walks points with
itertools.product or builds an np.ix_ mesh, and none reaches
numpy.random."""

import ast
import json
import os
import subprocess
import sys
import tomllib
from functools import cache
from pathlib import Path

from conftest import make_fermat, make_watson5

ROOT = Path(__file__).resolve().parent.parent


@cache
def _parsed(path: Path) -> ast.Module:
    """The syntax tree of a source file, parsed once for every gate."""
    return ast.parse(path.read_text())


def _library() -> list:
    """(path, syntax tree) of every module of src/cubiclab."""
    paths = sorted((ROOT / "src" / "cubiclab").glob("*.py"))
    assert paths
    return [(path, _parsed(path)) for path in paths]


def _callers() -> list:
    """The syntax trees whose calls count: src/, bench/*.py and the
    acceptance criteria."""
    return [tree for _, tree in _library()] + [
        _parsed(path) for path in [*sorted((ROOT / "bench").glob("*.py")),
                                   ROOT / "tests" / "test_acceptance.py"]]


def assert_library_never_imports(package: str) -> None:
    for path, tree in _library():
        for node in ast.walk(tree):
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
    for path, tree in _library():
        if path.name == "__init__.py":
            continue
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


# top-level definitions that no command and no benchmark call reaches, each
# with the acceptance criterion (tests/test_acceptance.py) that reads it
ACCEPTANCE_ONLY = {
    "small_subspace_solution_bound": 3,
    "gauss_sum": 6,
    "shrinking_check": 9,
    "bootstrap_check": 9,
    "symmetrize": 10,
    "hensel_lift": 11,
}


def _api_ops() -> list:
    """The "api" ops of the benchmark's workloads as {key: value node}."""
    tree = _parsed(ROOT / "bench" / "workloads.py")
    ops = [{key.value: value for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant)}
           for node in ast.walk(tree) if isinstance(node, ast.Dict)]
    ops = [op for op in ops if "api" in op]
    assert ops
    return ops


def _graph_roots() -> list:
    """cli.main, and every library function a benchmark op calls."""
    return ["main", *(op["api"].value for op in _api_ops())]


def _reach(defs: dict, roots, reached: set) -> set:
    """reached, grown by every definition the roots reach: a top-level
    definition reaches every definition whose name it reads, by name or as
    an attribute, in any module, so one that only reads itself reaches
    nothing new."""
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [node.id if isinstance(node, ast.Name) else node.attr
                 for stmt in defs.get(name, ()) for node in ast.walk(stmt)
                 if isinstance(node, ast.Attribute)
                 or isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)]
    return reached


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _unreached_definitions() -> list:
    """The top-level definitions of src/, exported or private, that
    neither cli.main and the benchmark's calls reach nor an ACCEPTANCE_ONLY
    name that those do not reach; no test is a caller."""
    defs = {}
    for _, tree in _library():
        for stmt in tree.body:
            for name in _top_level_names(stmt):
                defs.setdefault(name, []).append(stmt)
    assert "main" in defs
    assert any(map(_private, defs))
    reached = _reach(defs, _graph_roots(), set())
    listed = set(ACCEPTANCE_ONLY)
    assert listed <= set(defs) - reached, sorted(listed & reached)
    return sorted(set(defs) - _reach(defs, listed, reached))


def test_every_export_is_reached():
    # every public top-level definition of src/ is reached from cli.main
    # or the benchmark's calls, or else from an ACCEPTANCE_ONLY name that
    # those do not reach and that its criterion imports and reads
    unreached = [name for name in _unreached_definitions()
                 if not _private(name)]
    assert not unreached, f"unreached: {unreached}"
    tree = _parsed(ROOT / "tests" / "test_acceptance.py")
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "cubiclab"
                for alias in node.names}
    criteria = {int(fn.name.split("_")[2]): fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("test_criterion_")}
    for name, k in ACCEPTANCE_ONLY.items():
        assert name in imported, name
        assert any(isinstance(node, ast.Name) and node.id == name
                   for node in ast.walk(criteria[k])), (name, k)


def test_every_private_name_has_a_caller():
    # a module-level _name is reached by the same walk, so a private
    # helper cannot outlive its last caller in src/, and one read only by
    # an unreached definition (or by itself) is unreached too
    unreached = [name for name in _unreached_definitions() if _private(name)]
    assert not unreached, f"unreached: {unreached}"


# public methods and properties that nothing reads by attribute name, each
# with what they are kept for
UNREAD_METHODS = {
    ("CubicPolynomial", "to_json_dict"): "writes the polynomial file format "
                                         "that README documents and --poly "
                                         "reads",
}


def test_every_method_is_read():
    # every public method and property of a class in src/ is read as an
    # attribute (x.name) somewhere in src/, bench/ or the acceptance
    # criteria, or is listed in UNREAD_METHODS.  The scan goes by name
    # alone, so a method that shares its name with another attribute read
    # is not caught: CubicPolynomial.q passed it beside the CLI's args.q
    read = {node.attr for tree in _callers() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = [(cls.name, fn.name)
              for _, tree in _library() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_") and fn.name not in read]
    assert sorted(unread) == sorted(UNREAD_METHODS), f"unread: {unread}"


def _defaulted(fn, method: bool) -> dict:
    """{name: position in a call} of fn's parameters with a default, None
    for a keyword-only one; a method's positions skip self or cls."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    skip = int(method and not any(getattr(d, "id", None) == "staticmethod"
                                  for d in fn.decorator_list))
    first = len(positional) - len(args.defaults)
    return ({a.arg: i - skip for i, a in enumerate(positional) if i >= first}
            | {a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None})


def _unset_defaults() -> list:
    """function.parameter for every defaulted parameter of a function or
    method of src/, outside the ACCEPTANCE_ONLY definitions, that no call
    in src/, bench/*.py or the acceptance criteria passes, by position or
    by keyword, where a call is matched to a definition by name alone.  A
    benchmark "api" op passes its "kwargs" keys; a call with *args passes
    every position from there on, one with **kwargs every parameter."""
    defaults = []
    for _, tree in _library():
        for stmt in tree.body:
            if _top_level_names(stmt) & set(ACCEPTANCE_ONLY):
                continue
            methods = ({id(fn) for fn in stmt.body}
                       if isinstance(stmt, ast.ClassDef) else set())
            defaults += [(fn.name, name, at) for fn in ast.walk(stmt)
                         if isinstance(fn, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                         for name, at in _defaulted(fn, id(fn)
                                                    in methods).items()]
    # function name -> the keywords passed, and the positions passed: i,
    # or ("*", i) for a *args that passes i and every position after it
    passed = {}
    for tree in _callers():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            got = passed.setdefault(name, set())
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    got.add(("*", i))
                    break
                got.add(i)
            got |= {kw.arg or "**" for kw in call.keywords}
    for op in _api_ops():
        passed.setdefault(op["api"].value, set()).update(
            key.value for key in getattr(op.get("kwargs"), "keys", ()))

    def is_set(got: set, name: str, at) -> bool:
        return name in got or "**" in got or at is not None and (
            at in got or any(isinstance(g, tuple) and at >= g[1]
                             for g in got))

    return sorted(f"{fn}.{name}" for fn, name, at in defaults
                  if not is_set(passed.get(fn, set()), name, at))


def test_every_default_is_set():
    # a parameter with a default that no call sets is a constant in
    # disguise: every defaulted parameter is passed by some call in src/,
    # bench/ or the acceptance criteria (the ACCEPTANCE_ONLY definitions
    # are exempt, their criteria being their callers)
    unset = _unset_defaults()
    assert not unset, f"never set: {unset}"


def test_library_reads_no_environment():
    # a result depends on the command line and the input files alone: no
    # module reads os.environ or os.getenv, so two equal command lines
    # give equal payloads
    readers = sorted({path.name for path, tree in _library()
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("environ", "getenv")
                      or isinstance(node, ast.ImportFrom)
                      and node.module == "os" and {"environ", "getenv"}
                      & {alias.name for alias in node.names}})
    assert not readers, f"reads the environment: {readers}"


def test_itertools_product_only_expands_substitutions():
    # integer boxes are walked in chunks by polynomials._walk; the one
    # itertools.product left expands the factor choices of _substitute
    importers, callers = [], set()
    for path, tree in _library():
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
    for path, tree in _library():
        assert not any(isinstance(node, ast.Attribute) and node.attr == "ix_"
                       for node in ast.walk(tree)), path.name


def test_scipy_is_a_test_extra_only():
    assert_test_extra_only("scipy")


def test_mpmath_is_a_test_extra_only():
    assert_test_extra_only("mpmath")


def test_imports_are_module_level():
    for path, tree in _library():
        for fn in ast.walk(tree):
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
    # majorarcs imports counting, and counting and invariants share the
    # variable blocks with it through polynomials: loaded without the
    # package's __init__, which imports every module, neither pulls
    # majorarcs in
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
    for path, tree in _library():
        for node in ast.walk(tree):
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
