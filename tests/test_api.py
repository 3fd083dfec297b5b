"""The package's public names: `fracmom.__all__`, and what loading it costs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fracmom


def test_all_is_sorted_unique_and_resolves():
    names = fracmom.__all__
    assert names == sorted(set(names))
    # a name deleted from its module must leave __all__ as well
    assert [n for n in names if not hasattr(fracmom, n)] == []
    namespace = {}
    exec("from fracmom import *", namespace)
    assert set(names) <= set(namespace)


def test_no_module_imports_another_modules_private_name():
    # a name another module needs is public in the module that owns it
    found = []
    for path in sorted(Path(fracmom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}"
                          f"{node.module or ''} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def test_the_command_line_folds_no_samples():
    # every statistic a record carries comes from the library, so cli.py
    # calls no mean or std of its own
    cli = Path(fracmom.__file__).parent / "cli.py"
    found = [f"cli.py:{node.lineno}: .{node.func.attr}("
             for node in ast.walk(ast.parse(cli.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("mean", "std")]
    assert found == []


def _names_read(path):
    """Names a file reads (as a name or an attribute), outside the def or
    class statement that binds each one."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def test_every_public_name_has_a_caller():
    # a public name is read by another part of the library, by an
    # acceptance criterion or by a demo; one that only its own tests call
    # is not part of what the laboratory computes
    package = Path(fracmom.__file__).parent
    root = package.parents[1]
    files = ([p for p in package.glob("*.py") if p.name != "__init__.py"]
             + [root / "tests" / "test_acceptance.py"]
             + sorted((root / "demos").glob("*.py")))
    read = set().union(*map(_names_read, files))
    assert [n for n in fracmom.__all__ if n not in read] == []


def test_the_command_line_does_not_load_scipy_integrate():
    # no module imports scipy.integrate, which would load scipy.optimize
    # and add about 12 MiB to every process; csgraph is needed only by an
    # underflowed block norm or a ladder on a domain, and loading it costs
    # about 1 MiB of RSS
    code = ("import sys, fracmom.cli; print([m in sys.modules for m in "
            "('scipy.integrate', 'scipy.sparse.csgraph')])")
    env = dict(os.environ, PYTHONPATH=str(Path(fracmom.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "[False, False]"
