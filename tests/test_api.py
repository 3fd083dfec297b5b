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


def test_the_command_line_does_not_load_scipy_integrate():
    # only a callable coupling density needs quadrature, and no document
    # can express one; csgraph is needed only by an underflowed block norm
    # or a ladder on a domain, and loading it costs about 1 MiB of RSS
    code = ("import sys, fracmom.cli; print([m in sys.modules for m in "
            "('scipy.integrate', 'scipy.sparse.csgraph')])")
    env = dict(os.environ, PYTHONPATH=str(Path(fracmom.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "[False, False]"
