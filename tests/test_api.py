"""The package's public names: `fracmom.__all__`, and what loading it costs."""

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


def test_the_command_line_does_not_load_scipy_integrate():
    # only a callable coupling density needs quadrature, and no document
    # can express one
    code = ("import sys, fracmom.cli; "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(fracmom.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"
