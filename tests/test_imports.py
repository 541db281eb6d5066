"""Every module of the package imports first, in a fresh interpreter.

`diff` holds the tape that `rkhs` and `kernels` record their layers on,
so they import it; `diff.materialize` needs their parameter types and
imports them inside the function.  A top-level import that closed this
cycle would fail only for some import orders, depending on which module
a program happens to import first.  Each case here imports one module
before any other of the package: the package's `__init__` is replaced by
a bare package object, so only the module's own imports run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "hypkernels").glob("*.py")
                 if p.stem != "__init__")

FIRST_IMPORT = """
import importlib, sys, types
package = types.ModuleType("hypkernels")
package.__path__ = [sys.argv[1]]
sys.modules["hypkernels"] = package
importlib.import_module("hypkernels." + sys.argv[2])
"""


def _run(args):
    return subprocess.run([sys.executable, "-c", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    result = _run([FIRST_IMPORT, str(SRC / "hypkernels"), module])
    assert result.returncode == 0, result.stderr


def test_package_imports():
    result = _run(["import hypkernels"])
    assert result.returncode == 0, result.stderr
