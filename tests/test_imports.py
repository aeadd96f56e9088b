"""Every module imports on its own: no import cycle depends on which module comes first."""

import os
import pkgutil
import subprocess
import sys

import pytest

import mmexpr

# ``__main__`` is left out: importing it runs the command line
MODULES = sorted(f"mmexpr.{m.name}" for m in pkgutil.iter_modules(mmexpr.__path__)
                 if m.name != "__main__")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(mmexpr.__file__)))


def test_every_module_is_listed():
    assert {"mmexpr.data", "mmexpr.fileio", "mmexpr.models", "mmexpr.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", f"import {module}"],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
