import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import stokestab


def test_every_module_but_the_cli_serves_the_package():
    # cli is the console-script entry point named in pyproject.toml, and
    # __main__ that of `python -m stokestab`; any other module that no
    # package module imports serves only the tests, and belongs under
    # tests/.  The package imports its modules relatively.
    root = Path(stokestab.__path__[0])
    modules = {m.name for m in pkgutil.iter_modules(stokestab.__path__)}
    imported = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
                imported.update(set(names) - {path.stem})
    assert modules - imported - {"cli", "__main__"} == set()


def _modules_after_import(fragment):
    code = ("import sys, stokestab; "
            f"print(sorted(m for m in sys.modules if {fragment!r} in m))")
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              sys.path)}).stdout.strip()


def test_import_loads_no_sparse_graph_module():
    # scipy.sparse.csgraph serves only the 3D split pass, which imports it
    # when it runs; loading it with the package would cost every process
    # its import time and memory
    assert _modules_after_import("csgraph") == "[]"


def test_import_loads_no_special_function_module():
    # the Gauss rules come from numpy, so scipy.special and what it loads
    # are left out of every process
    assert _modules_after_import("scipy.special") == "[]"
