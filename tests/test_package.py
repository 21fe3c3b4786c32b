import ast
import pkgutil
from pathlib import Path

import stokestab


def test_every_module_but_the_cli_serves_the_package():
    # cli is the console-script entry point named in pyproject.toml; any
    # other module that no package module imports serves only the tests,
    # and belongs under tests/.  The package imports its modules relatively.
    root = Path(stokestab.__path__[0])
    modules = {m.name for m in pkgutil.iter_modules(stokestab.__path__)}
    imported = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
                imported.update(set(names) - {path.stem})
    assert modules - imported - {"cli"} == set()
