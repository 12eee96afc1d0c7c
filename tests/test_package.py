"""The package imports nothing beyond the standard library and numpy.

numpy is the one dependency ``pyproject.toml`` declares; any other import
would be an optional path that this suite does not run.
"""

import ast
import sys
from pathlib import Path

import vaisflow

_ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_imports_only_stdlib_and_numpy():
    sources = sorted(Path(vaisflow.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in _ALLOWED]
    assert foreign == []
