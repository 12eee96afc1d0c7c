"""Source-level checks on the package.

It imports nothing beyond the standard library and numpy: numpy is the one
dependency ``pyproject.toml`` declares, and any other import would be an
optional path that this suite does not run.  It reaches LAPACK's eigvalsh
and slogdet from one routine only, so no second eigenvalue path can grow.
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


_SPECTRUM_NAMES = {"eigvalsh", "slogdet"}


def _spectrum_references(tree: ast.AST, scope: str = ""):
    """(scope, name) for every eigvalsh or slogdet a module references, by enclosing function."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr in _SPECTRUM_NAMES:
            yield scope, node.attr
        elif isinstance(node, ast.Name) and node.id in _SPECTRUM_NAMES:
            yield scope, node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.split(".")[-1] in _SPECTRUM_NAMES:
                    yield scope, alias.name
        yield from _spectrum_references(node, inner)


def test_one_spectrum_routine():
    """LAPACK eigenvalues and log-determinants are reached only through transverse._spectrum."""
    found = []
    for path in sorted(Path(vaisflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, scope, name) for scope, name in _spectrum_references(tree)]
    assert found == [("transverse.py", "_spectrum", "eigvalsh")]
