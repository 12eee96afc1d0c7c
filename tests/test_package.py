"""Source-level checks on the package.

It imports nothing beyond the standard library and numpy: numpy is the one
dependency ``pyproject.toml`` declares, and any other import would be an
optional path that this suite does not run.  It reaches LAPACK's eigvalsh
and slogdet from one routine only, so no second eigenvalue path can grow,
and the flow forms its metric in one routine only, for the same reason.
The flow binds its stencils only where it builds a sweep, so a run binds
them once, and it assembles complex matrices only for the public
transverse metric and the n >= 3 spectrum, so its steps run on real parts.
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


def _references(tree: ast.AST, names, scope: str = ""):
    """(scope, name) for every one of ``names`` a module references, by enclosing function."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield scope, node.attr
        elif isinstance(node, ast.Name) and node.id in names:
            yield scope, node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.split(".")[-1] in names:
                    yield scope, alias.name
        yield from _references(node, names, inner)


def test_one_spectrum_routine():
    """LAPACK eigenvalues and log-determinants are reached only through transverse._spectrum."""
    found = []
    for path in sorted(Path(vaisflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, scope, name) for scope, name in _references(tree, _SPECTRUM_NAMES)]
    assert found == [("transverse.py", "_spectrum", "eigvalsh")]


_METRIC_NAMES = {"_spectrum", "_spectrum_2x2", "_metric_n1"}


def _scoped_references(source: str, names):
    return sorted(set(_references(ast.parse(source), names)))


def _metric_references(source: str):
    """The scoped metric references; one in a function nested in _evaluate counts as _evaluate's."""
    return sorted({
        ("_evaluate" if scope.startswith("_evaluate.") else scope, name)
        for scope, name in _references(ast.parse(source), _METRIC_NAMES)
    })


def test_one_metric_evaluation_routine():
    """In flow.py the metric is formed and its spectrum taken only inside flow._evaluate.

    The n = 1 lane body, a function nested in _evaluate, is inside it; a
    function nested anywhere else is not.
    """
    source = Path(vaisflow.flow.__file__).read_text()
    expected = [
        ("", "_spectrum"), ("", "_spectrum_2x2"),
        ("_evaluate", "_metric_n1"), ("_evaluate", "_spectrum"), ("_evaluate", "_spectrum_2x2"),
    ]
    assert _metric_references(source) == expected
    planted = source + "\n\ndef _second_metric(g):\n    return _spectrum(g, 1)\n"
    assert _metric_references(planted) == sorted(expected + [("_second_metric", "_spectrum")])
    nested = source + (
        "\n\ndef _outer(block, g):\n    def lane():\n"
        "        return _metric_n1(block, g, g)\n    return lane\n"
    )
    assert _metric_references(nested) == sorted(expected + [("_outer.lane", "_metric_n1")])


def test_stencils_bound_only_where_a_sweep_is_built():
    """In flow.py a grid._Stencil is bound only in flow._Sweep.__init__."""
    source = Path(vaisflow.flow.__file__).read_text()
    expected = [("", "_Stencil"), ("_Sweep.__init__", "_Stencil")]
    assert _scoped_references(source, {"_Stencil"}) == expected
    planted = source + "\n\ndef _rebind(a):\n    return _Stencil(2, a, 0, 0.1, a, a, a)\n"
    assert _scoped_references(planted, {"_Stencil"}) == sorted(expected + [("_rebind", "_Stencil")])


_COMPLEX_NAMES = {"_ddbar_matrices", "_assemble", "_metric_with_ddbar"}


def test_complex_ddbar_only_for_the_public_metric():
    """In flow.py complex matrices are assembled only for the public metric and n >= 3 eigvalsh.

    flow.transverse_metric assembles its parts once, through
    transverse._metric_with_ddbar; flow._evaluate assembles only for the
    n >= 3 spectrum.  transverse._ddbar_matrices is reached from no flow
    routine.
    """
    source = Path(vaisflow.flow.__file__).read_text()
    expected = [
        ("", "_assemble"), ("", "_metric_with_ddbar"),
        ("_evaluate", "_assemble"), ("transverse_metric", "_metric_with_ddbar"),
    ]
    assert _scoped_references(source, _COMPLEX_NAMES) == expected
    planted = source + "\n\ndef _stage(phi, spec):\n    return _ddbar_matrices(phi, spec)\n"
    assert _scoped_references(planted, _COMPLEX_NAMES) == sorted(
        expected + [("_stage", "_ddbar_matrices")]
    )
