"""Source-level checks on the package.

It imports nothing beyond the standard library and numpy: numpy is the one
dependency ``pyproject.toml`` declares, and any other import would be an
optional path that this suite does not run.  It reaches LAPACK's eigvalsh
and slogdet from one routine only, so no second eigenvalue path can grow,
and the flow forms its metric in one routine only, for the same reason:
the public metric and its positivity check serve only the initial state.
The flow binds its stencils only where it builds a sweep, so a run binds
them once, and it assembles complex matrices only for the public
transverse metric and the n >= 3 spectrum, so its steps run on real parts.
Every ddbar, the flow's and the public one, is one bound program, and the
flow takes no whole-grid stencil but the public leaf defect's.
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


_METRIC_NAMES = {"_spectrum", "_spectrum_2x2"}


def _scoped_references(source: str, names):
    return sorted(set(_references(ast.parse(source), names)))


def test_one_metric_evaluation_routine():
    """In flow.py the metric is formed and its spectrum taken only in flow._block_metric.

    flow._evaluate runs it on every block and, to locate a breach, on the
    whole grid; a function nested anywhere else counts as its own.
    """
    source = Path(vaisflow.flow.__file__).read_text()
    expected = [
        ("", "_spectrum"), ("", "_spectrum_2x2"),
        ("_block_metric", "_spectrum"), ("_block_metric", "_spectrum_2x2"),
    ]
    assert _scoped_references(source, _METRIC_NAMES) == expected
    planted = source + "\n\ndef _second_metric(g):\n    return _spectrum(g, 1)\n"
    assert _scoped_references(planted, _METRIC_NAMES) == sorted(
        expected + [("_second_metric", "_spectrum")]
    )
    nested = source + (
        "\n\ndef _outer(block, g):\n    def lane():\n"
        "        return _spectrum_2x2(g, g, g, g)\n    return lane\n"
    )
    assert _scoped_references(nested, _METRIC_NAMES) == sorted(
        expected + [("_outer.lane", "_spectrum_2x2")]
    )


_PUBLIC_METRIC_NAMES = {"checked_positive", "transverse_metric"}


def test_public_metric_only_for_the_initial_state():
    """In flow.py checked_positive and transverse_metric are referenced only in initial_state.

    Every floor breach a step or a run meets is then raised by
    flow._evaluate, not by a second metric formed through a public name.
    """
    source = Path(vaisflow.flow.__file__).read_text()
    expected = [("initial_state", "checked_positive"), ("initial_state", "transverse_metric")]
    assert _scoped_references(source, _PUBLIC_METRIC_NAMES) == expected
    planted = source + (
        "\n\ndef _dt(state, floor):\n"
        "    return transverse_metric(state).checked_positive(floor)\n"
    )
    assert _scoped_references(planted, _PUBLIC_METRIC_NAMES) == sorted(
        expected + [("_dt", "checked_positive"), ("_dt", "transverse_metric")]
    )


def test_stencils_bound_only_where_a_sweep_is_built():
    """In flow.py a grid._Stencil is bound only in flow._Sweep.__init__."""
    source = Path(vaisflow.flow.__file__).read_text()
    expected = [("", "_Stencil"), ("_Sweep.__init__", "_Stencil")]
    assert _scoped_references(source, {"_Stencil"}) == expected
    planted = source + "\n\ndef _rebind(a):\n    return _Stencil(2, a, 0, 0.1, a, a, a)\n"
    assert _scoped_references(planted, {"_Stencil"}) == sorted(expected + [("_rebind", "_Stencil")])


def _outer_references(source: str, names):
    """The references by outermost enclosing function: a nested function counts as its own."""
    found = _references(ast.parse(source), names)
    return sorted({(scope.split(".")[0], name) for scope, name in found})


def test_one_ddbar_program():
    """In transverse.py a grid._Stencil is bound only in transverse._ddbar_program.

    Public ddbar and ricci, the metric from a potential and every block of
    the flow's sweep then run the same operations in the same order.
    """
    source = Path(vaisflow.transverse.__file__).read_text()
    expected = [("", "_Stencil"), ("_ddbar_program", "_Stencil")]
    assert _outer_references(source, {"_Stencil"}) == expected
    planted = source + "\n\ndef _second_ddbar(a):\n    return _Stencil(1, a, 1, 0.1, a, a)\n"
    assert _outer_references(planted, {"_Stencil"}) == sorted(
        expected + [("_second_ddbar", "_Stencil")]
    )


def test_flow_takes_whole_grid_differences_only_for_the_leaf_defect():
    """In flow.py diff1 and diff2 are referenced only in the public leafwise_defect.

    Every other derivative the flow takes is a stencil of its sweep, bound
    once per run.
    """
    source = Path(vaisflow.flow.__file__).read_text()
    names = {"diff1", "diff2"}
    expected = [("", "diff1"), ("leafwise_defect", "diff1")]
    assert _outer_references(source, names) == expected
    planted = source + "\n\ndef _leaf_terms(phi, h):\n    return diff2(phi, -1, h)\n"
    assert _outer_references(planted, names) == sorted(expected + [("_leaf_terms", "diff2")])


_COMPLEX_NAMES = {"_ddbar_matrices", "_assemble", "_metric_with_ddbar"}


def test_complex_ddbar_only_for_the_public_metric():
    """In flow.py complex matrices are assembled only for the public metric and n >= 3 eigvalsh.

    flow.transverse_metric assembles its parts once: the parts a
    diagnostics pass kept, or those of transverse._metric_with_ddbar;
    flow._block_metric assembles only for the n >= 3 spectrum.
    transverse._ddbar_matrices is reached from no flow routine.
    """
    source = Path(vaisflow.flow.__file__).read_text()
    expected = [
        ("", "_assemble"), ("", "_metric_with_ddbar"),
        ("_block_metric", "_assemble"),
        ("transverse_metric", "_assemble"), ("transverse_metric", "_metric_with_ddbar"),
    ]
    assert _scoped_references(source, _COMPLEX_NAMES) == expected
    planted = source + "\n\ndef _stage(phi, spec):\n    return _ddbar_matrices(phi, spec)\n"
    assert _scoped_references(planted, _COMPLEX_NAMES) == sorted(
        expected + [("_stage", "_ddbar_matrices")]
    )


def _exports(init_source: str) -> set[str]:
    """The names a package ``__init__`` imports from its modules."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init_source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used(sources) -> set[str]:
    """The names called (``f(...)`` or ``m.f(...)``) or subclassed in any of ``sources``."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            targets = [node.func] if isinstance(node, ast.Call) else []
            if isinstance(node, ast.ClassDef):
                targets = node.bases
            for target in targets:
                if isinstance(target, ast.Name):
                    used.add(target.id)
                elif isinstance(target, ast.Attribute):
                    used.add(target.attr)
    return used


def test_every_export_is_called():
    """Every name vaisflow/__init__.py exports is called somewhere in src/ or tests/.

    A class whose only use is as a base, such as the exceptions' common
    ``VaisflowError``, counts as used.  An export that nothing calls is a
    second copy of something, or dead.
    """
    init = Path(vaisflow.__file__)
    paths = sorted(init.parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    sources = [path.read_text() for path in paths]
    exports = _exports(init.read_text())
    assert "build_chart" in exports and "VaisflowError" in exports
    assert sorted(exports - _used(sources)) == []
    planted = init.read_text() + "\nfrom .vaisman import _unused_export\n"
    assert sorted(_exports(planted) - _used(sources)) == ["_unused_export"]
