"""The lines of ``src/vaisflow`` that Tier-1 never runs.

Run from a checkout as ``python tests/trace_lines.py [pytest arguments]``.
It runs the test suite (``tests/`` unless arguments are given) in this
process under ``sys.settrace`` and ``threading.settrace``, so the flow's
lane worker thread is traced as well, and records the lines run in frames
of ``src/vaisflow`` only.  It then prints every executable line of a
function body (lambdas and comprehensions included, module and class bodies
not) that never ran, grouped by function.  It exits 1 when a line is
unrun, and with pytest's status when a test fails.

A line run only in a child process (a fork or a subprocess) is not seen.
Tracing makes the suite about 1.5 times slower.
"""

from __future__ import annotations

import dis
import inspect
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vaisflow"

if __name__ == "__main__":  # run as a script: use the package of this checkout
    sys.path.insert(0, str(ROOT / "src"))


def _functions(code):
    """Every function code object nested in ``code``, itself included when it is one."""
    if code.co_flags & inspect.CO_NEWLOCALS:
        yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _functions(const)


def _key(code) -> tuple:
    return code.co_filename, code.co_firstlineno, getattr(code, "co_qualname", code.co_name)


def executable_lines(path: Path) -> dict[tuple, set[int]]:
    """The lines of each function body in the module at ``path``, by :func:`_key`."""
    module = compile(path.read_text(), str(path), "exec")
    return {
        _key(code): {line for _, line in dis.findlinestarts(code) if line}
        for code in _functions(module)
    }


def traced(run, files: set[str]) -> tuple[object, dict[tuple, set[int]]]:
    """``run()``'s result and the lines it ran in frames of ``files``, by :func:`_key`."""
    hits: dict[tuple, set[int]] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        lines = hits.setdefault(_key(code), set())
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def main(argv: list[str]) -> int:
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    files = {str(path) for path in paths}
    args = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    status, hits = traced(lambda: pytest.main(args + (argv or [str(ROOT / "tests")])), files)

    unrun = 0
    for path in paths:
        source = path.read_text().splitlines()
        for key, lines in sorted(executable_lines(path).items(), key=lambda item: item[0][1]):
            missed = sorted(lines - hits.get(key, set()))
            if not missed:
                continue
            unrun += len(missed)
            print(f"\n{path.relative_to(ROOT)}: {key[2]}")
            for line in missed:
                print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"\n{unrun} unrun lines" if unrun else "\nno unrun line")
    if status:
        return int(status)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
