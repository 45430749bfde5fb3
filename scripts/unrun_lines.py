"""List the statement lines of ``src/movcat`` that the test suite never runs.

    python3 scripts/unrun_lines.py [PYTEST_ARGS...]

Runs ``pytest.main`` in this process (with ``-q`` and PYTEST_ARGS; by
default the ``testpaths`` of pyproject.toml) under a ``sys.settrace`` line
tracer, then prints, per module of ``src/movcat``, the statement lines that
no test ran, and a last line ``unrun N of M``.  A statement line is the
``lineno`` of an ``ast.stmt``, docstrings excepted; several statements on
one line count once.  Only the standard library and pytest are used.

Code that runs in another process is not traced: tests that start the CLI
or the benchmark in a subprocess add nothing here, so their lines may be
listed although a test reaches them.  Tracing slows the suite several
times over.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "movcat"


def statement_lines(path: Path) -> set[int]:
    """Line numbers of the statements of one module, docstrings excepted."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.add(id(first))
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in docstrings
    }


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", *argv])
    finally:
        sys.settrace(None)
    unrun_total = total = 0
    for name, path in files.items():
        lines = statement_lines(path)
        unrun = sorted(lines - ran[name])
        total += len(lines)
        unrun_total += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, unrun))}")
    print(f"unrun {unrun_total} of {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
