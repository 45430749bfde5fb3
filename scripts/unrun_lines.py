"""List the statement lines of ``src/movcat`` that the test suite never runs.

    python3 scripts/unrun_lines.py [PYTEST_ARGS...]

Runs ``pytest.main`` in this process (with ``-q`` and PYTEST_ARGS; by
default the ``testpaths`` of pyproject.toml) under a ``sys.settrace`` line
tracer, then prints, per module of ``src/movcat``, the statement lines that
no test ran, and a last line ``unrun N of M``.  The statement lines are read
before the run starts, so they are those of the sources the run traced.  A
statement line is the ``lineno`` of an ``ast.stmt``, docstrings excepted;
several statements on one line count once.  A statement counts as run when
any line of its own gets a line event: every line of a simple statement, or
the header lines of a compound one (its decorators, and every line up to
its body that no nested statement holds), since Python emits no event for
the first line of a condition that spans several lines.  Only the standard
library and pytest are used.

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


def statement_lines(path: Path) -> dict[int, set[int]]:
    """Map the first line of each statement of one module, docstrings
    excepted, to the lines of its own that may get a line event: all of
    its lines, decorators included, but those of the statements nested in
    it."""
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
    own: dict[int, set[int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        decorators = getattr(node, "decorator_list", ())
        start = min([node.lineno] + [d.lineno for d in decorators])
        lines = set(range(start, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        own.setdefault(node.lineno, set()).update(lines)
    return own


def unrun_lines(own: dict[int, set[int]], ran: set[int]) -> list[int]:
    """The first lines, in order, of the statements none of whose own
    lines (``statement_lines``) is in ``ran``."""
    return sorted(first for first, lines in own.items() if ran.isdisjoint(lines))


def traced(files, call):
    """Run ``call()`` under a line tracer of the files named in ``files``;
    return its result and the lines that got a line event, per file.  The
    tracer set before is restored."""
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(before)
    return result, ran


def unrun_report(paths, call):
    """Read the statement lines of each of ``paths``, then run ``call()``
    under the line tracer.  Return its result and, per path name, the
    statement lines and the first lines of those that did not run.  The
    sources are read before the call, so a source edited while it runs is
    still reported against the lines that the call traced."""
    own = {str(path): statement_lines(path) for path in paths}
    result, ran = traced(own, call)
    return result, {
        name: (lines, unrun_lines(lines, ran[name])) for name, lines in own.items()
    }


def main(argv: list[str]) -> int:
    paths = sorted(SRC.glob("*.py"))
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    status, report = unrun_report(paths, lambda: pytest.main(["-q", *argv]))
    unrun_total = total = 0
    for path in paths:
        own, unrun = report[str(path)]
        total += len(own)
        unrun_total += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, unrun))}")
    print(f"unrun {unrun_total} of {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
