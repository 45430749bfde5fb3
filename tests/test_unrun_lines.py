"""`scripts/unrun_lines.py` counts a statement as run when any line of its
own gets a line event, so a condition written over several lines is not
listed when it runs, and it reads the sources before the traced run, so an
edit made during the run does not move the report.  It exits 1 while a
statement line is unrun, and otherwise with pytest's status."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOY = '''\
def pick(x):
    if (
        x > 0
        and x < 5
    ):
        return [
            x,
        ]
    elif x == 9:
        return None
    return 0


@staticmethod
def never():
    """Not called."""
    return 1
'''


def _load():
    spec = importlib.util.spec_from_file_location(
        "unrun_lines", ROOT / "scripts" / "unrun_lines.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def test_statement_own_lines(tmp_path):
    unrun_lines = _load()
    path, _ = _toy(tmp_path)
    own = unrun_lines.statement_lines(path)
    assert own == {
        1: {1},  # the lines of the body are its statements'
        2: {2, 3, 4, 5},  # the header of the `if`, without its branches
        6: {6, 7, 8},  # a simple statement owns all its lines
        9: {9},
        10: {10},
        11: {11},
        15: {14, 15},  # decorator and `def`; the docstring is left out
        17: {17},
    }


def test_multi_line_condition_that_runs_is_not_listed(tmp_path):
    unrun_lines = _load()
    path, toy = _toy(tmp_path)
    calls, ran = unrun_lines.traced([str(path)], lambda: [toy.pick(x) for x in (1, 7)])
    assert calls == [[1], 0]
    own = unrun_lines.statement_lines(path)
    # Python 3.11 emits no event for the `if (` line, but does for the lines
    # of the condition under it.  The module body ran at import, before
    # tracing; `pick` never took its `elif` branch; `never` was not called.
    assert unrun_lines.unrun_lines(own, ran[str(path)]) == [1, 10, 15, 17]


def test_report_reads_the_sources_before_the_run(tmp_path):
    unrun_lines = _load()
    path, toy = _toy(tmp_path)
    before = unrun_lines.statement_lines(path)

    def call():
        calls = [toy.pick(x) for x in (1, 7)]
        # An edit during the run moves every statement down by three lines.
        path.write_text("import os\nimport sys\nimport re\n" + TOY)
        return calls

    calls, report = unrun_lines.unrun_report([path], call)
    assert calls == [[1], 0]
    assert unrun_lines.statement_lines(path) != before
    assert report == {str(path): (before, [1, 10, 15, 17])}


def test_exit_status_is_1_while_a_line_is_unrun(tmp_path, monkeypatch, capsys):
    unrun_lines = _load()
    src = tmp_path / "src" / "movcat"
    src.mkdir(parents=True)
    path = src / "toy.py"
    path.write_text(TOY)
    monkeypatch.setattr(unrun_lines, "ROOT", tmp_path)
    monkeypatch.setattr(unrun_lines, "SRC", src)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))

    def run(xs, status, never):
        # Stands in for the test run: loads the toy under the tracer, so
        # its module body runs, calls ``pick`` on ``xs`` and, if asked,
        # ``never``.
        def fake_main(args):
            spec = importlib.util.spec_from_file_location("toy", path)
            toy = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(toy)
            for x in xs:
                toy.pick(x)
            if never:
                toy.never()
            return status

        monkeypatch.setattr(pytest, "main", fake_main)
        return unrun_lines.main([])

    # `pick` never takes its `elif` branch, and `never` is not called.
    assert run([1, 7], 0, never=False) == 1
    assert capsys.readouterr().out == "src/movcat/toy.py: 10, 17\nunrun 2 of 8\n"
    assert run([1, 7, 9], 5, never=True) == 5
    assert capsys.readouterr().out == "unrun 0 of 8\n"
