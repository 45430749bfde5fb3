"""`scripts/unrun_lines.py` counts a statement as run when any line of its
own gets a line event, so a condition written over several lines is not
listed when it runs."""

import importlib.util
from pathlib import Path

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
