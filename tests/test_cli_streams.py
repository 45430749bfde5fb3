"""In-process CLI invocations must not outlive themselves: every stream a
CliRunner invocation hands the command is garbage once the call returns."""

import gc

from click.testing import CliRunner, _NamedTextIOWrapper

from movcat.cli import main

DOC = (
    "poset C3 { elements a b c ; leq a b ; leq b c }\n"
    "poset V { elements a b c ; leq a c ; leq b c }\n"
)


def _alive() -> int:
    gc.collect()
    return sum(isinstance(o, _NamedTextIOWrapper) for o in gc.get_objects())


def test_check_invocations_leave_no_stream_alive(tmp_path):
    path = tmp_path / "doc.cat"
    path.write_text(DOC, encoding="utf-8")
    before = _alive()
    # Exit 0 (witness), 1 (document dump) and 2 (error on stderr) in turn.
    for i in range(20):
        entity = ("C3", "V", "missing")[i % 3]
        res = CliRunner().invoke(main, ["check", str(path), "--entity", entity])
        assert res.exit_code == i % 3
    assert _alive() == before
