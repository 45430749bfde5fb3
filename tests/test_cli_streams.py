"""The CLI's streams: every stream an in-process CliRunner invocation hands
the command is garbage once the call returns, and a reader that closes the
pipe after the first line does not change the exit code."""

import gc
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner, _NamedTextIOWrapper

from movcat.cli import main
from movcat.dsl import serialize_document
from movcat.generators import generate_instance

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


def test_check_exit_code_survives_reader_closing_the_pipe(tmp_path):
    # `movcat check big.cat --entity K | head -1`: written line by line,
    # the report met a closed pipe and click turned the pass into exit 1.
    elements = " ".join(f"e{i}" for i in range(64))
    leq = "".join(f" leq e{i // 2} e{i} ;" for i in range(1, 64))
    path = tmp_path / "big.cat"
    path.write_text(f"poset K {{ elements {elements} ;{leq} }}\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for _ in range(3):
        proc = subprocess.Popen(
            [sys.executable, "-m", "movcat.cli", "check", path, "--entity", "K"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        assert proc.stdout.readline() == b"K: strong-movable (witness found)\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0


def test_system_check_exit_code_survives_reader_closing_the_pipe(tmp_path):
    # `movcat system check sys2.cat --entity S | head -1` on a system whose
    # four checks pass: written line by line, a later line could meet the
    # closed pipe and turn the pass into exit 1.
    path = tmp_path / "sys2.cat"
    path.write_text(serialize_document(generate_instance("system", 2)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for _ in range(5):
        proc = subprocess.Popen(
            [sys.executable, "-m", "movcat.cli", "system", "check", path,
             "--entity", "S"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        assert proc.stdout.readline() == b"sm1: pass\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
