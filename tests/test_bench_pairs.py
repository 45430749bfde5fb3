"""`scripts/bench_pairs.py` keeps every existing record."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_existing_record_is_not_overwritten(monkeypatch, capsys):
    bench_pairs = _load()
    record = ROOT / "BENCH_read.json"
    before = record.read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("ran before checking for the record")

    for name in ("_git", "_unpack", "_run"):
        monkeypatch.setattr(bench_pairs, name, refuse)
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(
            ["--parent", "HEAD", "--workload", "check-cap", "--name", "read"]
        )
    assert e.value.code == 2
    assert "BENCH_read.json exists" in capsys.readouterr().err
    assert record.read_bytes() == before
