"""`scripts/bench_pairs.py` keeps every existing record and applies the
claim rule to what it records."""

import importlib.util
import json
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


def _pairs(parent, change):
    return [
        {"parent": {"item_p50_ms": p}, "change": {"item_p50_ms": c}}
        for p, c in zip(parent, change)
    ]


@pytest.mark.parametrize(
    "better, parent, change, met",
    [
        # 10/10 wins; the medians are 2.55 apart, the parent's q3 - q1 is 0.45.
        ("lower", [3.0, 3.1, 2.9, 3.5, 3.0, 2.8, 3.2, 2.7, 3.3, 3.4],
         [0.5] * 10, True),
        # 9 wins and one tie still meet the rule.
        ("lower", [3.0] * 10, [2.0] * 9 + [3.0], True),
        # 8 wins and two ties do not: a tie counts for neither side.
        ("lower", [3.0] * 10, [2.0] * 8 + [3.0] * 2, False),
        # 9 wins and one loss.
        ("higher", [100.0] * 10, [120.0] * 9 + [90.0], True),
        # 10/10 wins inside the parent's spread.
        ("higher", [90.0, 110.0] * 5, [111.0, 112.0] * 5, False),
        # A gap the other way is never a gain.
        ("higher", [3.0] * 10, [2.0] * 10, False),
    ],
)
def test_claim_rule_on_synthetic_pairs(better, parent, change, met):
    s = _load()._summary(
        _pairs(parent, change), {"item_p50_ms": better}, {"item_p50_ms": 0.25}
    )
    assert s["item_p50_ms"]["claim_rule_met"] is met


@pytest.mark.parametrize(
    "better, parent, change, within",
    [
        # Parent median 4.0; a bound of 0.25 allows the change up to 5.0.
        ("lower", [4.0, 3.0, 5.0] * 3 + [4.0], [5.0] * 10, True),
        ("lower", [4.0, 3.0, 5.0] * 3 + [4.0], [5.0] * 9 + [6.0], True),
        ("lower", [4.0, 3.0, 5.0] * 3 + [4.0], [5.5] * 10, False),
        # Parent median 100.0; the change may fall to 75.0.
        ("higher", [100.0] * 10, [75.0] * 10, True),
        ("higher", [100.0] * 10, [74.0] * 10, False),
        # A gain is always within the bound, whether or not it is claimed.
        ("lower", [4.0] * 10, [3.9] * 10, True),
        ("higher", [100.0] * 10, [101.0] * 5 + [99.0] * 5, True),
    ],
)
def test_bound_on_synthetic_pairs(better, parent, change, within):
    s = _load()._summary(
        _pairs(parent, change), {"item_p50_ms": better}, {"item_p50_ms": 0.25}
    )
    assert s["item_p50_ms"]["within_bound"] is within


def test_unknown_workload_is_refused(monkeypatch, capsys):
    bench_pairs = _load()

    def refuse(*args, **kwargs):
        raise AssertionError("ran before checking the workload")

    for name in ("_git", "_unpack", "_run"):
        monkeypatch.setattr(bench_pairs, name, refuse)
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(
            ["--parent", "HEAD", "--workload", "domination-serch", "--name",
             "no-such-record"]
        )
    assert e.value.code == 2
    assert "invalid choice: 'domination-serch'" in capsys.readouterr().err
    assert not (ROOT / "BENCH_no-such-record.json").exists()


def test_record_carries_claim_rule_and_bytecode_setting(
    tmp_path, monkeypatch, capsys
):
    bench_pairs = _load()
    spec = (ROOT / "BENCHMARK.json").read_text()
    names = [m["name"] for m in json.loads(spec)["end_to_end"]]
    (tmp_path / "BENCHMARK.json").write_text(spec)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "_unpack", lambda commit, into: None)
    runs = iter(range(100))

    def run(where, command):
        # 1.0 on the first run of each pair, 2.0 on the second: the change
        # wins two pairs of four on every metric.
        metrics = {n: 1.0 + next(runs) % 2 for n in names}
        return {**metrics, "attempted": 5, "failed": 0}

    monkeypatch.setattr(bench_pairs, "_run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.main(
        ["--parent", "HEAD", "--workload", "check-cap", "--pairs", "4",
         "--name", "t"]
    ) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["PYTHONDONTWRITEBYTECODE"] == "1"
    assert {s["claim_rule_met"] for s in record["summary"].values()} == {False}
    # Both sides' medians are 1.5, inside every bound.
    assert {s["within_bound"] for s in record["summary"].values()} == {True}
    assert "claim rule not met, within bound" in capsys.readouterr().out
