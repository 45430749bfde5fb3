"""Run one benchmark workload in alternating parent/change pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload domination-search \\
        --pairs 10 --first-seed 1 --name domination

The parent is the given commit and the change is HEAD.  Each is unpacked
with ``git archive`` into a temporary directory, so both sides run their own
committed files and uncommitted edits are never measured.  Each pair runs
the command of BENCHMARK.json with ``--workload W --seed N --seconds S
--trace 0`` once per side, S being BENCHMARK.json's ``run_seconds``, with
the same seed; even pairs run the parent first, odd pairs the change.  Runs
go one at a time.  The result goes to ``BENCH_<name>.json``: every run's
end-to-end metrics with its ``attempted`` and ``failed`` operation counts,
the environment's ``PYTHONDONTWRITEBYTECODE`` (when it is set, neither side
caches compiled modules, so every run's ``setup_s`` includes compiling
movcat), and per metric each side's ``bench/collect.py`` summary, the number
of pairs the change won (ties count for neither side),
``claim_rule_met``: whether the change won at least nine pairs in ten and
its median beats the parent's by more than the parent's q3 - q1, the rule a
claimed gain must meet, and ``within_bound``: whether the change's median
is no worse than the parent's by more than the metric's BENCHMARK.json
``bound``, taken as a fraction of the parent's median.  A run with failed
operations is recorded, not dropped, and makes the script exit 1 once the
record is written; a run that is incorrect for any other reason stops it.
An existing record is never overwritten: when ``BENCH_<name>.json`` exists
the script exits 2 before it runs anything, as it does for a ``--workload``
that BENCHMARK.json does not list.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from collect import summarize  # noqa: E402


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _unpack(commit: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def _run(where: Path, command: list[str]) -> dict:
    """One benchmark run; its last output line is the result object.
    Returns the run's metrics and its operation counts in one dict."""
    proc = subprocess.run(command, cwd=where, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{command} in {where} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] and not result["failed"]:
        sys.exit(f"{command} in {where} reported incorrect outcomes")
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run.update(attempted=result["attempted"], failed=result["failed"])
    return run


def _summary(
    pairs: list[dict], better: dict[str, str], bounds: dict[str, float]
) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        s = out[name] = {
            "better": direction,
            "parent": summarize(parent),
            "change": summarize(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
        gap = sign * (s["change"]["median"] - s["parent"]["median"])
        s["claim_rule_met"] = (
            10 * s["change_wins"] >= 9 * len(pairs)
            and gap > s["parent"]["q3"] - s["parent"]["q1"]
        )
        s["within_bound"] = -gap <= bounds[name] * abs(s["parent"]["median"])
    return out


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare HEAD with")
    ap.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    ap.add_argument("--pairs", type=_positive_int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = ap.parse_args(argv)
    out = ROOT / f"BENCH_{args.name}.json"
    if out.exists():
        ap.error(f"{out.name} exists; choose a new --name")

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args_of = ["--workload", args.workload, "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
    commits = {"parent": _git("rev-parse", args.parent),
               "change": _git("rev-parse", "HEAD")}
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            _unpack(commit, sides[side])
        for i in range(args.pairs):
            seed = args.first_seed + i
            command = spec["command"] + args_of + ["--seed", str(seed)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = pair[side] = _run(sides[side], command)
                print(f"pair {i} seed {seed} {side}: "
                      f"items_per_s {run['items_per_s']:.2f}, "
                      f"failed {run['failed']}/{run['attempted']}", flush=True)
            pairs.append(pair)

    report = {
        "workload": args.workload,
        "command": spec["command"] + args_of + ["--seed", "N"],
        **commits,
        "python": sys.version.split()[0],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pairs": pairs,
        "summary": _summary(pairs, better, bounds),
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, s in report["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
              f"{s['change']['q3']:.4g}], change wins {s['change_wins']}/{s['pairs']}, "
              f"claim rule {'met' if s['claim_rule_met'] else 'not met'}, "
              f"{'within' if s['within_bound'] else 'outside'} bound")
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in commits}
    for side in commits:
        attempted = sum(p[side]["attempted"] for p in pairs)
        print(f"{side}: failed {failed[side]}/{attempted} operations")
    print(f"wrote {out}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
