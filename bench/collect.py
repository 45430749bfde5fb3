"""Run the benchmark over a range of seeds and summarize each metric.

    python3 bench/collect.py --seeds 1..11 --out bench/out/runs.json
    python3 bench/collect.py --seeds 1..2 --trace 1 --out bench/out/trace.json

Runs are made one after another, each in its own interpreter, for every
workload and with the run length in BENCHMARK.json.  For every workload and
metric the summary gives the median, the quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles over the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1..11", help="half-open A..B")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi))
    seconds = spec["run_seconds"]

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds),
                                   "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, "report": lines[:-1]})
            print(f"{name} seed={seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())
                if args.trace == 0), flush=True)
        metrics = {}
        for key in runs[0]["result"]["metrics"]:
            metrics[key] = summarize([r["result"]["metrics"][key]["value"]
                                      for r in runs])
        report["workloads"][name] = {"runs": runs, "summary": metrics}
        for key, s in metrics.items():
            if args.trace == 0:
                print(f"  {name} {key}: median {s['median']:.6g} "
                      f"spread {s['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
