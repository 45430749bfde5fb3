"""movcat benchmark: one command, four workloads, known-answer checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (movcat is imported from ``src/``).
It prints a human-readable report and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 9
# The calibration routine's time on the machine the baseline was recorded on
# (a shared 2-vCPU virtual machine, Python 3.11.7): the tenth percentile of
# 560 calls made alone, 20 ms apart, over 20 s.
CALIBRATION_REF_S = 0.009
CALIBRATE_EVERY_S = 0.25
# An item's speed factor is the median of the CAL_WINDOW calibrations
# before it and the CAL_WINDOW after it (fewer at the ends of a pass).
CAL_WINDOW = 2


def metric_units(kind: str) -> dict:
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json lists, in its order: the one list of what a run reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, warm up, print the input digest and one "
                    "calibration time, and exit")
    return ap.parse_args(argv)


def _import_program():
    """Import movcat from the checkout; exit 2 without a result if absent."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    try:
        import movcat
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if src not in Path(movcat.__file__).resolve().parents:
        print(f"error: movcat was imported from {movcat.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    if not workloads.POOL_PATH.is_file():
        print(f"error: missing {workloads.POOL_PATH}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


# The calibration routine's table, built once so that the routine itself
# allocates next to nothing: a routine that builds its own table runs 20-25 %
# slower right after an item that allocated and freed a lot, which would
# scale such an item down.
_CAL_TABLE = {(i & 255, i >> 8): i for i in range(30000)}


def calibrate() -> float:
    """Time a fixed piece of pure-Python work (dict lookups on tuple keys
    and a scan of the table, as in movcat's tables).  Its time tracks how
    fast the host is running this interpreter at the moment.  The cyclic
    collector is off while it runs, so its time does not depend on how many
    objects movcat keeps alive."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(30000):
            total += _CAL_TABLE[(i & 255, i >> 8)]
        for (a, b), v in _CAL_TABLE.items():
            if a < b:
                total += v
        return time.perf_counter() - t0
    finally:
        if was_on:
            gc.enable()


def speed_factor() -> float:
    """Reference time over current time of the calibration routine: the
    factor that scales a time measured now to a host at reference speed."""
    return CALIBRATION_REF_S / calibrate()


class Run:
    """Times whole passes over a workload and checks every outcome."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.verdicts: dict[int, str] = {}
        self.errors: list[str] = []
        self.exec_id = 0

    def warm_up(self) -> None:
        for i in self.wl.warmup:
            try:
                self.wl.items[i].run()
            except Exception:  # the timed pass records the failure
                pass

    def passes(self, seconds: float, traced: bool = False):
        """Run whole passes until ``seconds`` have gone by (at least one).
        Returns a list of passes, each a list of (item index, seconds,
        decided, passed its check, speed factor) rows."""
        out = []
        t_end = time.perf_counter() + seconds
        while not out or time.perf_counter() < t_end:
            # Start each pass from a collected heap, so that when the cyclic
            # collector runs depends on the pass, not on what came before.
            gc.collect()
            out.append(self._one_pass(traced))
        return out

    def _one_pass(self, traced: bool):
        """One pass over the items.  The calibration routine runs between
        items at least every CALIBRATE_EVERY_S; each item gets the median
        of the factors measured nearest to it (see CAL_WINDOW)."""
        rows = []
        cals = [speed_factor()]
        last_cal = time.perf_counter()
        tr = self.tracer if traced else None
        root = None
        if tr is not None:
            root = tr.fid("cli.main" if self.wl.name == "check-cap" else "bench.item")
        for i, item in enumerate(self.wl.items):
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                cals.append(speed_factor())
                last_cal = time.perf_counter()
            t0 = time.perf_counter()
            if tr is not None:
                tr.current_item = self.exec_id
                tr.on = True
                span = tr.open(root)
            try:
                out = item.run()
                err = None
            except Exception as exc:  # a crash fails the item, not the run
                out, err = None, f"{type(exc).__name__}: {exc}"
            if tr is not None:
                tr.close(span)
                tr.on = False
            dt = time.perf_counter() - t0
            self.exec_id += 1
            if err is None:
                try:
                    err = self._check(i, item, out)
                except Exception as exc:  # a checker crash fails the item
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                self.errors.append(f"{item.family}/{item.label}: {err}")
            rows.append((i, dt, out is not None and out.decided, err is None,
                         len(cals) - 1))
        cals.append(speed_factor())
        # The last field held the index of the calibration before the item.
        return [r[:4] + (statistics.median(
                    cals[max(0, r[4] - CAL_WINDOW + 1): r[4] + CAL_WINDOW + 1]),)
                for r in rows]

    def _check(self, i, item, out):
        seen = self.verdicts.get(i)
        if seen is None:
            self.verdicts[i] = out.verdict
            return item.verify(out)
        if seen != out.verdict:
            return f"verdict changed between passes: {seen} -> {out.verdict}"
        return None


def nearest_rank(xs, q: float) -> float:
    """The sample at rank ceil(q * n): always one measured value, and for a
    pass-structured run it picks the same item whatever the pass count."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def _tail(samples, q: float):
    """The q quantile when at least ten samples lie beyond it; otherwise
    the highest quantile that has ten beyond it.  Returns (value, q)."""
    n = len(samples)
    if n * (1 - q) < 10:
        q = max(0.5, (n - 10) / n) if n > 10 else 1.0
    return nearest_rank(samples, q), q


def _flatten(passes):
    return [row for p in passes for row in p]


def _pass_seconds(p) -> float:
    """Raw wall time of the items in a pass."""
    return sum(r[1] for r in p)


class Timing:
    """A run's item times, each item reduced to the median of its runs.

    A shared host runs this interpreter at 1x to 2x its full-speed time, in
    stretches of seconds to minutes.  With ``scaled`` (the default) each
    time is multiplied by the speed factor measured around it, which gives
    times at reference speed; otherwise raw wall times are used.
    """

    def __init__(self, wl, passes, scaled: bool = True):
        by_item = {}
        for i, dt, _, _, factor in _flatten(passes):
            by_item.setdefault(i, []).append(dt * factor if scaled else dt)
        self.wl = wl
        self.samples = [dt for v in by_item.values() for dt in v]
        # An item's typical time: the median of all its timings.
        self.typical = {i: statistics.median(v) for i, v in sorted(by_item.items())}
        self.items_per_s = len(self.typical) / sum(self.typical.values())

    def latency_ms(self, tail_q: float):
        """(median, tail, tail quantile) of the item times, in ms."""
        ms = [t * 1000 for t in self.samples]
        tail, q = _tail(ms, tail_q)
        return nearest_rank(ms, 0.5), tail, q

    def family_seconds(self) -> dict:
        """Summed typical item time of each family: its share of a pass."""
        out = {}
        for i, t in self.typical.items():
            fam = self.wl.items[i].family
            out[fam] = out.get(fam, 0.0) + t
        return out


def _probe_setup(args) -> list:
    """Set-up time of fresh interpreters, from spawn to the digest line
    printed after input generation and warm-up: (time at reference speed,
    raw time, digest) for each probe.  The probe runs the calibration
    routine once right after its set-up, in its own process, and that
    calibration scales its time: a calibration in this process, around the
    probe, tracks the probe's speed poorly (factors spread over 0.7-1.8)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().split()
            dt = time.perf_counter() - t0
            cal = proc.stdout.read().split()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line[:1] != ["digest"] or cal[:1] != ["calibration"]:
            raise SystemExit(f"set-up probe failed (exit {code})")
        out.append((dt * CALIBRATION_REF_S / float(cal[1]), dt, line[1]))
    return out


def _input_report(wl) -> list:
    lines = [f"workload {wl.name} seed={wl.seed} items/pass={len(wl.items)} "
             f"digest={wl.digest}"]
    sized = [it.sizes for it in wl.items if it.sizes]
    for key in ("objects", "morphisms", "pairs", "bytes"):
        vals = [s[key] for s in sized]
        lines.append(f"  input {key}: {min(vals)}..{max(vals)}")
    fams = {}
    for it in wl.items:
        fams[it.family] = fams.get(it.family, 0) + 1
    lines.append("  families: " + ", ".join(f"{k}={v}" for k, v in fams.items()))
    return lines


def _exercised(wl, verdicts, law) -> float:
    vals = [v for i, v in verdicts.items() if wl.items[i].family == law]
    if not vals:
        return 0.0
    return sum("exercised" in v for v in vals) / len(vals)


def _layer_metrics(tracer, n_passes, item_walls) -> tuple[dict, list]:
    """Per-pass self time and calls of each wrapped function and layer,
    plus integrity problems found in the spans."""
    selfs, durs = tracer.self_times()
    fn_self, fn_calls, layer_self, fn_incl = {}, {}, {}, {}
    item_self = {}
    problems = []
    for idx in range(len(selfs)):
        name = tracer.names[tracer.fn[idx]]
        s = selfs[idx]
        if s < -1e-9:
            problems.append(f"negative self time in {name}")
        fn_self[name] = fn_self.get(name, 0.0) + s
        fn_calls[name] = fn_calls.get(name, 0) + 1
        fn_incl[name] = fn_incl.get(name, 0.0) + durs[idx]
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
        it = tracer.item[idx]
        item_self[it] = item_self.get(it, 0.0) + s
    for it, s in item_self.items():
        if s > item_walls[it] + 1e-9:
            problems.append(f"item {it}: self times {s:.6f}s exceed wall "
                            f"{item_walls[it]:.6f}s")
    m = {}
    for name in fn_self:
        m[f"{name}.s"] = fn_self[name] / n_passes
        m[f"{name}.calls"] = fn_calls[name] / n_passes
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s / n_passes
    for fn, key in (("dsl.parse_document", "dsl.parse_bytes_per_s"),
                    ("dsl.serialize_document", "dsl.serialize_bytes_per_s")):
        m[key] = tracer.bytes.get(fn, 0) / fn_incl[fn] if fn_incl.get(fn) else 0.0
    m["search.truncated.count"] = tracer.truncated / n_passes
    return m, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe:
        wl = workloads.build(args.workload, args.seed)
        try:
            Run(wl).warm_up()
            print(f"digest {wl.digest}", flush=True)
            print(f"calibration {calibrate()!r}", flush=True)
        finally:
            wl.close()
        return 0

    probes = _probe_setup(args)
    wl = workloads.build(args.workload, args.seed)
    try:
        return _measure(args, workloads, wl, probes)
    finally:
        wl.close()


def _measure(args, workloads, wl, probes) -> int:
    problems = []
    if any(d != wl.digest for *_, d in probes):
        problems.append("set-up probes generated different inputs")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(extra_modules=[workloads])
    run = Run(wl, tracer)
    run.warm_up()

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run.passes(budget)
    timing = Timing(wl, plain)
    items_per_s = timing.items_per_s
    if not workloads.caps_ok(wl.items):
        problems.append("an input exceeds MAX_OBJECTS/MAX_MORPHISMS")

    traced = []
    if tracer is not None:
        first_exec = run.exec_id
        tracer.install()
        try:
            traced = run.passes(budget, traced=True)
        finally:
            tracer.uninstall()
        if tracer.installed_anywhere():
            problems.append("tracing wrappers left installed")

    all_rows = _flatten(plain) + _flatten(traced)
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if not r[3])
    decided = sum(1 for r in all_rows if r[2])
    problems += run.errors[:20]

    for line in _input_report(wl):
        print(line)
    setup_samples = [dt for dt, _, _ in probes]
    p50, tail, q = timing.latency_ms(wl.tail_q)
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": items_per_s,
        "item_p50_ms": p50,
        "item_tail_ms": tail,
        "decided_ratio": decided / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"  passes={len(plain)}; item times n={len(timing.samples)}, "
          f"item_tail_ms is p{q * 100:.1f}; setup samples "
          + " ".join(f"{s:.3f}" for s in setup_samples))
    factors = [r[4] for r in _flatten(plain)]
    print("  raw pass seconds: " + " ".join(f"{_pass_seconds(p):.3f}" for p in plain)
          + f"; speed factors {min(factors):.3f}..{max(factors):.3f}")
    raw = Timing(wl, plain, scaled=False)
    raw_p50, raw_tail, _ = raw.latency_ms(q)
    raw_setup = statistics.median(raw for _, raw, _ in probes)
    print(f"  raw wall time: setup_s {raw_setup:.6g} s, items_per_s "
          f"{raw.items_per_s:.6g} 1/s, item_p50_ms {raw_p50:.6g} ms, "
          f"item_tail_ms {raw_tail:.6g} ms")
    print(f"  fail_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for fam, secs in timing.family_seconds().items():
        print(f"  family {fam}: {secs:.4f} s per pass")
    if len(wl.items) <= 50:
        for i, t in timing.typical.items():
            it = wl.items[i]
            print(f"  item {i:02d} {it.family}/{it.label}: {t * 1000:.3f} ms")
    laws = timing.family_seconds() if wl.name == "campaign-desk" else {}
    units = metric_units("end_to_end")
    print("  end-to-end metrics, times at reference speed:")
    for name, unit in units.items():
        print(f"  {name} {e2e[name]:.6g} {unit}")
    for law in workloads.THEOREMS:
        value = f"{laws[law]:.6g} s" if laws else "n/a (campaign-desk only)"
        print(f"  law_s.{law} {value}")

    if args.trace:
        metrics = _per_layer(workloads, wl, run, tracer, traced, items_per_s,
                             laws, first_exec, problems)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in units.items()}

    for p in problems:
        print(f"  PROBLEM {p}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _per_layer(workloads, wl, run, tracer, traced, items_per_s, laws,
               first_exec, problems) -> dict:
    walls = {first_exec + k: dt for k, (_, dt, *_) in enumerate(_flatten(traced))}
    layer, span_problems = _layer_metrics(tracer, len(traced), walls)
    problems += span_problems[:20]
    layer["trace.overhead_ratio"] = items_per_s / Timing(wl, traced).items_per_s
    for law in ("transfer", "star-bridge"):
        layer[f"campaign.{law}.exercised_ratio"] = _exercised(wl, run.verdicts, law)
    for law in workloads.THEOREMS:
        layer[f"law_s.{law}"] = laws.get(law, 0.0)
    # Functions and layers this workload does not reach read 0; a name
    # that is neither computed nor traced at all is an error in the list.
    import tracing

    known = set(layer) | {f"{layer_}.self_s" for layer_ in tracing.LAYERS} | {
        f"{fn}.{suffix}" for fn in tracer.names for suffix in ("s", "calls")}
    names = metric_units("per_layer")
    problems += [f"per-layer metric {n} is not produced by the traced run"
                 for n in names if n not in known]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{wl.name}.bin"
    tracer.write(spans)
    print(f"  traced passes={len(traced)} spans={len(tracer.fn)} -> "
          f"{spans.relative_to(ROOT)}")
    for name, unit in names.items():
        print(f"  {name} {layer.get(name, 0.0):.6g} {unit}")
    return {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()}


if __name__ == "__main__":
    sys.exit(main())
