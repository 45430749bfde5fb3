"""Build bench/data/domination_pool.json: the (K, L) pairs the
domination-search workload draws from, with answers computed by brute force.

Run from the repository root (it needs the test oracles in tests/util.py):

    PYTHONPATH=src python3 bench/make_pool.py

Every expected answer comes from ``tests/util.naive_functors`` (generate and
filter) plus ``naive_nat_trans_count``, never from movcat's searches.  The
search itself is timed only to sort each pair into a cost class, so that each
seed draws the same number of pairs from each class.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import oracles  # noqa: E402
from movcat.core import compose_functors, identity_functor  # noqa: E402
from movcat.search import find_weak_domination  # noqa: E402
from util import naive_functors, naive_nat_trans_count  # noqa: E402

from workloads import category_from_spec  # noqa: E402


def poset_spec(n, rel):
    return {"kind": "poset", "n": n, "rel": sorted(map(list, rel))}


def named():
    chain = lambda n: poset_spec(n, oracles.chain_relation(n))  # noqa: E731
    anti = lambda n: poset_spec(n, oracles.closure(n, []))  # noqa: E731
    v = poset_spec(3, oracles.closure(3, [(0, 2), (1, 2)]))
    ps2 = {"kind": "pointed_sets_2"}
    return [
        ("chain3<~chain6", chain(3), chain(6)),
        ("chain2<~chain5", chain(2), chain(5)),
        ("chain4<~chain6", chain(4), chain(6)),
        ("V<~chain6", v, chain(6)),
        ("V<~chain5", v, chain(5)),
        ("anti6<~chain3", anti(6), chain(3)),
        ("anti5<~chain3", anti(5), chain(3)),
        ("anti4<~chain4", anti(4), chain(4)),
        ("anti3<~chain4", anti(3), chain(4)),
        ("pointed_sets_2<~chain3", ps2, chain(3)),
        ("chain3<~pointed_sets_2", chain(3), ps2),
        ("chain2<~pointed_sets_2", chain(2), ps2),
        ("pointed_sets_2<~anti2", ps2, anti(2)),
        ("V<~pointed_sets_2", v, ps2),
        ("anti2<~V", anti(2), v),
    ]


def random_pairs(count):
    rng = random.Random("movcat-bench:domination-pool")
    out = []
    for i in range(count):
        nk = rng.randint(3, 5)
        nl = rng.randint(4, 7)
        k = poset_spec(nk, oracles.random_dag_poset(rng, nk, rng.uniform(0.2, 0.6)))
        l = poset_spec(nl, oracles.random_dag_poset(rng, nl, rng.uniform(0.2, 0.6)))
        out.append((f"rand{i}", k, l))
    return out


# Pairs whose search emits more candidates than this take seconds to minutes
# and are left out of the pool.
SKIP_BUDGET = 200_000


def cost_class(expected: bool, secs: float) -> str:
    """Positives that exit within 20 ms are "pos"; slower positives are kept
    out of the mix ("pos-slow"), since a long search that then finds a
    triple makes the median jump between seeds.  Negatives are "neg-fast",
    "light" (up to 0.2 s) or "heavy"."""
    if expected:
        return "pos" if secs < 0.02 else "pos-slow"
    if secs < 0.02:
        return "neg-fast"
    return "light" if secs <= 0.2 else "heavy"


def brute_force(k, l) -> bool:
    """True when some (F, G) admits a natural transformation G.F => 1_K."""
    one_k = identity_functor(k)
    fs = naive_functors(k, l)
    gs = naive_functors(l, k)
    seen = {}
    for f in fs:
        for g in gs:
            gf = compose_functors(g, f)
            key = (gf.obj_map, gf.mor_map)
            if key not in seen:
                seen[key] = naive_nat_trans_count(gf, one_k) > 0
            if seen[key]:
                return True
    return False


def _timed(call):
    t0 = time.perf_counter()
    res = call()
    return time.perf_counter() - t0, res


def main() -> None:
    pool = []
    for name, ks, ls in named() + random_pairs(40):
        k, l = category_from_spec(ks), category_from_spec(ls)
        secs, res = _timed(lambda: find_weak_domination(k, l, budget=SKIP_BUDGET))
        if not res.truncated and secs < 2.0:
            secs = min(secs, *(_timed(lambda: find_weak_domination(k, l))[0]
                               for _ in range(2)))
        if res.truncated or secs > 1.5:
            print(f"skip {name}: {secs:.3f}s", file=sys.stderr)
            continue
        expected = brute_force(k, l)
        if expected != (res.found is not None):
            raise SystemExit(f"{name}: search disagrees with brute force")
        cls = cost_class(expected, secs)
        print(f"{name}: {cls} {secs:.4f}s", file=sys.stderr)
        pool.append({"name": name, "k": ks, "l": ls, "expected": expected,
                     "class": cls, "seconds": round(secs, 4)})
    out = ROOT / "bench" / "data" / "domination_pool.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
