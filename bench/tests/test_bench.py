"""Checks on the benchmark itself: deterministic inputs, inputs within the
size caps, identical verdicts with and without tracing, and clean removal
of the tracing wrappers.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from movcat.core import MAX_MORPHISMS, MAX_OBJECTS  # noqa: E402


def _digest(name, seed):
    wl = workloads.build(name, seed)
    try:
        return wl.digest
    finally:
        wl.close()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_digest_depends_only_on_seed(name):
    assert _digest(name, 7) == _digest(name, 7)
    assert _digest(name, 7) != _digest(name, 8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_cap_inputs_within_caps(seed):
    wl = workloads.build("check-cap", seed)
    try:
        sizes = [it.sizes for it in wl.items]
    finally:
        wl.close()
    assert max(s["objects"] for s in sizes) == MAX_OBJECTS
    assert all(s["objects"] <= MAX_OBJECTS for s in sizes)
    assert all(s["morphisms"] <= MAX_MORPHISMS for s in sizes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_cap_inputs_within_caps(seed):
    rng = workloads._rng("build-cap", seed)
    for k in range(workloads.GRIDS):
        grid, tops = workloads._grid(k, rng)
        assert grid.n_objects <= MAX_OBJECTS
        assert grid.n_mors <= MAX_MORPHISMS
        assert tops


def _small(wl, per_family):
    """The workload cut down to its first items of each family."""
    kept, seen = [], {}
    for it in wl.items:
        if seen.get(it.family, 0) < per_family:
            seen[it.family] = seen.get(it.family, 0) + 1
            kept.append(it)
    wl.items = kept
    wl.warmup = []
    return wl


@pytest.mark.parametrize(
    "name,per_family",
    [("campaign-desk", 3), ("check-cap", 2), ("build-cap", 1),
     ("domination-search", 2)],
)
def test_traced_verdicts_match_untraced(name, per_family):
    wl = _small(workloads.build(name, 3), per_family)
    if name == "check-cap":
        wl.items = [it for it in wl.items if it.family != "grid"]
    try:
        tracer = tracing.Tracer(extra_modules=[workloads])
        r = run.Run(wl, tracer)
        plain = r.passes(0.0)
        tracer.install()
        try:
            traced = r.passes(0.0, traced=True)
        finally:
            tracer.uninstall()
        assert not tracer.installed_anywhere()
        assert r.errors == []
        assert [row[0] for row in plain[0]] == [row[0] for row in traced[0]]
        assert all(row[3] for p in plain + traced for row in p)
        walls = {len(wl.items) + k: dt for k, (_, dt, *_) in enumerate(traced[0])}
        metrics, problems = run._layer_metrics(tracer, 1, walls)
        assert problems == []
        assert metrics  # something in movcat was traced
    finally:
        wl.close()


def test_wrappers_cover_every_layer_and_are_removed():
    from movcat import dsl, search

    original = search.find_weak_domination
    tracer = tracing.Tracer(extra_modules=[workloads])
    tracer.install()
    try:
        assert search.find_weak_domination is not original
        assert workloads.find_weak_domination is search.find_weak_domination
        assert hasattr(dsl.Document.category_of, "__wrapped_by_bench__")
        layers = {name.split(".")[0] for name in tracer.names}
        assert set(tracing.LAYERS) - {"cli"} <= layers
    finally:
        tracer.uninstall()
    assert search.find_weak_domination is original
    assert workloads.find_weak_domination is original
    assert not tracer.installed_anywhere()


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_order_oracle():
    import oracles

    v = oracles.closure(3, [(0, 2), (1, 2)])
    assert not oracles.poset_movable(3, v)
    assert oracles.poset_movable(4, oracles.chain_relation(4))
    wedge = oracles.closure(3, [(0, 1), (0, 2)])
    assert oracles.poset_movable(3, wedge)
    prod = oracles.product_relation(3, v, 2, oracles.chain_relation(2))
    assert not oracles.poset_movable(6, prod)
