"""Known answers for the benchmark, written independently of movcat.

Nothing here calls a movcat decider.  Posets are plain relations, the
movability oracle for posets is order theory, and domination triples and
movability witnesses are re-checked directly on the composition tables.
"""

from __future__ import annotations

import random


# ---------------------------------------------------------------------------
# Posets as relations


def closure(n: int, pairs) -> frozenset:
    """Reflexive-transitive closure over range(n) of ``pairs``, each with
    i < j (so one sweep from the top closes it)."""
    up = [{i} for i in range(n)]
    for i, j in pairs:
        if not i < j:
            raise ValueError(f"pair ({i}, {j}) is not increasing")
        up[i].add(j)
    for i in reversed(range(n)):
        for j in list(up[i]):
            if j != i:
                up[i] |= up[j]
    return frozenset((i, j) for i in range(n) for j in up[i])


def random_dag_poset(rng: random.Random, n: int, density: float) -> frozenset:
    """Closure of random edges i -> j (i < j), each kept with ``density``."""
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return closure(n, pairs)


def random_forest_poset(rng: random.Random, n: int) -> frozenset:
    """Each element gets at most one lower cover, so every principal
    down-set is a chain and has a minimum."""
    pairs = []
    for i in range(1, n):
        parent = rng.randint(-1, i - 1)
        if parent >= 0:
            pairs.append((parent, i))
    return closure(n, pairs)


def chain_relation(n: int) -> frozenset:
    return frozenset((i, j) for i in range(n) for j in range(i, n))


def product_relation(n1: int, r1: frozenset, n2: int, r2: frozenset) -> frozenset:
    """Componentwise order on pairs, with (a, b) encoded as a * n2 + b."""
    return frozenset(
        (a * n2 + b, c * n2 + d) for (a, c) in r1 for (b, d) in r2
    )


def up_set_sizes(n: int, rel: frozenset) -> list:
    sizes = [0] * n
    for a, _b in rel:
        sizes[a] += 1
    return sizes


def downset_minima(n: int, rel: frozenset) -> list:
    """For each x, the minimum of its principal down-set, or None.

    A poset's thin category is strongly movable iff no entry is None: the
    mover of x must lie below every y <= x.
    """
    below = [[] for _ in range(n)]
    for i, j in rel:
        below[j].append(i)
    out = []
    for x in range(n):
        down = below[x]
        out.append(
            next((m for m in down if all((m, d) in rel for d in down)), None)
        )
    return out


def poset_movable(n: int, rel: frozenset) -> bool:
    return None not in downset_minima(n, rel)


# ---------------------------------------------------------------------------
# Checks on composition tables (duck-typed on movcat's FiniteCategory fields)


def composable_pairs(cat) -> int:
    return len(cat.comp)


def lifts_for(cat, movers, mover_mors):
    """Lifts u with p . u = m_cod(p) for every p, found by direct search,
    or None when some p has no lift.  Used to re-check a claimed mover
    table that the CLI printed without its lifts."""
    lifts = []
    for p in range(cat.n_mors):
        x = cat.mor_cod[p]
        want = mover_mors[x]
        u = next(
            (u for u in cat.hom(movers[x], cat.mor_dom[p]) if cat.comp[(p, u)] == want),
            None,
        )
        if u is None:
            return None
        lifts.append(u)
    return lifts


def is_functor(src, tgt, obj_map, mor_map) -> bool:
    if len(obj_map) != src.n_objects or len(mor_map) != src.n_mors:
        return False
    if not all(0 <= o < tgt.n_objects for o in obj_map):
        return False
    for m in range(src.n_mors):
        t = mor_map[m]
        if not 0 <= t < tgt.n_mors:
            return False
        if tgt.mor_dom[t] != obj_map[src.mor_dom[m]]:
            return False
        if tgt.mor_cod[t] != obj_map[src.mor_cod[m]]:
            return False
    for a in range(src.n_objects):
        if mor_map[src.identity[a]] != tgt.identity[obj_map[a]]:
            return False
    return all(
        tgt.comp[(mor_map[g], mor_map[f])] == mor_map[h]
        for (g, f), h in src.comp.items()
    )


def weak_domination_holds(k, l, f, g, phi) -> bool:
    """F: K -> L and G: L -> K are functors and phi: G.F => 1_K is natural,
    all checked on the tables."""
    if not is_functor(k, l, f.obj_map, f.mor_map):
        return False
    if not is_functor(l, k, g.obj_map, g.mor_map):
        return False
    comps = phi.components
    if len(comps) != k.n_objects:
        return False
    gf_obj = [g.obj_map[f.obj_map[a]] for a in range(k.n_objects)]
    for a, c in enumerate(comps):
        if not 0 <= c < k.n_mors:
            return False
        if k.mor_dom[c] != gf_obj[a] or k.mor_cod[c] != a:
            return False
    for m in range(k.n_mors):
        gfm = g.mor_map[f.mor_map[m]]
        a, b = k.mor_dom[m], k.mor_cod[m]
        if k.comp[(m, comps[a])] != k.comp[(comps[b], gfm)]:
            return False
    return True
