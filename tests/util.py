"""Shared test fixtures: small hand-built categories, naive quantifier
oracles (independent transcriptions used to cross-check the optimized
implementations), and a backtracking table-isomorphism checker."""

from __future__ import annotations

import itertools
from typing import Optional

from movcat.builders import build_poset_category
from movcat.core import FiniteCategory, make_poset, validate_functor
from movcat.errors import ConeIncompatible, ValidationFailed
from movcat.movability import CandidateDefeat, Counterexample, MovabilityWitness
from movcat.systems import (
    SM1Witness,
    SM2Witness,
    SMCounterexample,
    StarCounterexample,
    StarWitness,
)


def chain(n: int) -> FiniteCategory:
    return build_poset_category(
        make_poset([f"a{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    )


def v_poset_category() -> FiniteCategory:
    """Two minimal elements under a common top (a < c, b < c)."""
    return build_poset_category(make_poset(["a", "b", "c"], [(0, 2), (1, 2)]))


def antichain(n: int) -> FiniteCategory:
    return build_poset_category(make_poset([f"a{i}" for i in range(n)], []))


def pointed_sets_2() -> FiniteCategory:
    """Pointed sets of size at most 2: objects P1 (point) and P2, with the
    base-point preserving maps.  hom(P2,P2) = {identity, collapse}."""
    objects = ["P1", "P2"]
    mors = [
        ("id_P1", 0, 0),
        ("id_P2", 1, 1),
        ("incl", 0, 1),
        ("crush", 1, 0),
        ("coll", 1, 1),  # collapse to the base point
    ]
    from movcat.core import validate_category

    comp = {
        (2, 3): 4,  # incl . crush = coll
        (3, 2): 0,  # crush . incl = id_P1
        (4, 4): 4,
        (3, 4): 3,
        (4, 2): 2,
        (0, 0): 0,
        (1, 1): 1,
        (2, 0): 2,
        (1, 2): 2,
        (3, 1): 3,
        (0, 3): 3,
        (4, 1): 4,
        (1, 4): 4,
    }
    return validate_category(objects, mors, [0, 1], comp)


# ---------------------------------------------------------------------------
# Naive oracles


def naive_strongly_movable(k: FiniteCategory) -> bool:
    """Direct transcription of the movability quantifiers, no shortcuts."""
    for x in range(k.n_objects):
        ps = [p for p in range(k.n_mors) if k.mor_cod[p] == x]
        exists = False
        for mobj in range(k.n_objects):
            for m in k.hom(mobj, x):
                if all(
                    any(
                        k.comp[(p, u)] == m
                        for u in k.hom(mobj, k.mor_dom[p])
                    )
                    for p in ps
                ):
                    exists = True
        if not exists:
            return False
    return True


def naive_functors(k: FiniteCategory, l: FiniteCategory) -> list:
    """Generate-and-filter functor enumeration (small inputs only)."""
    out = []
    for obj_map in itertools.product(range(l.n_objects), repeat=k.n_objects):
        candidates = [
            [
                t
                for t in range(l.n_mors)
                if l.mor_dom[t] == obj_map[k.mor_dom[m]]
                and l.mor_cod[t] == obj_map[k.mor_cod[m]]
            ]
            for m in range(k.n_mors)
        ]
        for mor_map in itertools.product(*candidates):
            try:
                out.append(validate_functor(k, l, list(obj_map), list(mor_map)))
            except ValidationFailed:
                pass
    return out


def naive_nat_trans_count(f, g) -> int:
    k, l = f.source, f.target
    count = 0
    for comps in itertools.product(
        *(
            l.hom(f.obj_map[a], g.obj_map[a])
            for a in range(k.n_objects)
        )
    ):
        ok = all(
            l.comp[(comps[k.mor_cod[m]], f.mor_map[m])]
            == l.comp[(g.mor_map[m], comps[k.mor_dom[m]])]
            for m in range(k.n_mors)
        )
        count += ok
    return count


# ---------------------------------------------------------------------------
# Reference deciders: each one transcribes its decider's quantifier statement
# over whole ref ranges (no hom index, no early exit) and returns the same
# result dataclass.  "First" always means least in the documented order, so
# witnesses, counterexamples and the insertion order of every dict must
# equal the deciders' own.


def _scan_hom(cat: FiniteCategory, a: int, b: int) -> list[int]:
    return [m for m in range(cat.n_mors) if cat.mor_dom[m] == a and cat.mor_cod[m] == b]


def _up(index, a: int) -> list[int]:
    return [b for b in range(index.n) if index.leq(a, b)]


def naive_movable_wrt(k, l, phi):
    """For all X, exists (M, m: M -> X), for all p: Y -> X, exists
    u: Phi(M) -> Phi(Y) with Phi(p) . u = Phi(m).  The witness takes the
    least (M, m) per X and the least u per p; a counterexample is the least
    failing X with the least defeating p of every (M, m)."""
    movers, mover_mors, lifts = [], [], [0] * k.n_mors
    for x in range(k.n_objects):
        ps = [p for p in range(k.n_mors) if k.mor_cod[p] == x]
        cands = [(mo, m) for mo in range(k.n_objects) for m in _scan_hom(k, mo, x)]

        def answers(mo, m):
            return {
                p: [
                    u
                    for u in _scan_hom(l, phi.obj_map[mo], phi.obj_map[k.mor_dom[p]])
                    if l.comp[(phi.mor_map[p], u)] == phi.mor_map[m]
                ]
                for p in ps
            }

        good = [c for c in cands if all(answers(*c).values())]
        if not good:
            first_defeat = {
                c: min(p for p, us in answers(*c).items() if not us) for c in cands
            }
            return Counterexample(
                x, tuple(CandidateDefeat(mo, m, p) for (mo, m), p in first_defeat.items())
            )
        mo, m = good[0]
        movers.append(mo)
        mover_mors.append(m)
        for p, us in answers(mo, m).items():
            lifts[p] = us[0]
    return MovabilityWitness(tuple(movers), tuple(mover_mors), tuple(lifts))


def _naive_sm(system, answers, witness):
    """For all a, exists a' >= a, for all a'' >= a, answers(a, a', a'') is
    nonempty; the witness keeps the least a' and the least answer."""
    idx = system.index
    alpha_prime, choices = [], {}
    for a in range(idx.n):
        ups = _up(idx, a)
        table = {a1: {a2: answers(a, a1, a2) for a2 in ups} for a1 in ups}
        good = [a1 for a1 in ups if all(table[a1].values())]
        if not good:
            return SMCounterexample(
                a, {a1: min(a2 for a2 in ups if not table[a1][a2]) for a1 in ups}
            )
        alpha_prime.append(good[0])
        for a2 in ups:
            choices[(a, a2)] = table[good[0]][a2][0]
    return witness(tuple(alpha_prime), choices)


def naive_sm1(system):
    """... exist a* >= a', a'' and r: X_a' -> X_a'' with bond(a, a') =
    bond(a, a'') . r and r . bond(a', a*) = bond(a'', a*)."""
    amb, idx, at, bond = system.ambient, system.index, system.at, system.bond

    def answers(a, a1, a2):
        return [
            (astar, r)
            for astar in range(idx.n)
            if idx.leq(a1, astar) and idx.leq(a2, astar)
            for r in _scan_hom(amb, at[a1], at[a2])
            if amb.comp[(bond[(a, a2)], r)] == bond[(a, a1)]
            and amb.comp[(r, bond[(a1, astar)])] == bond[(a2, astar)]
        ]

    return _naive_sm(system, answers, SM1Witness)


def naive_sm2(system, cone):
    """... exists r: X_a' -> X_a'' with bond(a, a'') . r = bond(a, a') and
    action(r)(element(a')) = element(a''); an incompatible cone raises."""
    amb, idx, at, bond = system.ambient, system.index, system.at, system.bond
    h, el = cone.copresheaf, cone.elements
    if any(
        h.action[bond[(a, a1)]][el[a1]] != el[a]
        for a in range(idx.n)
        for a1 in _up(idx, a)
    ):
        raise ConeIncompatible("cone incompatible")

    def answers(a, a1, a2):
        return [
            r
            for r in _scan_hom(amb, at[a1], at[a2])
            if amb.comp[(bond[(a, a2)], r)] == bond[(a, a1)]
            and h.action[r][el[a1]] == el[a2]
        ]

    return _naive_sm(system, answers, SM2Witness)


def naive_star(h):
    """For all (Q, x), exists (Q', x', eta: Q' -> Q) over x, for all
    (Q'', x'', eta': Q'' -> Q) over x, exists eta'': Q' -> Q'' with
    eta' . eta'' = eta and action(eta'')(x') = x''."""
    base = h.base
    points = [(q, x) for q in range(base.n_objects) for x in range(len(h.fibers[q]))]
    choice, connectors = {}, {}
    for q, x in points:
        over = [
            (q1, x1, eta)
            for q1, x1 in points
            for eta in _scan_hom(base, q1, q)
            if h.action[eta][x1] == x
        ]

        def answers(q1, x1, eta, q2, x2, eta2):
            return [
                e
                for e in _scan_hom(base, q1, q2)
                if base.comp[(eta2, e)] == eta and h.action[e][x1] == x2
            ]

        good = [c for c in over if all(answers(*c, *d) for d in over)]
        if not good:
            return StarCounterexample(
                (q, x), {c: next(d for d in over if not answers(*c, *d)) for c in over}
            )
        choice[(q, x)] = good[0]
        for d in over:
            connectors[(q, x, *d)] = answers(*good[0], *d)[0]
    return StarWitness(choice, connectors)


# ---------------------------------------------------------------------------
# Reference builder tables: each construction transcribed from its
# definition, with composition tables filled by scanning all morphism pairs.
# Object order, morphism order and the insertion order of ``comp`` are the
# ones the builders document, so the builders' tables must equal these.


def naive_poset_category(poset) -> FiniteCategory:
    n = poset.n
    arrows = [(i, i) for i in range(n)] + [
        (i, j) for i in range(n) for j in range(n) if i != j and poset.leq(i, j)
    ]
    ref = {a: r for r, a in enumerate(arrows)}
    names = [f"id_{poset.elements[i]}" for i in range(n)]
    names += [f"le{i}_{j}" for i, j in arrows[n:]]
    comp = {}
    for f, (a, b) in enumerate(arrows):
        for g, (b2, c) in enumerate(arrows):
            if b2 == b:
                comp[(g, f)] = ref[(a, c)]
    return FiniteCategory(
        tuple(poset.elements),
        tuple(names),
        tuple(a for a, _ in arrows),
        tuple(b for _, b in arrows),
        tuple(range(n)),
        comp,
    )


def naive_product(factors) -> tuple[FiniteCategory, list]:
    """Product category and its projections as (obj_map, mor_map) pairs."""
    objs = list(itertools.product(*(range(c.n_objects) for c in factors)))
    mors = list(itertools.product(*(range(c.n_mors) for c in factors)))
    obj_ref = {t: r for r, t in enumerate(objs)}
    mor_ref = {t: r for r, t in enumerate(mors)}
    dom = tuple(obj_ref[tuple(c.mor_dom[m] for c, m in zip(factors, t))] for t in mors)
    cod = tuple(obj_ref[tuple(c.mor_cod[m] for c, m in zip(factors, t))] for t in mors)
    identity = tuple(
        mor_ref[tuple(c.identity[o] for c, o in zip(factors, t))] for t in objs
    )
    comp = {}
    for g, gt in enumerate(mors):
        for f, ft in enumerate(mors):
            if cod[f] == dom[g]:
                comp[(g, f)] = mor_ref[
                    tuple(c.comp[(a, b)] for c, a, b in zip(factors, gt, ft))
                ]
    cat = FiniteCategory(
        tuple("o" + "_".join(map(str, t)) for t in objs),
        tuple("m" + "_".join(map(str, t)) for t in mors),
        dom,
        cod,
        identity,
        comp,
    )
    projections = [
        (tuple(t[k] for t in objs), tuple(t[k] for t in mors))
        for k in range(len(factors))
    ]
    return cat, projections


def _naive_comma(base, over, sends, obj_names, tag):
    """Morphisms are the (i, j, eta) with eta: over[i] -> over[j] and
    ``sends(eta, i, j)``, in lexicographic order.  Returns the category, the
    projection as (obj_map, mor_map) and the triples."""
    n = len(over)
    triples = [
        (i, j, eta)
        for i in range(n)
        for j in range(n)
        for eta in range(base.n_mors)
        if base.mor_dom[eta] == over[i]
        and base.mor_cod[eta] == over[j]
        and sends(eta, i, j)
    ]
    ref = {t: r for r, t in enumerate(triples)}
    comp = {}
    for r1, (i, j, e1) in enumerate(triples):
        for r2, (j2, k, e2) in enumerate(triples):
            if j2 == j:
                comp[(r2, r1)] = ref[(i, k, base.comp[(e2, e1)])]
    cat = FiniteCategory(
        tuple(obj_names),
        tuple(f"{tag}{i}_{j}_{base.mor_names[e]}" for i, j, e in triples),
        tuple(i for i, _, _ in triples),
        tuple(j for _, j, _ in triples),
        tuple(ref[(i, i, base.identity[over[i]])] for i in range(n)),
        comp,
    )
    return cat, (tuple(over), tuple(e for _, _, e in triples)), tuple(triples)


def naive_coslice(cat: FiniteCategory, x: int):
    """Coslice under x: objects f with dom(f) = x; f'' -> f' is each eta
    with eta . f'' = f'."""
    fs = [m for m in range(cat.n_mors) if cat.mor_dom[m] == x]
    return _naive_comma(
        cat,
        [cat.mor_cod[f] for f in fs],
        lambda eta, i, j: cat.comp[(eta, fs[i])] == fs[j],
        [f"o_{cat.mor_names[f]}" for f in fs],
        "t",
    )


def naive_elements(h):
    """Category of elements: objects (Q, x in H(Q)); (Q'', x'') -> (Q', x')
    is each eta: Q'' -> Q' with action(eta)(x'') = x'."""
    objects = [(q, x) for q in range(h.base.n_objects) for x in range(len(h.fibers[q]))]
    return _naive_comma(
        h.base,
        [q for q, _ in objects],
        lambda eta, i, j: h.action[eta][objects[i][1]] == objects[j][1],
        [f"x{q}_{h.fibers[q][x]}" for q, x in objects],
        "e",
    )


# ---------------------------------------------------------------------------
# Table isomorphism (backtracking with hom-size pruning)


def find_isomorphism(
    c1: FiniteCategory, c2: FiniteCategory
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Object and morphism bijections preserving dom/cod/identity/comp, or
    None.  Test-scale only."""
    if c1.n_objects != c2.n_objects or c1.n_mors != c2.n_mors:
        return None

    def extend(obj_map: dict) -> Optional[dict]:
        if len(obj_map) == c1.n_objects:
            return obj_map
        a = len(obj_map)
        used = set(obj_map.values())
        for b in range(c2.n_objects):
            if b in used:
                continue
            ok = all(
                len(c1.hom(x, a)) == len(c2.hom(obj_map[x], b))
                and len(c1.hom(a, x)) == len(c2.hom(b, obj_map[x]))
                for x in obj_map
            ) and len(c1.hom(a, a)) == len(c2.hom(b, b))
            if not ok:
                continue
            res = extend({**obj_map, a: b})
            if res is not None:
                return res
        return None

    def mor_extend(obj_map, mor_map: dict) -> Optional[dict]:
        if len(mor_map) == c1.n_mors:
            return mor_map
        m = len(mor_map)
        used = set(mor_map.values())
        for t in c2.hom(obj_map[c1.mor_dom[m]], obj_map[c1.mor_cod[m]]):
            if t in used:
                continue
            if c1.is_identity(m) != c2.is_identity(t):
                continue
            good = True
            for (g, f), h in c1.comp.items():
                if g in mor_map or g == m:
                    tg = mor_map.get(g, t)
                    if f in mor_map or f == m:
                        tf = mor_map.get(f, t)
                        if h in mor_map or h == m:
                            th = mor_map.get(h, t)
                            if c2.comp.get((tg, tf)) != th:
                                good = False
                                break
            if not good:
                continue
            res = mor_extend(obj_map, {**mor_map, m: t})
            if res is not None:
                return res
        return None

    # Try every hom-size-compatible object bijection.
    for perm in itertools.permutations(range(c2.n_objects)):
        obj_map = dict(enumerate(perm))
        if any(
            len(c1.hom(a, b)) != len(c2.hom(obj_map[a], obj_map[b]))
            for a in range(c1.n_objects)
            for b in range(c1.n_objects)
        ):
            continue
        mm = mor_extend(obj_map, {})
        if mm is not None:
            return (
                tuple(obj_map[a] for a in range(c1.n_objects)),
                tuple(mm[m] for m in range(c1.n_mors)),
            )
    return None
