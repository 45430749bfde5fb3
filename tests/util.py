"""Shared test fixtures: small hand-built categories, naive quantifier
oracles (independent transcriptions used to cross-check the optimized
implementations), and a backtracking table-isomorphism checker."""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from movcat import campaign
from movcat.builders import build_monoid_category, build_poset_category
from movcat.core import (
    FiniteCategory,
    compose_functors,
    identity_functor,
    make_poset,
    validate_category,
    validate_functor,
    validate_nat_trans,
)
from movcat.errors import ConeIncompatible, ValidationFailed
from movcat.movability import CandidateDefeat, Counterexample, MovabilityWitness
from movcat.systems import (
    InverseSystem,
    SM1Witness,
    SM2Witness,
    SMCounterexample,
    StarCounterexample,
    StarWitness,
    validate_system,
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


def diamond():
    """The poset bot < a, b < top and its thin category."""
    poset = make_poset(
        ["bot", "a", "b", "top"], [(0, 1), (0, 2), (1, 3), (2, 3)]
    )
    return build_poset_category(poset), poset


def cyclic(n: int) -> FiniteCategory:
    """Z/n as a one-object category whose identity is the last ref: ref r
    is the rotation by r + 1, so two non-identities can compose to the
    identity."""
    return build_monoid_category(
        [f"r{(r + 1) % n}" for r in range(n)],
        n - 1,
        [[(a + b + 1) % n for b in range(n)] for a in range(n)],
    )


def iso_pair() -> FiniteCategory:
    """Two objects and an isomorphism f: a -> b with inverse g, listed
    before the identities."""
    mors = [("f", 0, 1), ("id_a", 0, 0), ("g", 1, 0), ("id_b", 1, 1)]
    comp = {(2, 0): 1, (0, 2): 3, (1, 1): 1, (3, 3): 3,
            (0, 1): 0, (3, 0): 0, (2, 3): 2, (1, 2): 2}
    return validate_category(["a", "b"], mors, [1, 3], comp)


def permuted(
    cat: FiniteCategory, obj_perm: list[int], mor_perm: list[int]
) -> FiniteCategory:
    """The isomorphic copy of ``cat`` whose object x has ref obj_perm[x]
    and whose morphism m has ref mor_perm[m], validated afresh."""
    names = [""] * cat.n_objects
    for x, y in enumerate(obj_perm):
        names[y] = cat.object_names[x]
    mors: list = [None] * cat.n_mors
    for m, t in enumerate(mor_perm):
        mors[t] = (
            cat.mor_names[m], obj_perm[cat.mor_dom[m]], obj_perm[cat.mor_cod[m]]
        )
    identity = [0] * cat.n_objects
    for x, m in enumerate(cat.identity):
        identity[obj_perm[x]] = mor_perm[m]
    comp = {(mor_perm[g], mor_perm[f]): mor_perm[h] for (g, f), h in cat.comp.items()}
    return validate_category(names, mors, identity, comp)


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


@functools.lru_cache(maxsize=None)
def finset_retract(n: int, m: int) -> FiniteCategory:
    """Every function between X = {0..n-1} and Y = {0..m-1}, 0 < m < n, with
    objects X, Y.  Each injection s: Y -> X is a split mono (Y is not empty)
    that is not epi (it misses a point of X, and X has two maps to itself
    that agree on the image of s)."""
    sizes = (n, m)
    mors = [
        (d, c, f)
        for d in range(2)
        for c in range(2)
        for f in itertools.product(range(sizes[c]), repeat=sizes[d])
    ]
    ref = {t: r for r, t in enumerate(mors)}
    comp = {
        (g, f): ref[(d, c2, tuple(fg[y] for y in ff))]
        for g, (d2, c2, fg) in enumerate(mors)
        for f, (d, c, ff) in enumerate(mors)
        if c == d2
    }
    return validate_category(
        ["X", "Y"],
        [(f"{'XY'[d]}{'XY'[c]}_{''.join(map(str, f))}", d, c) for d, c, f in mors],
        [ref[(o, o, tuple(range(sizes[o])))] for o in range(2)],
        comp,
    )


def random_retract_system(rng) -> InverseSystem:
    """A system over a ``finset_retract`` ambient.  The index is 6 or 7
    subsets of {0, 1, 2} under inclusion, so it often holds a diamond
    a < a', a'' < a*.  Each index a gets t_a: Y -> X_a and u_a: X_a -> Y
    with u_a . t_a = 1_Y, and bond(a, a') = t_a . u_a' for a < a'
    (functorial as u . t = 1).  Maximal indices sit at Y, so the bonds into
    them are split monos and SM1 often holds; the others sit at X.  In a
    diamond, SM1's r: X -> X at a* need only satisfy r . t_a' = t_a'' and
    u_a'' . r = u_a', so it is seldom unique; the campaign generators never
    build such a system."""
    amb = finset_retract(*rng.choice([(2, 1), (3, 1), (3, 2)]))
    sets = rng.sample(range(8), rng.randint(6, 7))
    pairs = [
        (i, j)
        for i, si in enumerate(sets)
        for j, sj in enumerate(sets)
        if i != j and si & sj == si
    ]
    index = make_poset([f"i{i}" for i in range(len(sets))], pairs)
    at = [int(len(index.up_set(a)) == 1) for a in range(index.n)]
    splits = [
        rng.choice([
            (t, u)
            for t in amb.hom(1, o)
            for u in amb.hom(o, 1)
            if amb.comp[(u, t)] == amb.identity[1]
        ])
        for o in at
    ]
    bond = {
        (a, a2): amb.comp[(splits[a][0], splits[a2][1])]
        for a, a2 in index.strict_pairs()
    }
    return validate_system(amb, index, at, bond)


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


def slot_row(f) -> tuple:
    """A functor as the functor search walks it: the object map, then the
    images of the source's non-identity morphisms in ref order."""
    identities = set(f.source.identity)
    return f.obj_map + tuple(
        t for m, t in enumerate(f.mor_map) if m not in identities
    )


def naive_nat_trans(f, g) -> list:
    """Natural component tuples F => G, generate-and-filter, in
    lexicographic order."""
    k, l = f.source, f.target
    return [
        comps
        for comps in itertools.product(
            *(l.hom(f.obj_map[a], g.obj_map[a]) for a in range(k.n_objects))
        )
        if all(
            l.comp[(comps[k.mor_cod[m]], f.mor_map[m])]
            == l.comp[(g.mor_map[m], comps[k.mor_dom[m]])]
            for m in range(k.n_mors)
        )
    ]


def naive_nat_trans_count(f, g) -> int:
    return len(naive_nat_trans(f, g))


def naive_domination(k, l, weak: bool):
    """``(units, hit)`` of the strict (``weak=False``) or weak domination
    search, transcribed over whole functor lists: the search spends
    ``units`` units and then stops with ``hit``, or with None once it has
    tried everything.

    One unit is spent per F, per G with G.F = 1_K (once F is injective), and
    in the weak phase per F, per G and per natural phi: G.F => 1_K; the
    strict phase runs first.  The first unit past a budget stops the search,
    so ``naive_domination_at`` reads every budget's answer off this one walk.
    """
    one_k = identity_functor(k)
    fs, gs = naive_functors(k, l), naive_functors(l, k)

    def units():
        """Yield None per spent unit, or the hit that unit finds."""
        for f in fs:
            yield None
            if len(set(f.obj_map)) < k.n_objects or len(set(f.mor_map)) < k.n_mors:
                continue
            for g in gs:
                gf = compose_functors(g, f)
                if gf == one_k:
                    phi = validate_nat_trans(k.identity, gf, one_k)
                    yield (f, g, phi) if weak else (f, g)
        if not weak:
            return
        for f in fs:
            yield None
            for g in gs:
                yield None
                gf = compose_functors(g, f)
                for comps in naive_nat_trans(gf, one_k):
                    yield f, g, validate_nat_trans(comps, gf, one_k)

    spent = 0
    for hit in units():
        spent += 1
        if hit is not None:
            return spent, hit
    return spent, None


def naive_domination_at(trace, budget: int):
    """``(found, truncated)`` of a search with ``budget`` units, read off the
    ``(units, hit)`` that ``naive_domination`` returns."""
    units, hit = trace
    return (hit, False) if budget >= units else (None, True)


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


def sm1_answers(system, a, a1, a2):
    """Every (a*, r) with a* >= a', a'' and r: X_a' -> X_a'' such that
    bond(a, a') = bond(a, a'') . r and r . bond(a', a*) = bond(a'', a*),
    ascending."""
    amb, idx, at, bond = system.ambient, system.index, system.at, system.bond
    return [
        (astar, r)
        for astar in range(idx.n)
        if idx.leq(a1, astar) and idx.leq(a2, astar)
        for r in _scan_hom(amb, at[a1], at[a2])
        if amb.comp[(bond[(a, a2)], r)] == bond[(a, a1)]
        and amb.comp[(r, bond[(a1, astar)])] == bond[(a2, astar)]
    ]


def naive_sm1(system):
    """... exist a* >= a', a'' and r as in ``sm1_answers``."""
    return _naive_sm(
        system, lambda a, a1, a2: sm1_answers(system, a, a1, a2), SM1Witness
    )


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


def fail_every_verdict(monkeypatch, theorem: str) -> None:
    """Swap in a record for ``theorem`` that keeps its generator and fails
    every instance, so campaign failures hold the real documents."""
    law = campaign._LAWS[theorem]
    monkeypatch.setitem(
        campaign._LAWS,
        theorem,
        law._replace(evaluate=lambda doc: (False, "forced failure")),
    )


# ---------------------------------------------------------------------------
# Reference transcriptions of the validators: every pair, triple and element
# is visited, so the optimized validators must report the same violations in
# the same order.


def naive_poset_relation(elements, pairs) -> tuple[list, list]:
    """``make_poset``'s closure by the all-elements fixpoint: each visit of
    (i, j) probes every k.  Returns the closed relation as
    ``list(frozenset(rel))``, whose order follows the insertion sequence,
    and the (code, detail) violations ``make_poset`` reports; the relation
    is ``[]`` when there are violations."""
    n = len(elements)
    bad = []
    if len(set(elements)) != n:
        bad.append(("DuplicateName", "poset elements not unique"))
    rel = {(i, i) for i in range(n)}
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            bad.append(("BadRef", f"leq pair ({i}, {j})"))
        else:
            rel.add((i, j))
    if bad:
        return [], bad
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            for k in range(n):
                if (j, k) in rel and (i, k) not in rel:
                    rel.add((i, k))
                    changed = True
    for i, j in rel:
        if i != j and (j, i) in rel:
            bad.append(("AntisymmetryBroken", f"({elements[i]}, {elements[j]})"))
    return ([] if bad else list(frozenset(rel))), bad


def naive_category_violations(object_names, morphisms, identity, comp) -> list:
    """``validate_category``'s (code, detail) violations, in its order, from
    scans over all morphisms: every composable pair, and every composable
    triple for associativity.  ``[]`` for valid tables."""
    n_obj, n_mor = len(object_names), len(morphisms)
    names = [m[0] for m in morphisms]
    dom = [m[1] for m in morphisms]
    cod = [m[2] for m in morphisms]
    bad = []
    if len(set(object_names)) != n_obj:
        bad.append(("DuplicateName", "object names not unique"))
    if len(set(names)) != n_mor:
        bad.append(("DuplicateName", "morphism names not unique"))
    for i in range(n_mor):
        if not (0 <= dom[i] < n_obj and 0 <= cod[i] < n_obj):
            bad.append(("BadRef", f"morphism {i} has dom/cod out of range"))
    if len(identity) != n_obj:
        bad.append(("BadRef", "identity table size != object count"))
    else:
        for a, i in enumerate(identity):
            if not (0 <= i < n_mor) or dom[i] != a or cod[i] != a:
                bad.append(("BadRef", f"identity of object {a} mistyped"))
    if bad:
        return bad
    pairs = [
        (g, f) for g in range(n_mor) for f in range(n_mor) if cod[f] == dom[g]
    ]
    for g, f in pairs:
        if (g, f) not in comp:
            bad.append(("MissingComposite", f"(g, f)=({names[g]}, {names[f]})"))
    for (g, f), h in comp.items():
        if not (0 <= g < n_mor and 0 <= f < n_mor and cod[f] == dom[g]):
            bad.append(("IllegalComposite", f"(g, f)=({g}, {f}) not composable"))
        elif not (0 <= h < n_mor) or dom[h] != dom[f] or cod[h] != cod[g]:
            bad.append(("IllegalComposite", f"comp({names[g]}, {names[f]}) mistyped"))
    if bad:
        return bad
    for f in range(n_mor):
        if comp[(identity[cod[f]], f)] != f or comp[(f, identity[dom[f]])] != f:
            bad.append(("IdentityLawBroken", f"f={names[f]}"))
    for g, f in pairs:
        for h in range(n_mor):
            if dom[h] == cod[g] and comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]:
                bad.append(
                    ("AssocBroken", f"(h, g, f)=({names[h]}, {names[g]}, {names[f]})")
                )
    return bad
