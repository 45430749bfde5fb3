"""Deterministic random instance generators.

Every generator is a pure function of (kind, seed, params) via a dedicated
``random.Random`` stream, and every produced structure is valid by
construction (posets from DAG edges, monoids from an associative catalog,
copresheaves from families whose functoriality is forced, systems from
antitone object maps into thin categories or idempotent bonds in monoids).

Size bias: half the categories are thin (posets), a quarter are monoids,
and a quarter are composites (products, coslices, element categories), at
desk-scale caps of 5 objects / 24 morphisms / 3 fiber elements by default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .builders import (
    build_monoid_category,
    build_poset_category,
    coslice_category,
    elements_category,
    product_category,
    representable_copresheaf,
)
from .core import (
    Copresheaf,
    FiniteCategory,
    FinitePoset,
    MAX_MORPHISMS,
    MAX_OBJECTS,
    make_poset,
)
from .errors import NoDesignatedCoproducts, ParamsOutOfRange
from .search import CoproductDesignation, validate_designation
from .systems import make_cone, validate_system
from .dsl import (
    CopresheafEntity,
    Document,
    MonoidEntity,
    PosetEntity,
    SystemEntity,
    make_category_entity,
)

@dataclass(frozen=True)
class GenParams:
    """Desk-scale size caps for generated instances.

    Each cap is at least 1, and ``max_morphisms`` is at most MAX_MORPHISMS.
    ``max_objects`` is at most MAX_OBJECTS - 1, since the ``initial`` law
    adjoins an object; ``max_fiber`` is at most (MAX_OBJECTS + 6) // 4 = 17,
    since the category of elements that ``star-bridge`` builds can have
    4 * max_fiber - 6 objects.

    Every category that ``random_category`` draws is within ``max_objects``
    and ``max_morphisms``.  A poset drawn as a poset (the ``poset`` kind,
    and the ambient poset of a system document) is bounded by
    ``max_objects`` alone.  The ``K x M`` branch of a domination pair is
    fixed-size: a forest of up to 3 elements times one of up to 2, whatever
    the caps.
    """

    max_objects: int = 5
    max_morphisms: int = 24
    max_fiber: int = 3


def _capped(params: GenParams, max_objects: int, max_morphisms: int) -> GenParams:
    """``params`` with each size cap lowered to the given one where that is
    smaller."""
    return GenParams(
        min(max_objects, params.max_objects),
        min(max_morphisms, params.max_morphisms),
        params.max_fiber,
    )


def _check_params(params: GenParams) -> None:
    # The ``initial`` law adjoins an object to a category of up to
    # max_objects objects.  The largest copresheaf a system document draws is
    # the collapse copresheaf on a 4-chain, with 4 * max_fiber - 6 elements,
    # and ``star-bridge`` builds its category of elements, one object each.
    if not 1 <= params.max_objects <= MAX_OBJECTS - 1:
        raise ParamsOutOfRange(f"max_objects={params.max_objects}")
    if not 1 <= params.max_morphisms <= MAX_MORPHISMS:
        raise ParamsOutOfRange(f"max_morphisms={params.max_morphisms}")
    if not 1 <= params.max_fiber <= (MAX_OBJECTS + 6) // 4:
        raise ParamsOutOfRange(f"max_fiber={params.max_fiber}")


def _rng(kind: str, seed: int, params: GenParams) -> random.Random:
    key = (
        f"movcat:{kind}:{seed}:"
        f"{params.max_objects}:{params.max_morphisms}:{params.max_fiber}"
    )
    return random.Random(key)


# ---------------------------------------------------------------------------
# Posets


def random_poset(
    rng: random.Random,
    max_n: int,
    *,
    directed: Optional[bool] = None,
    forest: bool = False,
) -> FinitePoset:
    """Random poset from DAG edges over a fixed linear labeling.

    ``forest=True`` gives at most one lower cover per element, so every
    principal down-set is a chain (hence has a minimum).  ``directed=True``
    forces a top element; ``directed=False`` appends two incomparable
    maximal elements with no common upper bound.
    """
    if directed is False:
        base_n = max(1, rng.randint(1, max(1, max_n - 2)))
        n = base_n + 2
    else:
        n = rng.randint(1 if directed is None else 2, max(2, max_n))
        n = min(n, max_n)
        base_n = n
    elements = [f"e{i}" for i in range(n)]
    pairs: list[tuple[int, int]] = []
    if forest:
        for i in range(1, base_n):
            parent = rng.randint(-1, i - 1)
            if parent >= 0:
                pairs.append((parent, i))
    else:
        p = rng.uniform(0.2, 0.6)
        for i in range(base_n):
            for j in range(i + 1, base_n):
                if rng.random() < p:
                    pairs.append((i, j))
    if directed is True and n >= 2:
        pairs.extend((i, n - 1) for i in range(n - 1))
    if directed is False:
        # Two fresh maximal elements above random parts of the base, never
        # above one another and never below anything: no common upper bound.
        for top in (base_n, base_n + 1):
            for i in range(base_n):
                if rng.random() < 0.7:
                    pairs.append((i, top))
    return make_poset(elements, pairs)


def poset_has_downset_minima(poset: FinitePoset) -> bool:
    """True when every principal down-set has a minimum element.

    Independent order-theoretic oracle for strong movability of the thin
    category of the poset.
    """
    for x in range(poset.n):
        down = poset.down_set(x)
        if not any(all(poset.leq(m, d) for d in down) for m in down):
            return False
    return True


# ---------------------------------------------------------------------------
# Monoids (catalog of associative tables)

MONOID_CATALOG: tuple[tuple[tuple[str, ...], int, tuple[tuple[int, ...], ...]], ...] = (
    (("e",), 0, ((0,),)),
    # cyclic group of order 2
    (("e", "a"), 0, ((0, 1), (1, 0))),
    # two-element idempotent monoid (absorbing a)
    (("e", "a"), 0, ((0, 1), (1, 1))),
    # cyclic group of order 3
    (("e", "a", "b"), 0, ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
    # C2 with a zero adjoined
    (("e", "a", "z"), 0, ((0, 1, 2), (1, 0, 2), (2, 2, 2))),
    # right-zero semigroup {a, b} with a unit (non-commutative)
    (("e", "a", "b"), 0, ((0, 1, 2), (1, 1, 2), (2, 1, 2))),
    # cyclic group of order 4
    (
        ("e", "a", "b", "c"),
        0,
        ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)),
    ),
    # Klein four-group
    (
        ("e", "a", "b", "c"),
        0,
        ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    ),
)


def random_monoid(
    rng: random.Random,
) -> tuple[tuple[str, ...], int, tuple[tuple[int, ...], ...]]:
    return MONOID_CATALOG[rng.randrange(len(MONOID_CATALOG))]


def _monoid_idempotents(table) -> list[int]:
    return [i for i in range(len(table)) if table[i][i] == i]


# ---------------------------------------------------------------------------
# Categories


def random_category(
    rng: random.Random, params: GenParams, *, movable_bias: bool = False
) -> FiniteCategory:
    """Random finite category.

    Bias: 50% thin (posets), 25% monoids, 25% composites.  With
    ``movable_bias`` thin categories are drawn from forests (guaranteed
    strongly movable) more often.

    Every draw is within ``max_objects`` and ``max_morphisms``: a draw over
    either cap is drawn again, and after 20 draws the one-object category
    is returned.
    """
    for _ in range(20):
        roll = rng.random()
        if roll < 0.5:
            forest = movable_bias and rng.random() < 0.8
            poset = random_poset(rng, params.max_objects, forest=forest)
            cat = build_poset_category(poset)
        elif roll < 0.75:
            cat = build_monoid_category(*random_monoid(rng))
        else:
            cat = _random_composite(rng, params, movable_bias=movable_bias)
        if _within_caps(cat, params):
            return cat
    return build_poset_category(make_poset(["e0"], []))


def _within_caps(cat: FiniteCategory, params: GenParams) -> bool:
    return cat.n_objects <= params.max_objects and cat.n_mors <= params.max_morphisms


def _random_composite(
    rng: random.Random, params: GenParams, *, movable_bias: bool = False
) -> FiniteCategory:
    """A product, coslice or category of elements, drawn again while it is
    over a cap, up to 20 draws; the last draw is returned either way."""
    for _ in range(20):
        sub = rng.randrange(3)
        if sub == 0:
            f1 = build_poset_category(random_poset(rng, 2, forest=movable_bias))
            f2 = build_poset_category(random_poset(rng, 2, forest=movable_bias))
            cat = product_category([f1, f2]).category
        elif sub == 1:
            base = build_poset_category(random_poset(rng, params.max_objects))
            cat = coslice_category(base, rng.randrange(base.n_objects)).category
        else:
            base_poset = random_poset(rng, max(1, params.max_objects // 2))
            base = build_poset_category(base_poset)
            h = representable_copresheaf(base, rng.randrange(base.n_objects))
            cat = elements_category(h).category
        if _within_caps(cat, params):
            break
    return cat


# ---------------------------------------------------------------------------
# Copresheaves


def terminal_copresheaf(base: FiniteCategory) -> Copresheaf:
    """All fibers a single point; every action trivial."""
    fibers = [["x0"] for _ in range(base.n_objects)]
    action = [[0] for _ in range(base.n_mors)]
    return Copresheaf(base, fibers, action)


def collapse_copresheaf(
    base: FiniteCategory, poset: FinitePoset, max_fiber: int
) -> Copresheaf:
    """Fibers shrink up the order; actions truncate (min with fiber size).

    Valid because fiber sizes are antitone in the order, which makes the
    truncations compose.
    """
    size = [
        max(1, max_fiber - (len(poset.down_set(q)) - 1)) for q in range(poset.n)
    ]
    fibers = [[f"x{i}" for i in range(size[q])] for q in range(poset.n)]
    action = []
    for m in range(base.n_mors):
        d, c = base.mor_dom[m], base.mor_cod[m]
        action.append([min(x, size[c] - 1) for x in range(size[d])])
    return Copresheaf(base, fibers, action)


def sum_of_representables(
    base: FiniteCategory, p1: int, p2: int
) -> Copresheaf:
    """Fiberwise disjoint union of hom(P1, -) and hom(P2, -)."""
    h1 = representable_copresheaf(base, p1)
    h2 = representable_copresheaf(base, p2)
    fibers = [
        [f"a_{x}" for x in h1.fibers[q]] + [f"b_{x}" for x in h2.fibers[q]]
        for q in range(base.n_objects)
    ]
    action = []
    for m in range(base.n_mors):
        d = base.mor_dom[m]
        off = len(h1.fibers[base.mor_cod[m]])
        action.append(
            [h1.action[m][x] for x in range(len(h1.fibers[d]))]
            + [off + h2.action[m][x] for x in range(len(h2.fibers[d]))]
        )
    return Copresheaf(base, fibers, action)


def random_copresheaf_doc(rng: random.Random, params: GenParams) -> Document:
    """Document with a base entity ``B`` and a copresheaf ``H`` on it."""
    doc = Document()
    roll = rng.random()
    if roll < 0.25:
        elements, unit, table = random_monoid(rng)
        doc.add(MonoidEntity("B", elements, unit, table))
        base = doc.category_of("B")
        h = representable_copresheaf(base, 0)
    else:
        poset = random_poset(rng, params.max_objects)
        doc.add(PosetEntity("B", poset))
        base = doc.category_of("B")
        sub = rng.random()
        if sub < 0.3:
            h = representable_copresheaf(base, rng.randrange(base.n_objects))
        elif sub < 0.5:
            h = terminal_copresheaf(base)
        elif sub < 0.75:
            h = collapse_copresheaf(base, poset, params.max_fiber)
        else:
            h = sum_of_representables(
                base,
                rng.randrange(base.n_objects),
                rng.randrange(base.n_objects),
            )
    doc.add(CopresheafEntity("H", "B", h))
    return doc


# ---------------------------------------------------------------------------
# Inverse systems with cones


def _antitone_map(
    rng: random.Random, index: FinitePoset, n_values: int
) -> list[int]:
    """Random order-reversing map index -> {0..n_values-1} (min of random
    potentials over the down-set)."""
    v = [rng.randrange(n_values) for _ in range(index.n)]
    return [min(v[b] for b in index.down_set(a)) for a in range(index.n)]


def random_system_doc(
    rng: random.Random,
    params: GenParams,
    *,
    directed: Optional[bool] = None,
) -> Document:
    """Document with ambient ``C``, index ``P``, copresheaf ``H`` and a
    system ``S`` carrying a cone.

    Families: chain ambient with a collapse or representable copresheaf,
    random poset ambient with the terminal copresheaf, or a monoid ambient
    with its regular action and idempotent bonds.  Cones are compatible by
    construction except for a deliberate random fraction.
    """
    doc = Document()
    index = random_poset(rng, min(4, params.max_objects), directed=directed)
    doc_index = PosetEntity("P", index)
    family = rng.random()
    if family < 0.6:
        # Thin chain ambient.
        chain_len = rng.randint(2, 4)
        amb_poset = make_poset(
            [f"c{i}" for i in range(chain_len)],
            [(i, i + 1) for i in range(chain_len - 1)],
        )
        doc.add(PosetEntity("C", amb_poset))
        ambient = doc.category_of("C")
        doc.add(doc_index)
        at = _antitone_map(rng, index, chain_len)
        if family < 0.35:
            h = collapse_copresheaf(ambient, amb_poset, params.max_fiber)
            if rng.random() < 0.7:
                v = rng.randrange(params.max_fiber)
                elems = [min(v, len(h.fibers[at[a]]) - 1) for a in range(index.n)]
            else:
                elems = [
                    rng.randrange(len(h.fibers[at[a]])) for a in range(index.n)
                ]
        else:
            p = min(at)
            h = representable_copresheaf(ambient, p)
            elems = [0] * index.n
    elif family < 0.8:
        # Random ambient with a forced bottom, so every partial antitone
        # assignment extends (the bottom is always a candidate value).
        inner = random_poset(rng, max(1, params.max_objects - 1))
        amb_poset = make_poset(
            ["bot"] + [f"q{e}" for e in inner.elements],
            [(0, i + 1) for i in range(inner.n)]
            + [(i + 1, j + 1) for (i, j) in inner.strict_pairs()],
        )
        doc.add(PosetEntity("C", amb_poset))
        ambient = doc.category_of("C")
        doc.add(doc_index)
        at = _antitone_map(rng, index, amb_poset.n)
        # The antitone potential may land on incomparable values; clamp to a
        # monotone-safe choice: follow down-set minima in the ambient order.
        at = _force_antitone_into(amb_poset, index, at)
        h = terminal_copresheaf(ambient)
        elems = [0] * index.n
    else:
        elements, unit, table = random_monoid(rng)
        doc.add(MonoidEntity("C", elements, unit, table))
        ambient = doc.category_of("C")
        doc.add(doc_index)
        at = [0] * index.n
        h = representable_copresheaf(ambient, 0)
        idems = _monoid_idempotents(table)
        z = idems[rng.randrange(len(idems))]
        bond = dict.fromkeys(index.strict_pairs(), z)
        elems = [z] * index.n
        if rng.random() < 0.25:
            elems = [rng.randrange(len(elements)) for _ in range(index.n)]
    if family < 0.8:
        # Thin ambient: each bond is the unique comparison.
        bond = {
            (a, a2): ambient.hom(at[a2], at[a])[0]
            for a, a2 in index.strict_pairs()
        }
    system = validate_system(ambient, index, at, bond)
    doc.add(CopresheafEntity("H", "C", h))
    cone = make_cone(system, h, elems)
    doc.add(SystemEntity("S", "C", "P", "H", system, cone))
    return doc


def _force_antitone_into(
    amb: FinitePoset, index: FinitePoset, at: list[int]
) -> list[int]:
    """Repair an integer-valued antitone sketch into an ambient-poset
    antitone map: greedily walk down the ambient order along index chains."""
    out = [0] * index.n
    # Sort by down-set size, a linear extension of the index (b < a makes
    # down_set(b) a proper subset of down_set(a)), so every value below a is
    # fixed before a.
    order = sorted(range(index.n), key=lambda a: (len(index.down_set(a)), a))
    for a in order:
        below = [out[b] for b in index.down_set(a) if b != a]
        # Candidates must sit under every value already fixed below a.
        cands = [
            q
            for q in range(amb.n)
            if all(amb.leq(q, v) for v in below)
        ]
        out[a] = cands[at[a] % len(cands)] if cands else 0
    return out


# ---------------------------------------------------------------------------
# Join-semilattices with designated coproducts


def random_join_semilattice(
    rng: random.Random, max_universe: int = 3
) -> FinitePoset:
    """Union-closed family of subsets of a small universe, ordered by
    inclusion; the join of two members is their union."""
    k = rng.randint(2, max_universe)
    masks = {rng.randrange(1, 1 << k) for _ in range(rng.randint(2, 4))}
    closed = set(masks)
    frontier = True
    while frontier:
        frontier = False
        for a in list(closed):
            for b in list(closed):
                if (a | b) not in closed:
                    closed.add(a | b)
                    frontier = True
    order = sorted(closed)
    names = [f"s{m}" for m in order]
    pos = {m: i for i, m in enumerate(order)}
    pairs = [
        (pos[a], pos[b])
        for a in order
        for b in order
        if a != b and (a & b) == a
    ]
    return make_poset(names, pairs)


def semilattice_designation(
    cat: FiniteCategory, poset: FinitePoset
) -> CoproductDesignation:
    """Designate the join (= union) as the binary coproduct for every pair,
    with the unique comparison morphisms as injections."""
    table: dict[tuple[int, int], tuple[int, int, int]] = {}
    for a in range(poset.n):
        for b in range(poset.n):
            ubs = poset.upper_bounds(a, b)
            join = next(
                (j for j in ubs if all(poset.leq(j, u) for u in ubs)), None
            )
            if join is None:
                raise NoDesignatedCoproducts(
                    f"no join for ({poset.elements[a]}, {poset.elements[b]})"
                )
            table[(a, b)] = (
                join,
                cat.hom(a, join)[0],
                cat.hom(b, join)[0],
            )
    return validate_designation(cat, table)


# ---------------------------------------------------------------------------
# Domination pairs


def random_domination_doc(rng: random.Random, params: GenParams) -> Document:
    """Categories ``K`` and ``L`` where L dominates K.

    Guaranteed-success family: L = K x M with F = (1, const) and
    G = projection, so a functorial domination always exists; a fraction of
    instances instead pairs two unrelated categories, where the search may
    or may not find one.
    """
    if rng.random() < 0.75:
        k = build_poset_category(random_poset(rng, 3, forest=True))
        m = build_poset_category(random_poset(rng, 2, forest=True))
        l = product_category([k, m]).category
    else:
        small = _capped(params, 3, 12)
        k = random_category(rng, small, movable_bias=True)
        l = random_category(rng, small, movable_bias=True)
    return Document([make_category_entity("K", k), make_category_entity("L", l)])


# ---------------------------------------------------------------------------
# Entry point: one document family per kind, one checked generation path


def _poset_doc(rng: random.Random, params: GenParams) -> Document:
    return Document([PosetEntity("P", random_poset(rng, params.max_objects))])


def _monoid_doc(rng: random.Random, params: GenParams) -> Document:
    return Document([MonoidEntity("M", *random_monoid(rng))])


def _category_doc(rng: random.Random, params: GenParams) -> Document:
    return Document([make_category_entity("K", random_category(rng, params))])


def _system_doc(rng: random.Random, params: GenParams) -> Document:
    directed = rng.choice([None, True, False])
    return random_system_doc(rng, params, directed=directed)


_Family = Callable[[random.Random, GenParams], Document]

_FAMILIES: dict[str, _Family] = {
    "poset": _poset_doc,
    "monoid": _monoid_doc,
    "category": _category_doc,
    "copresheaf": random_copresheaf_doc,
    "system": _system_doc,
    "domination-pair": random_domination_doc,
}
KINDS = tuple(_FAMILIES)


def _generate(
    family: _Family, key: str, seed: int, params: Optional[GenParams]
) -> Document:
    """Default and check ``params``, then run ``family`` on the random
    stream of (key, seed, params)."""
    params = params or GenParams()
    _check_params(params)
    return family(_rng(key, seed, params), params)


def generate_instance(
    kind: str, seed: int, params: Optional[GenParams] = None
) -> Document:
    """Deterministic random document of the given kind."""
    if kind not in _FAMILIES:
        raise ParamsOutOfRange(f"unknown kind {kind!r}")
    return _generate(_FAMILIES[kind], kind, seed, params)
