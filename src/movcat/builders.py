"""Canonical constructions: poset/monoid categories, products, coslices,
categories of elements.

Builders produce closed composition tables directly, so the results are
valid by construction; validate_category is only needed for foreign input.
Every public derived construction (``product_category``,
``coslice_category``, ``elements_category``, ``add_initial_object``)
checks the exact size of its result with ``core.check_size`` before it
builds anything, so none returns a category too large to read.  The comma
construction ``_comma`` and ``_elements``, which ``systems.check_star``
calls to decide on a category of elements of any size, do not check.
A coslice and a representable refuse an object ref outside
``range(n_objects)`` with ``core.check_ref`` before they build anything.
Object and morphism order is the documented construction sequence, which is
what makes witnesses reproducible.

A product, ``ProductResult``, keeps its objects and morphisms as tuples of
factor refs in lexicographic order, with one ref dict for each.  That order
is the contract: the ref of (c1, ..., ck) is the radix number
((c1*n2 + c2)*n3 + ...)*nk + ck in the factors' object or morphism counts,
so each product table, and each table of a product witness
(``movability.product_transport``), is a fold of the factors' tables.
The tables that the factors' sizes alone fix (the tuples, the names, the
ref dicts and the projection maps) are built once per shape and shared.
Coslices and categories of elements share one comma construction (the
coslice under X is the category of elements of hom(X, -)), with morphisms
(i, j, eta) in lexicographic order, and one result type, ``CommaResult``,
which keeps the object and morphism indices that the construction builds.
A comma morphism is fixed by its source object and eta, so the construction
keeps one row per object, the dict eta -> ref, and reads each composite and
each identity from the source's row; ``morphism_index`` reads the same row.
Over a thin base the comma is thin, so it also keeps a target-keyed row per
object, the dict j -> ref of the one morphism to j, and reads each composite
from the source's target-keyed row, as ``build_poset_category`` does.
A product answers ``object_index`` and ``morphism_index``, and a comma
result ``object_index``, by dict lookup; both result types raise ValueError
on a key that names nothing.  The comma construction reads the
arrows out of each base object from ``FiniteCategory.mors_out_of``.  Every
builder fills its composition table per composable pair, never by scanning
all pairs of morphisms.  ``representable_copresheaf`` finds the position of
each arrow out of P through one index over all its hom-sets, since each
arrow lies in exactly one.

A copresheaf is checked when it is built, so elements_category trusts its
input; the copresheaf carries its category of elements once ``_elements``
has built it, and later calls on the same value return it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import (
    Copresheaf,
    FiniteCategory,
    FinitePoset,
    Functor,
    check_ref,
    check_size,
    group_by,
)
from .errors import NotAMonoid


def build_poset_category(poset: FinitePoset) -> FiniteCategory:
    """The thin category of a poset: one morphism a -> b iff a <= b.

    Morphism order: identities (object order) first, then strict pairs in
    (i, j) order, named ``le{i}_{j}``.  Each object a keeps one row, the
    dict b -> ref of a -> b, and the composite of f: a -> b with each g out
    of b is read from a's row at cod(g) by ``_thin_comp``, the loop that the
    comma construction runs over a thin base; ``comp`` lists f ascending
    and, per f, g ascending.
    """
    n = poset.n
    names = [f"id_{poset.elements[i]}" for i in range(n)]
    dom = list(range(n))
    cod = list(range(n))
    to: list[dict[int, int]] = [{i: i} for i in range(n)]
    for i, j in poset.strict_pairs():
        to[i][j] = len(names)
        names.append(f"le{i}_{j}")
        dom.append(i)
        cod.append(j)
    comp = _thin_comp(to, dom, cod, group_by(dom, n))
    return FiniteCategory(
        tuple(poset.elements), tuple(names), tuple(dom), tuple(cod),
        tuple(range(n)), comp,
    )


def _thin_comp(
    to: Sequence[dict[int, int]],
    dom: Sequence[int],
    cod: Sequence[int],
    by_dom: Sequence[Sequence[int]],
) -> dict[tuple[int, int], int]:
    """The composition table of a thin category whose object a keeps the
    row ``to[a]``, the dict b -> ref of the one morphism a -> b.

    The composite of f with each g out of cod(f) is the one morphism
    dom(f) -> cod(g), read from dom(f)'s row; ``comp`` lists f ascending
    and, per f, g ascending (``by_dom[b]``: the refs out of b, ascending).
    """
    comp = {}
    for f in range(len(dom)):
        row = to[dom[f]]
        for g in by_dom[cod[f]]:
            comp[g, f] = row[cod[g]]
    return comp


def build_monoid_category(
    elements: Sequence[str], unit: int, table: Sequence[Sequence[int]]
) -> FiniteCategory:
    """One-object category whose endomorphisms are the monoid elements.

    ``table[a][b]`` is a*b, read as "a after b".  Raises NotAMonoid when the
    table is not associative or the unit is not two-sided.
    """
    k = len(elements)
    if len(table) != k or any(len(row) != k for row in table):
        raise NotAMonoid("table is not square")
    if any(not 0 <= v < k for row in table for v in row):
        raise NotAMonoid("table entry out of range")
    if not 0 <= unit < k:
        raise NotAMonoid("unit out of range")
    for a in range(k):
        if table[unit][a] != a or table[a][unit] != a:
            raise NotAMonoid(f"unit law fails at element {elements[a]}")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAMonoid(
                        f"associativity fails at ({elements[a]}, {elements[b]}, {elements[c]})"
                    )
    comp = {(g, f): table[g][f] for g in range(k) for f in range(k)}
    return FiniteCategory(
        ("pt",), tuple(elements), (0,) * k, (0,) * k, (unit,), comp
    )


@dataclass(frozen=True)
class ProductResult:
    """Product category plus its projection functors.

    Object o is ``objects[o]`` and morphism m is ``morphisms[m]``: the tuple
    of factor refs, in lexicographic order.  So the ref of (c1, ..., ck) is
    the radix number ((c1*n2 + c2)*n3 + ...)*nk + ck, where ni is the i-th
    factor's object count for an object and its morphism count for a
    morphism.

    Products of one shape (the factors' object and morphism counts) share
    ``objects``, ``morphisms``, the category's names, the ref dicts and the
    projections' maps: tuples plus two dicts that nothing writes, kept for
    at most 32 shapes (about 0.9 MB for a cap-size shape of two factors, 64
    objects and 4096 morphisms; see ``_shape_tables``).  Dom, cod,
    identities and ``comp`` are each product's own.
    """

    category: FiniteCategory
    projections: tuple[Functor, ...]
    factors: tuple[FiniteCategory, ...]
    objects: tuple[tuple[int, ...], ...]
    morphisms: tuple[tuple[int, ...], ...]
    _object_refs: dict = field(repr=False, compare=False)
    _morphism_refs: dict = field(repr=False, compare=False)

    def object_index(self, components: Sequence[int]) -> int:
        return _index(self._object_refs, tuple(components))

    def morphism_index(self, components: Sequence[int]) -> int:
        return _index(self._morphism_refs, tuple(components))


def _radix_refs(
    tables: Sequence[Sequence[int]], sizes: Sequence[int]
) -> Sequence[int]:
    """The product refs of the tuples ``itertools.product(*tables)``, in that
    order, for factors of ``sizes``: (a1, ..., ak) has the ref
    ((a1*n2 + a2)*n3 + ...)*nk + ak."""
    pairs = zip(tables, sizes)
    out = next(pairs)[0]
    for table, n in pairs:
        out = [a * n + b for a in out for b in table]
    return out


def _radix_names(prefix: str, sizes: Sequence[int]) -> tuple[str, ...]:
    """``prefix`` followed by the digits of each radix ref, joined by "_"."""
    rest = iter(sizes)
    out = [prefix + str(i) for i in range(next(rest))]
    for n in rest:
        digits = ["_" + str(i) for i in range(n)]
        out = [a + b for a in out for b in digits]
    return tuple(out)


def _comp_rows(cat: FiniteCategory, scale: int = 1) -> list[list[tuple[int, int]]]:
    """Per morphism g, the pairs (f, g.f) for f into dom(g), f ascending,
    each ref multiplied by ``scale``."""
    comp, into = cat.comp, cat.mors_into
    return [
        [(f * scale, comp[g, f] * scale) for f in into(d)]
        for g, d in enumerate(cat.mor_dom)
    ]


#: The most product shapes whose tables ``_shape_tables`` keeps.
_SHAPES = 32


@functools.lru_cache(maxsize=_SHAPES)
def _shape_tables(n_objs: tuple[int, ...], n_mors: tuple[int, ...]) -> tuple:
    """The tables of a product that the factors' object counts ``n_objs``
    and morphism counts ``n_mors`` alone fix: the ``objects`` and
    ``morphisms`` tuples, the morphism refs (one int object per ref, shared
    by every entry of ``comp`` that names it), the object and morphism
    names, the two ref dicts and the projection columns, one per factor, of
    objects and of morphisms.

    Products of one shape share these values, so they are tuples plus two
    dicts that nothing writes.  They are kept for at most 32 shapes, the
    least recently used leaving first.  A cap-size shape of two factors
    (64 objects, 4096 morphisms) holds about 0.9 MB, so 32 of them hold
    about 28 MB; each further factor widens every tuple (1.6 MB for twelve
    factors of 1 object and 2 morphisms).
    """
    objects = tuple(itertools.product(*map(range, n_objs)))
    morphisms = tuple(itertools.product(*map(range, n_mors)))
    refs = tuple(range(len(morphisms)))
    # Projection i maps each tuple to its i-th component: the i-th column,
    # which zip gives for every factor unless some factor is empty.
    empty = ((),) * len(n_objs)
    return (
        objects,
        morphisms,
        refs,
        _radix_names("o", n_objs),
        _radix_names("m", n_mors),
        dict(zip(objects, range(len(objects)))),
        dict(zip(morphisms, refs)),
        tuple(zip(*objects)) or empty,
        tuple(zip(*morphisms)) or empty,
    )


def product_category(factors: Sequence[FiniteCategory]) -> ProductResult:
    """Product of categories: tuple objects/morphisms, componentwise tables.

    Objects and morphisms are ordered lexicographically by component refs,
    so every table is a radix fold of the factors' tables.  The tables that
    the factors' sizes alone fix come from ``_shape_tables``, once per shape;
    dom, cod, identities and ``comp`` are built per call.  The composites of
    g are read from each factor's composition row for its component (the
    pairs (f, g.f)): the rows of the factors before the last are folded into
    one row per morphism of their product, and the last factor's rows expand
    those straight into ``comp``, which lists g ascending and, within g, f
    ascending.  Raises SizeBoundExceeded, before it builds anything, when the
    result would exceed the caps.
    """
    if not factors:
        raise ValueError("need at least one factor")
    n_objs = tuple(c.n_objects for c in factors)
    n_mors = tuple(c.n_mors for c in factors)
    check_size("product", math.prod(n_objs), math.prod(n_mors))
    (
        objects, morphisms, refs, obj_names, mor_names,
        object_refs, morphism_refs, obj_columns, mor_columns,
    ) = _shape_tables(n_objs, n_mors)
    dom = tuple(_radix_refs([c.mor_dom for c in factors], n_objs))
    cod = tuple(_radix_refs([c.mor_cod for c in factors], n_objs))
    identity = tuple(_radix_refs([c.identity for c in factors], n_mors))

    # head[G]: the pairs (F, G.F) of the factors before the last, each ref
    # already multiplied by the last factor's morphism count.
    if len(factors) == 1:
        head = [[(0, 0)]]
    else:
        head = _comp_rows(factors[0], n_mors[1])
        for c, n in zip(factors[1:-1], n_mors[2:]):
            rows = _comp_rows(c)
            head = [
                [((f + f2) * n, (h + h2) * n) for f, h in hr for f2, h2 in r]
                for hr in head
                for r in rows
            ]
    comp = {}
    for g, (hr, r) in zip(refs, itertools.product(head, _comp_rows(factors[-1]))):
        for f, h in hr:
            for f2, h2 in r:
                comp[g, refs[f + f2]] = refs[h + h2]

    cat = FiniteCategory(obj_names, mor_names, dom, cod, identity, comp)
    projections = tuple(
        Functor(cat, c, obj_map, mor_map)
        for c, obj_map, mor_map in zip(factors, obj_columns, mor_columns)
    )
    return ProductResult(
        cat, projections, tuple(factors), objects, morphisms,
        object_refs, morphism_refs,
    )


@dataclass(frozen=True)
class CommaResult:
    """A comma category over a base, with its projection to the base.

    Object i is ``objects[i]``: a morphism f out of X for the coslice under
    X, a pair (Q, x in H(Q)) for the category of elements of H.  Morphism r
    is ``morphism_triples[r]`` = (src_obj, tgt_obj, eta).  Since src_obj
    and eta fix tgt_obj, each object keeps one row, the dict eta -> ref of
    its morphism over eta; ``morphism_index`` reads the row and checks the
    target against the triple.
    """

    category: FiniteCategory
    forgetful: Functor
    objects: tuple
    morphism_triples: tuple[tuple[int, int, int], ...]
    _object_refs: dict = field(repr=False, compare=False)
    _rows: list = field(repr=False, compare=False)

    def object_index(self, obj) -> int:
        return _index(self._object_refs, obj)

    def morphism_index(self, src: int, tgt: int, eta: int) -> int:
        if 0 <= src < len(self._rows):
            r = self._rows[src].get(eta)
            if r is not None and self.morphism_triples[r][1] == tgt:
                return r
        raise ValueError(f"{(src, tgt, eta)!r} is not in the result")


def _index(refs: dict, key) -> int:
    """``refs[key]``, raising ValueError (as ``tuple.index`` does) when
    ``key`` is missing."""
    try:
        return refs[key]
    except KeyError:
        raise ValueError(f"{key!r} is not in the result") from None


def _comma(
    base: FiniteCategory,
    objects: Sequence,
    over: Sequence[int],
    act: Callable[[int, object], object],
    obj_names: Sequence[str],
    tag: str,
) -> CommaResult:
    """Comma category over ``base`` and its projection to ``base``.

    ``objects[i]`` lies over base object ``over[i]``; ``act(eta, o)`` is the
    object that eta (with dom(eta) over o) sends o to.  The morphisms are
    the triples (i, j, eta) with j the index of ``act(eta, objects[i])``, in
    lexicographic order, named ``{tag}{i}_{j}_`` plus the name of eta.
    Composites are filled per composable pair, first arrow outer and second
    arrow ascending; searches iterate ``comp`` in insertion order, so this
    order is part of the result.  The composite of (i, j, e1) with (j, k, e2)
    is read from i's row at the base composite e2 . e1; over a thin base,
    where i -> k holds one morphism, it is read from i's target-keyed row at
    k instead (``_thin_comp``, as ``build_poset_category`` does), with no
    base composite looked up.  The caller checks the size of the result.
    """
    index = {o: i for i, o in enumerate(objects)}
    triples = tuple(
        sorted(
            (i, index[act(eta, o)], eta)
            for i, (o, b) in enumerate(zip(objects, over))
            for eta in base.mors_out_of(b)
        )
    )
    # row[i]: eta -> ref of (i, j, eta); i and eta fix j.  Over a thin
    # base, to[i]: j -> ref of the one morphism i -> j.
    row: list[dict[int, int]] = [{} for _ in over]
    thin = base.thin
    if thin:
        to: list[dict[int, int]] = [{} for _ in over]
        for r, (i, j, eta) in enumerate(triples):
            row[i][eta] = r
            to[i][j] = r
    else:
        for r, (i, _, eta) in enumerate(triples):
            row[i][eta] = r
    dom = tuple(i for i, _, _ in triples)
    cod = tuple(j for _, j, _ in triples)
    identity = tuple(row[i][base.identity[b]] for i, b in enumerate(over))
    out = group_by(dom, len(over))
    if thin:
        comp = _thin_comp(to, dom, cod, out)
    else:
        bcomp = base.comp
        comp = {}
        for r1, (i, j, e1) in enumerate(triples):
            ri = row[i]
            for r2 in out[j]:
                comp[r2, r1] = ri[bcomp[triples[r2][2], e1]]
    mor_names = tuple(f"{tag}{i}_{j}_{base.mor_names[e]}" for i, j, e in triples)
    cat = FiniteCategory(tuple(obj_names), mor_names, dom, cod, identity, comp)
    forgetful = Functor(cat, base, tuple(over), tuple(e for _, _, e in triples))
    return CommaResult(cat, forgetful, tuple(objects), triples, index, row)


def coslice_category(cat: FiniteCategory, x: int) -> CommaResult:
    """Coslice of ``cat`` under object ``x`` and its forgetful functor: the
    objects are the morphisms f out of x, ascending, and a morphism from f''
    to f' is each eta with eta . f'' = f'."""
    check_ref(x, cat.n_objects, "object", "a category")
    fs = cat.mors_out_of(x)
    over = [cat.mor_cod[f] for f in fs]
    check_size(
        f"coslice under {cat.object_names[x]}",
        len(fs),
        sum(len(cat.mors_out_of(b)) for b in over),
    )
    return _comma(
        cat,
        fs,
        over,
        lambda eta, f: cat.comp[(eta, f)],
        [f"o_{cat.mor_names[f]}" for f in fs],
        "t",
    )


def elements_category(h: Copresheaf) -> CommaResult:
    """Category of elements of ``h`` (finite model of the comma category),
    built on the first call for ``h`` and stored on it: the objects are the
    pairs (Q, x in H(Q)), and a morphism (Q'', x'') -> (Q', x') is each
    eta: Q'' -> Q' with action(eta)(x'') = x'.  Raises SizeBoundExceeded,
    before it builds anything, when the result would exceed the caps."""
    out_of = h.base.mors_out_of
    check_size(
        "category of elements",
        sum(map(len, h.fibers)),
        sum(len(fiber) * len(out_of(q)) for q, fiber in enumerate(h.fibers)),
    )
    return _elements(h)


def _elements(h: Copresheaf) -> CommaResult:
    """``elements_category`` without the size check, for a caller that
    decides on it whatever its size; built once per ``h`` and stored on it."""
    if h._elements is None:
        base = h.base
        objects = [
            (q, x) for q in range(base.n_objects) for x in range(len(h.fibers[q]))
        ]
        result = _comma(
            base,
            objects,
            [q for q, _ in objects],
            lambda eta, o: (base.mor_cod[eta], h.action[eta][o[1]]),
            [f"x{q}_{h.fibers[q][x]}" for q, x in objects],
            "e",
        )
        object.__setattr__(h, "_elements", result)
    return h._elements


def representable_copresheaf(cat: FiniteCategory, p: int) -> Copresheaf:
    """hom(P, -) with action by post-composition."""
    check_ref(p, cat.n_objects, "object", "a category")
    homs = [cat.hom(p, q) for q in range(cat.n_objects)]
    # Each arrow out of P lies in exactly one hom-set.
    index = {m: i for h in homs for i, m in enumerate(h)}
    names, comp = cat.mor_names, cat.comp
    fibers = [[names[m] for m in h] for h in homs]
    action = [[index[comp[m, f]] for f in homs[d]] for m, d in enumerate(cat.mor_dom)]
    return Copresheaf(cat, fibers, action)


def add_initial_object(cat: FiniteCategory) -> FiniteCategory:
    """Adjoin a fresh initial object ``bot`` (``bot_`` when ``bot`` is
    taken) with one morphism to every object.

    The new object, its identity, and the unique morphisms are appended
    after the existing tables.
    """
    n_obj = cat.n_objects
    n_mor = cat.n_mors
    check_size("category with an initial object", n_obj + 1, n_mor + 1 + n_obj)
    name = "bot_" if "bot" in cat.object_names else "bot"
    obj_names = cat.object_names + (name,)
    bot = n_obj
    mor_names = list(cat.mor_names) + [f"id_{name}"]
    dom = list(cat.mor_dom) + [bot]
    cod = list(cat.mor_cod) + [bot]
    bang = {}
    for a in range(n_obj):
        bang[a] = len(mor_names)
        mor_names.append(f"bang_{cat.object_names[a]}")
        dom.append(bot)
        cod.append(a)
    identity = cat.identity + (n_mor,)
    comp = dict(cat.comp)
    comp[(n_mor, n_mor)] = n_mor
    for a in range(n_obj):
        comp[(bang[a], n_mor)] = bang[a]
    for f in range(n_mor):
        comp[(f, bang[cat.mor_dom[f]])] = bang[cat.mor_cod[f]]
    return FiniteCategory(
        obj_names, tuple(mor_names), tuple(dom), tuple(cod), identity, comp
    )


def normal_names(cat: FiniteCategory) -> tuple[list[int], list[str]]:
    """The DSL normal form's morphism order and names, as (order, names).

    ``order[new]`` is the ref in ``cat`` of the normal form's ref ``new``:
    identities first, in object order, then the other morphisms in
    ascending ref order.  ``names[old]`` is the normal name of ref ``old``:
    ``id_<object>`` for an identity; for any other morphism its own name,
    or ``f<new>`` when that is taken or starts with ``id_``; a name still
    taken gets ``_`` appended until it is free.
    """
    order = list(cat.identity) + [
        m for m in range(cat.n_mors) if not cat.is_identity(m)
    ]
    n_obj, obj_names, mor_names = cat.n_objects, cat.object_names, cat.mor_names
    names = [""] * cat.n_mors
    used = set()
    for new, old in enumerate(order):
        if new < n_obj:
            nm = f"id_{obj_names[new]}"
        else:
            nm = mor_names[old]
            if nm in used or nm.startswith("id_"):
                nm = f"f{new}"
        while nm in used:
            nm = nm + "_"
        used.add(nm)
        names[old] = nm
    return order, names


def canonical_category(cat: FiniteCategory) -> tuple[FiniteCategory, tuple[int, ...]]:
    """Reorder morphisms so identities come first (object order) and rename
    identities ``id_{object}``; the DSL's normal form.  The order and the
    names come from ``normal_names``, which the DSL writer shares.

    Returns (category, mor_perm) where mor_perm[old_ref] = new_ref.  A
    category already in normal form (identities at refs 0..n-1 and no name
    changed) is returned itself, with the identity permutation.
    """
    order, names = normal_names(cat)
    if cat.identity == tuple(range(cat.n_objects)) and tuple(names) == cat.mor_names:
        return cat, tuple(range(cat.n_mors))
    perm = [0] * cat.n_mors
    for new, old in enumerate(order):
        perm[old] = new
    dom = tuple(cat.mor_dom[old] for old in order)
    cod = tuple(cat.mor_cod[old] for old in order)
    identity = tuple(range(cat.n_objects))
    comp = {
        (perm[g], perm[f]): perm[h] for (g, f), h in cat.comp.items()
    }
    out = FiniteCategory(
        cat.object_names, tuple(map(names.__getitem__, order)), dom, cod, identity, comp
    )
    return out, tuple(perm)
