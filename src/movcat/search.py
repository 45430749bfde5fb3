"""Bounded enumeration of functors and natural transformations, search for
(weak) functorial domination, and the designated-coproduct construction
relating a coslice over a coproduct to the product of coslices.

Functor maps and natural-transformation components are both enumerated by
one slot backtracker, ``_backtrack``, with incremental constraint propagation
(dom/cod typing, composition closure and naturality as assignments
complete).  A walked functor K -> L is a slot row: the images of the
objects of K, then those of its non-identity morphisms in ref order,
``k.n_mors`` values in all, emitted in lexicographic order.  Identity
morphisms get no slot: ``_functor`` fills in each id_x with the identity of
x's image when it builds a ``Functor`` from a row, which it does only where
a functor is read, and a composite of two non-identities that is an
identity is checked against that image.  Functor object slots are
forward-checked: once both ends of a non-identity morphism are assigned,
the target must have a morphism between their images, or the branch is cut
before any morphism slot is tried.  Every search spends one ``_Budget``,
which counts emitted candidates (not internal nodes) across all of its
phases, so pruning never moves a budget stop.  A search builds the slots of
each direction once; the strict phase pins the slots of G: L -> K anew for
each F, and the weak phase walks the same slots unpinned.

The weak domination search walks the functors F: K -> L and G: L -> K once
each per call.  As the strict phase walks the F, it appends each F's row to
one flat array of L refs; the weak phase replays the rows in the same
order, and each F spends one unit in each phase.  The first F of the weak
phase walks the G lazily and appends each G's row to one flat array of K
refs (both ``array("H")``: every ref is below MAX_MORPHISMS < 2**16); each
G spends a unit as it is stored, so no array holds more rows than the
budget, and nothing outlives the call.  When the G walk ends, one bitset
per (L-object o, K-object x) marks the G with hom_K(G(o), x) non-empty.
Each later F ANDs the bitsets at (F(x), x) over the objects x of K: what is
left are exactly the G for which every component of a phi: G.F => 1_K has
somewhere to go.  Only those G, and only the F with some G left, are built
as ``Functor`` values and searched for a phi; the units of the skipped G
are spent in bulk, so emission order and budget stops are those of the
plain nested walk.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .builders import (
    CommaResult,
    ProductResult,
    coslice_category,
    product_category,
)
from .core import (
    FiniteCategory,
    Functor,
    NaturalTransformation,
    check_ref,
    compose_functors,
    identity_functor,
    validate_functor,
    validate_nat_trans,
)
from .errors import (
    NoDesignatedCoproducts,
    SourceTargetMismatch,
    UniversalPropertyFails,
    VerificationFailed,
)

DEFAULT_BUDGET = 10**6


class _Exhausted(Exception):
    """A search spent its whole budget."""


class _Budget:
    """Counts emitted candidates, one or ``n`` at a time; the first unit
    past the budget raises _Exhausted."""

    def __init__(self, budget: int):
        self.left = budget

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise _Exhausted


def _backtrack(candidates: list, checks: list) -> Iterator[tuple[int, ...]]:
    """Yield every assignment of slots 0..n-1 in lexicographic order.

    ``candidates[i](vals)`` is the sequence of slot i's values given
    ``vals[:i]``; ``checks[i]``, when not None, is asked once slot i is set
    and prunes the branch when it answers False.  With no slots the one
    empty assignment is yielded.
    """
    n = len(candidates)
    if n == 0:
        yield ()
        return
    vals = [0] * n
    # Slot i's candidates under the current vals[:i] are values[i]; the
    # ones from index at[i] on are still to be tried.
    values, at = [()] * n, [0] * n
    values[0] = candidates[0](vals)
    i, last = 0, n - 1
    while i >= 0:
        check, vs, j = checks[i], values[i], at[i]
        while j < len(vs):
            vals[i] = vs[j]
            j += 1
            if check is None or check(vals):
                break
        else:
            i -= 1
            continue
        at[i] = j
        if i == last:
            yield tuple(vals)
        else:
            i += 1
            values[i], at[i] = candidates[i](vals), 0


def _connected(ends: list, linked: set) -> Callable[[list[int]], bool]:
    """A check that every (dom, cod) of ``ends`` has a morphism of the
    target between the images of its ends (``linked`` holds its pairs)."""

    def check(v: list[int]) -> bool:
        for d, c in ends:
            if (v[d], v[c]) not in linked:
                return False
        return True

    return check


def _closes(
    triples: list, units: list, comp: dict, ident: tuple
) -> Callable[[list[int]], bool]:
    """A check that the image of each composite closes: ``comp`` sends the
    images of slots (g, f) to the image of slot h for each (g, f, h) in
    ``triples``, and to the identity of the image of object x for each
    (g, f, x) in ``units``."""

    def check(v: list[int]) -> bool:
        for g, f, h in triples:
            if comp[(v[g], v[f])] != v[h]:
                return False
        for g, f, x in units:
            if comp[(v[g], v[f])] != ident[v[x]]:
                return False
        return True

    return check


def _functor_slots(k: FiniteCategory, l: FiniteCategory) -> tuple:
    """``(n, candidates, checks, pick)`` for ``_backtrack`` over the
    functors K -> L, where n is the number of objects of K.

    Objects are slots 0..n-1 and the non-identity morphisms of K follow in
    ref order, so there are as many slots as K has morphisms, and an
    assignment is a slot row.  Identities get no slot, since a functor
    sends id_x to the identity of the image of x.  ``pick[m]`` is morphism
    m's slot, or n_slots + x for m = id_x; ``_functor`` reads a row's maps
    through it.  Identity images depend on the objects alone, so rows come
    out in lexicographic (obj_map, mor_map) order.

    Object slot i is forward-checked on every non-identity morphism between
    distinct objects whose later end is i: its candidate list,
    hom_L(v[dom], v[cod]), must be non-empty, since every object slot comes
    before every morphism slot and an empty list ends the branch anyway.
    A composite g . f = h of two non-identities is checked at the latest of
    the slots of g, f and h; when h is an identity id_x it has no slot, and
    the check, at the later of g's and f's slots, is against
    ``l.identity[v[x]]``.  A composite with an identity factor holds by the
    identity law and is not checked.
    """
    n, dom, cod = k.n_objects, k.mor_dom, k.mor_cod
    n_slots = k.n_mors
    pick = [n_slots + d for d in dom]
    candidates = [lambda v, c=range(l.n_objects): c] * n
    # The (dom, cod) ends to forward-check, by the slot that completes them.
    ends_at: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    hom = l.hom
    for s, m in enumerate(filterfalse(k.is_identity, range(n_slots)), n):
        pick[m] = s
        d, c = dom[m], cod[m]
        candidates.append(lambda v, d=d, c=c: hom(v[d], v[c]))
        if d != c:
            ends_at[max(d, c)].add((d, c))

    # Composition checks by the morphism slot that makes them decidable:
    # (g, f, h) slots, and (g, f, x) for g . f = id_x.
    closure_at: list[list[tuple]] = [[] for _ in range(n, n_slots)]
    unit_at: list[list[tuple]] = [[] for _ in range(n, n_slots)]
    for (g, f), h in k.comp.items():
        sg, sf = pick[g], pick[f]
        if sg >= n_slots or sf >= n_slots:
            continue
        sh = pick[h]
        if sh >= n_slots:
            unit_at[max(sg, sf) - n].append((sg, sf, sh - n_slots))
        else:
            closure_at[max(sg, sf, sh) - n].append((sg, sf, sh))

    linked = set(zip(l.mor_dom, l.mor_cod)) if n_slots > n else None
    checks = [_connected(sorted(e), linked) if e else None for e in ends_at]
    checks += [
        _closes(t, u, l.comp, l.identity) if t or u else None
        for t, u in zip(closure_at, unit_at)
    ]

    return n, candidates, checks, pick


def _fill_slots(
    slots: tuple, fixed: Optional[Mapping[int, int]] = None
) -> Iterator[tuple[int, ...]]:
    """The slot rows of ``_functor_slots`` in lexicographic order, with the
    maps pinned to ``fixed``.

    ``fixed`` is keyed by object ref x and by n + m for morphism m.  Pins
    are used when searching retractions G with G(F(X)) = X and G(F(f)) = f
    forced.  A pinned morphism is not type-checked, and the checks of
    ``_functor_slots`` assume that pins type like a functor: the slots of a
    pinned morphism's endpoints are pinned to its dom and cod, and a pinned
    identity is an identity.  An identity has no slot, so its pin is
    dropped: its image follows from its object's.
    """
    n, candidates, checks, pick = slots
    if fixed:
        n_slots = len(candidates)
        candidates = candidates.copy()
        for key, value in fixed.items():
            slot = key if key < n else pick[key - n]
            if slot < n_slots:
                candidates[slot] = lambda v, c=(value,): c
    return _backtrack(candidates, checks)


def _functor(
    k: FiniteCategory, l: FiniteCategory, pick: list, row: Sequence[int]
) -> Functor:
    """The functor K -> L of a slot row, each identity's image filled in
    from its object's image."""
    obj = tuple(row[: k.n_objects])
    ext = (*row, *map(l.identity.__getitem__, obj))
    return Functor(k, l, obj, tuple(map(ext.__getitem__, pick)))


@dataclass
class FunctorEnumeration:
    """Ordered list of functors K -> L; truncated marks a budget stop."""

    functors: list[Functor]
    truncated: bool


def enumerate_functors(
    k: FiniteCategory, l: FiniteCategory, budget: int = DEFAULT_BUDGET
) -> FunctorEnumeration:
    """Enumerate all functors K -> L in lexicographic order, up to budget."""
    out: list[Functor] = []
    allowance = _Budget(budget)
    slots = _functor_slots(k, l)
    try:
        for row in _fill_slots(slots):
            allowance.spend()
            out.append(_functor(k, l, slots[3], row))
    except _Exhausted:
        return FunctorEnumeration(out, True)
    return FunctorEnumeration(out, False)


def _iter_nat_trans_components(
    f: Functor, g: Functor
) -> Iterator[tuple[int, ...]]:
    src, tgt = f.source, f.target
    n = src.n_objects
    # Naturality squares checkable once both endpoints are assigned.
    square_at: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for m in range(src.n_mors):
        a, b = src.mor_dom[m], src.mor_cod[m]
        square_at[max(a, b)].append((g.mor_map[m], a, b, f.mor_map[m]))

    def commutes(squares, comp=tgt.comp):
        def check(v: list[int]) -> bool:
            for gm, a, b, fm in squares:
                if comp[(gm, v[a])] != comp[(v[b], fm)]:
                    return False
            return True

        return check

    homs = [tgt.hom(f.obj_map[i], g.obj_map[i]) for i in range(n)]
    checks = [commutes(s) if s else None for s in square_at]
    return _backtrack([lambda v, h=h: h for h in homs], checks)


def enumerate_nat_trans(f: Functor, g: Functor) -> list[NaturalTransformation]:
    """All natural transformations F => G, enumerated by object order with
    pruning on each naturality square as soon as it is decidable."""
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("functors are not parallel")
    return [
        NaturalTransformation(f, g, comps)
        for comps in _iter_nat_trans_components(f, g)
    ]


@dataclass
class DominationResult:
    """Outcome of a domination search.

    ``found`` is None when no pair/triple was found; that is exhaustive only
    when ``truncated`` is False.
    """

    found: Optional[tuple] = None
    truncated: bool = False


def _first(found: Iterator[tuple]) -> DominationResult:
    """The first hit of a budgeted search, or None with the budget stop."""
    try:
        return DominationResult(next(found, None), False)
    except _Exhausted:
        return DominationResult(None, True)


def _retractions(
    k: FiniteCategory,
    l: FiniteCategory,
    f_slots: tuple,
    g_slots: tuple,
    budget: _Budget,
    keep: Optional[array] = None,
) -> Iterator[tuple[Functor, Functor]]:
    """Pairs (F, G) with G . F = 1_K, each re-validated, F outer.

    ``f_slots`` and ``g_slots`` are the ``_functor_slots`` of K -> L and
    L -> K; the F walk is unpinned, and each injective F pins the G slots.
    ``keep``, when given, is an array to which every F's row is appended as
    F spends its unit, so that a later phase can replay the F walk.
    """
    n_k, n_l = k.n_objects, l.n_objects
    one_k = identity_functor(k)
    for row in _fill_slots(f_slots):
        budget.spend()
        if keep is not None:
            keep.extend(row)
        # G(F(X)) = X and G(F(f)) = f, so F must be injective.
        if len(set(row[:n_k])) < n_k:
            continue
        f = _functor(k, l, f_slots[3], row)
        if len(set(f.mor_map)) < k.n_mors:
            continue
        fixed = {o: x for x, o in enumerate(f.obj_map)}
        fixed.update((n_l + t, m) for m, t in enumerate(f.mor_map))
        for g_row in _fill_slots(g_slots, fixed):
            budget.spend()
            g = _functor(l, k, g_slots[3], g_row)
            validate_functor(k, l, f.obj_map, f.mor_map)
            validate_functor(l, k, g.obj_map, g.mor_map)
            if compose_functors(g, f) != one_k:
                raise VerificationFailed("retraction constraint violated")
            yield f, g


def find_functorial_domination(
    k: FiniteCategory, l: FiniteCategory, budget: int = DEFAULT_BUDGET
) -> DominationResult:
    """Search for (F: K -> L, G: L -> K) with G . F = 1_K.

    F is the outer loop; the G search is pre-constrained by G(F(X)) = X and
    G(F(f)) = f.  The first pair found (lexicographically) is re-validated
    and returned.
    """
    slots = _functor_slots(k, l), _functor_slots(l, k)
    return _first(_retractions(k, l, *slots, _Budget(budget)))


def _weak_dominations(
    k: FiniteCategory, l: FiniteCategory, budget: _Budget
) -> Iterator[tuple[Functor, Functor, NaturalTransformation]]:
    """Triples (F, G, phi: G.F => 1_K), strict pairs first.

    The slots of F: K -> L and G: L -> K are built once, and each
    direction is walked once per call.  The strict phase appends each F's
    row to the flat buffer ``fs`` of L refs as the F spends its unit; the
    weak phase replays the rows in the same order, and each F spends a unit
    again.  The first F of the weak phase walks the G slots unpinned,
    spends a unit per G and appends the G's row to ``gs``.  No buffer holds
    more rows than the budget, and they die with the call.  A pair with an
    empty hom_K(G(F(x)), x) for some x admits no phi, so the compose and the
    phi search are skipped there.  Once the G walk ends, ``reach[o][x]`` is
    the bitset of the G with hom_K(G(o), x) non-empty, one per (L-object,
    K-object); every later F ANDs ``reach[F(x)][x]`` over x, builds
    ``Functor`` values only when some G is left, and spends the units of
    the G it skips in bulk, where the first F spent them one by one.
    """
    one_k = identity_functor(k)
    f_slots, g_slots = _functor_slots(k, l), _functor_slots(l, k)
    fs = array("H")
    # A strict pair has G . F = 1_K, checked by ``_retractions``.
    for f, g in _retractions(k, l, f_slots, g_slots, budget, fs):
        yield f, g, validate_nat_trans(k.identity, one_k, one_k)

    def phis(f: Functor, g: Functor):
        gf = compose_functors(g, f)
        for comps in _iter_nat_trans_components(gf, one_k):
            budget.spend()
            yield f, g, validate_nat_trans(comps, gf, one_k)

    f_pick, g_pick = f_slots[3], g_slots[3]
    # A row has one slot per morphism of its functor's source.
    f_width, g_width = k.n_mors, l.n_mors
    gs = array("H")
    objects = range(k.n_objects)
    # The strict phase walked every F; the empty K has one, with an empty row.
    n_f = len(fs) // f_width if f_width else 1
    for i in range(n_f):
        budget.spend()
        at = i * f_width
        if i == 0:
            f = _functor(k, l, f_pick, fs[:f_width])
            for g_row in _fill_slots(g_slots):
                budget.spend()
                gs.extend(g_row)
                if all(k.hom(g_row[fs[x]], x) for x in objects):
                    yield from phis(f, _functor(l, k, g_pick, g_row))
            # Every G was walked; the empty L has one, with an empty row.
            n_g = len(gs) // g_width if g_width else 1
            reach = _reach_bitsets(k, l, gs)
            continue
        live = (1 << n_g) - 1
        for x in objects:
            live &= reach[fs[at + x]][x]
        if not live:
            budget.spend(n_g)
            continue
        f = _functor(k, l, f_pick, fs[at : at + f_width])
        bits = format(live, "b")[::-1]
        spent = -1
        j = bits.find("1")
        while j >= 0:
            budget.spend(j - spent)
            spent = j
            g_at = j * g_width
            yield from phis(f, _functor(l, k, g_pick, gs[g_at : g_at + g_width]))
            j = bits.find("1", j + 1)
        budget.spend(n_g - 1 - spent)


def _reach_bitsets(
    k: FiniteCategory, l: FiniteCategory, gs: array
) -> list[list[int]]:
    """``reach[o][x]``: bit i set when hom_K(G_i(o), x) is non-empty, for
    the G: L -> K whose slot rows fill ``gs``; G_i(o) is read at stride
    ``l.n_mors``, the width of a row."""
    # hits[y][x] is the digit "1" when hom(y, x) is non-empty, else "0".
    # Joined over a column of G(o) values, lowest G last, the hits hold
    # every x's bitset in binary, interleaved with stride n_objects.
    n = k.n_objects
    hits = ["".join("01"[bool(k.hom(y, x))] for x in range(n)) for y in range(n)]
    reach = []
    for o in range(l.n_objects):
        column = gs[o :: l.n_mors]
        column.reverse()
        digits = "".join(map(hits.__getitem__, column))
        reach.append([int("0" + digits[x::n], 2) for x in range(n)])
    return reach


def find_weak_domination(
    k: FiniteCategory, l: FiniteCategory, budget: int = DEFAULT_BUDGET
) -> DominationResult:
    """Search for (F, G, phi: G.F => 1_K).

    Strict domination pairs are tried first (so strict domination implies a
    weak-domination hit), then general (F, G) pairs with a natural
    transformation search.  Both phases draw on the one budget.
    """
    return _first(_weak_dominations(k, l, _Budget(budget)))


@dataclass(frozen=True)
class CoproductDesignation:
    """Designated binary coproducts on a category.

    ``table[(a, b)] = (j, inj1, inj2)``; ``copair[(a, b, f, g)]`` is the
    unique mediating morphism, filled in during validation.
    """

    base: FiniteCategory
    table: dict = field(hash=False)
    copair: dict = field(hash=False)

    def pair(self, a: int, b: int) -> tuple[int, int, int]:
        """The designated ``(j, inj1, inj2)`` for objects ``a`` and ``b``.
        Raises SourceTargetMismatch when either is no object ref, and
        NoDesignatedCoproducts when the pair has no designated coproduct.
        Every key of a validated table is a pair of object refs, so only a
        pair that is not a key is checked."""
        if (a, b) not in self.table:
            for x in (a, b):
                check_ref(x, self.base.n_objects, "object", "a category")
            raise NoDesignatedCoproducts(
                f"no designated coproduct for ({self.base.object_names[a]}, "
                f"{self.base.object_names[b]})"
            )
        return self.table[(a, b)]


def validate_designation(
    base: FiniteCategory, table: Mapping[tuple[int, int], tuple[int, int, int]]
) -> CoproductDesignation:
    """Check the universal property of every designated coproduct
    exhaustively and precompute the copairing table.

    Raises UniversalPropertyFails when a mediating morphism is missing or
    not unique.
    """
    copair: dict[tuple[int, int, int, int], int] = {}
    for (a, b), (j, i1, i2) in table.items():
        if i1 not in base.hom(a, j) or i2 not in base.hom(b, j):
            raise UniversalPropertyFails(
                f"injections mistyped for pair ({a}, {b})"
            )
        for q in range(base.n_objects):
            for f in base.hom(a, q):
                for g in base.hom(b, q):
                    mediating = [
                        h
                        for h in base.hom(j, q)
                        if base.comp[(h, i1)] == f and base.comp[(h, i2)] == g
                    ]
                    if len(mediating) != 1:
                        raise UniversalPropertyFails(
                            f"pair ({a}, {b}), cocone into {q}: "
                            f"{len(mediating)} mediating morphisms"
                        )
                    copair[(a, b, f, g)] = mediating[0]
    return CoproductDesignation(base, dict(table), copair)


@dataclass
class CosliceDominationResult:
    """Weak domination of the coslice over a coproduct by the product of
    the two coslices, with the supporting constructions."""

    f: Functor
    g: Functor
    phi: NaturalTransformation
    coslice_sum: CommaResult
    product: ProductResult
    coslice_factors: tuple[CommaResult, CommaResult]


def coproduct_coslice_domination(
    c: FiniteCategory,
    designation: CoproductDesignation,
    x1: int,
    x2: int,
    coslice: Optional[Callable[[FiniteCategory, int], CommaResult]] = None,
) -> CosliceDominationResult:
    """Construct and verify coslice(C, X1 + X2) <~ coslice(C, X1) x
    coslice(C, X2).

    F restricts along the injections; G copairs into the designated
    coproduct; phi's components are the fold maps Q + Q -> Q.  Everything
    is validated before returning.  ``coslice(c, x)``, ``coslice_category``
    when omitted, must give ``coslice_category(c, x)``; it is called for the
    coproduct object, then X1, then X2, so a caller may share one coslice
    per object (the ``coproduct-coslice`` campaign law does).
    """
    if designation.base != c:
        raise SourceTargetMismatch("designation is for a different category")
    coslice = coslice or coslice_category
    j, i1, i2 = designation.pair(x1, x2)
    k_res = coslice(c, j)
    l1 = coslice(c, x1)
    l2 = coslice(c, x2)
    prod = product_category([l1.category, l2.category])
    k, p = k_res.category, prod.category

    # F pairs the restrictions of a map out of the coproduct along the two
    # injections; each restriction's morphism map reads its object map.
    def restrict(l: CommaResult, inj: int) -> tuple[list[int], list[int]]:
        obj = [l.object_index(c.comp[(fm, inj)]) for fm in k_res.objects]
        mor = [
            l.morphism_index(obj[s], obj[t], eta)
            for s, t, eta in k_res.morphism_triples
        ]
        return obj, mor

    (f_obj1, f_mor1), (f_obj2, f_mor2) = restrict(l1, i1), restrict(l2, i2)
    f = validate_functor(
        k,
        p,
        [prod.object_index(o) for o in zip(f_obj1, f_obj2)],
        [prod.morphism_index(m) for m in zip(f_mor1, f_mor2)],
    )

    # G: copair a pair of maps into the designated coproduct of the targets.
    q1s, q2s = l1.forgetful.obj_map, l2.forgetful.obj_map

    def g_object(o1: int, o2: int) -> int:
        f1 = l1.objects[o1]
        f2 = l2.objects[o2]
        _, j1, j2 = designation.pair(q1s[o1], q2s[o2])
        glued = designation.copair[(x1, x2, c.comp[(j1, f1)], c.comp[(j2, f2)])]
        return k_res.object_index(glued)

    g_obj = [g_object(o1, o2) for o1, o2 in prod.objects]
    g_mor = []
    for m, (m1, m2) in enumerate(prod.morphisms):
        s1, t1, eta1 = l1.morphism_triples[m1]
        s2, t2, eta2 = l2.morphism_triples[m2]
        _, jr1, jr2 = designation.pair(q1s[t1], q2s[t2])
        eta = designation.copair[
            (q1s[s1], q2s[s2], c.comp[(jr1, eta1)], c.comp[(jr2, eta2)])
        ]
        g_mor.append(
            k_res.morphism_index(g_obj[p.mor_dom[m]], g_obj[p.mor_cod[m]], eta)
        )
    g = validate_functor(p, k, g_obj, g_mor)

    # phi: G.F => 1_K via the fold maps Q + Q -> Q.
    gf = compose_functors(g, f)
    comps = []
    for o, fm in enumerate(k_res.objects):
        q = c.mor_cod[fm]
        fold = designation.copair[(q, q, c.identity[q], c.identity[q])]
        comps.append(k_res.morphism_index(gf.obj_map[o], o, fold))
    phi = validate_nat_trans(comps, gf, identity_functor(k))

    return CosliceDominationResult(f, g, phi, k_res, prod, (l1, l2))
