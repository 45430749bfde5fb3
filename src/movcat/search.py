"""Bounded enumeration of functors and natural transformations, search for
(weak) functorial domination, and the designated-coproduct construction
relating a coslice over a coproduct to the product of coslices.

All enumeration is backtracking with incremental constraint propagation
(dom/cod typing, identity preservation, composition closure as assignments
complete) and emits in lexicographic obj-map/mor-map order.  Budgets count
emitted candidates, not internal nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .builders import (
    CosliceResult,
    ProductResult,
    coslice_category,
    product_category,
)
from .core import (
    FiniteCategory,
    Functor,
    NaturalTransformation,
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


def _iter_functor_maps(
    k: FiniteCategory,
    l: FiniteCategory,
    fixed_obj: Optional[Mapping[int, int]] = None,
    fixed_mor: Optional[Mapping[int, int]] = None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Backtrack over (obj_map, mor_map) pairs in lexicographic order.

    fixed_obj / fixed_mor pin individual assignments (used when searching
    retractions G with G(F(X)) = X forced).
    """
    fixed_obj = fixed_obj or {}
    fixed_mor = fixed_mor or {}
    n_obj, n_mor = k.n_objects, k.n_mors

    # Composition checks that become decidable once morphism m is assigned.
    closure_at: list[list[tuple[int, int, int]]] = [[] for _ in range(n_mor)]
    for (g, f), h in k.comp.items():
        closure_at[max(g, f, h)].append((g, f, h))

    obj_map = [0] * n_obj
    mor_map = [0] * n_mor

    def assign_objects(i: int) -> Iterator[None]:
        if i == n_obj:
            yield None
            return
        candidates = (
            (fixed_obj[i],) if i in fixed_obj else range(l.n_objects)
        )
        for o in candidates:
            if not 0 <= o < l.n_objects:
                continue
            obj_map[i] = o
            yield from assign_objects(i + 1)

    def mor_candidates(m: int) -> tuple[int, ...]:
        d = obj_map[k.mor_dom[m]]
        c = obj_map[k.mor_cod[m]]
        if k.is_identity(m):
            want = l.identity[d] if d == c else None
            base = (want,) if want is not None else ()
        else:
            base = l.hom(d, c)
        if m in fixed_mor:
            return tuple(x for x in base if x == fixed_mor[m])
        return base

    def assign_mors(m: int) -> Iterator[None]:
        if m == n_mor:
            yield None
            return
        for cand in mor_candidates(m):
            mor_map[m] = cand
            ok = all(
                l.comp[(mor_map[g], mor_map[f])] == mor_map[h]
                for (g, f, h) in closure_at[m]
            )
            if ok:
                yield from assign_mors(m + 1)

    for _ in assign_objects(0):
        for _ in assign_mors(0):
            yield tuple(obj_map), tuple(mor_map)


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
    for obj_map, mor_map in _iter_functor_maps(k, l):
        if len(out) >= budget:
            return FunctorEnumeration(out, True)
        out.append(Functor(k, l, obj_map, mor_map))
    return FunctorEnumeration(out, False)


def _iter_nat_trans_components(
    f: Functor, g: Functor
) -> Iterator[tuple[int, ...]]:
    src, tgt = f.source, f.target
    n = src.n_objects
    # Naturality squares checkable once both endpoints are assigned.
    square_at: list[list[int]] = [[] for _ in range(max(n, 1))]
    for m in range(src.n_mors):
        a, b = src.mor_dom[m], src.mor_cod[m]
        square_at[max(a, b)].append(m)
    comps = [0] * n

    def assign(i: int) -> Iterator[None]:
        if i == n:
            yield None
            return
        for c in tgt.hom(f.obj_map[i], g.obj_map[i]):
            comps[i] = c
            ok = all(
                tgt.comp[(g.mor_map[m], comps[src.mor_dom[m]])]
                == tgt.comp[(comps[src.mor_cod[m]], f.mor_map[m])]
                for m in square_at[i]
            )
            if ok:
                yield from assign(i + 1)

    if n == 0:
        yield ()
        return
    for _ in assign(0):
        yield tuple(comps)


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


def find_functorial_domination(
    k: FiniteCategory, l: FiniteCategory, budget: int = DEFAULT_BUDGET
) -> DominationResult:
    """Search for (F: K -> L, G: L -> K) with G . F = 1_K.

    F is the outer loop; the G search is pre-constrained by G(F(X)) = X and
    G(F(f)) = f.  The first pair found (lexicographically) is re-validated
    and returned.
    """
    return _strict_search(k, l, budget)[0]


def _strict_search(
    k: FiniteCategory, l: FiniteCategory, budget: int
) -> tuple[DominationResult, int]:
    """`find_functorial_domination`, also returning the budget it spent."""
    emitted = 0
    for f_obj, f_mor in _iter_functor_maps(k, l):
        emitted += 1
        if emitted > budget:
            return DominationResult(None, True), emitted
        fixed_obj: dict[int, int] = {}
        fixed_mor: dict[int, int] = {}
        ok = True
        for x in range(k.n_objects):
            img = f_obj[x]
            if fixed_obj.get(img, x) != x:
                ok = False
                break
            fixed_obj[img] = x
        if ok:
            for m in range(k.n_mors):
                img = f_mor[m]
                if fixed_mor.get(img, m) != m:
                    ok = False
                    break
                fixed_mor[img] = m
        if not ok:
            continue
        for g_obj, g_mor in _iter_functor_maps(l, k, fixed_obj, fixed_mor):
            emitted += 1
            if emitted > budget:
                return DominationResult(None, True), emitted
            f = validate_functor(k, l, f_obj, f_mor)
            g = validate_functor(l, k, g_obj, g_mor)
            if compose_functors(g, f) != identity_functor(k):
                raise VerificationFailed("retraction constraint violated")
            return DominationResult((f, g), False), emitted
    return DominationResult(None, False), emitted


def find_weak_domination(
    k: FiniteCategory, l: FiniteCategory, budget: int = DEFAULT_BUDGET
) -> DominationResult:
    """Search for (F, G, phi: G.F => 1_K).

    Strict domination pairs are tried first (so strict domination implies a
    weak-domination hit), then general (F, G) pairs with a natural
    transformation search.  Both phases draw on the one budget.
    """
    strict, emitted = _strict_search(k, l, budget)
    if strict.found is not None:
        f, g = strict.found
        phi = validate_nat_trans(
            k.identity, compose_functors(g, f), identity_functor(k)
        )
        return DominationResult((f, g, phi), False)
    if strict.truncated:
        return DominationResult(None, True)
    one_k = identity_functor(k)
    for f_obj, f_mor in _iter_functor_maps(k, l):
        emitted += 1
        if emitted > budget:
            return DominationResult(None, True)
        f = Functor(k, l, f_obj, f_mor)
        for g_obj, g_mor in _iter_functor_maps(l, k):
            emitted += 1
            if emitted > budget:
                return DominationResult(None, True)
            g = Functor(l, k, g_obj, g_mor)
            gf = compose_functors(g, f)
            for comps in _iter_nat_trans_components(gf, one_k):
                emitted += 1
                if emitted > budget:
                    return DominationResult(None, True)
                phi = validate_nat_trans(comps, gf, one_k)
                return DominationResult((f, g, phi), False)
    return DominationResult(None, False)


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
        if (a, b) not in self.table:
            raise NoDesignatedCoproducts(
                f"no designated coproduct for ({self.base.object_names[a]}, "
                f"{self.base.object_names[b]})"
            )
        return self.table[(a, b)]

    def fold(self, a: int, b: int, f: int, g: int) -> int:
        return self.copair[(a, b, f, g)]


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
    coslice_sum: CosliceResult
    product: ProductResult
    coslice_factors: tuple[CosliceResult, CosliceResult]

    def __iter__(self):
        return iter((self.f, self.g, self.phi))


def coproduct_coslice_domination(
    c: FiniteCategory,
    designation: CoproductDesignation,
    x1: int,
    x2: int,
) -> CosliceDominationResult:
    """Construct and verify coslice(C, X1 + X2) <~ coslice(C, X1) x
    coslice(C, X2).

    F restricts along the injections; G copairs into the designated
    coproduct; phi's components are the fold maps Q + Q -> Q.  Everything
    is validated before returning.
    """
    if designation.base != c:
        raise SourceTargetMismatch("designation is for a different category")
    j, i1, i2 = designation.pair(x1, x2)
    k_res = coslice_category(c, j)
    l1 = coslice_category(c, x1)
    l2 = coslice_category(c, x2)
    prod = product_category([l1.category, l2.category])
    k = k_res.category

    # F: restrict a map out of the coproduct along the two injections.
    f_obj = []
    for fm in k_res.object_mors:
        o1 = l1.object_index(c.comp[(fm, i1)])
        o2 = l2.object_index(c.comp[(fm, i2)])
        f_obj.append(prod.object_index([o1, o2]))
    f_mor = []
    for (src, tgt, eta) in k_res.morphism_triples:
        fs, ft = k_res.object_mors[src], k_res.object_mors[tgt]
        m1 = l1.morphism_index(
            l1.object_index(c.comp[(fs, i1)]), l1.object_index(c.comp[(ft, i1)]), eta
        )
        m2 = l2.morphism_index(
            l2.object_index(c.comp[(fs, i2)]), l2.object_index(c.comp[(ft, i2)]), eta
        )
        f_mor.append(prod.morphism_index([m1, m2]))
    f = validate_functor(k, prod.category, f_obj, f_mor)

    # G: copair a pair of maps into the designated coproduct of the targets.
    def g_object(o: int) -> int:
        o1, o2 = prod.object_components(o)
        f1 = l1.object_mors[o1]
        f2 = l2.object_mors[o2]
        q1, q2 = c.mor_cod[f1], c.mor_cod[f2]
        qj, j1, j2 = designation.pair(q1, q2)
        glued = designation.fold(x1, x2, c.comp[(j1, f1)], c.comp[(j2, f2)])
        return k_res.object_index(glued)

    g_obj = [g_object(o) for o in range(prod.category.n_objects)]
    g_mor = []
    for m in range(prod.category.n_mors):
        m1, m2 = prod.morphism_components(m)
        s1, t1, eta1 = l1.morphism_triples[m1]
        s2, t2, eta2 = l2.morphism_triples[m2]
        q1 = c.mor_cod[l1.object_mors[s1]]
        q2 = c.mor_cod[l2.object_mors[s2]]
        r1 = c.mor_cod[l1.object_mors[t1]]
        r2 = c.mor_cod[l2.object_mors[t2]]
        _, jr1, jr2 = designation.pair(r1, r2)
        eta = designation.fold(q1, q2, c.comp[(jr1, eta1)], c.comp[(jr2, eta2)])
        src = g_object(prod.object_index([s1, s2]))
        tgt = g_object(prod.object_index([t1, t2]))
        g_mor.append(k_res.morphism_index(src, tgt, eta))
    g = validate_functor(prod.category, k, g_obj, g_mor)

    # phi: G.F => 1_K via the fold maps Q + Q -> Q.
    gf = compose_functors(g, f)
    comps = []
    for o, fm in enumerate(k_res.object_mors):
        q = c.mor_cod[fm]
        fold = designation.fold(q, q, c.identity[q], c.identity[q])
        comps.append(k_res.morphism_index(gf.obj_map[o], o, fold))
    phi = validate_nat_trans(comps, gf, identity_functor(k))

    return CosliceDominationResult(f, g, phi, k_res, prod, (l1, l2))
