"""Finite categories, functors, natural transformations, copresheaves, posets.

Everything is table-driven: a category stores its full composition table on
composable pairs, so every quantifier used elsewhere is finitely enumerable.
Objects and morphisms are referenced by integer index into the owning
category's tables; refs are only meaningful relative to that one category
value.  Canonical ordering is construction order, and all searches iterate
in ascending ref order, so reported witnesses are reproducible.  A category
groups its morphisms by codomain and by domain once, when it is built
(``mors_into``, ``mors_out_of``), and into hom-sets by (domain, codomain)
in one pass over its morphisms (``hom``; the morphisms after the first of a
hom-set wait in a list, so a hom-set of k morphisms costs time linear in
k); callers read these rather than rescan its morphisms.

``check_size`` is the one comparison against the size caps; the reader and
every derived construction in ``builders`` call it before they build.

The validators skip only work whose outcome their earlier checks fix, so
they report the same violations in the same order as scans over every
pair and triple.  ``validate_category`` counts the composites before it
scans for missing ones: when every key of the table is a composable pair
and there are as many keys as composable pairs, none can be missing, so it
scans for them only when a stray key or a count gap could hide one.  It
compares a composable triple only where its two composites can differ (a
hom-set of two or more morphisms), so a thin category skips that pass.
``make_poset`` closes its relation by walking successors while adding
pairs in the order that probing every element would.

All values are immutable after validation and safe to share across
concurrent readers.  The one field stored later is a copresheaf's
``_elements``, its category of elements, which the first
``builders.elements_category`` call on that value sets (readers racing on
it store equal values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidCopresheaf,
    SizeBoundExceeded,
    SourceTargetMismatch,
    ValidationFailed,
    Violation,
)

#: Global size caps guarding the exponential constructions.
MAX_OBJECTS = 64
MAX_MORPHISMS = 4096


def check_size(what: str, n_objects: int, n_mors: int) -> None:
    """Raise SizeBoundExceeded when ``what``, with ``n_objects`` objects and
    ``n_mors`` morphisms, is over MAX_OBJECTS or MAX_MORPHISMS."""
    if n_objects > MAX_OBJECTS or n_mors > MAX_MORPHISMS:
        raise SizeBoundExceeded(
            f"{what} has {n_objects} objects / {n_mors} morphisms, over the "
            f"caps of {MAX_OBJECTS} / {MAX_MORPHISMS}"
        )


def check_ref(ref: int, n: int, what: str, among: str) -> None:
    """Raise SourceTargetMismatch, naming ``what`` and ``among``, unless
    ``ref`` is in ``range(n)``; a negative ref, which would index from the
    end, is refused too."""
    if ref not in range(n):
        raise SourceTargetMismatch(f"no {what} {ref} in {among} of {n}")


def group_by(ends: Sequence[int], n: int) -> list[list[int]]:
    """Refs ``0..len(ends)-1`` grouped by ``ends[ref]`` in ``range(n)``,
    each group ascending."""
    groups: list[list[int]] = [[] for _ in range(n)]
    for ref, end in enumerate(ends):
        groups[end].append(ref)
    return groups


@dataclass(frozen=True, eq=True)
class FiniteCategory:
    """A finite category given by explicit tables.

    ``comp[(g, f)]`` is defined exactly when ``cod(f) == dom(g)`` and holds
    the ref of ``g after f``.
    """

    object_names: tuple[str, ...]
    mor_names: tuple[str, ...]
    mor_dom: tuple[int, ...]
    mor_cod: tuple[int, ...]
    identity: tuple[int, ...]
    comp: dict = field(hash=False)

    def __post_init__(self):
        hom: dict[tuple[int, int], tuple[int, ...]] = {}
        # Morphisms after the first of their hom-set, in lists, so that a
        # large hom-set is not copied once per morphism.
        more = None
        for m, key in enumerate(zip(self.mor_dom, self.mor_cod)):
            if key not in hom:
                hom[key] = (m,)
            elif more is None:
                more = {key: [m]}
            elif key in more:
                more[key].append(m)
            else:
                more[key] = [m]
        if more:
            for key, ms in more.items():
                hom[key] += tuple(ms)
        object.__setattr__(self, "_hom", hom)
        n = len(self.object_names)
        object.__setattr__(self, "_into", tuple(map(tuple, group_by(self.mor_cod, n))))
        object.__setattr__(self, "_out", tuple(map(tuple, group_by(self.mor_dom, n))))

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_mors(self) -> int:
        return len(self.mor_names)

    @property
    def thin(self) -> bool:
        """True when every hom-set holds at most one morphism."""
        return len(self._hom) == len(self.mor_names)

    def is_identity(self, m: int) -> bool:
        return self.identity[self.mor_dom[m]] == m

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        """All morphisms a -> b in ascending ref order."""
        return self._hom.get((a, b), ())

    def mors_into(self, x: int) -> tuple[int, ...]:
        """All morphisms with codomain x, ascending."""
        return self._into[x]

    def mors_out_of(self, x: int) -> tuple[int, ...]:
        """All morphisms with domain x, ascending."""
        return self._out[x]


def validate_category(
    object_names: Sequence[str],
    morphisms: Sequence[tuple[str, int, int]],
    identity: Sequence[int],
    comp: Mapping[tuple[int, int], int],
) -> FiniteCategory:
    """Validate raw tables against the category axioms.

    Raises ValidationFailed listing every violation (MissingComposite,
    IllegalComposite, IdentityLawBroken, AssocBroken, ...), each naming the
    offending pair or triple.

    Associativity is compared only for triples (h, g, f) whose hom-set
    hom(dom f, cod h) holds two or more morphisms.  By then every composite
    is typed, so both sides of the triple lie in that hom-set, and a
    one-morphism hom-set cannot tell them apart.  The violations and their
    order are those of comparing every composable triple.
    """
    bad: list[Violation] = []
    n_obj = len(object_names)
    n_mor = len(morphisms)
    if len(set(object_names)) != n_obj:
        bad.append(Violation("DuplicateName", "object names not unique"))
    names = [m[0] for m in morphisms]
    if len(set(names)) != n_mor:
        bad.append(Violation("DuplicateName", "morphism names not unique"))
    dom = [m[1] for m in morphisms]
    cod = [m[2] for m in morphisms]
    for i, (d, c) in enumerate(zip(dom, cod)):
        if not (0 <= d < n_obj and 0 <= c < n_obj):
            bad.append(Violation("BadRef", f"morphism {i} has dom/cod out of range"))
    if len(identity) != n_obj:
        bad.append(Violation("BadRef", "identity table size != object count"))
    else:
        for a, i in enumerate(identity):
            if not (0 <= i < n_mor) or dom[i] != a or cod[i] != a:
                bad.append(Violation("BadRef", f"identity of object {a} mistyped"))
    if bad:
        raise ValidationFailed("category", bad)

    # Each pass visits only what can compose: f into dom(g), h out of cod(g).
    cat = FiniteCategory(
        tuple(object_names), tuple(names), tuple(dom), tuple(cod),
        tuple(identity), dict(comp),
    )
    illegal: list[Violation] = []
    stray = False
    for (g, f), h in comp.items():
        if not (0 <= g < n_mor and 0 <= f < n_mor and cod[f] == dom[g]):
            stray = True
            illegal.append(
                Violation("IllegalComposite", f"(g, f)=({g}, {f}) not composable")
            )
        elif not (0 <= h < n_mor) or dom[h] != dom[f] or cod[h] != cod[g]:
            illegal.append(
                Violation("IllegalComposite", f"comp({names[g]}, {names[f]}) mistyped")
            )
    # When every key is a composable pair, the keys are all of them exactly
    # when there are as many keys as pairs (g, f) meeting at some object x;
    # only otherwise can a composite be missing.
    n_pairs = sum(
        len(cat.mors_into(x)) * len(cat.mors_out_of(x)) for x in range(n_obj)
    )
    if stray or len(comp) != n_pairs:
        for g in range(n_mor):
            for f in cat.mors_into(dom[g]):
                if (g, f) not in comp:
                    detail = f"(g, f)=({names[g]}, {names[f]})"
                    bad.append(Violation("MissingComposite", detail))
    bad += illegal
    if bad:
        raise ValidationFailed("category", bad)

    for f in range(n_mor):
        if comp[(identity[cod[f]], f)] != f or comp[(f, identity[dom[f]])] != f:
            bad.append(Violation("IdentityLawBroken", f"f={names[f]}"))
    # A thin category has nothing to compare.
    if not cat.thin:
        # multi[a]: the b with two or more morphisms a -> b.
        multi = [set() for _ in range(n_obj)]
        for (a, b), ms in cat._hom.items():
            if len(ms) > 1:
                multi[a].add(b)
        for g in range(n_mor):
            out = cat.mors_out_of(cod[g])
            for f in cat.mors_into(dom[g]):
                targets = multi[dom[f]]
                if not targets:
                    continue
                gf = comp[(g, f)]
                for h in out:
                    if cod[h] in targets and comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                        bad.append(
                            Violation(
                                "AssocBroken",
                                f"(h, g, f)=({names[h]}, {names[g]}, {names[f]})",
                            )
                        )
    if bad:
        raise ValidationFailed("category", bad)
    return cat


@dataclass(frozen=True, eq=True)
class Functor:
    """A functor between two finite categories, as explicit ref maps."""

    source: FiniteCategory
    target: FiniteCategory
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]


def validate_functor(
    source: FiniteCategory,
    target: FiniteCategory,
    obj_map: Sequence[int],
    mor_map: Sequence[int],
) -> Functor:
    """Check dom/cod preservation, identities, and composition.

    Violation codes: DomCodBroken, IdentityNotPreserved,
    CompositionNotPreserved.
    """
    bad: list[Violation] = []
    if len(obj_map) != source.n_objects or len(mor_map) != source.n_mors:
        raise ValidationFailed("functor", [Violation("BadRef", "map size mismatch")])
    for a, b in enumerate(obj_map):
        if not 0 <= b < target.n_objects:
            raise ValidationFailed("functor", [Violation("BadRef", f"object {a}")])
    for m, fm in enumerate(mor_map):
        if not 0 <= fm < target.n_mors:
            raise ValidationFailed("functor", [Violation("BadRef", f"morphism {m}")])
        if (
            target.mor_dom[fm] != obj_map[source.mor_dom[m]]
            or target.mor_cod[fm] != obj_map[source.mor_cod[m]]
        ):
            bad.append(Violation("DomCodBroken", f"f={source.mor_names[m]}"))
    for a in range(source.n_objects):
        if mor_map[source.identity[a]] != target.identity[obj_map[a]]:
            bad.append(
                Violation("IdentityNotPreserved", f"A={source.object_names[a]}")
            )
    if not bad:
        for (g, f), gf in source.comp.items():
            if target.comp[(mor_map[g], mor_map[f])] != mor_map[gf]:
                bad.append(
                    Violation(
                        "CompositionNotPreserved",
                        f"(g, f)=({source.mor_names[g]}, {source.mor_names[f]})",
                    )
                )
    if bad:
        raise ValidationFailed("functor", bad)
    return Functor(source, target, tuple(obj_map), tuple(mor_map))


def identity_functor(cat: FiniteCategory) -> Functor:
    return Functor(
        cat, cat, tuple(range(cat.n_objects)), tuple(range(cat.n_mors))
    )


def compose_functors(g: Functor, f: Functor) -> Functor:
    """g after f.  Raises SourceTargetMismatch when target(f) != source(g)."""
    if f.target != g.source:
        raise SourceTargetMismatch("target of inner functor != source of outer")
    return Functor(
        f.source,
        g.target,
        tuple(g.obj_map[a] for a in f.obj_map),
        tuple(g.mor_map[m] for m in f.mor_map),
    )


@dataclass(frozen=True, eq=True)
class NaturalTransformation:
    """A component family connecting two parallel functors."""

    source: Functor
    target: Functor
    components: tuple[int, ...]


def validate_nat_trans(
    components: Sequence[int], f: Functor, g: Functor
) -> NaturalTransformation:
    """Check component typing and every naturality square.

    Violation codes: ComponentTypeError, NaturalitySquareBroken (listing the
    failing square as (A, f: A->B)).
    """
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("functors are not parallel")
    src, tgt = f.source, f.target
    if len(components) != src.n_objects:
        raise ValidationFailed(
            "nat-trans", [Violation("BadRef", "component count mismatch")]
        )
    bad: list[Violation] = []
    for a, c in enumerate(components):
        if (
            not 0 <= c < tgt.n_mors
            or tgt.mor_dom[c] != f.obj_map[a]
            or tgt.mor_cod[c] != g.obj_map[a]
        ):
            bad.append(Violation("ComponentTypeError", f"A={src.object_names[a]}"))
    if bad:
        raise ValidationFailed("nat-trans", bad)
    for m in range(src.n_mors):
        a, b = src.mor_dom[m], src.mor_cod[m]
        left = tgt.comp[(g.mor_map[m], components[a])]
        right = tgt.comp[(components[b], f.mor_map[m])]
        if left != right:
            bad.append(
                Violation(
                    "NaturalitySquareBroken",
                    f"(A, f)=({src.object_names[a]}, {src.mor_names[m]})",
                )
            )
    if bad:
        raise ValidationFailed("nat-trans", bad)
    return NaturalTransformation(f, g, tuple(components))


def identity_nat_trans(f: Functor) -> NaturalTransformation:
    comps = tuple(f.target.identity[f.obj_map[a]] for a in range(f.source.n_objects))
    return NaturalTransformation(f, f, comps)


@dataclass(frozen=True, eq=True)
class Copresheaf:
    """A finite-set-valued functor on a finite category.

    ``fibers[q]`` lists the element names over object q; ``action[m]`` maps
    element indices of the dom fiber to element indices of the cod fiber.
    Building one checks the element tables and functoriality of the action,
    raising InvalidCopresheaf naming the offending morphism or pair: table
    sizes first, then duplicate names, partial maps and maps out of range,
    then identities and each composable pair, reported once at its first
    failing element (a pair out of an empty fiber has none).  The
    first ``builders.elements_category`` call stores its category of
    elements in ``_elements``, so each value builds it once.
    """

    base: FiniteCategory
    fibers: tuple[tuple[str, ...], ...]
    action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        base = self.base
        fibers = tuple(map(tuple, self.fibers))
        action = tuple(map(tuple, self.action))
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_elements", None)
        bad: list[Violation] = []
        if len(fibers) != base.n_objects or len(action) != base.n_mors:
            raise InvalidCopresheaf([Violation("BadRef", "table size mismatch")])
        for q, names in enumerate(fibers):
            if len(set(names)) != len(names):
                bad.append(
                    Violation("DuplicateName", f"fiber of {base.object_names[q]}")
                )
        for m, mapping in enumerate(action):
            d, c = base.mor_dom[m], base.mor_cod[m]
            if len(mapping) != len(fibers[d]):
                bad.append(
                    Violation("BadRef", f"action of {base.mor_names[m]} partial")
                )
                continue
            if mapping and (min(mapping) < 0 or max(mapping) >= len(fibers[c])):
                bad.append(
                    Violation("BadRef", f"action of {base.mor_names[m]} out of range")
                )
        if bad:
            raise InvalidCopresheaf(bad)
        for a, i in enumerate(base.identity):
            if action[i] != tuple(range(len(fibers[a]))):
                bad.append(
                    Violation("FunctorialityBroken", f"id of {base.object_names[a]}")
                )
        for (g, f), gf in base.comp.items():
            af = action[f]
            if not af:
                continue
            ag, agf = action[g], action[gf]
            for x, y in enumerate(af):
                if ag[y] != agf[x]:
                    bad.append(
                        Violation(
                            "FunctorialityBroken",
                            f"(g, f)=({base.mor_names[g]}, {base.mor_names[f]})",
                        )
                    )
                    break
        if bad:
            raise InvalidCopresheaf(bad)


@dataclass(frozen=True, eq=True)
class FinitePoset:
    """A finite poset as a reflexive-transitive-antisymmetric relation."""

    elements: tuple[str, ...]
    relation: frozenset  # pairs (i, j) with i <= j

    @property
    def n(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self.relation

    def up_set(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if (i, j) in self.relation)

    def down_set(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if (j, i) in self.relation)

    def upper_bounds(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(
            k
            for k in range(self.n)
            if (i, k) in self.relation and (j, k) in self.relation
        )

    @property
    def directed(self) -> bool:
        """True when every pair of elements has an upper bound."""
        return all(
            self.upper_bounds(i, j) for i in range(self.n) for j in range(i, self.n)
        )

    def strict_pairs(self) -> list[tuple[int, int]]:
        """All (i, j) with i < j strictly, in (i, j) order."""
        return sorted((i, j) for (i, j) in self.relation if i != j)


def make_poset(
    elements: Sequence[str], pairs: Iterable[tuple[int, int]]
) -> FinitePoset:
    """Build a poset from generating pairs; applies reflexive-transitive
    closure and checks antisymmetry.

    The closure is a fixpoint over the pairs of the relation; a visit of
    (i, j) adds each missing (i, k) with j <= k, in ascending k.  The pairs
    are added in the order of the all-elements fixpoint that probes every k,
    which fixes the iteration order of ``relation`` and of the
    AntisymmetryBroken list (and so of ``validate_system``'s BondMissing
    list)."""
    n = len(elements)
    bad: list[Violation] = []
    if len(set(elements)) != n:
        bad.append(Violation("DuplicateName", "poset elements not unique"))
    rel = {(i, i) for i in range(n)}
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            bad.append(Violation("BadRef", f"leq pair ({i}, {j})"))
        else:
            rel.add((i, j))
    if bad:
        raise ValidationFailed("poset", bad)
    # succ[j] is j's successors in rel.  A visit of (i, j) adds the pairs
    # (i, k) for the k in succ[j] - succ[i] in ascending order, which is
    # what probing every k in range(n) adds, in the same sequence: succ[j]
    # cannot change during the visit, since i == j adds nothing.
    succ: list[set[int]] = [set() for _ in range(n)]
    for i, j in rel:
        succ[i].add(j)
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            new = succ[j] - succ[i]
            if new:
                succ[i] |= new
                rel.update([(i, k) for k in sorted(new)])
                changed = True
    for i, j in rel:
        if i != j and (j, i) in rel:
            bad.append(
                Violation(
                    "AntisymmetryBroken", f"({elements[i]}, {elements[j]})"
                )
            )
    if bad:
        raise ValidationFailed("poset", bad)
    return FinitePoset(tuple(elements), frozenset(rel))
