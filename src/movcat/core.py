"""Finite categories, functors, natural transformations, copresheaves, posets.

Everything is table-driven: a category stores its full composition table on
composable pairs, so every quantifier used elsewhere is finitely enumerable.
Objects and morphisms are referenced by integer index into the owning
category's tables; refs are only meaningful relative to that one category
value.  Canonical ordering is construction order, and all searches iterate
in ascending ref order, so reported witnesses are reproducible.

All values are immutable after validation and safe to share across
concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import (
    NotComposable,
    InvalidCopresheaf,
    SourceTargetMismatch,
    ValidationFailed,
    Violation,
)

#: Global size caps guarding the exponential constructions.
MAX_OBJECTS = 64
MAX_MORPHISMS = 4096


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
        homs: dict[tuple[int, int], list[int]] = {}
        for m in range(len(self.mor_names)):
            homs.setdefault((self.mor_dom[m], self.mor_cod[m]), []).append(m)
        object.__setattr__(self, "_hom", {k: tuple(v) for k, v in homs.items()})
        object.__setattr__(self, "_ids", frozenset(self.identity))

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_mors(self) -> int:
        return len(self.mor_names)

    def is_identity(self, m: int) -> bool:
        return m in self._ids

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        """All morphisms a -> b in ascending ref order."""
        return self._hom.get((a, b), ())

    def compose(self, g: int, f: int) -> int:
        """g after f.  Raises NotComposable when cod(f) != dom(g)."""
        if self.mor_cod[f] != self.mor_dom[g]:
            raise NotComposable(
                f"cod({self.mor_names[f]}) != dom({self.mor_names[g]})"
            )
        return self.comp[(g, f)]

    def mors_into(self, x: int) -> tuple[int, ...]:
        """All morphisms with codomain x, ascending."""
        return tuple(m for m in range(self.n_mors) if self.mor_cod[m] == x)


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

    composable = {
        (g, f)
        for g in range(n_mor)
        for f in range(n_mor)
        if cod[f] == dom[g]
    }
    for pair in sorted(composable):
        if pair not in comp:
            g, f = pair
            bad.append(Violation("MissingComposite", f"(g, f)=({names[g]}, {names[f]})"))
    for (g, f), h in comp.items():
        if (g, f) not in composable:
            bad.append(Violation("IllegalComposite", f"(g, f)=({g}, {f}) not composable"))
        elif not (0 <= h < n_mor) or dom[h] != dom[f] or cod[h] != cod[g]:
            bad.append(
                Violation("IllegalComposite", f"comp({names[g]}, {names[f]}) mistyped")
            )
    if bad:
        raise ValidationFailed("category", bad)

    for f in range(n_mor):
        if comp[(identity[cod[f]], f)] != f or comp[(f, identity[dom[f]])] != f:
            bad.append(Violation("IdentityLawBroken", f"f={names[f]}"))
    for g, f in sorted(composable):
        gf = comp[(g, f)]
        for h in range(n_mor):
            if cod[g] == dom[h]:
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    bad.append(
                        Violation(
                            "AssocBroken",
                            f"(h, g, f)=({names[h]}, {names[g]}, {names[f]})",
                        )
                    )
    if bad:
        raise ValidationFailed("category", bad)

    return FiniteCategory(
        object_names=tuple(object_names),
        mor_names=tuple(names),
        mor_dom=tuple(dom),
        mor_cod=tuple(cod),
        identity=tuple(identity),
        comp=dict(comp),
    )


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
    """

    base: FiniteCategory
    fibers: tuple[tuple[str, ...], ...]
    action: tuple[tuple[int, ...], ...]

    def apply(self, m: int, x: int) -> int:
        return self.action[m][x]

    def fiber_size(self, q: int) -> int:
        return len(self.fibers[q])


def validate_copresheaf(
    base: FiniteCategory,
    fibers: Sequence[Sequence[str]],
    action: Sequence[Sequence[int]],
) -> Copresheaf:
    """Check element tables and functoriality of the action.

    Raises InvalidCopresheaf naming the offending morphism or pair.
    """
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
            bad.append(Violation("BadRef", f"action of {base.mor_names[m]} partial"))
            continue
        if any(not 0 <= y < len(fibers[c]) for y in mapping):
            bad.append(
                Violation("BadRef", f"action of {base.mor_names[m]} out of range")
            )
    if bad:
        raise InvalidCopresheaf(bad)
    for a, i in enumerate(base.identity):
        if tuple(action[i]) != tuple(range(len(fibers[a]))):
            bad.append(
                Violation("FunctorialityBroken", f"id of {base.object_names[a]}")
            )
    for (g, f), gf in base.comp.items():
        af, ag, agf = action[f], action[g], action[gf]
        for x in range(len(af)):
            if ag[af[x]] != agf[x]:
                bad.append(
                    Violation(
                        "FunctorialityBroken",
                        f"(g, f)=({base.mor_names[g]}, {base.mor_names[f]})",
                    )
                )
                break
    if bad:
        raise InvalidCopresheaf(bad)
    return Copresheaf(
        base,
        tuple(tuple(ns) for ns in fibers),
        tuple(tuple(mp) for mp in action),
    )


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
    closure and checks antisymmetry."""
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
            bad.append(
                Violation(
                    "AntisymmetryBroken", f"({elements[i]}, {elements[j]})"
                )
            )
    if bad:
        raise ValidationFailed("poset", bad)
    return FinitePoset(tuple(elements), frozenset(rel))
