"""The `.cat` text format: parser and canonical serializer.

A document is an ordered list of named entities (poset, monoid, category,
functor, nattrans, copresheaf, system, coproducts); later entities refer to
earlier ones by name.  The grammar is ASCII and line-oriented with `;`
separators and `#` comments.  Parsing is followed by validation of every
entity, so no parse ever accepts an entity its validator rejects.

Canonical serialization: entities in document order (which is a dependency
order), members in ref order, one declaration per line.  Categories are
stored in normal form (identities first, named ``id_<object>``), which is
what makes parse . serialize the identity on tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Union

from .builders import (
    build_monoid_category,
    build_poset_category,
    canonical_category,
)
from .core import (
    MAX_MORPHISMS,
    MAX_OBJECTS,
    Copresheaf,
    FiniteCategory,
    FinitePoset,
    Functor,
    NaturalTransformation,
    make_poset,
    validate_category,
    validate_copresheaf,
    validate_functor,
    validate_nat_trans,
)
from .errors import (
    DslSyntaxError,
    SizeBoundExceeded,
    UnresolvedReference,
    ValidationFailed,
    Violation,
)
from .search import CoproductDesignation, validate_designation
from .systems import InverseSystem, SystemCone, make_cone, validate_system

# ---------------------------------------------------------------------------
# Entities


@dataclass(frozen=True)
class PosetEntity:
    name: str
    poset: FinitePoset

    @cached_property
    def category(self) -> FiniteCategory:
        """The poset's thin category, built once per entity."""
        return build_poset_category(self.poset)


@dataclass(frozen=True)
class MonoidEntity:
    name: str
    elements: tuple[str, ...]
    unit: int
    table: tuple[tuple[int, ...], ...]
    category: FiniteCategory = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Built at construction, so a non-monoid table is rejected here.
        category = build_monoid_category(self.elements, self.unit, self.table)
        object.__setattr__(self, "category", category)


@dataclass(frozen=True)
class CategoryEntity:
    name: str
    category: FiniteCategory


@dataclass(frozen=True)
class FunctorEntity:
    name: str
    source_name: str
    target_name: str
    functor: Functor


@dataclass(frozen=True)
class NatTransEntity:
    name: str
    from_name: str
    to_name: str
    transformation: NaturalTransformation


@dataclass(frozen=True)
class CopresheafEntity:
    name: str
    base_name: str
    copresheaf: Copresheaf


@dataclass(frozen=True)
class SystemEntity:
    name: str
    category_name: str
    poset_name: str
    copresheaf_name: Optional[str]
    system: InverseSystem
    cone: Optional[SystemCone]


@dataclass(frozen=True)
class CoproductsEntity:
    name: str
    base_name: str
    designation: CoproductDesignation


Entity = Union[
    PosetEntity,
    MonoidEntity,
    CategoryEntity,
    FunctorEntity,
    NatTransEntity,
    CopresheafEntity,
    SystemEntity,
    CoproductsEntity,
]


def _kind(cls: type) -> str:
    """The DSL keyword of an entity class: ``CategoryEntity`` -> ``category``."""
    return cls.__name__.removesuffix("Entity").lower()


@dataclass
class Document:
    """Ordered, name-resolved collection of entities."""

    entities: list = field(default_factory=list)

    def __getitem__(self, name: str) -> Entity:
        for e in self.entities:
            if e.name == name:
                return e
        raise UnresolvedReference(name)

    def __contains__(self, name: str) -> bool:
        return any(e.name == name for e in self.entities)

    def add(self, entity: Entity) -> None:
        if entity.name in self:
            raise ValidationFailed(
                "document", [Violation("DuplicateName", entity.name)]
            )
        self.entities.append(entity)

    def get(self, name: str, *kinds: type) -> Entity:
        """The entity ``name``, which must be an instance of one of
        ``kinds``; raises UnresolvedReference naming both otherwise."""
        e = self[name]
        if not isinstance(e, kinds):
            raise UnresolvedReference(
                f"{name} is a {_kind(type(e))}, expected "
                + " or ".join(map(_kind, kinds))
            )
        return e

    def category_of(self, name: str) -> FiniteCategory:
        """The category denoted by a category, poset, or monoid entity."""
        return self.get(name, CategoryEntity, PosetEntity, MonoidEntity).category

    def __eq__(self, other) -> bool:
        return isinstance(other, Document) and self.entities == other.entities


def make_category_entity(name: str, category: FiniteCategory) -> CategoryEntity:
    """Wrap a category for a document, normalizing it to DSL form."""
    canon, _ = canonical_category(category)
    return CategoryEntity(name, canon)


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "punct" | "eof"
    value: str
    line: int
    col: int


_PUNCT2 = ("->", "=>")
_PUNCT1 = ";{}:="


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i : i + 2] in _PUNCT2:
            toks.append(_Token("punct", text[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            toks.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(line, col, "identifier or punctuation", ch)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, part: str) -> bool:
        """Whether the next token matches `part`, one entry of a shape."""
        t = self.peek()
        return t.kind == "ident" if part == "_" else t.value == part

    def read(self, *shape: str) -> list:
        """Read tokens by shape and return the identifiers in order.

        ``"_"`` is one identifier, returned as its token; ``"*"`` is one or
        more identifiers, returned as a list of names; any other entry is
        that exact keyword or punctuation, checked and dropped.
        """
        out: list = []
        for part in shape:
            t = self.next()
            if part == "_" or part == "*":
                if t.kind != "ident":
                    raise DslSyntaxError(
                        t.line, t.col, "identifier", t.value or "<eof>"
                    )
                if part == "_":
                    out.append(t)
                    continue
                names = [t.value]
                while self.at("_"):
                    names.append(self.next().value)
                out.append(names)
            elif t.value != part:
                raise DslSyntaxError(t.line, t.col, repr(part), t.value or "<eof>")
        return out

    def end_stmt(self) -> None:
        """Consume a `;` terminator; the last one before `}` may be omitted."""
        if self.at(";"):
            self.next()
        elif not self.at("}"):
            t = self.peek()
            raise DslSyntaxError(t.line, t.col, "';'", t.value or "<eof>")

    def clauses(self, keyword: str, *shape: str) -> Iterator[list]:
        """Yield ``read(keyword, *shape)`` for each consecutive
        ``keyword <shape> ;`` statement (keyword ``"_"``: any identifier)."""
        while self.at(keyword):
            values = self.read(keyword, *shape)
            self.end_stmt()
            yield values


def _resolve(mapping: dict, tok: _Token, what: str) -> int:
    if tok.value not in mapping:
        raise UnresolvedReference(f"{what} {tok.value!r} (line {tok.line})")
    return mapping[tok.value]


def _clause_table(subject: str, keyword: str, rows: Iterator[tuple]) -> dict:
    """The map of ``(key tokens, key, value)`` rows, one per statement; a key
    stated twice raises ValidationFailed naming the repeated line."""
    table: dict = {}
    for toks, key, value in rows:
        if key in table:
            stmt = " ".join([keyword, *(t.value for t in toks)])
            raise ValidationFailed(
                subject,
                [Violation("DuplicateStatement", f"{stmt} (line {toks[0].line})")],
            )
        table[key] = value
    return table


def _check_cap(tok: _Token, n: int, cap: int, what: str) -> None:
    if n > cap:
        raise SizeBoundExceeded(
            f"{n} {what} at line {tok.line}, over the cap of {cap}"
        )


def _names(cat: FiniteCategory) -> tuple[dict, dict]:
    """Object and morphism name -> ref tables of a category."""
    return (
        {o: i for i, o in enumerate(cat.object_names)},
        {m: i for i, m in enumerate(cat.mor_names)},
    )


# ---------------------------------------------------------------------------
# Entity parsers


def _parse_poset(p: _Parser, doc: Document) -> PosetEntity:
    name, elems = p.read("_", "{", "elements", "*")
    _check_cap(name, len(elems), MAX_OBJECTS, "poset elements")
    p.end_stmt()
    idx = {e: i for i, e in enumerate(elems)}
    pairs = [
        (_resolve(idx, a, "element"), _resolve(idx, b, "element"))
        for a, b in p.clauses("leq", "_", "_")
    ]
    p.read("}")
    return PosetEntity(name.value, make_poset(elems, pairs))


def _parse_monoid(p: _Parser, doc: Document) -> MonoidEntity:
    name, elems = p.read("_", "{", "elements", "*")
    _check_cap(name, len(elems), MAX_MORPHISMS, "monoid elements")
    p.end_stmt()
    idx = {e: i for i, e in enumerate(elems)}
    if len(idx) != len(elems):
        raise ValidationFailed(
            "monoid", [Violation("DuplicateName", "monoid elements not unique")]
        )
    (ut,) = p.read("unit", "_")
    unit = _resolve(idx, ut, "element")
    p.end_stmt()
    k = len(elems)
    mul = _clause_table("monoid", "mul", (
        ((a, b), (_resolve(idx, a, "element"), _resolve(idx, b, "element")),
         _resolve(idx, c, "element"))
        for a, b, c in p.clauses("mul", "_", "_", "=", "_")
    ))
    p.read("}")
    missing = [
        (elems[i], elems[j])
        for i in range(k)
        for j in range(k)
        if (i, j) not in mul
    ]
    if missing:
        raise ValidationFailed(
            "monoid",
            [Violation("TableNotTotal", f"missing mul {a} {b}") for a, b in missing],
        )
    full = tuple(tuple(mul[(i, j)] for j in range(k)) for i in range(k))
    return MonoidEntity(name.value, tuple(elems), unit, full)


def _parse_category(p: _Parser, doc: Document) -> CategoryEntity:
    name, objs = p.read("_", "{", "objects", "*")
    _check_cap(name, len(objs), MAX_OBJECTS, "objects")
    p.end_stmt()
    obj_idx = {o: i for i, o in enumerate(objs)}
    n = len(objs)
    mors: list[tuple[str, int, int]] = [
        (f"id_{o}", i, i) for i, o in enumerate(objs)
    ]
    mor_idx = {m[0]: i for i, m in enumerate(mors)}
    for aname, a, b in p.clauses("arrows", "_", ":", "_", "->", "_"):
        if aname.value.startswith("id_"):
            raise ValidationFailed(
                "category",
                [Violation("ReservedName", f"arrow name {aname.value!r}")],
            )
        if aname.value in mor_idx:
            raise ValidationFailed(
                "category", [Violation("DuplicateName", aname.value)]
            )
        mor_idx[aname.value] = len(mors)
        mors.append(
            (
                aname.value,
                _resolve(obj_idx, a, "object"),
                _resolve(obj_idx, b, "object"),
            )
        )
        _check_cap(aname, len(mors), MAX_MORPHISMS, "morphisms")
    comp: dict[tuple[int, int], int] = {}
    for g, f, h in p.clauses("compose", "_", "_", "=", "_"):
        key = (_resolve(mor_idx, g, "arrow"), _resolve(mor_idx, f, "arrow"))
        val = _resolve(mor_idx, h, "arrow")
        if key in comp and comp[key] != val:
            raise ValidationFailed(
                "category",
                [Violation("IllegalComposite", f"conflicting compose {g.value} {f.value}")],
            )
        comp[key] = val
    p.read("}")
    # Identity-law completion for pairs involving identities.
    for m, (_, d, c) in enumerate(mors):
        comp.setdefault((c, m), m)  # id after m (identity of cod has ref cod)
        comp.setdefault((m, d), m)
    cat = validate_category(objs, mors, list(range(n)), comp)
    return CategoryEntity(name.value, cat)


def _parse_functor(p: _Parser, doc: Document) -> FunctorEntity:
    name, s, t = p.read("_", ":", "_", "->", "_")
    src = doc.category_of(s.value)
    tgt = doc.category_of(t.value)
    p.read("{")
    s_obj, s_mor = _names(src)
    t_obj, t_mor = _names(tgt)
    obj_map = _clause_table("functor", "object", (
        ((a,), _resolve(s_obj, a, "object"), _resolve(t_obj, b, "object"))
        for a, b in p.clauses("object", "_", "=>", "_")
    ))
    mor_map = _clause_table("functor", "arrow", (
        ((a,), _resolve(s_mor, a, "arrow"), _resolve(t_mor, b, "arrow"))
        for a, b in p.clauses("arrow", "_", "=>", "_")
    ))
    p.read("}")
    missing = [src.object_names[i] for i in range(src.n_objects) if i not in obj_map]
    if missing:
        raise ValidationFailed(
            "functor", [Violation("ObjectNotMapped", m) for m in missing]
        )
    for m in range(src.n_mors):
        if m in mor_map:
            continue
        if src.is_identity(m):
            mor_map[m] = tgt.identity[obj_map[src.mor_dom[m]]]
        else:
            raise ValidationFailed(
                "functor", [Violation("ArrowNotMapped", src.mor_names[m])]
            )
    functor = validate_functor(
        src,
        tgt,
        [obj_map[i] for i in range(src.n_objects)],
        [mor_map[i] for i in range(src.n_mors)],
    )
    return FunctorEntity(name.value, s.value, t.value, functor)


def _parse_nattrans(p: _Parser, doc: Document) -> NatTransEntity:
    name, f_tok, g_tok = p.read("_", ":", "_", "=>", "_")
    f = doc.get(f_tok.value, FunctorEntity).functor
    g = doc.get(g_tok.value, FunctorEntity).functor
    p.read("{")
    s_obj = {o: i for i, o in enumerate(f.source.object_names)}
    t_mor = {m: i for i, m in enumerate(f.target.mor_names)}
    comps = _clause_table("nat-trans", "at", (
        ((a,), _resolve(s_obj, a, "object"), _resolve(t_mor, m, "arrow"))
        for a, m in p.clauses("at", "_", "=", "_")
    ))
    p.read("}")
    missing = [
        f.source.object_names[i]
        for i in range(f.source.n_objects)
        if i not in comps
    ]
    if missing:
        raise ValidationFailed(
            "nat-trans", [Violation("ComponentMissing", m) for m in missing]
        )
    nt = validate_nat_trans(
        [comps[i] for i in range(f.source.n_objects)], f, g
    )
    return NatTransEntity(name.value, f_tok.value, g_tok.value, nt)


def _parse_copresheaf(p: _Parser, doc: Document) -> CopresheafEntity:
    name, base_tok = p.read("_", "on", "_")
    base = doc.category_of(base_tok.value)
    p.read("{")
    obj_idx, mor_idx = _names(base)
    at = _clause_table("copresheaf", "at", (
        ((q,), _resolve(obj_idx, q, "object"), elems)
        for q, elems in p.clauses("at", "_", "=", "{", "*", "}")
    ))
    fibers: list[list[str]] = [at.get(q, []) for q in range(base.n_objects)]

    def act_blocks() -> Iterator[tuple]:
        while p.at("act"):
            (a,) = p.read("act", "_")
            m = _resolve(mor_idx, a, "arrow")
            p.read("{")
            yield (a,), m, _clause_table("copresheaf", f"act {a.value}", (
                ((x,), x.value, y.value) for x, y in p.clauses("_", "=>", "_")
            ))
            p.read("}")

    acts: dict[int, dict[str, str]] = _clause_table("copresheaf", "act", act_blocks())
    p.read("}")
    elem_idx = [{e: i for i, e in enumerate(f)} for f in fibers]

    def element(q: int, e: str) -> int:
        if e not in elem_idx[q]:
            raise UnresolvedReference(
                f"element {e!r} in fiber of {base.object_names[q]}"
            )
        return elem_idx[q][e]

    action: list[list[int]] = []
    bad: list[Violation] = []
    for m in range(base.n_mors):
        d, c = base.mor_dom[m], base.mor_cod[m]
        if base.is_identity(m) and m not in acts:
            action.append(list(range(len(fibers[d]))))
            continue
        mapping = acts.get(m, {})
        for x in mapping:
            element(d, x)
        row = []
        for e in fibers[d]:
            if e not in mapping:
                bad.append(
                    Violation("MissingAction", f"{base.mor_names[m]} on {e}")
                )
                row.append(0)
            else:
                row.append(element(c, mapping[e]))
        action.append(row)
    if bad:
        raise ValidationFailed("copresheaf", bad)
    cop = validate_copresheaf(base, fibers, action)
    return CopresheafEntity(name.value, base_tok.value, cop)


def _parse_system(p: _Parser, doc: Document) -> SystemEntity:
    name, cat_tok, poset_tok = p.read("_", "in", "_", "over", "_")
    cop_name: Optional[str] = None
    if p.at("using"):
        cop_name = p.read("using", "copresheaf", "_")[0].value
    ambient = doc.category_of(cat_tok.value)
    index = doc.get(poset_tok.value, PosetEntity).poset
    cop = None
    if cop_name is not None:
        cop = doc.get(cop_name, CopresheafEntity).copresheaf
    p.read("{")
    idx = {e: i for i, e in enumerate(index.elements)}
    obj_idx, mor_idx = _names(ambient)
    at = _clause_table("system", "object", (
        ((a,), _resolve(idx, a, "index"), _resolve(obj_idx, o, "object"))
        for a, o in p.clauses("object", "_", "=>", "_")
    ))
    bond = _clause_table("system", "bond", (
        ((a, b), (_resolve(idx, a, "index"), _resolve(idx, b, "index")),
         _resolve(mor_idx, m, "arrow"))
        for a, b, m in p.clauses("bond", "_", "_", "=>", "_")
    ))
    cone_elems = _clause_table("system", "cone", (
        ((a,), _resolve(idx, a, "index"), e.value)
        for a, e in p.clauses("cone", "_", "=>", "_")
    ))
    p.read("}")
    missing = [index.elements[i] for i in range(index.n) if i not in at]
    if missing:
        raise ValidationFailed(
            "system", [Violation("ObjectNotMapped", m) for m in missing]
        )
    system = validate_system(
        ambient, index, [at[i] for i in range(index.n)], bond
    )
    cone = None
    if cone_elems:
        if cop is None:
            raise ValidationFailed(
                "system",
                [Violation("ConeWithoutCopresheaf", "cone requires `using copresheaf`")],
            )
        elems = []
        for i in range(index.n):
            if i not in cone_elems:
                raise ValidationFailed(
                    "system",
                    [Violation("ConeIncomplete", index.elements[i])],
                )
            fiber = cop.fibers[system.at[i]]
            ename = cone_elems[i]
            if ename not in fiber:
                raise UnresolvedReference(
                    f"cone element {ename!r} at index {index.elements[i]}"
                )
            elems.append(fiber.index(ename))
        cone = make_cone(system, cop, elems)
    return SystemEntity(
        name.value, cat_tok.value, poset_tok.value, cop_name, system, cone
    )


def _parse_coproducts(p: _Parser, doc: Document) -> CoproductsEntity:
    (base_tok,) = p.read("on", "_")
    base = doc.category_of(base_tok.value)
    p.read("{")
    obj_idx, mor_idx = _names(base)
    table = _clause_table("coproducts", "pair", (
        (
            (a, b),
            (_resolve(obj_idx, a, "object"), _resolve(obj_idx, b, "object")),
            (
                _resolve(obj_idx, j, "object"),
                _resolve(mor_idx, m1, "arrow"),
                _resolve(mor_idx, m2, "arrow"),
            ),
        )
        for a, b, j, m1, m2 in p.clauses(
            "pair", "_", "_", "=>", "_", "with", "inj1", "_", "inj2", "_"
        )
    ))
    p.read("}")
    designation = validate_designation(base, table)
    return CoproductsEntity(
        f"coproducts_{base_tok.value}", base_tok.value, designation
    )


_PARSERS = {
    "poset": _parse_poset,
    "monoid": _parse_monoid,
    "category": _parse_category,
    "functor": _parse_functor,
    "nattrans": _parse_nattrans,
    "copresheaf": _parse_copresheaf,
    "system": _parse_system,
    "coproducts": _parse_coproducts,
}
_KEYWORDS = tuple(_PARSERS)


def parse_document(text: str) -> Document:
    """Parse and validate a `.cat` document."""
    p = _Parser(text)
    doc = Document()
    while p.peek().kind != "eof":
        t = p.next()
        parse = _PARSERS.get(t.value)
        if parse is None:
            raise DslSyntaxError(
                t.line, t.col, "one of " + ", ".join(_KEYWORDS), t.value
            )
        doc.add(parse(p, doc))
    return doc


# ---------------------------------------------------------------------------
# Serializer


def _ser_poset(e: PosetEntity, out: list[str]) -> None:
    out.append(f"poset {e.name} {{")
    out.append("  elements " + " ".join(e.poset.elements) + " ;")
    for i, j in e.poset.strict_pairs():
        out.append(f"  leq {e.poset.elements[i]} {e.poset.elements[j]} ;")
    out.append("}")


def _ser_monoid(e: MonoidEntity, out: list[str]) -> None:
    out.append(f"monoid {e.name} {{")
    out.append("  elements " + " ".join(e.elements) + " ;")
    out.append(f"  unit {e.elements[e.unit]} ;")
    k = len(e.elements)
    for i in range(k):
        for j in range(k):
            out.append(
                f"  mul {e.elements[i]} {e.elements[j]} = "
                f"{e.elements[e.table[i][j]]} ;"
            )
    out.append("}")


def _ser_category(e: CategoryEntity, out: list[str]) -> None:
    c = e.category
    out.append(f"category {e.name} {{")
    out.append("  objects " + " ".join(c.object_names) + " ;")
    for m in range(c.n_mors):
        if c.is_identity(m):
            continue
        out.append(
            f"  arrows {c.mor_names[m]}: {c.object_names[c.mor_dom[m]]} -> "
            f"{c.object_names[c.mor_cod[m]]} ;"
        )
    for (g, f) in sorted(c.comp):
        if c.is_identity(g) or c.is_identity(f):
            continue
        out.append(
            f"  compose {c.mor_names[g]} {c.mor_names[f]} = "
            f"{c.mor_names[c.comp[(g, f)]]} ;"
        )
    out.append("}")


def _ser_functor(e: FunctorEntity, out: list[str]) -> None:
    f = e.functor
    out.append(f"functor {e.name} : {e.source_name} -> {e.target_name} {{")
    for a in range(f.source.n_objects):
        out.append(
            f"  object {f.source.object_names[a]} => "
            f"{f.target.object_names[f.obj_map[a]]} ;"
        )
    for m in range(f.source.n_mors):
        if f.source.is_identity(m):
            continue
        out.append(
            f"  arrow {f.source.mor_names[m]} => "
            f"{f.target.mor_names[f.mor_map[m]]} ;"
        )
    out.append("}")


def _ser_nattrans(e: NatTransEntity, out: list[str]) -> None:
    nt = e.transformation
    src = nt.source.source
    tgt = nt.source.target
    out.append(f"nattrans {e.name} : {e.from_name} => {e.to_name} {{")
    for a in range(src.n_objects):
        out.append(
            f"  at {src.object_names[a]} = {tgt.mor_names[nt.components[a]]} ;"
        )
    out.append("}")


def _ser_copresheaf(e: CopresheafEntity, out: list[str]) -> None:
    h = e.copresheaf
    base = h.base
    out.append(f"copresheaf {e.name} on {e.base_name} {{")
    for q in range(base.n_objects):
        if h.fibers[q]:
            out.append(
                f"  at {base.object_names[q]} = {{ "
                + " ".join(h.fibers[q])
                + " } ;"
            )
    for m in range(base.n_mors):
        if base.is_identity(m):
            continue
        d, c = base.mor_dom[m], base.mor_cod[m]
        if not h.fibers[d]:
            continue
        inner = " ".join(
            f"{h.fibers[d][x]} => {h.fibers[c][h.action[m][x]]} ;"
            for x in range(len(h.fibers[d]))
        )
        out.append(f"  act {base.mor_names[m]} {{ {inner} }}")
    out.append("}")


def _ser_system(e: SystemEntity, out: list[str]) -> None:
    s = e.system
    head = f"system {e.name} in {e.category_name} over {e.poset_name}"
    if e.copresheaf_name is not None:
        head += f" using copresheaf {e.copresheaf_name}"
    out.append(head + " {")
    for a in range(s.index.n):
        out.append(
            f"  object {s.index.elements[a]} => "
            f"{s.ambient.object_names[s.at[a]]} ;"
        )
    for i, j in s.index.strict_pairs():
        out.append(
            f"  bond {s.index.elements[i]} {s.index.elements[j]} => "
            f"{s.ambient.mor_names[s.bond[(i, j)]]} ;"
        )
    if e.cone is not None:
        h = e.cone.copresheaf
        for a in range(s.index.n):
            out.append(
                f"  cone {s.index.elements[a]} => "
                f"{h.fibers[s.at[a]][e.cone.elements[a]]} ;"
            )
    out.append("}")


def _ser_coproducts(e: CoproductsEntity, out: list[str]) -> None:
    d = e.designation
    base = d.base
    out.append(f"coproducts on {e.base_name} {{")
    for (a, b) in sorted(d.table):
        j, i1, i2 = d.table[(a, b)]
        out.append(
            f"  pair {base.object_names[a]} {base.object_names[b]} => "
            f"{base.object_names[j]} with inj1 {base.mor_names[i1]} "
            f"inj2 {base.mor_names[i2]} ;"
        )
    out.append("}")


_SERIALIZERS = {
    PosetEntity: _ser_poset,
    MonoidEntity: _ser_monoid,
    CategoryEntity: _ser_category,
    FunctorEntity: _ser_functor,
    NatTransEntity: _ser_nattrans,
    CopresheafEntity: _ser_copresheaf,
    SystemEntity: _ser_system,
    CoproductsEntity: _ser_coproducts,
}


def serialize_document(doc: Document) -> str:
    """Canonical text form; parse(serialize(doc)) rebuilds identical tables
    for documents in normal form (all parser output is)."""
    out: list[str] = []
    for e in doc.entities:
        _SERIALIZERS[type(e)](e, out)
        out.append("")
    return "\n".join(out)
