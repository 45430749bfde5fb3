"""The `.cat` text format: parser and canonical serializer.

A document is an ordered list of named entities (poset, monoid, category,
functor, nattrans, copresheaf, system, coproducts); later entities refer to
earlier ones by name.  The grammar is line-oriented with `;` separators and
`#` comments; an identifier starts with a letter (by `str.isalpha`) or `_`
and goes on with characters for which `str.isalnum` holds, or `_`.  Every
map-like block is one table of statements, and a statement that repeats an
earlier key (a repeated `compose` included) is a `DuplicateStatement`.
Parsing is followed by validation of every entity, so no parse ever accepts
an entity its validator rejects.

The reader scans a text into plain token strings and carries no positions:
one `str.split` of the text without its comments, checked to have split
only at the scanner's blanks and to hold only lexemes, or else `_tokenize`.
When the reader raises, the line and column it names come from `_tokenize`,
which scans the text again with positions; a text with a bad character
raises that scanner's error before anything else.

Canonical serialization: entities in document order (which is a dependency
order), members in ref order, one declaration per line.  Categories are
stored in normal form (identities first, named ``id_<object>``), which is
what makes parse . serialize the identity on tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union

from .builders import (
    build_monoid_category,
    build_poset_category,
    canonical_category,
)
from .core import (
    Copresheaf,
    FiniteCategory,
    FinitePoset,
    Functor,
    NaturalTransformation,
    check_size,
    make_poset,
    validate_category,
    validate_copresheaf,
    validate_functor,
    validate_nat_trans,
)
from .errors import (
    DslSyntaxError,
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
    """Ordered, name-resolved collection of entities.  ``_by_name`` maps
    each name to the first entity with it; `add` is the only code that
    appends to ``entities``, and it keeps the map up to date."""

    entities: list = field(default_factory=list)
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_name = {}
        for e in self.entities:
            self._by_name.setdefault(e.name, e)

    def __getitem__(self, name: str) -> Entity:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnresolvedReference(f"no entity named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def add(self, entity: Entity) -> None:
        if entity.name in self._by_name:
            raise ValidationFailed(
                "document", [Violation("DuplicateName", entity.name)]
            )
        self._by_name[entity.name] = entity
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


def make_category_entity(name: str, category: FiniteCategory) -> CategoryEntity:
    """Wrap a category for a document, normalizing it to DSL form."""
    canon, _ = canonical_category(category)
    return CategoryEntity(name, canon)


# ---------------------------------------------------------------------------
# Tokenizer


# One lexeme with its position.  The parser reads the plain strings of
# `_words` and builds these only to place an error, or for a text that
# `_words` cannot split; the tests pin them.
@dataclass(slots=True)
class _Token:
    kind: str  # "ident" | "punct" | "eof"
    value: str
    line: int
    col: int


# One alternative per lexeme; blanks and comments match no named group.  A
# word must start with a letter or `_`, which `\w` alone does not ensure.
_LEXEME = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*"
    r"|(?P<punct>->|=>|[;{}:=])|(?P<ident>\w+)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, start = 1, 0  # start: offset of the current line
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, start = line + 1, m.end()
            continue
        value, col = m.group(), m.start() - start + 1
        if kind == "bad" or kind == "ident" and not (
            value[0].isalpha() or value[0] == "_"
        ):
            raise DslSyntaxError(line, col, "identifier or punctuation", value[0])
        toks.append(_Token(kind, value, line, col))
    # A comment does not advance the column, so the end of a last line that
    # holds one is where its `#` stands.
    end = text.find("#", start)
    toks.append(_Token("eof", "", line, (len(text) if end < 0 else end) - start + 1))
    return toks


_PUNCT = frozenset(("->", "=>", ";", "{", "}", ":", "="))
_NOT_IDENT = _PUNCT | {""}
_COMMENT = re.compile(r"#[^\n]*")
_IDENT = re.compile(r"\w+")


def _words(text: str) -> list[str]:
    """The token values of ``_tokenize(text)``, with "" for its eof token;
    a text that `_tokenize` refuses raises its error.

    The words come from one `str.split` of the text with its comments
    removed and ``;``, ``{``, ``}`` and ``:`` set apart by spaces (none of
    them occurs inside a longer lexeme).  That split holds when it consumed
    only the scanner's blanks (space, tab, CR, LF; `str.split` also takes
    the likes of U+000B and U+00A0, which the scanner refuses) and each
    distinct word is a lexeme; otherwise the words are `_tokenize`'s, which
    raises at the first bad lexeme."""
    t = _COMMENT.sub("", text) if "#" in text else text
    for c in ";{}:":
        t = t.replace(c, f" {c} ")
    words = t.split()
    blanks = t.count(" ") + t.count("\t") + t.count("\r") + t.count("\n")
    if len(t) - sum(map(len, words)) != blanks or not all(
        w in _PUNCT or (w[0].isalpha() or w[0] == "_") and _IDENT.fullmatch(w)
        for w in set(words)
    ):
        return [tok.value for tok in _tokenize(text)]
    words.append("")
    return words


class _Ref(dict):
    """Shape entry: one identifier, read as its ref among ``names`` (the
    last, for a name listed twice)."""

    def __init__(self, what: str, names: Iterable[str]):
        super().__init__(zip(names, count()))
        self.what = what


class _Parser:
    """A cursor over the words of a text.  ``words[i]`` is the value of
    ``tokens[i]``; the tokens, which carry positions, are built only when
    an error needs one.

    `read` reads one statement of any shape.  `run` reads a run of
    statements of one regular shape (fixed words, names and refs) by
    column, and stops at the first statement that does not match, which
    `read` then reads; a table whose run repeats a key is read again by
    `read`.  So every result, every error, its position and its precedence
    are those of reading each statement with `read`."""

    def __init__(self, text: str):
        self.text = text
        self.words = _words(text)
        self.i = 0

    @cached_property
    def tokens(self) -> list[_Token]:
        return _tokenize(self.text)

    def error(self, i: int, expected: str) -> DslSyntaxError:
        """The syntax error at word ``i``, which is not ``expected``."""
        t = self.tokens[i]
        return DslSyntaxError(t.line, t.col, expected, t.value or "<eof>")

    def at(self, part: str) -> bool:
        """Whether the next word matches `part`, one entry of a shape."""
        w = self.words[self.i]
        return w not in _NOT_IDENT if part == "_" else w == part

    def read(self, *shape) -> list:
        """Read words by shape and return the values in order.

        ``"_"`` is one identifier, read as its name; ``"*"`` is one or more
        identifiers, read as a list of names; a `_Ref` is one identifier,
        read as its ref; ``";"`` ends a statement (it may be omitted before
        ``}``); any other entry is that exact keyword or punctuation,
        checked and dropped.  The first unknown name is reported once the
        whole shape has been read, so a syntax error in a statement is
        reported before an unknown name in it.
        """
        words, i = self.words, self.i
        out: list = []
        missing = None  # (ref, word index) of the first unknown name
        for part in shape:
            w = words[i]
            if isinstance(part, _Ref):
                if w in _NOT_IDENT:
                    raise self.error(i, "identifier")
                ref = part.get(w)
                if ref is None and missing is None:
                    missing = part, i
                out.append(ref)
            elif part == ";":
                if w == "}":
                    continue  # the last `;` before `}` may be omitted
                if w != ";":
                    raise self.error(i, "';'")
            elif part == "_":
                if w in _NOT_IDENT:
                    raise self.error(i, "identifier")
                out.append(w)
            elif part == "*":
                if w in _NOT_IDENT:
                    raise self.error(i, "identifier")
                start = i
                while words[i + 1] not in _NOT_IDENT:
                    i += 1
                out.append(words[start : i + 1])
            elif w != part:
                raise self.error(i, repr(part))
            i += 1
        self.i = i
        if missing is not None:
            ref, i = missing
            raise UnresolvedReference(
                f"{ref.what} {words[i]!r} (line {self.tokens[i].line})"
            )
        return out

    def run(self, *shape) -> list[tuple]:
        """The values of the longest run of statements at the cursor that
        each match ``shape`` word for word, with every ref known; the cursor
        moves past them.  ``shape`` holds fixed words, ``"_"`` and `_Ref`s
        only, and its ``";"`` must be present.

        The run is read by column: ``words[i + k :: len(shape)]`` holds
        entry k of every statement, and the first statement with a word
        that does not match, or with an unknown name, ends the run.  That
        statement is left to `read`, so every error, its position and its
        precedence come from `read`.  No statement reaches past the next
        ``}``, which bounds the columns."""
        words, i, n = self.words, self.i, len(shape)
        try:
            end = words.index("}", i)
        except ValueError:
            end = len(words) - 1
        m = (end - i) // n  # statements that fit before `end`
        values = []
        for k, part in enumerate(shape):
            column = words[i + k : i + k + m * n : n]
            if isinstance(part, _Ref):
                column = list(map(part.get, column))
                if None in column:
                    m = column.index(None)
            elif part == "_":
                if not _NOT_IDENT.isdisjoint(column):
                    m = list(map(_NOT_IDENT.__contains__, column)).index(True)
            else:
                if column.count(part) != len(column):
                    m = list(map(part.__eq__, column)).index(False)
                continue  # a fixed word gives no value
            values.append(column)
        self.i = i + m * n
        return list(zip(*(column[:m] for column in values)))

    def clauses(self, *shape) -> Iterator:
        """Yield the values of each consecutive statement that starts with
        ``shape[0]`` (``"_"``: any identifier): a `run` of them, then
        ``read(*shape)`` for each that the run left."""
        yield from self.run(*shape)
        while self.at(shape[0]):
            yield self.read(*shape)

    def table(self, subject: str, n_key: int, *shape) -> dict:
        """The map from the first ``n_key`` values of each consecutive
        ``shape`` statement to the rest (a single value or key unwrapped);
        a key stated twice raises ValidationFailed naming the repeated line.
        A callable last entry reads the block that ends a statement, after
        the refs before it are resolved, and gives the block's value."""
        block = shape[-1] if callable(shape[-1]) else None
        head = shape[:-1] if block else shape
        table: dict = {}
        if block is None and "*" not in shape:
            start = self.i
            rows = self.run(*shape)
            if rows:
                key_of = itemgetter(*range(n_key))
                rest_of = itemgetter(*range(n_key, len(rows[0])))
                table = dict(zip(map(key_of, rows), map(rest_of, rows)))
                if len(table) < len(rows):  # a repeated key: `read` reports it
                    table, self.i = {}, start
        while self.at(shape[0]):
            start = self.i
            values = self.read(*head)
            if block:
                values.append(block())
            key = values[0] if n_key == 1 else tuple(values[:n_key])
            if key in table:
                end = start + n_key + (shape[0] != "_")
                stmt = " ".join(self.words[start:end])
                line = self.tokens[end - n_key].line  # of the first key
                raise ValidationFailed(
                    subject, [Violation("DuplicateStatement", f"{stmt} (line {line})")]
                )
            rest = values[n_key:]
            table[key] = rest[0] if len(rest) == 1 else tuple(rest)
        return table


#: ``_total`` lists at most this many missing keys, then one violation that
#: counts the rest, so a sparse table over a large key set (a monoid's k²
#: products) raises a bounded list.
MISSING_LISTED = 100


def _total(
    subject: str, code: str, table: dict, keys: range, name: Callable
) -> list:
    """``table``'s values at ``keys`` in order; raises ValidationFailed with
    one ``code`` violation per missing key, detailed by ``name(key)``, for
    the first MISSING_LISTED of them, and one more counting the rest.
    Every key of ``table`` must lie in ``keys``, so the rest is counted
    without visiting it."""
    values, bad = [], []
    for key in keys:
        if key in table:
            values.append(table[key])
            continue
        bad.append(Violation(code, name(key)))
        if len(bad) == MISSING_LISTED:
            rest = len(keys) - len(table) - MISSING_LISTED
            if rest:
                bad.append(Violation(code, f"{rest} more not listed"))
            break
    if bad:
        raise ValidationFailed(subject, bad)
    return values


# ---------------------------------------------------------------------------
# Entity parsers


def _parse_poset(p: _Parser, doc: Document) -> PosetEntity:
    name, elems = p.read("_", "{", "elements", "*")
    check_size(f"poset {name}", len(elems), len(elems))
    p.read(";")
    element = _Ref("element", elems)
    pairs = list(p.clauses("leq", element, element, ";"))
    p.read("}")
    return PosetEntity(name, make_poset(elems, pairs))


def _parse_monoid(p: _Parser, doc: Document) -> MonoidEntity:
    name, elems = p.read("_", "{", "elements", "*")
    check_size(f"monoid {name}", 1, len(elems))
    p.read(";")
    if len(set(elems)) != len(elems):
        raise ValidationFailed(
            "monoid", [Violation("DuplicateName", "monoid elements not unique")]
        )
    element = _Ref("element", elems)
    (unit,) = p.read("unit", element)
    p.read(";")
    mul = p.table("monoid", 2, "mul", element, element, "=", element, ";")
    p.read("}")
    k = len(elems)
    cells = _total(
        "monoid", "TableNotTotal", {i * k + j: v for (i, j), v in mul.items()},
        range(k * k), lambda ij: f"missing mul {elems[ij // k]} {elems[ij % k]}",
    )
    full = tuple(tuple(cells[i * k : (i + 1) * k]) for i in range(k))
    return MonoidEntity(name, tuple(elems), unit, full)


def _parse_category(p: _Parser, doc: Document) -> CategoryEntity:
    name, objs = p.read("_", "{", "objects", "*")
    what = f"category {name}"
    check_size(what, len(objs), len(objs))
    p.read(";")
    obj = _Ref("object", objs)
    mors = [(f"id_{o}", i, i) for i, o in enumerate(objs)]
    taken = {m[0] for m in mors}
    for arrow, a, b in p.clauses("arrows", "_", ":", obj, "->", obj, ";"):
        if arrow.startswith("id_"):
            raise ValidationFailed(
                "category", [Violation("ReservedName", f"arrow name {arrow!r}")]
            )
        if arrow in taken:
            raise ValidationFailed("category", [Violation("DuplicateName", arrow)])
        taken.add(arrow)
        mors.append((arrow, a, b))
        check_size(what, len(objs), len(mors))
    mor = _Ref("arrow", (m[0] for m in mors))
    comp = p.table("category", 2, "compose", mor, mor, "=", mor, ";")
    p.read("}")
    # Identity-law completion for pairs involving identities.
    for m, (_, d, c) in enumerate(mors):
        comp.setdefault((c, m), m)  # id after m (identity of cod has ref cod)
        comp.setdefault((m, d), m)
    cat = validate_category(objs, mors, list(range(len(objs))), comp)
    return CategoryEntity(name, cat)


def _parse_functor(p: _Parser, doc: Document) -> FunctorEntity:
    name, s, t = p.read("_", ":", "_", "->", "_")
    src = doc.category_of(s)
    tgt = doc.category_of(t)
    s_obj, t_obj = _Ref("object", src.object_names), _Ref("object", tgt.object_names)
    s_mor, t_mor = _Ref("arrow", src.mor_names), _Ref("arrow", tgt.mor_names)
    p.read("{")
    obj_map = p.table("functor", 1, "object", s_obj, "=>", t_obj, ";")
    mor_map = p.table("functor", 1, "arrow", s_mor, "=>", t_mor, ";")
    p.read("}")
    objs = _total(
        "functor", "ObjectNotMapped", obj_map,
        range(src.n_objects), src.object_names.__getitem__,
    )
    for a, m in enumerate(src.identity):
        mor_map.setdefault(m, tgt.identity[objs[a]])
    mors = _total(
        "functor", "ArrowNotMapped", mor_map,
        range(src.n_mors), src.mor_names.__getitem__,
    )
    return FunctorEntity(name, s, t, validate_functor(src, tgt, objs, mors))


def _parse_nattrans(p: _Parser, doc: Document) -> NatTransEntity:
    name, f_name, g_name = p.read("_", ":", "_", "=>", "_")
    f = doc.get(f_name, FunctorEntity).functor
    g = doc.get(g_name, FunctorEntity).functor
    obj, mor = _Ref("object", f.source.object_names), _Ref("arrow", f.target.mor_names)
    p.read("{")
    comps = p.table("nat-trans", 1, "at", obj, "=", mor, ";")
    p.read("}")
    comps = _total(
        "nat-trans", "ComponentMissing", comps,
        range(f.source.n_objects), f.source.object_names.__getitem__,
    )
    return NatTransEntity(name, f_name, g_name, validate_nat_trans(comps, f, g))


def _parse_copresheaf(p: _Parser, doc: Document) -> CopresheafEntity:
    name, base_name = p.read("_", "on", "_")
    base = doc.category_of(base_name)
    obj, mor = _Ref("object", base.object_names), _Ref("arrow", base.mor_names)
    p.read("{")
    at = p.table("copresheaf", 1, "at", obj, "=", "{", "*", "}", ";")
    fibers: list[list[str]] = [at.get(q, []) for q in range(base.n_objects)]

    def act_lines() -> dict:
        p.read("{")
        lines = p.table("copresheaf", 1, "_", "=>", "_", ";")
        p.read("}")
        return lines

    acts = p.table("copresheaf", 1, "act", mor, act_lines)
    p.read("}")
    for q, m in enumerate(base.identity):
        acts.setdefault(m, {e: e for e in fibers[q]})

    refs = [_Ref("element", fiber) for fiber in fibers]

    def element(q: int, e: str) -> int:
        if e not in refs[q]:
            raise UnresolvedReference(
                f"element {e!r} in fiber of {base.object_names[q]}"
            )
        return refs[q][e]

    action: list[list[int]] = []
    bad: list[Violation] = []
    for m in range(base.n_mors):
        d, c = base.mor_dom[m], base.mor_cod[m]
        act = acts.get(m, {})
        for x in act:
            element(d, x)
        bad += [
            Violation("MissingAction", f"{base.mor_names[m]} on {e}")
            for e in fibers[d]
            if e not in act
        ]
        action.append([element(c, act[e]) if e in act else 0 for e in fibers[d]])
    if bad:
        raise ValidationFailed("copresheaf", bad)
    cop = validate_copresheaf(base, fibers, action)
    return CopresheafEntity(name, base_name, cop)


def _parse_system(p: _Parser, doc: Document) -> SystemEntity:
    name, cat_name, poset_name = p.read("_", "in", "_", "over", "_")
    cop_name: Optional[str] = None
    if p.at("using"):
        (cop_name,) = p.read("using", "copresheaf", "_")
    ambient = doc.category_of(cat_name)
    index = doc.get(poset_name, PosetEntity).poset
    cop = None
    if cop_name is not None:
        cop = doc.get(cop_name, CopresheafEntity).copresheaf
    i = _Ref("index", index.elements)
    obj, mor = _Ref("object", ambient.object_names), _Ref("arrow", ambient.mor_names)
    p.read("{")
    at = p.table("system", 1, "object", i, "=>", obj, ";")
    bond = p.table("system", 2, "bond", i, i, "=>", mor, ";")
    cone_elems = p.table("system", 1, "cone", i, "=>", "_", ";")
    p.read("}")
    label = index.elements.__getitem__
    objects = _total("system", "ObjectNotMapped", at, range(index.n), label)
    system = validate_system(ambient, index, objects, bond)
    cone = None
    if cone_elems:
        if cop is None:
            raise ValidationFailed(
                "system",
                [Violation("ConeWithoutCopresheaf", "cone requires `using copresheaf`")],
            )
        names = _total("system", "ConeIncomplete", cone_elems, range(index.n), label)
        refs = {q: _Ref("element", cop.fibers[q]) for q in set(system.at)}
        elems = []
        for a, ename in enumerate(names):
            fiber = refs[system.at[a]]
            if ename not in fiber:
                raise UnresolvedReference(
                    f"cone element {ename!r} at index {index.elements[a]}"
                )
            elems.append(fiber[ename])
        cone = make_cone(system, cop, elems)
    return SystemEntity(name, cat_name, poset_name, cop_name, system, cone)


def _parse_coproducts(p: _Parser, doc: Document) -> CoproductsEntity:
    (base_name,) = p.read("on", "_")
    base = doc.category_of(base_name)
    p.read("{")
    obj, mor = _Ref("object", base.object_names), _Ref("arrow", base.mor_names)
    table = p.table(
        "coproducts", 2,
        "pair", obj, obj, "=>", obj, "with", "inj1", mor, "inj2", mor, ";",
    )
    p.read("}")
    designation = validate_designation(base, table)
    return CoproductsEntity(f"coproducts_{base_name}", base_name, designation)


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
    while p.words[p.i]:
        parse = _PARSERS.get(p.words[p.i])
        if parse is None:
            raise p.error(p.i, "one of " + ", ".join(_KEYWORDS))
        p.i += 1
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
    names, objects, comp = c.mor_names, c.object_names, c.comp
    ids = set(c.identity)
    arrows = [m for m in range(c.n_mors) if m not in ids]
    out.append(f"category {e.name} {{")
    out.append("  objects " + " ".join(objects) + " ;")
    for m in arrows:
        out.append(
            f"  arrows {names[m]}: {objects[c.mor_dom[m]]} -> "
            f"{objects[c.mor_cod[m]]} ;"
        )
    # The composable pairs (g, f) in ascending order, which are exactly the
    # keys of comp, with identities left out.
    into = [[f for f in c.mors_into(x) if f not in ids] for x in range(c.n_objects)]
    for g in arrows:
        prefix = f"  compose {names[g]} "
        out.extend([
            f"{prefix}{names[f]} = {names[comp[(g, f)]]} ;" for f in into[c.mor_dom[g]]
        ])
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
