"""Seeded corpora for the `.cat` reader: token streams and syntax-error
positions of the tokenizer, and the outcome of parsing thousands of mutated
and truncated generated documents."""

from __future__ import annotations

import hashlib
import random
import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movcat.builders import product_category
from movcat import dsl
from movcat.campaign import THEOREMS, generate_campaign_instance
from movcat.core import compose_functors, identity_functor
from movcat.dsl import (
    Document,
    FunctorEntity,
    NatTransEntity,
    _SPLIT_BLANKS,
    _tokenize,
    _words,
    make_category_entity,
    parse_document,
    serialize_document,
)
from movcat.errors import DslSyntaxError, MovcatError, ValidationFailed
from movcat.generators import KINDS, GenParams, generate_instance
from movcat.search import find_weak_domination
from util import chain

PARAMS = GenParams(max_objects=4, max_morphisms=16, max_fiber=3)

# Whitespace runs, comments, the two-character arrows and identifiers stay
# whole; anything else is one character.
_LEXEME = re.compile(r"\s+|#[^\n]*|->|=>|\w+|.", re.S)
_INSERTS = (";", "{", "}", "=", ":", "->", "=>", "#", "compose", "act", "at", "x")


# No generator emits functors or natural transformations.
FUNCTORS_DOC = """\
category C { objects A B ; arrows f : A -> B ; arrows g : B -> B ;
  compose g g = g ; compose g f = f }
category T { objects X ; arrows t : X -> X ; compose t t = t }
functor F : C -> C { object A => A ; object B => B ; arrow f => f ; arrow g => g }
functor G : C -> C { object A => A ; object B => B ; arrow f => f ; arrow g => g }
functor K : C -> T { object A => X ; object B => X ; arrow f => t ; arrow g => t }
nattrans phi : F => G { at A = id_A ; at B = id_B }
"""


def base_texts() -> list[str]:
    """Serialized generated documents of every kind and every campaign law,
    and (weighted to a tenth of the list) the functor document."""
    docs = [generate_instance(k, s, PARAMS) for k in KINDS for s in range(8)]
    docs += [generate_campaign_instance(t, s, PARAMS) for t in THEOREMS for s in range(4)]
    docs += [parse_document(FUNCTORS_DOC)] * 9
    return [serialize_document(d) for d in docs]


def mutate(text: str, rng: random.Random) -> str:
    """One token-level edit of ``text``, or a truncation of it."""
    lex = _LEXEME.findall(text)
    toks = [i for i, s in enumerate(lex) if not s.isspace()]
    i = rng.choice(toks)
    op = rng.randrange(8)
    if op == 0:  # delete a token
        lex[i] = ""
    elif op == 1:  # repeat a token
        lex[i] += " " + lex[i]
    elif op == 2:  # swap a token with the next one
        j = toks[min(toks.index(i) + 1, len(toks) - 1)]
        lex[i], lex[j] = lex[j], lex[i]
    elif op == 3:  # replace a token by another token of the document
        lex[i] = lex[rng.choice(toks)]
    elif op == 4:  # rename a token
        lex[i] = "ghost"
    elif op == 5:  # insert punctuation or a keyword
        lex[i] = rng.choice(_INSERTS) + " " + lex[i]
    elif op == 6:  # repeat the statement that ends at a `;`
        ends = [k for k in toks if lex[k] == ";"]
        if ends:
            k = rng.choice(ends)
            start = max((j for j in toks if j < k and lex[j] in ";{"), default=-1)
            lex[k] += "".join(lex[start + 1 : k + 1])
    else:  # truncate
        return text[: rng.randrange(len(text))]
    return "".join(lex)


def outcome(text: str) -> str:
    """The serialized document, or the exception type and sorted codes."""
    try:
        return serialize_document(parse_document(text))
    except ValidationFailed as e:
        return f"{type(e).__name__} {sorted(v.code for v in e.violations)}"
    except MovcatError as e:
        return type(e).__name__


def mutants(n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    texts = base_texts()
    return [mutate(rng.choice(texts), rng) for _ in range(n)]


def token_texts() -> list[str]:
    """Generated documents, mutants of them, and the characters the scanner
    must treat exactly: tabs, carriage returns, a comment that ends the
    text, letters and digits outside ASCII, and stray symbols."""
    rng = random.Random(7)
    texts = base_texts()[::4] + mutants(400, 11)
    for word in ("é", "²", "١", "\t", "\r", "\r\n", "\x0c", "\xa0", "@", "#", "2a"):
        for _ in range(20):
            t = rng.choice(texts)
            k = rng.randrange(len(t) + 1)
            texts.append(t[:k] + word + t[k:])
    texts += [
        "poset P { elements a b }  # trailing comment",
        "poset P { elements é x² _١ }\r\n\t# comment\n#",
        "poset\tP\r{ elements a ; leq a a }\n\n   ",
        "poset P { elements a ² }",
        "poset P { elements ١a }",
        "",
        "# only a comment",
        "->=>;{}:=-=",
    ]
    return texts


def _scan(text: str) -> str:
    try:
        return repr([(t.kind, t.value, t.line, t.col) for t in _tokenize(text)])
    except DslSyntaxError as e:
        return repr(("error", e.line, e.col, e.expected, e.found))


def _sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode() + b"\0")
    return h.hexdigest()


def test_tokens_and_error_positions_pinned():
    texts = token_texts()
    assert len(texts) > 600
    assert _sha(map(_scan, texts)) == TOKENS_SHA


def test_reader_words_match_tokenizer():
    """The reader's plain words are the tokenizer's values; where the
    tokenizer refuses a text, the reader raises the same error."""
    texts = token_texts()
    refused = 0
    for text in texts:
        try:
            values = [t.value for t in _tokenize(text)]
        except DslSyntaxError as e:
            refused += 1
            with pytest.raises(DslSyntaxError) as got:
                parse_document(text)
            g = got.value
            assert (g.line, g.col, g.expected, g.found) == (
                e.line, e.col, e.expected, e.found
            )
            continue
        assert _words(text) == values
    assert (len(texts), refused) == (651, 103)


# Characters the scanner refuses outside a comment.  All but the last
# three are blanks to `str.split`.
ODD_BLANKS = (
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u2028", "\u3000", "\ufeff", "\x00",
)
# Lexemes written without blanks between them; the last two end in a
# character that is no lexeme.
GLUED = ("a:b", "a;b", "{a}", "x=>y", "a->b", "a=b", "=>>", "->-")


def grid_text() -> str:
    """The serialized `chain(8)` squared grid, the largest `check-cap` file."""
    grid = Document()
    grid.add(make_category_entity("G", product_category([chain(8), chain(8)]).category))
    return serialize_document(grid)


def scanner_texts() -> list[str]:
    """The generated documents as they are and with, at seeded positions,
    each odd blank (alone and inside a comment), each glued form, comments
    that start mid-line or end a line or the text, and words outside ASCII;
    then the grid, alone and with an odd blank or a comment near its end."""
    rng = random.Random(19)
    base = base_texts()
    texts = list(base)

    def insert(piece: str, n: int) -> None:
        for _ in range(n):
            t = rng.choice(base)
            k = rng.randrange(len(t) + 1)
            texts.append(t[:k] + piece + t[k:])

    for blank in ODD_BLANKS:
        insert(blank, 6)
        insert(f" # note{blank} x\n", 3)
    for glued in GLUED:
        insert(glued, 4)
        insert(f" {glued} ", 4)
    insert("# mid-line comment", 12)
    insert("#", 6)
    texts += [t + "  # trailing" for t in base[::8]]
    texts += [t.rstrip("\n") + "#" for t in base[1::8]]
    for word in ("é", "x²", "_١"):
        insert(word, 4)
        insert(f" {word} ", 4)
    grid = grid_text()
    k = len(grid) - 40
    texts += [grid, grid[:k] + "\u3000" + grid[k:], grid[:k] + "# \x85 c\n" + grid[k:]]
    return texts


def scans_alike(text: str) -> bool:
    """Assert that the reader's words for ``text`` are the tokenizer's
    values, or, where the tokenizer refuses it, that reading its words and
    parsing it each raise the tokenizer's error at the same place; return
    whether it was accepted."""
    try:
        values = [t.value for t in _tokenize(text)]
    except DslSyntaxError as e:
        for read in (_words, parse_document):
            with pytest.raises(DslSyntaxError) as got:
                read(text)
            g = got.value
            assert (g.line, g.col, g.expected, g.found) == (
                e.line, e.col, e.expected, e.found
            )
        return False
    assert _words(text) == values
    return True


def test_split_scanner_matches_tokenizer():
    """Blanks other than space, tab, CR and LF, lexemes without blanks
    between them, comments and words outside ASCII scan as the tokenizer
    scans them."""
    texts = scanner_texts()
    accepted = sum(map(scans_alike, texts))
    assert (len(texts), accepted) == (SCANNER_TEXTS, SCANNER_ACCEPTED)


def test_split_blanks_are_the_other_isspace_characters():
    """The reader's split blanks are every character that `str.split`
    drops but the scanner refuses, and each of them, in a text, in a
    comment and in the grid, scans as the tokenizer scans it."""
    others = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    others -= {" ", "\t", "\r", "\n"}
    assert len(_SPLIT_BLANKS) == len(set(_SPLIT_BLANKS)) == 25
    assert set(_SPLIT_BLANKS) == others
    base = base_texts()[3]
    grid = grid_text()
    # Near the grid's start, so that the tokenizer, which scans the grid
    # three times per text here, refuses it early; the reader still splits
    # the whole grid first.
    k, g = len(base) // 2, 40
    for blank in _SPLIT_BLANKS:
        assert not scans_alike(base[:k] + blank + base[k:])
        assert scans_alike(base[:k] + f" # note{blank} x\n" + base[k:])
        assert not scans_alike(grid[:g] + blank + grid[g:])


# Single lexemes, pieces of lexemes, blanks, comment starts and characters
# outside ASCII, drawn into texts of up to 40 pieces.
PIECES = (
    ["->", "=>", ";", "{", "}", ":", "=", "-", ">", "#", "\n", " ", "\t", "\r"]
    + list(string.ascii_letters + string.digits + "_")
    + ["é", "²"]
    + list(ODD_BLANKS)
)
# The same examples on every run; no example database is written.
DERANDOMIZED = settings(
    derandomize=True, database=None, deadline=None, max_examples=400
)


def test_drawn_texts_scan_like_tokenizer():
    """Texts drawn from `PIECES` scan as the tokenizer scans them.  The
    ``@given`` function is nested in a plain test so that it can collect
    the outcome of every drawn text for the final assert, which checks that
    the draws reach both outcomes."""
    outcomes = set()

    @DERANDOMIZED
    @given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
    def drawn(text):
        outcomes.add(scans_alike(text))

    drawn()
    assert outcomes == {True, False}


def test_mutated_documents_fail_only_with_movcat_errors():
    texts = mutants(5000, 0)
    results = []
    for text in texts:
        try:
            results.append(outcome(text))
        except Exception as e:  # any escape is a reader bug
            raise AssertionError(f"{type(e).__name__} on {text!r}") from e
    assert len(set(results)) > 100
    assert _sha(results) == OUTCOMES_SHA


def message(text: str) -> str:
    """``"ok"``, or the exception type and message, with any position in it."""
    try:
        parse_document(text)
    except MovcatError as e:
        return f"{type(e).__name__}: {e}"
    return "ok"


def test_error_messages_pinned():
    """Every parser error message, with the line and column it names, over
    the mutants and the scanner texts."""
    messages = [message(t) for t in mutants(5000, 0) + token_texts()]
    assert sum(m != "ok" for m in messages) == 5148
    assert _sha(messages) == MESSAGES_SHA


def _parsed(text: str) -> tuple:
    """The parsed entities, by value and by `repr` (so that the order of
    every table counts), or the error's type, message and position."""
    try:
        entities = parse_document(text).entities
    except MovcatError as e:
        return type(e).__name__, str(e), getattr(e, "line", 0), getattr(e, "col", 0)
    return entities, repr(entities)


def _statements_only(monkeypatch) -> None:
    """Make `_Parser.run` take no statement, so that `read` reads every
    statement of a run."""
    monkeypatch.setattr(
        dsl._Parser, "run",
        lambda self, *shape: [
            [] for part in shape if part == "_" or isinstance(part, dsl._Ref)
        ],
    )


# Runs of every kind the reader reads by column: arrows, compose, leq, mul
# and bond statements, the second category's runs after the first's `}`.
COLUMNS_DOC = """\
category A { objects x y ; arrows f : x -> y }
category B { objects p q ; arrows g : p -> q ; arrows h : p -> q ;
  arrows k : q -> q ; compose k g = h ; compose k h = h ; compose k k = k }
poset P { elements a b c ; leq a b ; leq b c ; leq a c }
monoid M { elements e t ; unit e ; mul e e = e ; mul e t = t ; mul t e = t ; mul t t = t }
system S in P over P { object a => c ; object b => b ; object c => a ;
  bond a b => le1_2 ; bond b c => le0_1 ; bond a c => le0_2 }
"""
_RUN_STATEMENT = re.compile(r"(?:arrows|compose|leq|mul|bond) [^;}]*[^;} ]")
_NOT_NAMES = {"arrows", "compose", "leq", "mul", "bond", ":", "->", "=", "=>"}


def column_texts() -> list[str]:
    """`COLUMNS_DOC`, and for each statement of its runs a copy with one
    of its names unknown, and one with the statement repeated."""
    texts = [COLUMNS_DOC]
    for m in _RUN_STATEMENT.finditer(COLUMNS_DOC):
        head, stmt, tail = COLUMNS_DOC[: m.start()], m.group(), COLUMNS_DOC[m.end():]
        words = stmt.split()
        for i, w in enumerate(words):
            if w not in _NOT_NAMES:
                unknown = " ".join(words[:i] + ["ghost"] + words[i + 1:])
                texts.append(head + unknown + tail)
        texts.append(head + stmt + " ; " + stmt + tail)
    return texts


def test_column_texts_reach_every_outcome():
    outcomes = [_parsed(t)[0] for t in column_texts()]
    assert isinstance(outcomes[0], list) and len(outcomes[0]) == 5
    assert {o if isinstance(o, str) else "ok" for o in outcomes} == {
        "ok", "UnresolvedReference", "ValidationFailed"
    }
    # The document, one text per name of a statement (48) and one per
    # repeated statement (17).
    assert len(outcomes) == 1 + 48 + 17


def test_columns_match_statements(monkeypatch):
    """Every corpus and scanner text parses to equal entities, with tables
    in the same order, or raises the same error at the same place, whether
    runs of statements are read by column or one statement at a time."""
    texts = (
        mutants(5000, 0) + token_texts() + scanner_texts() + roundtrip_texts()
        + column_texts()
    )
    by_columns = list(map(_parsed, texts))
    _statements_only(monkeypatch)
    assert list(map(_parsed, texts)) == by_columns


def test_run_columns_end_with_the_run():
    """Each column `run` returns holds one value per statement of the run,
    wherever the statement that ends it fails to match."""
    mor = dsl._Ref("arrow", ["e", "f"])
    shape = ("compose", mor, mor, "=", mor, ";")
    for stmt, at in [
        ("compose ghost e = e", 1), ("compose e ghost = e", 2),
        ("compose e e = ghost", 4), ("compose e e => e", 3),
        ("compose e e = e :", 5), ("leq e e = e", 0),
    ]:
        p = dsl._Parser(
            f"compose e f = f ; compose f e = e ; {stmt} ; compose f f = f }}"
        )
        assert p.run(*shape) == [[0, 1], [1, 0], [1, 0]], stmt
        assert p.i == 12 and p.words[p.i + at] == stmt.split()[at]


def test_second_block_runs_are_read_by_column(monkeypatch):
    """The runs of a block after an earlier block's `}` are read by column:
    more statements there take no more `read` calls."""
    reads = []
    read = dsl._Parser.read

    def counted(self, *shape):
        reads.append(shape)
        return read(self, *shape)

    monkeypatch.setattr(dsl._Parser, "read", counted)
    calls = []
    for n in (1, 4):
        arrows = " ".join(f"arrows g{i} : p -> q ;" for i in range(n))
        reads.clear()
        doc = parse_document(
            "category A { objects x y ; arrows f : x -> y }\n"
            f"category B {{ objects p q ; {arrows} }}\n"
        )
        assert doc["B"].category.n_mors == 2 + n
        calls.append(len(reads))
    assert calls[0] == calls[1]


# One entity of every kind, the system with a copresheaf and a cone.
EVERY_KIND_DOC = """\
poset P { elements a b ; leq a b }
monoid M { elements e t ; unit e ; mul e e = e ; mul e t = t ; mul t e = t ; mul t t = t }
category C { objects A B ; arrows f : A -> B ; arrows g : B -> B ;
  compose g g = g ; compose g f = f }
functor F : C -> C { object A => A ; object B => B ; arrow f => f ; arrow g => g }
functor K : C -> M { object A => pt ; object B => pt ; arrow f => t ; arrow g => t }
nattrans phi : F => F { at A = id_A ; at B = id_B }
copresheaf H on P { at a = { x } ; at b = { y z } ; act le0_1 { x => y } }
system S in P over P using copresheaf H { object a => b ; object b => a ;
  bond a b => le0_1 ; cone a => y ; cone b => x }
coproducts on P { pair a b => b with inj1 le0_1 inj2 id_b }
"""


def roundtrip_texts() -> list[str]:
    """200 generated documents of every kind, 50 of every campaign law, the
    cap-size `chain(8)` squared grid, a 48-element divisibility poset and
    the document with every entity kind."""
    docs = [generate_instance(k, s) for k in KINDS for s in range(200)]
    docs += [generate_campaign_instance(t, s) for t in THEOREMS for s in range(50)]
    texts = [serialize_document(d) for d in docs]
    texts.append(grid_text())
    texts.append(
        "poset D { elements " + " ".join(f"d{i}" for i in range(1, 49)) + " ; "
        + " ".join(
            f"leq d{i} d{j} ;" for i in range(1, 49) for j in range(2 * i, 49, i)
        )
        + " }"
    )
    texts.append(EVERY_KIND_DOC)
    return texts


def test_roundtrip_digest_pinned():
    texts = roundtrip_texts()
    assert len(texts) == 1603
    assert _sha(serialize_document(parse_document(t)) for t in texts) == ROUNDTRIP_SHA


TOKENS_SHA = "71e7fddab100ee09a4bd6a8f76bfa37a0c2f5fc5b898a37df671a4d22debad36"
OUTCOMES_SHA = "12498b67f4791c743a46492ae21fbe2566f74b7083a607c1dba01f2fa14a9429"
MESSAGES_SHA = "32c490c8dfc5f2efbb20ad6cf02e1022c2eef0930814778b37a43cab3966d46b"
ROUNDTRIP_SHA = "183f8ac0c8b7dacb6e5c241db064c815626d59040813854b616bf98912b11c84"
SCANNER_TEXTS, SCANNER_ACCEPTED = 329, 232


# The entity kinds of each law's document, in order: a poset and its
# coproducts; or an ambient poset or monoid, the index poset, a copresheaf
# and a system with a cone.
_BRIDGE_KINDS = [
    {"PosetEntity", "MonoidEntity"}, {"PosetEntity"}, {"CopresheafEntity"},
    {"SystemEntity"},
]
ROUND_TRIP_KINDS = {
    "coproduct-coslice": [{"PosetEntity"}, {"CoproductsEntity"}],
    "sm-bridge": _BRIDGE_KINDS,
    "star-bridge": _BRIDGE_KINDS,
}


@settings(derandomize=True, database=None, deadline=None, max_examples=45)
@given(
    st.sampled_from(sorted(ROUND_TRIP_KINDS)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coproduct_coslice_documents_round_trip(law, seed):
    """A ``coproduct-coslice``, ``sm-bridge`` or ``star-bridge`` document
    reads back from its text to equal entities, and every truncation of
    that text either raises a MovcatError or reads to the document's first
    j entities."""
    doc = generate_campaign_instance(law, seed)
    kinds = ROUND_TRIP_KINDS[law]
    assert len(doc.entities) == len(kinds)
    for entity, allowed in zip(doc.entities, kinds):
        assert type(entity).__name__ in allowed
    text = serialize_document(doc)
    read = parse_document(text)
    assert serialize_document(read) == text
    assert read.entities == doc.entities
    kept = set()
    for k in range(len(text)):
        try:
            entities = parse_document(text[:k]).entities
        except MovcatError:
            continue
        assert entities == doc.entities[: len(entities)]
        kept.add(len(entities))
    # The empty text, a text that ends after each block but the last, and
    # one that ends at the last brace.
    assert kept == set(range(len(kinds) + 1))


def test_domination_functor_and_transformation_entities_round_trip():
    """The F, G, G.F, 1_K and phi of the weak domination found on each
    ``transfer`` document of seeds 0..59 that has one, added to that
    document as entities, are written to a text that reads back to equal
    functors and an equal phi, and that is written again unchanged."""
    dominated = 0
    for seed in range(60):
        doc = generate_campaign_instance("transfer", seed)
        k = doc.category_of("K")
        found = find_weak_domination(k, doc.category_of("L")).found
        if found is None:
            continue
        dominated += 1
        f, g, phi = found
        functors = {
            "F": ("K", "L", f),
            "G": ("L", "K", g),
            "GF": ("K", "K", compose_functors(g, f)),
            "idK": ("K", "K", identity_functor(k)),
        }
        for name, (source, target, functor) in functors.items():
            doc.add(FunctorEntity(name, source, target, functor))
        doc.add(NatTransEntity("phi", "GF", "idK", phi))
        text = serialize_document(doc)
        read = parse_document(text)
        assert serialize_document(read) == text
        assert read.entities == doc.entities
        for name, (_, _, functor) in functors.items():
            assert read[name].functor == functor
        assert read["phi"].transformation == phi
    assert dominated == 57
