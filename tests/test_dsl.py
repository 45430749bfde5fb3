import re

import pytest

from movcat import dsl

from movcat.builders import product_category
from movcat.core import MAX_MORPHISMS, MAX_OBJECTS
from movcat.dsl import (
    MISSING_LISTED,
    Document,
    make_category_entity,
    parse_document,
    serialize_document,
)
from movcat.errors import (
    DslSyntaxError,
    SizeBoundExceeded,
    UnresolvedReference,
    ValidationFailed,
)
from movcat.generators import GenParams, generate_instance
from util import chain, v_poset_category


def test_parse_poset_example():
    doc = parse_document("poset V { elements a b c ; leq a c ; leq b c }")
    ent = doc["V"]
    assert ent.poset.elements == ("a", "b", "c")
    assert ent.poset.leq(0, 2) and ent.poset.leq(1, 2)
    assert not ent.poset.leq(0, 1)


def test_parse_category_example():
    doc = parse_document(
        """
        category C {
          objects A B ;
          arrows f : A -> B ;
        }
        """
    )
    cat = doc["C"].category
    assert cat.n_objects == 2
    assert cat.n_mors == 3
    assert cat.mor_names == ("id_A", "id_B", "f")


def test_trailing_semicolon_optional():
    with_semi = parse_document("poset P { elements a b ; leq a b ; }")
    without = parse_document("poset P { elements a b ; leq a b }")
    assert with_semi == without


def test_comments_and_whitespace_ignored():
    doc = parse_document(
        "# heading comment\nposet P { elements a b ; # inline\n leq a b }\n"
    )
    assert doc["P"].poset.leq(0, 1)


def test_antisymmetry_violation_rejected():
    with pytest.raises(ValidationFailed) as e:
        parse_document("poset P { elements a b ; leq a b ; leq b a }")
    assert "AntisymmetryBroken" in e.value.codes


def test_syntax_error_carries_location():
    with pytest.raises(DslSyntaxError) as e:
        parse_document("category C { objects A B ;\narrows f : A B ; }")
    err = e.value
    assert err.line == 2  # the missing '->' is flagged where B appears
    assert "->" in str(err)


def test_unknown_keyword_rejected():
    with pytest.raises(DslSyntaxError):
        parse_document("gadget G { }")


def test_unresolved_reference():
    with pytest.raises(UnresolvedReference):
        parse_document("poset P { elements a ; leq a z }")
    with pytest.raises(UnresolvedReference):
        parse_document(
            "functor F : C -> C { }"
        )


def test_reserved_arrow_names_rejected():
    with pytest.raises(ValidationFailed) as e:
        parse_document(
            "category C { objects A ; arrows id_A : A -> A }"
        )
    assert "ReservedName" in e.value.codes


def test_duplicate_arrow_name_rejected():
    with pytest.raises(ValidationFailed) as e:
        parse_document(
            "category C { objects A B ; arrows f : A -> B ; arrows f : A -> B }"
        )
    assert "DuplicateName" in e.value.codes


def test_monoid_table_must_be_total():
    with pytest.raises(ValidationFailed) as e:
        parse_document("monoid M { elements e a ; unit e ; mul e e = e }")
    assert "TableNotTotal" in e.value.codes


def test_monoid_missing_products_listed_up_to_a_bound():
    # 300 elements and no products: 90000 missing, MISSING_LISTED named.
    text = "monoid M { elements " + " ".join(f"e{i}" for i in range(300)) + " ; unit e0 }"
    with pytest.raises(ValidationFailed) as e:
        parse_document(text)
    details = [v.detail for v in e.value.violations]
    assert e.value.codes == {"TableNotTotal"}
    assert details[:MISSING_LISTED] == [f"missing mul e0 e{j}" for j in range(MISSING_LISTED)]
    assert details[MISSING_LISTED:] == [f"{90000 - MISSING_LISTED} more not listed"]


class _CountingTable(dict):
    """A table that counts the keys looked up in it."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_monoid_at_the_cap_rejected_without_visiting_every_product(monkeypatch):
    # MAX_MORPHISMS elements and two products: the first MISSING_LISTED
    # missing products are named and the rest counted, without a walk over
    # all k² keys.
    tables = []
    total = dsl._total

    def counting_total(subject, code, table, keys, name):
        tables.append(_CountingTable(table))
        return total(subject, code, tables[-1], keys, name)

    monkeypatch.setattr(dsl, "_total", counting_total)
    k = MAX_MORPHISMS
    text = (
        "monoid M { elements " + " ".join(f"e{i}" for i in range(k))
        + " ; unit e0 ; mul e0 e0 = e0 ; mul e0 e2 = e2 }"
    )
    with pytest.raises(ValidationFailed) as e:
        parse_document(text)
    details = [v.detail for v in e.value.violations]
    assert e.value.codes == {"TableNotTotal"}
    assert details[:MISSING_LISTED] == [
        f"missing mul e0 e{j}" for j in range(MISSING_LISTED + 2) if j not in (0, 2)
    ]
    assert details[MISSING_LISTED:] == [f"{k * k - 2 - MISSING_LISTED} more not listed"]
    # Keys e0 e0 .. e0 e101: the two present products and the first
    # MISSING_LISTED missing ones.
    (table,) = tables
    assert table.lookups == MISSING_LISTED + 2


def test_monoid_repeated_element_rejected():
    with pytest.raises(ValidationFailed) as e:
        parse_document("monoid M { elements e e ; unit e ; mul e e = e }")
    assert e.value.codes == {"DuplicateName"}


def test_monoid_parses_to_one_object_category():
    doc = parse_document(
        """
        monoid Z2 {
          elements e a ;
          unit e ;
          mul e e = e ; mul e a = a ; mul a e = a ; mul a a = e ;
        }
        """
    )
    ent = doc["Z2"]
    assert ent.category.n_objects == 1
    assert ent.category.n_mors == 2


def test_functor_identity_arrows_autofilled():
    doc = parse_document(
        """
        category C { objects A B ; arrows f : A -> B ; }
        functor F : C -> C {
          object A => A ; object B => B ;
          arrow f => f ;
        }
        """
    )
    f = doc["F"].functor
    assert f.mor_map == (0, 1, 2)


def test_functor_missing_object_map_rejected():
    with pytest.raises(ValidationFailed) as e:
        parse_document(
            """
            category C { objects A B ; arrows f : A -> B ; }
            functor F : C -> C { object A => A ; arrow f => f ; }
            """
        )
    assert "ObjectNotMapped" in e.value.codes


def test_serializer_normal_form_and_idempotence():
    text = "poset V { elements a b c ; leq b c ; leq a c }"
    doc = parse_document(text)
    out = serialize_document(doc)
    # leq pairs come out sorted
    assert out.index("leq a c") < out.index("leq b c")
    assert serialize_document(parse_document(out)) == out


def test_category_roundtrip_through_entity():
    doc = Document()
    doc.add(make_category_entity("V", v_poset_category()))
    out = serialize_document(doc)
    back = parse_document(out)
    assert back["V"].category == v_poset_category()
    assert serialize_document(back) == out


def test_generator_documents_roundtrip():
    params = GenParams(max_objects=4, max_morphisms=16, max_fiber=3)
    for kind in ("copresheaf", "system", "domination-pair"):
        for seed in range(30):
            doc = generate_instance(kind, seed, params)
            text = serialize_document(doc)
            assert serialize_document(parse_document(text)) == text


def test_document_lookup_errors():
    doc = parse_document("poset P { elements a }")
    assert "P" in doc
    with pytest.raises(UnresolvedReference, match=r"^no entity named 'Q'$"):
        doc["Q"]
    with pytest.raises(UnresolvedReference):
        doc.category_of("missing")
    # a poset coerces to its down-closed thin category
    assert doc.category_of("P").n_objects == 1


def test_document_names_are_unique():
    # The constructor, `add` and the reader refuse a repeated name alike, so
    # the writer never emits two blocks of one name.
    a = parse_document("poset x { elements a }")["x"]
    a_again = parse_document("poset x { elements b }")["x"]
    with pytest.raises(ValidationFailed) as e:
        Document([a, a_again])
    assert str(e.value) == "document: DuplicateName: x"
    lst = [a]
    doc = Document(lst)
    assert doc["x"] is a and "x" in doc and "y" not in doc
    with pytest.raises(ValidationFailed) as e:
        doc.add(a_again)
    assert str(e.value) == "document: DuplicateName: x"
    with pytest.raises(ValidationFailed) as e:
        parse_document("poset x { elements a }\nposet x { elements b }")
    assert str(e.value) == "document: DuplicateName: x"
    # The document keeps a list of its own.
    b = parse_document("poset y { elements b }")["y"]
    doc.add(b)
    assert lst == [a] and doc.entities == [a, b]


# One document with every fixed word that is not an entity or statement
# keyword; each (word, occurrence) below names one position.
FIXED_WORDS_DOC = """\
poset P { elements a b ; leq a b }
monoid M { elements e ; unit e ; mul e e = e }
category C { objects A B ; arrows f : A -> B }
copresheaf H on P { at a = { x } ; at b = { y } ; act le0_1 { x => y } }
system S in C over P using copresheaf H { object a => A ; object b => A ; bond a b => id_A }
coproducts on P { pair a b => b with inj1 le0_1 inj2 id_b }
"""


@pytest.mark.parametrize(
    "word, occurrence",
    [
        ("elements", 0),
        ("elements", 1),
        ("unit", 0),
        ("objects", 0),
        ("on", 0),
        ("on", 1),
        ("in", 0),
        ("over", 0),
        ("copresheaf", 1),
        ("with", 0),
        ("inj1", 0),
        ("inj2", 0),
    ],
)
def test_fixed_words_are_checked(word, occurrence):
    parse_document(FIXED_WORDS_DOC)
    at = [m.start() for m in re.finditer(rf"\b{word}\b", FIXED_WORDS_DOC)]
    pos = at[occurrence]
    text = FIXED_WORDS_DOC[:pos] + "bogus" + FIXED_WORDS_DOC[pos + len(word):]
    with pytest.raises(DslSyntaxError) as e:
        parse_document(text)
    line = FIXED_WORDS_DOC.count("\n", 0, pos) + 1
    col = pos - FIXED_WORDS_DOC.rfind("\n", 0, pos)
    assert (e.value.line, e.value.col) == (line, col)
    assert (e.value.expected, e.value.found) == (repr(word), "bogus")


def test_poset_category_built_once_per_entity():
    doc = parse_document(FIXED_WORDS_DOC)
    assert doc.category_of("P") is doc.category_of("P")
    assert doc["H"].copresheaf.base is doc.category_of("P")
    doc = parse_document(
        "poset P { elements a b ; leq a b }\n"
        "copresheaf H on P { at a = { x } ; at b = { y } ; act le0_1 { x => y } }\n"
        "system S in P over P { object a => b ; object b => a ; bond a b => le0_1 }"
    )
    assert doc["H"].copresheaf.base is doc["S"].system.ambient


def _names(prefix, n):
    return " ".join(f"{prefix}{i}" for i in range(n))


def test_size_caps_hold_at_parse_time():
    with pytest.raises(SizeBoundExceeded):
        parse_document(f"category C {{ objects {_names('o', MAX_OBJECTS + 1)} }}")
    with pytest.raises(SizeBoundExceeded):
        parse_document(f"poset P {{ elements {_names('e', MAX_OBJECTS + 1)} }}")
    with pytest.raises(SizeBoundExceeded):
        parse_document(
            f"monoid M {{ elements {_names('e', MAX_MORPHISMS + 1)} ; unit e0 }}"
        )
    loops = " ".join(f"arrows f{i} : A -> A ;" for i in range(MAX_MORPHISMS))
    with pytest.raises(SizeBoundExceeded):
        parse_document(f"category C {{ objects A ; {loops} }}")
    parse_document(f"category C {{ objects {_names('o', MAX_OBJECTS)} }}")


def test_cap_size_grid_parses():
    doc = Document()
    doc.add(make_category_entity("G", product_category([chain(8), chain(8)]).category))
    text = serialize_document(doc)
    grid = parse_document(text)["G"].category
    assert (grid.n_objects, grid.n_mors) == (64, 1296)


def test_cap_size_hom_set_reads():
    # One hom-set of 4094 parallel arrows A -> B, the most the morphism cap
    # leaves beside the two identities.
    arrows = " ".join(f"arrows f{i} : A -> B ;" for i in range(MAX_MORPHISMS - 2))
    cat = parse_document(f"category C {{ objects A B ; {arrows} }}").category_of("C")
    assert cat.n_mors == MAX_MORPHISMS
    ends = list(zip(cat.mor_dom, cat.mor_cod))
    for key in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert cat.hom(*key) == tuple(m for m, e in enumerate(ends) if e == key)
    assert len(cat.hom(0, 1)) == MAX_MORPHISMS - 2


def test_act_source_outside_domain_fiber_rejected():
    with pytest.raises(UnresolvedReference) as e:
        parse_document(
            "poset P { elements a b ; leq a b }\n"
            "copresheaf H on P { at a = { x } ; at b = { y } ;\n"
            "  act le0_1 { x => y ; ghost => y } }"
        )
    assert "element 'ghost' in fiber of a" in str(e.value)


# A valid document with one statement of every map-like clause kind.
DUPLICATES_DOC = """\
poset P { elements a b ; leq a b }
monoid M { elements e t ; unit e ; mul e e = e ; mul e t = t ; mul t e = t ; mul t t = t }
category C { objects A B ; arrows f : A -> B }
functor F : C -> C { object A => A ; object B => B ; arrow f => f }
nattrans phi : F => F { at A = id_A ; at B = id_B }
copresheaf H on P { at a = { x } ; at b = { y } ; act le0_1 { x => y } }
system S in P over P using copresheaf H { object a => b ; object b => a ; bond a b => le0_1 ; cone a => y ; cone b => x }
coproducts on P { pair a b => b with inj1 le0_1 inj2 id_b }
category E { objects A ; arrows e : A -> A ; compose e e = e }
"""


@pytest.mark.parametrize(
    "stmt, sep",
    [
        pytest.param("mul e t = t", " ; ", id="monoid-mul"),
        pytest.param("object A => A", " ; ", id="functor-object"),
        pytest.param("arrow f => f", " ; ", id="functor-arrow"),
        pytest.param("at A = id_A", " ; ", id="nattrans-at"),
        pytest.param("at a = { x }", " ; ", id="copresheaf-at"),
        pytest.param("act le0_1 { x => y }", " ", id="copresheaf-act"),
        pytest.param("x => y", " ; ", id="copresheaf-act-line"),
        pytest.param("object a => b", " ; ", id="system-object"),
        pytest.param("bond a b => le0_1", " ; ", id="system-bond"),
        pytest.param("cone a => y", " ; ", id="system-cone"),
        pytest.param(
            "pair a b => b with inj1 le0_1 inj2 id_b", " ; ", id="coproducts-pair"
        ),
        pytest.param("compose e e = e", " ; ", id="category-compose"),
    ],
)
def test_repeated_statement_rejected(stmt, sep):
    parse_document(DUPLICATES_DOC)
    pos = DUPLICATES_DOC.index(stmt)
    text = DUPLICATES_DOC.replace(stmt, stmt + sep + stmt, 1)
    with pytest.raises(ValidationFailed) as e:
        parse_document(text)
    assert e.value.codes == {"DuplicateStatement"}
    assert f"(line {DUPLICATES_DOC.count(chr(10), 0, pos) + 1})" in str(e.value)


def test_repeated_fiber_element_rejected():
    with pytest.raises(ValidationFailed) as e:
        parse_document(
            "poset P { elements a b ; leq a b }\n"
            "copresheaf H on P { at a = { x x } ; at b = { y } ; act le0_1 { x => y } }"
        )
    assert e.value.codes == {"DuplicateName"}


def test_every_missing_arrow_and_cone_entry_listed():
    with pytest.raises(ValidationFailed) as e:
        parse_document(
            "category C { objects A B ; arrows f : A -> B ; arrows g : A -> B }\n"
            "functor F : C -> C { object A => A ; object B => B }"
        )
    assert [(v.code, v.detail) for v in e.value.violations] == [
        ("ArrowNotMapped", "f"),
        ("ArrowNotMapped", "g"),
    ]
    with pytest.raises(ValidationFailed) as e:
        parse_document(
            "poset P { elements a }\nposet I { elements i j k }\n"
            "copresheaf H on P { at a = { x } }\n"
            "system S in P over I using copresheaf H {\n"
            "  object i => a ; object j => a ; object k => a ; cone i => x }"
        )
    assert [(v.code, v.detail) for v in e.value.violations] == [
        ("ConeIncomplete", "j"),
        ("ConeIncomplete", "k"),
    ]
    with pytest.raises(ValidationFailed) as e:
        parse_document(
            "poset P { elements a }\nposet I { elements i }\n"
            "system S in P over I { object i => a ; cone i => x }"
        )
    assert e.value.codes == {"ConeWithoutCopresheaf"}


def test_large_fiber_action_and_unknown_element():
    n = 3000
    els = " ".join(f"e{i}" for i in range(n))
    acts = " ".join(f"e{i} => e{i * 7 % n} ;" for i in range(n))
    text = (
        "poset B { elements p q ; leq p q }\n"
        f"copresheaf H on B {{ at p = {{ {els} }} ; at q = {{ {els} }} ;\n"
        f"  act le0_1 {{ {acts} }} }}\n"
        "system S in B over B using copresheaf H {\n"
        "  object p => q ; object q => p ; bond p q => le0_1 ;\n"
        "  cone p => e7 ; cone q => e1 }\n"
    )
    doc = parse_document(text)
    cop = doc["H"].copresheaf
    assert cop.action[cop.base.mor_names.index("le0_1")] == tuple(
        i * 7 % n for i in range(n)
    )
    assert doc["S"].cone.elements == (7, 1)
    last = f"e{n - 1} => e{(n - 1) * 7 % n} ;"
    for old, new, message in [
        (last, f"e{n - 1} => ghost ;", "element 'ghost' in fiber of q"),
        (last, "ghost => e0 ;", "element 'ghost' in fiber of p"),
        ("cone q => e1", "cone q => ghost", "cone element 'ghost' at index q"),
    ]:
        with pytest.raises(UnresolvedReference) as e:
            parse_document(text.replace(old, new))
        assert message in str(e.value)


# A one-object category whose statements form one `arrows` run and one
# `compose` run, each statement on its own line (e and f are left zeros).
RUN_DOC = """\
category E {
  objects A ;
  arrows e : A -> A ;
  arrows f : A -> A ;
  compose e e = e ;
  compose e f = e ;
  compose f e = f ;
  compose f f = f ;
}
"""


def test_compose_run_may_omit_its_last_semicolon():
    want = parse_document(RUN_DOC)["E"].category
    got = parse_document(RUN_DOC.replace("f f = f ;", "f f = f"))["E"].category
    assert got == want
    assert list(got.comp.items()) == list(want.comp.items())


def _cap_doc():
    arrows = "".join(f"  arrows f{i} : A -> A ;\n" for i in range(MAX_MORPHISMS))
    return f"category C {{\n  objects A ;\n{arrows}  arrows g : A -> ;\n}}\n"


# Errors inside runs of regular statements; each message was recorded on the
# statement-at-a-time reader.
@pytest.mark.parametrize(
    "text, error, message",
    [
        pytest.param(
            RUN_DOC.replace("  compose f f = f ;\n", "  compose f f = f ;\n"
                            "  compose e f = e ;\n"),
            ValidationFailed, "category: DuplicateStatement: compose e f (line 9)",
            id="repeated-key",
        ),
        pytest.param(
            RUN_DOC.replace("compose e f = e", "compose e ghost = e")
            .replace("compose f f = f", "compose f f = ;"),
            UnresolvedReference, "arrow 'ghost' (line 6)",
            id="unknown-name-before-syntax-error",
        ),
        pytest.param(
            RUN_DOC.replace("compose e f = e", "compose ghost f = ;"),
            DslSyntaxError, "line 6, col 21: expected identifier, found ';'",
            id="syntax-error-in-the-unknown-name-statement",
        ),
        pytest.param(
            RUN_DOC.replace("compose f e = f", "compose f => = f"),
            DslSyntaxError, "line 7, col 13: expected identifier, found '=>'",
            id="punctuation-in-ref-slot",
        ),
        pytest.param(
            RUN_DOC.replace("arrows f :", "arrows ; :"),
            DslSyntaxError, "line 4, col 10: expected identifier, found ';'",
            id="punctuation-in-name-slot",
        ),
        pytest.param(
            RUN_DOC.replace("arrows f :", "arrows id_f :"),
            ValidationFailed, "category: ReservedName: arrow name 'id_f'",
            id="reserved-arrow-name",
        ),
        pytest.param(
            _cap_doc(), SizeBoundExceeded,
            f"category C has 1 objects / {MAX_MORPHISMS + 1} morphisms, "
            f"over the caps of {MAX_OBJECTS} / {MAX_MORPHISMS}",
            id="arrows-over-the-cap",
        ),
        pytest.param(
            "poset P {\n  elements a b c ;\n  leq a b ;\n  leq b ghost ;\n"
            "  leq c : ;\n}\n",
            UnresolvedReference, "element 'ghost' (line 4)",
            id="leq-unknown-name-before-syntax-error",
        ),
    ],
)
def test_statement_run_errors(text, error, message):
    with pytest.raises(error) as e:
        parse_document(text)
    assert type(e.value) is error
    assert str(e.value) == message
