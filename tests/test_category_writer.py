"""The written text and the normal form of a made category entity against
a transcription of the eager writer (``util.reference_written_category``
and ``util.reference_canonical``), and the round trip of that text through
the reader."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movcat import dsl
from movcat.builders import (
    canonical_category,
    coslice_category,
    elements_category,
    product_category,
    representable_copresheaf,
)
from movcat.campaign import THEOREMS, evaluate_instance, generate_campaign_instance
from movcat.core import FiniteCategory
from movcat.dsl import Document, make_category_entity, parse_document, serialize_document
from movcat.errors import MovcatError
from movcat.generators import GenParams, random_category
from util import (
    antichain,
    chain,
    cyclic,
    diamond,
    finset_retract,
    iso_pair,
    permuted,
    pointed_sets_2,
    reference_canonical,
    reference_written_category,
)


def _renamed(cat: FiniteCategory, mor_names, object_names=None) -> FiniteCategory:
    """``cat`` with new morphism names and, if given, new object names."""
    return FiniteCategory(
        tuple(object_names or cat.object_names), tuple(mor_names), cat.mor_dom,
        cat.mor_cod, cat.identity, dict(cat.comp),
    )


def _handmade() -> list[FiniteCategory]:
    """Categories whose normal form renames morphisms, moves identities to
    the front, or has composites of two non-identities equal to an
    identity."""
    c3 = chain(3)  # a0 < a1 < a2: identities 0..2, then le0_1, le0_2, le1_2
    dia, _ = diamond()
    # Every morphism of the diamond reversed in ref order, so each identity
    # moves to the front.
    flipped = permuted(dia, [3, 2, 1, 0], list(range(dia.n_mors))[::-1])
    return [
        # A non-identity named like an identity, taken or not.
        _renamed(c3, ["i0", "i1", "i2", "id_a0", "id_x", "g"]),
        # Duplicate arrow names, and a name equal to the one a rename picks
        # later ("f5" is taken by ref 3, so ref 5's rename appends "_").
        _renamed(c3, ["i0", "i1", "i2", "f5", "f", "f"]),
        _renamed(dia, [f"m{i}" for i in range(4)] + ["h"] * (dia.n_mors - 4)),
        # Duplicate object names: identities id_a, id_a_, id_a__, and arrows
        # whose own names collide with those.
        _renamed(c3, ["i0", "i1", "i2", "id_a_", "a", "a"], ["a", "a", "a"]),
        _renamed(antichain(3), ["x", "y", "z"], ["o", "o", "o_"]),
        flipped,
        _renamed(flipped, ["h"] * flipped.n_mors),
        # Composites equal to an identity: rotations, an isomorphism listed
        # before its identities, retracts.
        cyclic(4),
        iso_pair(),
        pointed_sets_2(),
        finset_retract(3, 2),
    ]


@functools.lru_cache(maxsize=None)
def _campaign_categories() -> tuple[FiniteCategory, ...]:
    """Every category built while the eight laws generate and evaluate
    their instances for seeds 0..99, in construction order."""
    built = []
    post_init = FiniteCategory.__post_init__

    def recorded(self):
        post_init(self)
        built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FiniteCategory, "__post_init__", recorded)
        for law in THEOREMS:
            for seed in range(100):
                evaluate_instance(law, generate_campaign_instance(law, seed))
    return tuple(built)


def _cap_categories() -> list[FiniteCategory]:
    """The coslice and the category of elements of hom(x, -) at an upper
    cover x of the bottom of chain(8)^2, and that grid itself."""
    prod = product_category([chain(8), chain(8)])
    x = prod.object_index([0, 1])
    return [
        coslice_category(prod.category, x).category,
        elements_category(representable_copresheaf(prod.category, x)).category,
        prod.category,
    ]


def _all_categories() -> list[FiniteCategory]:
    return _handmade() + _cap_categories() + list(_campaign_categories())


def _fields(c: FiniteCategory) -> tuple:
    return (
        c.object_names, c.mor_names, c.mor_dom, c.mor_cod, c.identity,
        list(c.comp.items()),
    )


def _written(entity) -> str:
    return serialize_document(Document([entity]))


def test_inputs_reach_out_of_normal_form():
    # Campaign sources with an identity out of place, and hand-made ones
    # that every rename rule touches.
    cats = _campaign_categories()
    assert len(cats) > 3000
    assert any(c.identity != tuple(range(c.n_objects)) for c in cats)
    renamed = [reference_canonical(c).mor_names for c in _handmade()]
    assert {"f3", "f4", "f5_", "id_a_", "id_o__"} <= {n for ns in renamed for n in ns}


def test_written_text_matches_eager_reference():
    for cat in _all_categories():
        assert _written(make_category_entity("K", cat)) == (
            reference_written_category("K", cat)
        )


def test_inputs_reach_both_compose_branches():
    """The writer reads a thin category's compose lines from per-target
    name columns and any other category's through ``comp``.  Both kinds
    are among the inputs that ``test_written_text_matches_eager_reference``
    compares, with their counts pinned: a thin one whose non-identities
    compose to an identity, and non-thin ones with a hom-set of two or more
    morphisms."""
    cats = _all_categories()
    thin = sum(c.thin for c in cats)
    assert (thin, len(cats) - thin) == (2915, 285)
    iso = iso_pair()
    ids = set(iso.identity)
    assert iso.thin and any(
        h in ids and g not in ids and f not in ids for (g, f), h in iso.comp.items()
    )
    multi = [cyclic(4), pointed_sets_2(), finset_retract(3, 2)]
    for cat in multi:
        objects = range(cat.n_objects)
        assert max(len(cat.hom(a, b)) for a in objects for b in objects) >= 2
        assert not cat.thin
    for cat in [iso, *multi]:
        assert cat in _handmade()
        assert _written(make_category_entity("K", cat)) == (
            reference_written_category("K", cat)
        )


def test_normal_form_matches_eager_reference():
    for cat in _all_categories():
        ref = _fields(reference_canonical(cat))
        assert _fields(make_category_entity("K", cat).category) == ref
        assert _fields(canonical_category(cat)[0]) == ref


def test_source_in_normal_form_is_its_own_normal_form():
    """A source equal to its normal form field by field is returned as it
    is, with the identity permutation; any other source, one with an
    identity out of place or a name to change, gets a new normal form."""
    same = moved = renamed = 0
    for cat in _all_categories():
        ref = reference_canonical(cat)
        made = make_category_entity("K", cat)
        normal = made.category
        assert _fields(normal) == _fields(ref)
        assert _written(made) == reference_written_category("K", cat)
        if _fields(cat) == _fields(ref):
            same += 1
            assert normal is cat and normal is made.source
            assert list(normal.comp.items()) == list(ref.comp.items())
            assert canonical_category(cat) == (cat, tuple(range(cat.n_mors)))
        else:
            assert normal is not cat
            if cat.identity == tuple(range(cat.n_objects)):
                renamed += 1
            else:
                moved += 1
    assert min(same, moved, renamed) > 500


def test_made_entity_equals_its_parsed_text():
    # The reader refuses duplicate object names, so those are left out.
    readable = [c for c in _handmade() if len(set(c.object_names)) == c.n_objects]
    for cat in readable + _cap_categories():
        made = make_category_entity("K", cat)
        parsed = parse_document(_written(made))["K"]
        assert made == parsed and parsed == made
        assert hash(made) == hash(parsed)
        assert made != make_category_entity("L", cat) and made != cat
    made = {make_category_entity("K", c) for c in _handmade()}
    assert len(made) == len(_handmade())


def _count_canonical(monkeypatch) -> list:
    """Record each argument of every canonical form that ``dsl`` builds."""
    calls = []

    def counted(cat):
        calls.append(cat)
        return canonical_category(cat)

    monkeypatch.setattr(dsl, "canonical_category", counted)
    return calls


def test_writing_a_made_entity_builds_no_normal_form(monkeypatch):
    calls = _count_canonical(monkeypatch)
    for cat in _handmade() + _cap_categories():
        made = make_category_entity("K", cat)
        assert made.source is cat
        assert _written(made) == reference_written_category("K", cat)
    assert calls == []


def test_normal_form_built_once_on_first_read(monkeypatch):
    calls = _count_canonical(monkeypatch)
    cat = _handmade()[0]
    made = make_category_entity("K", cat)
    first = made.category
    assert calls == [cat]
    assert made.category is first and calls == [cat]
    # Writing after the read still matches and builds nothing more.
    assert _written(made) == reference_written_category("K", cat)
    assert len(calls) == 1


def test_parsed_entity_holds_its_validated_category(monkeypatch):
    validated = []
    validate = dsl.validate_category

    def recorded(*args):
        validated.append(validate(*args))
        return validated[-1]

    monkeypatch.setattr(dsl, "validate_category", recorded)
    calls = _count_canonical(monkeypatch)
    text = _written(make_category_entity("K", _cap_categories()[0]))
    doc = parse_document(text)
    entity = doc["K"]
    assert entity.category is validated[0] and entity.source is validated[0]
    assert doc.category_of("K") is validated[0]
    assert serialize_document(doc) == text
    assert calls == []


# A drawn generator seed and one of three constructions on the random
# category it draws.  Small caps keep every truncation of the text cheap.
SMALL = GenParams(max_objects=3, max_morphisms=8, max_fiber=2)


def _drawn_category(seed: int, shape: str) -> FiniteCategory:
    rng = random.Random(seed)
    base = random_category(rng, SMALL)
    if shape == "category":
        return base
    x = rng.randrange(base.n_objects)
    if shape == "coslice":
        return coslice_category(base, x).category
    return elements_category(representable_copresheaf(base, x)).category


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["category", "coslice", "elements"]),
)
def test_written_text_round_trips(seed, shape):
    made = make_category_entity("K", _drawn_category(seed, shape))
    text = _written(made)
    doc = parse_document(text)
    assert serialize_document(doc) == text
    assert doc["K"] == made
    # Every truncation raises a MovcatError, except the empty text and
    # those that keep the closing brace.
    for k in range(len(text)):
        try:
            parse_document(text[:k])
        except MovcatError:
            continue
        assert k == 0 or text[:k] == text.rstrip()
